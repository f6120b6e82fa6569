"""QA encoding and labels, the batched QA forward and loss against the
batch-of-one path, the joint loss, and answer selection against the
brute-force oracle."""

import math

import numpy as np
import pytest
from conftest import oracle_record, padded, random_score_grids

from dialoqa import finetune
from dialoqa import tensor as T
from dialoqa.corpus import AnswerSpan, Dialogue, Utterance, make_example, truncate
from dialoqa.encoder import STAGE_FINETUNED, ModelConfig, init_encoder_weights
from dialoqa.errors import CapacityError, ShapeError
from dialoqa.finetune import (
    encode_for_qa,
    joint_loss,
    predict,
    qa_batch_logits,
    qa_batch_loss,
    select_answer,
)
from dialoqa.optim import grad_check
from dialoqa.vocab import build_vocab

TOY = ModelConfig(
    vocab_size=50, num_layers=2, num_heads=2, hidden_size=8,
    intermediate_size=16, max_tokens=6, max_utterances=4, dropout_p=0.0,
)


def _dialogue(m=3, n=4):
    utts = tuple(
        Utterance(f"spk{i % 2}", tuple(f"tok{i}{j}" for j in range(n)))
        for i in range(m)
    )
    return Dialogue(1, "s0", utts)


@pytest.fixture(scope="module")
def vocab():
    return build_vocab([_dialogue(4, 6)], min_freq=1)


@pytest.fixture(scope="module")
def cfg(vocab):
    return ModelConfig(**{**TOY.to_dict(), "vocab_size": len(vocab)})


@pytest.fixture(scope="module")
def weights(cfg):
    return init_encoder_weights(cfg, STAGE_FINETUNED, np.random.default_rng(0))


class TestEncodeForQA:
    def test_unanswerable(self, vocab, cfg):
        q = make_example("q0", "where is it", ())
        enc = encode_for_qa(vocab, cfg, q, _dialogue())
        assert enc.uid_label == 0
        assert all(lab == (0, 0) for lab in enc.span_labels)

    def test_index_shift(self, vocab, cfg):
        q = make_example("q1", "what", (AnswerSpan(1, 0, 1, "tok10 tok11"),))
        enc = encode_for_qa(vocab, cfg, q, _dialogue())
        assert enc.uid_label == 2
        assert enc.span_labels[1] == (1, 2)
        assert enc.span_labels[0] == (0, 0)

    def test_label_round_trip_reproduces_gold_text(self, vocab, cfg):
        d = _dialogue()
        gold = AnswerSpan(2, 1, 3, "tok21 tok22 tok23")
        q = make_example("q2", "what", (gold,))
        enc = encode_for_qa(vocab, cfg, q, d)
        ui = enc.uid_label - 1
        left, right = enc.span_labels[ui]
        text = " ".join(d.utterances[ui].tokens[left - 1 : right])
        assert text == gold.text

    def test_question_sequence_layout(self, vocab, cfg):
        q = make_example("q3", "where is tok00", ())
        enc = encode_for_qa(vocab, cfg, q, _dialogue())
        assert enc.question_ids[0] == vocab.cls
        assert len(enc.question_ids) == 4
        for seq, utt in zip(enc.utterance_ids, _dialogue().utterances):
            assert seq[0] == vocab.cls
            assert seq[1] in vocab.speaker_ids
            assert len(seq) == len(utt.tokens) + 2

    def test_an_over_long_question_is_cut_at_the_token_positions(self, vocab, cfg, weights):
        """A question sequence is cut at TE's 25 positions, as the token MLM
        sequences are, so TE can encode it."""
        words = " ".join(f"tok{i % 4}{i % 6}" for i in range(40))
        enc = encode_for_qa(vocab, cfg, make_example("q", f"what {words}", ()), _dialogue())
        full = [vocab.cls, vocab.word_id("what")] + [
            vocab.word_id(f"tok{i % 4}{i % 6}") for i in range(40)
        ]
        assert cfg.token_position_capacity == 25
        assert enc.question_ids == tuple(full[:25])
        uid, _, _ = predict(weights, enc)
        assert uid.shape == (4,)

    def test_a_span_the_truncation_cut_is_no_label(self, vocab, cfg):
        """The labels come from the first gold span inside the truncated
        dialogue; a question with no span left there is labelled
        unanswerable, while its gold answers stay as the corpus gives them."""
        d = truncate(_dialogue(5, 5), 3, 3)
        cases = {
            "keep": ((AnswerSpan(1, 0, 1, "tok10 tok11"),), 2, (1, 2)),
            "drop-utt": ((AnswerSpan(4, 0, 0, "tok40"),), 0, None),
            "drop-tok": ((AnswerSpan(0, 3, 4, "tok03 tok04"),), 0, None),
            "partial": ((AnswerSpan(4, 0, 0, "tok40"), AnswerSpan(2, 1, 1, "tok21")), 3, (2, 2)),
        }
        for qid, (answers, uid_label, span) in cases.items():
            enc = encode_for_qa(vocab, cfg, make_example(qid, "what", answers), d)
            assert enc.uid_label == uid_label, qid
            expected = [(0, 0)] * 3
            if span is not None:
                expected[uid_label - 1] = span
            assert list(enc.span_labels) == expected, qid

    def test_untruncated_dialogue_rejected(self, vocab, cfg):
        with pytest.raises(CapacityError):
            encode_for_qa(vocab, cfg, make_example("q", "what", ()), _dialogue(m=9))


class TestUidForward:
    def test_shape_and_normalization(self, vocab, cfg, weights):
        enc = encode_for_qa(vocab, cfg, make_example("q", "what", ()), _dialogue())
        scores, _, _ = predict(weights, enc)
        assert scores.shape == (4,)  # m + 1
        assert abs(scores.sum() - 1.0) < 1e-9

    def test_duplicate_utterances_equal_logits_without_positions(self, vocab, cfg, weights):
        utt = Utterance("spk0", ("tok00", "tok01"))
        d = Dialogue(1, "s0", (utt, utt, Utterance("spk1", ("tok10",))))
        enc = encode_for_qa(vocab, cfg, make_example("q", "what", ()), d)
        saved = weights["utt_pos_emb"].array.copy()
        weights["utt_pos_emb"].array[:] = 0.0
        try:
            scores, _, _ = predict(weights, enc)
        finally:
            weights["utt_pos_emb"].array[:] = saved
        assert abs(scores[1] - scores[2]) < 1e-9

    def test_argmax_invariant_under_logit_shift(self):
        logits = np.array([0.3, -0.1, 1.2, 0.9])
        a = T.softmax(T.Tensor(logits)).array
        b = T.softmax(T.Tensor(logits + 17.0)).array
        assert np.argmax(a) == np.argmax(b)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestSpanForward:
    def test_widths_and_normalization(self, vocab, cfg, weights):
        """Rows are the utterances, S the widest head; each row sums to 1 over
        its null slot and words, and every slot past its width holds 0."""
        utts = tuple(
            Utterance("spk0", tuple(f"tok{i}{j}" for j in range(n)))
            for i, n in enumerate((4, 2, 3))
        )
        enc = encode_for_qa(vocab, cfg, make_example("q", "what is it", ()), Dialogue(1, "s0", utts))
        _, left, right = predict(weights, enc)
        assert left.shape == right.shape == (3, 5)
        for scores in (left, right):
            for row, utt in zip(scores, utts):
                width = len(utt.tokens)
                assert abs(row[: width + 1].sum() - 1.0) < 1e-9
                assert np.all(row[width + 1 :] == 0.0)


class TestJointLoss:
    def test_init_near_uniform_baseline(self, vocab, cfg):
        # m = 3, n = 4: ln(m+1) + 2 ln(n+1), averaged over seeds
        d = _dialogue(3, 4)
        q = make_example("q", "what", (AnswerSpan(0, 1, 2, "tok01 tok02"),))
        enc = encode_for_qa(vocab, cfg, q, d)
        losses = []
        for seed in range(5):
            w = init_encoder_weights(cfg, STAGE_FINETUNED, np.random.default_rng(seed))
            losses.append(joint_loss(w, enc).item())
        expected = math.log(4) + 2 * math.log(5)
        assert abs(np.mean(losses) - expected) / expected < 0.20

    def test_perfect_logits_near_zero(self, vocab, cfg, weights, monkeypatch):
        d = _dialogue(2, 3)
        q = make_example("q", "what", (AnswerSpan(1, 0, 1, "tok10 tok11"),))
        enc = encode_for_qa(vocab, cfg, q, d)
        big = 30.0
        uid = np.full((1, 3), -big)
        uid[0, enc.uid_label] = big
        widths = [len(u) - 1 for u in enc.utterance_ids]
        left = np.full((1, 2, max(widths)), -big)
        right = np.full((1, 2, max(widths)), -big)
        g = enc.uid_label - 1
        left[0, g, enc.span_labels[g][0]] = big
        right[0, g, enc.span_labels[g][1]] = big
        perfect = (T.Tensor(uid), T.Tensor(left), T.Tensor(right))
        monkeypatch.setattr(finetune, "qa_batch_logits", lambda *a, **k: perfect)
        loss = qa_batch_loss(weights, [enc])
        assert loss.item() < 1e-6

    def test_unanswerable_null_policy(self, vocab, cfg, weights):
        d = _dialogue(3, 4)
        enc = encode_for_qa(vocab, cfg, make_example("q", "what", ()), d)
        loss = joint_loss(weights, enc)
        # composition: uid CE + mean left null CE + mean right null CE
        expected_ballpark = math.log(4) + 2 * math.log(5)
        assert 0.5 * expected_ballpark < loss.item() < 1.5 * expected_ballpark

    def test_gradcheck_through_mha_and_heads(self, vocab, cfg):
        w = init_encoder_weights(cfg, STAGE_FINETUNED, np.random.default_rng(7))
        d = _dialogue(2, 3)
        q = make_example("q", "what tok10", (AnswerSpan(1, 1, 2, "tok11 tok12"),))
        enc = encode_for_qa(vocab, cfg, q, d)
        report = grad_check(
            lambda: joint_loss(w, enc), dict(w.named()),
            rng=np.random.default_rng(8), max_coords_per_param=4,
        )
        assert report.max_rel_err < 1e-4, report

    def test_gradcheck_unanswerable_path(self, vocab, cfg):
        w = init_encoder_weights(cfg, STAGE_FINETUNED, np.random.default_rng(9))
        enc = encode_for_qa(vocab, cfg, make_example("q", "what", ()), _dialogue(2, 3))
        report = grad_check(
            lambda: joint_loss(w, enc),
            {n: w[n] for n in ("mha.wo", "mha.bo", "sl_w", "sr_w", "uid_w")},
        )
        assert report.max_rel_err < 1e-4, report


def _mixed_batch(vocab, cfg):
    """Five questions over two dialogues of different shapes: answerable
    ones in different utterances and an unanswerable one per dialogue."""
    big, small = _dialogue(3, 4), _dialogue(2, 3)
    questions = [
        (make_example("a1", "what tok10", (AnswerSpan(1, 1, 2, "tok11 tok12"),)), big),
        (make_example("a2", "who said it", ()), big),
        (make_example("a3", "what", (AnswerSpan(2, 0, 3, "tok20 tok21 tok22 tok23"),)), big),
        (make_example("b1", "where", (AnswerSpan(0, 2, 2, "tok02"),)), small),
        (make_example("b2", "why is tok11 here", ()), small),
    ]
    return [encode_for_qa(vocab, cfg, q, d) for q, d in questions]


class TestBatchedQA:
    def test_batch_equals_mean_of_batches_of_one(self, vocab, cfg, weights):
        encs = _mixed_batch(vocab, cfg)
        weights.zero_grads()
        batched = qa_batch_loss(weights, encs)
        batched.backward()
        batched_grads = {n: g.copy() for n, g in weights.views(weights.grads()).items()}
        singles = []
        grad_sum = {n: np.zeros_like(g) for n, g in batched_grads.items()}
        for enc in encs:
            weights.zero_grads()
            loss = joint_loss(weights, enc)
            loss.backward()
            singles.append(loss.item())
            for n, g in weights.views(weights.grads()).items():
                grad_sum[n] += g
        weights.zero_grads()
        assert abs(batched.item() - np.mean(singles)) < 1e-10
        for n, g in batched_grads.items():
            np.testing.assert_allclose(g, grad_sum[n] / len(encs), rtol=0, atol=1e-10, err_msg=n)

    def test_batched_scores_match_predict(self, vocab, cfg, weights):
        encs = _mixed_batch(vocab, cfg)
        uid, left, right = qa_batch_logits(weights, encs)
        uid_p = T.softmax(uid, axis=-1).array
        left_p = T.softmax(left, axis=-1).array
        right_p = T.softmax(right, axis=-1).array
        for b, enc in enumerate(encs):
            want = predict(weights, enc)
            m, s = want[1].shape
            assert np.all(uid_p[b, m + 1 :] == 0.0)
            assert np.all(left_p[b, :m, s:] == 0.0) and np.all(right_p[b, :m, s:] == 0.0)
            for got, scores in zip((uid_p[b, : m + 1], left_p[b, :m, :s], right_p[b, :m, :s]), want):
                np.testing.assert_allclose(got, scores, rtol=0, atol=1e-10)

    def test_gradcheck_batch_of_three(self, vocab, cfg):
        w = init_encoder_weights(cfg, STAGE_FINETUNED, np.random.default_rng(11))
        encs = _mixed_batch(vocab, cfg)[2:]
        report = grad_check(
            lambda: qa_batch_loss(w, encs), dict(w.named()),
            rng=np.random.default_rng(12), max_coords_per_param=3,
        )
        assert report.max_rel_err < 1e-4, report


class TestFrozenWeights:
    def test_predict_matches_and_records_no_graph(self, vocab, cfg):
        w = init_encoder_weights(cfg, STAGE_FINETUNED, np.random.default_rng(3))
        frozen = w.frozen()
        assert all(frozen[name].array is p.array for name, p in w.named())
        for enc in _mixed_batch(vocab, cfg):
            for got, want in zip(predict(frozen, enc), predict(w, enc)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        outputs = qa_batch_logits(frozen, _mixed_batch(vocab, cfg))
        assert all(t._parents == () and t._backward is None for t in outputs)
        T.tsum(outputs[0]).backward()
        assert all(p.grad is None for _, p in w.named())
        assert all(p.grad is None for _, p in frozen.named())


def _select(uid, spans, fill=0.0):
    """``select_answer`` on ragged per-utterance (left, right) arrays, padded
    to ``predict``'s layout with ``fill``."""
    return select_answer(uid, *padded(spans, fill))


class TestSelectAnswer:
    def test_all_null_dominant(self):
        uid = [0.1, 0.5, 0.4]
        spans = [
            (np.array([10.0, 0.0, 0.0]), np.array([10.0, 0.0, 0.0])),
            (np.array([10.0, 1.0]), np.array([10.0, 1.0])),
        ]
        assert _select(uid, spans) == (None, None, None)

    def test_dominant_span_with_top_uid(self):
        uid = [0.05, 0.2, 0.75]
        spans = [
            (np.array([5.0, 0.0, 0.0]), np.array([5.0, 0.0, 0.0])),
            (np.array([0.0, 9.0, 0.1]), np.array([0.0, 0.1, 9.0])),
        ]
        assert _select(uid, spans) == (1, 0, 1)

    def test_uid_argmax_zero_forces_no_answer(self):
        uid = [0.9, 0.05, 0.05]
        spans = [
            (np.array([0.0, 9.0]), np.array([0.0, 9.0])),
            (np.array([0.0, 9.0]), np.array([0.0, 9.0])),
        ]
        assert _select(uid, spans) == (None, None, None)

    def test_l_never_exceeds_r(self):
        # right scores peak before left scores: constrained argmax keeps l <= r
        uid = [0.0, 1.0]
        spans = [(np.array([0.0, 0.0, 9.0]), np.array([0.0, 9.0, 0.0]))]
        _, start, end = _select(uid, spans)
        assert start <= end

    def test_a_width_of_zero_bears_no_span(self):
        """An utterance with no word slot never answers, even when its padding
        would outscore its null slots and its UID score is the highest."""
        uid = [0.1, 0.6, 0.3]
        spans = [
            (np.array([1.0]), np.array([1.0])),
            (np.array([0.0, 2.0, 0.0]), np.array([0.0, 0.0, 2.0])),
        ]
        assert _select(uid, spans, fill=9.0) == (1, 0, 1)
        assert _select(uid[:2], spans[:1], fill=9.0) == (None, None, None)

    def test_one_utterance(self):
        spans = [(np.array([0.0, 3.0, 1.0, 3.0]), np.array([0.0, 1.0, 3.0, 3.0]))]
        assert _select([0.2, 0.8], spans) == (0, 0, 1)
        assert _select([0.8, 0.2], spans) == (None, None, None)

    @pytest.mark.parametrize("integer", [False, True])
    def test_matches_brute_force_oracle(self, integer):
        rng = np.random.default_rng(1234 if integer else 4321)
        for _ in range(2000):
            uid, spans = random_score_grids(rng, integer=integer)
            assert _select(uid, spans) == oracle_record(uid, spans)

    @pytest.mark.parametrize("integer", [False, True])
    def test_matches_brute_force_oracle_with_wordless_utterances(self, integer):
        """Utterances of width 0 too, padded with a score that would win
        wherever ``select_answer`` read a slot past a width."""
        rng = np.random.default_rng(1235 if integer else 4322)
        for _ in range(2000):
            uid, spans = random_score_grids(rng, integer=integer, min_width=0)
            assert _select(uid, spans, fill=9.0) == oracle_record(uid, spans)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        uid, spans = random_score_grids(rng, integer=False)
        assert _select(uid, spans) == _select(uid, spans)

    @pytest.mark.parametrize(
        "shapes",
        [
            dict(uid=(3, 1)),
            dict(uid=(4,)),
            dict(right=(2, 5)),
            dict(left=(2, 4, 1), right=(2, 4, 1)),
            dict(left=(2, 0), right=(2, 0), widths=[0, 0]),
            dict(widths=[1]),
            dict(widths=[1, 4]),
            dict(widths=[-1, 2]),
        ],
        ids=["uid-2d", "uid-length", "right-width", "3d", "no-slot", "widths-short",
             "width-over", "width-negative"],
    )
    def test_disagreeing_shapes_raise(self, shapes):
        args = {"uid": (3,), "left": (2, 4), "right": (2, 4), "widths": [1, 3], **shapes}
        with pytest.raises(ShapeError):
            select_answer(
                *(np.zeros(args[k]) for k in ("uid", "left", "right")), args["widths"]
            )


def test_predict_shapes(vocab, cfg, weights):
    d = _dialogue(3, 4)
    enc = encode_for_qa(vocab, cfg, make_example("q", "what is tok21", ()), d)
    uid, left, right = predict(weights, enc)
    assert uid.shape == (4,) and left.shape == right.shape == (3, 5)
    ui, start, end = select_answer(uid, left, right, [4, 4, 4])
    if ui is not None:
        assert 0 <= ui < 3 and 0 <= start <= end < 4
