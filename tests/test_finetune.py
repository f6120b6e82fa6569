"""QA encoding and labels, the batched QA forward and loss against the
batch-of-one path, the joint loss, and answer selection against the
brute-force oracle."""

import math

import numpy as np
import pytest
from conftest import brute_force_select, random_score_grids

from dialoqa import finetune
from dialoqa import tensor as T
from dialoqa.corpus import AnswerSpan, Dialogue, Utterance, make_example
from dialoqa.encoder import STAGE_FINETUNED, ModelConfig, init_encoder_weights
from dialoqa.errors import CapacityError
from dialoqa.finetune import (
    Prediction,
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
        scores, _ = predict(weights, enc)
        assert scores.shape == (4,)

    def test_untruncated_dialogue_rejected(self, vocab, cfg):
        with pytest.raises(CapacityError):
            encode_for_qa(vocab, cfg, make_example("q", "what", ()), _dialogue(m=9))


class TestUidForward:
    def test_shape_and_normalization(self, vocab, cfg, weights):
        enc = encode_for_qa(vocab, cfg, make_example("q", "what", ()), _dialogue())
        scores, _ = predict(weights, enc)
        assert scores.shape == (4,)  # m + 1
        assert abs(scores.sum() - 1.0) < 1e-9

    def test_duplicate_utterances_equal_logits_without_positions(self, vocab, cfg, weights):
        utt = Utterance("spk0", ("tok00", "tok01"))
        d = Dialogue(1, "s0", (utt, utt, Utterance("spk1", ("tok10",))))
        enc = encode_for_qa(vocab, cfg, make_example("q", "what", ()), d)
        saved = weights["utt_pos_emb"].array.copy()
        weights["utt_pos_emb"].array[:] = 0.0
        try:
            scores, _ = predict(weights, enc)
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
        d = _dialogue(3, 4)
        enc = encode_for_qa(vocab, cfg, make_example("q", "what is it", ()), d)
        _, outs = predict(weights, enc)
        assert len(outs) == 3
        for (ls, rs), utt in zip(outs, d.utterances):
            assert ls.shape == (len(utt.tokens) + 1,)
            assert rs.shape == (len(utt.tokens) + 1,)
            assert abs(ls.sum() - 1.0) < 1e-9
            assert abs(rs.sum() - 1.0) < 1e-9


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
            m = enc.num_utterances
            assert np.all(uid_p[b, m + 1 :] == 0.0)
            want_uid, want_spans = predict(weights, enc)
            np.testing.assert_allclose(uid_p[b, : m + 1], want_uid, rtol=0, atol=1e-10)
            for i, (ls, rs) in enumerate(want_spans):
                width = ls.shape[0]
                assert np.all(left_p[b, i, width:] == 0.0)
                np.testing.assert_allclose(left_p[b, i, :width], ls, rtol=0, atol=1e-10)
                np.testing.assert_allclose(right_p[b, i, :width], rs, rtol=0, atol=1e-10)

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
            want_uid, want_spans = predict(w, enc)
            got_uid, got_spans = predict(frozen, enc)
            np.testing.assert_allclose(got_uid, want_uid, rtol=0, atol=1e-12)
            for (gl, gr), (wl, wr) in zip(got_spans, want_spans):
                np.testing.assert_allclose(gl, wl, rtol=0, atol=1e-12)
                np.testing.assert_allclose(gr, wr, rtol=0, atol=1e-12)
        outputs = qa_batch_logits(frozen, _mixed_batch(vocab, cfg))
        assert all(t._parents == () and t._backward is None for t in outputs)
        T.tsum(outputs[0]).backward()
        assert all(p.grad is None for _, p in w.named())
        assert all(p.grad is None for _, p in frozen.named())


class TestSelectAnswer:
    def test_all_null_dominant(self):
        uid = [0.1, 0.5, 0.4]
        spans = [
            (np.array([10.0, 0.0, 0.0]), np.array([10.0, 0.0, 0.0])),
            (np.array([10.0, 1.0]), np.array([10.0, 1.0])),
        ]
        p = select_answer(uid, spans)
        assert p.utterance_index == 0
        assert p.token_start is None and p.token_end is None

    def test_dominant_span_with_top_uid(self):
        uid = [0.05, 0.2, 0.75]
        spans = [
            (np.array([5.0, 0.0, 0.0]), np.array([5.0, 0.0, 0.0])),
            (np.array([0.0, 9.0, 0.1]), np.array([0.0, 0.1, 9.0])),
        ]
        p = select_answer(uid, spans)
        assert p.utterance_index == 2
        assert (p.token_start, p.token_end) == (0, 1)

    def test_uid_argmax_zero_forces_no_answer(self):
        uid = [0.9, 0.05, 0.05]
        spans = [
            (np.array([0.0, 9.0]), np.array([0.0, 9.0])),
            (np.array([0.0, 9.0]), np.array([0.0, 9.0])),
        ]
        assert select_answer(uid, spans).utterance_index == 0

    def test_l_never_exceeds_r(self):
        # right scores peak before left scores: constrained argmax keeps l <= r
        uid = [0.0, 1.0]
        spans = [(np.array([0.0, 0.0, 9.0]), np.array([0.0, 9.0, 0.0]))]
        p = select_answer(uid, spans)
        assert p.token_start <= p.token_end

    @pytest.mark.parametrize("integer", [False, True])
    def test_matches_brute_force_oracle(self, integer):
        rng = np.random.default_rng(1234 if integer else 4321)
        for _ in range(2000):
            uid, spans = random_score_grids(rng, integer=integer)
            got = select_answer(uid, spans)
            want = brute_force_select(uid, spans)
            assert (got.utterance_index, got.token_start, got.token_end) == want

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        uid, spans = random_score_grids(rng, integer=False)
        a = select_answer(uid, spans)
        b = select_answer(uid, spans)
        assert a == b


def test_predict_shapes(vocab, cfg, weights):
    d = _dialogue(3, 4)
    enc = encode_for_qa(vocab, cfg, make_example("q", "what is tok21", ()), d)
    uid, spans = predict(weights, enc)
    assert uid.shape == (4,)
    assert len(spans) == 3
    p = select_answer(uid, spans)
    assert isinstance(p, Prediction)
    if p.utterance_index > 0:
        n = len(d.utterances[p.utterance_index - 1].tokens)
        assert 0 <= p.token_start <= p.token_end < n
