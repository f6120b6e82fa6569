"""Masking statistics, pre-training instance construction, loss sanity bands,
memorization runs, and gradient checks."""

import math

import numpy as np
import pytest
from conftest import grad_check

from dialoqa.corpus import AnswerSpan, Dialogue, Utterance, make_example
from dialoqa.encoder import ModelConfig, init_encoder_weights
from dialoqa.errors import CapacityError, CorpusError
from dialoqa.finetune import encode_for_qa, qa_batch_loss
from dialoqa.optim import AdamState, adam_step
from dialoqa.pretrain import (
    UOP_IN_ORDER,
    UOP_SHUFFLED,
    UopInstance,
    build_tmlm_instance,
    build_umlm_instances,
    build_uop_instance,
    encode_dialogue,
    mask_tokens,
    mlm_batch_loss,
    uop_batch_logits,
    uop_batch_loss,
)
from dialoqa.training import mlm_dev_perplexity
from dialoqa.vocab import build_vocab

TOY = ModelConfig(
    vocab_size=50, num_layers=2, num_heads=2, hidden_size=8,
    intermediate_size=16, max_tokens=8, max_utterances=6, dropout_p=0.0,
)

WORDS = [f"w{i:02d}" for i in range(40)]


def _dialogue(num_utts=4, words_per_utt=4, episode=1):
    utts = []
    for i in range(num_utts):
        toks = tuple(WORDS[(i * words_per_utt + j) % len(WORDS)] for j in range(words_per_utt))
        utts.append(Utterance(f"spk{i % 3}", toks))
    return Dialogue(episode, "s0", tuple(utts))


def _encoded(vocab, *shape):
    return encode_dialogue(vocab, _dialogue(*shape))


@pytest.fixture(scope="module")
def vocab():
    return build_vocab([_dialogue(6, 6)], min_freq=1)


class TestMaskTokens:
    def test_forcing_guarantees_one(self, vocab):
        ids = [vocab.cls, 10, 11]
        _, pos, _ = mask_tokens(vocab, ids, [1, 2], np.random.default_rng(0), ratio=0.0)
        assert len(pos) == 1

    def test_no_maskable_positions_is_error(self, vocab):
        with pytest.raises(CorpusError):
            mask_tokens(vocab, [vocab.cls], [], np.random.default_rng(0))

    def test_monte_carlo_selection_and_substitution(self, vocab):
        n = 10**6
        ids = list(range(4, 4 + 30)) * (n // 30 + 1)
        ids = ids[:n]
        rng = np.random.default_rng(123)
        out, pos, labels = mask_tokens(vocab, ids, list(range(n)), rng, ratio=0.15)
        rate = len(pos) / n
        assert abs(rate - 0.15) < 0.002
        masked = sum(1 for p in pos if out[p] == vocab.mask)
        unchanged = sum(1 for p, lab in zip(pos, labels) if out[p] == lab and lab != vocab.mask)
        random_sub = len(pos) - masked - unchanged
        # random substitutions can coincide with the original id (~1/|V|);
        # they are counted as unchanged above, well inside the +-0.02 band
        assert abs(masked / len(pos) - 0.80) < 0.02
        assert abs(random_sub / len(pos) - 0.10) < 0.02
        assert abs(unchanged / len(pos) - 0.10) < 0.02

    def test_same_seed_static_fresh_seed_dynamic(self, vocab):
        ids = list(range(4, 4 + 34)) * 3
        maskable = list(range(len(ids)))
        a = mask_tokens(vocab, ids, maskable, np.random.default_rng(42))
        b = mask_tokens(vocab, ids, maskable, np.random.default_rng(42))
        assert a == b  # static reuse: identical masks
        seen = {tuple(mask_tokens(vocab, ids, maskable, np.random.default_rng(s))[1])
                for s in range(25)}
        assert len(seen) > 23  # dynamic: fresh seeds give fresh masks

    def test_labels_never_special_and_positions_never_cls_speaker(self, vocab):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = _dialogue(int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            ids = encode_dialogue(vocab, d).token_ids
            speaker_slots = {i for i, t in enumerate(ids) if vocab.id_to_token[t].startswith("SPK:")}
            inst = build_tmlm_instance(vocab, TOY, encode_dialogue(vocab, d), rng)
            assert len(inst.rows) == len(inst.labels)
            for p, lab in zip(inst.rows, inst.labels):
                assert p != 0 and p not in speaker_slots
                assert lab >= 4


class TestTmlmInstance:
    def test_sequence_length_counting(self, vocab):
        inst = build_tmlm_instance(vocab, TOY, _encoded(vocab, 2, 2), np.random.default_rng(0))
        assert len(inst.token_ids) == 1 + 2 * (1 + 2)

    def test_cls_first_speakers_in_place(self, vocab):
        d = _dialogue(3, 2)
        inst = build_tmlm_instance(vocab, TOY, encode_dialogue(vocab, d), np.random.default_rng(1))
        assert inst.token_ids[0] == vocab.cls
        assert vocab.id_to_token[inst.token_ids[1]].startswith("SPK:")
        assert vocab.id_to_token[inst.token_ids[4]].startswith("SPK:")

    def test_unmasked_build_decodes_to_dialogue(self, vocab):
        d = _dialogue(3, 3)
        ids = encode_dialogue(vocab, d).token_ids
        text = [vocab.id_to_token[i] for i in ids]
        expected = ["[CLS]"]
        for u in d.utterances:
            expected.append(f"SPK:{u.speaker}")
            expected.extend(u.tokens)
        assert text == expected

    def test_capacity_error(self, vocab):
        small = ModelConfig(**{**TOY.to_dict(), "max_tokens": 2, "max_utterances": 2})
        with pytest.raises(CapacityError):
            build_tmlm_instance(vocab, small, _encoded(vocab, 4, 4), np.random.default_rng(0))


class TestUmlmInstances:
    def test_three_words_three_samples_cover_all(self, vocab):
        d = Dialogue(1, "s", (Utterance("spk0", ("w00", "w01", "w02")),))
        insts = build_umlm_instances(vocab, encode_dialogue(vocab, d), np.random.default_rng(0), 3)
        assert len(insts) == 3
        assert sorted(i.token_ids.index(vocab.mask) for i in insts) == [2, 3, 4]

    def test_instance_length_n_plus_2(self, vocab):
        d = Dialogue(1, "s", (Utterance("spk0", tuple(WORDS[:5])),))
        insts = build_umlm_instances(vocab, encode_dialogue(vocab, d), np.random.default_rng(0), 1)
        assert len(insts[0].token_ids) == 5 + 2

    def test_mask_never_cls_or_speaker(self, vocab):
        rng = np.random.default_rng(2)
        for _ in range(30):
            insts = build_umlm_instances(vocab, _encoded(vocab, 3, 4), rng, 2)
            for inst in insts:
                assert inst.token_ids.count(vocab.mask) == 1
                assert inst.token_ids.index(vocab.mask) >= 2
                assert inst.rows == (0,)  # predicted from the [CLS]
                (label,) = inst.labels
                assert label >= 4

    def test_epoch_coverage(self, vocab):
        d = Dialogue(1, "s", (Utterance("spk0", tuple(WORDS[:6])),))
        rng = np.random.default_rng(3)
        covered = set()
        for _ in range(40):
            for inst in build_umlm_instances(vocab, encode_dialogue(vocab, d), rng, 1):
                covered.add(inst.token_ids.index(vocab.mask))
        assert covered == {2, 3, 4, 5, 6, 7}

    def test_bad_samples(self, vocab):
        with pytest.raises(CorpusError):
            build_umlm_instances(vocab, _encoded(vocab), np.random.default_rng(0), 0)


class TestUopInstance:
    def test_identity_is_in_order(self, vocab):
        inst = build_uop_instance(_encoded(vocab, 4), np.random.default_rng(0), 0.0)
        assert inst.label == UOP_IN_ORDER

    def test_swap_is_shuffled(self, vocab):
        d = _dialogue(4)
        inst = build_uop_instance(encode_dialogue(vocab, d), np.random.default_rng(1), 1.0)
        assert inst.label == UOP_SHUFFLED
        # first half intact, second half permuted (multiset preserved)
        base = build_uop_instance(encode_dialogue(vocab, d), np.random.default_rng(1), 0.0)
        assert inst.utterance_token_ids[:2] == base.utterance_token_ids[:2]
        assert sorted(inst.utterance_token_ids[2:]) == sorted(base.utterance_token_ids[2:])
        assert inst.utterance_token_ids[2:] != base.utterance_token_ids[2:]

    def test_skip_when_second_half_too_small(self, vocab):
        # ceil split leaves a singleton second half for m <= 3
        assert build_uop_instance(_encoded(vocab, 2), np.random.default_rng(0)) is None
        assert build_uop_instance(_encoded(vocab, 3), np.random.default_rng(0)) is None
        assert build_uop_instance(_encoded(vocab, 4), np.random.default_rng(0)) is not None

    def test_split_point_gives_first_half_the_extra(self, vocab):
        d = _dialogue(5)
        inst = build_uop_instance(encode_dialogue(vocab, d), np.random.default_rng(2), 1.0)
        base = build_uop_instance(encode_dialogue(vocab, d), np.random.default_rng(2), 0.0)
        # ceil(5/2) = 3 utterances never move
        assert inst.utterance_token_ids[:3] == base.utterance_token_ids[:3]

    def test_monte_carlo_balance_and_nonidentity(self, vocab):
        d = _dialogue(6)  # second half has 3 utterances
        rng = np.random.default_rng(5)
        base = build_uop_instance(encode_dialogue(vocab, d), rng, 0.0).utterance_token_ids[3:]
        labels = []
        perms_seen = set()
        for _ in range(10**4):
            inst = build_uop_instance(encode_dialogue(vocab, d), rng, 0.5)
            labels.append(inst.label)
            if inst.label == UOP_SHUFFLED:
                tail = inst.utterance_token_ids[3:]
                assert tail != base
                assert sorted(tail) == sorted(base)
                perms_seen.add(tail)
        balance = np.mean(labels)
        assert abs(balance - 0.5) < 0.02
        assert len(perms_seen) == math.factorial(3) - 1  # every non-identity perm


class TestLossSanity:
    """Untrained losses sit at the uniform-prediction baselines."""

    def _weights(self, stage, seed):
        return init_encoder_weights(TOY, stage, np.random.default_rng(seed))

    def test_tmlm_init_near_log_vocab(self, vocab):
        cfg = ModelConfig(**{**TOY.to_dict(), "vocab_size": len(vocab)})
        d = _encoded(vocab, 3, 4)
        losses = []
        for seed in range(5):
            w = init_encoder_weights(cfg, "tmlm", np.random.default_rng(seed))
            inst = build_tmlm_instance(vocab, cfg, d, np.random.default_rng(seed))
            losses.append(mlm_batch_loss(w, [inst]).item())
        mean_loss = np.mean(losses)
        assert abs(mean_loss - math.log(len(vocab))) / math.log(len(vocab)) < 0.15

    def test_umlm_init_near_log_vocab(self, vocab):
        cfg = ModelConfig(**{**TOY.to_dict(), "vocab_size": len(vocab)})
        d = _encoded(vocab, 3, 4)
        losses = []
        for seed in range(5):
            w = init_encoder_weights(cfg, "umlm", np.random.default_rng(seed))
            insts = build_umlm_instances(vocab, d, np.random.default_rng(seed), 1)
            losses.append(mlm_batch_loss(w, [insts[0]]).item())
        mean_loss = np.mean(losses)
        assert abs(mean_loss - math.log(len(vocab))) / math.log(len(vocab)) < 0.15

    def test_uop_init_near_log2(self, vocab):
        cfg = ModelConfig(**{**TOY.to_dict(), "vocab_size": len(vocab)})
        d = _encoded(vocab, 4, 3)
        losses = []
        for seed in range(5):
            w = init_encoder_weights(cfg, "uop", np.random.default_rng(seed))
            inst = build_uop_instance(d, np.random.default_rng(seed), 0.5)
            losses.append(uop_batch_loss(w, [inst]).item())
        mean_loss = np.mean(losses)
        assert abs(mean_loss - math.log(2)) / math.log(2) < 0.15


class TestMemorization:
    def _overfit(self, vocab, loss_fn, weights, steps=200, lr=5e-3):
        state = AdamState(weight_decay=0.0)
        value = None
        for step in range(1, steps + 1):
            weights.zero_grads()
            loss = loss_fn()
            loss.backward()
            adam_step(weights.vector, weights.grads(), state, lr, step)
            value = loss.item()
        return value

    def test_tmlm_overfits_single_instance(self, vocab):
        cfg = ModelConfig(**{**TOY.to_dict(), "vocab_size": len(vocab)})
        w = init_encoder_weights(cfg, "tmlm", np.random.default_rng(0))
        inst = build_tmlm_instance(vocab, cfg, _encoded(vocab, 2, 3), np.random.default_rng(1))
        final = self._overfit(vocab, lambda: mlm_batch_loss(w, [inst]), w)
        assert final < 0.01

    def test_umlm_overfits_single_instance(self, vocab):
        cfg = ModelConfig(**{**TOY.to_dict(), "vocab_size": len(vocab)})
        w = init_encoder_weights(cfg, "umlm", np.random.default_rng(0))
        inst = build_umlm_instances(vocab, _encoded(vocab, 1, 4), np.random.default_rng(1), 1)[0]
        final = self._overfit(vocab, lambda: mlm_batch_loss(w, [inst]), w)
        assert final < 0.01

    def test_uop_overfits_an_in_order_and_a_shuffled_instance(self, vocab):
        """The same dialogue in order and with its second half reversed: only
        the order head can tell them apart (final loss 0.0009 measured; 0.45
        with that head's gradient zeroed)."""
        cfg = ModelConfig(**{**TOY.to_dict(), "vocab_size": len(vocab)})
        w = init_encoder_weights(cfg, "uop", np.random.default_rng(0))
        utts = _encoded(vocab, 4, 3).utterances
        insts = [UopInstance(utts, UOP_IN_ORDER), UopInstance(utts[:2] + utts[:1:-1], UOP_SHUFFLED)]
        final = self._overfit(vocab, lambda: uop_batch_loss(w, insts), w)
        assert final < 0.01

    def test_qa_overfits_an_answerable_and_an_unanswerable_question(self, vocab):
        """Final joint loss 0.0057 measured; 2.0 with the UID and span heads'
        gradients zeroed."""
        cfg = ModelConfig(**{**TOY.to_dict(), "vocab_size": len(vocab)})
        w = init_encoder_weights(cfg, "finetuned", np.random.default_rng(0))
        d = _dialogue(3, 4)
        toks = d.utterances[1].tokens
        gold = AnswerSpan(1, 1, 2, " ".join(toks[1:3]))
        encs = [
            encode_for_qa(vocab, cfg, make_example("a", f"what {toks[0]}", (gold,)), d),
            encode_for_qa(vocab, cfg, make_example("b", "who said it", ()), d),
        ]
        final = self._overfit(vocab, lambda: qa_batch_loss(w, encs), w)
        assert final < 0.05


class TestGradChecks:
    def test_tmlm_loss_gradcheck(self, vocab):
        cfg = ModelConfig(**{**TOY.to_dict(), "vocab_size": len(vocab)})
        w = init_encoder_weights(cfg, "tmlm", np.random.default_rng(3))
        inst = build_tmlm_instance(vocab, cfg, _encoded(vocab, 2, 3), np.random.default_rng(4))
        report = grad_check(
            lambda: mlm_batch_loss(w, [inst]), dict(w.named()),
            rng=np.random.default_rng(5), max_coords_per_param=4,
        )
        assert report.max_rel_err < 1e-4, report

    def test_umlm_loss_gradcheck_cls_path(self, vocab):
        cfg = ModelConfig(**{**TOY.to_dict(), "vocab_size": len(vocab)})
        w = init_encoder_weights(cfg, "umlm", np.random.default_rng(6))
        inst = build_umlm_instances(vocab, _encoded(vocab, 1, 4), np.random.default_rng(7), 1)[0]
        report = grad_check(
            lambda: mlm_batch_loss(w, [inst]), dict(w.named()),
            rng=np.random.default_rng(8), max_coords_per_param=4,
        )
        assert report.max_rel_err < 1e-4, report

    def test_uop_loss_gradcheck(self, vocab):
        cfg = ModelConfig(**{**TOY.to_dict(), "vocab_size": len(vocab)})
        w = init_encoder_weights(cfg, "uop", np.random.default_rng(9))
        inst = build_uop_instance(_encoded(vocab, 4, 3), np.random.default_rng(10), 1.0)
        report = grad_check(
            lambda: uop_batch_loss(w, [inst]), dict(w.named()),
            rng=np.random.default_rng(11), max_coords_per_param=4,
        )
        assert report.max_rel_err < 1e-4, report


class TestMlmDevPerplexity:
    def test_weights_each_label_alike_at_every_batch_size(self, vocab):
        """Over token-MLM instances with unequal mask counts, the dev
        perplexity is exp of the mean cross-entropy over their labels, each
        label weighted alike, whatever the batch size."""
        cfg = ModelConfig(**{**TOY.to_dict(), "vocab_size": len(vocab)})
        w = init_encoder_weights(cfg, "tmlm", np.random.default_rng(14))
        rng = np.random.default_rng(15)
        insts = [
            build_tmlm_instance(vocab, cfg, _encoded(vocab, n, k), rng, ratio)
            for n, k, ratio in ((1, 2, 0.0), (3, 4, 0.6), (2, 5, 0.3), (3, 3, 0.9), (2, 2, 0.0))
        ]
        counts = [len(inst.labels) for inst in insts]
        assert len(set(counts)) >= 3
        total_ce = sum(mlm_batch_loss(w, [inst]).item() * n for inst, n in zip(insts, counts))
        expected = math.exp(total_ce / sum(counts))
        for batch_size in (1, 2, 3, len(insts)):
            got = mlm_dev_perplexity(w, insts, batch_size)
            assert abs(got - expected) <= 1e-12 * expected, batch_size


class TestUopBatch:
    def test_ragged_batch_equals_batches_of_one(self, vocab):
        cfg = ModelConfig(**{**TOY.to_dict(), "vocab_size": len(vocab)})
        w = init_encoder_weights(cfg, "uop", np.random.default_rng(12))
        rng = np.random.default_rng(13)
        insts = [
            build_uop_instance(_encoded(vocab, n, k), rng, 0.5)
            for n, k in ((4, 3), (6, 2), (5, 4))
        ]
        assert [len(i.utterance_token_ids) for i in insts] == [4, 6, 5]
        logits = uop_batch_logits(w, insts).array
        for b, inst in enumerate(insts):
            single = uop_batch_logits(w, [inst]).array[0]
            np.testing.assert_allclose(logits[b], single, rtol=0, atol=1e-12)
        w.zero_grads()
        batched = uop_batch_loss(w, insts)
        batched.backward()
        batched_grads = {n: g.copy() for n, g in w.views(w.grads()).items()}
        losses = []
        grad_sum = {n: np.zeros_like(g) for n, g in batched_grads.items()}
        for inst in insts:
            w.zero_grads()
            loss = uop_batch_loss(w, [inst])
            loss.backward()
            losses.append(loss.item())
            for n, g in w.views(w.grads()).items():
                grad_sum[n] += g
        w.zero_grads()
        assert abs(batched.item() - np.mean(losses)) < 1e-12
        for n, g in batched_grads.items():
            np.testing.assert_allclose(g, grad_sum[n] / len(insts), rtol=0, atol=1e-12, err_msg=n)
