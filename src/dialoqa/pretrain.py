"""Instance construction and losses for the three sequential pre-training
tasks: token-level MLM over the concatenated dialogue, utterance-level MLM
predicting a single masked word from the utterance CLS, and utterance order
prediction over the shuffled-or-not second half.

The two MLM tasks share one instance type and one loss. An ``MlmInstance``
names the rows whose TE outputs predict its labels: the masked slots
themselves for token MLM, the [CLS] slot (row 0) for utterance MLM.

Sequence layouts:
    token-level  : [CLS] s_1 w_11 .. w_1n  s_2 w_21 ..   (one sequence per dialogue)
    per-utterance: [CLS] s_i w_i1 .. w_in               (u-MLM, UOP, fine-tuning)

A stage encodes each dialogue once (``encode_dialogue``), and the instance
builders take that encoding, so an epoch only draws its masks and
permutations. The losses read the model config from ``weights.config``,
and no function here takes a ``ModelConfig``. The stage builds in
``training`` hand these functions only what they accept: a token-level
sequence cut at TE's positions with a maskable word left, a positive
sample count, and a dev part with a label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Dialogue
from .encoder import (
    EncoderWeights,
    gather_rows,
    pad_batch,
    te_forward,
    tl_forward,
)
from .tensor import Tensor, linear, mean_cross_entropy, transpose, tsum
from .vocab import SPECIAL_TOKENS, Vocab, encode_utterance

UOP_SHUFFLED = 0
UOP_IN_ORDER = 1


@dataclass(frozen=True)
class MlmInstance:
    token_ids: tuple[int, ...]
    rows: tuple[int, ...]  # the slots whose outputs predict ``labels``, in order
    labels: tuple[int, ...]


@dataclass(frozen=True)
class UopInstance:
    utterance_token_ids: tuple[tuple[int, ...], ...]
    label: int  # UOP_IN_ORDER or UOP_SHUFFLED


# -- masking ------------------------------------------------------------------


def mask_tokens(
    vocab: Vocab,
    token_ids: Sequence[int],
    maskable_positions: Sequence[int],
    rng: np.random.Generator,
    ratio: float = 0.15,
) -> tuple[list[int], list[int], list[int]]:
    """Select maskable positions independently with probability ``ratio``
    (one uniformly drawn position when none is selected); of the selected,
    80% become MASK, 10% a random non-special id, 10% stay unchanged.
    Returns (masked ids, positions, original labels)."""
    ids = list(token_ids)
    positions = sorted(maskable_positions)
    draws = rng.random(len(positions))
    selected = [p for p, u in zip(positions, draws) if u < ratio]
    if not selected:
        selected = [positions[int(rng.integers(len(positions)))]]
    labels = []
    for p in selected:
        labels.append(ids[p])
        u = rng.random()
        if u < 0.8:
            ids[p] = vocab.mask
        elif u < 0.9:
            ids[p] = int(rng.integers(len(SPECIAL_TOKENS), len(vocab)))
    return ids, selected, labels


@dataclass(frozen=True)
class EncodedDialogue:
    """A dialogue's ids, encoded once per stage so that an epoch draws only
    its masks and permutations: each utterance as [CLS] s_i w_i1 .. w_in
    with the slots of its maskable words (not special tokens), and the
    token-level sequence [CLS] s_1 w_11 .. w_1n s_2 .. with the slots of its
    maskable words."""

    utterances: tuple[tuple[int, ...], ...]
    word_slots: tuple[tuple[int, ...], ...]
    token_ids: tuple[int, ...]
    maskable: tuple[int, ...]


def encode_dialogue(vocab: Vocab, dialogue: Dialogue) -> EncodedDialogue:
    utterances = tuple((vocab.cls, *encode_utterance(vocab, u)) for u in dialogue.utterances)
    word_slots = tuple(
        tuple(j for j in range(2, len(ids)) if not vocab.is_special(ids[j])) for ids in utterances
    )
    token_ids, maskable = [vocab.cls], []
    for ids, slots in zip(utterances, word_slots):
        maskable.extend(len(token_ids) + j - 1 for j in slots)  # CLS dropped
        token_ids.extend(ids[1:])
    return EncodedDialogue(utterances, word_slots, tuple(token_ids), tuple(maskable))


# -- instance builders ----------------------------------------------------


def build_tmlm_instance(
    vocab: Vocab,
    dialogue: EncodedDialogue,
    rng: np.random.Generator,
    ratio: float = 0.15,
) -> MlmInstance:
    masked, positions, labels = mask_tokens(vocab, dialogue.token_ids, dialogue.maskable, rng, ratio)
    return MlmInstance(tuple(masked), tuple(positions), tuple(labels))


def build_umlm_instances(
    vocab: Vocab,
    dialogue: EncodedDialogue,
    rng: np.random.Generator,
    samples_per_utterance: int = 1,
) -> list[MlmInstance]:
    """Per utterance, sample distinct word positions without replacement (all
    of them when fewer exist); each yields one single-MASK instance over
    [CLS] s_i w_i1..w_in, its word predicted from row 0, the [CLS].
    Utterances with no maskable word are skipped."""
    out = []
    for ids, word_slots in zip(dialogue.utterances, dialogue.word_slots):
        if not word_slots:
            continue
        k = min(samples_per_utterance, len(word_slots))
        picks = rng.choice(len(word_slots), size=k, replace=False)
        for j in sorted(word_slots[i] for i in picks):
            masked = list(ids)
            label = masked[j]
            masked[j] = vocab.mask
            out.append(MlmInstance(tuple(masked), (0,), (label,)))
    return out


def build_uop_instance(
    dialogue: EncodedDialogue,
    rng: np.random.Generator,
    shuffle_prob: float = 0.5,
) -> UopInstance | None:
    """Split at ceil(m/2); with probability shuffle_prob the second half is
    replaced by a uniformly random non-identity permutation of itself.
    Returns None (skip) when the second half has fewer than 2 utterances,
    since no non-identity permutation exists."""
    utts = dialogue.utterances
    m = len(utts)
    split = (m + 1) // 2
    second = list(utts[split:])
    if len(second) < 2:
        return None
    label = UOP_IN_ORDER
    if rng.random() < shuffle_prob:
        n2 = len(second)
        while True:
            perm = rng.permutation(n2)
            if not np.array_equal(perm, np.arange(n2)):
                break
        second = [second[i] for i in perm]
        label = UOP_SHUFFLED
    return UopInstance(utts[:split] + tuple(second), label)


# -- losses -----------------------------------------------------------------


def vocab_logits(weights: EncoderWeights, rows: Tensor) -> Tensor:
    """Tied projection: rows (N, h) -> (N, |V|) through token_emb^T + bias."""
    return linear(rows, transpose(weights["token_emb"], (1, 0)), weights["vocab_bias"])


def mlm_batch_loss(
    weights: EncoderWeights,
    instances: Sequence[MlmInstance],
    *,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Mean cross-entropy over every label in the batch, each predicted from
    its row's output embedding through the tied projection."""
    ids, mask = pad_batch([inst.token_ids for inst in instances])
    out = te_forward(weights, ids, mask, rng=rng)
    width = ids.shape[1]
    flat_idx = [b * width + r for b, inst in enumerate(instances) for r in inst.rows]
    labels = [lab for inst in instances for lab in inst.labels]
    logits = vocab_logits(weights, gather_rows(out, flat_idx))
    return mean_cross_entropy(logits, labels)


# The per-task names stay while perfbench/tracing.py's layer table lists them.
tmlm_batch_loss = umlm_batch_loss = mlm_batch_loss


def uop_batch_logits(
    weights: EncoderWeights,
    instances: Sequence[UopInstance],
    *,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """(B, 2) order logits: every utterance runs through TE independently,
    the CLS embeddings go through TL1/TL2 with utterance positions, and the
    mean-pooled sequence is projected to two classes. CLS slots past an
    instance's utterances read row 0 and are masked."""
    seqs = [seq for inst in instances for seq in inst.utterance_token_ids]
    ids, mask = pad_batch(seqs)
    out = te_forward(weights, ids, mask, rng=rng)
    cls_rows = iter(range(0, ids.size, ids.shape[1]))
    cls_idx, utt_mask = pad_batch(
        [[next(cls_rows) for _ in inst.utterance_token_ids] for inst in instances]
    )
    tc = tl_forward(
        weights, gather_rows(out, cls_idx),
        position_offset=1, attention_mask=utt_mask, rng=rng,
    )
    weights_mask = utt_mask[:, :, None].astype(np.float64)
    pooled = tsum(tc * Tensor(weights_mask), axis=1)
    pooled = pooled * Tensor(1.0 / utt_mask.sum(axis=1, keepdims=True))
    return linear(pooled, weights["uop_w"], weights["uop_b"])


def uop_batch_loss(
    weights: EncoderWeights,
    instances: Sequence[UopInstance],
    *,
    rng: np.random.Generator | None = None,
) -> Tensor:
    logits = uop_batch_logits(weights, instances, rng=rng)
    return mean_cross_entropy(logits, [inst.label for inst in instances])


def mlm_perplexity(losses_and_counts: Sequence[tuple[float, int]]) -> float:
    """exp of the position-weighted mean cross-entropy; inf when that
    overflows."""
    total = sum(c for _, c in losses_and_counts)
    try:
        return math.exp(sum(l * c for l, c in losses_and_counts) / total)
    except OverflowError:
        return math.inf
