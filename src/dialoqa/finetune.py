"""Multi-task fine-tuning for span QA: utterance-ID prediction over the
TL-refined CLS sequence, per-utterance left/right span heads over the
question-attended token embeddings, the summed joint loss, and final answer
selection.

Label spaces: uid_label 0 means "no answer", i means utterance U_i (1-based).
Span slots are shifted by one: slot 0 is the null slot (the speaker position
of E'_i), slot k >= 1 addresses token w_ik.

A batch of B questions is one graph. TE runs once over the distinct id
sequences of the batch, so the questions of one dialogue share its
utterance encodings (and, given a generator, their dropout draws). With M the
most utterances and S the widest head (speaker plus words) in the batch:
  - TL runs over (B, M+1) CLS rows, question first, with padding keys masked;
  - MHA takes question keys (B, Q, h), padding masked by ``question_mask``,
    and every utterance token as a query, flattened to (B, M*S, h);
  - the UID head gives (B, M+1) logits and the span heads (B, M, S).
``pad_batch`` builds every one of these layouts from lists of flat TE row
indices: TE's ids, the CLS rows, the question tokens and the utterance tokens,
each with its bool mask. Every logit slot past a question's utterances or
past an utterance's width holds MASK_SCORE, so softmax gives it exactly zero
probability and the per-question results equal those of a batch of one.

Inference keeps that layout: ``predict`` returns one question's softmax
arrays, uid (m+1,) and left/right (m, S), and ``select_answer`` reads them
with the utterances' word counts in one vectorized pass, returning the
0-based (utterance, token start, token end) of ``PredictionRecord``.

The forwards and losses read the model config from ``weights.config``; only
``encode_for_qa``, which has no weights, takes a ``ModelConfig``. They draw
dropout only from an ``rng`` they are given, so inference passes none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Dialogue, QAExample
from .encoder import (
    EncoderWeights,
    ModelConfig,
    gather_rows,
    mha_forward,
    pad_batch,
    te_forward,
    tl_forward,
)
from .errors import CapacityError, ShapeError
from .tensor import (
    MASK_SCORE,
    Tensor,
    cross_entropy_rows,
    linear,
    mean,
    reshape,
    softmax,
    tsum,
)
from .vocab import Vocab, encode_utterance


@dataclass(frozen=True)
class QAEncoding:
    question_ids: tuple[int, ...]  # [CLS] q_1 .. q_n
    utterance_ids: tuple[tuple[int, ...], ...]  # [CLS] s_i w_i1 .. w_in each
    uid_label: int  # 0 = unanswerable
    span_labels: tuple[tuple[int, int], ...]  # per utterance (left, right)

    @property
    def num_utterances(self) -> int:
        return len(self.utterance_ids)


def encode_for_qa(
    vocab: Vocab, config: ModelConfig, question: QAExample, dialogue: Dialogue
) -> QAEncoding:
    """Encode question and utterances as separate CLS-led sequences and derive
    labels from the first gold span inside the dialogue, which must already
    be truncated to the config limits: a span the truncation cut off is no
    label, and a question with none left is labelled unanswerable. The
    question is cut at TE's token positions."""
    if len(dialogue.utterances) > config.max_utterances:
        raise CapacityError(
            f"dialogue has {len(dialogue.utterances)} utterances, "
            f"config allows {config.max_utterances}; truncate first"
        )
    for utt in dialogue.utterances:
        if len(utt.tokens) > config.max_tokens:
            raise CapacityError(
                f"utterance has {len(utt.tokens)} tokens, config allows "
                f"{config.max_tokens}; truncate first"
            )
    question_ids = [vocab.cls] + [vocab.word_id(t) for t in question.question_tokens]
    question_ids = tuple(question_ids[: config.token_position_capacity])
    utterance_ids = tuple(
        tuple([vocab.cls] + encode_utterance(vocab, u)) for u in dialogue.utterances
    )
    span_labels = [(0, 0)] * len(dialogue.utterances)
    uid_label = 0
    utts = dialogue.utterances
    inside = [a for a in question.answers
              if a.utterance_index < len(utts) and a.token_end < len(utts[a.utterance_index].tokens)]
    if inside:
        gold = inside[0]
        uid_label = gold.utterance_index + 1
        span_labels[gold.utterance_index] = (gold.token_start + 1, gold.token_end + 1)
    return QAEncoding(question_ids, utterance_ids, uid_label, tuple(span_labels))


def qa_batch_logits(
    weights: EncoderWeights,
    encodings: Sequence[QAEncoding],
    *,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor, Tensor]:
    """(uid (B, M+1), left (B, M, S), right (B, M, S)) logits of a batch of
    questions, laid out and masked as the module docstring describes."""
    if min(len(enc.question_ids) for enc in encodings) < 2:
        raise ShapeError("every question needs at least one token after [CLS]")
    row_of: dict[tuple[int, ...], int] = {}
    for enc in encodings:
        for seq in (enc.question_ids, *enc.utterance_ids):
            row_of.setdefault(seq, len(row_of))
    ids, mask = pad_batch(list(row_of))
    # ids by keyword: the benchmark's tracer reads TE's rows from ``token_ids``
    out = te_forward(weights, token_ids=ids, attention_mask=mask, rng=rng)
    width = ids.shape[1]
    b = len(encodings)
    m_max = max(enc.num_utterances for enc in encodings)
    # Per question, the flat indices of each of its sequences in TE's
    # (rows * width) outputs, [CLS] first: the question, then the utterances
    # and an empty range for every utterance slot past its last.
    flat = [
        [
            range(row_of[seq] * width, row_of[seq] * width + len(seq))
            for seq in (enc.question_ids, *enc.utterance_ids)
        ] + [range(0)] * (m_max - enc.num_utterances)
        for enc in encodings
    ]
    cls_idx, cls_mask = pad_batch([[r[0] for r in rows if r] for rows in flat])
    q_idx, q_mask = pad_batch([rows[0][1:] for rows in flat])
    tok_idx, tok_mask = pad_batch([r[1:] for rows in flat for r in rows[1:]])
    tok_mask = tok_mask.reshape(b, m_max, -1)

    tc = tl_forward(
        weights, gather_rows(out, cls_idx),
        attention_mask=cls_mask, rng=rng,
    )
    uid = reshape(linear(tc, weights["uid_w"]), (b, m_max + 1))
    tokens = gather_rows(out, tok_idx.reshape(b, -1))
    attended = mha_forward(
        weights, gather_rows(out, q_idx), tokens,
        question_mask=q_mask, rng=rng,
    )
    left = reshape(linear(attended, weights["sl_w"]), tok_mask.shape)
    right = reshape(linear(attended, weights["sr_w"]), tok_mask.shape)
    uid_mask = Tensor(np.where(cls_mask, 0.0, MASK_SCORE))
    span_mask = Tensor(np.where(tok_mask, 0.0, MASK_SCORE))
    return uid + uid_mask, left + span_mask, right + span_mask


def qa_batch_loss(
    weights: EncoderWeights,
    encodings: Sequence[QAEncoding],
    *,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Mean over the questions of the joint loss: UID cross-entropy plus the
    left and right span cross-entropies, on the gold utterance for an
    answerable question and averaged over every utterance's null slot for an
    unanswerable one."""
    uid, left, right = qa_batch_logits(weights, encodings, rng=rng)
    b, m, s = left.shape
    row_weight = np.zeros((b, m))
    span_targets = np.zeros((b, m, 2), dtype=np.intp)
    for i, enc in enumerate(encodings):
        if enc.uid_label > 0:
            row_weight[i, enc.uid_label - 1] = 1.0
        else:
            row_weight[i, : enc.num_utterances] = 1.0 / enc.num_utterances
        span_targets[i, : enc.num_utterances] = enc.span_labels
    span_ce = cross_entropy_rows(
        reshape(left, (b * m, s)), span_targets[:, :, 0].ravel()
    ) + cross_entropy_rows(reshape(right, (b * m, s)), span_targets[:, :, 1].ravel())
    uid_ce = cross_entropy_rows(uid, [enc.uid_label for enc in encodings])
    return mean(uid_ce) + tsum(span_ce * Tensor(row_weight.ravel() / b))


def joint_loss(
    weights: EncoderWeights,
    encoding: QAEncoding,
    *,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """The joint loss of one question: ``qa_batch_loss`` on a batch of one."""
    return qa_batch_loss(weights, [encoding], rng=rng)


def predict(
    weights: EncoderWeights, encoding: QAEncoding
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inference scores of one question, ``qa_batch_logits``' layout for a
    batch of one: the uid softmax (m+1,) and the left and right softmax
    arrays (m, S), slot 0 of each row the null slot; every slot past an
    utterance's width holds exactly 0. Deterministic; dropout off."""
    uid, left, right = qa_batch_logits(weights, [encoding])
    return tuple(softmax(t, axis=-1).array[0] for t in (uid, left, right))


def select_answer(
    uid: np.ndarray, left: np.ndarray, right: np.ndarray, widths: Sequence[int]
) -> tuple[int | None, int | None, int | None]:
    """Pick the answer from ``predict``'s arrays, ``widths[i]`` the word count
    of utterance i (its slots 1..widths[i]; a real slot may score 0). Per
    utterance the best (l, r) with 1 <= l <= r <= width; an utterance bears
    a span when that sum beats its null slots, and the highest UID score
    among span-bearing utterances wins. No answer when nothing bears a span
    or the UID argmax is label 0. Ties break toward the lowest utterance,
    then the lowest l, then the lowest r. Returns the 0-based
    (utterance_index, token_start, token_end), or (None, None, None)."""
    uid, left, right = (np.asarray(a, dtype=np.float64) for a in (uid, left, right))
    widths = np.asarray(widths)
    if (
        uid.ndim != 1 or left.ndim != 2 or left.shape != right.shape
        or left.shape[0] != uid.shape[0] - 1 or left.shape[1] < 1
        or widths.shape != left.shape[:1]
        or not np.all((widths >= 0) & (widths < left.shape[1]))
    ):
        raise ShapeError(
            "select_answer needs uid (m+1,), left and right (m, S) and m widths in "
            f"[0, S-1]; got uid {uid.shape}, left {left.shape}, right {right.shape}, "
            f"widths {widths.tolist()}"
        )
    slots = np.arange(left.shape[1])
    word = (slots >= 1) & (slots <= widths[:, None])
    left_w = np.where(word, left, -np.inf)
    # sums[i, r] is the best score of a span of utterance i ending at r. The
    # first l reaching best_left[i, r] never moves left as r grows, so the
    # first best r and its first l are the lowest tied (l, r).
    best_left = np.maximum.accumulate(left_w, axis=1)
    sums = best_left + np.where(word, right, -np.inf)
    bearers = np.flatnonzero(sums.max(axis=1) > left[:, 0] + right[:, 0])
    if np.argmax(uid) == 0 or not bearers.size:
        return None, None, None
    i = int(bearers[np.argmax(uid[1:][bearers])])
    r = int(np.argmax(sums[i]))
    l = int(np.argmax(left_w[i, : r + 1] == best_left[i, r]))
    return i, l - 1, r - 1
