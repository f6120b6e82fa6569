"""Exact match, span matching (token-overlap F1), and utterance matching over
prediction/gold pairs, with a per-question-type breakdown.

Normalization is lowercase plus whitespace collapsing; no article stripping,
since the corpus tokenization is plain whitespace. A report-level exact match
additionally requires the correct utterance, so EM <= UM and EM <= SM hold
row-wise by construction.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

from .corpus import AnswerSpan, QAExample, normalize_text
from .errors import AlignmentError


@dataclass(frozen=True)
class PredictionRecord:
    qid: str
    utterance_index: int | None  # 0-based; None (or -1 in JSON) = no answer
    token_start: int | None
    token_end: int | None
    text: str | None

    def to_json(self) -> str:
        return json.dumps(
            {
                "qid": self.qid,
                "utterance_index": -1 if self.utterance_index is None else self.utterance_index,
                "token_start": -1 if self.token_start is None else self.token_start,
                "token_end": -1 if self.token_end is None else self.token_end,
                "text": self.text or "",
            },
            sort_keys=True,
        )


def _is_no_answer(pred_text: str | None) -> bool:
    return pred_text is None or normalize_text(pred_text) == ""


def exact_match(pred_text: str | None, gold_answers: Sequence[AnswerSpan]) -> int:
    """1 iff the normalized prediction equals any normalized gold text; a
    no-answer prediction matches iff there are no golds."""
    if _is_no_answer(pred_text):
        return int(not gold_answers)
    if not gold_answers:
        return 0
    p = normalize_text(pred_text)
    return int(any(p == normalize_text(g.text) for g in gold_answers))


def span_f1(pred_text: str | None, gold_answers: Sequence[AnswerSpan]) -> float:
    """Token-bag overlap F1, maximized over golds; both empty scores 1, one
    empty scores 0."""
    if _is_no_answer(pred_text):
        return float(not gold_answers)
    if not gold_answers:
        return 0.0
    pred_tokens = normalize_text(pred_text).split()
    best = 0.0
    for g in gold_answers:
        gold_tokens = normalize_text(g.text).split()
        overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
        if overlap == 0:
            continue
        precision = overlap / len(pred_tokens)
        recall = overlap / len(gold_tokens)
        best = max(best, 2 * precision * recall / (precision + recall))
    return best


def utterance_match(
    pred_utterance_index: int | None, gold_answers: Sequence[AnswerSpan]
) -> int:
    """1 iff the predicted utterance holds any gold span; no-answer against
    an empty gold set also scores 1."""
    no_answer = pred_utterance_index is None or pred_utterance_index < 0
    if no_answer:
        return int(not gold_answers)
    return int(any(g.utterance_index == pred_utterance_index for g in gold_answers))


@dataclass(frozen=True)
class TypeRow:
    em: float
    sm: float
    um: float
    count: int


@dataclass(frozen=True)
class MetricReport:
    em: float  # percentages in [0, 100]
    sm: float
    um: float
    total: int
    per_type: Mapping[str, TypeRow]

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    def format_table(self) -> str:
        rows = [("Type", "Count", "EM", "SM", "UM")]
        for t in sorted(self.per_type):
            r = self.per_type[t]
            rows.append((t, str(r.count), f"{r.em:.1f}", f"{r.sm:.1f}", f"{r.um:.1f}"))
        rows.append(("all", str(self.total), f"{self.em:.1f}", f"{self.sm:.1f}", f"{self.um:.1f}"))
        widths = [max(len(row[i]) for row in rows) for i in range(5)]
        lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]
        lines.insert(1, "-" * len(lines[0]))
        return "\n".join(lines)


def evaluate(
    predictions: Sequence[PredictionRecord], gold_examples: Sequence[QAExample]
) -> MetricReport:
    """Average the three metrics over all questions (scaled to percent) and
    per question type. Every prediction qid must pair with exactly one gold."""
    by_qid = {}
    for p in predictions:
        if p.qid in by_qid:
            raise AlignmentError(f"duplicate prediction qid {p.qid!r}")
        by_qid[p.qid] = p
    gold_qids = [q.qid for q in gold_examples]
    if len(set(gold_qids)) != len(gold_qids):
        dupes = sorted({q for q in gold_qids if gold_qids.count(q) > 1})
        raise AlignmentError(f"duplicate gold qids: {dupes}")
    missing = sorted(set(gold_qids) - set(by_qid))
    extra = sorted(set(by_qid) - set(gold_qids))
    if missing or extra:
        raise AlignmentError(
            f"prediction/gold mismatch; missing predictions for {missing}, "
            f"extra predictions {extra}"
        )

    scored: dict[str, list[tuple[float, float, float]]] = {}
    for q in gold_examples:
        p = by_qid[q.qid]
        um = utterance_match(p.utterance_index, q.answers)
        em = exact_match(p.text, q.answers) * um
        sm = span_f1(p.text, q.answers)
        scored.setdefault(q.question_type, []).append((em, sm, um))

    def _avg(rows: list[tuple[float, float, float]]) -> tuple[float, float, float]:
        n = len(rows)
        return (
            100.0 * sum(r[0] for r in rows) / n,
            100.0 * sum(r[1] for r in rows) / n,
            100.0 * sum(r[2] for r in rows) / n,
        )

    all_rows = [r for rows in scored.values() for r in rows]
    em, sm, um = _avg(all_rows)
    per_type = {
        t: TypeRow(*_avg(rows), count=len(rows)) for t, rows in sorted(scored.items())
    }
    return MetricReport(em, sm, um, len(all_rows), per_type)
