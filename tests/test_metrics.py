"""EM/SM/UM metric functions and the aggregate report against a hand-scored
fixture."""

import json

import numpy as np
import pytest

from dialoqa.corpus import AnswerSpan, make_example
from dialoqa.metrics import (
    MetricReport,
    PredictionRecord,
    evaluate,
    exact_match,
    span_f1,
    utterance_match,
)


def _gold(text, utterance=0, start=0):
    toks = text.split()
    return AnswerSpan(utterance, start, start + len(toks) - 1, text)


class TestExactMatch:
    def test_match(self):
        assert exact_match("central perk", [_gold("central perk")]) == 1

    def test_extra_token_fails(self):
        assert exact_match("the central perk", [_gold("central perk")]) == 0

    def test_any_gold_counts(self):
        golds = [_gold("a"), _gold("the second one"), _gold("c")]
        assert exact_match("The  Second One", golds) == 1

    def test_no_answer_vs_empty_gold(self):
        assert exact_match(None, []) == 1
        assert exact_match(None, [_gold("x")]) == 0
        assert exact_match("x", []) == 0


class TestSpanF1:
    def test_identical(self):
        assert span_f1("some words here", [_gold("some words here")]) == 1.0

    def test_partial_overlap_point_eight(self):
        # P = 2/3, R = 1 -> F1 = 0.8
        assert span_f1("the central perk", [_gold("central perk")]) == pytest.approx(0.8)

    def test_disjoint(self):
        assert span_f1("alpha beta", [_gold("gamma delta")]) == 0.0

    def test_both_empty_and_one_empty(self):
        assert span_f1(None, []) == 1.0
        assert span_f1(None, [_gold("x")]) == 0.0
        assert span_f1("x", []) == 0.0

    def test_max_over_golds(self):
        golds = [_gold("nothing shared"), _gold("central perk")]
        assert span_f1("central perk cafe", golds) == pytest.approx(0.8)

    def test_symmetric_for_single_gold(self):
        rng = np.random.default_rng(0)
        words = ["a", "b", "c", "d", "e"]
        for _ in range(50):
            t1 = " ".join(rng.choice(words, size=rng.integers(1, 5)))
            t2 = " ".join(rng.choice(words, size=rng.integers(1, 5)))
            assert span_f1(t1, [_gold(t2)]) == pytest.approx(span_f1(t2, [_gold(t1)]))

    def test_bag_semantics_with_repeats(self):
        # pred "b b" vs gold "b": overlap 1, P = 1/2, R = 1 -> F1 = 2/3
        assert span_f1("b b", [_gold("b")]) == pytest.approx(2 / 3)


class TestUtteranceMatch:
    def test_any_gold_utterance(self):
        golds = [_gold("x", utterance=2), _gold("y", utterance=4)]
        assert utterance_match(2, golds) == 1
        assert utterance_match(3, golds) == 0

    def test_no_answer_conventions(self):
        assert utterance_match(None, []) == 1
        assert utterance_match(-1, []) == 1
        assert utterance_match(None, [_gold("x")]) == 0


def _fixture():
    """Six hand-scored questions. Expected per-question rows:

    q1 perfect span                     -> EM 1, SM 1.0, UM 1
    q2 'the central perk' vs gold       -> EM 0, SM 0.8, UM 1
    q3 correct no-answer                -> EM 1, SM 1.0, UM 1
    q4 wrong span, right utterance      -> EM 0, SM 0.0, UM 1
    q5 right text in wrong utterance    -> EM 0, SM 1.0, UM 0
    q6 'red balloon' vs 'a red balloon' -> EM 0, SM 0.8, UM 1
    """
    golds = [
        make_example("q1", "where did they meet", (_gold("central perk", 1, 2),)),
        make_example("q2", "where is it", (_gold("central perk", 0, 1),)),
        make_example("q3", "why not", ()),
        make_example("q4", "when is it", (_gold("tuesday", 2, 0),)),
        make_example("q5", "what did they drink", (_gold("coffee", 3, 1),)),
        make_example("q6", "what did he buy", (_gold("a red balloon", 2, 3),)),
    ]
    preds = [
        PredictionRecord("q1", 1, 2, 3, "central perk"),
        PredictionRecord("q2", 0, 0, 2, "the central perk"),
        PredictionRecord("q3", None, None, None, None),
        PredictionRecord("q4", 2, 0, 0, "monday"),
        PredictionRecord("q5", 1, 0, 0, "coffee"),
        PredictionRecord("q6", 2, 4, 5, "red balloon"),
    ]
    return preds, golds


class TestEvaluate:
    def test_two_question_averaging(self):
        golds = [
            make_example("a", "where is it", (_gold("central perk", 0, 0),)),
            make_example("b", "where was it", (_gold("the park", 1, 0),)),
        ]
        preds = [
            PredictionRecord("a", 0, 0, 1, "central perk"),
            PredictionRecord("b", 0, 0, 0, "nowhere"),
        ]
        report = evaluate(list(zip(preds, golds)))
        assert report.em == pytest.approx(50.0)
        assert report.um == pytest.approx(50.0)

    def test_hand_scored_fixture_exact(self):
        preds, golds = _fixture()
        report = evaluate(list(zip(preds, golds)))
        assert report.total == 6
        assert report.em == pytest.approx(100.0 * 2 / 6, abs=1e-12)
        assert report.sm == pytest.approx(100.0 * (1 + 0.8 + 1 + 0 + 1 + 0.8) / 6, abs=1e-12)
        assert report.um == pytest.approx(100.0 * 5 / 6, abs=1e-12)

    def test_per_type_rows_and_weighted_average(self):
        preds, golds = _fixture()
        report = evaluate(list(zip(preds, golds)))
        assert sum(r.count for r in report.per_type.values()) == 6
        for metric in ("em", "sm", "um"):
            weighted = sum(
                getattr(r, metric) * r.count for r in report.per_type.values()
            ) / report.total
            assert weighted == pytest.approx(getattr(report, metric), abs=1e-9)

    def test_single_type_row_equals_aggregate(self):
        golds = [
            make_example(f"q{i}", "where is it", (_gold("x", 0, 0),)) for i in range(3)
        ]
        preds = [PredictionRecord(f"q{i}", 0, 0, 0, "x") for i in range(3)]
        report = evaluate(list(zip(preds, golds)))
        row = report.per_type["where"]
        assert (row.em, row.sm, row.um) == (report.em, report.sm, report.um)

    def test_em_bounded_by_sm_and_um_rowwise(self):
        rng = np.random.default_rng(3)
        texts = ["a b", "b c", "a", "c d e", ""]
        golds, preds = [], []
        for i in range(200):
            gold_text = texts[rng.integers(len(texts) - 1)]
            answerable = rng.random() < 0.8
            gold = (_gold(gold_text, int(rng.integers(3)), 0),) if answerable else ()
            golds.append(make_example(f"q{i}", "what is it", gold))
            if rng.random() < 0.2:
                preds.append(PredictionRecord(f"q{i}", None, None, None, None))
            else:
                t = texts[rng.integers(len(texts) - 1)]
                preds.append(PredictionRecord(f"q{i}", int(rng.integers(3)), 0, 0, t))
        report = evaluate(list(zip(preds, golds)))
        assert report.em <= report.sm + 1e-9
        assert report.em <= report.um + 1e-9
        for row in report.per_type.values():
            assert row.em <= row.sm + 1e-9
            assert row.em <= row.um + 1e-9

    def test_permutation_invariance(self):
        preds, golds = _fixture()
        a = evaluate(list(zip(preds, golds)))
        b = evaluate(list(zip(reversed(preds), reversed(golds))))
        assert a.to_dict() == b.to_dict()


class TestSerialization:
    def test_report_json_round_trip(self):
        preds, golds = _fixture()
        report = evaluate(list(zip(preds, golds)))
        parsed = json.loads(report.to_json())
        assert parsed["total"] == 6
        assert parsed["per_type"]["where"]["count"] == 2

    def test_report_dict_holds_every_field_and_type_row(self):
        report = evaluate(list(zip(*_fixture())))
        assert report.to_dict() == {
            "em": report.em, "sm": report.sm, "um": report.um, "total": report.total,
            "per_type": {
                t: {"em": r.em, "sm": r.sm, "um": r.um, "count": r.count}
                for t, r in report.per_type.items()
            },
        }

    def test_table_contains_all_row(self):
        preds, golds = _fixture()
        table = evaluate(list(zip(preds, golds))).format_table()
        assert "all" in table and "EM" in table

    def test_prediction_jsonl_round_trip(self):
        records = [
            PredictionRecord("a", 2, 1, 3, "x y z"),
            PredictionRecord("b", None, None, None, None),
        ]
        back = [json.loads(r.to_json()) for r in records]
        assert back == [
            {"qid": "a", "utterance_index": 2, "token_start": 1, "token_end": 3, "text": "x y z"},
            {"qid": "b", "utterance_index": -1, "token_start": -1, "token_end": -1, "text": ""},
        ]
