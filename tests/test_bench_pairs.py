"""The pair summary of ``tools/bench_pairs.py``: wins, ties, direction and
pairs without a result."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "rate", "unit": "ops/s", "better": "higher", "bound": 0.25},
    {"name": "rss", "unit": "MiB", "better": "lower", "bound": 0.15},
]


def _pair(parent: dict, change: dict) -> dict:
    side = {"correct": True, "attempted": 4, "failed": 0}
    return {"workloads": {"w": {"parent": {**side, **parent}, "change": {**side, **change}}}}


def test_summary_counts_wins_by_direction_and_skips_failed_runs():
    pairs = [
        _pair({"rate": 10.0 + i, "rss": 100.0}, {"rate": 11.0 + i, "rss": 90.0}) for i in range(9)
    ]
    pairs.append(_pair({"rate": 20.0, "rss": 100.0}, {"rate": 20.0, "rss": 100.0}))  # a tie
    pairs.append(_pair({"rate": 1.0, "rss": 1.0}, {"error": "exit 1"}))
    summary = bench_pairs.summarize(pairs, ["w"], METRICS)["w"]
    assert summary["pairs"] == 10
    rate, rss = summary["rate"], summary["rss"]
    assert (rate["change_won"], rss["change_won"]) == (9, 9)
    assert rate["parent_median"] == 14.5 and rate["change_median"] == 15.5
    assert rate["gain_shown"] is False  # a median gain of 1 is inside the parent's IQR
    assert rss["gain_shown"] is True and rss["within_bound"] is True
    worse = [_pair({"rate": 10.0, "rss": 100.0}, {"rate": 7.0, "rss": 120.0})]
    summary = bench_pairs.summarize(worse, ["w"], METRICS)["w"]
    assert summary["rate"]["within_bound"] is False and summary["rss"]["within_bound"] is False
