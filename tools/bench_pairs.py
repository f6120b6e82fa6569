"""Run the benchmark on two checkouts in alternating pairs and write the
end-to-end metrics of both to one JSON file.

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --pairs 10 --seed-base 401 --out BENCH_<n>.json

Each checkout runs its own, unchanged ``perfbench/run.py --trace 0`` (the
command its ``BENCHMARK.json`` declares), one process at a time. Pair ``i``
uses seed ``seed-base + i`` on both sides and runs every workload
``BENCHMARK.json`` lists, the parent first in even pairs and the change first
in odd ones, so that a drift of the host's speed does not favour one side.
Both run for ``run_seconds`` from the change's ``BENCHMARK.json``.

The output holds, per pair and workload, each side's end-to-end metrics,
correctness and failed operations. Its ``summary`` holds, per workload and
metric, each side's median and quartiles, the change of the medians as a
fraction of the parent's, the number of pairs the change won (ties count for
neither), ``gain_shown`` (won at least 9 in 10 pairs, by a median difference
larger than the parent's interquartile range) and ``within_bound`` (the
change's median is no worse than the parent's by more than the metric's
``BENCHMARK.json`` bound). The file is rewritten after every pair, so an
interrupted run keeps the pairs it finished. Uses the standard library only.
The host (from the runs' ``env`` line) and each side's ``git_sha`` and
``src_lines`` are recorded too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def load_spec(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in ``checkout``: its end-to-end metric values,
    ``correct``, ``attempted``, ``failed`` and the run's ``env`` line;
    ``error`` instead when the run gave no result."""
    command = [*load_spec(checkout)["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(lines[-1])
    return {
        **{name: m["value"] for name, m in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "env": json.loads(lines[0])["env"],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], workloads: list[str], metrics: list[dict]) -> dict:
    """Per workload and metric, over the pairs where both sides gave a result."""
    summary: dict = {}
    for workload in workloads:
        runs = [p["workloads"][workload] for p in pairs if workload in p["workloads"]]
        runs = [r for r in runs if not any("error" in r[side] for side in SIDES)]
        if not runs:
            continue
        out = summary[workload] = {
            "pairs": len(runs),
            "failed": {side: sum(r[side]["failed"] for r in runs) for side in SIDES},
            "all_correct": all(r[side]["correct"] for r in runs for side in SIDES),
        }
        for metric in metrics:
            name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            values = {side: [r[side][name] for r in runs] for side in SIDES}
            stats = {side: quartiles(values[side]) for side in SIDES}
            parent_median, change_median = stats["parent"][1], stats["change"][1]
            parent_iqr = stats["parent"][2] - stats["parent"][0]
            won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            out[name] = {
                "unit": metric["unit"],
                "bound": metric["bound"],
                "better": metric["better"],
                **{
                    f"{side}_{q}": v
                    for side in SIDES
                    for q, v in zip(("q1", "median", "q3"), stats[side])
                },
                "parent_iqr": parent_iqr,
                "median_change_frac": (change_median - parent_median) / parent_median
                if parent_median else None,
                "change_won": won,
                "gain_shown": 10 * won >= 9 * len(runs)
                and sign * (change_median - parent_median) > parent_iqr,
                "within_bound": sign * (change_median - parent_median)
                >= -metric["bound"] * abs(parent_median),
            }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in dirs.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {path} has no perfbench/run.py")
    spec = load_spec(dirs["change"])
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    report = {
        "host": None,
        "sides": {},
        "seconds": seconds,
        "workloads": workloads,
        "pairs": [],
    }
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0], "workloads": {}}
        for workload in workloads:
            pair["workloads"][workload] = runs = {}
            for side in order:
                run = runs[side] = run_benchmark(dirs[side], workload, seed, seconds)
                env = run.pop("env", None)
                if env is not None and side not in report["sides"]:
                    report["sides"][side] = {k: env.pop(k) for k in ("git_sha", "src_lines")}
                    report["host"] = env
                print(f"pair {i + 1}/{args.pairs} seed {seed} {workload} {side}: {run}",
                      file=sys.stderr)
        report["pairs"].append(pair)
        report["summary"] = summarize(report["pairs"], workloads, spec["end_to_end"])
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
