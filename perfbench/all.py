"""Runs every workload of the benchmark, each in its own process, one after
another, and prints each metric by name and unit with the share of ops that
failed.

    python3 perfbench/all.py --seed 0 --seconds 40 [--trace 1]

Exits non-zero when a workload fails to report or its output checks fail.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    ok = True
    for workload in ("pretrain", "finetune", "eval"):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}, no result")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{workload}: correct={result['correct']} "
              f"ops_failed_frac={result['failed'] / result['attempted']:.4g} "
              f"({result['failed']}/{result['attempted']})")
        for name, m in result["metrics"].items():
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
