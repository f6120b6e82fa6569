"""Benchmark of the dialoqa pipeline: pre-training, fine-tuning and eval.

Run from the repository root:

    python3 perfbench/run.py --workload pretrain --seed 0 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  pretrain  run_stage tmlm -> umlm -> uop on the default synth corpus
  finetune  run_finetune from a fresh uop-stage checkpoint
  eval      run_eval on a 600-question test split from a fresh finetuned-stage
            checkpoint

The seed makes the synthetic corpus and is the run seed. The workload is
set up and called in turn, in one process with no extra threads, until
about ``--seconds`` of timed calls and host references. Each call's outputs
are checked, and every call must give the same outputs (the determinism
contract). A garbage collection runs before each set-up and call, never
inside one.

The host is shared, and its speed drifts in spells that last from seconds
to minutes (identical calls of one run took from 1.9 to 4.9 s on the
baseline host), so a run's raw rate depends on when it ran.
Between each set-up and its call the benchmark times a fixed reference loop
that does the same kind of work as the pipeline (a graph of Python nodes
over small matmuls and elementwise ops). The run's host factor is the mean
reference time over ``REF_S``. ``host_adjusted_ops_per_s`` is the run's ops
over its total call time, and ``setup_s`` the median set-up time, both
scaled by that factor to a host on which the reference takes ``REF_S``.
The raw rate and every set-up, reference and call time are printed on the
lines before the result.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half of
the time untraced and half with the ``tracing`` wrappers installed, and
reports the per-layer metrics, the tracing overhead (traced minus untraced
time per op) and the spans in ``.perfbench/traces/``. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTPUT_DIR = ROOT / ".perfbench"
MIN_CALLS = 3
REF_ITERATIONS = 1200
# A fixed scale for the host factor: about the reference loop's time on the
# 2-vCPU x86_64 Xeon (2.0 GHz) VM the baseline was recorded on, with one
# OpenBLAS thread, where a run's mean ranged from 0.30 to 0.42 s.
REF_S = 0.31


def metric_units(group: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json defines; a run reports exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[group]}


def git_sha(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a
    work tree."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": git_sha(ROOT),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
        ),
    }


class _Node:
    """A node of the reference loop's graph. The graph has no cycles, so
    each node is freed by its reference count and the loop never starts the
    cyclic collector, whose cost would depend on the program's heap."""

    __slots__ = ("value", "parents", "grad")

    def __init__(self, value, parents):
        self.value = value
        self.parents = parents
        self.grad = None


def reference_s() -> float:
    """Seconds the host takes for a fixed reference loop: an 8-layer tanh
    MLP on a 32x64 batch, built as a graph of Python nodes and run forward
    and back, REF_ITERATIONS times. Its memory is a few hundred KiB, so it
    leaves ``peak_rss_mb`` to the program."""
    import numpy as np

    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((32, 64))
    w = rng.standard_normal((64, 64)) / 8
    t0 = time.perf_counter()
    for _ in range(REF_ITERATIONS):
        x = _Node(x0, ())
        nodes = []
        for _ in range(8):
            x = _Node(np.tanh(x.value @ w), (x,))
            nodes.append(x)
        g = np.ones_like(x.value)
        for node in reversed(nodes):
            node.grad = g
            g = (g * (1.0 - node.value * node.value)) @ w.T
    return time.perf_counter() - t0


class Runner:
    """Alternates set-ups and timed calls of one workload and collects the
    checks of every call."""

    def __init__(self, workload, out: Path):
        self.workload = workload
        self.out = out
        self.calls: list = []  # (outcome, wall seconds)
        self.setup_s: list[float] = []
        self.ref_s: list[float] = []  # reference_s() before each call
        self.problems: list[str] = []
        self.fingerprint = None

    def run_for(self, seconds: float, tracer=None, min_calls: int = MIN_CALLS) -> list:
        """Sets up and calls the workload, at least ``min_calls`` times and
        until the next call and its reference would pass ``seconds``. Set-up
        and reference times go to ``setup_s`` and ``ref_s``; returns this
        window's calls."""
        from workloads import fresh_dir

        window: list = []
        spent = 0.0
        while len(window) < min_calls or spent + spent / len(window) <= seconds:
            _, setup_wall = self._timed(self.workload.setup, tracer, "setup")
            self.setup_s.append(setup_wall)
            fresh_dir(self.out)
            self.ref_s.append(reference_s())
            outcome, wall = self._timed(lambda: self.workload.run(self.out), tracer, "run")
            spent += self.ref_s[-1] + wall
            window.append((outcome, wall))
            self._check(outcome)
        self.calls += window
        return window

    @staticmethod
    def _timed(fn, tracer, phase: str):
        """(fn(), wall seconds), after a collection of the garbage left by
        earlier work; traced as ``phase`` when a tracer is given."""
        gc.collect()
        if tracer is not None:
            tracer.phase, tracer.active = phase, True
        t0 = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        return value, wall

    def _check(self, outcome) -> None:
        try:
            fingerprint, problems = self.workload.check(self.out, outcome)
        except Exception:  # a check that cannot run fails the result
            fingerprint, problems = None, [f"check raised:\n{traceback.format_exc()}"]
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        elif fingerprint != self.fingerprint:
            problems = problems + ["outputs differ from the first call with the same seed"]
        self.problems += [f"call {len(self.calls)}: {p}" for p in problems]

    @property
    def attempted(self) -> int:
        return sum(o.attempted for o, _ in self.calls)

    @property
    def failed(self) -> int:
        return sum(o.failed for o, _ in self.calls)


def ops_per_s(window: list) -> float:
    """Ops over the window's total call time."""
    return sum(o.attempted for o, _ in window) / sum(w for _, w in window)


def call_rates(workload, window: list) -> dict[str, float]:
    """Untraced rate of each kind of pipeline call: its ops over its wall
    time, median over calls. Calls the workload does not make read 0."""
    rates = {name: 0.0 for name in metric_units("per_layer") if name.endswith("_per_s")}
    for label, ops in workload.call_ops().items():
        times = [o.call_s[label] for o, _ in window if label in o.call_s]
        unit = "questions" if label == "eval" else "steps"
        rates[f"{label}.{unit}_per_s"] = ops / statistics.median(times) if times else 0.0
    return rates


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, work / "inputs")
    runner = Runner(workload, work / "out")
    untraced = runner.run_for(seconds / 2 if trace else seconds)
    lines = [{
        "setups": [round(s, 4) for s in runner.setup_s],
        "ref_s": [round(r, 4) for r in runner.ref_s],
        "calls": [round(w, 4) for _, w in untraced],
        "ops_per_s": ops_per_s(untraced),
    }]
    if not trace:
        host_factor = statistics.fmean(runner.ref_s) / REF_S
        metrics = {
            "host_adjusted_ops_per_s": ops_per_s(untraced) * host_factor,
            "setup_s": statistics.median(runner.setup_s) / host_factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = metric_units("end_to_end")
    else:
        with tracing.Tracer() as tracer:
            traced = runner.run_for(seconds / 2, tracer)
        trace_path = OUTPUT_DIR / "traces" / f"{name}-seed{seed}.jsonl"
        tracer.write(trace_path)
        ops = sum(o.attempted for o, _ in traced)
        traced_op_s = sum(w for _, w in traced) / ops
        untraced_op_s = sum(w for _, w in untraced) / sum(o.attempted for o, _ in untraced)
        metrics = {
            **call_rates(workload, untraced),
            "trace.op_s": traced_op_s,
            "trace.overhead_frac": traced_op_s / untraced_op_s - 1.0,
            **tracing.layer_metrics(tracer, ops, setups=len(traced)),
        }
        units = metric_units("per_layer")
        share = {
            k: round(v / traced_op_s, 4)
            for k, v in metrics.items()
            if units[k] == "s/op" and k != "trace.op_s"
        }
        lines += [
            {"traced_calls": [round(w, 4) for _, w in traced], "spans": str(trace_path.relative_to(ROOT))},
            {"absent": tracer.absent},
            {"share_of_traced_op": share},
        ]
    for line in lines:
        print(json.dumps(line))
    for p in runner.problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    return {
        "correct": not runner.problems and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pretrain", "finetune", "eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread, set before numpy loads: OpenBLAS would otherwise use
    # every core for these small matrices, and the load must come from one
    # thread of one process.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "dialoqa" / "__init__.py").is_file():
        print(f"perfbench: no dialoqa package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps({"env": environment()}))
    work = OUTPUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
