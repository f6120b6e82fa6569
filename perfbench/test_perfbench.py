"""Smoke tests of the benchmark: each workload at a tiny size, traced, with
its output checks; the layers each workload must and must not reach; the
host reference loop; the metric names; and the failure exit outside a full
checkout."""

import gc
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
try:
    import dialoqa  # noqa: F401
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Size(
    tmlm_steps=2, umlm_steps=3, uop_steps=2, finetune_steps=2, eval_episodes=24
)

# Layers each workload must reach in its timed calls, and layers it must not.
CALLED = {
    "pretrain": {
        "training.run", "training.fit", "training.step", "training.dev_eval",
        "pretrain.batch_loss", "pretrain.build_instances", "encoder.te",
        "encoder.tl", "tensor.backward", "optim.adam", "checkpoint.save",
    },
    "finetune": {
        "training.run", "training.fit", "training.step", "training.dev_eval",
        "finetune.qa", "finetune.select", "encoder.te", "encoder.tl",
        "encoder.mha", "tensor.backward", "optim.adam", "checkpoint.save",
        "metrics.evaluate",
    },
    "eval": {
        "training.run", "finetune.qa", "finetune.select", "encoder.te",
        "encoder.tl", "encoder.mha", "metrics.evaluate",
    },
}
NOT_CALLED = {
    "pretrain": {"encoder.mha", "finetune.qa", "finetune.select", "metrics.evaluate"},
    "finetune": {"pretrain.batch_loss", "pretrain.build_instances"},
    "eval": {
        "tensor.backward", "optim.adam", "training.fit", "training.step",
        "training.dev_eval", "checkpoint.save", "pretrain.batch_loss",
    },
}


@pytest.mark.parametrize("name", sorted(CALLED))
def test_workload_traced_at_tiny_size(name, tmp_path):
    workload = workloads.WORKLOADS[name](0, tmp_path / "inputs", TINY)
    runner = run.Runner(workload, tmp_path / "out")
    with tracing.Tracer() as tracer:
        window = runner.run_for(0.0, tracer, min_calls=2)
    assert tracer.absent == []
    assert runner.problems == []
    assert runner.failed == 0 and runner.attempted > 0
    called = {s.name for s in tracer.spans if s.phase == "run"}
    assert CALLED[name] <= called
    assert not NOT_CALLED[name] & called
    setup_called = {s.name for s in tracer.spans if s.phase == "setup"}
    assert {"synth.generate", "corpus.load"} <= setup_called

    ops = sum(o.attempted for o, _ in window)
    metrics = {
        **run.call_rates(workload, window),
        **tracing.layer_metrics(tracer, ops, setups=len(window)),
    }
    assert set(metrics) | {"trace.op_s", "trace.overhead_frac"} == set(run.metric_units("per_layer"))
    assert metrics["encoder.te_s"] > 0
    if name == "pretrain":
        assert metrics["encoder.mha_s"] == 0 and metrics["finetune.select_s"] == 0
        assert metrics["tensor.nodes_per_step"] > 0
    else:
        assert 0 < metrics["encoder.te_useful_frac"] < 1
        assert metrics["tensor.nodes_per_question"] > 0
    if name == "eval":
        assert metrics["tensor.backward_s"] == 0 and metrics["optim.adam_s"] == 0


def test_eval_check_flags_bad_predictions(tmp_path):
    workload = workloads.Eval(0, tmp_path / "inputs", TINY)
    workload.setup()
    out = workloads.fresh_dir(tmp_path / "out")
    outcome = workload.run(out)
    assert workload.check(out, outcome)[1] == []
    path = out / "predictions-test.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[0].update(utterance_index=0, token_start=0, token_end=99, text="x")
    path.write_text("".join(json.dumps(r) + "\n" for r in records[:-1]))
    problems = workload.check(out, outcome)[1]
    assert any("outside its utterance" in p for p in problems)
    assert any("one per test question" in p for p in problems)


def test_failing_stage_counts_its_remaining_budget(tmp_path, monkeypatch):
    workload = workloads.Pretrain(0, tmp_path / "inputs", TINY)
    workload.setup()
    real = workloads.training.run_stage

    def fails_at_umlm(stage, *args):
        if stage == "umlm":
            raise RuntimeError("injected failure")
        return real(stage, *args)

    monkeypatch.setattr(workloads.training, "run_stage", fails_at_umlm)
    out = workloads.fresh_dir(tmp_path / "out")
    outcome = workload.run(out)
    assert outcome.failed == TINY.umlm_steps + TINY.uop_steps
    assert "umlm: no last checkpoint" in workload.check(out, outcome)[1]


def test_tracer_restores_the_package():
    import dialoqa.finetune
    import dialoqa.tensor
    import dialoqa.training

    def bindings():
        return (
            dialoqa.training.fit,
            dialoqa.finetune.te_forward,
            dialoqa.tensor.Tensor.__init__,
            dialoqa.tensor.Tensor.backward,
            list(gc.callbacks),
        )

    before = bindings()
    with tracing.Tracer():
        assert dialoqa.finetune.te_forward is not before[1]
        assert dialoqa.tensor.Tensor.__init__ is not before[2]
    assert bindings() == before


def test_removed_function_is_reported_absent(monkeypatch):
    import dialoqa.finetune

    monkeypatch.delattr(dialoqa.finetune, "predict")
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent == ["dialoqa.finetune.predict"]


def test_reference_loop_leaves_the_collector_alone():
    run.reference_s()  # the first call imports numpy's random module
    gc.collect()
    before = [s["collections"] for s in gc.get_stats()]
    assert run.reference_s() > 0
    assert [s["collections"] for s in gc.get_stats()] == before


def test_benchmark_json_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name_ok = re.compile(r"[A-Za-z0-9_.-]+")
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            assert name_ok.fullmatch(m["name"]), m["name"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_package(tmp_path):
    """A directory holding only the benchmark exits non-zero, printing no
    result."""
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "eval",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
