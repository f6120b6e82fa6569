"""The three benchmark workloads and the checks on their outputs.

Each workload has a ``setup`` (inputs made from the seed, untimed by the
caller's rate), a ``run`` that is the timed call into the public pipeline,
and a ``check`` that validates what the run wrote and returns a fingerprint.
Runs of one workload object share inputs, so equal fingerprints across runs
are the determinism contract: same seed, same history, same report.

The package is always reached through module attributes (``training.fit``,
not a name bound at import), so the wrappers of ``tracing`` see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dialoqa import checkpoint, corpus, encoder, synth, training, vocab

PRETRAIN_STAGES = ("tmlm", "umlm", "uop")


@dataclass(frozen=True)
class Size:
    """Step budgets and corpus sizes. The defaults are the benchmark's; the
    smoke test shrinks them."""

    tmlm_steps: int = 12
    umlm_steps: int = 80
    uop_steps: int = 20
    finetune_steps: int = 8
    eval_episodes: int = 122  # 100 test episodes past dev_max_episode=22


@dataclass
class Outcome:
    """What one timed run did: ops attempted and failed, and wall seconds
    of each pipeline call it made."""

    attempted: int
    failed: int = 0
    call_s: dict[str, float] = field(default_factory=dict)
    result: object = None


def _finite(x) -> bool:
    return all(math.isfinite(v) for v in np.ravel(np.asarray(x, dtype=np.float64)))


def _weights_digest(ckpt) -> tuple[str, list[str]]:
    """sha256 of every weight tensor in name order, and the names of tensors
    holding a non-finite value."""
    h = hashlib.sha256()
    bad = []
    for name, p in sorted(ckpt.weights.named()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.array).tobytes())
        if not _finite(p.array):
            bad.append(name)
    return h.hexdigest(), bad


def _history_problems(history: list[dict]) -> list[str]:
    return [
        f"non-finite dev metric in {rec}"
        for rec in history
        if not all(_finite(v) for v in rec.values())
    ]


def _call(outcome: Outcome, label: str, fn, *args):
    """Times one pipeline call. A call that raises is reported on stderr
    and returns None; the caller counts its ops as failed."""
    t0 = time.perf_counter()
    try:
        value = fn(*args)
    except Exception:  # the benchmark reports a failing call and goes on
        traceback.print_exc()
        return None
    outcome.call_s[label] = time.perf_counter() - t0
    return value


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path, size: Size = Size()):
        self.seed = seed
        self.work = work
        self.size = size
        self.config: training.RunConfig | None = None

    def base_config(self, **overrides) -> training.RunConfig:
        return training.RunConfig(
            corpus=str(self.work / "corpus.json"),
            seed=self.seed,
            patience=10**9,  # the whole step budget always runs
            tmlm_steps=self.size.tmlm_steps,
            umlm_steps=self.size.umlm_steps,
            uop_steps=self.size.uop_steps,
            finetune_steps=self.size.finetune_steps,
            **overrides,
        )

    def _write_corpus(self) -> list:
        cfg = self.config
        data = synth.generate_corpus(
            num_episodes=cfg.synth_episodes,
            scenes_per_episode=cfg.synth_scenes_per_episode,
            questions_per_dialogue=cfg.synth_questions_per_dialogue,
            seed=self.seed,
            min_utterances=cfg.synth_min_utterances,
            max_utterances=cfg.synth_max_utterances,
            unanswerable_fraction=cfg.synth_unanswerable_fraction,
        )
        self.work.mkdir(parents=True, exist_ok=True)
        corpus.save_corpus(data, cfg.corpus)
        loaded = corpus.load_corpus(cfg.corpus)
        if [d for d, _ in loaded] != [d for d, _ in data]:
            raise RuntimeError("corpus did not round-trip through save/load")
        return loaded

    def _initial_checkpoint(self, loaded: list, stage: str):
        """A fresh ``stage`` checkpoint over the training vocabulary, round-
        tripped through the checkpoint file format."""
        cfg = self.config
        split = corpus.split_by_episode(loaded, cfg.train_max_episode, cfg.dev_max_episode)
        train = [corpus.truncate(d, cfg.max_utterances, cfg.max_tokens) for d, _ in split.training]
        voc = vocab.build_vocab(train, cfg.min_freq)
        weights = encoder.init_encoder_weights(
            cfg.model_config(len(voc)), stage, training.derive_rng(cfg.seed, stage, "init")
        )
        path = self.work / f"{stage}-init.ckpt"
        checkpoint.save_checkpoint(checkpoint.Checkpoint(weights=weights, vocab=voc), path)
        return checkpoint.load_checkpoint(path)

    # Each workload defines:
    #   setup()             makes its inputs in self.work
    #   run(out) -> Outcome the timed calls, writing into out
    #   check(out, outcome) -> (fingerprint, problems)
    #   call_ops() -> {call label: ops that call attempts}


class Pretrain(Workload):
    """tmlm -> umlm -> uop through ``run_stage`` with checkpoints written to
    the out dir, as the CLI does."""

    name = "pretrain"

    def setup(self) -> None:
        self.config = self.base_config()
        self._write_corpus()

    def budget(self, stage: str) -> int:
        return getattr(self.config, f"{stage}_steps")

    def call_ops(self) -> dict[str, int]:
        return {stage: self.budget(stage) for stage in PRETRAIN_STAGES}

    def run(self, out: Path) -> Outcome:
        outcome = Outcome(attempted=sum(self.budget(s) for s in PRETRAIN_STAGES), result={})
        ckpt = None
        for i, stage in enumerate(PRETRAIN_STAGES):
            ckpt = _call(outcome, stage, training.run_stage, stage, self.config, ckpt, out)
            if ckpt is None:  # this and every later stage lose their budget
                outcome.failed = sum(self.budget(s) for s in PRETRAIN_STAGES[i:])
                break
            outcome.result[stage] = ckpt
        return outcome

    def check(self, out: Path, outcome: Outcome) -> tuple[object, list[str]]:
        problems: list[str] = []
        fingerprint = []
        for stage in PRETRAIN_STAGES:
            last_path = out / f"{stage}-last.ckpt"
            if stage not in outcome.result or not last_path.exists():
                problems.append(f"{stage}: no last checkpoint")
                continue
            last = checkpoint.load_checkpoint(last_path)
            best = outcome.result[stage]  # on disk only if an epoch improved
            if last.global_step != self.budget(stage):
                problems.append(
                    f"{stage}: ran {last.global_step} of {self.budget(stage)} steps"
                )
            history = last.train_state.get("history", [])
            problems += [f"{stage}: {p}" for p in _history_problems(history)]
            digest, bad = _weights_digest(last)
            best_digest, best_bad = _weights_digest(best)
            problems += [f"{stage}: non-finite weight {n}" for n in bad + best_bad]
            fingerprint.append((stage, json.dumps(history, sort_keys=True), digest, best_digest))
        return fingerprint, problems


class Finetune(Workload):
    """Joint UID+span fine-tuning through ``run_finetune`` from a fresh
    uop-stage checkpoint made in set-up."""

    name = "finetune"

    def setup(self) -> None:
        self.config = self.base_config()
        self.init = self._initial_checkpoint(self._write_corpus(), encoder.STAGE_UOP)

    def call_ops(self) -> dict[str, int]:
        return {"finetune": self.config.finetune_steps}

    def run(self, out: Path) -> Outcome:
        outcome = Outcome(attempted=self.config.finetune_steps)
        outcome.result = _call(
            outcome, "finetune", training.run_finetune, self.config, self.init, out
        )
        if outcome.result is None:
            outcome.failed = outcome.attempted
        return outcome

    def check(self, out: Path, outcome: Outcome) -> tuple[object, list[str]]:
        if outcome.result is None:
            return None, ["run_finetune raised"]
        best, history = outcome.result
        problems = _history_problems(history)
        last = checkpoint.load_checkpoint(out / "finetuned-last.ckpt")
        if last.global_step != self.config.finetune_steps:
            problems.append(
                f"ran {last.global_step} of {self.config.finetune_steps} steps"
            )
        if last.train_state.get("history") != history:
            problems.append("returned history differs from the last checkpoint's")
        digest, bad = _weights_digest(last)
        best_digest, best_bad = _weights_digest(best)
        problems += [f"non-finite weight {n}" for n in bad + best_bad]
        return (json.dumps(history, sort_keys=True), digest, best_digest), problems


class Eval(Workload):
    """``run_eval`` on the test split from a fresh finetuned-stage checkpoint
    made in set-up; predictions and reports are written to the out dir."""

    name = "eval"

    def setup(self) -> None:
        self.config = self.base_config(synth_episodes=self.size.eval_episodes)
        loaded = self._write_corpus()
        self.ckpt = self._initial_checkpoint(loaded, encoder.STAGE_FINETUNED)
        cfg = self.config
        # The utterance tokens each test question may be answered from.
        self.expected: dict[str, list[tuple[str, ...]]] = {
            q.qid: [u.tokens[: cfg.max_tokens] for u in d.utterances[: cfg.max_utterances]]
            for d, qs in loaded
            if d.episode_id > cfg.dev_max_episode
            for q in qs
        }

    def call_ops(self) -> dict[str, int]:
        return {"eval": len(self.expected)}

    def run(self, out: Path) -> Outcome:
        outcome = Outcome(attempted=len(self.expected))
        outcome.result = _call(
            outcome, "eval", training.run_eval, self.config, self.ckpt, "test", out
        )
        if outcome.result is None:
            outcome.failed = outcome.attempted
        return outcome

    def check(self, out: Path, outcome: Outcome) -> tuple[object, list[str]]:
        if outcome.result is None:
            return None, ["run_eval raised"]
        report = outcome.result
        problems = []
        if report.total != len(self.expected):
            problems.append(f"report covers {report.total} of {len(self.expected)} questions")
        scores = [report.em, report.sm, report.um]
        scores += [v for r in report.per_type.values() for v in (r.em, r.sm, r.um)]
        if not all(math.isfinite(v) and 0.0 <= v <= 100.0 for v in scores):
            problems.append(f"score out of [0, 100]: {report.to_dict()}")
        lines = (out / "predictions-test.jsonl").read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        qids = [r["qid"] for r in records]
        if len(qids) != len(set(qids)) or set(qids) != set(self.expected):
            problems.append("predictions are not exactly one per test question")
        for r in records:
            problems += self._span_problems(r)
        return (report.to_json(), "\n".join(lines)), problems

    def _span_problems(self, r: dict) -> list[str]:
        ui, start, end = r["utterance_index"], r["token_start"], r["token_end"]
        utterances = self.expected.get(r["qid"], [])
        if ui == -1:  # no answer
            ok = start == -1 and end == -1 and r["text"] == ""
        else:
            ok = (
                0 <= ui < len(utterances)
                and 0 <= start <= end < len(utterances[ui])
                and r["text"] == " ".join(utterances[ui][start : end + 1])
            )
        return [] if ok else [f"prediction outside its utterance: {r}"]


WORKLOADS = {w.name: w for w in (Pretrain, Finetune, Eval)}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
