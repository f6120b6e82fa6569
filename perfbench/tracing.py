"""Span tracing of the dialoqa layers, installed from outside the package.

Each layer is a set of public functions. A wrapper is put in place of every
reference to such a function in every loaded ``dialoqa`` module, because
``from .x import y`` binds a second name that a wrapper set on the defining
module alone would miss. Methods (``Tensor.backward``) are wrapped on their
class. A function that no longer exists is recorded as absent.

Spans nest through a stack: the stage span (``training.fit``) holds step
spans, and a step span holds the layer spans of one optimizer step. A step
span opens at the first step-body call made directly under ``fit`` and
closes when ``adam_step`` returns. A span's self time is its duration minus
the time of its child spans. Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# layer name -> (module, function or Class.method) pairs that make it up
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "training.run": (
        ("dialoqa.training", "run_stage"),
        ("dialoqa.training", "run_finetune"),
        ("dialoqa.training", "run_eval"),
    ),
    "training.fit": (("dialoqa.training", "fit"),),
    "training.dev_eval": (
        ("dialoqa.training", "mlm_dev_perplexity"),
        ("dialoqa.training", "uop_dev_metrics"),
        ("dialoqa.training", "evaluate_entries"),
    ),
    "pretrain.batch_loss": (
        ("dialoqa.pretrain", "tmlm_batch_loss"),
        ("dialoqa.pretrain", "umlm_batch_loss"),
        ("dialoqa.pretrain", "uop_batch_loss"),
        ("dialoqa.pretrain", "uop_batch_logits"),
    ),
    "pretrain.build_instances": (
        ("dialoqa.pretrain", "build_tmlm_instance"),
        ("dialoqa.pretrain", "build_umlm_instances"),
        ("dialoqa.pretrain", "build_uop_instance"),
    ),
    "finetune.qa": (
        ("dialoqa.finetune", "joint_loss"),
        ("dialoqa.finetune", "predict"),
    ),
    "finetune.select": (("dialoqa.finetune", "select_answer"),),
    "encoder.te": (("dialoqa.encoder", "te_forward"),),
    "encoder.tl": (("dialoqa.encoder", "tl_forward"),),
    "encoder.mha": (("dialoqa.encoder", "mha_forward"),),
    "tensor.backward": (("dialoqa.tensor", "Tensor.backward"),),
    "optim.adam": (("dialoqa.optim", "adam_step"),),
    "checkpoint.save": (("dialoqa.checkpoint", "save_checkpoint"),),
    "checkpoint.load": (("dialoqa.checkpoint", "load_checkpoint"),),
    "metrics.evaluate": (("dialoqa.metrics", "evaluate"),),
    "synth.generate": (("dialoqa.synth", "generate_corpus"),),
    "corpus.load": (("dialoqa.corpus", "load_corpus"),),
    "vocab.build": (("dialoqa.vocab", "build_vocab"),),
}

STEP = "training.step"
# Calls that belong to an optimizer step when made directly under fit.
STEP_BODY = frozenset(
    {"pretrain.batch_loss", "finetune.qa", "tensor.backward", "optim.adam"}
)
# Set-up layers. Their metrics come from set-up spans; inside a timed run
# their time stays in the self time of the caller.
SETUP_LAYERS = frozenset(
    {"synth.generate", "corpus.load", "vocab.build", "checkpoint.load"}
)
# Boundaries of one pass over the data, for the TE de-duplication ratio.
PASS_LAYERS = frozenset({"training.run", "training.dev_eval"})


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 at the root
    phase: str  # "setup" or "run"
    outermost: bool  # no enclosing span of the same layer
    nodes_at_start: int
    end: float = 0.0
    nodes: int = 0  # Tensor objects constructed during the span
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects spans, Tensor construction counts, TE row counts and GC
    pauses while ``active`` is true; wrappers pass straight through
    otherwise."""

    def __init__(self) -> None:
        self.active = False
        self.phase = "run"
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.depth: dict[str, int] = {}
        self.absent: list[str] = []
        self.nodes = 0
        self.te_rows_in_qa = 0
        self.te_distinct_in_qa = 0
        self.seen_rows: set = set()
        self.gc_pauses: list[float] = []
        self.gc_gen2 = 0
        self._gc_start: float | None = None
        self._restore: list = []

    # -- spans ----------------------------------------------------------------

    def begin(self, name: str) -> int:
        if name in STEP_BODY and self._top_is("training.fit"):
            self._push(STEP)
        if name in PASS_LAYERS:
            self.seen_rows.clear()
        return self._push(name)

    def end(self, index: int) -> None:
        span = self.spans[index]
        self._pop(index)
        if span.name in PASS_LAYERS:
            self.seen_rows.clear()
        if span.name == "optim.adam" and self._top_is(STEP):
            self._pop(self.stack[-1])

    def _top_is(self, name: str) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]].name == name

    def _push(self, name: str) -> int:
        depth = self.depth.get(name, 0)
        self.depth[name] = depth + 1
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(
            Span(name, time.perf_counter(), parent, self.phase, depth == 0, self.nodes)
        )
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _pop(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.nodes = self.nodes - span.nodes_at_start
        # A step span left open by an exception is closed with its parent.
        while self.stack and self.stack[-1] != index:
            self._pop(self.stack[-1])
        self.stack.pop()
        self.depth[span.name] -= 1
        transparent = span.phase == "run" and span.name in SETUP_LAYERS
        if span.parent >= 0 and not transparent:
            self.spans[span.parent].child_s += span.duration

    # -- probes ---------------------------------------------------------------

    def _probe_qa(self, args, kwargs) -> None:
        """Counts the distinct (dialogue, sequence) pairs a question needs
        encoded; the dialogue is keyed by its utterance sequences."""
        enc = args[2] if len(args) > 2 else kwargs.get("encoding")
        utterances = getattr(enc, "utterance_ids", None)
        question = getattr(enc, "question_ids", None)
        if utterances is None or question is None:
            return
        for seq in (question, *utterances):
            key = (utterances, seq)
            if key not in self.seen_rows:
                self.seen_rows.add(key)
                self.te_distinct_in_qa += 1

    def _probe_te(self, args, kwargs) -> None:
        if self.depth.get("finetune.qa", 0) == 0:
            return
        ids = args[2] if len(args) > 2 else kwargs.get("token_ids")
        shape = getattr(ids, "shape", None)
        if shape is None:
            return
        self.te_rows_in_qa += shape[0] if len(shape) == 2 else 1

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.active or self.phase != "run":
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pauses.append(time.perf_counter() - self._gc_start)
            self._gc_start = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # -- installation ---------------------------------------------------------

    def _wrap(self, layer: str, fn):
        probe = {"finetune.qa": self._probe_qa, "encoder.te": self._probe_te}.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if probe is not None:
                probe(args, kwargs)
            index = self.begin(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return wrapper

    def install(self) -> None:
        """Wraps every layer function and the Tensor constructor, and hooks
        the garbage collector. ``restore`` undoes all of it."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "dialoqa" or n.startswith("dialoqa."))
        ]
        for layer, targets in LAYERS.items():
            for module_name, qualname in targets:
                module = importlib.import_module(module_name)
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.absent.append(f"{module_name}.{qualname}")
                    continue
                wrapper = self._wrap(layer, fn)
                for namespace in [owner] if owner_name else modules:
                    for name, value in list(vars(namespace).items()):
                        if value is fn:
                            self._set(namespace, name, wrapper)
        tensor_cls = importlib.import_module("dialoqa.tensor").Tensor
        original_init = tensor_cls.__init__

        def counting_init(obj, *args, **kwargs):
            self.nodes += 1
            original_init(obj, *args, **kwargs)

        self._set(tensor_cls, "__init__", counting_init)
        gc.callbacks.append(self._on_gc)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i, "name": s.name, "parent": s.parent, "phase": s.phase,
                    "start": s.start, "end": s.end, "self_s": s.self_s, "nodes": s.nodes,
                }
                f.write(json.dumps(rec) + "\n")


def layer_metrics(tracer: Tracer, ops: int, setups: int) -> dict[str, float]:
    """Per-layer figures of the traced part of a run. Times are seconds per
    op (optimizer step or eval question) unless named per setup."""
    run = [s for s in tracer.spans if s.phase == "run"]
    setup = [s for s in tracer.spans if s.phase == "setup"]

    def inclusive(name: str, spans=run) -> float:
        return sum(s.duration for s in spans if s.name == name and s.outermost)

    def self_time(*names: str) -> float:
        return sum(s.self_s for s in run if s.name in names)

    def count(name: str) -> int:
        return sum(1 for s in run if s.name == name)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    steps = [s for s in run if s.name == STEP]
    qa = [s for s in run if s.name == "finetune.qa" and s.outermost]
    def per_op(x: float) -> float:
        return ratio(x, ops)

    def per_setup(x: float) -> float:
        return ratio(x, setups)

    return {
        "tensor.backward_s": per_op(inclusive("tensor.backward")),
        "tensor.nodes_per_step": ratio(sum(s.nodes for s in steps), len(steps)),
        "tensor.nodes_per_question": ratio(sum(s.nodes for s in qa), len(qa)),
        "encoder.te_s": per_op(inclusive("encoder.te")),
        "encoder.tl_s": per_op(inclusive("encoder.tl")),
        "encoder.mha_s": per_op(inclusive("encoder.mha")),
        "encoder.te_rows_per_question": ratio(tracer.te_rows_in_qa, len(qa)),
        "encoder.te_useful_frac": ratio(tracer.te_distinct_in_qa, tracer.te_rows_in_qa),
        "pretrain.batch_loss_self_s": per_op(self_time("pretrain.batch_loss")),
        "pretrain.build_instances_s": per_op(inclusive("pretrain.build_instances")),
        "finetune.qa_s": per_op(inclusive("finetune.qa")),
        "finetune.qa_self_s": per_op(self_time("finetune.qa")),
        "finetune.select_s": per_op(inclusive("finetune.select")),
        "optim.adam_s": per_op(inclusive("optim.adam")),
        "checkpoint.save_s": per_op(inclusive("checkpoint.save")),
        "checkpoint.saves": per_op(count("checkpoint.save")),
        "training.dev_eval_s": per_op(inclusive("training.dev_eval")),
        "training.loop_self_s": per_op(self_time("training.fit", STEP)),
        "training.run_self_s": per_op(self_time("training.run")),
        "metrics.evaluate_s": per_op(inclusive("metrics.evaluate")),
        "synth.generate_s": per_setup(inclusive("synth.generate", setup)),
        "corpus.load_s": per_setup(inclusive("corpus.load", setup)),
        "vocab.build_s": per_setup(inclusive("vocab.build", setup)),
        "checkpoint.load_s": per_setup(inclusive("checkpoint.load", setup)),
        "gc.pause_s": per_op(sum(tracer.gc_pauses)),
        "gc.gen2_collections": per_op(tracer.gc_gen2),
    }
