"""Staged training pipeline: the three pre-training stages with weight
transfer, multi-task fine-tuning, evaluation, configuration, seeding, and
checkpoint management.

The four training stages (tmlm, umlm, uop, finetuned) run one recipe. Which
stages may start each one, and which weights carry over, is the stage table
in ``encoder`` (``STAGE_SOURCES``, ``STAGE_GROUPS``): ``_init_stage_state``
checks a start against it, and ``encoder.init_encoder_weights`` applies it to
the weights. The table ``_STAGES`` here holds the rest that sets them apart:
the ``RunConfig`` field with its step budget, how its train/dev data comes
from the corpus split, a task builder returning ``fit``'s ``_Task`` (instance
builder, batch loss, dev evaluation), and the tracked dev metrics with their
direction, which ``_progress`` reads.
``_run`` does the rest the same way for every stage; ``run_stage`` and
``run_finetune`` are its public entry points.

A stage's state is one ``Checkpoint``: ``_init_stage_state`` makes the
start state (a ``*-last`` checkpoint as it is, or fresh or transferred
weights with a new optimizer and generator), and ``fit`` runs from it. Every
stage run writes one file into an output directory, each epoch's
``<stage>-last.ckpt``: it holds the dev history and the best weights, and
it starts a resume, the next stage and an evaluation. A transfer and an
evaluation read its best weights (``_best_weights``).
The global step, the one step count, drives the lr and Adam's corrections.

One rule, ``_check_settings``, holds for every run from a checkpoint: a
resume, a transfer and ``run_eval`` use its model, every ``ModelConfig``
setting but ``dropout_p``, and a resume also its ``dropout_p`` and Adam settings.
``_init_stage_state`` alone decides what may start a stage: it checks those
settings first, then the source's stage.

Determinism contract: every random draw comes either from namespaced
generators derived from (seed, stage, purpose) or from the single training
generator whose state is checkpointed, so a resumed run replays the
uninterrupted one bit-exactly. Dev evaluation never touches the training
generator.
"""

from __future__ import annotations

import functools
import logging
import operator
import re
import typing
import zlib
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .checkpoint import Checkpoint, save_checkpoint
from .corpus import (
    CorpusSplit,
    Dialogue,
    QAExample,
    load_corpus,
    split_by_episode,
    truncate,
)
from .encoder import (
    STAGE_FINETUNED,
    STAGE_SOURCES,
    STAGE_TMLM,
    STAGE_UMLM,
    STAGE_UOP,
    EncoderWeights,
    ModelConfig,
    init_encoder_weights,
)
from .errors import CheckpointError, ConfigError, CorpusError, DivergenceError, SequencingError
from .files import write_file
from .finetune import QAEncoding, encode_for_qa, predict, qa_batch_loss, select_answer
from .metrics import MetricReport, PredictionRecord, evaluate
from .optim import AdamState, LRSchedule, adam_step, lr_at_step
from .pretrain import (
    EncodedDialogue,
    MlmInstance,
    UopInstance,
    build_tmlm_instance,
    build_umlm_instances,
    build_uop_instance,
    encode_dialogue,
    mlm_batch_loss,
    mlm_perplexity,
    uop_batch_logits,
    uop_batch_loss,
)
from .tensor import Tensor, cross_entropy_rows
from .vocab import Vocab, build_vocab

logger = logging.getLogger("dialoqa")

PRETRAIN_STAGES = (STAGE_TMLM, STAGE_UMLM, STAGE_UOP)


# -- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Pipeline configuration; optimizer/schedule defaults are the published
    recipe and are asserted field-by-field in the acceptance suite."""

    corpus: str | None = None
    extra_corpus: str | None = None
    # model (vocab_size is resolved from the corpus or checkpoint)
    num_layers: int = 2
    num_heads: int = 2
    hidden_size: int = 32
    intermediate_size: int = 64
    max_tokens: int = 12
    max_utterances: int = 8
    use_utterance_positions: bool = True
    # optimization
    batch_size: int = 32
    base_lr: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.01
    warmup_fraction: float = 0.10
    dropout_p: float = 0.1
    # stage budgets and early stopping
    tmlm_steps: int = 500
    umlm_steps: int = 500
    uop_steps: int = 500
    finetune_steps: int = 500
    patience: int = 3
    # data handling
    train_max_episode: int = 20
    dev_max_episode: int = 22
    min_freq: int = 1
    mlm_ratio: float = 0.15
    mlm_mode: str = "dynamic"  # "static" caches t-MLM masks at dataset build
    umlm_samples_per_utterance: int = 1
    uop_shuffle_prob: float = 0.5
    seed: int = 0
    # synthetic corpus generation
    synth_episodes: int = 26
    synth_scenes_per_episode: int = 2
    synth_questions_per_dialogue: int = 3
    synth_min_utterances: int = 4
    synth_max_utterances: int = 6
    synth_unanswerable_fraction: float = 0.15

    def __post_init__(self):
        if min(self.batch_size, self.patience, self.umlm_samples_per_utterance) < 1:
            raise ConfigError("batch_size, patience and umlm_samples_per_utterance must be >= 1")
        if self.mlm_mode not in ("static", "dynamic"):
            raise ConfigError(f"mlm_mode must be static|dynamic, got {self.mlm_mode!r}")
        if not 0.0 <= self.mlm_ratio < 1.0:
            raise ConfigError(f"mlm_ratio must be in [0, 1), got {self.mlm_ratio}")
        for name in ("uop_shuffle_prob", "synth_unanswerable_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:  # False for nan
                raise ConfigError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        for name in ("tmlm_steps", "umlm_steps", "uop_steps", "finetune_steps",
                     "synth_episodes", "synth_scenes_per_episode"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        # an utterance's [CLS] s w_1..w_n takes max_tokens + 2 of TE's positions
        if self.max_utterances < 2:
            raise ConfigError(f"max_utterances must be >= 2, got {self.max_utterances}")
        self.model_config(1)  # model, Adam and schedule settings fail here, not in a stage
        self.adam_state()
        LRSchedule(self.base_lr, 1, self.warmup_fraction)

    def model_config(self, vocab_size: int) -> ModelConfig:
        shared = (f.name for f in fields(ModelConfig) if f.name != "vocab_size")
        return ModelConfig(vocab_size, **{name: getattr(self, name) for name in shared})

    def adam_state(self) -> AdamState:
        shared = (f.name for f in fields(AdamState) if hasattr(self, f.name))
        return AdamState(**{name: getattr(self, name) for name in shared})


def _coerce(raw: str, typ) -> object:
    if typ is bool:
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"expected a boolean, got {raw!r}")
    if typ not in (int, float):
        return raw
    try:
        return typ(raw)
    except ValueError as e:
        raise ConfigError(f"expected {typ.__name__}, got {raw!r}") from e


def parse_config_file(path: str | Path) -> dict[str, str]:
    """key = value lines; '#' outside quotes starts a comment; values may be
    quoted; a key given twice is a ``ConfigError`` naming both lines."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: cannot read config file: {e}") from e
    out, lines = {}, {}  # key -> value, key -> line number
    for lineno, line in enumerate(text.splitlines(), 1):
        # blank, or key = value (a value that starts with a quote ends at its
        # closing quote), then an optional comment
        m = re.fullmatch(r"""\s*(?:([^#=]*?)\s*=\s*("[^"]*"|'[^']*'|[^#]*?))?\s*(?:#.*)?""", line)
        if m is None:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, value = m.groups()
        if key is None:
            continue
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is already set on line {lines[key]}")
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
            value = value[1:-1]
        out[key], lines[key] = value, lineno
    return out


def load_run_config(path: str | Path | None = None, **overrides) -> RunConfig:
    types = typing.get_type_hints(RunConfig)
    data: dict[str, object] = {}
    if path is not None:
        for key, raw in parse_config_file(path).items():
            if key not in types:
                raise ConfigError(f"unknown config key {key!r}")
            data[key] = _coerce(raw, types[key])
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        data[key] = value
    return RunConfig(**data)


def derive_rng(seed: int, *tags: str) -> np.random.Generator:
    """Independent generator for (seed, purpose); stable across runs."""
    entropy = [seed] + [zlib.crc32(t.encode("utf-8")) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def restore_rng(state: dict) -> np.random.Generator:
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


# -- data plumbing -------------------------------------------------------


def load_split(config: RunConfig) -> CorpusSplit:
    if not config.corpus:
        raise ConfigError("config.corpus is required")
    corpus = load_corpus(config.corpus)
    extra: list[Dialogue] = []
    if config.extra_corpus:
        extra = [d for d, _ in load_corpus(config.extra_corpus)]
    return split_by_episode(
        corpus, config.train_max_episode, config.dev_max_episode, extra
    )


def pretrain_dialogues(
    config: RunConfig, split: CorpusSplit
) -> tuple[list[Dialogue], list[Dialogue]]:
    """(training dialogues incl. the extra pretraining set, dev dialogues),
    truncated to the model limits."""
    lim = (config.max_utterances, config.max_tokens)
    train = [truncate(d, *lim) for d, _ in split.training]
    train += [truncate(d, *lim) for d in split.pretrain_extra]
    dev = [truncate(d, *lim) for d, _ in split.development]
    return train, dev


def qa_entries(
    config: RunConfig, part: Sequence[tuple[Dialogue, Sequence[QAExample]]]
) -> list[tuple[Dialogue, list[QAExample]]]:
    """Each dialogue with questions, truncated to the model limits, and its
    questions as the corpus gives them: they stay the gold answers, and
    ``encode_for_qa`` labels only a span the truncation kept."""
    lim = (config.max_utterances, config.max_tokens)
    return [(truncate(d, *lim), list(qs)) for d, qs in part if qs]


# -- dev evaluation -----------------------------------------------------------


def _chunks(items: Sequence, size: int):
    for start in range(0, len(items), size):
        yield items[start : start + size]


def mlm_dev_perplexity(
    weights: EncoderWeights,
    instances: Sequence[MlmInstance],
    batch_size: int,
) -> float:
    weights = weights.frozen()
    return mlm_perplexity([
        (mlm_batch_loss(weights, chunk).item(), sum(len(inst.labels) for inst in chunk))
        for chunk in _chunks(instances, batch_size)
    ])


def uop_dev_metrics(
    weights: EncoderWeights,
    instances: Sequence[UopInstance],
    batch_size: int,
) -> tuple[float, float]:
    """(mean cross-entropy, accuracy) with dropout off."""
    weights = weights.frozen()
    total_ce = 0.0
    correct = 0
    for chunk in _chunks(instances, batch_size):
        logits = uop_batch_logits(weights, chunk)
        labels = [inst.label for inst in chunk]
        losses = cross_entropy_rows(logits, labels).array
        for loss, row, label in zip(losses, logits.array, labels):
            total_ce += loss
            correct += int(np.argmax(row) == label)
    n = len(instances)
    return float(total_ce) / n, correct / n


def build_uop_dev_instances(
    dialogues: Sequence[EncodedDialogue], rng: np.random.Generator
) -> list[UopInstance]:
    """Paired held-out set: each eligible dialogue contributes one in-order
    and one shuffled instance, so the label balance is exact."""
    out = []
    for d in dialogues:
        in_order = build_uop_instance(d, rng, shuffle_prob=0.0)
        if in_order is None:
            continue
        shuffled = build_uop_instance(d, rng, shuffle_prob=1.0)
        out.extend([in_order, shuffled])
    return out


# -- the generic stage loop ---------------------------------------------------


@dataclass(frozen=True)
class _Task:
    """One stage's part of ``fit``; ``batch_loss`` is called as
    ``batch_loss(weights, batch, rng=rng)``, so dropout draws from the
    training generator."""

    build_epoch: Callable[[np.random.Generator], list]  # an epoch's instances
    batch_loss: Callable[..., Tensor]
    dev_eval: Callable[[EncoderWeights], dict]  # dev metrics, dropout off


def _progress(stage: str, history: list[dict]) -> tuple[int, int]:
    """(kept, bad) of a dev ``history``: its length through its last
    improving record, and the number of evals since. A record improves when
    it betters the best so far of any of the stage's tracked metrics (the
    first always does, an equal value never). Raises ``CheckpointError``
    naming a record without each tracked metric as a number."""
    tracked, best, kept = _STAGES[stage].tracked, {}, 0
    for i, record in enumerate(history, 1):
        values = [record.get(name) for name in tracked]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            raise CheckpointError(
                f"stage {stage!r}: dev history record {record} needs a number for "
                f"each of {list(tracked)}"
            )
        better = {name: record[name] for name, beats in tracked.items()
                  if name not in best or beats(record[name], best[name])}
        if better:
            best.update(better)
            kept = i
    return kept, len(history) - kept


def _best_weights(checkpoint: Checkpoint) -> EncoderWeights:
    """The weights ``checkpoint`` hands on: a ``-last``'s best weights, or a
    weights-only checkpoint's weights."""
    if checkpoint.best is None:
        return checkpoint.weights
    return EncoderWeights(checkpoint.config, checkpoint.stage, checkpoint.best)


def fit(
    run_config: RunConfig,
    state: Checkpoint,
    task: _Task,
    max_steps: int,
    out_dir: str | Path,
) -> tuple[Checkpoint, list[dict]]:
    """Epoch loop from the start ``state`` (weights, vocab, Adam and rng
    state, step, ``train_state``, best weights) with per-epoch dev
    evaluation, patience-based early stopping, and one checkpoint per epoch.

    A fresh start evaluates its start weights, the first best. Each epoch
    writes its state, the best weights and the dev history included, to
    ``<out_dir>/<stage>-last.ckpt``, the stage's only file. From the history
    ``_progress`` gives, after each eval, the evals since the last
    improvement; a resume takes them and the next epoch from it. A non-finite
    loss or gradient raises ``DivergenceError`` before the update. The global
    step, counted from 1, is Adam's step and sets the lr. Returns (best
    checkpoint, dev history): the best weights, weights-only, with the
    history through their eval and its step."""
    weights, adam, stage = state.weights, state.adam, state.stage
    rng = restore_rng(state.rng_state)
    global_step = state.global_step
    schedule = LRSchedule(run_config.base_lr, max_steps, run_config.warmup_fraction)
    history: list[dict] = list(state.train_state.get("history", []))

    if not history:
        metrics = task.dev_eval(weights)
        history.append({"epoch": -1, "step": global_step, **metrics})
        logger.info("[%s] initial dev: %s", stage, metrics)
        state = replace(state, best=weights.vector.copy())
    bad = _progress(stage, history)[1]

    while global_step < max_steps and bad < run_config.patience:
        epoch = len(history) - 1
        instances = task.build_epoch(rng)
        order = rng.permutation(len(instances))
        for chunk in _chunks(order, run_config.batch_size):
            if global_step >= max_steps:
                break
            batch = [instances[i] for i in chunk]
            weights.zero_grads()
            loss = task.batch_loss(weights, batch, rng=rng)
            if not np.isfinite(loss.item()):
                raise DivergenceError(
                    f"stage {stage!r} diverged at step {global_step + 1}: "
                    f"training loss is {loss.item()}"
                )
            loss.backward()
            grads = weights.grads()
            if not np.isfinite(grads).all():
                nonfinite = [n for n, g in weights.views(grads).items() if not np.isfinite(g).all()]
                raise DivergenceError(
                    f"stage {stage!r} diverged at step {global_step + 1}: "
                    f"non-finite gradient of {', '.join(nonfinite)}"
                )
            global_step += 1
            adam_step(weights.vector, grads, adam, lr_at_step(schedule, global_step), global_step)
        metrics = task.dev_eval(weights)
        history.append({"epoch": epoch, "step": global_step, **metrics})
        bad = _progress(stage, history)[1]
        state = replace(
            state, global_step=global_step, rng_state=rng.bit_generator.state,
            train_state={"history": history},
            best=state.best if bad else weights.vector.copy(),
        )
        save_checkpoint(state, Path(out_dir) / f"{stage}-last.ckpt")
        logger.info(
            "[%s] epoch %d step %d dev %s%s",
            stage, epoch, global_step, metrics, "" if bad else " *",
        )
    kept = _progress(stage, history)[0]
    if kept == 1:
        logger.warning(
            "[%s] no epoch of %d improved on the initial dev eval; the best is the start weights",
            stage, len(history) - 1,
        )
    best = Checkpoint(_best_weights(state), state.vocab, history[kept - 1]["step"],
                      train_state={"history": history[:kept]})
    return best, history


# -- stage wiring ---------------------------------------------------------


def _check_settings(config: RunConfig, checkpoint: Checkpoint, what: str, resume: bool) -> None:
    """Raises ConfigError naming each setting of ``config`` that differs from
    ``checkpoint``'s, for ``what``, a run from it: every model setting but
    ``dropout_p``, and for a resume also ``dropout_p`` and the Adam settings."""
    ours = config.model_config(len(checkpoint.vocab)).to_dict()
    theirs = checkpoint.config.to_dict()
    if resume:
        for name in (f.name for f in fields(AdamState) if hasattr(config, f.name)):
            ours[name], theirs[name] = getattr(config, name), getattr(checkpoint.adam, name)
    else:
        del ours["dropout_p"], theirs["dropout_p"]
    differ = [f"{k} {ours[k]!r} (checkpoint {theirs[k]!r})" for k in ours if ours[k] != theirs[k]]
    if differ:
        raise ConfigError(
            f"{what} with settings its checkpoint was not trained with: {', '.join(differ)}"
        )


def _init_stage_state(
    config: RunConfig,
    stage: str,
    init_checkpoint: Checkpoint | None,
    fallback_vocab: Callable[[], Vocab],
) -> Checkpoint:
    """The stage's start state. A same-stage ``init_checkpoint`` is resumed
    as it is (it must be a ``*-last`` checkpoint); otherwise
    ``init_encoder_weights`` transfers the weights it hands on
    (``_best_weights``), which must be of one of the stage's
    ``STAGE_SOURCES``, or, only for a stage without sources, draws them
    fresh, with a new Adam state, the stage's training generator, step 0 and
    an empty ``train_state``. A start from a checkpoint
    must run with its model, and a resume also with its dropout and Adam
    settings (``_check_settings``); a transfer's settings are checked before
    its stage."""
    if init_checkpoint is not None and init_checkpoint.stage == stage:
        if not init_checkpoint.can_resume():
            raise CheckpointError(
                f"checkpoint for stage {stage!r} lacks optimizer, rng state or best weights; "
                "resume requires a *-last checkpoint"
            )
        _check_settings(config, init_checkpoint, f"resuming stage {stage!r}", resume=True)
        return init_checkpoint
    if init_checkpoint is None:
        if STAGE_SOURCES[stage]:
            raise SequencingError(
                f"stage {stage!r} requires an initial checkpoint from one of "
                f"{list(STAGE_SOURCES[stage])}"
            )
        vocab, source = fallback_vocab(), None
    else:
        what = f"starting stage {stage!r} from a {init_checkpoint.stage!r} checkpoint"
        _check_settings(config, init_checkpoint, what, resume=False)
        if init_checkpoint.stage not in STAGE_SOURCES[stage]:
            raise SequencingError(
                f"cannot transfer from stage {init_checkpoint.stage!r} to {stage!r}; "
                f"it starts from one of {list(STAGE_SOURCES[stage])}"
            )
        vocab, source = init_checkpoint.vocab, _best_weights(init_checkpoint)
    weights = init_encoder_weights(
        config.model_config(len(vocab)), stage, derive_rng(config.seed, stage, "init"), source
    )
    return Checkpoint(
        weights=weights,
        vocab=vocab,
        adam=config.adam_state(),
        rng_state=derive_rng(config.seed, stage, "train").bit_generator.state,
    )


# Each task builder takes (config, vocab, model_cfg, train, dev) and returns
# the stage's ``_Task``. The batch losses and dev evaluators are looked up
# when a builder runs, not when this module is imported, so a wrapper set on
# the module binding (as the benchmark's tracer does) sees every call.


def _perplexity_dev_eval(config: RunConfig, instances):
    def dev_eval(w):
        return {"perplexity": mlm_dev_perplexity(w, instances, config.batch_size)}

    return dev_eval


def _encoded(vocab, *parts):
    """Each part's dialogues, encoded once for the stage."""
    return ([encode_dialogue(vocab, d) for d in part] for part in parts)


def _tmlm_task(config, vocab, model_cfg, train, dev):
    # The token-level sequence also holds a speaker token per utterance, so a
    # truncated dialogue can outrun TE's positions: cut it, and its maskable
    # slots, there, as BERT cuts at its position limit. A dialogue with no
    # maskable word left is skipped, as umlm skips such an utterance.
    cut = model_cfg.token_position_capacity
    train, dev = (
        [replace(d, token_ids=d.token_ids[:cut], maskable=tuple(p for p in d.maskable if p < cut))
         for d in part]
        for part in _encoded(vocab, train, dev)
    )
    train, dev = ([d for d in part if d.maskable] for part in (train, dev))
    for name, part in (("training", train), ("dev", dev)):
        if not part:
            raise CorpusError(
                f"no {name} dialogue has a maskable word within TE's {cut} token "
                "positions for token MLM"
            )

    def instances(dialogues, rng_):
        return [build_tmlm_instance(vocab, d, rng_, config.mlm_ratio) for d in dialogues]

    dev_instances = instances(dev, derive_rng(config.seed, STAGE_TMLM, "dev"))
    build_epoch = functools.partial(instances, train)
    if config.mlm_mode == "static":
        cached = instances(train, derive_rng(config.seed, STAGE_TMLM, "static-masks"))
        build_epoch = lambda rng_: cached
    return _Task(build_epoch, mlm_batch_loss, _perplexity_dev_eval(config, dev_instances))


def _umlm_task(config, vocab, model_cfg, train, dev):
    train, dev = _encoded(vocab, train, dev)

    def instances(dialogues, rng_):
        return [
            inst
            for d in dialogues
            for inst in build_umlm_instances(
                vocab, d, rng_, config.umlm_samples_per_utterance
            )
        ]

    for name, part in (("training", train), ("dev", dev)):
        if not any(slots for d in part for slots in d.word_slots):
            raise CorpusError(f"no {name} utterance has a maskable word for utterance MLM")
    dev_instances = instances(dev, derive_rng(config.seed, STAGE_UMLM, "dev"))
    return _Task(functools.partial(instances, train), mlm_batch_loss,
                 _perplexity_dev_eval(config, dev_instances))


def _uop_task(config, vocab, model_cfg, train, dev):
    train, dev = _encoded(vocab, train, dev)
    for name, part in (("training", train), ("dev", dev)):
        # an instance permutes the second half, so that half needs 2 utterances
        if not any(len(d.utterances) >= 4 for d in part):
            raise CorpusError(f"no {name} dialogues are long enough for order prediction")
    dev_instances = build_uop_dev_instances(dev, derive_rng(config.seed, STAGE_UOP, "dev"))

    def build_epoch(rng_):
        built = (build_uop_instance(d, rng_, config.uop_shuffle_prob) for d in train)
        return [inst for inst in built if inst is not None]

    def dev_eval(w):
        loss, acc = uop_dev_metrics(w, dev_instances, config.batch_size)
        return {"loss": loss, "accuracy": acc}

    return _Task(build_epoch, uop_batch_loss, dev_eval)


def _qa_task(config, vocab, model_cfg, train, dev):
    encoded = [enc for enc, _, _ in _encode_entries(vocab, model_cfg, train)]
    dev_encoded = _encode_entries(vocab, model_cfg, dev)

    def dev_eval(w):
        report = evaluate_entries(w, dev_encoded)
        return {"em": report.em, "sm": report.sm, "um": report.um}

    return _Task(lambda rng_: encoded, qa_batch_loss, dev_eval)


def _qa_data(config: RunConfig, split: CorpusSplit):
    return qa_entries(config, split.training), qa_entries(config, split.development)


@dataclass(frozen=True)
class _Stage:
    budget: str  # the RunConfig field holding the step budget
    data: Callable[[RunConfig, CorpusSplit], tuple[list, list]]  # (train, dev)
    task: Callable[..., _Task]
    # tracked dev metric -> better(new, best); an epoch that betters any improves
    tracked: dict[str, Callable[[float, float], bool]]


_PERPLEXITY = {"perplexity": operator.lt}  # lower is better
_STAGES = {
    STAGE_TMLM: _Stage("tmlm_steps", pretrain_dialogues, _tmlm_task, _PERPLEXITY),
    STAGE_UMLM: _Stage("umlm_steps", pretrain_dialogues, _umlm_task, _PERPLEXITY),
    STAGE_UOP: _Stage(
        "uop_steps", pretrain_dialogues, _uop_task,
        {"loss": operator.lt, "accuracy": operator.gt},
    ),
    STAGE_FINETUNED: _Stage("finetune_steps", _qa_data, _qa_task, {"sm": operator.gt}),
}


def _run(
    stage: str,
    config: RunConfig,
    init_checkpoint: Checkpoint | None,
    out_dir: str | Path,
) -> tuple[Checkpoint, list[dict]]:
    """Builds the stage's start state and task, and only then writes into
    ``out_dir``: its vocabulary, then ``fit``'s ``-last``."""
    spec = _STAGES[stage]
    train, dev = spec.data(config, load_split(config))
    if not train or not dev:
        raise CorpusError(f"stage {stage!r} needs non-empty training and dev data")
    state = _init_stage_state(
        config, stage, init_checkpoint, lambda: build_vocab(train, config.min_freq)
    )
    task = spec.task(config, state.vocab, state.config, train, dev)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    state.vocab.save(Path(out_dir) / "vocab.txt")
    return fit(config, state, task, getattr(config, spec.budget), out_dir)


def run_stage(
    stage: str,
    config: RunConfig,
    init_checkpoint: Checkpoint | None,
    out_dir: str | Path,
) -> Checkpoint:
    """Train one pre-training stage, writing its ``-last`` checkpoint into
    ``out_dir``, and return the best-dev checkpoint."""
    if stage not in PRETRAIN_STAGES:
        raise SequencingError(
            f"run_stage handles {list(PRETRAIN_STAGES)}, got {stage!r}"
        )
    return _run(stage, config, init_checkpoint, out_dir)[0]


# -- fine-tuning ----------------------------------------------------------


def _encode_entries(
    vocab: Vocab,
    model_cfg: ModelConfig,
    entries: Sequence[tuple[Dialogue, Sequence[QAExample]]],
) -> list[tuple[QAEncoding, QAExample, Dialogue]]:
    return [(encode_for_qa(vocab, model_cfg, q, d), q, d) for d, qs in entries for q in qs]


def predict_entries(
    weights: EncoderWeights,
    encoded: Sequence[tuple[QAEncoding, QAExample, Dialogue]],
) -> list[tuple[PredictionRecord, QAExample]]:
    """One (prediction record, gold question) pair per (encoding, question,
    dialogue) triple."""
    weights = weights.frozen()
    pairs: list[tuple[PredictionRecord, QAExample]] = []
    for encoding, q, d in encoded:
        uid, left, right = predict(weights, encoding=encoding)  # by keyword for the benchmark's tracer
        ui, start, end = select_answer(
            uid, left, right, [len(u) - 2 for u in encoding.utterance_ids]
        )
        text = None if ui is None else " ".join(d.utterances[ui].tokens[start : end + 1])
        pairs.append((PredictionRecord(q.qid, ui, start, end, text), q))
    return pairs


def evaluate_entries(
    weights: EncoderWeights,
    encoded: Sequence[tuple[QAEncoding, QAExample, Dialogue]],
) -> MetricReport:
    return evaluate(predict_entries(weights, encoded))


def run_finetune(
    config: RunConfig,
    init_checkpoint: Checkpoint,
    out_dir: str | Path,
) -> tuple[Checkpoint, list[dict]]:
    """Joint UID+span fine-tuning; keeps the best dev-SM checkpoint. The
    tmlm-only source path covers the no-utterance-pretraining baseline."""
    return _run(STAGE_FINETUNED, config, init_checkpoint, out_dir)


SPLIT_NAMES = ("train", "dev", "test")


def run_eval(
    config: RunConfig,
    checkpoint: Checkpoint,
    split_name: str,
    out_dir: str | Path,
) -> MetricReport:
    """Batch inference + answer selection + metrics on one corpus split with
    the weights ``checkpoint`` hands on (a ``-last``'s best); writes the
    predictions JSONL and the report into ``out_dir``."""
    if checkpoint.stage != STAGE_FINETUNED:
        raise SequencingError(
            f"evaluation requires a finetuned checkpoint, got {checkpoint.stage!r}"
        )
    if split_name not in SPLIT_NAMES:
        raise ConfigError(f"split must be one of {SPLIT_NAMES}, got {split_name!r}")
    _check_settings(config, checkpoint, f"evaluating on {split_name!r}", resume=False)
    split = load_split(config)
    part = {
        "train": split.training,
        "dev": split.development,
        "test": split.evaluation,
    }[split_name]
    entries = qa_entries(config, part)
    if not entries:
        raise CorpusError(f"split {split_name!r} has no questions")
    pairs = predict_entries(
        _best_weights(checkpoint), _encode_entries(checkpoint.vocab, checkpoint.config, entries)
    )
    report = evaluate(pairs)
    texts = {  # all built before any is written, so a failure leaves the old files
        f"predictions-{split_name}.jsonl": "".join(r.to_json() + "\n" for r, _ in pairs),
        f"report-{split_name}.json": report.to_json(),
        f"report-{split_name}.txt": report.format_table() + "\n",
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        write_file(out / name, [text.encode("utf-8")])
    return report
