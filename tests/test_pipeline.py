"""Stage gating, training progress, bit-exact resume, eval determinism, the
config file format, and the CLI surface."""

import functools
import hashlib
import json
import logging
import math
import re
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from dialoqa import cli, pretrain, training
from dialoqa import tensor as T
from dialoqa.checkpoint import MAGIC, Checkpoint, load_checkpoint, save_checkpoint
from dialoqa.corpus import AnswerSpan, Dialogue, Utterance, load_corpus, make_example, save_corpus
from dialoqa.encoder import STAGE_SOURCES, ModelConfig, init_encoder_weights, stage_shapes
from dialoqa.errors import (
    CheckpointError,
    ConfigError,
    CorpusError,
    DivergenceError,
    SequencingError,
)
from dialoqa.synth import generate_corpus
from dialoqa.tensor import Tensor
from dialoqa.vocab import build_vocab, speaker_token
from dialoqa.training import (
    RunConfig,
    derive_rng,
    load_run_config,
    run_eval,
    run_finetune,
    run_stage,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "corpus.json"
    save_corpus(generate_corpus(num_episodes=10, scenes_per_episode=2, seed=3), path)
    return path


def _config(corpus_path, **kw):
    base = dict(
        corpus=str(corpus_path),
        train_max_episode=7,
        dev_max_episode=8,
        hidden_size=16,
        intermediate_size=32,
        num_layers=1,
        num_heads=2,
        batch_size=8,
        base_lr=3e-4,
        tmlm_steps=24,
        umlm_steps=24,
        uop_steps=24,
        finetune_steps=24,
        patience=10,
        seed=1,
    )
    base.update(kw)
    return RunConfig(**base)


def _fresh_stage(cfg, stage):
    """Freshly drawn weights of ``stage`` and its ``_Task``, as ``fit`` gets
    them."""
    split = training.load_split(cfg)
    vocab = build_vocab(training.pretrain_dialogues(cfg, split)[0])
    spec = training._STAGES[stage]
    train, dev = spec.data(cfg, split)
    weights = init_encoder_weights(cfg.model_config(len(vocab)), stage, np.random.default_rng(0))
    task = spec.task(cfg, vocab, weights.config, train, dev)
    return weights, task


@pytest.fixture(scope="module")
def tmlm_ckpt(corpus_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("tmlm")
    return run_stage("tmlm", _config(corpus_path), None, out_dir=out)


@pytest.fixture(scope="module")
def unseen_dev_corpus(corpus_path, tmp_path_factory):
    """The corpus with every word of the dev episode replaced by one that no
    training dialogue has, so no dev utterance has a maskable word."""
    corpus = []
    for d, qs in load_corpus(corpus_path):
        if d.episode_id == 8:
            utts = tuple(
                replace(u, tokens=tuple(f"unseen{i}" for i in range(len(u.tokens))))
                for u in d.utterances
            )
            d, qs = replace(d, utterances=utts), []
        corpus.append((d, qs))
    path = tmp_path_factory.mktemp("unseen") / "corpus.json"
    save_corpus(corpus, path)
    return path


class TestGating:
    def test_umlm_requires_tmlm(self, corpus_path, tmp_path):
        with pytest.raises(SequencingError):
            run_stage("umlm", _config(corpus_path), None, tmp_path)

    def test_uop_rejects_tmlm_source(self, corpus_path, tmlm_ckpt, tmp_path):
        with pytest.raises(SequencingError):
            run_stage("uop", _config(corpus_path), tmlm_ckpt, tmp_path)

    def test_unknown_stage(self, corpus_path, tmp_path):
        with pytest.raises(SequencingError):
            run_stage("finetuned", _config(corpus_path), None, tmp_path)

    def test_finetune_rejects_umlm_source(self, corpus_path, tmlm_ckpt, tmp_path):
        umlm = run_stage("umlm", _config(corpus_path), tmlm_ckpt, tmp_path)
        with pytest.raises(SequencingError):
            run_finetune(_config(corpus_path), umlm, tmp_path)

    def test_eval_requires_finetuned(self, corpus_path, tmlm_ckpt, tmp_path):
        with pytest.raises(SequencingError):
            run_eval(_config(corpus_path), tmlm_ckpt, "dev", tmp_path)

    def test_resume_requires_training_state(self, corpus_path, tmlm_ckpt, tmp_path):
        assert tmlm_ckpt.stage == "tmlm"
        assert not tmlm_ckpt.can_resume()  # best checkpoints are weights-only
        with pytest.raises(CheckpointError):
            run_stage("tmlm", _config(corpus_path), tmlm_ckpt, tmp_path)


class TestUmlmWithoutDevInstances:
    def test_run_stage_raises(self, unseen_dev_corpus, tmlm_ckpt, tmp_path):
        with pytest.raises(CorpusError, match="maskable"):
            run_stage("umlm", _config(unseen_dev_corpus), tmlm_ckpt, tmp_path)


class TestTmlmSkipsDialoguesWithoutMaskableWords:
    """Token MLM skips a dialogue with no maskable word, as utterance MLM
    skips such an utterance, and fails only when a part has none left."""

    def test_a_dev_dialogue_of_unseen_words_is_skipped(self, corpus_path, tmp_path):
        corpus = load_corpus(corpus_path)
        dev = [i for i, (d, _) in enumerate(corpus) if d.episode_id == 8]
        d, _ = corpus[dev[0]]
        utts = tuple(
            replace(u, tokens=tuple(f"unseen{i}" for i in range(len(u.tokens))))
            for u in d.utterances
        )
        corpus[dev[0]] = (replace(d, utterances=utts), [])
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        out = tmp_path / "run"
        best = run_stage("tmlm", _config(path, tmlm_steps=4), None, out)
        assert len(dev) == 2 and best.stage == "tmlm"
        assert load_checkpoint(out / "tmlm-last.ckpt").global_step == 4

    def test_no_dev_dialogue_left_raises_naming_the_stage(self, unseen_dev_corpus, tmp_path):
        out = tmp_path / "run"
        with pytest.raises(CorpusError, match="no dev dialogue .* for token MLM"):
            run_stage("tmlm", _config(unseen_dev_corpus), None, out)
        assert not out.exists()


class TestStageTable:
    @pytest.mark.parametrize("stage, count", [
        ("tmlm", 18), ("umlm", 18), ("uop", 50), ("finetuned", 60),
    ])
    def test_one_backward_reaches_exactly_the_stage_tensors(self, corpus_path, stage, count):
        cfg = _config(corpus_path)
        weights, task = _fresh_stage(cfg, stage)
        rng = np.random.default_rng(1)
        batch = task.build_epoch(rng)[: cfg.batch_size]
        task.batch_loss(weights, batch, rng=rng).backward()
        reached = {name for name, p in weights.named() if p.grad is not None}
        assert reached == set(stage_shapes(weights.config, stage))
        assert len(reached) == count

    @pytest.mark.parametrize("stage, positions", [
        ("tmlm", True), ("umlm", True), ("uop", True), ("finetuned", True),
        ("uop", False), ("finetuned", False),
    ], ids=["tmlm", "umlm", "uop", "finetuned", "uop-no-positions", "finetuned-no-positions"])
    def test_every_stage_tensor_gets_more_than_roundoff(self, corpus_path, stage, positions):
        """No stage owns a parameter that cannot change its loss. With every
        1-d tensor drawn at random, so that no zero init hides a gradient,
        one backward moves each tensor's gradient above roundoff. The one
        exception is ``tl.1.ln2_b`` in fine-tuning: there TL's output feeds
        only the UID softmax, so a shift common to every row cancels; it is
        transferred from uop, where it acts. Without utterance positions TL
        has no position table."""
        cfg = _config(corpus_path, use_utterance_positions=positions)
        weights, task = _fresh_stage(cfg, stage)
        rng = np.random.default_rng(2)
        for _, p in weights.named():
            if p.ndim == 1:  # LayerNorm gains start at 1, every other 1-d tensor at 0
                p.array += rng.normal(0.0, 0.1, p.shape)
        batch = task.build_epoch(rng)[: cfg.batch_size]
        task.batch_loss(weights, batch, rng=rng).backward()
        size = {name: np.abs(g).max() for name, g in weights.views(weights.grads()).items()}
        if stage == "finetuned":
            assert size.pop("tl.1.ln2_b") < 1e-15
        assert {name: s for name, s in size.items() if not s > 1e-12} == {}

    @pytest.mark.parametrize("stage", ["tmlm", "umlm", "uop", "finetuned"])
    def test_dev_eval_draws_no_dropout(self, corpus_path, stage):
        """``fit`` gives ``dev_eval`` no generator, so the same parameters
        score the same under dropout 0.5 as under 0.0, although 0.5 moves
        the training loss."""
        weights, task = _fresh_stage(_config(corpus_path, dropout_p=0.0), stage)
        dropped = replace(weights, config=replace(weights.config, dropout_p=0.5))
        batch = task.build_epoch(np.random.default_rng(3))[:8]
        draws = [task.batch_loss(w, batch, rng=np.random.default_rng(4)).item()
                 for w in (weights, dropped)]
        assert draws[0] != draws[1]
        assert task.dev_eval(dropped) == task.dev_eval(weights)

    @pytest.mark.parametrize("stage", ["tmlm", "finetuned"])
    def test_one_step_holds_one_graph(self, corpus_path, stage):
        """A step's memory is the live set of its forward graph: backward
        frees each node as it sweeps it, so the step peaks barely above the
        forward and leaves only the leaf gradients behind."""
        cfg = _config(corpus_path, hidden_size=32, intermediate_size=64, num_layers=2)
        weights, task = _fresh_stage(cfg, stage)
        rng = np.random.default_rng(1)
        # 32 instances: tmlm builds one per training dialogue per epoch
        batch = [inst for _ in range(3) for inst in task.build_epoch(rng)][:32]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss = task.batch_loss(weights, batch, rng=rng)
            forward = tracemalloc.get_traced_memory()[0] - base
            loss.backward()
            after, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        leaf_grads = sum(p.grad.nbytes for _, p in weights.named())
        assert peak <= 1.15 * forward
        assert after <= leaf_grads + 64 * 1024

    def test_extra_corpus_feeds_pretraining_only(self, corpus_path, tmp_path):
        extra = Dialogue(1, "extra", (
            Utterance("Zelda", ("xyzzy", "plugh", "frob")),
            Utterance("Quux", ("xyzzy", "zork")),
        ))
        save_corpus([(extra, [])], tmp_path / "extra.json")
        cfg = _config(corpus_path, extra_corpus=str(tmp_path / "extra.json"), tmlm_steps=2)
        split = training.load_split(cfg)
        train, _ = training.pretrain_dialogues(cfg, split)
        assert [d.scene_id for d in train].count("extra") == 1
        vocab = run_stage("tmlm", cfg, None, out_dir=tmp_path / "out").vocab
        new = {speaker_token("Zelda"), speaker_token("Quux"), "xyzzy", "plugh", "zork"}
        assert new <= set(vocab.id_to_token)
        assert new.isdisjoint(build_vocab(d for d, _ in split.training).id_to_token)
        assert all(d.scene_id != "extra" for d, _ in training.qa_entries(cfg, split.training))


class TestTrainingProgress:
    def test_tmlm_dev_perplexity_improves(self, corpus_path, tmp_path):
        cfg = _config(corpus_path, tmlm_steps=60, base_lr=1e-3)
        out = tmp_path / "run"
        run_stage("tmlm", cfg, None, out_dir=out)
        last = load_checkpoint(out / "tmlm-last.ckpt")
        history = last.train_state["history"]
        assert history[0]["epoch"] == -1
        assert history[-1]["perplexity"] < history[0]["perplexity"]

    def test_baseline_finetune_path_runs(self, corpus_path, tmlm_ckpt, tmp_path):
        # tmlm -> finetune skips TL pretraining; TL weights initialize fresh
        best, history = run_finetune(_config(corpus_path), tmlm_ckpt, tmp_path / "ft")
        assert best.stage == "finetuned"
        assert "tl.0.attn_wq" in best.weights.params
        assert len(history) >= 2


class TestDivergence:
    def test_nan_training_loss_raises_divergence_error(self, corpus_path, tmp_path, monkeypatch):
        monkeypatch.setattr(
            training, "mlm_batch_loss", lambda *a, **k: Tensor(np.array(np.nan))
        )
        with pytest.raises(DivergenceError, match=r"'tmlm'.*step 1"):
            run_stage("tmlm", _config(corpus_path), None, tmp_path)

    def test_non_finite_gradient_raises_before_the_update(
        self, corpus_path, tmp_path, monkeypatch
    ):
        """A finite loss whose backward puts NaN into vocab_bias's gradient
        stops the stage before Adam touches a weight."""
        real_loss = training.mlm_batch_loss

        def loss_with_nan_gradient(weights, *args, **kwargs):
            bias = weights["vocab_bias"]
            poison = T._make(
                np.zeros(()), (bias,),
                lambda dout: bias._accumulate(np.full(bias.shape, np.nan)),
            )
            return real_loss(weights, *args, **kwargs) + poison

        def no_update(*args, **kwargs):
            raise AssertionError("adam_step ran on a non-finite gradient")

        monkeypatch.setattr(training, "mlm_batch_loss", loss_with_nan_gradient)
        monkeypatch.setattr(training, "adam_step", no_update)
        with pytest.raises(DivergenceError, match=r"'tmlm'.*step 1.*vocab_bias"):
            run_stage("tmlm", _config(corpus_path), None, tmp_path)


def _assert_parameters_view_the_vector(weights):
    assert weights.vector.size == sum(p.size for _, p in weights.named())
    for name, p in weights.named():
        assert np.shares_memory(p.array, weights.vector), name


class TestFlatStore:
    def test_every_parameter_views_the_vector(self, corpus_path, tmp_path):
        """After init, load, transfer and training steps, each parameter's
        array is still a view of its weights' one vector, which Adam and
        checkpoint saves read and write."""
        cfg = _config(corpus_path)
        split = training.load_split(cfg)
        train, dev = training.pretrain_dialogues(cfg, split)
        state = training._init_stage_state(cfg, "tmlm", None, lambda: build_vocab(train))
        _assert_parameters_view_the_vector(state.weights)
        task = training._STAGES["tmlm"].task(cfg, state.vocab, state.config, train, dev)
        before = state.weights.vector.copy()
        best, _ = training.fit(cfg, state, task, 2, tmp_path)  # step 1's lr is 0
        assert not np.array_equal(state.weights.vector, before)
        for weights in (state.weights, best.weights):
            _assert_parameters_view_the_vector(weights)
        loaded = load_checkpoint(tmp_path / "tmlm-last.ckpt")
        assert loaded.global_step == 2
        _assert_parameters_view_the_vector(loaded.weights)
        assert loaded.weights.vector.tobytes() == state.weights.vector.tobytes()
        for stage in ("umlm", "finetuned"):
            moved = init_encoder_weights(
                loaded.config, stage, np.random.default_rng(0), loaded.weights
            )
            _assert_parameters_view_the_vector(moved)
        _assert_parameters_view_the_vector(loaded.weights.frozen())

    @pytest.mark.parametrize("stage", ["tmlm", "umlm", "uop"])
    def test_an_epoch_encodes_no_dialogue(self, corpus_path, stage, monkeypatch):
        """A stage encodes its dialogues once, when its task is built; each
        epoch then only draws masks and permutations."""
        _, task = _fresh_stage(_config(corpus_path), stage)
        calls = []
        real = pretrain.encode_utterance
        monkeypatch.setattr(pretrain, "encode_utterance", lambda *a: calls.append(a) or real(*a))
        epochs = [task.build_epoch(np.random.default_rng(5)) for _ in range(2)]
        assert epochs[0] and epochs[0] == epochs[1]
        assert calls == []

    def test_a_qa_dev_eval_encodes_no_question(self, corpus_path, monkeypatch):
        """The QA task encodes its training and dev questions once, when it is
        built; each dev eval only predicts and scores."""
        weights, task = _fresh_stage(_config(corpus_path), "finetuned")
        calls = []
        real = training.encode_for_qa
        monkeypatch.setattr(training, "encode_for_qa", lambda *a: calls.append(a) or real(*a))
        assert task.dev_eval(weights) == task.dev_eval(weights)
        assert task.build_epoch(np.random.default_rng(5))
        assert calls == []


class _Crash(Exception):
    pass


def _crash_after_first_last_checkpoint(monkeypatch):
    """Make the next run die right after it writes its first ``*-last.ckpt``,
    as a killed process would."""
    real = training.save_checkpoint

    def save_then_crash(ckpt, path):
        real(ckpt, path)
        if str(path).endswith("-last.ckpt"):
            monkeypatch.setattr(training, "save_checkpoint", real)
            raise _Crash(path)

    monkeypatch.setattr(training, "save_checkpoint", save_then_crash)


def _fail_the_best_save_after_a_second_last(monkeypatch):
    """Make the next tmlm run die when it saves an improving epoch's best
    right after that epoch's ``-last``, once an earlier ``-last`` is on disk,
    as a process killed between the two saves would."""
    real, names = training.save_checkpoint, []

    def save_or_crash(ckpt, path):
        # an improving epoch's -last saved just now, and another one before
        if path.name == "tmlm-best.ckpt" and names[-1:] == ["tmlm-last.ckpt"] \
                and names.count("tmlm-last.ckpt") > 1:
            monkeypatch.setattr(training, "save_checkpoint", real)
            raise _Crash(path)
        names.append(path.name)
        real(ckpt, path)

    monkeypatch.setattr(training, "save_checkpoint", save_or_crash)


class TestResumeReplay:
    @pytest.mark.parametrize("stage", ["tmlm", "umlm", "uop"])
    def test_pretrain_stage_resume_bit_exact(
        self, corpus_path, tmlm_ckpt, tmp_path, stage, monkeypatch
    ):
        cfg = _config(corpus_path)
        init = None if stage == "tmlm" else tmlm_ckpt
        if stage == "uop":
            init = run_stage("umlm", cfg, init, tmp_path / "umlm")
        # uninterrupted run
        dir_a = tmp_path / "a"
        run_stage(stage, cfg, init, out_dir=dir_a)
        # killed after the first epoch's checkpoints, then resumed
        dir_b = tmp_path / "b"
        _crash_after_first_last_checkpoint(monkeypatch)
        with pytest.raises(_Crash):
            run_stage(stage, cfg, init, out_dir=dir_b)
        mid = load_checkpoint(dir_b / f"{stage}-last.ckpt")
        assert mid.can_resume()
        run_stage(stage, cfg, mid, out_dir=dir_b)
        a = (dir_a / f"{stage}-last.ckpt").read_bytes()
        b = (dir_b / f"{stage}-last.ckpt").read_bytes()
        assert a == b
        assert (dir_a / f"{stage}-best.ckpt").read_bytes() == (
            dir_b / f"{stage}-best.ckpt"
        ).read_bytes()

    def test_finetune_resume_bit_exact(self, corpus_path, tmlm_ckpt, tmp_path, monkeypatch):
        cfg = _config(corpus_path, finetune_steps=20)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        run_finetune(cfg, tmlm_ckpt, out_dir=dir_a)
        _crash_after_first_last_checkpoint(monkeypatch)
        with pytest.raises(_Crash):
            run_finetune(cfg, tmlm_ckpt, out_dir=dir_b)
        mid = load_checkpoint(dir_b / "finetuned-last.ckpt")
        run_finetune(cfg, mid, out_dir=dir_b)
        assert (dir_a / "finetuned-last.ckpt").read_bytes() == (
            dir_b / "finetuned-last.ckpt"
        ).read_bytes()

    def test_resume_returns_the_initial_best_when_no_epoch_improves(
        self, corpus_path, tmp_path, monkeypatch
    ):
        """With a constant dev perplexity no epoch betters the initial eval, so
        the best is the start weights; a run killed after its first epoch and
        resumed returns and leaves that same best."""
        monkeypatch.setattr(training, "mlm_dev_perplexity", lambda *args: 7.0)
        cfg = _config(corpus_path)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        best_a = run_stage("tmlm", cfg, None, out_dir=dir_a)
        _crash_after_first_last_checkpoint(monkeypatch)
        with pytest.raises(_Crash):
            run_stage("tmlm", cfg, None, out_dir=dir_b)
        best_b = run_stage("tmlm", cfg, load_checkpoint(dir_b / "tmlm-last.ckpt"), out_dir=dir_b)
        initial = {"history": [{"epoch": -1, "step": 0, "perplexity": 7.0}]}
        assert best_a.train_state == best_b.train_state == initial
        assert best_a.global_step == best_b.global_step == 0
        final = load_checkpoint(dir_a / "tmlm-last.ckpt").weights
        for name, p in best_a.weights.named():
            np.testing.assert_array_equal(p.array, best_b.weights[name].array)
        assert any(not np.array_equal(p.array, final[n].array) for n, p in best_a.weights.named())
        for kind in ("best", "last"):
            name = f"tmlm-{kind}.ckpt"
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_last_train_state_is_the_dev_history_alone(self, corpus_path, tmlm_ckpt, tmp_path):
        out = tmp_path / "run"
        _, history = run_finetune(_config(corpus_path, finetune_steps=6), tmlm_ckpt, out)
        last = load_checkpoint(out / "finetuned-last.ckpt")
        assert last.train_state == {"history": history}
        assert [h["epoch"] for h in history] == list(range(-1, len(history) - 1))

    def test_resume_replays_the_evals_since_the_last_improvement(
        self, corpus_path, tmp_path, monkeypatch
    ):
        """With a constant dev perplexity and a patience of 2 the run stops
        after two epochs; killed after the first, the resume replays one bad
        eval from the history and runs exactly one more."""
        monkeypatch.setattr(training, "mlm_dev_perplexity", lambda *args: 7.0)
        cfg = _config(corpus_path, patience=2)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        _, history_a = training._run("tmlm", cfg, None, dir_a)
        assert [h["epoch"] for h in history_a] == [-1, 0, 1]
        _crash_after_first_last_checkpoint(monkeypatch)
        with pytest.raises(_Crash):
            run_stage("tmlm", cfg, None, out_dir=dir_b)
        mid = load_checkpoint(dir_b / "tmlm-last.ckpt")
        _, history_b = training._run("tmlm", cfg, mid, dir_b)
        assert history_b == history_a
        for kind in ("best", "last"):
            name = f"tmlm-{kind}.ckpt"
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_a_crash_between_the_best_and_the_last_save_resumes_bit_exact(
        self, corpus_path, tmp_path, monkeypatch
    ):
        """``fit`` saves an improving epoch's ``-last`` before its best. A run
        killed between the two leaves a best behind a ``-last`` whose last
        epoch improved; the resume writes the best again from that ``-last``
        and ends byte for byte as an uninterrupted run."""
        cfg = _config(corpus_path)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        run_stage("tmlm", cfg, None, out_dir=dir_a)
        _fail_the_best_save_after_a_second_last(monkeypatch)
        with pytest.raises(_Crash):
            run_stage("tmlm", cfg, None, out_dir=dir_b)
        mid = load_checkpoint(dir_b / "tmlm-last.ckpt")
        history = mid.train_state["history"]
        behind = load_checkpoint(dir_b / "tmlm-best.ckpt").train_state["history"]
        assert training._progress("tmlm", history)[1] == 0
        assert len(behind) < len(history) and behind == history[: len(behind)]
        run_stage("tmlm", cfg, mid, out_dir=dir_b)
        for kind in ("best", "last"):
            name = f"tmlm-{kind}.ckpt"
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    _HISTORY = [
        {"epoch": -1, "step": 0, "perplexity": 9.0},
        {"epoch": 0, "step": 2, "perplexity": 8.0},  # the last improvement
        {"epoch": 1, "step": 4, "perplexity": 8.5},
    ]
    _NEXT = {"epoch": 2, "step": 6, "perplexity": 7.5}

    @pytest.fixture(scope="class")
    def still(self, corpus_path, tmp_path_factory):
        """A 4-step tmlm run at lr 0, where no epoch improves: the
        uninterrupted run's directory, and the ``-last`` of one killed after
        its first epoch, whose last record did not improve."""
        cfg = _config(corpus_path, tmlm_steps=4, base_lr=0.0)
        whole, killed = tmp_path_factory.mktemp("whole"), tmp_path_factory.mktemp("killed")
        run_stage("tmlm", cfg, None, out_dir=whole)
        with pytest.MonkeyPatch.context() as monkeypatch:
            _crash_after_first_last_checkpoint(monkeypatch)
            with pytest.raises(_Crash):
                run_stage("tmlm", cfg, None, out_dir=killed)
        last = load_checkpoint(killed / "tmlm-last.ckpt")
        assert last.global_step == 2 and training._progress("tmlm", last.train_state["history"])[1]
        return cfg, whole, killed / "tmlm-last.ckpt"

    @pytest.mark.parametrize("theirs", [
        _HISTORY[:2], _HISTORY + [_NEXT], _HISTORY[:1], _HISTORY,
        _HISTORY + [_NEXT, {**_NEXT, "epoch": 3}], [_HISTORY[0], {**_HISTORY[1], "perplexity": 7.9}],
        [],
    ], ids=["through-the-improvement", "one-ahead", "behind", "past-the-improvement",
            "two-ahead", "another-run", "no-history"])
    def test_a_resume_reads_back_only_the_best_of_its_history(
        self, tmlm_ckpt, still, tmp_path, theirs
    ):
        """A resume takes its best from its ``-last`` alone: whatever
        ``-best`` is on disk (here another run's weights with a history
        through, ahead of, behind or beside the resumed one), the resume of a
        ``-last`` whose last epoch did not improve ends with the
        uninterrupted run's ``-best`` and ``-last``, byte for byte."""
        cfg, whole, last = still
        (tmp_path / "tmlm-last.ckpt").write_bytes(last.read_bytes())
        save_checkpoint(replace(tmlm_ckpt, train_state={"history": theirs}),
                        tmp_path / "tmlm-best.ckpt")
        run_stage("tmlm", cfg, load_checkpoint(tmp_path / "tmlm-last.ckpt"), out_dir=tmp_path)
        for kind in ("best", "last"):
            name = f"tmlm-{kind}.ckpt"
            assert (tmp_path / name).read_bytes() == (whole / name).read_bytes(), name

    def test_a_resume_returns_no_best_from_past_its_own_end(
        self, corpus_path, tmp_path, monkeypatch
    ):
        """A 40-step run that dies saving its step-6 ``-last``, resumed with a
        5-step budget, ends at step 5; the best it returns and leaves is from
        its own history, not the killed run's step 6."""
        out, real = tmp_path / "run", training.save_checkpoint

        def save_or_crash(ckpt, path):
            if path.name == "tmlm-last.ckpt" and ckpt.global_step == 6:
                raise _Crash(path)
            real(ckpt, path)

        monkeypatch.setattr(training, "save_checkpoint", save_or_crash)
        with pytest.raises(_Crash):
            run_stage("tmlm", _config(corpus_path, tmlm_steps=40), None, out_dir=out)
        monkeypatch.setattr(training, "save_checkpoint", real)
        mid = load_checkpoint(out / "tmlm-last.ckpt")
        best, history = training._run("tmlm", _config(corpus_path, tmlm_steps=5), mid, out)
        assert history[-1]["step"] == 5
        assert best.global_step <= 5
        assert best.train_state["history"] == history[: training._progress("tmlm", history)[0]]
        assert load_checkpoint(out / "tmlm-best.ckpt").train_state == best.train_state

    def test_a_resume_without_a_best_checkpoint_writes_it_again(self, still, tmp_path):
        """At lr 0 no epoch improves, so the resumed ``-last``'s best is from
        an earlier epoch; with no ``-best`` on disk the resume ends with the
        uninterrupted run's ``-best``, byte for byte."""
        cfg, whole, last = still
        (tmp_path / "tmlm-last.ckpt").write_bytes(last.read_bytes())
        best = run_stage("tmlm", cfg, load_checkpoint(tmp_path / "tmlm-last.ckpt"), out_dir=tmp_path)
        assert best.train_state == load_checkpoint(whole / "tmlm-best.ckpt").train_state
        for kind in ("best", "last"):
            name = f"tmlm-{kind}.ckpt"
            assert (tmp_path / name).read_bytes() == (whole / name).read_bytes(), name


class TestResumeSettings:
    @pytest.fixture(scope="class")
    def last(self, corpus_path, tmp_path_factory):
        out = tmp_path_factory.mktemp("resume-settings")
        run_stage("tmlm", _config(corpus_path, tmlm_steps=4), None, out_dir=out)
        return out

    def test_other_model_or_adam_settings_raise_naming_each(self, corpus_path, last):
        ckpt = load_checkpoint(last / "tmlm-last.ckpt")
        cfg = _config(corpus_path, tmlm_steps=6, hidden_size=64, dropout_p=0.3, beta2=0.5)
        with pytest.raises(ConfigError) as err:
            run_stage("tmlm", cfg, ckpt, out_dir=last)
        for name in ("hidden_size 64 (checkpoint 16)", "dropout_p 0.3 (checkpoint 0.1)",
                     "beta2 0.5 (checkpoint 0.999)"):
            assert name in str(err.value)
        assert "intermediate_size" not in str(err.value)

    def test_budget_and_schedule_stay_free(self, corpus_path, last, tmp_path):
        for name in ("tmlm-last.ckpt", "tmlm-best.ckpt"):
            (tmp_path / name).write_bytes((last / name).read_bytes())
        ckpt = load_checkpoint(tmp_path / "tmlm-last.ckpt")
        cfg = _config(corpus_path, tmlm_steps=6, base_lr=1e-3, warmup_fraction=0.2, batch_size=4)
        run_stage("tmlm", cfg, ckpt, out_dir=tmp_path)
        assert load_checkpoint(tmp_path / "tmlm-last.ckpt").global_step == 6


class TestImprove:
    """``_progress`` over short dev histories: (length through the last
    improving record, evals since)."""

    @pytest.mark.parametrize("stage, metrics, tracked", [
        ("tmlm", {"perplexity": math.inf}, {"perplexity": math.inf}),
        ("umlm", {"perplexity": 9.0}, {"perplexity": 9.0}),
        ("uop", {"loss": 0.7, "accuracy": 0.5}, {"loss": 0.7, "accuracy": 0.5}),
        ("finetuned", {"em": 0.0, "sm": 0.0, "um": 0.0}, {"sm": 0.0}),
    ])
    def test_first_eval_always_improves(self, stage, metrics, tracked):
        assert training._progress(stage, [metrics]) == (1, 0)
        assert training._progress(stage, [tracked]) == (1, 0)  # the tracked metrics suffice

    @pytest.mark.parametrize("stage, metrics", [
        ("tmlm", {"perplexity": 9.0}),
        ("umlm", {"perplexity": math.inf}),
        ("uop", {"loss": 0.7, "accuracy": 0.5}),
        ("finetuned", {"em": 10.0, "sm": 20.0, "um": 30.0}),
    ])
    def test_an_equal_metric_is_no_improvement(self, stage, metrics):
        assert training._progress(stage, [metrics, dict(metrics)]) == (1, 1)

    def test_directions(self):
        assert training._progress("tmlm", [{"perplexity": 9.0}, {"perplexity": 8.0}]) == (2, 0)
        assert training._progress("umlm", [{"perplexity": 9.0}, {"perplexity": 10.0}]) == (1, 1)
        sm_best = {"em": 0.0, "sm": 20.0, "um": 0.0}
        assert training._progress("finetuned", [sm_best, {"em": 0.0, "sm": 21.0, "um": 0.0}]) \
            == (2, 0)
        assert training._progress("finetuned", [sm_best, {"em": 99.0, "sm": 19.0, "um": 99.0}]) \
            == (1, 1)
        perplexities = [{"perplexity": p} for p in (9.0, 8.0, 8.5, 8.0)]
        assert training._progress("tmlm", perplexities) == (2, 2)

    def test_uop_improves_on_either_metric_and_merges_the_better_values(self):
        def progress(*records):
            return training._progress("uop", [{"loss": 0.6, "accuracy": 0.5}, *records])

        for record, merged in [
            ({"loss": 0.5, "accuracy": 0.4}, {"loss": 0.5, "accuracy": 0.5}),
            ({"loss": 0.7, "accuracy": 0.6}, {"loss": 0.6, "accuracy": 0.6}),
            ({"loss": 0.4, "accuracy": 0.9}, {"loss": 0.4, "accuracy": 0.9}),
        ]:
            assert progress(record) == (2, 0)
            # the merged best holds each metric's better value, so a record
            # equal to it betters neither
            assert progress(record, merged) == (2, 1)
        assert progress({"loss": 0.7, "accuracy": 0.4}) == (1, 1)


# A valid value other than ``_config``'s for each model field.
_OTHER_MODEL = {
    "num_layers": 2, "num_heads": 4, "hidden_size": 32, "intermediate_size": 16,
    "max_tokens": 6, "max_utterances": 6, "dropout_p": 0.3, "use_utterance_positions": False,
}
_TRANSFERS = [(source, target) for target, sources in STAGE_SOURCES.items() for source in sources]


def _named_settings(message: str) -> list[str]:
    """The settings a ``_check_settings`` error names."""
    return re.findall(r"(\w+) \S+ \(checkpoint ", message)


class TestStartSettings:
    """Every run from a checkpoint reads it with the checkpoint's model: a
    resume, each transfer and an eval refuse a config that differs in any
    model field, naming that field; only a resume refuses another
    ``dropout_p``, a training setting."""

    @pytest.fixture(scope="class")
    def vocab(self, corpus_path):
        cfg = _config(corpus_path)
        return build_vocab(training.pretrain_dialogues(cfg, training.load_split(cfg))[0])

    @staticmethod
    def _weights_only(cfg, vocab, stage):
        model = cfg.model_config(len(vocab))
        return Checkpoint(init_encoder_weights(model, stage, np.random.default_rng(0)), vocab)

    def test_every_model_field_is_covered(self):
        assert set(_OTHER_MODEL) == {f.name for f in fields(ModelConfig)} - {"vocab_size"}
        assert sorted(_TRANSFERS) == sorted([
            ("tmlm", "umlm"), ("umlm", "uop"), ("uop", "finetuned"), ("tmlm", "finetuned"),
        ])

    @pytest.mark.parametrize("field", list(_OTHER_MODEL))
    def test_a_resume(self, corpus_path, vocab, field):
        state = training._init_stage_state(_config(corpus_path), "tmlm", None, lambda: vocab)
        state = replace(state, best=state.weights.vector.copy())  # as a -last holds it
        other = _config(corpus_path, **{field: _OTHER_MODEL[field]})
        with pytest.raises(ConfigError, match="resuming stage 'tmlm'") as err:
            training._init_stage_state(other, "tmlm", state, lambda: vocab)
        assert _named_settings(str(err.value)) == [field]

    @pytest.mark.parametrize("field", list(_OTHER_MODEL))
    @pytest.mark.parametrize("source, target", _TRANSFERS)
    def test_a_transfer(self, corpus_path, vocab, source, target, field):
        ckpt = self._weights_only(_config(corpus_path), vocab, source)
        other = _config(corpus_path, **{field: _OTHER_MODEL[field]})
        start = functools.partial(training._init_stage_state, other, target, ckpt, lambda: vocab)
        if field == "dropout_p":
            assert start().config == other.model_config(len(vocab))
            return
        with pytest.raises(ConfigError, match=f"starting stage '{target}' from a '{source}'") as err:
            start()
        assert _named_settings(str(err.value)) == [field]

    @pytest.mark.parametrize("field", list(_OTHER_MODEL))
    def test_an_eval(self, corpus_path, vocab, tmp_path, field):
        ckpt = self._weights_only(_config(corpus_path), vocab, "finetuned")
        other = _config(corpus_path, **{field: _OTHER_MODEL[field]})
        if field == "dropout_p":  # inference draws no dropout
            run_eval(_config(corpus_path), ckpt, "dev", tmp_path / "same")
            run_eval(other, ckpt, "dev", tmp_path / "other")
            name = "predictions-dev.jsonl"
            assert (tmp_path / "other" / name).read_bytes() == (tmp_path / "same" / name).read_bytes()
            return
        with pytest.raises(ConfigError, match="evaluating on 'dev'") as err:
            run_eval(other, ckpt, "dev", tmp_path / "other")
        assert _named_settings(str(err.value)) == [field]
        assert not (tmp_path / "other").exists()


class TestEval:
    @pytest.fixture(scope="class")
    def finetuned(self, corpus_path, tmlm_ckpt, tmp_path_factory):
        out = tmp_path_factory.mktemp("ft")
        best, _ = run_finetune(_config(corpus_path), tmlm_ckpt, out)
        return best

    def test_two_evals_identical(self, corpus_path, finetuned, tmp_path):
        cfg = _config(corpus_path)
        r1 = run_eval(cfg, finetuned, "dev", tmp_path / "1")
        r2 = run_eval(cfg, finetuned, "dev", tmp_path / "2")
        assert r1.to_dict() == r2.to_dict()
        for name in ("predictions-dev.jsonl", "report-dev.json", "report-dev.txt"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_prediction_qids_cover_split(self, corpus_path, finetuned, tmp_path):
        cfg = _config(corpus_path)
        run_eval(cfg, finetuned, "dev", out_dir=tmp_path)
        lines = (tmp_path / "predictions-dev.jsonl").read_text().splitlines()
        pred_qids = {json.loads(l)["qid"] for l in lines}
        corpus = load_corpus(corpus_path)
        dev_qids = {
            q.qid for d, qs in corpus if 7 < d.episode_id <= 8 for q in qs
        }
        assert pred_qids == dev_qids

    def test_report_files_written(self, corpus_path, finetuned, tmp_path):
        report = run_eval(cfg := _config(corpus_path), finetuned, "dev", out_dir=tmp_path)
        parsed = json.loads((tmp_path / "report-dev.json").read_text())
        assert parsed["total"] == report.total
        assert "all" in (tmp_path / "report-dev.txt").read_text()


class TestEvalScoresTheCorpusGold:
    def test_an_answer_past_the_utterance_limit_stays_gold(self, tmp_path):
        """Each question's only answer lies in utterance 3, past
        ``max_utterances = 3``: it stays the gold, so a model that answers
        nothing misses both test questions rather than scoring them as
        unanswerable."""
        corpus = []
        for ep in range(1, 25):
            utts = tuple(Utterance(f"spk{i}", (f"word{i}", "and", f"thing{ep}")) for i in range(4))
            answer = AnswerSpan(3, 2, 2, f"thing{ep}")
            corpus.append((Dialogue(ep, "s0", utts), [make_example(f"e{ep}", "what thing", (answer,))]))
        save_corpus(corpus, tmp_path / "corpus.json")
        cfg = _config(tmp_path / "corpus.json", max_utterances=3,
                      train_max_episode=20, dev_max_episode=22)
        vocab = build_vocab(d for d, _ in corpus)
        weights = init_encoder_weights(
            cfg.model_config(len(vocab)), "finetuned", np.random.default_rng(0)
        )
        weights["uid_w"].array[:] = 0.0  # every UID score ties, so the argmax is "no answer"
        report = run_eval(cfg, Checkpoint(weights, vocab), "test", tmp_path / "eval")
        lines = (tmp_path / "eval" / "predictions-test.jsonl").read_text().splitlines()
        assert [json.loads(line)["utterance_index"] for line in lines] == [-1, -1]
        assert (report.total, report.em, report.sm, report.um) == (2, 0.0, 0.0, 0.0)


class TestRunConfigParsing:
    def test_defaults_snapshot(self):
        cfg = RunConfig()
        assert cfg.batch_size == 32
        assert cfg.base_lr == 5e-5
        assert (cfg.beta1, cfg.beta2) == (0.9, 0.999)
        assert cfg.weight_decay == 0.01
        assert cfg.warmup_fraction == 0.10
        assert cfg.dropout_p == 0.1

    def test_file_parsing(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            """
            # comment line
            hidden_size = 48
            base_lr = 1e-3   # inline comment
            corpus = "some/path.json"
            use_utterance_positions = false
            """
        )
        cfg = load_run_config(p)
        assert cfg.hidden_size == 48
        assert cfg.base_lr == 1e-3
        assert cfg.corpus == "some/path.json"
        assert cfg.use_utterance_positions is False

    def test_a_hash_inside_quotes_is_no_comment(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "corpus = \"data#1.json\"  # the corpus\nrun_name = 'a # b'\n"
            "extra_corpus = don't.json  # an unquoted value keeps its apostrophe\n"
        )
        assert training.parse_config_file(p) == {
            "corpus": "data#1.json", "run_name": "a # b", "extra_corpus": "don't.json",
        }

    def test_a_repeated_key_names_the_key_and_both_lines(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 7\n# a comment\nhidden_size = 16\n seed = 8\n")
        with pytest.raises(ConfigError, match=r"run.cfg:4: key 'seed' is already set on line 1"):
            load_run_config(p)

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("nonsense = 1\n")
        with pytest.raises(ConfigError, match="nonsense"):
            load_run_config(p)

    def test_override_wins(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 7\n")
        assert load_run_config(p, seed=9).seed == 9
        assert load_run_config(p, seed=None).seed == 7

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(mlm_mode="sometimes")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("base_lr", math.nan), ("base_lr", math.inf), ("base_lr", -1e-5),
            ("weight_decay", math.nan), ("weight_decay", -0.01),
            ("beta1", 1.5), ("beta1", 1.0), ("beta1", -0.1),
            ("beta2", 1.0), ("beta2", math.nan),
            ("epsilon", 0.0), ("epsilon", -1e-8), ("epsilon", math.nan), ("epsilon", math.inf),
            ("umlm_samples_per_utterance", 0),
            ("warmup_fraction", 0.0), ("warmup_fraction", 1.0), ("warmup_fraction", math.nan),
            ("tmlm_steps", 0), ("umlm_steps", 0), ("uop_steps", -1), ("finetune_steps", 0),
            ("num_heads", 3), ("dropout_p", 1.0), ("max_utterances", 1),
            ("synth_episodes", 0), ("synth_scenes_per_episode", -1),
            ("synth_unanswerable_fraction", 1.5), ("synth_unanswerable_fraction", math.nan),
        ],
    )
    def test_bad_optimizer_settings_raise(self, field, value):
        with pytest.raises(ConfigError, match=field):
            RunConfig(**{field: value})

    def test_optimizer_settings_at_their_bounds_are_accepted(self):
        RunConfig(base_lr=0.0, weight_decay=0.0, beta1=0.0, beta2=0.0, epsilon=1e-300)

    def test_model_config_carries_every_model_field(self):
        values = dict(
            num_layers=3, num_heads=4, hidden_size=16, intermediate_size=24,
            max_tokens=5, max_utterances=3, dropout_p=0.25, use_utterance_positions=False,
        )
        assert set(values) == {f.name for f in fields(ModelConfig)} - {"vocab_size"}
        model = RunConfig(**values).model_config(11)
        assert model.to_dict() == {"vocab_size": 11, **values}

    def test_derive_rng_stable_and_namespaced(self):
        a = derive_rng(3, "uop", "dev").random(4)
        b = derive_rng(3, "uop", "dev").random(4)
        c = derive_rng(3, "uop", "train").random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestStaticMlm:
    def test_static_mode_reuses_epoch_masks(self, corpus_path, tmp_path):
        cfg = _config(corpus_path, mlm_mode="static", tmlm_steps=12)
        out = tmp_path / "static"
        ckpt = run_stage("tmlm", cfg, None, out_dir=out)
        assert ckpt.stage == "tmlm"


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "dialoqa.cli", *args],
            capture_output=True, text=True,
        )

    def test_end_to_end_synth_and_pretrain(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "\n".join(
                [
                    f"corpus = {tmp_path / 'corpus.json'}",
                    "train_max_episode = 7",
                    "dev_max_episode = 8",
                    "synth_episodes = 10",
                    "synth_scenes_per_episode = 1",
                    "hidden_size = 16",
                    "intermediate_size = 32",
                    "num_layers = 1",
                    "batch_size = 8",
                    "tmlm_steps = 4",
                    "seed = 5",
                ]
            )
        )
        synth = self._run("synth-corpus", "--config", str(cfg_file), "--out", str(tmp_path))
        assert synth.returncode == 0, synth.stderr
        pre = self._run(
            "pretrain", "--stage", "tmlm", "--config", str(cfg_file),
            "--out", str(tmp_path / "run"),
        )
        assert pre.returncode == 0, pre.stderr
        assert (tmp_path / "run" / "tmlm-best.ckpt").exists()
        assert (tmp_path / "run" / "vocab.txt").exists()

    def test_usage_error_is_json_exit_2(self):
        out = self._run("pretrain", "--stage", "bogus")
        assert out.returncode == 2
        err = json.loads(out.stderr.strip().splitlines()[-1])
        assert err["error"] == "UsageError"

    def test_app_error_is_json_exit_1(self, tmp_path):
        out = self._run("pretrain", "--stage", "tmlm")  # no corpus configured
        assert out.returncode == 1
        err = json.loads(out.stderr.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"

    def test_beta2_of_one_is_a_config_error(self, corpus_path, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            f"corpus = {corpus_path}\ntrain_max_episode = 7\ndev_max_episode = 8\n"
            "hidden_size = 16\nintermediate_size = 32\nnum_layers = 1\n"
            "batch_size = 8\ntmlm_steps = 2\nbeta2 = 1.0\n"
        )
        out = self._run(
            "pretrain", "--stage", "tmlm", "--config", str(path), "--out", str(tmp_path / "run")
        )
        assert out.returncode == 1
        assert json.loads(out.stderr.strip().splitlines()[-1])["error"] == "ConfigError"
        assert "RuntimeWarning" not in out.stderr

    def test_stage_gate_error_through_cli(self, tmp_path):
        cfg_file = tmp_path / "r.cfg"
        cfg_file.write_text(f"corpus = {tmp_path / 'missing.json'}\n")
        out = self._run("finetune", "--config", str(cfg_file))
        assert out.returncode == 2  # missing --init is a usage error

    def _main_error(self, capsys, *args):
        """Runs the CLI in-process; returns (exit code, parsed JSON error)."""
        code = cli.main(list(args))
        return code, json.loads(capsys.readouterr().err.strip().splitlines()[-1])

    def test_missing_init_is_json_error(self, tmp_path, capsys):
        code, err = self._main_error(
            capsys, "evaluate", "--init", str(tmp_path / "absent.ckpt")
        )
        assert (code, err["error"]) == (1, "CheckpointError")

    def test_truncated_init_is_json_error(self, tmp_path, capsys, tmlm_ckpt):
        path = tmp_path / "cut.ckpt"
        save_checkpoint(tmlm_ckpt, path)
        path.write_bytes(path.read_bytes()[:-100])
        code, err = self._main_error(capsys, "evaluate", "--init", str(path))
        assert (code, err["error"]) == (1, "CheckpointError")

    def test_bad_init_header_is_json_error(self, tmp_path, capsys):
        path = tmp_path / "h.ckpt"
        blob = json.dumps({"format_version": 1}).encode()
        path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob)
        code, err = self._main_error(capsys, "evaluate", "--init", str(path))
        assert (code, err["error"]) == (1, "CheckpointError")

    def _pretrained_tmlm_last(self, corpus_path, tmp_path, rewrite):
        """A 2-step tmlm run's config file and ``-last`` checkpoint, whose
        header's ``train_state`` is changed in place by ``rewrite``."""
        path = tmp_path / "run.cfg"
        path.write_text(
            f"corpus = {corpus_path}\ntrain_max_episode = 7\ndev_max_episode = 8\n"
            "hidden_size = 16\nintermediate_size = 32\nnum_layers = 1\n"
            "batch_size = 8\ntmlm_steps = 2\nseed = 1\n"
        )
        out = tmp_path / "run"
        assert cli.main(["pretrain", "--stage", "tmlm", "--config", str(path), "--out", str(out)]) == 0
        last = out / "tmlm-last.ckpt"
        raw = last.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + hlen])
        rewrite(header["train_state"])
        blob = json.dumps(header).encode()
        last.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen :])
        return path, last

    def test_mistyped_train_state_on_resume_is_json_error(self, corpus_path, tmp_path, capsys):
        path, last = self._pretrained_tmlm_last(
            corpus_path, tmp_path, lambda state: state.update(epoch="x")
        )
        capsys.readouterr()
        code, err = self._main_error(
            capsys, "pretrain", "--stage", "tmlm", "--config", str(path), "--init", str(last)
        )
        assert (code, err["error"]) == (1, "CheckpointError")

    @pytest.mark.parametrize(
        "metrics", [{}, {"perplexity": "x"}, {"perplexity": True}, {"perplexity": None}],
        ids=["missing", "string", "bool", "null"],
    )
    def test_history_without_the_tracked_metric_is_json_error(
        self, corpus_path, tmp_path, capsys, metrics
    ):
        """A resume replays the dev history; a record without its perplexity
        as a number is a JSON error, not a traceback. The resume has budget
        left, so the run would train on."""
        path, last = self._pretrained_tmlm_last(
            corpus_path, tmp_path,
            lambda state: state["history"].__setitem__(0, {"epoch": -1, "step": 0, **metrics}),
        )
        path.write_text(path.read_text().replace("tmlm_steps = 2", "tmlm_steps = 4"))
        capsys.readouterr()
        out = self._run(
            "pretrain", "--stage", "tmlm", "--config", str(path), "--init", str(last),
            "--out", str(last.parent),
        )
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        err = json.loads(out.stderr.strip().splitlines()[-1])
        assert err["error"] == "CheckpointError"
        assert re.search(r"record .*'epoch': -1.*each of \['perplexity'\]", err["message"])

    def _still_config(self, corpus_path, tmp_path, seed=1, steps=4):
        """A config file for a tmlm run at lr 0, where no epoch improves."""
        path = tmp_path / f"run-{seed}-{steps}.cfg"
        path.write_text(
            f"corpus = {corpus_path}\ntrain_max_episode = 7\ndev_max_episode = 8\n"
            "hidden_size = 16\nintermediate_size = 32\nnum_layers = 1\nbatch_size = 8\n"
            f"tmlm_steps = {steps}\nbase_lr = 0\nseed = {seed}\n"
        )
        return path

    def test_a_resume_without_a_best_checkpoint_exits_0(self, corpus_path, tmp_path, capsys):
        """At lr 0 the epochs do not improve, so the ``-last``'s best is the
        start weights; with the ``-best`` deleted, the resume writes it again
        byte for byte."""
        out = tmp_path / "run"
        args = ["pretrain", "--stage", "tmlm", "--config", str(self._still_config(corpus_path, tmp_path)),
                "--out", str(out)]
        assert cli.main(args) == 0, capsys.readouterr().err
        best = (out / "tmlm-best.ckpt").read_bytes()
        (out / "tmlm-best.ckpt").unlink()
        assert cli.main([*args, "--init", str(out / "tmlm-last.ckpt")]) == 0, capsys.readouterr().err
        assert (out / "tmlm-best.ckpt").read_bytes() == best

    def test_a_resume_overwrites_the_best_of_another_run(self, corpus_path, tmp_path, capsys):
        """A ``-best`` swapped for one of another seed's run is not read: the
        2-step run resumed with a 4-step budget ends with the ``-best`` and
        ``-last`` of an uninterrupted 4-step run, byte for byte. At lr 0 the
        budget changes no value, and no epoch could better that other best."""
        own, other, whole = tmp_path / "own", tmp_path / "other", tmp_path / "whole"
        for seed, steps, out in ((1, 2, own), (5, 2, other), (1, 4, whole)):
            config = self._still_config(corpus_path, tmp_path, seed, steps)
            args = ["pretrain", "--stage", "tmlm", "--config", str(config), "--out", str(out)]
            assert cli.main(args) == 0, capsys.readouterr().err
        (own / "tmlm-best.ckpt").write_bytes((other / "tmlm-best.ckpt").read_bytes())
        resume = [
            "pretrain", "--stage", "tmlm", "--config", str(self._still_config(corpus_path, tmp_path)),
            "--init", str(own / "tmlm-last.ckpt"), "--out", str(own),
        ]
        assert cli.main(resume) == 0, capsys.readouterr().err
        for name in ("tmlm-best.ckpt", "tmlm-last.ckpt"):
            assert (own / name).read_bytes() == (whole / name).read_bytes(), name

    def test_a_resume_into_a_fresh_out_matches_the_uninterrupted_run(
        self, corpus_path, tmp_path, capsys, monkeypatch
    ):
        """A run killed after its first epoch, whose last record did not
        improve (lr 0), resumed into another ``--out`` that holds no
        ``-best``, exits 0 and leaves the uninterrupted run's files there."""
        config = self._still_config(corpus_path, tmp_path)
        args = ["pretrain", "--stage", "tmlm", "--config", str(config)]
        killed, resumed, whole = tmp_path / "killed", tmp_path / "resumed", tmp_path / "whole"
        _crash_after_first_last_checkpoint(monkeypatch)
        with pytest.raises(_Crash):
            cli.main([*args, "--out", str(killed)])
        assert load_checkpoint(killed / "tmlm-last.ckpt").global_step == 2
        resume = [*args, "--init", str(killed / "tmlm-last.ckpt"), "--out", str(resumed)]
        assert cli.main(resume) == 0, capsys.readouterr().err
        assert cli.main([*args, "--out", str(whole)]) == 0, capsys.readouterr().err
        assert sorted(p.name for p in resumed.iterdir()) == [
            "tmlm-best.ckpt", "tmlm-last.ckpt", "vocab.txt"
        ]
        for name in ("vocab.txt", "tmlm-best.ckpt", "tmlm-last.ckpt"):
            assert (resumed / name).read_bytes() == (whole / name).read_bytes(), name

    def test_a_killed_run_resumes_byte_identical(self, corpus_path, tmp_path, capsys):
        """A CLI run killed by SIGKILL once its first ``-last`` is on disk
        resumes from it and leaves the files of an uninterrupted run, byte
        for byte. The kill must land while the run still trains."""
        path = tmp_path / "run.cfg"
        path.write_text(
            f"corpus = {corpus_path}\ntrain_max_episode = 7\ndev_max_episode = 8\n"
            "hidden_size = 16\nintermediate_size = 32\nnum_layers = 1\n"
            "batch_size = 8\ntmlm_steps = 40\npatience = 100\nseed = 1\n"
        )
        killed, whole = tmp_path / "killed", tmp_path / "whole"
        args = ["pretrain", "--stage", "tmlm", "--config", str(path)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "dialoqa.cli", *args, "--out", str(killed)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while not (killed / "tmlm-last.ckpt").exists():
                assert proc.poll() is None, "the run ended before its first -last checkpoint"
                assert time.monotonic() < deadline, "no -last checkpoint within 120 s"
                time.sleep(0.005)
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.kill()
        assert proc.wait(timeout=60) == -signal.SIGKILL, "the run ended before the kill"
        assert load_checkpoint(killed / "tmlm-last.ckpt").global_step < 40
        resume = [*args, "--out", str(killed), "--init", str(killed / "tmlm-last.ckpt")]
        assert cli.main(resume) == 0, capsys.readouterr().err
        assert cli.main([*args, "--out", str(whole)]) == 0, capsys.readouterr().err
        for name in ("vocab.txt", "tmlm-best.ckpt", "tmlm-last.ckpt"):
            digests = [hashlib.sha256((d / name).read_bytes()).hexdigest() for d in (killed, whole)]
            assert digests[0] == digests[1], name

    def test_diverging_pretrain_exits_cleanly(self, corpus_path, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(
            f"corpus = {corpus_path}\ntrain_max_episode = 7\ndev_max_episode = 8\n"
            "hidden_size = 16\nintermediate_size = 32\nnum_layers = 1\n"
            "batch_size = 8\nbase_lr = 1e6\ntmlm_steps = 4\nseed = 1\n"
        )
        out = tmp_path / "run"
        code = cli.main(["pretrain", "--stage", "tmlm", "--config", str(path), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        history = load_checkpoint(out / "tmlm-last.ckpt").train_state["history"]
        assert history[-1]["perplexity"] == math.inf  # the dev loss overflows exp

    def test_best_checkpoint_written_when_no_epoch_improves(self, corpus_path, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(
            f"corpus = {corpus_path}\ntrain_max_episode = 7\ndev_max_episode = 8\n"
            "hidden_size = 16\nintermediate_size = 32\nnum_layers = 1\n"
            "batch_size = 8\nbase_lr = 0\ntmlm_steps = 2\numlm_steps = 2\nseed = 1\n"
        )
        out = tmp_path / "run"
        args = ["--config", str(path), "--out", str(out)]
        assert cli.main(["pretrain", "--stage", "tmlm", *args]) == 0, capsys.readouterr().err
        history = load_checkpoint(out / "tmlm-last.ckpt").train_state["history"]
        assert [h["perplexity"] for h in history[1:]] == [history[0]["perplexity"]] * (len(history) - 1)
        best = out / "tmlm-best.ckpt"
        assert best.exists()
        code = cli.main(["pretrain", "--stage", "umlm", "--init", str(best), *args])
        assert code == 0, capsys.readouterr().err
        assert (out / "umlm-best.ckpt").exists()

    def test_a_stage_that_never_improves_says_so(self, corpus_path, tmp_path, capsys, caplog):
        """At lr 0 the weights cannot move, so no epoch betters the initial
        eval: ``fit`` warns with the stage and its epoch count, and the CLI's
        best dev line is marked; a stage that improves gets neither."""
        path = tmp_path / "run.cfg"
        path.write_text(
            f"corpus = {corpus_path}\ntrain_max_episode = 7\ndev_max_episode = 8\n"
            "hidden_size = 16\nintermediate_size = 32\nnum_layers = 1\n"
            "batch_size = 8\nbase_lr = 0\ntmlm_steps = 4\nseed = 1\n"
        )
        note = "(the initial eval: no epoch improved on it)"
        args = ["pretrain", "--stage", "tmlm", "--config", str(path)]
        caplog.set_level(logging.WARNING, logger="dialoqa")
        assert cli.main([*args, "--out", str(tmp_path / "still")]) == 0
        assert capsys.readouterr().out.strip().endswith(note)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [
            "[tmlm] no epoch of 2 improved on the initial dev eval; the best is the start weights"
        ]
        caplog.clear()
        path.write_text(path.read_text().replace("base_lr = 0", "base_lr = 0.001"))
        assert cli.main([*args, "--out", str(tmp_path / "moving")]) == 0
        assert note not in capsys.readouterr().out
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]

    @pytest.mark.parametrize("with_out", [True, False], ids=["out", "cwd"])
    def test_best_checkpoint_saved_once(self, corpus_path, tmp_path, capsys, monkeypatch, with_out):
        """Each best snapshot is written once, by the stage loop, into
        ``--out`` or, without it, the working directory."""
        path = tmp_path / "run.cfg"
        path.write_text(
            f"corpus = {corpus_path}\ntrain_max_episode = 7\ndev_max_episode = 8\n"
            "hidden_size = 16\nintermediate_size = 32\nnum_layers = 1\n"
            "batch_size = 8\ntmlm_steps = 4\nbase_lr = 1e-3\nseed = 1\n"
        )
        saves, real_save = [], training.save_checkpoint

        def recording_save(ckpt, p):
            saves.append((p, ckpt))
            real_save(ckpt, p)

        monkeypatch.setattr(training, "save_checkpoint", recording_save)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "run" if with_out else tmp_path
        args = ["pretrain", "--stage", "tmlm", "--config", str(path)]
        if with_out:
            args += ["--out", str(out)]
        assert cli.main(args) == 0, capsys.readouterr().err
        best_epochs = [ckpt.train_state["history"][-1]["epoch"]
                       for p, ckpt in saves if p.name == "tmlm-best.ckpt"]
        assert {p.parent.resolve() for p, _ in saves} == {out.resolve()}
        assert best_epochs[0] == -1 and best_epochs == sorted(set(best_epochs))
        best = load_checkpoint(out / "tmlm-best.ckpt").train_state["history"]
        assert best[-1]["epoch"] == best_epochs[-1]

    def test_a_run_without_out_resumes_in_the_working_directory(
        self, corpus_path, tmp_path, capsys, monkeypatch
    ):
        """Without ``--out`` a stage writes its vocabulary and both checkpoints
        into the working directory, so a run killed after its first epoch
        resumes from ``--init tmlm-last.ckpt`` and ends byte for byte as an
        uninterrupted run."""
        path = tmp_path / "run.cfg"
        path.write_text(
            f"corpus = {corpus_path}\ntrain_max_episode = 7\ndev_max_episode = 8\n"
            "hidden_size = 16\nintermediate_size = 32\nnum_layers = 1\n"
            "batch_size = 8\ntmlm_steps = 6\nseed = 1\n"
        )
        cwd, uninterrupted = tmp_path / "cwd", tmp_path / "uninterrupted"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        args = ["pretrain", "--stage", "tmlm", "--config", str(path)]
        _crash_after_first_last_checkpoint(monkeypatch)
        with pytest.raises(_Crash):
            cli.main(args)
        names = ["tmlm-best.ckpt", "tmlm-last.ckpt", "vocab.txt"]
        assert sorted(p.name for p in cwd.iterdir()) == names
        assert load_checkpoint(cwd / "tmlm-last.ckpt").global_step < 6
        assert cli.main([*args, "--init", "tmlm-last.ckpt"]) == 0, capsys.readouterr().err
        assert cli.main([*args, "--out", str(uninterrupted)]) == 0, capsys.readouterr().err
        assert load_checkpoint(cwd / "tmlm-last.ckpt").global_step == 6
        for name in names:
            assert (cwd / name).read_bytes() == (uninterrupted / name).read_bytes(), name

    def test_a_stage_that_fails_building_its_data_leaves_no_out_dir(
        self, corpus_path, tmp_path, capsys
    ):
        """With every word below ``min_freq`` no dialogue has a maskable word;
        the stage fails before it writes anything, vocab.txt included."""
        path = tmp_path / "run.cfg"
        path.write_text(
            f"corpus = {corpus_path}\ntrain_max_episode = 7\ndev_max_episode = 8\n"
            "hidden_size = 16\nintermediate_size = 32\nnum_layers = 1\n"
            "tmlm_steps = 2\nmin_freq = 100000\n"
        )
        out = tmp_path / "run"
        code, err = self._main_error(
            capsys, "pretrain", "--stage", "tmlm", "--config", str(path), "--out", str(out)
        )
        assert (code, err["error"]) == (1, "CorpusError")
        assert "token MLM" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["umlm", "uop"])
    def test_a_stage_without_training_instances_leaves_no_out_dir(
        self, tmp_path, capsys, stage
    ):
        """Training dialogues of 3 utterances give no order-prediction
        instance, and training words outside the start checkpoint's
        vocabulary no utterance-MLM instance; the dev dialogues give both.
        The stage fails before it writes anything, so no start-weights best
        is left for the next stage to start from."""
        corpus = []
        for ep in range(1, 9):
            dev = ep == 8
            utts = tuple(
                Utterance(f"spk{i}", tuple(f"{'dev' if dev else 'train'}{i}{j}" for j in range(3)))
                for i in range(4 if dev else 3)
            )
            corpus.append((Dialogue(ep, "s0", utts), []))
        save_corpus(corpus, tmp_path / "corpus.json")
        cfg = _config(tmp_path / "corpus.json")
        # umlm starts from a tmlm checkpoint, uop from a umlm one
        source, words = ("tmlm", [corpus[-1][0]]) if stage == "umlm" else ("umlm", [d for d, _ in corpus])
        vocab = build_vocab(words)
        weights = init_encoder_weights(cfg.model_config(len(vocab)), source, np.random.default_rng(0))
        init = tmp_path / f"{source}-best.ckpt"
        save_checkpoint(Checkpoint(weights, vocab), init)
        path = tmp_path / "run.cfg"
        path.write_text(
            f"corpus = {tmp_path / 'corpus.json'}\ntrain_max_episode = 7\ndev_max_episode = 8\n"
            "hidden_size = 16\nintermediate_size = 32\nnum_layers = 1\n"
        )
        out = tmp_path / "run"
        code, err = self._main_error(
            capsys, "pretrain", "--stage", stage, "--config", str(path),
            "--init", str(init), "--out", str(out),
        )
        assert (code, err["error"]) == (1, "CorpusError")
        assert "no training" in err["message"]
        assert not out.exists()

    def test_umlm_without_dev_instances_is_json_error(
        self, unseen_dev_corpus, tmlm_ckpt, tmp_path, capsys
    ):
        init = tmp_path / "tmlm-best.ckpt"
        save_checkpoint(tmlm_ckpt, init)
        path = tmp_path / "run.cfg"
        path.write_text(
            f"corpus = {unseen_dev_corpus}\ntrain_max_episode = 7\ndev_max_episode = 8\n"
            "hidden_size = 16\nintermediate_size = 32\nnum_layers = 1\n"
            "batch_size = 8\numlm_steps = 2\nseed = 1\n"
        )
        code, err = self._main_error(
            capsys, "pretrain", "--stage", "umlm", "--config", str(path), "--init", str(init)
        )
        assert (code, err["error"]) == (1, "CorpusError")
        assert "maskable" in err["message"]

    def test_question_without_a_token_is_json_error(self, corpus_path, tmp_path, capsys):
        doc = json.loads(corpus_path.read_text(encoding="utf-8"))
        doc["dialogues"][0]["questions"][0]["question"] = ""
        qid = doc["dialogues"][0]["questions"][0]["qid"]
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps(doc), encoding="utf-8")
        path = tmp_path / "run.cfg"
        path.write_text(f"corpus = {corpus}\ntrain_max_episode = 7\ndev_max_episode = 8\n")
        out = tmp_path / "run"
        code, err = self._main_error(
            capsys, "pretrain", "--stage", "tmlm", "--config", str(path), "--out", str(out)
        )
        assert (code, err["error"]) == (1, "CorpusError")
        assert f"dialogues[0].questions[0]: question {qid!r}" in err["message"]
        assert not out.exists()

    def test_finetune_cuts_an_over_long_question_at_the_token_positions(
        self, corpus_path, tmlm_ckpt, tmp_path, capsys
    ):
        """A dev question of 120 words more than TE's 97 token positions is
        cut there, so fine-tuning and its dev evals run."""
        doc = json.loads(corpus_path.read_text(encoding="utf-8"))
        dialogue = next(d for d in doc["dialogues"] if d["episode_id"] == 8 and d["questions"])
        dialogue["questions"][0]["question"] += " and then" * 60
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps(doc), encoding="utf-8")
        init = tmp_path / "tmlm-best.ckpt"
        save_checkpoint(tmlm_ckpt, init)
        path = tmp_path / "run.cfg"
        path.write_text(
            f"corpus = {corpus}\ntrain_max_episode = 7\ndev_max_episode = 8\n"
            "hidden_size = 16\nintermediate_size = 32\nnum_layers = 1\n"
            "batch_size = 8\nfinetune_steps = 2\nseed = 1\n"
        )
        out = tmp_path / "run"
        args = ["finetune", "--config", str(path), "--init", str(init), "--out", str(out)]
        assert cli.main(args) == 0, capsys.readouterr().err
        assert load_checkpoint(out / "finetuned-last.ckpt").global_step == 2

    def test_tmlm_cuts_a_dialogue_at_the_token_positions(self, corpus_path, tmp_path, capsys):
        """With 2 words per utterance the token-level sequence of a dialogue
        of 6 or more utterances, speaker tokens included, outruns the 17
        token positions; the stage cuts it there and trains."""
        path = tmp_path / "run.cfg"
        path.write_text(
            f"corpus = {corpus_path}\ntrain_max_episode = 7\ndev_max_episode = 8\n"
            "hidden_size = 16\nintermediate_size = 32\nnum_layers = 1\n"
            "batch_size = 8\ntmlm_steps = 2\nmax_tokens = 2\n"
        )
        cfg = load_run_config(path)
        split = training.load_split(cfg)
        vocab = build_vocab(training.pretrain_dialogues(cfg, split)[0])
        lengths = [
            len(pretrain.encode_dialogue(vocab, d).token_ids)
            for part in training.pretrain_dialogues(cfg, split) for d in part
        ]
        assert max(lengths) > cfg.model_config(len(vocab)).token_position_capacity == 17
        out = tmp_path / "run"
        args = ["pretrain", "--stage", "tmlm", "--config", str(path), "--out", str(out)]
        assert cli.main(args) == 0, capsys.readouterr().err
        assert load_checkpoint(out / "tmlm-best.ckpt").stage == "tmlm"

    @pytest.mark.parametrize("content", [None, "seed = twelve\n"])
    def test_bad_config_file_is_json_error(self, tmp_path, capsys, content):
        path = tmp_path / "run.cfg"
        if content is not None:
            path.write_text(content)
        code, err = self._main_error(
            capsys, "pretrain", "--stage", "tmlm", "--config", str(path)
        )
        assert (code, err["error"]) == (1, "ConfigError")

    @pytest.mark.parametrize(
        "command", [["pretrain", "--stage", "tmlm"], ["synth-corpus"]], ids=["pretrain", "synth"]
    )
    @pytest.mark.parametrize("beneath", [False, True], ids=["file", "beneath-file"])
    def test_output_path_blocked_by_a_file_is_json_error(
        self, corpus_path, tmp_path, capsys, command, beneath
    ):
        path = tmp_path / "run.cfg"
        path.write_text(
            f"corpus = {corpus_path}\ntrain_max_episode = 7\ndev_max_episode = 8\n"
            "hidden_size = 16\nintermediate_size = 32\nnum_layers = 1\n"
            "tmlm_steps = 2\nsynth_episodes = 2\n"
        )
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "sub" if beneath else blocker
        code, err = self._main_error(capsys, *command, "--config", str(path), "--out", str(out))
        assert code == 1
        assert str(blocker) in err["message"]

    @pytest.mark.parametrize("settings, field", [
        ("tmlm_steps = 0\n", "tmlm_steps"), ("warmup_fraction = 0\n", "warmup_fraction"),
    ], ids=["no-tmlm-steps", "no-warmup"])
    def test_bad_run_settings_fail_before_any_output(
        self, corpus_path, tmp_path, capsys, settings, field
    ):
        path = tmp_path / "run.cfg"
        path.write_text(f"corpus = {corpus_path}\n{settings}")
        out = tmp_path / "run"
        code, err = self._main_error(capsys, "pretrain", "--stage", "tmlm", "--config", str(path),
                                     "--out", str(out))
        assert (code, err["error"]) == (1, "ConfigError")
        assert field in err["message"]
        assert not out.exists()

    def test_resume_with_other_settings_is_json_error(self, corpus_path, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        base = (
            f"corpus = {corpus_path}\ntrain_max_episode = 7\ndev_max_episode = 8\n"
            "intermediate_size = 32\nnum_layers = 1\nbatch_size = 8\nseed = 1\n"
        )
        path.write_text(base + "hidden_size = 16\ntmlm_steps = 2\n")
        out = tmp_path / "run"
        assert cli.main(["pretrain", "--stage", "tmlm", "--config", str(path), "--out", str(out)]) == 0
        path.write_text(base + "hidden_size = 64\ntmlm_steps = 6\n")
        capsys.readouterr()
        code, err = self._main_error(
            capsys, "pretrain", "--stage", "tmlm", "--config", str(path),
            "--init", str(out / "tmlm-last.ckpt"), "--out", str(out),
        )
        assert (code, err["error"]) == (1, "ConfigError")
        assert "hidden_size 64 (checkpoint 16)" in err["message"]

    _MODEL_SETTINGS = (
        "train_max_episode = 7\ndev_max_episode = 8\nhidden_size = 16\n"
        "intermediate_size = 32\nnum_layers = 1\nbatch_size = 8\nseed = 1\n"
    )

    def test_a_transfer_to_another_model_is_json_error(
        self, corpus_path, tmlm_ckpt, tmp_path, capsys
    ):
        """A 2-head tmlm checkpoint cannot start a 4-head fine-tuning run."""
        init = tmp_path / "tmlm-best.ckpt"
        save_checkpoint(tmlm_ckpt, init)
        path = tmp_path / "run.cfg"
        path.write_text(f"corpus = {corpus_path}\n{self._MODEL_SETTINGS}num_heads = 4\n")
        out = tmp_path / "run"
        code, err = self._main_error(capsys, "finetune", "--config", str(path),
                                     "--init", str(init), "--out", str(out))
        assert (code, err["error"]) == (1, "ConfigError")
        assert _named_settings(err["message"]) == ["num_heads"]
        assert "num_heads 4 (checkpoint 2)" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("max_tokens", [4, 12])
    def test_an_eval_with_another_model_is_json_error(
        self, corpus_path, tmp_path, capsys, max_tokens
    ):
        """A checkpoint of ``max_tokens = 6`` is evaluated with its own
        limits only: neither a smaller limit, which would cut the split
        shorter than the model reads, nor a larger one."""
        model = _config(corpus_path, max_tokens=6).model_config
        vocab = build_vocab(d for d, _ in load_corpus(corpus_path))
        weights = init_encoder_weights(model(len(vocab)), "finetuned", np.random.default_rng(0))
        init = tmp_path / "finetuned-best.ckpt"
        save_checkpoint(Checkpoint(weights, vocab), init)
        path = tmp_path / "run.cfg"
        path.write_text(f"corpus = {corpus_path}\n{self._MODEL_SETTINGS}max_tokens = {max_tokens}\n")
        out = tmp_path / "eval"
        code, err = self._main_error(capsys, "evaluate", "--split", "test", "--config", str(path),
                                     "--init", str(init), "--out", str(out))
        assert (code, err["error"]) == (1, "ConfigError")
        assert _named_settings(err["message"]) == ["max_tokens"]
        assert f"max_tokens {max_tokens} (checkpoint 6)" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("settings, error, named", [
        ("synth_min_utterances = 9\nsynth_max_utterances = 9\n", "ConfigError", "utterances"),
        ("synth_min_utterances = 5\nsynth_max_utterances = 4\n", "ConfigError", "utterances"),
        ("synth_questions_per_dialogue = -1\n", "ConfigError", "questions_per_dialogue"),
        ("num_heads = 3\n", "ConfigError", "num_heads"),
        ("dropout_p = 1.0\n", "ConfigError", "dropout_p"),
        ("synth_unanswerable_fraction = 2.0\n", "ConfigError", "synth_unanswerable_fraction"),
        ("synth_unanswerable_fraction = -1\n", "ConfigError", "synth_unanswerable_fraction"),
        ("synth_unanswerable_fraction = nan\n", "ConfigError", "synth_unanswerable_fraction"),
        ("synth_episodes = -3\n", "ConfigError", "synth_episodes"),
        ("synth_scenes_per_episode = 0\n", "ConfigError", "synth_scenes_per_episode"),
    ], ids=["too-many-utterances", "min-above-max", "negative-questions", "indivisible-heads",
            "dropout-of-one", "fraction-above-one", "fraction-negative", "fraction-nan",
            "episodes-negative", "no-scenes"])
    def test_bad_synth_settings_are_json_errors(self, tmp_path, capsys, settings, error, named):
        path = tmp_path / "run.cfg"
        path.write_text(settings)
        code, err = self._main_error(capsys, "synth-corpus", "--config", str(path),
                                     "--out", str(tmp_path))
        assert (code, err["error"]) == (1, error)
        assert named in err["message"]
        assert not (tmp_path / "corpus.json").exists()
