"""The one writer: what it writes and syncs, and that a write failing inside
it leaves every output of the package (checkpoints, ``vocab.txt``,
``corpus.json``, eval predictions and reports) as it was."""

import os
import stat

import numpy as np
import pytest

from dialoqa.checkpoint import Checkpoint, save_checkpoint
from dialoqa.corpus import save_corpus
from dialoqa.encoder import init_encoder_weights
from dialoqa.files import write_file
from dialoqa.metrics import PredictionRecord
from dialoqa.synth import generate_corpus
from dialoqa.training import RunConfig, run_eval
from dialoqa.vocab import build_vocab


def test_writes_the_parts_in_order_and_leaves_no_temporary_file(tmp_path):
    vector = np.arange(3, dtype="<f8")
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    write_file(path, [b"ab", memoryview(b"cd"), vector.data])
    assert path.read_bytes() == b"abcd" + vector.tobytes()
    assert list(tmp_path.iterdir()) == [path]


def test_syncs_the_file_before_the_rename_and_the_directory_after(tmp_path, monkeypatch):
    calls = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        calls.append("fsync directory" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", lambda *a: calls.append("replace") or replace(*a))
    write_file(tmp_path / "out.txt", [b"x"])
    assert calls == ["fsync file", "replace", "fsync directory"]


@pytest.fixture(scope="module")
def eval_run(tmp_path_factory):
    """A corpus, its run config and an untrained finetuned checkpoint: enough
    for every output the package writes."""
    corpus = generate_corpus(num_episodes=10, scenes_per_episode=2, seed=3)
    path = tmp_path_factory.mktemp("corpus") / "corpus.json"
    save_corpus(corpus, path)
    config = RunConfig(
        corpus=str(path), train_max_episode=7, dev_max_episode=8,
        hidden_size=16, intermediate_size=32, num_layers=1, num_heads=2,
    )
    vocab = build_vocab(d for d, _ in corpus)
    weights = init_encoder_weights(
        config.model_config(len(vocab)), "finetuned", np.random.default_rng(0)
    )
    return corpus, config, Checkpoint(weights, vocab)


# Each output: the files it writes, and a call that writes them into a directory.
OUTPUTS = {
    "checkpoint": (["finetuned-best.ckpt"],
                   lambda run, out: save_checkpoint(run[2], out / "finetuned-best.ckpt")),
    "vocab": (["vocab.txt"], lambda run, out: run[2].vocab.save(out / "vocab.txt")),
    "corpus": (["corpus.json"], lambda run, out: save_corpus(run[0], out / "corpus.json")),
    "eval": (["predictions-test.jsonl", "report-test.json", "report-test.txt"],
             lambda run, out: run_eval(run[1], run[2], "test", out)),
}


def _old_files(out, names) -> dict[str, bytes]:
    old = {name: f"old {name}\n".encode() for name in names}
    for name, data in old.items():
        (out / name).write_bytes(data)
    return old


@pytest.mark.parametrize("failing", ["replace", "fsync"])
@pytest.mark.parametrize("output", OUTPUTS)
def test_a_failed_write_leaves_the_old_file(eval_run, tmp_path, monkeypatch, output, failing):
    names, write = OUTPUTS[output]
    old = _old_files(tmp_path, names)

    def fail(*args):
        raise OSError(f"injected {failing} failure")

    monkeypatch.setattr(os, failing, fail)
    with pytest.raises(OSError, match=f"injected {failing} failure"):
        write(eval_run, tmp_path)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old


@pytest.mark.parametrize("output", OUTPUTS)
def test_each_output_replaces_the_old_file(eval_run, tmp_path, output):
    names, write = OUTPUTS[output]
    old = _old_files(tmp_path, names)
    write(eval_run, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    assert all((tmp_path / name).read_bytes() != old[name] for name in names)


def test_a_failed_prediction_record_leaves_the_old_eval_outputs(eval_run, tmp_path, monkeypatch):
    """Eval builds all three outputs before it writes any: a record that
    fails to serialize leaves the old predictions and both old reports, not
    a shorter predictions file whose every line still parses."""
    names = OUTPUTS["eval"][0]
    old = _old_files(tmp_path, names)
    to_json, serialized = PredictionRecord.to_json, []

    def third_fails(record):
        serialized.append(record.qid)
        if len(serialized) == 3:
            raise ValueError("record 3 does not serialize")
        return to_json(record)

    monkeypatch.setattr(PredictionRecord, "to_json", third_fails)
    with pytest.raises(ValueError, match="record 3"):
        run_eval(eval_run[1], eval_run[2], "test", tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old
