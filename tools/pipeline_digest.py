"""Run the whole pipeline through the ``dialoqa`` CLI and print the sha256 of
every file it writes, to check that a change leaves the pipeline's output
byte for byte as it was.

The recipe: a synthetic corpus (seed 0, 26 episodes of 1 scene with 2
questions each); tmlm 3 steps, umlm 4, uop 3 and fine-tuning 3, batch size 8,
dropout 0.1, each stage started with ``--init`` from the ``<stage>-last.ckpt``
of the one before, whose best weights it takes; then evaluation of the
``finetuned-last.ckpt`` on the test split. Everything goes
through ``dialoqa.cli.main``, so the script runs unchanged against any
checkout whose ``src`` is on the path:

    PYTHONPATH=src python tools/pipeline_digest.py OUT_DIR [--mlm-mode static]

OUT_DIR must be absent or empty. The CLI's own output goes to stderr; stdout
holds one ``<sha256>  <file>`` line per output file, sorted by name, so two
runs compare with ``diff``. Each checkpoint also gets a
``<sha256>  <file>:contents`` line, a digest of the state it holds read
through the ``load_checkpoint`` on the path (see ``contents_digest``), and
``corpus.json`` one of its JSON value dumped again in a fixed form (see
``corpus_contents_digest``). So a tree that changes the checkpoint format or
the corpus file's layout can be compared with one that does not: their file
lines differ, their ``:contents`` lines must not. Exits with the CLI's code
if a step fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from dialoqa.checkpoint import load_checkpoint
from dialoqa.cli import main as dialoqa

RECIPE = {
    "seed": 0,
    "synth_episodes": 26,
    "synth_scenes_per_episode": 1,
    "synth_questions_per_dialogue": 2,
    "batch_size": 8,
    "dropout_p": 0.1,
    "tmlm_steps": 3,
    "umlm_steps": 4,
    "uop_steps": 3,
    "finetune_steps": 3,
}


def run_pipeline(out: Path, mlm_mode: str) -> int:
    """Runs the recipe into ``out``; returns the first non-zero exit code, or 0."""
    steps = [
        ["synth-corpus"],
        ["pretrain", "--stage", "tmlm"],
        ["pretrain", "--stage", "umlm", "--init", str(out / "tmlm-last.ckpt")],
        ["pretrain", "--stage", "uop", "--init", str(out / "umlm-last.ckpt")],
        ["finetune", "--init", str(out / "uop-last.ckpt")],
        ["evaluate", "--split", "test", "--init", str(out / "finetuned-last.ckpt")],
    ]
    settings = {**RECIPE, "corpus": out / "corpus.json", "mlm_mode": mlm_mode}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()), encoding="utf-8")
        for step in steps:
            with contextlib.redirect_stdout(sys.stderr):
                code = dialoqa([*step, "--config", str(config), "--out", str(out)])
            if code != 0:
                return code
    return 0


def contents_digest(path: Path) -> str:
    """sha256 of a checkpoint's state, in a fixed order: the stage, step and
    vocabulary tokens; the Adam settings and step; the rng state and dev
    history; then by sorted name every tensor of the weights, of the Adam
    moments and of the best weights that a ``-last`` holds."""
    ckpt = load_checkpoint(path)
    adam = ckpt.adam
    state = {
        "stage": ckpt.stage,
        "global_step": ckpt.global_step,
        "vocab": list(ckpt.vocab.id_to_token),
        "adam": None if adam is None else [
            # Adam's step is the global step
            adam.beta1, adam.beta2, adam.epsilon, adam.weight_decay, ckpt.global_step,
        ],
        "rng_state": ckpt.rng_state,
        "history": ckpt.train_state.get("history"),
    }
    tensors = {name: p.array for name, p in ckpt.weights.named()}
    if adam is not None:  # a -last: moments and best weights, each laid out like the weights
        vectors = (("adam.m.", adam.first_moment), ("adam.v.", adam.second_moment),
                   ("best.", ckpt.best))
        for prefix, vector in vectors:
            tensors.update({prefix + n: arr for n, arr in ckpt.weights.views(vector).items()})
    digest = hashlib.sha256(json.dumps(state, sort_keys=True).encode("utf-8"))
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        digest.update(f"{name} {list(arr.shape)}\n".encode("utf-8"))
        digest.update(arr.tobytes())
    return digest.hexdigest()


def corpus_contents_digest(path: Path) -> str:
    """sha256 of a corpus file's JSON value with sorted keys and no
    whitespace, so files that differ only in layout digest the same."""
    value = json.loads(path.read_text(encoding="utf-8"))
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def digests(out: Path) -> list[str]:
    lines = []
    for path in sorted(out.rglob("*")):
        if path.is_file():
            name = path.relative_to(out)
            lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}")
            if path.suffix == ".ckpt":
                lines.append(f"{contents_digest(path)}  {name}:contents")
            elif str(name) == "corpus.json":
                lines.append(f"{corpus_contents_digest(path)}  {name}:contents")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="output directory, absent or empty")
    parser.add_argument("--mlm-mode", choices=("dynamic", "static"), default="dynamic")
    args = parser.parse_args(argv)
    out = args.out.resolve()
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        parser.error(f"{out} is not an empty directory")
    code = run_pipeline(out, args.mlm_mode)
    if code == 0:
        print("\n".join(digests(out)))
    return code


if __name__ == "__main__":
    sys.exit(main())
