"""Run the whole pipeline through the ``dialoqa`` CLI and print the sha256 of
every file it writes, to check that a change leaves the pipeline's output
byte for byte as it was.

The recipe: a synthetic corpus (seed 0, 26 episodes of 1 scene with 2
questions each); tmlm 3 steps, umlm 4, uop 3 and fine-tuning 3, batch size 8,
dropout 0.1, each stage started from the best checkpoint of the one before;
then evaluation of the fine-tuned best on the test split. Everything goes
through ``dialoqa.cli.main``, so the script runs unchanged against any
checkout whose ``src`` is on the path:

    PYTHONPATH=src python tools/pipeline_digest.py OUT_DIR [--mlm-mode static]

OUT_DIR must be absent or empty. The CLI's own output goes to stderr; stdout
holds one ``<sha256>  <file>`` line per output file, sorted by name, so two
runs compare with ``diff``. Exits with the CLI's code if a step fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

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
        ["pretrain", "--stage", "umlm", "--init", str(out / "tmlm-best.ckpt")],
        ["pretrain", "--stage", "uop", "--init", str(out / "umlm-best.ckpt")],
        ["finetune", "--init", str(out / "uop-best.ckpt")],
        ["evaluate", "--split", "test", "--init", str(out / "finetuned-best.ckpt")],
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


def digests(out: Path) -> list[str]:
    return [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}"
        for path in sorted(out.rglob("*"))
        if path.is_file()
    ]


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
