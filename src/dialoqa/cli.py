"""Command-line entry point.

Subcommands: ``pretrain --stage {tmlm|umlm|uop}``, ``finetune``,
``evaluate --split {train|dev|test}``, and ``synth-corpus``, each taking
``--config`` (key = value file), ``--seed``, ``--init <checkpoint>`` and
``--out <dir>``. Every command writes into ``--out``, which defaults to the
working directory. ``pretrain`` and ``finetune`` leave the vocabulary and
one checkpoint, ``<stage>-last.ckpt``, there and print the best dev record;
that checkpoint is the ``--init`` of a resume, of the next stage and of
``evaluate``, and holds the best dev weights, which a transfer and an
evaluation read. ``evaluate`` leaves its predictions and report. For
``pretrain``, ``finetune`` and ``evaluate``, ``--config`` must describe the
``--init`` checkpoint's model (every model setting but ``dropout_p``); a
resume, from a ``<stage>-last.ckpt`` of the same stage, must also match its
``dropout_p`` and Adam settings. Exit code 0 on success;
on failure a machine-readable JSON error goes to stderr. DIALOQA_LOG
controls log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .checkpoint import load_checkpoint
from .corpus import save_corpus
from .errors import DialoQAError
from .synth import generate_corpus
from .training import (
    PRETRAIN_STAGES,
    SPLIT_NAMES,
    load_run_config,
    run_eval,
    run_finetune,
    run_stage,
)


class _UsageError(DialoQAError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # emit JSON instead of argparse's usage dump
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dialoqa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None, help="key = value config file")
        p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
        p.add_argument("--init", type=Path, default=None, help="initial checkpoint")
        p.add_argument("--out", type=Path, default=None, help="output directory (default .)")

    p = sub.add_parser("pretrain", help="run one pre-training stage")
    p.add_argument("--stage", choices=PRETRAIN_STAGES, required=True)
    common(p)

    common(sub.add_parser("finetune", help="multi-task QA fine-tuning"))

    p = sub.add_parser("evaluate", help="score a finetuned checkpoint")
    p.add_argument("--split", choices=SPLIT_NAMES, default="dev")
    common(p)

    common(sub.add_parser("synth-corpus", help="write a synthetic corpus"))
    return parser


def _configure_logging() -> None:
    level = os.environ.get("DIALOQA_LOG", "info").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.INFO),
        format="%(asctime)s %(levelname)s %(message)s",
        datefmt="%H:%M:%S",
    )


def _best_dev(stage: str, best) -> str:
    """The best dev record, marked when it is the initial eval."""
    record = best.train_state["history"][-1]
    note = " (the initial eval: no epoch improved on it)" if record["epoch"] == -1 else ""
    return f"{stage}: best dev {record}{note}"


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_run_config(args.config, seed=args.seed)
        init = load_checkpoint(args.init) if args.init is not None else None
        out = args.out or Path(".")
        if args.command == "pretrain":
            print(_best_dev(args.stage, run_stage(args.stage, config, init, out)))
        elif args.command == "finetune":
            if init is None:
                raise _UsageError("finetune requires --init <checkpoint>")
            print(_best_dev("finetuned", run_finetune(config, init, out)[0]))
        elif args.command == "evaluate":
            if init is None:
                raise _UsageError("evaluate requires --init <checkpoint>")
            report = run_eval(config, init, args.split, out)
            print(report.format_table())
        elif args.command == "synth-corpus":
            corpus = generate_corpus(
                num_episodes=config.synth_episodes,
                scenes_per_episode=config.synth_scenes_per_episode,
                questions_per_dialogue=config.synth_questions_per_dialogue,
                seed=config.seed,
                min_utterances=config.synth_min_utterances,
                max_utterances=config.synth_max_utterances,
                unanswerable_fraction=config.synth_unanswerable_fraction,
            )
            out.mkdir(parents=True, exist_ok=True)
            path = out / "corpus.json"
            save_corpus(corpus, path)
            n_q = sum(len(qs) for _, qs in corpus)
            print(f"wrote {len(corpus)} dialogues / {n_q} questions to {path}")
    except _UsageError as e:
        json.dump({"error": "UsageError", "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (DialoQAError, OSError) as e:  # loads map OSError to DialoQAError: a write
        json.dump({"error": type(e).__name__, "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
