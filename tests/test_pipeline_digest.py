"""``tools/pipeline_digest.py``, the byte-identity check of the CLI pipeline:
its digests repeat run to run, follow the MLM mode, cover each checkpoint's
contents and the corpus's JSON value apart from their files, and it writes
into no directory that is already in use."""

import contextlib
import importlib.util
import io
import json
from dataclasses import replace
from pathlib import Path

import pytest

from dialoqa.checkpoint import load_checkpoint, save_checkpoint

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pipeline_digest.py"
spec = importlib.util.spec_from_file_location("pipeline_digest", TOOL)
pipeline_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pipeline_digest)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _run(out: Path, *args: str) -> list[str]:
    """The tool's stdout lines for a run into ``out``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert pipeline_digest.main([str(out), *args]) == 0
    return stdout.getvalue().splitlines()


def _by_file(lines: list[str]) -> dict[str, str]:
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


@pytest.fixture(scope="module")
def dynamic(tmp_path_factory) -> list[str]:
    return _run(tmp_path_factory.mktemp("dynamic") / "out")


def test_two_dynamic_runs_print_the_same_14_lines(dynamic, tmp_path):
    """9 files, and a contents line after corpus.json and after each of
    the 4 checkpoints, one ``-last`` per stage."""
    assert len(dynamic) == 14
    names = [line.split("  ", 1)[1] for line in dynamic]
    contents = [name for name in names if name.endswith(":contents")]
    assert contents == [
        f"{name}:contents" for name in names if name == "corpus.json" or name.endswith(".ckpt")
    ]
    assert len(contents) == 5
    assert [n for n in names if n.endswith(".ckpt")] == [
        f"{stage}-last.ckpt" for stage in ("finetuned", "tmlm", "umlm", "uop")
    ]
    assert names[names.index("corpus.json") + 1] == "corpus.json:contents"
    assert _run(tmp_path / "out") == dynamic


def test_static_masks_change_the_checkpoints_but_not_the_data(dynamic, tmp_path):
    static = _by_file(_run(tmp_path / "out", "--mlm-mode", "static"))
    dynamic = _by_file(dynamic)
    assert static.keys() == dynamic.keys()
    assert static["tmlm-last.ckpt"] != dynamic["tmlm-last.ckpt"]
    assert static["tmlm-last.ckpt:contents"] != dynamic["tmlm-last.ckpt:contents"]
    for name in ("corpus.json", "corpus.json:contents", "vocab.txt"):
        assert static[name] == dynamic[name]


def test_a_non_empty_out_dir_is_refused(tmp_path, capsys):
    (tmp_path / "kept.txt").write_text("kept")
    with pytest.raises(SystemExit) as exit_info:
        pipeline_digest.main([str(tmp_path)])
    assert exit_info.value.code == 2
    assert "is not an empty directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["kept.txt"]


def test_contents_digest_covers_every_moment_and_not_the_file_layout(tmp_path):
    """A change to an Adam moment or to the best weights of a ``-last``
    changes its digest; a rewrite of the same state does not."""
    out = tmp_path / "out"
    _run(out)
    ckpt = load_checkpoint(out / "uop-last.ckpt")
    base = pipeline_digest.contents_digest(out / "uop-last.ckpt")
    save_checkpoint(ckpt, tmp_path / "same.ckpt")
    assert pipeline_digest.contents_digest(tmp_path / "same.ckpt") == base
    ckpt.weights.config = replace(ckpt.config, dropout_p=0.5)  # outside the contents
    save_checkpoint(ckpt, tmp_path / "dropout.ckpt")
    assert pipeline_digest.contents_digest(tmp_path / "dropout.ckpt") == base
    ckpt.weights.views(ckpt.adam.second_moment)["uop_b"][0] += 1e-12
    save_checkpoint(ckpt, tmp_path / "moment.ckpt")
    moment = pipeline_digest.contents_digest(tmp_path / "moment.ckpt")
    assert moment != base
    ckpt.weights.views(ckpt.best)["uop_b"][0] += 1e-12
    save_checkpoint(ckpt, tmp_path / "best.ckpt")
    assert pipeline_digest.contents_digest(tmp_path / "best.ckpt") not in (base, moment)


def test_corpus_contents_digest_ignores_the_layout_and_not_the_value(tmp_path):
    value = {"dialogues": [{"scene_id": "sé", "episode_id": 1, "utterances": []}]}
    layouts = {
        "compact": json.dumps(value, sort_keys=True),
        "indented": json.dumps(value, indent=1, sort_keys=True),
        "unsorted": json.dumps(value, indent=4, ensure_ascii=False),
    }
    for name, text in layouts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert len({pipeline_digest.corpus_contents_digest(tmp_path / name) for name in layouts}) == 1
    value["dialogues"][0]["episode_id"] = 2
    (tmp_path / "other").write_text(json.dumps(value, sort_keys=True), encoding="utf-8")
    assert (pipeline_digest.corpus_contents_digest(tmp_path / "other")
            != pipeline_digest.corpus_contents_digest(tmp_path / "compact"))
