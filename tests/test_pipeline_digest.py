"""``tools/pipeline_digest.py``, the byte-identity check of the CLI pipeline:
its digests repeat run to run, follow the MLM mode, and it writes into no
directory that is already in use."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

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


def test_two_dynamic_runs_print_the_same_13_lines(dynamic, tmp_path):
    assert len(dynamic) == 13
    assert _run(tmp_path / "out") == dynamic


def test_static_masks_change_the_checkpoints_but_not_the_data(dynamic, tmp_path):
    static = _by_file(_run(tmp_path / "out", "--mlm-mode", "static"))
    dynamic = _by_file(dynamic)
    assert static.keys() == dynamic.keys()
    assert static["tmlm-last.ckpt"] != dynamic["tmlm-last.ckpt"]
    for name in ("corpus.json", "vocab.txt"):
        assert static[name] == dynamic[name]


def test_a_non_empty_out_dir_is_refused(tmp_path, capsys):
    (tmp_path / "kept.txt").write_text("kept")
    with pytest.raises(SystemExit) as exit_info:
        pipeline_digest.main([str(tmp_path)])
    assert exit_info.value.code == 2
    assert "is not an empty directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["kept.txt"]
