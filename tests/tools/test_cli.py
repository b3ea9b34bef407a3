"""The tool CLIs run cleanly as ``python -m repro.tools.X``."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize("tool", ["fsck", "stats"])
def test_help_writes_nothing_to_stderr(tool):
    # an eagerly importing package __init__ loads the tool twice and
    # makes runpy warn on stderr
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-m", f"repro.tools.{tool}", "--help"],
        env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert result.stdout.startswith(f"usage: python -m repro.tools.{tool}")
    assert result.stderr == ""


def _main(tool):
    return importlib.import_module(f"repro.tools.{tool}").main


@pytest.mark.parametrize("tool", ["fsck", "stats"])
def test_tool_fails_when_its_script_raises(tool, tmp_path, capsys):
    script = tmp_path / "boom.py"
    script.write_text("import sys\n"
                      "print(sys.argv[1:])\n"
                      "raise RuntimeError('boom')\n")
    with pytest.raises(RuntimeError, match="boom"):
        _main(tool)(["--json", str(script), "--flag", "x"])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "['--flag', 'x']" in captured.err


@pytest.mark.parametrize("tool", ["fsck", "stats"])
def test_tool_takes_a_script_that_exits_zero(tool, tmp_path, capsys):
    """An exit with status 0 is no failure of the script: stats renders
    what it recorded.  The exit takes the script's globals with it, so
    fsck, finding no ``group`` or ``engine`` to verify, says so."""
    script = tmp_path / "done.py"
    script.write_text("raise SystemExit(0)\n")
    if tool == "stats":
        assert _main(tool)(["--json", str(script)]) == 0
        assert "metrics" in json.loads(capsys.readouterr().out)
    else:
        with pytest.raises(SystemExit, match="no `group` or `engine`"):
            _main(tool)(["--json", str(script)])


BUILD = """
from repro import TID, TREE_CLASSES, StorageEngine
engine = StorageEngine.create(page_size=512)
tree = TREE_CLASSES["shadow"].create(engine, "ix", codec="uint32")
for i in range(200):
    tree.insert(i, TID(1, i % 100))
if DAMAGE:
    with tree.file.pinned(tree._root_page()) as buf:
        buf.data[:2] = bytes(2)
        tree.file.mark_dirty(buf)
"""


@pytest.mark.parametrize("damage, status", [(False, 0), (True, 2)])
def test_fsck_verifies_the_engine_its_script_leaves(damage, status, tmp_path,
                                                    capsys):
    from repro.tools.fsck import main
    script = tmp_path / "build.py"
    script.write_text(f"DAMAGE = {damage}\n" + BUILD)
    assert main(["--json", str(script)]) == status
    doc = json.loads(capsys.readouterr().out)["files"]["ix"]
    assert doc["errors"] == int(damage)
    assert doc["keys"] == (0 if damage else 200)
