"""The tool CLIs run cleanly as ``python -m repro.tools.X``."""

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


def test_stats_fails_when_its_script_raises(tmp_path, capsys):
    from repro.tools.stats import main
    script = tmp_path / "boom.py"
    script.write_text("import sys\n"
                      "print(sys.argv[1:])\n"
                      "raise RuntimeError('boom')\n")
    with pytest.raises(RuntimeError, match="boom"):
        main(["--json", str(script), "--flag", "x"])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "['--flag', 'x']" in captured.err


def test_stats_renders_a_script_that_exits_zero(tmp_path, capsys):
    from repro.tools.stats import main
    script = tmp_path / "done.py"
    script.write_text("raise SystemExit(0)\n")
    assert main(["--json", str(script)]) == 0
    assert "metrics" in json.loads(capsys.readouterr().out)
