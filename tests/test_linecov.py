"""``tools/linecov.py``, the line coverage of ``src/surfaut`` under pytest:
it exits with pytest's exit code."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_failing_run_exits_nonzero(tmp_path):
    test = tmp_path / "test_fails.py"
    test.write_text("def test_fails():\n    assert False\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "tools/linecov.py", str(test)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["pytest_exit"] == 1
