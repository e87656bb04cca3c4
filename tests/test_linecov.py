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


# Runs ``linecov.main`` on the package at argv[1] with ``pytest.main``
# replaced by a run of that package's module, which then rewrites the module
# when argv[2] is "edit".  A script of its own, because ``main`` installs and
# removes the tracer of the process it runs in.
_EDITING_RUN = r"""
import pathlib, sys
sys.path.insert(0, sys.argv[3])
import linecov, pytest

linecov.PKG = pathlib.Path(sys.argv[1])
mod = linecov.PKG / "mod.py"

def run(args):
    namespace = {}
    exec(compile(mod.read_text(), str(mod), "exec"), namespace)
    namespace["f"](1)
    if sys.argv[2] == "edit":
        mod.write_text("# two lines\n# before the code\n" + mod.read_text())
    return 0

pytest.main = run
sys.exit(linecov.main(["--list"]))
"""


def test_file_edited_during_the_run(tmp_path):
    script = tmp_path / "editing_run.py"
    script.write_text(_EDITING_RUN, encoding="utf-8")
    reports = []
    for mode in ("keep", "edit"):
        pkg = tmp_path / mode
        pkg.mkdir()
        (pkg / "mod.py").write_text(
            "def f(x):\n    if x:\n        return 1\n    return 2\n", encoding="utf-8"
        )
        proc = subprocess.run(
            [sys.executable, str(script), str(pkg), mode, str(ROOT / "tools")],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(proc.stdout)
    # the line never run is `return 2`, line 4 of the code that ran
    assert reports[0] == reports[1]
    assert reports[0].splitlines()[0] == "mod.py: 4"
    assert json.loads(reports[0].splitlines()[-1])["never_run"] == 1
