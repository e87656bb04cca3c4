"""``tools/bytecodes.py``, the executed bytecodes of the package over the
first cases of a benchmark workload: the count repeats exactly."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def count(workload):
    proc = subprocess.run(
        [sys.executable, "tools/bytecodes.py", "--workload", workload, "--cases", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["adl-grid", "adlh-high-genus", "verify-beyond-grid"])
def test_two_runs_count_the_same(workload):
    first, second = count(workload), count(workload)
    assert first == second
    assert first["cases"] == 3 and first["failed"] == 0
    per_function = first["per_function"]
    assert first["bytecodes"] == sum(per_function.values()) > 0
    # every function counted is the package's, keyed module.qualname
    modules = {p.stem for p in (ROOT / "src" / "surfaut").glob("*.py")}
    assert {name.split(".")[0] for name in per_function} <= modules
