"""``tools/abrun.py``, the paired A/B timing of one benchmark workload: it
runs end to end with this checkout as both trees."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["adl-grid", "adlh-high-genus"])
def test_smoke_run(workload):
    # the first pair's outputs pass the workload's check, on the ADL and the
    # ADLH path
    proc = subprocess.run(
        [sys.executable, "tools/abrun.py", ".", ".", "--workload", workload,
         "--pairs", "1", "--cases", "20"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["cases"] == 20
    assert report["failed_first_pair"] == {"parent": 0, "change": 0}
