"""``tools/abrun.py``, the paired A/B timing of one benchmark workload: it
finds the memos it empties between passes, and it runs end to end with this
checkout as both trees."""

import importlib
import importlib.util
import json
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import surfaut
from surfaut import core

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _abrun():
    spec = importlib.util.spec_from_file_location("abrun", ROOT / "tools" / "abrun.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_finds_the_registered_memos():
    # by introspection, and by identity: every registered memo and no class
    for info in pkgutil.iter_modules(surfaut.__path__):
        importlib.import_module(f"surfaut.{info.name}")
    found = _abrun().package_memos(surfaut)
    assert {id(m) for m in found} == {id(m) for m in core._MEMOS}
    assert len(found) == len(core._MEMOS)


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
