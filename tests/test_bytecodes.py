"""``tools/bytecodes.py``, the executed bytecodes of the package over the
first cases of a benchmark workload: the count repeats exactly, and it counts
the package of the tree it is given."""

import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def count(workload, *tree):
    proc = subprocess.run(
        [sys.executable, "tools/bytecodes.py", "--workload", workload, "--cases", "3", *tree],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["adl-grid", "adlh-high-genus", "verify-beyond-grid"])
def test_two_runs_count_the_same(workload):
    first, second = count(workload), count(workload)
    assert first == second
    assert first["package"] == str(ROOT / "src" / "surfaut")
    assert first["cases"] == 3 and first["failed"] == 0
    per_function = first["per_function"]
    assert first["bytecodes"] == sum(per_function.values()) > 0
    # every function counted is the package's, keyed module.qualname
    modules = {p.stem for p in (ROOT / "src" / "surfaut").glob("*.py")}
    assert {name.split(".")[0] for name in per_function} <= modules


def test_another_tree_counts_the_same(tmp_path):
    # a copy of this tree's sources, counted through --tree, is the package
    # counted and gives this tree's counts
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    default = count("adl-grid")
    copy = count("adl-grid", "--tree", str(tmp_path))
    assert copy.pop("package") == str(tmp_path.resolve() / "src" / "surfaut")
    default.pop("package")
    assert copy == default


def test_refuses_a_package_from_elsewhere(tmp_path):
    # a tree with no sources, and this tree's package on the path: the
    # package imported is not the tree's, so nothing is counted
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "tools/bytecodes.py", "--workload", "adl-grid", "--cases", "3",
         "--tree", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"imported surfaut from {ROOT / 'src' / 'surfaut'}" in proc.stderr


def test_function_key_without_qualname():
    # Python 3.10's code objects have no co_qualname; the key falls back to
    # co_name, and keeps the qualified name where there is one
    spec = importlib.util.spec_from_file_location("bytecodes", ROOT / "tools" / "bytecodes.py")
    bytecodes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bytecodes)
    code = types.SimpleNamespace(co_filename="/any/surfaut/groupoid.py", co_name="advance")
    assert bytecodes.function_key(code) == "groupoid.advance"

    class Outer:
        def method(self):
            pass

    key = bytecodes.function_key(Outer.method.__code__)
    if sys.version_info >= (3, 11):
        assert key == "test_bytecodes.test_function_key_without_qualname.<locals>.Outer.method"
    else:
        assert key == "test_bytecodes.method"
