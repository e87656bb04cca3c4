"""Smoke tests of the benchmark harness.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle as O  # noqa: E402
import surfaut as S  # noqa: E402
from workloads import WORKLOADS, adl_names  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-beyond-grid",
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(trace, kind):
    result = _run(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_check_flags_a_factorisation_missing_its_last_token():
    wl = WORKLOADS["adl-grid"]
    for case in wl.cases(seed=5, count=3):
        word = wl.run(case)
        assert wl.check(case, word) is None
        assert len(word) > 0
        cut = S.GenWord(word.tokens[:-1])
        assert wl.check(case, cut) == "word does not recompose to the input"


@pytest.mark.parametrize("g,p", [(0, 3), (1, 1), (2, 0), (2, 2), (3, 1)])
def test_oracle_generators_match_the_package(g, p):
    sig = S.Signature(g, p)
    for family, index in adl_names((g, p)):
        aut = S.generator(S.GenName(family, index), sig)
        for exp, endo in ((1, aut.fwd), (-1, aut.inv)):
            images = O.identity((g, p))
            images.update(O.generator((g, p), family, index, exp))
            assert images == {b: w.codes for b, w in enumerate(endo.images, 1)}
