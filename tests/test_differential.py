"""Two differential checks: the package against code it shares nothing with.

- The generator tables and the factorisation goldens against
  ``perfbench/oracle.py``, the benchmark's own free-group arithmetic (its
  own generator tables and a back-to-front evaluator), imported by path.
- The four golden scripts with every memo bounded to 0 and to 1 entries,
  against the committed goldens that the memoised package wrote: a memo key
  that omitted part of what its value depends on would change an output.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from surfaut import Signature, eval_gen_word, gen_set, generator, parse_gen_word

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SCRIPTS = ["canon_outputs", "factorize_audit", "factorize_words", "reduce_outcomes"]


def _load_oracle():
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracle", ROOT / "perfbench" / "oracle.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()

# every signature of rank 2g + p <= 8 that has ADL generators
SIGS = [
    Signature(g, p)
    for g in range(0, 5)
    for p in range(0, 9 - 2 * g)
    if (g, p) not in ((0, 0), (0, 1))
]


def _images(endo) -> dict:
    return {b: w.codes for b, w in enumerate(endo.images, 1)}


@pytest.mark.parametrize("sig", SIGS, ids=[f"{s.g},{s.p}" for s in SIGS])
def test_generator_tables_match_the_oracle(sig):
    names = gen_set(sig, "adl")
    assert names
    for name in names:
        aut = generator(name, sig)
        for exp, endo in ((1, aut.fwd), (-1, aut.inv)):
            want = oracle.identity(sig)
            want.update(oracle.generator(sig, name.family, name.index, exp))
            assert _images(endo) == want, (name, exp)


def _tokens(text: str) -> list:
    """(family, index, exp) tokens of a generator word's text, "1" empty."""
    if text == "1":
        return []
    return [
        (t[0], int(t[1:].rstrip("'")), -1 if t.endswith("'") else 1)
        for t in text.split()
    ]


def test_golden_words_evaluate_to_their_inputs():
    entries = json.loads((GOLDEN / "factorize_words.json").read_text())
    assert {e["variant"] for e in entries} == {"adl", "adlh"}
    for e in entries:
        g, p = (int(n) for n in e["sig"].split(","))
        text = e["genword"]
        want = oracle.evaluate((g, p), _tokens(text))
        # the input as the package reads and evaluates it
        assert _images(eval_gen_word(parse_gen_word(text), Signature(g, p)).fwd) == want
        assert oracle.evaluate((g, p), _tokens(e["word"])) == want, text


# The bound must be set before any memo is made, but ``import surfaut.core``
# runs ``surfaut/__init__``, which imports every module and so makes every
# memo.  The package module is therefore made empty first, ``core`` imported
# into it, the bound set, and only then the package itself run.
CHILD = """
import importlib.util, runpy, sys
from contextlib import redirect_stdout

bound, out_dir, scripts = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
spec = importlib.util.find_spec("surfaut")
pkg = importlib.util.module_from_spec(spec)
sys.modules["surfaut"] = pkg
import surfaut.core as core

core.MEMO_SIZE = bound
spec.loader.exec_module(pkg)
bounds = {m.cache_info().maxsize for m in core._MEMOS if hasattr(m, "cache_info")}
assert bounds == {bound}, bounds
for script in scripts:
    name = script.rsplit("/", 1)[-1][len("make_"):-len(".py")]
    with open(f"{out_dir}/{name}.json", "w") as out, redirect_stdout(out):
        runpy.run_path(script, run_name="__main__")
print(len(core._MEMOS), max(len(m) for m in core._MEMOS if not hasattr(m, "cache_info")))
"""


@pytest.mark.parametrize("bound", [0, 1])
def test_goldens_without_memos(bound, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    scripts = [str(GOLDEN / f"make_{name}.py") for name in SCRIPTS]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(bound), str(tmp_path), *scripts],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # every ``_Memo`` held at most ``bound`` entries at the end
    memos, largest = (int(n) for n in proc.stdout.split())
    assert memos >= 20 and largest <= bound
    for name in SCRIPTS:
        got = (tmp_path / f"{name}.json").read_bytes()
        assert got == (GOLDEN / f"{name}.json").read_bytes(), name
