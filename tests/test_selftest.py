"""Every failure return of the selftest criteria, reached by patching one
engine step that the criterion reads, through ``surfaut selftest``: the
criterion's line reads FAIL with its message, and the command exits 1."""

import io
import itertools
import random
import re
from types import SimpleNamespace

import pytest

from surfaut import (
    Automorphism,
    Endomorphism,
    GenName,
    GenWord,
    GroupRingElement,
    Signature,
    Word,
)
from surfaut import selftest as st
from surfaut.cli import run

from conftest import SEED


def _always(value):
    """A stand-in for an engine step that always returns ``value``."""
    return lambda real: lambda *args: value


def _when(test, value):
    """A stand-in that returns ``value(*args)`` for the arguments that pass
    ``test`` and the real result for any other."""
    return lambda real: lambda *args: value(*args) if test(*args) else real(*args)


def _not_in_a(*args):
    return SimpleNamespace(permutes_t_classes=None, in_A=False)


def _nth_call_off(n):
    """``fox_derivative`` whose ``n``-th call (from 0) is off by one term.
    Criterion 9 first checks the basis rule on every pair of basis letters
    of (2,1); each trial then derives u v, u and v for the product rule,
    then u'."""
    n += Signature(2, 1).rank ** 2

    def make(real):
        calls = itertools.count()

        def fox(u, w):
            d = real(u, w)
            return d + GroupRingElement.of(Word.identity(u.sig)) if next(calls) == n else d

        return fox

    return make


A1, A3 = GenName("a", 1), GenName("a", 3)

#: (criterion, id, the selftest name patched, stand-in made from the real
#: value, detail)
FAULTS = [
    (1, "relator", "relator", lambda real: lambda sig: Word(sig, (1,) if sig.rank else ()),
     r"s2 at .* moves the relator"),
    (1, "membership", "membership", lambda real: _not_in_a, r".* fails membership"),
    (1, "witness", "compose", lambda real: lambda *maps: maps[0],
     r".* has a broken witness"),
    (2, "chain", "HUMPHRIES_IMAGES", lambda real: ("y1",) + real[1:],
     r"chain step 1 \(.*\) gave x1' y1'"),
    (2, "length", "humphries_rewrite", _always(GenWord.of(A1)),
     r"rewriting word has 1 tokens, wanted 33"),
    (2, "alpha_3", "_eval_fwd", lambda real: lambda w, sig: Endomorphism.identity(sig),
     r"rewriting word does not evaluate to alpha_3"),
    (2, "shifted", "_eval_fwd", _when(lambda w, sig: sig.g >= 4,
                                     lambda w, sig: Endomorphism.identity(sig)),
     r"shifted rewriting fails for alpha_3 at"),
    (2, "survives", "humphries_rewrite", _when(lambda i, sig: sig.g >= 4,
                                              lambda i, sig: GenWord.of(GenName("a", i))),
     r"alpha_\(>=3\) survives in the rewriting of alpha_3"),
    (3, "eta", "eta", _always(Automorphism.identity(Signature(3, 0))),
     r"eta moves x1' y1' x1 elsewhere"),
    (3, "commutes", "generator",
     lambda real: lambda name, sig: real(A1 if name == A3 else name, sig),
     r"alpha_1 \* eta != eta \* alpha_3"),
    (3, "membership", "membership", lambda real: _not_in_a, r"eta fails membership"),
    (3, "involution", "zeta_lift",
     _when(lambda s: s == Signature(0, 2), lambda s: st.generator(GenName("s", 2), s)),
     r"zeta lift is not an involution at"),
    (3, "reversal", "zeta_lift", _when(lambda s: s.p == 0, Automorphism.identity),
     r"zeta lift reverses the relator wrongly at"),
    (4, "measure", "mu_key", _always(0), r"measure failed to decrease at"),
    (4, "recomposition", "nielsen_reduce",
     lambda real: lambda V, phi: ([], real(V, phi)[1]), r"recomposition failed at"),
    (5, "relator", "canonical_edge",
     lambda real: lambda V: (Automorphism.identity(V.sig), []),
     r"canonical edge misses the relator at"),
    (5, "intermediate", "canonical_edge",
     lambda real: lambda V: (real(V)[0], [SimpleNamespace(after=Word(V.sig, (1,)))]),
     r"intermediate \S+ not Zieschang at"),
    (5, "pattern", "_check_canonical_patterns", _always("forced"), r"forced at .*, V = "),
    (6, "oracles", "forest_check_dfs", lambda real: lambda graph: not graph.is_forest(),
     r"oracles disagree at"),
    (7, "alpha_3", "factorize_adlh", _always(GenWord.of(A3)),
     r"alpha_\(>=3\) token at .* trial 0"),
    (8, "refused", "certify_automorphism", _always(None),
     r"certification refused a true automorphism at"),
    (8, "witness", "certify_automorphism",
     lambda real: lambda endo: Automorphism.identity(endo.sig),
     r"certification produced a bad witness at"),
    (8, "folding", "is_onto", _always(False),
     r"folding oracle refused a certified automorphism at"),
    (8, "zeta", "zeta_lift", lambda real: Automorphism.identity,
     r"zeta lift passed the preconditions at"),
    (9, "basis", "fox_derivative", lambda real: lambda u, w: GroupRingElement.zero(u.sig),
     r"basis rule failed"),
    (9, "product", "fox_derivative", _nth_call_off(0), r"product rule failed on trial 0"),
    (9, "inverse", "fox_derivative", _nth_call_off(3), r"inverse rule failed on trial 0"),
]


@pytest.mark.parametrize(
    "index,name,make,detail",
    [fault[:1] + fault[2:] for fault in FAULTS],
    ids=[f"{fault[0]}-{fault[1]}" for fault in FAULTS],
)
def test_failure_return(index, name, make, detail, monkeypatch):
    monkeypatch.setattr(st, name, make(getattr(st, name)))
    out, err = io.StringIO(), io.StringIO()
    code = run(["selftest", "--samples", "1", "--seed", str(SEED),
                "--criteria", str(index)], out, err)
    line = out.getvalue()
    assert code == 1 and err.getvalue() == ""
    criterion = st.CRITERIA[index - 1][0]
    assert re.fullmatch(rf"FAIL \[{index}\] {criterion}: {detail}.* \(\d+\.\ds\)\n", line), line


def test_every_criterion_has_a_failure():
    assert {fault[0] for fault in FAULTS} == set(range(1, len(st.CRITERIA) + 1))


CANONICAL_PATTERNS = [
    # (signature, V, moved images of phi, message)
    ((1, 0), (-1, -2, 1, 2), {1: (-2, 1)}, "first letter does not map to x1'"),
    ((1, 0), (-1, -2, 1, 2), {2: (2, 1)}, "enclosed segment does not map to y1'"),
    ((1, 1), (-2, -3, 2, 3, 1), {1: (1, 1)}, "conjugated puncture letter does not map to t1"),
    ((1, 1), (1, -3, -2, 3, 2), {}, "letter after t1 does not map to x1'"),
    ((1, 1), (1, -2, -3, 2, 3), {3: (3, 2)}, "segment after t1 does not map to y1'"),
    ((0, 2), (1, 2), {}, "first conjugated puncture letter misses t_p"),
    ((0, 2), (2, 1), {1: (1, 1)}, "second conjugated puncture letter misses t_(p-1)"),
]


@pytest.mark.parametrize("sig,codes,moved,message", CANONICAL_PATTERNS,
                         ids=[m for *_, m in CANONICAL_PATTERNS])
def test_canonical_pattern_failures(sig, codes, moved, message):
    sig = Signature(*sig)
    phi = Endomorphism.from_map(sig, {b: Word(sig, img) for b, img in moved.items()})
    assert st._check_canonical_patterns(Word(sig, codes), phi) == message


def test_candidate_words_match_the_validating_construction():
    # a shuffle with no adjacent inverse pair is exactly one that free
    # reduction leaves at full length, so the same shuffles are kept and
    # the random stream is the same
    def validated(sig, rng):
        while True:
            w = Word(sig, st.random_candidate(sig, rng))
            if len(w) == sig.chain_len:
                return w

    for sig in list(st.GRID) + [Signature(3, 1), Signature(0, 1)]:
        for seed in range(40):
            old, new = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert st.random_candidate_word(sig, new) == validated(sig, old)
            assert new.getstate() == old.getstate()
