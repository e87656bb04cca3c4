"""The benchmark's workloads: seeded inputs, the timed call, the output check.

Inputs are built with ``oracle`` and handed to ``surfaut`` only through its
public constructors, so ``surfaut`` sees nothing but the generated values.
Each check runs after the timed phase and uses ``oracle``, not the code it
checks.  Every workload draws from its own ``random.Random`` seeded with the
workload name and the seed, so a case replays from (workload, seed, index).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

import surfaut as S
from surfaut.whitehead import forest_check_dfs

import oracle as O


@dataclass
class Case:
    sig: tuple[int, int]
    index: int
    text: str  # the generator word(s) the input was made from, for replay
    data: dict


def adl_names(sig) -> list[tuple[str, int]]:
    g, p = sig
    names = [("s", j) for j in range(2, p + 1)]
    names += [("a", i) for i in range(1, g + 1)]
    names += [("b", i) for i in range(1, g + 1)]
    names += [("g", i) for i in range(max(2 - p, 1), g + 1)]
    return names


def random_tokens(sig, rng: random.Random, length: int) -> list[tuple[str, int, int]]:
    """A freely reduced ADL generator word of exactly ``length`` tokens."""
    names = adl_names(sig)
    out: list[tuple[str, int, int]] = []
    while len(out) < length:
        family, index = rng.choice(names)
        exp = rng.choice((1, -1))
        if out and out[-1] == (family, index, -exp):
            continue
        out.append((family, index, exp))
    return out


def token_text(tokens) -> str:
    return " ".join(f"{f}{i}" + ("'" if e < 0 else "") for f, i, e in tokens)


def _endo(sig, images: O.Map) -> S.Endomorphism:
    s = S.Signature(*sig)
    return S.Endomorphism(s, tuple(S.Word(s, images[b]) for b in sorted(images)))


def _images(endo) -> O.Map:
    return {b: w.codes for b, w in enumerate(endo.images, 1)}


def random_candidate(sig, rng: random.Random) -> tuple[int, ...]:
    """A freely reduced arrangement of the candidate letters."""
    while True:
        codes = O.candidate_letters(sig)
        rng.shuffle(codes)
        if O.reduce(codes) == tuple(codes):
            return tuple(codes)


# -- factorisation ---------------------------------------------------------


def _make_factorization(sig, index: int, rng: random.Random, length: int) -> Case:
    tokens = random_tokens(sig, rng, length)
    fwd = O.evaluate(sig, tokens)
    inv = O.evaluate(sig, [(f, i, -e) for f, i, e in reversed(tokens)])
    aut = S.Automorphism(_endo(sig, fwd), _endo(sig, inv))
    return Case(sig, index, token_text(tokens), {"aut": aut, "fwd": fwd})


def _word_tokens(word) -> list[tuple[str, int, int]]:
    return [(name.family, name.index, exp) for name, exp in word.tokens]


def check_factorization(case: Case, word, adlh: bool) -> Optional[str]:
    tokens = _word_tokens(word)
    if adlh and any(f == "a" and i >= 3 for f, i, _ in tokens):
        return "ADLH word uses an alpha_i with i >= 3"
    try:
        got = O.evaluate(case.sig, tokens)
    except ValueError as exc:
        return f"word has a token outside the generating set: {exc}"
    if got != case.data["fwd"]:
        return "word does not recompose to the input"
    return None


# -- verification ----------------------------------------------------------


def zeta_images(sig) -> O.Map:
    """x_i <-> y_(g+1-i), t_j -> t_(p+1-j)'; it reverses the relator, so
    certification must refuse it as a precondition failure."""
    g, p = sig
    m = {j: (-(p + 1 - j),) for j in range(1, p + 1)}
    for i in range(1, g + 1):
        m[O.x(sig, i)] = (O.y(sig, g + 1 - i),)
        m[O.y(sig, i)] = (O.x(sig, g + 1 - i),)
    return m


def _make_verification(sig, index: int, rng: random.Random, length: int) -> Case:
    tokens = random_tokens(sig, rng, length)
    fwd = O.evaluate(sig, tokens)
    while True:
        V = random_candidate(sig, rng)
        if O.union_find_forest(sig, V):
            break
    C = random_candidate(sig, rng)
    s = S.Signature(*sig)
    data = {
        "endo": _endo(sig, fwd),
        "fwd": fwd,
        "V": S.Word(s, V),
        "C": S.Word(s, C),
        "C_forest": O.union_find_forest(sig, C),
        "zeta": _endo(sig, zeta_images(sig)),
    }
    text = f"map {token_text(tokens)}; V {S.Word(s, V)}; C {S.Word(s, C)}"
    return Case(sig, index, text, data)


def run_verification(case: Case):
    d = case.data
    sig = d["V"].sig
    cert = S.certify_automorphism(d["endo"])
    phi, _ = S.canonical_edge(d["V"])
    verdict = S.is_zieschang(d["C"], sig)
    try:
        S.certify_automorphism(d["zeta"])
        rejected = False
    except S.HypothesisViolated:
        rejected = True
    return cert, phi, verdict, rejected


def check_verification(case: Case, out) -> Optional[str]:
    cert, phi, verdict, rejected = out
    d = case.data
    if cert is None:
        return "certification refused an automorphism"
    fwd, inv = _images(cert.fwd), _images(cert.inv)
    if fwd != d["fwd"]:
        return "certificate fwd differs from the input map"
    if not (O.is_identity(O.then(fwd, inv)) and O.is_identity(O.then(inv, fwd))):
        return "certificate inverse is not an inverse"
    if O.apply(_images(phi.fwd), d["V"].codes) != O.relator(case.sig):
        return "canonical edge does not carry V onto the relator"
    if not O.is_identity(O.then(_images(phi.fwd), _images(phi.inv))):
        return "canonical edge inverse is not an inverse"
    dfs = forest_check_dfs(S.build_graph(d["C"], d["C"].sig))
    if verdict != d["C_forest"] or verdict != dfs:
        return f"is_zieschang gave {verdict}, forest checks give {d['C_forest']}/{dfs}"
    if not rejected:
        return "certification accepted the relator-reversing zeta lift"
    return None


def verification_tokens(out) -> int:
    cert, phi, _, _ = out
    return sum(len(w) for w in cert.inv.images) + sum(len(w) for w in phi.fwd.images)


@dataclass(frozen=True)
class Workload:
    name: str
    signatures: tuple[tuple[int, int], ...]  # cycled through, one case each
    lengths: tuple[int, ...]  # input generator-word length per signature slot
    pool: int  # cases generated in set-up; the timed loop stops if it runs out
    min_cases: int  # the timed loop runs at least this many cases
    make: Callable[..., Case]
    run: Callable[[Case], Any]
    check: Callable[[Case, Any], Optional[str]]
    tokens: Callable[[Any], int]

    def generate(self, seed: int) -> Iterator[Case]:
        rng = random.Random(f"{self.name}:{seed}")
        n = len(self.signatures)
        for k in itertools.count():
            yield self.make(self.signatures[k % n], k, rng, self.lengths[k % n])

    def cases(self, seed: int, count: Optional[int] = None) -> list[Case]:
        return list(itertools.islice(self.generate(seed), count or self.pool))


GRID = ((0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0))

WORKLOADS = {
    w.name: w
    for w in (
        # The constructive path: reduce, telescope, peel, recurse, with inputs
        # sharing many canonical edges and sub-factorisations.  Equal-length
        # words would cost thousands of times more at (3,0) than at (0,2), so
        # words shorten with the signature and every signature keeps a share
        # of the time; 6-token words at (3,0) still take seconds at worst.
        Workload(
            name="adl-grid",
            signatures=GRID,
            lengths=(12, 12, 12, 12, 10, 10, 8, 6),
            pool=1000,
            min_cases=256,
            make=_make_factorization,
            run=lambda case: S.factorize_adl(case.data["aut"]),
            check=lambda case, out: check_factorization(case, out, adlh=False),
            tokens=len,
        ),
        # Humphries rewriting and flat-word evaluation dominate: alpha_3 and
        # alpha_4 expand to 33 and 147 tokens, outputs to thousands.  Inputs
        # are short because single cases are slow: 3-token inputs at (3,0)
        # take up to 9 s, and of the 2-token inputs at (4,0) b4' g4' alone
        # takes 43 s, so (4,0) gets single generators.  adl-grid is the
        # control.
        Workload(
            name="adlh-high-genus",
            signatures=((3, 0), (3, 0), (4, 0)),
            lengths=(3, 3, 1),
            pool=1200,
            min_cases=250,
            make=_make_factorization,
            run=lambda case: S.factorize_adlh(case.data["aut"]),
            check=lambda case, out: check_factorization(case, out, adlh=True),
            tokens=len,
        ),
        # The decision path off the grid: no factorisation and no generator
        # word evaluation, inputs that share almost nothing, a narrow tail,
        # and rejections with known verdicts.
        Workload(
            name="verify-beyond-grid",
            signatures=((2, 4), (3, 2), (4, 0), (5, 1)),
            lengths=(10, 10, 10, 10),
            pool=1200,
            min_cases=400,
            make=_make_verification,
            run=run_verification,
            check=check_verification,
            tokens=verification_tokens,
        ),
    )
}
