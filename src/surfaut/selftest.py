"""Seeded acceptance checks, shared by the CLI selftest and the test suite.

All randomness flows from one 64-bit seed through ``random.Random`` (the
stdlib Mersenne Twister), so any failure replays exactly from the same
seed.  Every check is exact equality in the free group; there are no
tolerances anywhere.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .core import Signature, Word, _word, fox_derivative, parse_word, relator
from .endo import Automorphism, compose, membership
from .errors import HypothesisViolated
from .factorize import factorize_adl, factorize_adlh
from .gens import (
    HUMPHRIES_CHAIN,
    GenName,
    GenWord,
    _eval_fwd,
    eta,
    eval_gen_word,
    gen_set,
    generator,
    humphries_rewrite,
    zeta_lift,
)
from .groupoid import canonical_edge, certify_automorphism, mu_key, nielsen_reduce
from .whitehead import build_graph, forest_check_dfs, is_onto, is_zieschang

#: Signatures exercised by the randomized criteria.
GRID = tuple(
    Signature(g, p)
    for g, p in [(0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]
)


@dataclass
class CriterionResult:
    index: int
    name: str
    ok: bool
    detail: str
    seconds: float

    def line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return f"{verdict} [{self.index}] {self.name}: {self.detail} ({self.seconds:.1f}s)"


def random_gen_word(sig: Signature, rng: random.Random, max_tokens: int) -> GenWord:
    names = gen_set(sig, "adl")
    n = rng.randint(0, max_tokens)
    return GenWord(tuple((rng.choice(names), rng.choice((1, -1))) for _ in range(n)))


def random_adl_automorphism(
    sig: Signature, rng: random.Random, max_tokens: int
) -> Automorphism:
    return eval_gen_word(random_gen_word(sig, rng, max_tokens), sig)


def candidate_letters(sig: Signature) -> list[int]:
    codes = [sig.t_code(j) for j in range(1, sig.p + 1)]
    for i in range(1, sig.g + 1):
        codes += [sig.x_code(i), -sig.x_code(i), sig.y_code(i), -sig.y_code(i)]
    return codes


def random_candidate(sig: Signature, rng: random.Random) -> tuple[int, ...]:
    codes = candidate_letters(sig)
    rng.shuffle(codes)
    return tuple(codes)


def random_candidate_word(sig: Signature, rng: random.Random) -> Word:
    """Random reduced arrangement of the exact candidate letter multiset: a
    shuffle is kept when no letter stands next to its inverse."""
    while True:
        codes = random_candidate(sig, rng)
        if all(a != -b for a, b in zip(codes, codes[1:])):
            return _word(sig, codes)


def random_zieschang(sig: Signature, rng: random.Random) -> Word:
    while True:
        w = random_candidate_word(sig, rng)
        if is_zieschang(w, sig):
            return w


def random_word(sig: Signature, rng: random.Random, max_len: int) -> Word:
    n = rng.randint(0, max_len)
    codes = [rng.choice((1, -1)) * rng.randint(1, sig.rank) for _ in range(n)]
    return Word(sig, tuple(codes))


def _small_signatures(bound: int) -> list[Signature]:
    out = []
    for g in range(0, bound // 2 + 1):
        for p in range(0, bound - 2 * g + 1):
            out.append(Signature(g, p))
    return out


# -- criteria ------------------------------------------------------------------


def criterion_1_generators(seed: int, samples: Optional[int] = None) -> tuple[bool, str]:
    checked = 0
    for sig in _small_signatures(8):
        v0 = relator(sig)
        for name in gen_set(sig, "adl"):
            aut = generator(name, sig)
            if aut.apply(v0) != v0:
                return False, f"{name} at {sig} moves the relator"
            rep = membership(aut)
            if rep.permutes_t_classes is None or not rep.in_A:
                return False, f"{name} at {sig} fails membership"
            if not compose(aut, aut.inverse()).is_identity():
                return False, f"{name} at {sig} has a broken witness"
            checked += 1
    return True, f"{checked} generators over signatures with 2g+p <= 8"


#: The sixteen intermediate images of x1' y1' x1 along the Humphries chain.
HUMPHRIES_IMAGES = (
    "x1' y1'",
    "x1' x2' y2' x2",
    "x1' x2' y2'",
    "x1' x2'",
    "x1' x2' y2 x3' y3' x3",
    "x1' x2' y2 x3' y3'",
    "x1' y2 x3' y3'",
    "x1' x3'",
    "x1' y1 x2' y2' x2 x3'",
    "x1' y1 x2' y2' x3'",
    "y1 x2' y2' x3'",
    "x2' x3'",
    "x2' y2 x3'",
    "y2 x3'",
    "x3' y3",
    "y3",
)


def criterion_2_humphries(seed: int, samples: Optional[int] = None) -> tuple[bool, str]:
    sig = Signature(3, 0)
    cur = parse_word(sig, "x1' y1' x1")
    for step, (name, expected) in enumerate(zip(HUMPHRIES_CHAIN, HUMPHRIES_IMAGES), 1):
        cur = generator(name, sig).apply(cur)
        if cur != parse_word(sig, expected):
            return False, f"chain step {step} ({name}) gave {cur}"
    word = humphries_rewrite(3, sig)
    if len(word.tokens) != 33:
        return False, f"rewriting word has {len(word.tokens)} tokens, wanted 33"
    if _eval_fwd(word, sig) != generator(GenName("a", 3), sig).fwd:
        return False, "rewriting word does not evaluate to alpha_3"
    for g in (4, 5):
        big = Signature(g, 0)
        for i in range(3, g + 1):
            w = humphries_rewrite(i, big)
            if _eval_fwd(w, big) != generator(GenName("a", i), big).fwd:
                return False, f"shifted rewriting fails for alpha_{i} at {big}"
            if any(n.family == "a" and n.index >= 3 for n, _ in w.tokens):
                return False, f"alpha_(>=3) survives in the rewriting of alpha_{i}"
    return True, "16-step chain verbatim; rewritings evaluate exactly for g = 3, 4, 5"


def criterion_3_eta_zeta(seed: int, samples: Optional[int] = None) -> tuple[bool, str]:
    sig = Signature(3, 0)
    h = eta()
    probe = parse_word(sig, "x1' y1' x1")
    if h.apply(probe) != parse_word(sig, "y3"):
        return False, "eta moves x1' y1' x1 elsewhere"
    a1 = generator(GenName("a", 1), sig)
    a3 = generator(GenName("a", 3), sig)
    if compose(a1, h).fwd != compose(h, a3).fwd:
        return False, "alpha_1 * eta != eta * alpha_3"
    if not membership(h).in_A:
        return False, "eta fails membership"
    for g in range(0, 6):
        for p in range(0, 3):
            s = Signature(g, p)
            z = zeta_lift(s)
            if not compose(z, z).is_identity():
                return False, f"zeta lift is not an involution at {s}"
        s0 = Signature(g, 0)
        z = zeta_lift(s0)
        expect = []
        for i in range(g, 0, -1):
            x, y = s0.x_code(i), s0.y_code(i)
            expect += [-y, -x, y, x]
        if z.apply(relator(s0)) != Word(s0, tuple(expect)):
            return False, f"zeta lift reverses the relator wrongly at {s0}"
    return True, "eta identities exact; zeta lift involutive and relator-reversing"


def criterion_4_reduction(seed: int, samples: Optional[int] = None) -> tuple[bool, str]:
    n_samples = samples if samples is not None else 100
    rng = random.Random(seed)
    total_edges = 0
    for sig in GRID:
        v0 = relator(sig)
        for trial in range(n_samples):
            a = random_adl_automorphism(sig, rng, 12)
            edges, n1 = nielsen_reduce(v0, a.fwd)
            # recomputed from the returned edges, not read back from the engine
            cur = a.fwd
            for e in edges:
                nxt = compose(e.aut.inv, cur)
                if not mu_key(nxt) < mu_key(cur):
                    return False, f"measure failed to decrease at {sig} trial {trial}"
                cur = nxt
            parts = [e.aut for e in edges] + [n1.aut]
            if compose(*parts).fwd != a.fwd:
                return False, f"recomposition failed at {sig} trial {trial}"
            total_edges += len(edges)
    return True, f"{len(GRID) * n_samples} reductions, {total_edges} edges, measure strictly decreasing"


def _check_canonical_patterns(V: Word, phi) -> Optional[str]:
    sig = V.sig
    codes = V.codes
    t_pos = [i for i, c in enumerate(codes) if sig.is_t_code(c)]
    if sig.p == 0 and sig.g >= 1:
        a = codes[0]
        j = codes.index(-a)
        p_word = Word(sig, codes[1:j])
        if phi.apply(Word(sig, (a,))) != Word(sig, (-sig.x_code(1),)):
            return "first letter does not map to x1'"
        if phi.apply(p_word) != Word(sig, (-sig.y_code(1),)):
            return "enclosed segment does not map to y1'"
    if sig.p == 1:
        t1 = sig.t_code(1)
        pos = codes.index(t1)
        conj = Word(sig, (t1,)).conjugate_by(Word(sig, codes[:pos]).inverse())
        if phi.apply(conj) != Word(sig, (t1,)):
            return "conjugated puncture letter does not map to t1"
        if pos == 0 and sig.g >= 1:
            a = codes[1]
            j = codes.index(-a)
            if phi.apply(Word(sig, (a,))) != Word(sig, (-sig.x_code(1),)):
                return "letter after t1 does not map to x1'"
            if phi.apply(Word(sig, codes[2:j])) != Word(sig, (-sig.y_code(1),)):
                return "segment after t1 does not map to y1'"
    if sig.p >= 2:
        i1, i2 = t_pos[0], t_pos[1]
        p_word = Word(sig, codes[:i1])
        q_word = Word(sig, codes[i1 + 1 : i2])
        c1 = Word(sig, (codes[i1],)).conjugate_by(p_word.inverse())
        c2 = Word(sig, (codes[i2],)).conjugate_by((p_word * q_word).inverse())
        if phi.apply(c1) != Word(sig, (sig.t_code(sig.p),)):
            return "first conjugated puncture letter misses t_p"
        if phi.apply(c2) != Word(sig, (sig.t_code(sig.p - 1),)):
            return "second conjugated puncture letter misses t_(p-1)"
    return None


def criterion_5_canonical(seed: int, samples: Optional[int] = None) -> tuple[bool, str]:
    n_samples = samples if samples is not None else 1000
    rng = random.Random(seed)
    checked = 0
    for sig in GRID:
        v0 = relator(sig)
        for trial in range(n_samples):
            V = random_zieschang(sig, rng)
            phi, steps = canonical_edge(V)
            if phi.apply(V) != v0:
                return False, f"canonical edge misses the relator at {sig}, V = {V}"
            for rec in steps:
                if not is_zieschang(rec.after, sig):
                    return False, f"intermediate {rec.after} not Zieschang at {sig}"
            err = _check_canonical_patterns(V, phi)
            if err:
                return False, f"{err} at {sig}, V = {V}"
            checked += 1
    return True, f"{checked} canonical edges verified with pattern properties"


def criterion_6_recognition(seed: int, samples: Optional[int] = None) -> tuple[bool, str]:
    n_samples = samples if samples is not None else 10000
    rng = random.Random(seed)
    agree = 0
    for sig in GRID:
        for _ in range(n_samples):
            w = random_candidate_word(sig, rng)
            graph = build_graph(w, sig)
            forest = graph.is_forest()
            if forest != forest_check_dfs(graph) or forest != is_zieschang(w, sig):
                return False, f"oracles disagree at {sig} on {w}"
            agree += 1
    return True, f"{agree} candidates, union-find and DFS verdicts identical"


def criterion_7_factorization(seed: int, samples: Optional[int] = None) -> tuple[bool, str]:
    n_samples = samples if samples is not None else 100
    rng = random.Random(seed)
    total_tokens = 0
    for sig in GRID:
        for trial in range(n_samples):
            a = random_adl_automorphism(sig, rng, 12)
            w = factorize_adl(a)
            if _eval_fwd(w, sig) != a.fwd:
                return False, f"ADL recomposition failed at {sig} trial {trial}"
            wh = factorize_adlh(a)
            if any(n.family == "a" and n.index >= 3 for n, _ in wh.tokens):
                return False, f"alpha_(>=3) token at {sig} trial {trial}"
            if _eval_fwd(wh, sig) != a.fwd:
                return False, f"ADLH recomposition failed at {sig} trial {trial}"
            total_tokens += len(w.tokens)
    return True, (
        f"{len(GRID) * n_samples} round-trips exact, no coset violations, "
        f"{total_tokens} ADL tokens emitted"
    )


def criterion_8_certification(seed: int, samples: Optional[int] = None) -> tuple[bool, str]:
    n_samples = samples if samples is not None else 100
    rng = random.Random(seed)
    certified = 0
    for sig in GRID:
        for trial in range(n_samples):
            a = random_adl_automorphism(sig, rng, 10)
            cert = certify_automorphism(a.fwd)  # witness stripped
            if cert is None:
                return False, f"certification refused a true automorphism at {sig}"
            if cert.fwd != a.fwd or not compose(cert, cert.inverse()).is_identity():
                return False, f"certification produced a bad witness at {sig}"
            # the Stallings-folding oracle shares no code with peak reduction
            if not (is_onto(cert.fwd) and is_onto(cert.inv)):
                return False, f"folding oracle refused a certified automorphism at {sig}"
            certified += 1
        bad = zeta_lift(sig).fwd
        try:
            certify_automorphism(bad)
            return False, f"zeta lift passed the preconditions at {sig}"
        except HypothesisViolated:
            pass
    return True, f"{certified} automorphisms re-certified; precondition failures rejected"


def criterion_9_fox(seed: int, samples: Optional[int] = None) -> tuple[bool, str]:
    n_samples = samples if samples is not None else 10000
    rng = random.Random(seed)
    sig = Signature(2, 1)
    for b in sig.basis_codes():
        for c in sig.basis_codes():
            expect = 1 if b == c else 0
            d = fox_derivative(Word(sig, (b,)), c)
            want = {Word.identity(sig): 1} if expect else {}
            if d.terms != want:
                return False, "basis rule failed"
    for trial in range(n_samples):
        u = random_word(sig, rng, 12)
        v = random_word(sig, rng, 12)
        w = rng.randint(1, sig.rank)
        lhs = fox_derivative(u * v, w)
        rhs = fox_derivative(u, w).right_mul(v) + fox_derivative(v, w)
        if lhs != rhs:
            return False, f"product rule failed on trial {trial}"
        inv = fox_derivative(u.inverse(), w)
        if inv != -(fox_derivative(u, w).right_mul(u.inverse())):
            return False, f"inverse rule failed on trial {trial}"
    return True, f"product and inverse rules on {n_samples} pairs, basis rule exact"


CRITERIA: tuple[tuple[str, Callable], ...] = (
    ("generator membership", criterion_1_generators),
    ("humphries suite", criterion_2_humphries),
    ("eta and zeta identities", criterion_3_eta_zeta),
    ("nielsen reduction round-trip", criterion_4_reduction),
    ("canonical edges", criterion_5_canonical),
    ("zieschang recognition oracles", criterion_6_recognition),
    ("factorization round-trip", criterion_7_factorization),
    ("certification", criterion_8_certification),
    ("fox calculus", criterion_9_fox),
)


def run_criterion(index: int, seed: int, samples: Optional[int] = None) -> CriterionResult:
    name, fn = CRITERIA[index - 1]
    start = time.time()
    ok, detail = fn(seed, samples)
    return CriterionResult(index, name, ok, detail, time.time() - start)


def run_all(seed: int, samples: Optional[int] = None, indices=None) -> list[CriterionResult]:
    picks = indices if indices else range(1, len(CRITERIA) + 1)
    return [run_criterion(i, seed, samples) for i in picks]
