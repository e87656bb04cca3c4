"""Mapping-class relations as an oracle of the generator tables.

Every check of a factorisation folds the package's own generator tables, so
a table that is wrong but still an element of A would recompose every word
exactly.  Relations are a property of the group, written in no table, and
every expected value below is read off the rule alone:

- twists about curves that meet once braid (aba = bab), and twists about
  disjoint curves commute (Artin; Lickorish; Humphries).  The curves of the
  ADL generators form a graph: a_i meets b_i, b_i meets g_i and g_(i+1),
  and s_j meets s_(j+1); g_1, which exists when p >= 1, runs round t_1 and
  meets b_1.  The curves of the half-twist s_2 and of g_1 both pass t_1,
  and they are neither disjoint nor do they meet once, so that pair does
  neither;
- the chain relation: a chain of 2g curves c_1 .. c_2g, here a1 b1 g2 b2 ..
  gg bg, satisfies (T_c1 .. T_c2g)^(4g+2) = the boundary twist, and the
  half-twists s_2 .. s_p around the p punctures satisfy (s_2 .. s_p)^p =
  the boundary twist (Farb & Margalit, *A Primer on Mapping Class Groups*,
  2012).  On the free group the boundary twist is the inner map u -> R' u R
  by the relator R.
"""

from functools import partial
from itertools import combinations

import pytest

from surfaut import (
    Automorphism,
    GenName,
    GenWord,
    Signature,
    Word,
    compose,
    eval_gen_word,
    gen_set,
    generator,
    relator,
)

#: Every signature with 2g + p <= 8 whose group is not trivial.
SIGS = [
    Signature(g, p)
    for g in range(5)
    for p in range(9 - 2 * g)
    if (g, p) not in ((0, 0), (0, 1))
]


def _meet_once(sig: Signature) -> set[frozenset]:
    """The pairs of ADL generators whose curves meet once, by the rule."""
    s, a, b, g = (partial(GenName, f) for f in "sabg")
    edges = [(s(j), s(j + 1)) for j in range(2, sig.p)]
    for i in range(1, sig.g + 1):
        edges.append((a(i), b(i)))
        if i >= 2 or sig.p >= 1:
            edges.append((b(i), g(i)))
        if i >= 2:
            edges.append((b(i - 1), g(i)))
    return {frozenset(e) for e in edges}


def _neither(sig: Signature) -> set[frozenset]:
    """The pairs that neither commute nor braid, by the rule: (s2, g1)."""
    if sig.g >= 1 and sig.p >= 2:
        return {frozenset((GenName("s", 2), GenName("g", 1)))}
    return set()


def _commute(x, y) -> bool:
    return compose(x, y).fwd == compose(y, x).fwd


def _braid(x, y) -> bool:
    return compose(x, y, x).fwd == compose(y, x, y).fwd


@pytest.mark.parametrize("sig", SIGS, ids=str)
def test_generator_pairs_commute_or_braid(sig):
    braids, neither = _meet_once(sig), _neither(sig)
    names = gen_set(sig)
    assert braids | neither <= {frozenset(p) for p in combinations(names, 2)}
    for m, n in combinations(names, 2):
        x, y = generator(m, sig), generator(n, sig)
        pair = frozenset((m, n))
        if pair in braids:
            expected = (False, True)
        elif pair in neither:
            expected = (False, False)
        else:
            expected = (True, False)
        assert (_commute(x, y), _braid(x, y)) == expected, (sig, m, n)


def _assert_chain_relation(sig: Signature, chain: list[GenName], power: int) -> None:
    """The power ``power`` of the chain word ``chain`` is u -> R' u R.  The
    power is folded one factor at a time: that end value has about 2 rank |R|
    letters, and a wrong table makes the images grow exponentially, so each
    partial power is held to twice that size and a wrong table fails here
    instead of filling memory."""
    R = relator(sig)
    C, T = eval_gen_word(GenWord.of(*chain), sig), Automorphism.identity(sig)
    for _ in range(power):
        T = compose(T, C)
        assert sum(len(w) for w in T.fwd.images) <= 4 * sig.rank * len(R), sig
    for b in sig.basis_codes():
        u = Word(sig, (b,))
        assert T.apply(u) == R.inverse() * u * R, (sig, b)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_chain_relation_closed_surface(g):
    chain = [GenName("a", 1), GenName("b", 1)]
    for i in range(2, g + 1):
        chain += [GenName("g", i), GenName("b", i)]
    _assert_chain_relation(Signature(g, 0), chain, 4 * g + 2)


@pytest.mark.parametrize("p", range(2, 9))
def test_chain_relation_punctured_sphere(p):
    chain = [GenName("s", j) for j in range(2, p + 1)]
    _assert_chain_relation(Signature(0, p), chain, p)
