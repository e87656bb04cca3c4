"""Mapping-class relations as an oracle of the generator tables.

Every check of a factorisation folds the package's own generator tables, so
a table that is wrong but still an element of A would recompose every word
exactly.  Relations are a property of the group, written in no table, and
every expected value below is read off the rule alone, but for the one
named:

- twists about curves that meet once braid (aba = bab), and twists about
  disjoint curves commute (Artin; Lickorish; Humphries).  The curves of the
  ADL generators form a graph: a_i meets b_i, b_i meets g_i and g_(i+1),
  and s_j meets s_(j+1); g_1, which exists when p >= 1, runs round t_1 and
  meets b_1.  The curves of the half-twist s_2 and of g_1 both pass t_1,
  and they are neither disjoint nor do they meet once, so that pair does
  neither.  It has label 4 in the Artin-type presentation of the punctured
  groups (Labruere-Paris): x y x y = y x y x, which commuting pairs satisfy
  too and braiding pairs do not;
- the chain relation: a chain of 2g curves c_1 .. c_2g, here a1 b1 g2 b2 ..
  gg bg, satisfies (T_c1 .. T_c2g)^(4g+2) = the boundary twist, and the
  half-twists s_2 .. s_p around the p punctures satisfy (s_2 .. s_p)^p =
  the boundary twist (Farb & Margalit, *A Primer on Mapping Class Groups*,
  2012).  On the free group the boundary twist is the inner map u -> R' u R
  by the relator R;
- the chain relation on sub-surfaces.  A contiguous piece D of the relator
  bounds a sub-surface, and the twist about its boundary is u -> D' u D on
  the letters of D and fixes every other letter.  The even chain a1 b1 g2
  b2 .. gi bi of 2i curves gives (a1 b1 .. gi bi)^(4i+2) with D = [x1,y1]
  .. [xi,yi], and the puncture chain s2 .. sk gives (s2 .. sk)^k with D =
  tk .. t1; both rules were written down before any run.  The odd chain a1
  b1 g1 of three curves has two boundary curves, and (a1 b1 g1)^4 maps u ->
  D' u D on t1, x1, y1 with D = t1 x1' y1' x1 y1.  That D was read off one
  run, at (1,2), and not predicted;
- the torus with one boundary and the disc with three punctures have the
  same mapping-class group, the braid group B_3 = <u, v | u v u = v u v>:
  A_(1,0) is generated by the twists a1 and b1, whose curves meet once, and
  A_(0,3) by the half-twists s2 and s3, and a1 <-> s2, b1 <-> s3 is an
  isomorphism.  So a word and any factorisation of its value translate to
  words of equal value on the other side.
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
    commutator,
    compose,
    eval_gen_word,
    factorize_adl,
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


def _artin4(x, y) -> bool:
    return compose(x, y, x, y).fwd == compose(y, x, y, x).fwd


@pytest.mark.parametrize("sig", SIGS, ids=str)
def test_generator_pairs_commute_or_braid(sig):
    braids, neither = _meet_once(sig), _neither(sig)
    names = gen_set(sig)
    assert braids | neither <= {frozenset(p) for p in combinations(names, 2)}
    for m, n in combinations(names, 2):
        x, y = generator(m, sig), generator(n, sig)
        pair = frozenset((m, n))
        # (commute, braid, x y x y = y x y x)
        if pair in braids:
            expected = (False, True, False)
        elif pair in neither:
            expected = (False, False, True)
        else:
            expected = (True, False, True)
        assert (_commute(x, y), _braid(x, y), _artin4(x, y)) == expected, (sig, m, n)


def _assert_chain_relation(
    sig: Signature, chain: list[GenName], power: int, D: Word | None = None
) -> None:
    """The power ``power`` of the chain word ``chain`` is u -> D' u D on the
    letters of ``D`` and fixes every other letter; ``D`` is the relator R
    unless given.  The power is folded one factor at a time: the end value
    has at most about 2 rank |R| letters, and a wrong table makes the images
    grow exponentially, so each partial power is held to twice that size and
    a wrong table fails here instead of filling memory."""
    R = relator(sig)
    D = R if D is None else D
    C, T = eval_gen_word(GenWord.of(*chain), sig), Automorphism.identity(sig)
    for _ in range(power):
        T = compose(T, C)
        assert sum(len(w) for w in T.fwd.images) <= 4 * sig.rank * len(R), sig
    enclosed = {abs(c) for c in D.codes}
    for b in sig.basis_codes():
        u = Word(sig, (b,))
        assert T.apply(u) == (D.inverse() * u * D if b in enclosed else u), (sig, b)


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


def _commutators(sig: Signature, i: int) -> Word:
    """[x1,y1] .. [xi,yi], as the relator writes it."""
    D = Word.identity(sig)
    for j in range(1, i + 1):
        D = D * commutator(Word(sig, (sig.x_code(j),)), Word(sig, (sig.y_code(j),)))
    return D


@pytest.mark.parametrize(
    "sig, i", [(sig, i) for sig in SIGS for i in range(1, sig.g + 1)], ids=str)
def test_even_chain_twists_its_subsurface(sig, i):
    chain = [GenName("a", 1), GenName("b", 1)]
    for j in range(2, i + 1):
        chain += [GenName("g", j), GenName("b", j)]
    _assert_chain_relation(sig, chain, 4 * i + 2, _commutators(sig, i))


@pytest.mark.parametrize(
    "sig, k", [(sig, k) for sig in SIGS for k in range(2, sig.p + 1)], ids=str)
def test_puncture_chain_twists_its_subsurface(sig, k):
    chain = [GenName("s", j) for j in range(2, k + 1)]
    D = Word(sig, tuple(sig.t_code(j) for j in range(k, 0, -1)))
    _assert_chain_relation(sig, chain, k, D)


@pytest.mark.parametrize("sig", [sig for sig in SIGS if sig.g and sig.p], ids=str)
def test_odd_chain_twists_its_subsurface(sig):
    # D read off one run (see the module docstring)
    D = Word(sig, (sig.t_code(1),)) * _commutators(sig, 1)
    _assert_chain_relation(sig, [GenName("a", 1), GenName("b", 1), GenName("g", 1)], 4, D)


#: The isomorphism A_(1,0) -> A_(0,3) on generators, and its inverse.
_B3 = {GenName("a", 1): GenName("s", 2), GenName("b", 1): GenName("s", 3)}
_B3_INV = {s: a for a, s in _B3.items()}


@pytest.mark.parametrize(
    "source, target, names",
    [(Signature(1, 0), Signature(0, 3), _B3), (Signature(0, 3), Signature(1, 0), _B3_INV)],
    ids=["torus-to-disc", "disc-to-torus"],
)
def test_b3_isomorphism_carries_factorisations(source, target, names, rng):
    assert set(gen_set(source)) == set(names)
    assert set(gen_set(target)) == set(names.values())

    def translate(w: GenWord) -> GenWord:
        return GenWord(tuple((names[n], e) for n, e in w.tokens))

    letters = gen_set(source)
    nontrivial = 0
    for _ in range(300):
        w = GenWord(tuple(
            (rng.choice(letters), rng.choice((1, -1))) for _ in range(rng.randint(0, 14))))
        f = factorize_adl(eval_gen_word(w, source))
        nontrivial += bool(f.tokens)
        assert eval_gen_word(translate(f), target) == eval_gen_word(translate(w), target), w
    assert nontrivial > 250
