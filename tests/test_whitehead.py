import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfaut import (
    Endomorphism,
    NotACandidate,
    Signature,
    Word,
    build_graph,
    canonical_edge,
    certify_automorphism,
    compose,
    fox_derivative,
    is_zieschang,
    membership,
    parse_word,
    relator,
    to_dot,
)
from surfaut.selftest import (
    GRID,
    candidate_letters,
    random_adl_automorphism,
    random_candidate,
    random_candidate_word,
)
from surfaut import core, whitehead
from surfaut.core import MEMO_SIZE
from surfaut.whitehead import _chain_line, forest_check_dfs, is_onto

from conftest import SMALL_SIGS

S10 = Signature(1, 0)
S11 = Signature(1, 1)


class TestBuildGraph:
    @pytest.mark.parametrize("sig", SMALL_SIGS)
    def test_relator_line(self, sig):
        graph = build_graph(relator(sig), sig)
        line = _chain_line(sig, relator(sig).codes)
        expect = []
        for j in range(sig.p, 0, -1):
            expect += [-sig.t_code(j), sig.t_code(j)]
        for i in range(1, sig.g + 1):
            expect += [sig.x_code(i), -sig.y_code(i), -sig.x_code(i), sig.y_code(i)]
        assert line == expect
        assert len(graph.edges) == 4 * sig.g + 2 * sig.p - 1

    def test_cycle_example(self):
        V = parse_word(S11, "x1 y1 t1 y1' x1'")
        graph = build_graph(V, S11)
        x1, y1 = S11.x_code(1), S11.y_code(1)
        assert (x1, -y1) in graph.edges and (-y1, x1) in graph.edges
        assert not graph.is_forest()

    def test_two_puncture_path(self):
        sig = Signature(0, 2)
        graph = build_graph(parse_word(sig, "t1 t2"), sig)
        assert _chain_line(sig, (1, 2)) == [-1, 1, -2, 2]
        assert graph.is_forest()

    def test_cycle_leaves_a_short_line(self):
        # no edge leaves x1', the first vertex; the other five lie on the
        # cycles t1' -> t1 -> y1 -> t1' and x1 -> y1' -> x1
        V = parse_word(S11, "x1 y1 t1 y1' x1'")
        assert not forest_check_dfs(build_graph(V, S11))
        assert _chain_line(S11, V.codes) == [-S11.x_code(1)]

    def test_degree_bounds(self, rng):
        for sig in SMALL_SIGS:
            for _ in range(50):
                graph = build_graph(random_candidate_word(sig, rng), sig)
                indeg, outdeg = {}, {}
                for a, b in graph.edges:
                    outdeg[a] = outdeg.get(a, 0) + 1
                    indeg[b] = indeg.get(b, 0) + 1
                assert all(d <= 1 for d in outdeg.values())
                assert all(d <= 1 for d in indeg.values())
                assert len(graph.edges) == 4 * sig.g + 2 * sig.p - 1

    def test_rejects_wrong_length(self):
        with pytest.raises(NotACandidate):
            build_graph(parse_word(S10, "x1"), S10)

    def test_rejects_inverted_puncture(self):
        sig = Signature(0, 2)
        with pytest.raises(NotACandidate, match="t1"):
            build_graph(parse_word(sig, "t2 t1'"), sig)

    def test_rejects_doubled_letter(self):
        with pytest.raises(NotACandidate):
            build_graph(parse_word(S10, "x1 y1 x1 y1"), S10)


class TestIsZieschang:
    @pytest.mark.parametrize("sig", SMALL_SIGS + [Signature(0, 0), Signature(3, 0)])
    def test_relator(self, sig):
        assert is_zieschang(relator(sig), sig)

    def test_cycle_rejected(self):
        assert not is_zieschang(parse_word(S11, "x1 y1 t1 y1' x1'"), S11)

    def test_commutator_accepted(self):
        assert is_zieschang(parse_word(S10, "x1' y1' x1 y1"), S10)

    def test_single_path_when_true(self, rng):
        from surfaut.selftest import random_zieschang

        for sig in SMALL_SIGS:
            V = random_zieschang(sig, rng)
            line = _chain_line(sig, V.codes)
            assert len(line) == 4 * sig.g + 2 * sig.p

    def test_line_is_the_graph_path_on_canonical_walks(self, rng):
        # on every word that seeded canonical walks pass, the graph is a
        # forest by the DFS oracle and the line runs along all its edges, so
        # it covers every vertex
        from surfaut.selftest import random_zieschang

        words = vii = 0
        for sig in list(GRID) + [Signature(3, 2), Signature(4, 0)]:
            for _ in range(10):
                V = random_zieschang(sig, rng)
                _, steps = canonical_edge(V)
                vii += sum(step.kind == "vii" for step in steps)
                for W in [V] + [step.after for step in steps]:
                    graph = build_graph(W, sig)
                    assert forest_check_dfs(graph)
                    line = _chain_line(sig, W.codes)
                    assert sorted(line) == sorted(graph.vertices())
                    assert set(zip(line, line[1:])) == set(graph.edges)
                    words += 1
        assert words > 500 and vii > 20

    def test_unreduced_inputs_never_zieschang(self, rng):
        # g = 0 alphabets have no inverse letters, so no unreduced arrangement
        for sig in [s for s in SMALL_SIGS if s.g >= 1]:
            found = 0
            while found < 20:
                codes = random_candidate(sig, rng)
                if Word(sig, codes).codes == codes:
                    continue  # reduced arrangement: not this test's concern
                found += 1
                assert not is_zieschang(Word(sig, codes), sig)

    def test_non_candidates_false(self):
        assert not is_zieschang(parse_word(S10, "x1"), S10)
        assert not is_zieschang(Word.identity(S10), S10)

    def test_verdict_memo_is_keyed_on_signature_and_codes(self):
        info = whitehead._is_zieschang.cache_info
        V = relator(S11)
        assert is_zieschang(V, S11) and is_zieschang(Word(S11, V.codes), S11)
        assert (info().hits, info().misses, info().maxsize) == (1, 1, MEMO_SIZE)
        assert any(m is whitehead._is_zieschang for m in core._MEMOS)

    def test_other_signature_is_refused_before_the_memo(self):
        # the codes of a stored Zieschang verdict, on a word of another
        # signature: refused, and nothing is looked up or stored
        V = relator(S11)
        assert is_zieschang(V, S11)
        before = whitehead._is_zieschang.cache_info()
        assert not is_zieschang(Word(Signature(1, 2), V.codes), S11)
        assert not is_zieschang(relator(S10), S11)
        assert whitehead._is_zieschang.cache_info() == before


#: Every signature with 2g + p <= 8, (0, 0), (0, 1) and (1, 0) among them.
ORACLE_SIGS = [Signature(g, p) for g in range(5) for p in range(9 - 2 * g)]

_CHANGES = (
    "none", "swap", "drop", "duplicate", "invert", "t_inverse", "extra", "other_sig"
)


@st.composite
def recogniser_inputs(draw, sig):
    """A word and the signature to test it at: the relator or a shuffle of
    the candidate letters, either as it is or changed into a near-candidate
    (two letters swapped, a letter dropped, duplicated over another or
    inverted, a t_j inverted, a letter too many, another signature)."""
    if draw(st.booleans()):
        codes = list(relator(sig).codes)
    else:
        codes = list(draw(st.permutations(candidate_letters(sig))))
    change = draw(st.sampled_from(_CHANGES))
    n = len(codes)
    position = st.integers(0, max(n - 1, 0))
    if change == "swap" and n >= 2:
        i, j = draw(position), draw(position)
        codes[i], codes[j] = codes[j], codes[i]
    elif change == "drop" and n:
        del codes[draw(position)]
    elif change == "duplicate" and n >= 2:
        codes[draw(position)] = codes[draw(position)]
    elif change == "invert" and n:
        i = draw(position)
        codes[i] = -codes[i]
    elif change == "t_inverse" and sig.p:
        t = draw(st.integers(1, sig.p))
        codes[codes.index(t)] = -t
    elif change == "extra" and sig.rank:
        letter = draw(st.integers(1, sig.rank)) * draw(st.sampled_from((1, -1)))
        codes.insert(draw(st.integers(0, n)), letter)
    at = sig
    if change == "other_sig":
        at = draw(st.sampled_from([s for s in ORACLE_SIGS if s != sig]))
    return Word(sig, tuple(codes)), at


def oracle_verdicts(V, sig):
    """(union-find, DFS) verdicts on the extended graph; no graph is False."""
    try:
        graph = build_graph(V, sig)
    except NotACandidate:
        return False, False
    return graph.is_forest(), forest_check_dfs(graph)


class TestOracleAgreement:
    def test_union_find_vs_dfs(self, rng):
        """The relator and 400 reduced shuffles of its letters get one verdict
        from all three checks at every signature with 2g + p <= 8.  The
        shuffles are all accepted at g = 0, where the graph is one line
        whatever the order, and at (1, 0); every other signature rejects
        some."""
        for sig in ORACLE_SIGS:
            verdicts = set()
            for V in [relator(sig)] + [random_candidate_word(sig, rng) for _ in range(400)]:
                graph = build_graph(V, sig)
                verdict = is_zieschang(V, sig)
                assert graph.is_forest() == forest_check_dfs(graph) == verdict
                verdicts.add(verdict)
            rejects = sig.g >= 1 and sig != S10
            assert verdicts == ({True, False} if rejects else {True})

    @pytest.mark.parametrize("sig", ORACLE_SIGS, ids=str)
    @settings(max_examples=60)
    @given(data=st.data())
    def test_chain_walk_matches_forest_checks(self, sig, data):
        V, at = data.draw(recogniser_inputs(sig))
        verdict = is_zieschang(V, at)
        assert oracle_verdicts(V, at) == (verdict, verdict)


class TestClosure:
    def test_image_stays_zieschang_when_short(self, rng):
        # short stabilizer-built images of Zieschang words stay Zieschang
        from surfaut import apply, eval_gen_word
        from surfaut.selftest import random_gen_word, random_zieschang

        for sig in SMALL_SIGS:
            hits = 0
            while hits < 20:
                V = random_zieschang(sig, rng)
                a = eval_gen_word(random_gen_word(sig, rng, 3), sig)
                image = apply(a, V)
                if len(image) <= sig.chain_len:
                    hits += 1
                    assert is_zieschang(image, sig)


def _dot_counts(dot):
    nodes = [ln for ln in dot.splitlines() if ln.endswith('";') and "->" not in ln]
    solid = [ln for ln in dot.splitlines() if "->" in ln and "dashed" not in ln]
    dashed = [ln for ln in dot.splitlines() if "dashed" in ln]
    return len(nodes), len(solid), len(dashed)


class TestDot:
    def test_counts_genus_one(self):
        dot = to_dot(build_graph(relator(S10), S10))
        assert _dot_counts(dot) == (4, 3, 2)

    def test_empty_graph(self):
        sig = Signature(0, 0)
        dot = to_dot(build_graph(relator(sig), sig))
        assert _dot_counts(dot) == (0, 0, 0)

    def test_counts_two_punctures(self):
        sig = Signature(0, 2)
        dot = to_dot(build_graph(relator(sig), sig))
        nodes, solid, _ = _dot_counts(dot)
        assert (nodes, solid) == (4, 3)

    def test_deterministic(self):
        sig = Signature(2, 1)
        a = to_dot(build_graph(relator(sig), sig))
        b = to_dot(build_graph(relator(sig), sig))
        assert a == b


OFF_GRID = [Signature(2, 4), Signature(3, 2), Signature(4, 0), Signature(5, 1)]
PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]


def _map(sig, images):
    """The map sending basis code b to the word of codes ``images[b]``
    (unlisted letters fixed)."""
    return Endomorphism.from_map(sig, {b: Word(sig, w) for b, w in images.items()})


def _reduced_words(letters, max_len):
    out, frontier = [()], [()]
    for _ in range(max_len):
        frontier = [w + (c,) for w in frontier for c in letters if not w or w[-1] != -c]
        out += frontier
    return out


def _precondition_maps(sig, conj_len, handle_len):
    """Every map that fixes the relator and sends each t_j to r_j t_k r_j'
    (k running through a permutation), with r_j of length <= ``conj_len``
    and handle images of length <= ``handle_len``: the maps on which
    certification decides automorphism-ness."""
    v0 = relator(sig)
    letters = [c for b in sig.basis_codes() for c in (b, -b)]
    conj = _reduced_words(letters, conj_len)
    handles = [b for b in sig.basis_codes() if not sig.is_t_code(b)]
    images = _reduced_words(letters, handle_len)
    for perm in itertools.permutations(range(1, sig.p + 1)):
        for rs in itertools.product(conj, repeat=sig.p):
            moved = {
                sig.t_code(j): r + (sig.t_code(k),) + tuple(-c for c in reversed(r))
                for j, k, r in zip(range(1, sig.p + 1), perm, rs)
            }
            for hs in itertools.product(images, repeat=len(handles)):
                moved.update(zip(handles, hs))
                e = _map(sig, moved)
                if e.apply(v0) == v0:
                    yield e


def _fox_jacobian_units(endo):
    """Determinants of the abelianised Fox Jacobian (d phi(b) / d c) of
    ``endo``, evaluated exactly at every letter = 1 and at letter c = the
    c-th prime; for an automorphism the first is +-1 and the second is a
    unit of the Laurent ring evaluated there, +- a product of powers of
    those primes."""
    sig = endo.sig

    def value(w, at):
        out = Fraction(1)
        for c in w.codes:
            out *= at[abs(c) - 1] if c > 0 else 1 / Fraction(at[abs(c) - 1])
        return out

    dets = []
    for at in ([1] * sig.rank, PRIMES[: sig.rank]):
        rows = [
            [sum(k * value(w, at) for w, k in fox_derivative(img, c).terms.items())
             for c in sig.basis_codes()]
            for img in endo.images
        ]
        dets.append(_det(rows))
    return dets


def _det(rows):
    """Exact determinant by Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in rows]
    n, det = len(rows), Fraction(1)
    for i in range(n):
        pivot = next((r for r in range(i, n) if rows[r][i] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            rows[i], rows[pivot] = rows[pivot], rows[i]
            det = -det
        det *= rows[i][i]
        for r in range(i + 1, n):
            f = rows[r][i] / rows[i][i]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[i])]
    return det


def _is_prime_monomial(x, primes):
    """Is x = +- a product of integer powers of ``primes``?"""
    num, den = abs(x.numerator), x.denominator
    for q in primes:
        while num % q == 0:
            num //= q
        while den % q == 0:
            den //= q
    return num == den == 1


class TestStallingsOracle:
    """``is_onto`` folds the bouquet of the basis images; the images generate
    the free group exactly when the folded graph is the rose."""

    @pytest.mark.parametrize("sig", list(GRID) + OFF_GRID)
    def test_accepts_both_maps_of_automorphisms(self, sig, rng):
        for _ in range(30):
            a = random_adl_automorphism(sig, rng, 10)
            assert is_onto(a.fwd) and is_onto(a.inv)

    @pytest.mark.parametrize(
        "images, onto",
        [
            ({1: (2,)}, False),  # x1 -> y1: the image of y1 twice
            ({1: (1, 1)}, False),  # x1 -> x1^2
            ({1: (1, 2, 1)}, False),  # x1 -> x1 y1 x1
            ({1: (1, 2, -1)}, False),  # x1 -> x1 y1 x1': x1 is missing
            ({1: ()}, False),  # x1 killed
            ({1: (2, 1), 2: (1, 2)}, False),  # abelianised determinant 0
            ({1: (2, 1, -2)}, True),  # conjugation of x1 by y1
            ({1: (1, 2)}, True),  # a transvection
            ({1: (2,), 2: (1,)}, True),  # the swap
            ({1: (-1,), 2: (-2, -1)}, True),
        ],
    )
    def test_literal_maps(self, images, onto):
        assert is_onto(_map(S10, images)) is onto

    @pytest.mark.parametrize("sig", [Signature(0, 0), Signature(0, 1)])
    def test_small_ranks(self, sig):
        assert is_onto(Endomorphism.identity(sig))
        if sig.rank:
            assert not is_onto(_map(sig, {1: (1, 1)}))

    @settings(max_examples=150)
    @given(st.data())
    def test_invariant_under_automorphisms(self, data):
        # a phi b is onto exactly when phi is, for automorphisms a and b
        sig = data.draw(st.sampled_from(SMALL_SIGS))
        images = {
            b: tuple(data.draw(st.lists(st.sampled_from(
                [c for c in range(-sig.rank, sig.rank + 1) if c]), max_size=4)))
            for b in data.draw(st.sets(st.sampled_from(list(sig.basis_codes())), max_size=2))
        }
        phi = _map(sig, images)
        seed = data.draw(st.integers(0, 2**32 - 1))
        a, b = (random_adl_automorphism(sig, random.Random(seed + k), 6) for k in (0, 1))
        assert is_onto(compose(a.fwd, phi, b.fwd)) is is_onto(phi)

    @pytest.mark.parametrize("sig", list(GRID))
    def test_agrees_with_certification_on_positives(self, sig, rng):
        for _ in range(10):
            endo = random_adl_automorphism(sig, rng, 10).fwd  # witness stripped
            assert is_onto(endo)
            assert certify_automorphism(endo) is not None
            assert membership(endo).in_A

    @pytest.mark.parametrize(
        "sig, conj_len, handle_len",
        [(Signature(0, 2), 3, 0), (Signature(0, 3), 1, 0), (S10, 0, 3), (S11, 0, 3)],
    )
    def test_agrees_with_certification_on_searched_maps(self, sig, conj_len, handle_len):
        # Every map found so far that fixes the relator and permutes the
        # puncture classes is an automorphism, so the search yields no
        # negative here; each map found must get one verdict from all three.
        found = 0
        for endo in _precondition_maps(sig, conj_len, handle_len):
            onto = is_onto(endo)
            assert (certify_automorphism(endo) is not None) is onto
            assert membership(endo).in_A is onto
            found += 1
        assert found >= 8

    @pytest.mark.parametrize("sig", list(GRID) + OFF_GRID)
    def test_fox_jacobian_is_a_unit_on_positives(self, sig, rng):
        for _ in range(4):
            a = random_adl_automorphism(sig, rng, 8)
            for endo in (a.fwd, a.inv):
                at_one, at_primes = _fox_jacobian_units(endo)
                assert at_one in (1, -1)
                assert _is_prime_monomial(at_primes, PRIMES[: sig.rank])
