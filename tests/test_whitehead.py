import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfaut import (
    CosetViolation,
    NotACandidate,
    Signature,
    Word,
    build_graph,
    is_zieschang,
    parse_word,
    relator,
    to_dot,
)
from surfaut.selftest import candidate_letters, random_candidate, random_candidate_word
from surfaut.whitehead import ExtendedWhiteheadGraph, chain_line, forest_check_dfs

from conftest import SMALL_SIGS

S10 = Signature(1, 0)
S11 = Signature(1, 1)


class TestBuildGraph:
    @pytest.mark.parametrize("sig", SMALL_SIGS)
    def test_relator_line(self, sig):
        graph = build_graph(relator(sig), sig)
        line = chain_line(graph)
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
        assert chain_line(graph) == [-1, 1, -2, 2]
        assert graph.is_forest()

    def test_branching_graph_is_internal_fault(self):
        graph = ExtendedWhiteheadGraph(S10, ((1, 2), (1, -2)), None, None)
        with pytest.raises(CosetViolation, match="not a union of simple chains"):
            chain_line(graph)

    def test_several_lines_is_internal_fault(self):
        graph = ExtendedWhiteheadGraph(S10, ((1, 2),), None, None)
        with pytest.raises(CosetViolation, match="expected one line, found 3"):
            chain_line(graph)

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
            line = chain_line(build_graph(V, sig))
            assert len(line) == 4 * sig.g + 2 * sig.p

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
