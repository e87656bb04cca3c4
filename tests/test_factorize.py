import dataclasses
import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfaut import (
    Automorphism,
    CosetViolation,
    Endomorphism,
    GenName,
    GenWord,
    NotInA,
    Signature,
    apply,
    compose,
    enumerate_nielsen_from,
    eval_gen_word,
    factorize_adl,
    factorize_adlh,
    generator,
    nielsen_reduce,
    nielsen_to_base_loops,
    parse_gen_word,
    parse_word,
    peel_special,
    relator,
)
from surfaut import factorize as F
from surfaut.errors import SignatureMismatch
from surfaut.factorize import (
    STAB,
    STAB_SPECIAL,
    BaseLoop,
    EdgeScript,
    _bracket,
    _special_generator,
    _tag_of,
)
from surfaut.groupoid import GroupoidEdge
from surfaut.selftest import GRID, random_adl_automorphism, random_zieschang

from conftest import SMALL_SIGS

S10 = Signature(1, 0)
S02 = Signature(0, 2)
S30 = Signature(3, 0)


def gen(fam, i, sig):
    return generator(GenName(fam, i), sig)


class TestBaseLoops:
    def test_n1_loop_at_two_punctures(self):
        # a letter-permutation edge: t1 <-> t2 carries t2 t1 to t1 t2
        from surfaut.endo import swap_letters

        sig = Signature(0, 2)
        v0 = relator(sig)
        perm = swap_letters(sig, 1, 2)
        e = GroupoidEdge(v0, apply(perm, v0), perm)
        loops = nielsen_to_base_loops(e)
        assert [l.coset_tag for l in loops] == [STAB]
        assert compose(*(l.aut for l in loops)).fwd == _bracket(e).fwd

    def test_contract_on_enumerated_edges(self, rng):
        for sig in SMALL_SIGS:
            if sig.p <= 1 and sig.g < 1:
                continue
            for _ in range(3):
                V = random_zieschang(sig, rng)
                for e in enumerate_nielsen_from(V):
                    loops = nielsen_to_base_loops(e)
                    comp = (
                        compose(*(l.aut for l in loops))
                        if loops
                        else Automorphism.identity(sig)
                    )
                    assert comp.fwd == _bracket(e).fwd
                    for loop in loops:
                        assert _tag_of(loop.aut, sig) == loop.coset_tag

    def test_audit_scripts_recorded(self, rng):
        sig = Signature(1, 2)
        V = random_zieschang(sig, rng)
        audit = []
        for e in enumerate_nielsen_from(V):
            nielsen_to_base_loops(e, audit)
        assert audit, "expected at least one cascade script"
        for script in audit:
            assert script.lines()

    def test_edge_script_checks_chain_and_composite(self, rng):
        V = random_zieschang(Signature(1, 2), rng)
        e, f = [d for d in enumerate_nielsen_from(V) if d.target != V][:2]
        script = EdgeScript((e, e.inverse()), Automorphism.identity(V.sig))
        assert script.lines() == [f"{V} => {e.target}", f"{e.target} => {V}"]
        with pytest.raises(CosetViolation, match="endpoints do not chain"):
            EdgeScript((e, f), compose(e.aut, f.aut))
        with pytest.raises(CosetViolation, match="composite differs from its edge"):
            EdgeScript((e,), f.aut)

    def test_case_tables_build_no_checked_edge(self, rng, monkeypatch):
        # every case-table edge comes from the trusted constructor
        checked = []
        real = GroupoidEdge.__post_init__

        def counted(self):
            checked.append(self)
            real(self)

        monkeypatch.setattr(GroupoidEdge, "__post_init__", counted)
        telescoped = 0
        for sig in GRID:
            for _ in range(3):
                for e in enumerate_nielsen_from(random_zieschang(sig, rng)):
                    nielsen_to_base_loops(e, [])
                    telescoped += 1
        assert telescoped and not checked

    def test_bad_loop_rejected(self):
        with pytest.raises(CosetViolation):
            BaseLoop(gen("b", 1, S10), STAB)  # beta_1 moves x1'

    def test_no_case_table_is_coset_violation(self):
        sig = Signature(0, 1)  # 2g + p <= 1: factorisation returns before telescoping
        v0 = relator(sig)
        e = GroupoidEdge(v0, v0, Automorphism.identity(sig))
        with pytest.raises(CosetViolation, match="no case table applies at"):
            nielsen_to_base_loops(e)

    def test_non_nielsen_edge_is_coset_violation(self):
        # alpha_1 beta_1 fixes the relator but moves both letters: no template
        v0 = relator(S10)
        e = GroupoidEdge(v0, v0, compose(gen("a", 1, S10), gen("b", 1, S10)))
        with pytest.raises(CosetViolation, match="edge is not a Nielsen edge"):
            nielsen_to_base_loops(e)


class TestPeelSpecial:
    def test_sigma_p_itself(self):
        sp = gen("s", 2, S02)
        stab, special = peel_special(BaseLoop(sp, STAB_SPECIAL), S02)
        assert stab.is_identity()
        assert str(special) == "s2"

    def test_stabilizer_passthrough(self):
        sig = Signature(1, 1)
        l = BaseLoop(gen("a", 1, sig), STAB)
        stab, special = peel_special(l, sig)
        assert stab.fwd == l.aut.fwd and special == GenWord.empty()

    def test_conjugation_identity_at_genus(self):
        # the peeling pivot: beta_1 alpha_1 carries x1' y1' x1 to x1'
        sig = S30
        ba = compose(gen("b", 1, sig), gen("a", 1, sig))
        assert apply(ba, parse_word(sig, "x1' y1' x1")) == parse_word(sig, "x1'")

    def test_p0_sandwich_reassembles(self):
        # alpha_1 stabilizes both x1' y1' x1 and x1' at p = 0
        sig = Signature(2, 0)
        a2 = gen("a", 2, sig)
        loop = BaseLoop(a2, _tag_of(a2, sig))
        stab, special = peel_special(loop, sig)
        if special.tokens:
            e = eval_gen_word(special, sig)
            reassembled = compose(e.inverse(), stab, e)
        else:
            reassembled = stab
        assert reassembled.fwd == a2.fwd

    def test_loop_over_another_signature(self):
        loop = BaseLoop(gen("s", 2, S02), STAB_SPECIAL)
        with pytest.raises(SignatureMismatch):
            peel_special(loop, S10)

    def test_no_special_generator_at_p0(self):
        # callers reach the special generator only for p >= 1
        with pytest.raises(CosetViolation):
            _special_generator(S10)

    def test_special_reassembly_p2(self, rng):
        sig = Signature(1, 2)
        sp = gen("s", 2, sig)
        l_aut = compose(gen("a", 1, sig), sp)
        loop = BaseLoop(l_aut, STAB_SPECIAL)
        stab, special = peel_special(loop, sig)
        assert compose(stab, eval_gen_word(special, sig)).fwd == l_aut.fwd


class TestFactorizeAdl:
    def test_identity(self):
        assert factorize_adl(Automorphism.identity(S10)) == GenWord.empty()

    def test_sigma2(self):
        w = factorize_adl(gen("s", 2, S02))
        assert eval_gen_word(w, S02).fwd == gen("s", 2, S02).fwd

    def test_base_case_trivial_signatures(self):
        for sig in (Signature(0, 0), Signature(0, 1)):
            assert factorize_adl(Automorphism.identity(sig)) == GenWord.empty()

    def test_round_trip_random(self, rng):
        for sig in SMALL_SIGS:
            for _ in range(5):
                a = random_adl_automorphism(sig, rng, 10)
                w = factorize_adl(a)
                assert eval_gen_word(w, sig).fwd == a.fwd

    def test_witness_stripped_input(self, rng):
        from surfaut import certify_automorphism

        sig = Signature(2, 1)
        a = random_adl_automorphism(sig, rng, 8)
        cert = certify_automorphism(a.fwd)
        w = factorize_adl(cert)
        assert eval_gen_word(w, sig).fwd == a.fwd

    def test_not_in_A(self):
        with pytest.raises(NotInA):
            factorize_adl(
                Automorphism(
                    Endomorphism.from_map(S10, {1: parse_word(S10, "x1'")}),
                    Endomorphism.from_map(S10, {1: parse_word(S10, "x1'")}),
                )
            )

    def test_alpha1_power_correction(self):
        # powers of alpha_1 restrict to the identity, so the correction
        # carries the whole factorization at p = 0
        sig = Signature(1, 0)
        a1 = gen("a", 1, sig)
        cube = compose(a1, a1, a1)
        w = factorize_adl(cube)
        assert eval_gen_word(w, sig).fwd == cube.fwd


class TestFactorizeAdlh:
    def test_alpha3(self):
        w = factorize_adlh(gen("a", 3, S30))
        assert eval_gen_word(w, S30).fwd == gen("a", 3, S30).fwd
        assert not any(n.family == "a" and n.index >= 3 for n, _ in w.tokens)

    def test_beta3(self):
        w = factorize_adlh(gen("b", 3, S30))
        assert eval_gen_word(w, S30).fwd == gen("b", 3, S30).fwd
        assert not any(n.family == "a" and n.index >= 3 for n, _ in w.tokens)

    def test_identity(self):
        assert factorize_adlh(Automorphism.identity(S30)) == GenWord.empty()

    def test_random(self, rng):
        sig = S30
        a = random_adl_automorphism(sig, rng, 8)
        w = factorize_adlh(a)
        assert eval_gen_word(w, sig).fwd == a.fwd
        assert not any(n.family == "a" and n.index >= 3 for n, _ in w.tokens)

    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from([S30, Signature(4, 0), Signature(5, 0)]),
        st.integers(0, 2**32 - 1),
    )
    def test_adl_value_is_flat_value(self, sig, seed):
        # the ADLH check evaluates the ADL word; this is the same predicate
        a = random_adl_automorphism(sig, random.Random(seed), 3)
        base, flat = factorize_adl(a), factorize_adlh(a)
        assert eval_gen_word(base, sig).fwd == eval_gen_word(flat, sig).fwd == a.fwd

    def test_wrong_adl_word_is_caught(self, monkeypatch):
        # the recomposition check compares the ADL word's value with the input
        from surfaut import factorize

        monkeypatch.setattr(factorize, "factorize_adl", lambda a, audit=None: GenWord.of(GenName("a", 3)))
        with pytest.raises(CosetViolation, match="ADLH factorization failed"):
            factorize_adlh(gen("a", 4, Signature(4, 0)))


_WORDS_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "factorize_words.json").read_text(
        encoding="utf-8"
    )
)


@pytest.mark.parametrize(
    "case",
    _WORDS_GOLDEN,
    ids=[f"{i}-{c['variant']}-{c['sig']}" for i, c in enumerate(_WORDS_GOLDEN)],
)
def test_factorize_words_golden(case):
    sig = Signature(*map(int, case["sig"].split(",")))
    a = eval_gen_word(parse_gen_word(case["genword"]), sig)
    fn = factorize_adl if case["variant"] == "adl" else factorize_adlh
    assert str(fn(a)) == case["word"]


def _short(sig):
    # inputs shrink as the cost grows
    return 6 if sig.g + sig.p <= 2 else 3


class TestComputedOnce:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(GRID), st.integers(0, 2**32 - 1))
    def test_audit_and_plain_words_agree(self, sig, seed):
        # the audit path reuses nothing; the plain path reuses checked values
        a = random_adl_automorphism(sig, random.Random(seed), _short(sig))
        assert factorize_adl(a, []) == factorize_adl(a)

    def test_bracket_of_inverse_edge(self, rng):
        for sig in GRID:
            if sig.p <= 1 and sig.g < 1:
                continue
            V = random_zieschang(sig, rng)
            for e in enumerate_nielsen_from(V):
                assert _bracket(e.inverse()).fwd == _bracket(e).inverse().fwd

    def test_each_value_computed_once(self, rng, monkeypatch):
        # per plain _factorize_impl call: the stabilizers peeled and those
        # factored; over the run: each distinct edge is bracketed once, by
        # the call that telescopes it, and a memo hit brackets nothing
        levels, done_levels, tops, done_tops = [], [], [], []
        real_impl, real_peel, real_stab = F._factorize_impl, F.peel_special, F._stab_word
        real_loops, real_bracket = F.nielsen_to_base_loops, F._bracket

        def impl(a, audit):
            levels.append(([], []))
            try:
                return real_impl(a, audit)
            finally:
                done_levels.append(levels.pop())

        def peel(loop, sig):
            stab, special = real_peel(loop, sig)
            levels[-1][0].append(stab.fwd)
            return stab, special

        def stab_word(stab, sig, audit):
            levels[-1][1].append(stab.fwd)
            return real_stab(stab, sig, audit)

        def loops(e, audit=None):
            # the edge, brackets of the edge itself, brackets of any edge
            tops.append([e, 0, 0])
            try:
                return real_loops(e, audit)
            finally:
                done_tops.append(tops.pop())

        def bracket(d):
            for top in tops:
                top[1] += top[0] is d
                top[2] += 1
            return real_bracket(d)

        for name, fn in [("_factorize_impl", impl), ("peel_special", peel),
                         ("_stab_word", stab_word), ("nielsen_to_base_loops", loops),
                         ("_bracket", bracket)]:
            monkeypatch.setattr(F, name, fn)
        for sig in GRID:
            for _ in range(3):
                factorize_adl(random_adl_automorphism(sig, rng, _short(sig) + 2))
        assert done_tops
        # some level peels one stabilizer more than once
        assert any(len(peeled) > len(set(peeled)) for peeled, _ in done_levels)
        for peeled, factored in done_levels:
            assert len(set(factored)) == len(factored)
            assert set(factored) == set(peeled)
        seen, hits = set(), 0
        for e, own, brackets in done_tops:
            key = (e.source, e.target, e.aut.fwd, e.kind)
            if key in seen:
                hits += 1
                assert brackets == 0
            else:
                seen.add(key)
                assert own == 1
        assert hits and len(seen) <= F.MEMO_SIZE


class TestChecksStillFire:
    def test_wrong_inner_word(self, monkeypatch):
        # (1,1) re-includes words factored at (1,0)
        real = F._factorize_rec

        def wrong_inner(a, audit):
            w = real(a, audit)
            return w * GenWord.of(GenName("a", 1)) if a.sig == S10 else w

        monkeypatch.setattr(F, "_factorize_rec", wrong_inner)
        with pytest.raises(CosetViolation, match="re-included stabilizer word failed"):
            factorize_adl(gen("g", 1, Signature(1, 1)))

    def test_wrong_alpha1_power(self, monkeypatch):
        real = F._alpha1_power
        monkeypatch.setattr(F, "_alpha1_power", lambda delta, sig: real(delta, sig) + 1)
        with pytest.raises(CosetViolation, match="alpha_1 correction failed"):
            factorize_adl(gen("b", 1, S10))

    def test_wrong_special_token(self, monkeypatch):
        real = F.peel_special

        def flipped(loop, sig):
            stab, special = real(loop, sig)
            return stab, special.inverse()

        monkeypatch.setattr(F, "peel_special", flipped)
        with pytest.raises(CosetViolation, match="factorization failed to recompose"):
            factorize_adl(gen("s", 2, S02))

    def test_wrong_bracket(self, rng, monkeypatch):
        # at p = 2 an N2 edge's loops come from other edges' brackets; the
        # uncached telescoping picks the edges, so the memo stays cold
        sig = Signature(1, 2)
        real = F._bracket
        twist = gen("s", 2, sig)
        checked = 0
        for e in enumerate_nielsen_from(random_zieschang(sig, rng)):
            if len(F._telescope(e, None)) < 2:
                continue
            monkeypatch.setattr(
                F, "_bracket", lambda d, e=e: compose(real(d), twist) if d is e else real(d)
            )
            assert not F._telescoped
            with pytest.raises(CosetViolation, match="base loops do not recompose"):
                nielsen_to_base_loops(e)
            monkeypatch.setattr(F, "_bracket", real)
            checked += 1
        assert checked


def _loop_values(loops):
    return [(l.aut.fwd, l.coset_tag) for l in loops]


def _distinct_edges(sig, rng, count):
    """``count`` edges from one Zieschang word, with pairwise distinct maps."""
    edges = {}
    while len(edges) < count:
        for e in enumerate_nielsen_from(random_zieschang(sig, rng)):
            edges.setdefault((e.source, e.aut.fwd), e)
    return list(edges.values())[:count]


class TestTelescopeMemo:
    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(GRID), st.integers(0, 2**32 - 1))
    def test_memo_matches_uncached(self, sig, seed):
        # engine edges (the N1 remainder included), enumerated edges, and
        # the enumerated edges without their kind, which share one source
        F._telescoped.clear()  # the examples of one test share its fixture
        rng = random.Random(seed)
        a = random_adl_automorphism(sig, rng, _short(sig))
        steps, n1 = nielsen_reduce(relator(sig), a.fwd)
        moves = enumerate_nielsen_from(random_zieschang(sig, rng))
        edges = steps + [n1] + moves + [dataclasses.replace(e, kind=None) for e in moves]
        want = [_loop_values(F._telescope(e, None)) for e in edges]
        for _ in ("cold", "warm"):
            assert [_loop_values(nielsen_to_base_loops(e)) for e in edges] == want

    def test_audit_after_warm_memo(self, rng):
        # the audit path telescopes every edge itself, in order
        for sig in GRID:
            a = random_adl_automorphism(sig, rng, _short(sig))
            cold: list = []
            word = factorize_adl(a, cold)
            assert factorize_adl(a) == word
            warm: list = []
            assert factorize_adl(a, warm) == word
            assert warm == cold

    def test_raising_telescope_is_not_stored(self, rng, monkeypatch):
        e = _distinct_edges(Signature(1, 2), rng, 1)[0]

        def fail(*args):
            raise CosetViolation("forced")

        monkeypatch.setattr(F, "_loops_p_ge2", fail)
        with pytest.raises(CosetViolation, match="forced"):
            nielsen_to_base_loops(e)
        assert not F._telescoped
        monkeypatch.undo()
        assert _loop_values(nielsen_to_base_loops(e)) == _loop_values(
            F._telescope(e, None)
        )
        assert len(F._telescoped) == 1

    def test_least_recently_used_goes_first(self, rng, monkeypatch):
        a, b, c = _distinct_edges(Signature(1, 2), rng, 3)
        runs = []
        real = F._telescope

        def telescope(e, audit):
            runs.append(e)
            return real(e, audit)

        monkeypatch.setattr(F, "MEMO_SIZE", 2)
        monkeypatch.setattr(F, "_telescope", telescope)
        for e in (a, b, a, c, a, b):
            nielsen_to_base_loops(e)
            assert len(F._telescoped) <= 2
        # a is used again before c arrives, so b goes; then c goes for b
        assert runs == [a, b, c, b]

    def test_memos_are_bounded(self, rng, monkeypatch):
        assert F._factorize_cached.cache_info().maxsize == F.MEMO_SIZE
        monkeypatch.setattr(F, "MEMO_SIZE", 5)
        edges = _distinct_edges(Signature(1, 2), rng, 12)
        for e in edges + edges:
            nielsen_to_base_loops(e)
            assert len(F._telescoped) <= 5
        assert len(F._telescoped) == 5
