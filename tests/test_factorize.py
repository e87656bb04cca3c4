import dataclasses
import importlib.util
import io
import itertools
import json
import pathlib
import random
import sys

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
from surfaut import groupoid
from surfaut import selftest
from surfaut.cli import run
from surfaut.endo import format_endomorphism
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

from conftest import SEED, SMALL_SIGS, clear_memos

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


S40 = Signature(4, 0)


class TestAdlValueMemo:
    """``factorize_adlh`` reads the ADL word's forward value from the bounded
    LRU ``_adl_values``, keyed on (signature, tokens), and compares it with
    the input's on every call."""

    def test_hit_equals_uncached_fold(self, rng, monkeypatch):
        inputs = [random_adl_automorphism(S30, rng, 3) for _ in range(6)]
        inputs += [gen("a", 3, S40), gen("b", 4, S40)]
        words = [factorize_adlh(a) for a in inputs]
        assert F._adl_values
        for (sig, tokens), value in F._adl_values.items():
            assert value == F._eval_fwd(GenWord(tokens), sig)
        # warm: every value is read from the memo, and the words are unchanged
        folds = []
        real = F._eval_fwd
        monkeypatch.setattr(F, "_eval_fwd", lambda w, sig: folds.append(w) or real(w, sig))
        assert [factorize_adlh(a) for a in inputs] == words
        assert folds == []

    def test_raise_stores_nothing(self, monkeypatch):
        a = gen("a", 3, S40)
        base = factorize_adl(a)  # the ADL word is memoised; its value is not

        def fail(w, sig):
            raise CosetViolation("forced")

        monkeypatch.setattr(F, "_eval_fwd", fail)
        with pytest.raises(CosetViolation, match="forced"):
            factorize_adlh(a)
        assert not F._adl_values
        monkeypatch.undo()
        factorize_adlh(a)
        assert list(F._adl_values) == [(S40, base.tokens)]

    def test_warm_entry_of_another_input_still_fails(self, monkeypatch):
        # the patched ADL word of a4 is the word of a3, whose value is warm:
        # the hit is a3's value, which is not a4's
        a3, a4 = gen("a", 3, S40), gen("a", 4, S40)
        factorize_adlh(a3)
        warm = dict(F._adl_values)
        word = factorize_adl(a3)
        monkeypatch.setattr(F, "factorize_adl", lambda a, audit=None: word)
        with pytest.raises(CosetViolation, match="ADLH factorization failed"):
            factorize_adlh(a4)
        assert F._adl_values == warm

    def test_bounded_least_recently_used_first(self, monkeypatch):
        inputs = [gen(f, i, S40) for f, i in (("a", 3), ("b", 4), ("g", 4))]
        keys = [(S40, factorize_adl(a).tokens) for a in inputs]
        monkeypatch.setattr(F, "MEMO_SIZE", 2)
        for k in (0, 1, 0, 2):
            factorize_adlh(inputs[k])
            assert len(F._adl_values) <= 2
        # the first input was used again before the third arrived
        assert list(F._adl_values) == [keys[0], keys[2]]


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
        # over the run: each distinct loop is peeled once and its stabilizer
        # factored once with it, and a hit of either memo telescopes, peels,
        # factors and brackets nothing; each distinct edge is bracketed once,
        # by the call that telescopes it, and a telescoping memo hit brackets
        # nothing
        peeled, factored, tops, done_tops = [], [], [], []
        count = {"telescope": 0, "peel": 0, "stab": 0, "bracket": 0}
        hits = {"edge": 0, "loop": 0}
        real_peel, real_stab, real_lru = F.peel_special, F._stab_word, F._lru
        real_loops, real_bracket = F.nielsen_to_base_loops, F._bracket

        def peel(loop, sig):
            count["peel"] += 1
            peeled.append(loop.aut.fwd)
            return real_peel(loop, sig)

        def stab_word(stab, sig, audit):
            # each peel is followed by its stabilizer's word
            count["stab"] += 1
            factored.append((peeled[-1], stab.fwd))
            return real_stab(stab, sig, audit)

        def lru(memo, key, build):
            kind = {id(F._factored): "edge", id(F._peeled): "loop"}.get(id(memo))
            hit, before = key in memo, dict(count)
            out = real_lru(memo, key, build)
            if kind and hit:
                hits[kind] += 1
                assert count == before
            return out

        def loops(e, audit=None):
            # the edge, brackets of the edge itself, brackets of any edge
            count["telescope"] += 1
            tops.append([e, 0, 0])
            try:
                return real_loops(e, audit)
            finally:
                done_tops.append(tops.pop())

        def bracket(d):
            count["bracket"] += 1
            for top in tops:
                top[1] += top[0] is d
                top[2] += 1
            return real_bracket(d)

        for name, fn in [("peel_special", peel), ("_stab_word", stab_word), ("_lru", lru),
                         ("nielsen_to_base_loops", loops), ("_bracket", bracket)]:
            monkeypatch.setattr(F, name, fn)
        for sig in GRID:
            for _ in range(3):
                factorize_adl(random_adl_automorphism(sig, rng, _short(sig) + 2))
        assert done_tops and hits["edge"] and hits["loop"]
        assert len(set(peeled)) == len(peeled) <= F.MEMO_SIZE
        assert len(set(factored)) == len(factored) == len(peeled)
        seen = set()
        for e, own, brackets in done_tops:
            key = (e.source, e.target, e.aut.fwd, e.kind)
            if key in seen:
                assert brackets == 0
            else:
                seen.add(key)
                assert own == 1
        assert len(seen) <= F.MEMO_SIZE


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
        # at p = 2 an N2 edge's loops come from other edges' brackets
        sig = Signature(1, 2)
        real = F._bracket
        twist = gen("s", 2, sig)
        checked = 0
        for e in enumerate_nielsen_from(random_zieschang(sig, rng)):
            if len(nielsen_to_base_loops(e)) < 2:
                continue
            monkeypatch.setattr(
                F, "_bracket", lambda d, e=e: compose(real(d), twist) if d is e else real(d)
            )
            with pytest.raises(CosetViolation, match="base loops do not recompose"):
                nielsen_to_base_loops(e)
            monkeypatch.setattr(F, "_bracket", real)
            checked += 1
        assert checked

    @pytest.mark.parametrize("bad_call,check", [(0, "ADL"), (1, "ADLH")])
    def test_criterion_7_with_corrupted_evaluator(self, bad_call, check, monkeypatch):
        # each trial folds its ADL word, then its ADLH word; one of the two
        # folds drops the word's last token
        real, calls = selftest._eval_fwd, itertools.count()

        def corrupted(w, sig):
            if next(calls) % 2 == bad_call:
                w = GenWord(w.tokens[:-1])
            return real(w, sig)

        monkeypatch.setattr(selftest, "_eval_fwd", corrupted)
        ok, detail = selftest.criterion_7_factorization(SEED, samples=2)
        assert not ok and detail.startswith(f"{check} recomposition failed at ")

    def test_recomposition_checks_build_no_automorphism(self, rng, monkeypatch):
        # the loops of each telescoping and the pieces of each factorisation
        # are recomposed as forward maps, without a witnessed inverse
        real_compose_all, real_post_init = F._compose_all, Automorphism.__post_init__
        sizes, inside, built = [], [False], [0]

        def post_init(self):
            built[0] += inside[0]
            real_post_init(self)

        def compose_all(endos, sig):
            inside[0] = True
            try:
                return real_compose_all(endos, sig)
            finally:
                inside[0] = False
                sizes.append(len(endos))

        monkeypatch.setattr(Automorphism, "__post_init__", post_init)
        monkeypatch.setattr(F, "_compose_all", compose_all)
        for sig in GRID:
            for _ in range(3):
                a = random_adl_automorphism(sig, rng, _short(sig) + 2)
                assert eval_gen_word(factorize_adl(a), sig).fwd == a.fwd
        assert max(sizes) > 1 and built == [0]


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
    """Factorisation telescopes an edge only on a miss of the per-edge memo
    ``_factored``, which is keyed on what the telescoping reads."""

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(GRID), st.integers(0, 2**32 - 1))
    def test_memo_matches_uncached(self, sig, seed):
        # engine edges (the N1 remainder included), enumerated edges, and
        # the enumerated edges without their kind, which share one source
        F._factored.clear()  # the examples of one test share its fixture
        rng = random.Random(seed)
        a = random_adl_automorphism(sig, rng, _short(sig))
        steps, n1 = nielsen_reduce(relator(sig), a.fwd)
        moves = enumerate_nielsen_from(random_zieschang(sig, rng))
        edges = steps + [n1] + moves + [dataclasses.replace(e, kind=None) for e in moves]
        want = [F._factor_edge(e) for e in edges]
        for _ in ("cold", "warm"):
            assert [F._edge_factors(e) for e in edges] == want

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
            F._edge_factors(e)
        assert not F._factored
        monkeypatch.undo()
        assert F._edge_factors(e) == F._factor_edge(e)
        # stored now, with the edges of the stabilizers it recursed into
        assert F._edge_key(e) in F._factored

    def test_least_recently_used_goes_first(self, rng, monkeypatch):
        sig = Signature(1, 2)
        a, b, c = _distinct_edges(sig, rng, 3)
        for e in (a, b, c):
            # the stabilizers' words below are then in the top-level memo, so
            # factoring these edges again telescopes no edge below
            F._edge_factors(e)
        F._factored.clear()
        runs = []
        real = F.nielsen_to_base_loops

        def telescope(e, audit=None):
            runs.append(e)
            return real(e, audit)

        monkeypatch.setattr(F, "MEMO_SIZE", 2)
        monkeypatch.setattr(F, "nielsen_to_base_loops", telescope)
        for e in (a, b, a, c, a, b):
            F._edge_factors(e)
            assert len(F._factored) <= 2
        # a is used again before c arrives, so b goes; then c goes for b
        assert runs == [a, b, c, b]

    def test_memos_are_bounded(self, rng, monkeypatch):
        assert F._factorize_cached.cache_info().maxsize == F.MEMO_SIZE
        for memo in (groupoid._nielsen_edge, groupoid._template_move):
            assert memo.cache_info().maxsize == F.MEMO_SIZE
        monkeypatch.setattr(F, "MEMO_SIZE", 5)
        edges = _distinct_edges(Signature(1, 2), rng, 12)
        for e in edges + edges:
            F._edge_factors(e)
            assert len(F._factored) <= 5
        assert len(F._factored) == 5


def _single_loop_edges(sig, rng, count):
    """``count`` edges that telescope into one loop each, with pairwise
    distinct loop maps."""
    found = {}
    while len(found) < count:
        for e in enumerate_nielsen_from(random_zieschang(sig, rng)):
            loops = nielsen_to_base_loops(e)
            if len(loops) == 1:
                found.setdefault(loops[0].aut.fwd, e)
    return list(found.values())[:count]


class TestFactorMemos:
    """Outside an audit each Nielsen edge's tokens and value come from
    ``_factored`` and each loop's parts from ``_peeled``."""

    def test_cold_and_warm_memos_agree(self, rng):
        def cli(*argv):
            out, err = io.StringIO(), io.StringIO()
            assert run(list(argv), out, err) == 0, err.getvalue()
            return out.getvalue()

        def outputs(a):
            sig, aut = f"{a.sig.g},{a.sig.p}", format_endomorphism(a.fwd)
            # the top level is memoised too; clearing it makes the edge and
            # loop memos serve
            F._factorize_cached.cache_clear()
            return [cli("factorize", "--sig", sig, "--aut", aut, *flags)
                    for flags in ([], ["--adlh"], ["--audit"])]

        cases = [random_adl_automorphism(sig, rng, _short(sig) + 2)
                 for sig in GRID for _ in range(3)]
        cold = []
        for a in cases:
            clear_memos()
            cold.append(outputs(a))
        for a in cases:
            outputs(a)
        assert F._factored and F._peeled
        assert [outputs(a) for a in cases] == cold
        assert any("=>" in audit for _, _, audit in cold)

    def test_raising_peel_is_not_stored(self, rng, monkeypatch):
        # the second loop peeled at the top signature raises: the first
        # one's parts stay, the raising loop and its edge are not stored
        sig = Signature(1, 2)
        a = random_adl_automorphism(sig, rng, 8)
        real, top = F.peel_special, []

        def second_top_fails(loop, s):
            if s == sig:
                top.append(loop.aut.fwd)
                if len(top) == 2:
                    raise CosetViolation("forced")
            return real(loop, s)

        telescoped = {}

        def recording(e, audit=None):
            loops = telescoped[F._edge_key(e)] = real_telescope(e, audit)
            return loops

        real_telescope = F.nielsen_to_base_loops
        monkeypatch.setattr(F, "peel_special", second_top_fails)
        monkeypatch.setattr(F, "nielsen_to_base_loops", recording)
        with pytest.raises(CosetViolation, match="forced"):
            factorize_adl(a)
        assert top[0] in F._peeled and top[1] not in F._peeled
        assert not [key for key in F._factored
                    if top[1] in [loop.aut.fwd for loop in telescoped[key]]]
        monkeypatch.undo()
        assert factorize_adl(a) == factorize_adl(a, [])
        assert top[1] in F._peeled

    def test_least_recently_used_goes_first(self, rng, monkeypatch):
        a, b, c = _single_loop_edges(Signature(1, 1), rng, 3)
        for e in (a, b, c):
            # the stabilizers' words at (1, 0) are then in the top-level memo,
            # so peeling these edges again reads no edge or loop memo below
            F._edge_factors(e)
        F._factored.clear()
        F._peeled.clear()
        edges, loops = [], []
        real_factor, real_peel = F._factor_edge, F._peel_parts

        def factor_edge(e):
            edges.append(e)
            return real_factor(e)

        def peel_parts(loop, sig, audit):
            loops.append(loop.aut.fwd)
            return real_peel(loop, sig, audit)

        monkeypatch.setattr(F, "MEMO_SIZE", 2)
        monkeypatch.setattr(F, "_factor_edge", factor_edge)
        monkeypatch.setattr(F, "_peel_parts", peel_parts)
        for e in (a, b, a, c, a, b):
            F._edge_factors(e)
            assert len(F._factored) <= 2 and len(F._peeled) <= 2
        # a is used again before c arrives, so b goes; then c goes for b.
        # A hit of the edge memo reads no loop, so at the loop memo a goes
        # for c, and b is still there
        assert edges == [a, b, c, b]
        assert loops == [nielsen_to_base_loops(e)[0].aut.fwd for e in (a, b, c)]
        # evictions change no word
        for sig in GRID:
            x = random_adl_automorphism(sig, rng, _short(sig))
            F._factorize_cached.cache_clear()
            assert factorize_adl(x) == factorize_adl(x, [])
            assert len(F._factored) <= 2 and len(F._peeled) <= 2


@dataclasses.dataclass
class _Call:
    name: str
    parent: "_Call | None"  # the innermost traced call this one ran in
    args: tuple
    result: object = None
    scripts: list = dataclasses.field(default_factory=list)  # audit scripts it appended


def _trace(monkeypatch, names):
    """Wrap the named ``factorize`` functions; every call is logged in order.
    A call whose last argument is an audit list records the scripts appended
    while it ran, its own first."""
    calls, stack = [], []
    for name in names:
        real = getattr(F, name)

        def wrapped(*args, real=real, name=name):
            call = _Call(name, stack[-1] if stack else None, args)
            calls.append(call)
            audit = args[-1] if args and isinstance(args[-1], list) else []
            start = len(audit)
            stack.append(call)
            try:
                call.result = real(*args)
            finally:
                stack.pop()
            call.scripts = audit[start:]
            return call.result

        monkeypatch.setattr(F, name, wrapped)
    return calls


def _called_from(call, name):
    return call.parent is not None and call.parent.name == name


_TABLES = ["_loops_chunked_square", "_loops_move_front", "_loops_hexagon_left",
           "_loops_hexagon_right", "_loops_p1", "_loops_p0"]


def _telescope_enumerated(rng, words=8):
    """Audited, uncached telescoping of every Nielsen edge from seeded
    Zieschang words at each grid signature with a case table and at (3,1)."""
    audit: list = []
    for sig in [s for s in GRID if s.p >= 2 or s.g >= 1] + [Signature(3, 1)]:
        for _ in range(words):
            for e in enumerate_nielsen_from(random_zieschang(sig, rng)):
                nielsen_to_base_loops(e, audit)


def _has_t_before(d):
    """Is there a puncture letter before the one the front conjugation moves?"""
    V = d.source
    return any(V.sig.is_t_code(c) for c in V.codes[: V.codes.index(d.target.codes[0])])


class TestBracketsByConstruction:
    """The brackets the case tables leave out, by functoriality of the bracket
    and the first canonical move, are checked here instead of at run time."""

    def test_left_out_brackets(self, rng, monkeypatch):
        calls = _trace(monkeypatch, _TABLES)
        _telescope_enumerated(rng)
        seen = dict.fromkeys(["free front", "vertical", "e_back", "side"], 0)
        for call in calls:
            if call.name == "_loops_move_front" and call.args[0] is not None:
                d = call.args[0]
                if not _has_t_before(d):
                    # (a) a front conjugation over a puncture-free prefix
                    assert _bracket(d).is_identity()
                    seen["free front"] += 1
                    continue
                nu1 = call.scripts[0].moves[0]
                sig = d.sig
                j1 = next(c for c in d.source.codes if sig.is_t_code(c))
                d1_v, tau, d1_w = F._square(nu1, j1)
                for vert in (d1_v, d1_w):
                    if vert is not None:
                        assert _bracket(vert).is_identity()
                        seen["vertical"] += 1
                assert _bracket(tau).fwd == _bracket(nu1).fwd
            elif call.name == "_loops_hexagon_left":
                e, br, _ = call.args
                _, e_back, e_pull = call.scripts[0].moves
                assert _bracket(e_back).is_identity()
                seen["e_back"] += 1
                # from the right hexagon, e is its bottom and br its bracket
                assert br.fwd == _bracket(e).fwd
                phi_v, _ = F.canonical_edge(e.source)
                phi_w2, _ = F.canonical_edge(e_pull.target)
                big = compose(phi_v.inverse(), e.aut, e_back.aut, e_pull.aut, phi_w2)
                assert big.fwd == compose(br, _bracket(e_pull)).fwd
            elif call.name == "_loops_hexagon_right":
                # (b) the sides conjugate t1 past the letter before it
                e, br, _ = call.args
                e_l, bottom, e_r_inv = call.scripts[0].moves
                for side in (e_l, e_r_inv.inverse()):
                    assert _bracket(side).is_identity()
                    seen["side"] += 1
                assert _bracket(bottom).fwd == _bracket(e).fwd == br.fwd
        assert all(seen.values()), seen

    def test_no_bracket_by_construction_is_computed(self, rng, monkeypatch):
        calls = _trace(monkeypatch, _TABLES + ["_bracket", "_conj_t_to_front",
                                               "_edge", "canonical_edge"])
        _telescope_enumerated(rng)
        fronts = [c.result for c in calls
                  if c.name == "_conj_t_to_front" and c.result is not None]
        # e_l, the bottom and, under audit, e_r
        sides = [c.result for c in calls
                 if c.name == "_edge" and _called_from(c, "_loops_hexagon_right")]
        bracketed = {id(c.args[0]) for c in calls if c.name == "_bracket"}
        assert fronts and sides and bracketed
        assert not bracketed & {id(d) for d in fronts + sides}
        assert any(c.name == "_loops_hexagon_left" for c in calls)
        assert not [c for c in calls if c.name == "canonical_edge"
                    and _called_from(c, "_loops_hexagon_left")]


def _audit_golden_cases():
    path = pathlib.Path(__file__).parent / "golden" / "make_factorize_audit.py"
    spec = importlib.util.spec_from_file_location("make_factorize_audit", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CASES


def test_audit_golden_enters_every_case_table(monkeypatch):
    # the --audit golden pins the case tables only where its cases reach
    calls = _trace(monkeypatch, _TABLES)
    for sig, genword in _audit_golden_cases():
        s = Signature(*map(int, sig.split(",")))
        factorize_adl(eval_gen_word(parse_gen_word(genword), s), [])

    def children(call):
        return [c for c in calls if c.parent is call]

    entered = {
        "chunked square": [c for c in calls if c.name == "_loops_chunked_square"],
        "move-front with a puncture in its prefix": [
            c for c in calls if c.name == "_loops_move_front"
            and c.args[0] is not None and _has_t_before(c.args[0])],
        "left hexagon": [c for c in calls if c.name == "_loops_hexagon_left"],
        "right hexagon": [c for c in calls if c.name == "_loops_hexagon_right"],
        # a p = 0 table that writes a script without recursing
        "p = 0 split": [c for c in calls if c.name == "_loops_p0"
                        and c.scripts and not children(c)],
        "p = 1 inverse edge": [c for c in calls if c.name == "_loops_p1"
                               and _called_from(c, "_loops_p1")],
        "p = 0 inverse edge": [c for c in calls if c.name == "_loops_p0"
                               and _called_from(c, "_loops_p0")],
    }
    missing = [name for name, hits in entered.items() if not hits]
    assert not missing, missing


class TestWitnessedByAlgebra:
    """``compose`` of automorphisms, the two restrictions, ``eval_gen_word``,
    canonical step (vii) and the N1 remainder of peak reduction build their
    pairs with the trusted constructor, because algebra or their
    construction witnesses them; every pair they build while factorising
    must still pass both witness identities and the folding oracle."""

    MAKERS = {
        "compose": "endo",
        "restrict_drop_tp": "endo",
        "restrict_relabel_K": "endo",
        "eval_gen_word": "gens",
        "_whitehead_step": "groupoid",
        "_finish_n1": "groupoid",
    }

    def test_every_built_pair_is_witnessed(self, rng, monkeypatch):
        import surfaut
        from surfaut.endo import _undoes
        from surfaut.whitehead import is_onto

        real = {name: getattr(sys.modules[f"surfaut.{home}"], name)
                for name, home in self.MAKERS.items()}
        built = {name: set() for name in self.MAKERS}

        def recording(name):
            def wrapped(*args):
                out = real[name](*args)
                aut = out.aut if isinstance(out, GroupoidEdge) else out
                if isinstance(aut, Automorphism):
                    built[name].add((aut.fwd, aut.inv))
                return out
            return wrapped

        # every module that binds one of the makers calls it through its own name
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "surfaut"]
        for mod in modules:
            for name in self.MAKERS:
                if getattr(mod, name, None) is real[name]:
                    monkeypatch.setattr(mod, name, recording(name))
        for sig in list(GRID) + [Signature(2, 4), Signature(3, 2), Signature(4, 0),
                                 Signature(5, 1)]:
            for _ in range(3):
                a = selftest.random_adl_automorphism(sig, rng, _short(sig) + 2)
                word = factorize_adl(a)
                assert surfaut.eval_gen_word(word, sig).fwd == a.fwd
        for name, pairs in built.items():
            assert pairs, name
            for fwd, inv in pairs:
                assert _undoes(fwd, inv) and _undoes(inv, fwd), name
                assert is_onto(fwd) and is_onto(inv), name
