import dataclasses
import importlib.util
import inspect
import io
import itertools
import json
import pathlib
import random
import re
import sys
from collections import OrderedDict

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
    ReductionStuck,
    Signature,
    Word,
    apply,
    compose,
    enumerate_nielsen_from,
    eval_gen_word,
    factorize_adl,
    factorize_adlh,
    factorize_audit,
    generator,
    nielsen_reduce,
    nielsen_to_base_loops,
    parse_gen_word,
    parse_word,
    peel_special,
    relator,
)
from surfaut import core, gens
from surfaut import factorize as F
from surfaut import groupoid
from surfaut import selftest
from surfaut.cli import run
from surfaut.endo import format_endomorphism, letter_move, parse_endomorphism, swap_letters
from surfaut.errors import SignatureMismatch
from surfaut.factorize import (
    STAB,
    STAB_SPECIAL,
    STAB_SPECIAL_INV,
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
        # each record is the moves of a script and the map they compose to,
        # or None when that is their own composite
        sig = Signature(1, 2)
        V = random_zieschang(sig, rng)
        records = [r for e in enumerate_nielsen_from(V) for r in F._telescope(e)[1]]
        assert records, "expected at least one cascade script"
        for moves, expected in records:
            script = EdgeScript(moves, expected or compose(*(m.aut for m in moves)))
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
                    F._telescope(e)
                    telescoped += 1
        assert telescoped and not checked

    def test_only_stab_and_special_loops_are_inverted(self, rng, monkeypatch):
        # hexagons, move-front and the chunked square make stab and
        # stab_special loops only, and at p = 1 an inverse edge recurses into
        # a hexagon, so no stab_special_inv loop is ever inverted
        passed = []
        real = F._invert_loops
        monkeypatch.setattr(
            F, "_invert_loops", lambda loops, sig: passed.extend(loops) or real(loops, sig)
        )
        for sig in [s for s in GRID if s.p >= 1] + [Signature(3, 1)]:
            for _ in range(8):
                for e in enumerate_nielsen_from(random_zieschang(sig, rng)):
                    nielsen_to_base_loops(e)
                    nielsen_to_base_loops(e.inverse())
        seen = {(loop.aut.sig.p >= 2, loop.coset_tag) for loop in passed}
        assert seen == {(p2, tag) for p2 in (False, True) for tag in (STAB, STAB_SPECIAL)}

    @pytest.mark.parametrize("sig", [S02, Signature(1, 1)])
    def test_inverting_a_special_inverse_loop_is_coset_violation(self, sig):
        # its stabilizer part, taken as for a stab_special loop, fails the tag
        # check of ``_loop``
        sp_inv = _special_generator(sig).inverse()
        loop = F._loop(compose(gen("b", 1, sig), sp_inv) if sig.g else sp_inv, STAB_SPECIAL_INV)
        with pytest.raises(CosetViolation, match="outside every admissible coset"):
            F._invert_loops([loop], sig)

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
        # the audit factorises its input first
        inverted = Endomorphism.from_map(S10, {1: parse_word(S10, "x1'")})
        for fn in (factorize_adl, factorize_audit):
            with pytest.raises(NotInA):
                fn(Automorphism(inverted, inverted))

    def test_entry_points_take_one_input(self):
        for fn in (factorize_adl, factorize_adlh, factorize_audit, nielsen_to_base_loops):
            assert len(inspect.signature(fn).parameters) == 1

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
        # the flat word is the splice of the ADL word, which the level check
        # proved: a wrong piece value fails there, before any splice
        real = F._edge_factors

        def wrong(e):
            tokens, value = real(e)
            return tokens, F._compose_endos([value, gen("a", 1, e.sig).fwd])

        monkeypatch.setattr(F, "_edge_factors", wrong)
        with pytest.raises(CosetViolation, match="factorization failed to recompose the input"):
            factorize_adlh(gen("a", 4, S40))
        assert not F._adl_words and not F._adlh_words
        out, err = io.StringIO(), io.StringIO()
        argv = ["factorize", "--sig", "4,0", "--adlh", "--aut", "x4 -> y4' x4"]
        assert run(argv, out, err) == 3 and out.getvalue() == ""
        assert err.getvalue() == (
            "internal assertion: CosetViolation: factorization failed to recompose the input\n"
        )

    def test_alpha3_left_in_output_is_caught(self, monkeypatch):
        # a rewrite of alpha_3 whose unexpanded word keeps an alpha_3 token
        # fails its evaluation check before it is spliced
        bad = gens.HUMPHRIES_CHAIN[:-1] + (GenName("a", 3),)
        monkeypatch.setattr(gens, "HUMPHRIES_CHAIN", bad)
        message = f"Humphries rewriting failed evaluation for alpha_3 at {S30}"
        with pytest.raises(CosetViolation, match=re.escape(message)):
            factorize_adlh(gen("a", 3, S30))
        assert not F._adlh_words
        out, err = io.StringIO(), io.StringIO()
        argv = ["factorize", "--sig", "3,0", "--adlh", "--aut", "x3 -> y3' x3"]
        assert run(argv, out, err) == 3 and out.getvalue() == ""
        assert err.getvalue() == f"internal assertion: CosetViolation: {message}\n"


S40 = Signature(4, 0)


class TestAdlhWordMemo:
    """``factorize_adlh`` reads the flat word of its input from the bounded
    LRU ``_adlh_words``, keyed on the input's forward image codes.  A miss
    splices the input's checked ADL word and folds nothing."""

    def test_hit_equals_uncached_fold(self, rng, monkeypatch):
        inputs = [random_adl_automorphism(S30, rng, 3) for _ in range(6)]
        inputs += [gen("a", 3, S40), gen("b", 4, S40)]
        words = [factorize_adlh(a) for a in inputs]
        by_key = {F._loop_key(a.fwd): a for a in inputs}
        assert F._adlh_words and set(F._adlh_words) == set(by_key)
        for key, word in F._adlh_words.items():
            a = by_key[key]
            base = factorize_adl(a)
            assert key == F._loop_key(F._eval_fwd(base, a.sig))
            assert word == F._splice(base, a.sig)
        # warm: no value is folded, and the words are unchanged
        folds = []
        real = F._eval_fwd
        monkeypatch.setattr(F, "_eval_fwd", lambda w, sig: folds.append(w) or real(w, sig))
        assert [factorize_adlh(a) for a in inputs] == words
        assert folds == []

    def test_miss_on_a_warm_adl_word_folds_nothing(self, monkeypatch):
        a = gen("a", 4, S40)
        base = factorize_adl(a)
        for i in (3, 4):
            gens.humphries_rewrite(i, S40)
        folds = []
        _counting(monkeypatch, "_eval_fwd", folds)
        word = factorize_adlh(a)
        assert folds == [] and word == F._splice(base, S40)
        assert list(F._adlh_words) == [F._loop_key(a.fwd)]

    def test_raise_stores_nothing(self, monkeypatch):
        a = gen("a", 3, S40)
        factorize_adl(a)  # the ADL word is memoised; its flat word is not

        def fail(w, sig):
            raise CosetViolation("forced")

        monkeypatch.setattr(F, "_splice", fail)
        with pytest.raises(CosetViolation, match="forced"):
            factorize_adlh(a)
        assert not F._adlh_words
        monkeypatch.undo()
        factorize_adlh(a)
        assert list(F._adlh_words) == [F._loop_key(a.fwd)]

    def test_warm_entry_of_another_input_still_fails(self, monkeypatch):
        # the patched peak reduction of a4 returns the edges of a3, whose
        # factors are warm: every piece is a hit, and they compose to a3
        a3, a4 = gen("a", 3, S40), gen("a", 4, S40)
        factorize_adlh(a3)
        reduction = _reduce(relator(S40), a3.fwd, F._reduced)
        warm = [dict(memo) for memo in (F._adl_words, F._adlh_words, F._factored)]
        monkeypatch.setattr(F, "_reduce_from", lambda V, endo, W, memo: reduction)
        with pytest.raises(CosetViolation, match="factorization failed to recompose the input"):
            factorize_adlh(a4)
        assert [dict(memo) for memo in (F._adl_words, F._adlh_words, F._factored)] == warm

    def test_bounded_least_recently_used_first(self, monkeypatch):
        inputs = [gen(f, i, S40) for f, i in (("a", 3), ("b", 4), ("g", 4))]
        keys = [F._loop_key(a.fwd) for a in inputs]
        monkeypatch.setattr(core, "MEMO_SIZE", 2)
        for k in (0, 1, 0, 2):
            factorize_adlh(inputs[k])
            assert len(F._adlh_words) <= 2
        # the first input was used again before the third arrived
        assert list(F._adlh_words) == [keys[0], keys[2]]


def _counting(monkeypatch, name, calls):
    """Replace ``F.<name>`` by a wrapper that appends its first argument to
    ``calls``."""
    real = getattr(F, name)
    monkeypatch.setattr(F, name, lambda x, *rest: calls.append(x) or real(x, *rest))


class TestTopLevelMemo:
    """``factorize_adl`` reads the word of its input from the bounded LRU
    ``_adl_words``, keyed on the input's forward image codes, and runs
    ``membership`` only on a miss."""

    @staticmethod
    def copy(a):
        # fresh words and maps, equal to a's
        fwd, inv = (parse_endomorphism(format_endomorphism(m)) for m in (a.fwd, a.inv))
        return Automorphism(fwd, inv)

    def test_equal_inputs_share_one_entry(self, rng, monkeypatch):
        a = random_adl_automorphism(S30, rng, 3)
        b = self.copy(a)
        assert b is not a and b.fwd is not a.fwd and b == a
        checked = []
        _counting(monkeypatch, "membership", checked)
        word = factorize_adl(a)
        size = len(F._adl_words)
        assert factorize_adl(b) is word
        assert len(F._adl_words) == size and checked == [a]
        assert F._adl_words[F._loop_key(b.fwd)] is word

    def test_non_member_raises_every_time_and_stores_nothing(self, monkeypatch):
        x1_inv = Endomorphism.from_map(S10, {1: parse_word(S10, "x1'")})
        a = Automorphism(x1_inv, x1_inv)
        checked = []
        _counting(monkeypatch, "membership", checked)
        for _ in range(2):
            with pytest.raises(NotInA, match="does not fix the relator"):
                factorize_adl(a)
            assert not F._adl_words
        assert checked == [a, a]

    def test_warm_repeat_checks_and_folds_nothing(self, rng, monkeypatch):
        inputs = [random_adl_automorphism(S30, rng, 3) for _ in range(3)]
        inputs += [gen("a", 3, S40), gen("g", 4, S40)]
        words = [factorize_adlh(a) for a in inputs]
        calls = {name: [] for name in ("membership", "_splice", "_eval_fwd")}
        for name, seen in calls.items():
            _counting(monkeypatch, name, seen)
        assert [factorize_adlh(self.copy(a)) for a in inputs] == words
        assert calls == {name: [] for name in calls}

    def test_flat_word_is_the_splice(self):
        a = gen("a", 4, S40)
        base = factorize_adl(a)
        word = factorize_adlh(a)
        kept = F._adlh_words[F._loop_key(a.fwd)]
        assert kept is word and word == F._splice(base, S40)
        assert F._eval_fwd(base, S40) == a.fwd and factorize_adlh(a) is word

    def test_bounded_least_recently_used_first(self, monkeypatch):
        x, y, z = (gen(f, i, S40) for f, i in (("a", 3), ("b", 4), ("g", 4)))
        for a in (x, y, z):
            # their edges are then in ``_factored``, so factoring them again
            # recurses into no stabilizer and stores top-level words only
            factorize_adl(a)
        F._adl_words.clear()
        checked = []
        _counting(monkeypatch, "membership", checked)
        monkeypatch.setattr(core, "MEMO_SIZE", 2)
        for a in (x, y, x, z, x, y):
            factorize_adl(a)
            assert len(F._adl_words) <= 2
        # x is used again before z arrives, so y goes; then z goes for y
        assert checked == [x, y, z, y]
        assert list(F._adl_words) == [F._loop_key(x.fwd), F._loop_key(y.fwd)]


class _Tripwire(OrderedDict):
    """A memo that fails the test on any read or write."""

    def _touched(self, *args, **kwargs):
        raise AssertionError("the reduction memo was used")

    get = __getitem__ = __setitem__ = __contains__ = move_to_end = popitem = _touched
    lookup = put = _touched


S20 = Signature(2, 0)
#: its peak reduction from the relator makes ten moves
_TEN_MOVES = eval_gen_word(parse_gen_word("g2 a1"), S20)


def _reduce(V, phi, memo):
    """The reduction loop from V towards phi(V), through ``memo`` if given."""
    return groupoid._reduce_from(V, phi, phi.apply(V), memo)


def _state(sig, key):
    """The (word, map) of a reduction state from its ``_reduced`` key."""
    codes, images = key
    return Word(sig, codes), Endomorphism(sig, tuple(Word(sig, c) for c in images))


class TestReductionSuffixMemo:
    """Factorisation's peak reductions read and store their states after the
    first in the bounded LRU ``_reduced``; a hit serves the stored suffix of
    edges and the remainder.  Certification, ``nielsen_reduce`` and the audit
    replay run without it."""

    @staticmethod
    def inputs(rng):
        # on the grid, and off it at (2,2) and (4,0)
        out = [random_adl_automorphism(sig, rng, 5 if sig.rank <= 4 else 3)
               for sig in GRID for _ in range(3)]
        out += [random_adl_automorphism(Signature(2, 2), rng, 3) for _ in range(3)]
        return out + [gen("a", 3, S40), gen("b", 4, S40)]

    @staticmethod
    def advances(monkeypatch):
        """Count ``_Carry.advance`` calls."""
        calls = []
        real = groupoid._Carry.advance
        monkeypatch.setattr(
            groupoid._Carry, "advance",
            lambda self, e, peak: calls.append(e) or real(self, e, peak),
        )
        return calls

    @staticmethod
    def warm_entry():
        """Reduce an input of ten moves through ``_reduced`` and return its
        state after the first move, with its entry."""
        _reduce(relator(S20), _TEN_MOVES.fwd, F._reduced)
        assert len(F._reduced) == 10
        return next((k, v) for k, v in F._reduced.items() if v[1] == 1)

    def test_warm_equals_fresh(self, rng, monkeypatch):
        inputs = self.inputs(rng)
        fresh = []
        for a in inputs:
            clear_memos()
            edges, n1 = nielsen_reduce(relator(a.sig), a.fwd)
            fresh.append((edges, n1, factorize_adl(a)))
        clear_memos()
        for a in inputs:
            factorize_adl(a)
        assert F._reduced
        moved = self.advances(monkeypatch)
        served = 0
        for a, (edges, n1, _) in zip(inputs, fresh):
            before = len(moved)
            got, got_n1 = _reduce(relator(a.sig), a.fwd, F._reduced)
            assert got == edges and [e.kind for e in got] == [e.kind for e in edges]
            assert got_n1 == n1 and got_n1.kind == n1.kind
            served += len(got) - (len(moved) - before)
        assert served > 0  # the warm memo served moves
        F._adl_words.clear()
        assert [factorize_adl(a) for a in inputs] == [word for _, _, word in fresh]

    def test_hit_runs_no_move_of_the_suffix(self, monkeypatch):
        key, (done, _, n1) = self.warm_entry()
        V, phi = _state(S20, key)
        moved = self.advances(monkeypatch)
        finished = []
        real_finish = groupoid._finish_n1
        monkeypatch.setattr(
            groupoid, "_finish_n1", lambda *args: finished.append(args) or real_finish(*args)
        )
        # the first state is not looked up, its first move reaches a stored one
        edges, got_n1 = _reduce(V, phi, F._reduced)
        assert edges == list(done[1:]) and got_n1 is n1
        assert len(moved) == 1 and finished == []
        assert nielsen_reduce(V, phi) == (edges, n1)
        assert len(moved) == 1 + len(edges) and len(finished) == 1

    def test_hit_within_budget_only(self, monkeypatch):
        # a hit that would end past the budget is not taken, so the memo
        # changes no outcome: with one iteration fewer than the moves need,
        # both ways exhaust the budget
        key, (done, _, _) = self.warm_entry()
        V, phi = _state(S20, key)
        moves = len(done) - 1
        images = sum(len(w) for w in phi.images)
        for budget, ok in ((moves, False), (moves + 1, True)):
            monkeypatch.setattr(groupoid, "_MAX_ITER_BASE", budget - 20 * images)
            for memo in (F._reduced, None):
                warm = list(F._reduced.items())
                if ok:
                    assert len(_reduce(V, phi, memo)[0]) == moves
                else:
                    with pytest.raises(ReductionStuck, match="budget exhausted"):
                        _reduce(V, phi, memo)
                    assert list(F._reduced.items()) == warm

    @pytest.mark.parametrize("fault", ["remainder", "move"])
    def test_raise_stores_nothing(self, fault, monkeypatch):
        if fault == "remainder":
            def fail(*args):
                raise CosetViolation("forced")

            monkeypatch.setattr(groupoid, "_finish_n1", fail)
        else:
            # the measure fails to decrease at the third move
            moved = []
            real = groupoid._Carry.advance
            monkeypatch.setattr(
                groupoid._Carry, "advance",
                lambda self, e, peak: moved.append(e) or (len(moved) < 3 and real(self, e, peak)),
            )
        with pytest.raises((CosetViolation, ReductionStuck)):
            _reduce(relator(S20), _TEN_MOVES.fwd, F._reduced)
        assert not F._reduced
        monkeypatch.undo()
        self.warm_entry()

    def test_stored_remainder_is_checked(self):
        # a stored remainder that does not end at this call's target raises,
        # and the call stores nothing
        key, (done, _, n1) = self.warm_entry()
        second = next(k for k, (d, i, _) in F._reduced.items() if d is done and i == 2)
        bad = groupoid._edge_to(n1.source, n1.source, n1.aut, n1.kind)
        F._reduced[second] = (done, 2, bad)
        warm = list(F._reduced.items())
        with pytest.raises(CosetViolation, match="does not carry"):
            _reduce(*_state(S20, key), F._reduced)
        assert list(F._reduced.items()) == warm

    def test_bounded_least_recently_used_first(self, rng, monkeypatch):
        key, (done, _, _) = self.warm_entry()
        second = next(k for k, (d, i, _) in F._reduced.items() if d is done and i == 2)
        order = [k for k in F._reduced if k != second]
        # a hit stores nothing new and moves its state last
        _reduce(*_state(S20, key), F._reduced)
        assert list(F._reduced) == order + [second]
        F._reduced.clear()
        monkeypatch.setattr(core, "MEMO_SIZE", 5)
        for a in self.inputs(rng):
            factorize_adl(a)
            assert len(F._reduced) <= 5
        assert len(F._reduced) == 5

    def test_certification_reduction_and_replay_skip_it(self, rng, monkeypatch):
        inputs = self.inputs(rng)[::3]
        cold = []
        for a in inputs:
            cold.append([line for script in factorize_audit(a) for line in script.lines()])
        assert F._reduced
        monkeypatch.setattr(F, "_reduced", _Tripwire())
        moved = self.advances(monkeypatch)
        for a, lines in zip(inputs, cold):
            before = len(moved)
            edges, _ = nielsen_reduce(relator(a.sig), a.fwd)
            assert groupoid.certify_automorphism(a.fwd) == a
            # both reductions ran every move
            assert len(moved) - before == 2 * len(edges)
            # the word is read from ``_adl_words``; the replay reduces again
            assert [line for script in factorize_audit(a) for line in script.lines()] == lines


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
    def test_bracket_of_inverse_edge(self, rng):
        for sig in GRID:
            if sig.p <= 1 and sig.g < 1:
                continue
            V = random_zieschang(sig, rng)
            for e in enumerate_nielsen_from(V):
                assert _bracket(e.inverse()).fwd == _bracket(e).inverse().fwd

    def test_each_value_computed_once(self, rng, monkeypatch):
        # over the run: each distinct loop is peeled once and its stabilizer
        # factored once with it, and a hit of the edge memo, or of a loop's
        # parts, telescopes, peels, factors and brackets nothing; each
        # distinct edge is bracketed once, by the call that telescopes it,
        # and a telescoping memo hit brackets nothing; each distinct loop
        # value has its inverse folded once and its coset checked once
        peeled, factored, tops, done_tops, inverses, tagged = [], [], [], [], [], []
        count = {"telescope": 0, "peel": 0, "stab": 0, "bracket": 0}
        hits = {"edge": 0, "loop": 0}
        real_peel, real_stab, real_lookup = F.peel_special, F._stab_word, core._Memo.lookup
        real_loops, real_bracket = F.nielsen_to_base_loops, F._bracket
        real_aut, real_tag = F._aut, F._checked_tag

        def peel(loop, sig):
            count["peel"] += 1
            peeled.append(loop.aut.fwd)
            return real_peel(loop, sig)

        def stab_word(stab, sig):
            # each peel is followed by its stabilizer's word
            count["stab"] += 1
            factored.append((peeled[-1], stab.fwd))
            return real_stab(stab, sig)

        def lookup(memo, key, build):
            hit, before = key in memo, dict(count)
            out = real_lookup(memo, key, build)
            if hit and (memo is F._factored or memo is F._parts):
                hits["edge" if memo is F._factored else "loop"] += 1
                assert count == before
            return out

        def loops(e):
            # the edge, brackets of the edge itself, brackets of any edge
            count["telescope"] += 1
            tops.append([e, 0, 0])
            try:
                return real_loops(e)
            finally:
                done_tops.append(tops.pop())

        def bracket(d):
            count["bracket"] += 1
            for top in tops:
                top[1] += top[0] is d
                top[2] += 1
            return real_bracket(d)

        def aut(fwd, inv):
            # only a bracket's miss folds an inverse
            inverses.append(F._loop_key(fwd))
            return real_aut(fwd, inv)

        def checked_tag(a, expect):
            tagged.append(F._loop_key(a.fwd))
            return real_tag(a, expect)

        monkeypatch.setattr(core._Memo, "lookup", lookup)
        for name, fn in [("peel_special", peel), ("_stab_word", stab_word),
                         ("nielsen_to_base_loops", loops),
                         ("_bracket", bracket), ("_aut", aut), ("_checked_tag", checked_tag)]:
            monkeypatch.setattr(F, name, fn)
        for sig in GRID:
            for _ in range(3):
                factorize_adl(random_adl_automorphism(sig, rng, _short(sig) + 2))
        assert done_tops and hits["edge"] and hits["loop"]
        assert len(set(peeled)) == len(peeled) <= core.MEMO_SIZE
        assert len(set(factored)) == len(factored) == len(peeled)
        assert len(set(inverses)) == len(inverses) < count["bracket"]
        assert len(set(tagged)) == len(tagged) <= len(F._tags) <= core.MEMO_SIZE
        seen = set()
        for e, own, brackets in done_tops:
            key = (e.source, e.target, e.aut.fwd, e.kind)
            if key in seen:
                assert brackets == 0
            else:
                seen.add(key)
                assert own == 1
        assert len(seen) <= core.MEMO_SIZE


class TestChecksStillFire:
    def test_wrong_inner_word(self, monkeypatch):
        # (1,1) re-includes words factored at (1,0)
        real = F._factorize_word

        def wrong_inner(a):
            w = real(a)
            return w * GenWord.of(GenName("a", 1)) if a.sig == S10 else w

        monkeypatch.setattr(F, "_factorize_word", wrong_inner)
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


def _identity_edges(monkeypatch):
    # every case-table edge moves nothing
    real = F._edge
    monkeypatch.setattr(
        F, "_edge", lambda V, aut, kind: real(V, Automorphism.identity(V.sig), kind)
    )


def _bracket_off_every_coset(monkeypatch):
    # at p = 0: brackets move both x1' y1' x1 and x1'
    def bracket(e):
        x1, y1 = e.sig.x_code(1), e.sig.y_code(1)
        return letter_move(e.sig, x1, Word.identity(e.sig), Word(e.sig, (y1,)))

    monkeypatch.setattr(F, "_bracket", bracket)


def _every_puncture_letter_touched(monkeypatch):
    # the search for an untouched letter reads a cycle of the puncture
    # letters, which moves every one
    real = F._untouched_t

    def untouched(aut, sig):
        cycle = [swap_letters(sig, j, j + 1) for j in range(1, sig.p)]
        return real(compose(*cycle), sig)

    monkeypatch.setattr(F, "_untouched_t", untouched)


def _a_touched_puncture_letter(monkeypatch):
    # the search returns a puncture letter that the edge moves or uses
    real = F._untouched_t

    def touched(aut, sig):
        for j in range(1, sig.p + 1):
            if aut.fwd.images[j - 1].codes != (j,) or any(
                abs(c) == j for b, im in enumerate(aut.fwd.images, 1) if b != j for c in im.codes
            ):
                return j
        return real(aut, sig)

    monkeypatch.setattr(F, "_untouched_t", touched)


def _target_front_conjugation_dropped(monkeypatch):
    # at p >= 2 only ``_square`` conjugates to the front, at the source of
    # its edge and then at the target, so every second call is a target's
    real = F._conj_t_to_front
    calls = itertools.count(1)
    monkeypatch.setattr(
        F, "_conj_t_to_front", lambda V, pos: None if next(calls) % 2 == 0 else real(V, pos)
    )


def _conjugators_ending_in_a_puncture_letter_dropped(monkeypatch):
    # such a conjugation moves nothing: the second leg of a front
    # conjugation cascade always has one
    real = F.letter_move

    def move(sig, u, left, right):
        if right.codes and sig.is_t_code(right.codes[-1]):
            return Automorphism.identity(sig)
        return real(sig, u, left, right)

    monkeypatch.setattr(F, "letter_move", move)


def _split_contract_never_holds(monkeypatch):
    monkeypatch.setattr(F, "_split_contract_holds", lambda e: False)


def _first_leg_moving_nothing(monkeypatch):
    # the first leg of the p = 0 first-letter split moves nothing
    monkeypatch.setattr(
        F, "_nielsen_edge",
        lambda V, tag, k: groupoid._edge_to(V, V, Automorphism.identity(V.sig), None),
    )


def _every_loop_tagged_special_inverse(monkeypatch):
    monkeypatch.setattr(F, "_checked_tag", lambda aut, expect: STAB_SPECIAL_INV)


def _identity_generators(monkeypatch):
    # at p = 0 only ``peel_special`` reads ``generator``: its conjugator
    # beta_1 alpha_1 becomes the identity, so a special loop peels into
    # itself
    monkeypatch.setattr(F, "generator", lambda name, sig: Automorphism.identity(sig))


def _puncture_move_after_the_relabeled_recursion(monkeypatch):
    real = F._factorize_word
    s1 = GenWord.of(GenName("s", 1))
    monkeypatch.setattr(
        F, "_factorize_word", lambda a: real(a) * s1 if a.sig.p == 1 else real(a)
    )


def _discrepancy(images):
    """``_alpha1_power`` reads the discrepancy with the given images (text,
    by basis letter) instead of the true one."""

    def patch(monkeypatch):
        real = F._alpha1_power

        def faulty(delta, sig):
            moved = {b: parse_word(sig, w) for b, w in images.items()}
            return real(Endomorphism.from_map(sig, moved), sig)

        monkeypatch.setattr(F, "_alpha1_power", faulty)

    return patch


#: (signature, input generator word, fault, message): each fault reaches one
#: ``CosetViolation`` of ``factorize`` that no fault-free input reaches
_NEVER_RUN_RAISES = [
    ("1,0", "a1'", _bracket_off_every_coset, "loop lands outside every admissible coset"),
    ("1,2", "a1", _identity_edges, "front conjugation produced an unexpected word"),
    ("1,2", "a1", _every_puncture_letter_touched,
     "no untouched puncture letter for the chunked square"),
    ("0,3", "s2'", _a_touched_puncture_letter, "bottom of the square moves its split letter"),
    ("1,2", "a1", _target_front_conjugation_dropped,
     "front conjugation at one end of the square only"),
    ("1,2", "g1'", _conjugators_ending_in_a_puncture_letter_dropped,
     "front conjugation cascade missed its target"),
    ("1,1", "g1", _split_contract_never_holds,
     "N3_right k=1 edge violates the direct-square contract"),
    ("1,1", "a1' b1'", _split_contract_never_holds, "unhandled p=1 edge shape N2_left k=4"),
    ("1,1", "g1", _identity_edges, "hexagon bottom is not the expected left move"),
    ("1,0", "b1' a1'", _first_leg_moving_nothing,
     "second leg of the first-letter split is not a first-letter map"),
    ("1,0", "a1'", _every_loop_tagged_special_inverse, "unexpected p=0 loop tag stab_special_inv"),
    ("1,0", "b1'", _identity_generators, "peeled part is not in the stabilizer"),
    ("1,0", "b1", _discrepancy({2: "y1 x1"}), "relabeling discrepancy moves more than x1"),
    ("1,0", "b1", _discrepancy({1: "y1"}), "relabeling discrepancy has the wrong x1 image"),
    ("1,0", "b1", _discrepancy({1: "x1 x1"}), "relabeling discrepancy is not a power of alpha_1"),
    ("2,0", "g2", _puncture_move_after_the_relabeled_recursion,
     "relabeled recursion produced a puncture move"),
]


class TestNeverRunRaises:
    """Each engine-fault raise of the case tables, the peeling and the
    recursion, reached by patching one step: ``surfaut factorize`` exits 3
    with the raise's message and prints nothing."""

    @pytest.mark.parametrize(
        "sig, word, fault, message", _NEVER_RUN_RAISES, ids=[c[3] for c in _NEVER_RUN_RAISES]
    )
    def test_factorize_exits_3(self, sig, word, fault, message, monkeypatch):
        s = Signature(*map(int, sig.split(",")))
        text = format_endomorphism(eval_gen_word(parse_gen_word(word), s).fwd)
        fault(monkeypatch)
        out, err = io.StringIO(), io.StringIO()
        code = run(["factorize", "--sig", sig, "--aut", text], out, err)
        assert (code, out.getvalue()) == (3, "")
        assert err.getvalue() == f"internal assertion: CosetViolation: {message}\n"

    def test_trivial_group_rejects_a_non_identity(self):
        # t1 -> t1' is an automorphism at (0,1), where the group is trivial;
        # ``membership`` rejects it before the level, so the level is called
        # directly, and only the recursion reaches it: an engine fault
        flip = swap_letters(Signature(0, 1), 1, -1)
        with pytest.raises(CosetViolation, match=r"^the group at .* is trivial$"):
            F._factorize_word(flip)
        with pytest.raises(NotInA, match="^input does not fix the relator"):
            F.factorize_adl(flip)


class TestAlpha1Power:
    """``_alpha1_power`` reads the exponent off x1 -> h x1, where every letter
    of the head h is y1 or y1'.  h is a prefix of a reduced word, so no y1
    stands next to y1': all letters of h are equal, and h is y1^(-k) for the
    exponent k of alpha_1^k."""

    @given(st.lists(st.sampled_from([S10.y_code(1), -S10.y_code(1)]), max_size=12))
    def test_a_reduced_head_is_a_power_of_y1(self, codes):
        x1 = S10.x_code(1)
        head = Word(S10, tuple(codes) + (x1,)).codes[:-1]
        assert len(set(head)) <= 1
        k = F._alpha1_power(Endomorphism.from_map(S10, {x1: Word(S10, head + (x1,))}), S10)
        a1 = gen("a", 1, S10) if k >= 0 else gen("a", 1, S10).inverse()
        power = compose(Automorphism.identity(S10), *[a1] * abs(k))
        assert power.fwd.images[x1 - 1].codes == head + (x1,)


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
        # the replay telescopes every edge itself, in order
        for sig in GRID:
            a = random_adl_automorphism(sig, rng, _short(sig))
            cold = factorize_audit(a)
            word = factorize_adl(a)
            assert factorize_audit(a) == cold
            assert factorize_adl(a) == word

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
        # the stabilizers of these loops restrict to the trivial group at
        # (0, 1), so factoring the edges telescopes no edge below
        a, b, c = _single_loop_edges(S10, rng, 3)
        runs = []
        real = F.nielsen_to_base_loops

        def telescope(e):
            runs.append(e)
            return real(e)

        monkeypatch.setattr(core, "MEMO_SIZE", 2)
        monkeypatch.setattr(F, "nielsen_to_base_loops", telescope)
        for e in (a, b, a, c, a, b):
            F._edge_factors(e)
            assert len(F._factored) <= 2
        # a is used again before c arrives, so b goes; then c goes for b
        assert runs == [a, b, c, b]

    def test_memos_are_bounded(self, rng, monkeypatch):
        for memo in (groupoid._nielsen_edge, groupoid._template_move):
            assert memo.cache_info().maxsize == core.MEMO_SIZE
        monkeypatch.setattr(core, "MEMO_SIZE", 5)
        edges = _distinct_edges(Signature(1, 2), rng, 12)
        loop_memos = (F._brackets, F._tags, F._parts)
        for e in edges + edges:
            F._edge_factors(e)
            assert len(F._factored) <= 5
            # the loop memos are ``_Memo``s, bounded by the same size
            assert all(len(memo) <= 5 for memo in loop_memos)
        assert len(F._factored) == 5
        assert all(len(memo) == 5 for memo in loop_memos)


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


def _parts(fwd):
    """The parts stored for the loop ``fwd``, None when there are none."""
    return F._parts.get(F._loop_key(fwd))


class TestFactorMemos:
    """Each Nielsen edge's tokens and value come from ``_factored`` and each
    loop's parts from ``_parts``."""

    def test_cold_and_warm_memos_agree(self, rng):
        def cli(*argv):
            out, err = io.StringIO(), io.StringIO()
            assert run(list(argv), out, err) == 0, err.getvalue()
            return out.getvalue()

        def outputs(a):
            sig, aut = f"{a.sig.g},{a.sig.p}", format_endomorphism(a.fwd)
            # the top level is memoised too; clearing it makes the edge and
            # loop memos serve
            F._adl_words.clear()
            F._adlh_words.clear()
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
        assert F._factored and F._parts
        assert [outputs(a) for a in cases] == cold
        assert any("=>" in audit for _, _, audit in cold)

    def test_each_stored_value_is_the_fold_of_its_tokens(self, rng):
        # so the level check, which composes the stored values, checks the
        # word the stored tokens join into
        for sig in GRID + (S40,):
            for _ in range(3):
                factorize_adl(random_adl_automorphism(sig, rng, _short(sig)))
        factorize_adl(gen("a", 4, S40))
        assert len(F._factored) > 100 and len(F._parts) > 50
        for key, (tokens, value) in F._factored.items():
            assert F._eval_fwd(GenWord(tokens), key[0]) == value
        for key, parts in F._parts.items():
            assert all(word.tokens for word, _ in parts)
            for word, value in parts:
                assert F._eval_fwd(word, key[0]) == value

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

        def recording(e):
            loops = telescoped[F._edge_key(e)] = real_telescope(e)
            return loops

        real_telescope = F.nielsen_to_base_loops
        monkeypatch.setattr(F, "peel_special", second_top_fails)
        monkeypatch.setattr(F, "nielsen_to_base_loops", recording)
        with pytest.raises(CosetViolation, match="forced"):
            factorize_adl(a)
        assert _parts(top[0]) is not None and _parts(top[1]) is None
        assert not [key for key in F._factored
                    if top[1] in [loop.aut.fwd for loop in telescoped[key]]]
        monkeypatch.undo()
        # the factorisation and its replay both run through now
        assert factorize_audit(a)
        assert _parts(top[1]) is not None

    def test_least_recently_used_goes_first(self, rng, monkeypatch):
        # the stabilizers of these loops restrict to the trivial group at
        # (0, 1), so peeling them reads no edge or loop memo below
        a, b, c = _single_loop_edges(S10, rng, 3)
        clear_memos()  # finding them filled the bracket and tag memos
        edges, loops = [], []
        real_factor, real_peel = F._factor_edge, F._peel_parts

        def factor_edge(e):
            edges.append(e)
            return real_factor(e)

        def peel_parts(loop, sig):
            loops.append(loop.aut.fwd)
            return real_peel(loop, sig)

        monkeypatch.setattr(core, "MEMO_SIZE", 2)
        monkeypatch.setattr(F, "_factor_edge", factor_edge)
        monkeypatch.setattr(F, "_peel_parts", peel_parts)
        for e in (a, b, a, c, a, b):
            F._edge_factors(e)
            assert len(F._factored) <= 2 and len(F._parts) <= 2
        # a is used again before c arrives, so b goes; then c goes for b.
        # Each of these edges has one loop, so peeling it reads one parts
        # entry, and a hit of the edge memo reads none: at the parts memo a
        # goes for c, and b is still there
        assert edges == [a, b, c, b]
        assert list(F._parts) == [F._loop_key(loops[2]), F._loop_key(loops[1])]
        assert loops == [nielsen_to_base_loops(e)[0].aut.fwd for e in (a, b, c)]
        # evictions change no word
        for sig in GRID:
            x = random_adl_automorphism(sig, rng, _short(sig))
            F._adl_words.clear()
            word = factorize_adl(x)
            factorize_audit(x)
            F._adl_words.clear()
            assert factorize_adl(x) == word
            assert len(F._factored) <= 2
            assert all(len(memo) <= 2 for memo in (F._brackets, F._tags, F._parts))


class TestLoopMemo:
    """Brackets and loops are keyed in ``_brackets`` and ``_tags`` on their
    forward image codes: a bracket folds its inverse only on a miss, and
    ``_loop`` runs the coset and relator checks only on a miss of ``_tags``."""

    def test_hit_is_the_fresh_pair(self, rng):
        from surfaut.endo import _undoes

        hits = tags = 0
        for sig in [s for s in GRID if s.p >= 2 or s.g >= 1]:
            for _ in range(3):
                for e in enumerate_nielsen_from(random_zieschang(sig, rng)):
                    phi_v, _ = F.canonical_edge(e.source)
                    phi_w, _ = F.canonical_edge(e.target)
                    fresh = compose(phi_v.inverse(), e.aut, phi_w)
                    hit = F._loop_key(fresh.fwd) in F._brackets
                    br = _bracket(e)
                    assert (br.fwd, br.inv) == (fresh.fwd, fresh.inv)
                    assert _undoes(br.fwd, br.inv) and _undoes(br.inv, br.fwd)
                    hits += hit
                    for loop in nielsen_to_base_loops(e):
                        again = F._loop(Automorphism(loop.aut.fwd, loop.aut.inv))
                        assert again.coset_tag == loop.coset_tag == _tag_of(loop.aut, sig)
                        assert _undoes(again.aut.fwd, again.aut.inv)
                        tags += 1
        assert hits and tags

    @pytest.mark.parametrize("fault", ["outside", "wrong tag", "relator"])
    @pytest.mark.parametrize("bracketed", [False, True])
    def test_raise_stores_nothing(self, fault, bracketed, monkeypatch):
        from surfaut.endo import swap_letters

        sig = Signature(1, 1)
        if fault == "relator":
            # fixes t1, so it tags as a stabilizer loop, but moves the relator
            aut, message = swap_letters(sig, sig.x_code(1), sig.y_code(1)), "does not fix"
        else:
            aut = gen("b", 1, sig)
            tag, message = {"outside": (None, "outside every admissible coset"),
                            "wrong tag": (STAB_SPECIAL, "expected a stab loop")}[fault]
            monkeypatch.setattr(F, "_tag_of", lambda a, s: tag)
        key = F._loop_key(aut.fwd)
        if bracketed:
            # an entry that a bracket made, with no tag yet
            F._brackets.lookup(key, lambda: aut)
        for _ in range(2):
            with pytest.raises(CosetViolation, match=message):
                F._loop(aut, STAB)
            assert not F._tags and list(F._brackets) == [key] * bracketed
        monkeypatch.undo()
        if fault != "relator":
            assert F._loop(aut, STAB).coset_tag == STAB
            assert F._tags[key] == STAB

    def test_hit_with_another_expect_raises(self, monkeypatch):
        sp = gen("s", 2, S02)
        F._loop(sp, STAB_SPECIAL)
        # a hit runs no coset check, but still compares the expected tag
        monkeypatch.setattr(F, "_tag_of", lambda a, s: pytest.fail("checked twice"))
        with pytest.raises(CosetViolation, match="expected a stab loop, found stab_special"):
            F._loop(sp, STAB)
        assert F._loop(sp).coset_tag == STAB_SPECIAL
        assert F._tags[F._loop_key(sp.fwd)] == STAB_SPECIAL

    def test_bounded_least_recently_used_first(self, monkeypatch):
        sig = Signature(0, 3)
        x, y, z = gen("s", 3, sig), gen("s", 3, sig).inverse(), gen("s", 2, sig)
        checked = []
        real = F._checked_tag

        def checked_tag(aut, expect):
            checked.append(aut)
            return real(aut, expect)

        monkeypatch.setattr(core, "MEMO_SIZE", 2)
        monkeypatch.setattr(F, "_checked_tag", checked_tag)
        for aut in (x, y, x, z, x, y):
            F._loop(aut)
            assert len(F._tags) <= 2
        # x is used again before z arrives, so y goes; then z goes for y
        assert checked == [x, y, z, y]
        assert list(F._tags) == [F._loop_key(x.fwd), F._loop_key(y.fwd)]


@dataclasses.dataclass
class _Call:
    name: str
    parent: "_Call | None"  # the innermost traced call this one ran in
    args: tuple
    result: object = None
    scripts: list = dataclasses.field(default_factory=list)  # script records it appended


def _trace(monkeypatch, names):
    """Wrap the named ``factorize`` functions; every call is logged in order.
    A call whose last argument is a list of script records (a case table's)
    records the ones appended while it ran, its own first."""
    calls, stack = [], []
    for name in names:
        real = getattr(F, name)

        def wrapped(*args, real=real, name=name):
            call = _Call(name, stack[-1] if stack else None, args)
            calls.append(call)
            records = args[-1] if args and isinstance(args[-1], list) else []
            start = len(records)
            stack.append(call)
            try:
                call.result = real(*args)
            finally:
                stack.pop()
            call.scripts = records[start:]
            return call.result

        monkeypatch.setattr(F, name, wrapped)
    return calls


def _called_from(call, name):
    return call.parent is not None and call.parent.name == name


_TABLES = ["_loops_chunked_square", "_loops_move_front", "_loops_hexagon_left",
           "_loops_hexagon_right", "_loops_p1", "_loops_p0"]


def _telescope_enumerated(rng, words=8):
    """Uncached telescoping, with its script records, of every Nielsen edge
    from seeded Zieschang words at each grid signature with a case table and
    at (3,1)."""
    for sig in [s for s in GRID if s.p >= 2 or s.g >= 1] + [Signature(3, 1)]:
        for _ in range(words):
            for e in enumerate_nielsen_from(random_zieschang(sig, rng)):
                F._telescope(e)


def _has_t_before(d):
    """Is there a puncture letter before the one the front conjugation moves?"""
    V = d.source
    return any(V.sig.is_t_code(c) for c in V.codes[: V.codes.index(d.target.codes[0])])


class TestSquareFrontConjugations:
    """The front conjugations of a square are both None or both edges: its
    edge fixes the split letter and keeps it out of every other image, so
    the letter is in front at the target exactly when it is at the source."""

    def test_both_or_neither(self, rng, monkeypatch):
        calls = _trace(monkeypatch, ["_square"])
        _telescope_enumerated(rng)
        sides = [(c.result[0] is None, c.result[2] is None) for c in calls]
        assert all(c.args[0].sig.p >= 2 for c in calls)
        assert set(sides) == {(True, True), (False, False)}


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
                nu1 = call.scripts[0][0][0]
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
                _, e_back, e_pull = call.scripts[0][0]
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
                e_l, bottom, e_r_inv = call.scripts[0][0]
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
        # e_l, the bottom and e_r
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
        factorize_audit(eval_gen_word(parse_gen_word(genword), s))

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
