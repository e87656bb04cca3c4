import collections
import copy
import dataclasses
import io
import itertools
import json
import pathlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfaut import (
    Automorphism,
    CosetViolation,
    Endomorphism,
    GenName,
    GroupoidEdge,
    HypothesisViolated,
    NotZieschang,
    ReductionStuck,
    Signature,
    SurfautError,
    TargetTooLong,
    Word,
    apply,
    canonical_edge,
    certify_automorphism,
    classify_nielsen,
    compose,
    enumerate_nielsen_from,
    eval_gen_word,
    format_endomorphism,
    generator,
    mu_key,
    nielsen_reduce,
    parse_word,
    relator,
)
from surfaut import core, groupoid
from surfaut.core import MEMO_SIZE
from surfaut.endo import _t_class_permutation, classify_letters, letter_move
from surfaut.gens import parse_gen_word
from surfaut.groupoid import (
    N1,
    N2_LEFT,
    N2_RIGHT,
    N3_LEFT,
    N3_RIGHT,
    NielsenKind,
    classify_nielsen_map,
    nielsen_edge,
)
from surfaut.whitehead import _candidate_letters, is_zieschang
from surfaut.selftest import GRID, random_adl_automorphism, random_word, random_zieschang

from conftest import SMALL_SIGS, clear_memos, shared, word_pairs

S10 = Signature(1, 0)
S11 = Signature(1, 1)
S02 = Signature(0, 2)
OFF_GRID = [Signature(2, 4), Signature(3, 2), Signature(4, 0), Signature(5, 1)]

_CANON_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "canon_outputs.json").read_text(
        encoding="utf-8"
    )
)["canonical"]
_REDUCE_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "reduce_outcomes.json").read_text(
        encoding="utf-8"
    )
)


class TestClassify:
    def test_alpha1_is_right_n2_at_1(self):
        v0 = relator(S10)
        e = GroupoidEdge(v0, v0, generator(GenName("a", 1), S10))
        kind = classify_nielsen(e)
        assert kind.tag == N2_RIGHT and kind.k == 1

    def test_identity_is_n1(self):
        v0 = relator(S10)
        e = GroupoidEdge(v0, v0, Automorphism.identity(S10))
        assert classify_nielsen(e).tag == N1

    def test_conjugated_puncture_is_right_n3(self):
        v0 = relator(S11)
        aut = Automorphism(
            Endomorphism.from_map(S11, {1: parse_word(S11, "x1' t1 x1")}),
            Endomorphism.from_map(S11, {1: parse_word(S11, "x1 t1 x1'")}),
        )
        target = apply(aut, v0)
        assert target == parse_word(S11, "x1' t1 y1' x1 y1")
        kind = classify_nielsen(GroupoidEdge(v0, target, aut))
        assert kind.tag == N3_RIGHT and kind.k == 1

    def test_non_template_unclassified(self):
        sig = Signature(2, 0)
        v0 = relator(sig)
        a = compose(generator(GenName("a", 1), sig), generator(GenName("b", 2), sig))
        assert classify_nielsen(GroupoidEdge(v0, apply(a, v0), a)) is None


def _classify_exhaustive(V, aut):
    """The classifier that builds the template at every (tag, k), kept as
    the reference for the one that tries only the positions that can match."""
    if classify_letters(aut.fwd) is not None:
        return NielsenKind(N1)
    for tag in (N2_RIGHT, N2_LEFT, N3_RIGHT, N3_LEFT):
        for k in range(1, len(V.codes) + 1):
            cand = groupoid._template_aut(V, tag, k)
            if cand is not None and cand.fwd == aut.fwd:
                return NielsenKind(tag, k)
    return None


class TestClassifyAgainstExhaustive:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(GRID), st.integers(0, 2**32 - 1))
    def test_same_kind_as_every_position(self, sig, seed):
        rng = random.Random(seed)
        V = random_zieschang(sig, rng)
        maps = []
        for e in enumerate_nielsen_from(V):
            assert classify_nielsen_map(V, e.aut) == e.kind
            maps += [(V, e.aut), (e.target, e.aut.inverse())]
        # random maps, and one-letter moves that are mostly not templates
        for _ in range(4):
            maps.append((V, random_adl_automorphism(sig, rng, 3)))
            code = rng.choice([c for c in range(-sig.rank, sig.rank + 1) if c])
            left, right = (
                Word(sig, tuple(c for c in random_word(sig, rng, 3).codes
                                if abs(c) != abs(code)))
                for _ in range(2)
            )
            maps.append((V, letter_move(sig, code, left, right)))
        for W, aut in maps:
            assert classify_nielsen_map(W, aut) == _classify_exhaustive(W, aut)


class TestEnumerate:
    def test_two_puncture_count(self):
        edges = enumerate_nielsen_from(relator(S02))
        kinds = sorted(str(e.kind) for e in edges)
        assert kinds == ["N3_left k=2", "N3_right k=1"]

    def test_genus_one_count(self):
        edges = enumerate_nielsen_from(relator(S10))
        assert len(edges) == 6
        assert {str(e.kind) for e in edges} == {
            "N2_right k=1", "N2_right k=2", "N2_right k=3",
            "N2_left k=2", "N2_left k=3", "N2_left k=4",
        }

    def test_empty_signature(self):
        sig = Signature(0, 0)
        assert enumerate_nielsen_from(relator(sig)) == []

    def test_targets_zieschang_and_bound(self, rng):
        from surfaut import is_zieschang

        for sig in SMALL_SIGS:
            V = random_zieschang(sig, rng)
            edges = enumerate_nielsen_from(V)
            n = sig.chain_len
            assert len(edges) <= 4 * max(n - 1, 0)
            for e in edges:
                assert is_zieschang(e.target, sig)
                assert apply(e.aut, V) == e.target


class TestMuKey:
    def test_identity_key(self):
        key = mu_key(Endomorphism.identity(S10))
        assert [len(w) for w in key.words] == [1, 1, 1, 1]

    def test_identity_below_alpha1(self):
        assert mu_key(Endomorphism.identity(S10)) < mu_key(
            generator(GenName("a", 1), S10).fwd
        )

    def test_le_compares_keys_alone(self):
        from surfaut.endo import swap_letters

        ident = mu_key(Endomorphism.identity(S10))
        a1 = mu_key(generator(GenName("a", 1), S10).fwd)
        assert ident <= a1 and not a1 <= ident
        # swapping x1 and y1 permutes the measured images: the keys tie
        swapped = mu_key(swap_letters(S10, S10.x_code(1), S10.y_code(1)).fwd)
        assert ident <= swapped and swapped <= ident
        assert not ident < swapped and not swapped < ident

    def test_balanced_split(self):
        from surfaut.groupoid import _balanced_key

        w = parse_word(S10, "x1 y1 x1")
        length, left = _balanced_key(w)
        assert length == 3 and len(left) == 2


def reference_verdict(img, next_inv, A):
    """The verdict of a position as first written: both products built, then
    compared by their lenlex keys."""
    B, C = img * A, next_inv * A
    ka, kb, kc = A.lenlex_key(), B.lenlex_key(), C.lenlex_key()
    if ka < kb and ka < kc:
        return ()
    return ((A, B, C), len({ka, kb, kc}) == 3, kb < kc)


def as_words(sig, verdict):
    """A verdict of the engine, whose triple is code tuples, with words."""
    if not verdict:
        return verdict
    triple, distinct, left = verdict
    return (tuple(Word(sig, codes) for codes in triple), distinct, left)


_S11_RANK = groupoid._rank_table(S11)
#: words of at most four letters over t1 (both signs) and x1 at (1,1)
_SHORT_CODES = st.lists(st.sampled_from((1, -1, 2)), max_size=4).map(tuple)


def _sorted_keys(words):
    """The sorted ``_key_of`` keys of code tuples at (1,1)."""
    return sorted(groupoid._key_of(w, _S11_RANK) for w in words)


def reference_imgs(phi, word):
    """phi(v_k) for every letter v_k of ``word``."""
    images = phi.images
    return tuple(images[c - 1] if c > 0 else images[-c - 1].inverse()
                 for c in word.codes)


def reference_prefixes(phi, word):
    """A_0 .. A_n: A_k is the longest common prefix of phi(v_k)' and
    phi(v_(k+1)) for 0 < k < n, and A_0 and A_n are empty."""
    imgs = reference_imgs(phi, word)
    sig = phi.sig
    A = [Word.identity(sig)] * (len(imgs) + 1)
    for k in range(1, len(imgs)):
        left, right = imgs[k - 1].inverse().codes, imgs[k].codes
        m = 0
        while m < min(len(left), len(right)) and left[m] == right[m]:
            m += 1
        A[k] = Word(sig, left[:m])
    return tuple(A)


class TestNielsenReduce:
    def test_identity(self):
        edges, n1 = nielsen_reduce(relator(S10), Endomorphism.identity(S10))
        assert edges == [] and n1.aut.is_identity()

    def test_alpha1_recomposes(self):
        a = generator(GenName("a", 1), S10)
        edges, n1 = nielsen_reduce(relator(S10), a.fwd)
        parts = [e.aut for e in edges] + [n1.aut]
        assert compose(*parts).fwd == a.fwd

    def test_composite_recomposes(self):
        a = compose(generator(GenName("a", 1), S10), generator(GenName("b", 1), S10))
        edges, n1 = nielsen_reduce(relator(S10), a.fwd)
        assert compose(*([e.aut for e in edges] + [n1.aut])).fwd == a.fwd

    def test_mu_strictly_decreases(self, rng):
        # recomputed from the returned edges, not read back from the engine
        for sig in SMALL_SIGS:
            a = random_adl_automorphism(sig, rng, 10)
            edges, _ = nielsen_reduce(relator(sig), a.fwd)
            cur = a.fwd
            for e in edges:
                nxt = compose(e.aut.inv, cur)
                before, after = mu_key(cur), mu_key(nxt)
                assert after < before and not before < after
                cur = nxt

    def test_not_zieschang_source(self):
        with pytest.raises(NotZieschang):
            nielsen_reduce(parse_word(S10, "x1"), Endomorphism.identity(S10))

    def test_target_too_long(self):
        phi = Endomorphism.from_map(S10, {1: parse_word(S10, "y1 y1 x1")})
        V = relator(S10)
        if len(apply(phi, V)) > S10.chain_len:
            with pytest.raises(TargetTooLong):
                nielsen_reduce(V, phi)

    def test_class_violation_rejected(self):
        phi = Endomorphism.from_map(S11, {1: parse_word(S11, "t1'")})
        with pytest.raises(HypothesisViolated):
            nielsen_reduce(relator(S11), phi)

    def test_stuck_on_non_automorphism(self):
        # x1 -> y1 duplicates the y1 image; the relator image collapses
        phi = Endomorphism.from_map(S10, {1: parse_word(S10, "y1")})
        with pytest.raises(ReductionStuck):
            nielsen_reduce(relator(S10), phi)

    def test_states_expose_prefixes(self, rng):
        autos = [generator(GenName("b", 1), S10)]
        autos += [random_adl_automorphism(sig, rng, 8) for sig in SMALL_SIGS]
        for a in autos:
            sig = a.sig
            edges, _ = nielsen_reduce(relator(sig), a.fwd)
            phi, V = a.fwd, relator(sig)
            states = [(phi, V)]
            for e in edges:
                phi, V = compose(e.aut.inv, phi), e.target
                states.append((phi, V))
            for phi, word in states:
                codes, n = word.codes, len(word.codes)
                imgs, A = reference_imgs(phi, word), reference_prefixes(phi, word)
                assert imgs == tuple(apply(phi, Word(sig, (c,))) for c in codes)
                assert len(A) == n + 1
                assert A[0] == Word.identity(sig) and A[n] == Word.identity(sig)
                for k in range(1, n):
                    left, right = imgs[k - 1].inverse().codes, imgs[k].codes
                    m = len(A[k])
                    # A_k is the longest common prefix of phi(v_k)' and phi(v_(k+1))
                    assert left[:m] == right[:m] == A[k].codes
                    assert m == min(len(left), len(right)) or left[m] != right[m]
                    # the engine's prefix of the two letters' codes
                    assert left[: groupoid._lcp(left, right)] == A[k].codes

    def test_each_state_built_once(self, rng, monkeypatch):
        # one carry build per reduction, then one carried update per edge
        full, carried = [], []
        real_full, real_advance = groupoid._Carry.__init__, groupoid._Carry.advance

        def counted_full(carry, endo, V):
            full.append(V)
            real_full(carry, endo, V)

        def counted_advance(carry, edge, peak):
            carried.append(edge)
            return real_advance(carry, edge, peak)

        monkeypatch.setattr(groupoid._Carry, "__init__", counted_full)
        monkeypatch.setattr(groupoid._Carry, "advance", counted_advance)
        for sig in GRID:
            for a in [Automorphism.identity(sig)] + [
                random_adl_automorphism(sig, rng, 10) for _ in range(3)
            ]:
                full.clear()
                carried.clear()
                edges, _ = nielsen_reduce(relator(sig), a.fwd)
                assert len(full) == 1 and carried == edges

    def test_carried_states_match_full_rebuild(self, rng, monkeypatch):
        # the carry is updated in place, so its build and each move record a
        # copy of it and the map it gives, the build under the edge None
        carried = []
        real_init, real_advance = groupoid._Carry.__init__, groupoid._Carry.advance

        def snapshot(carry, edge):
            st = {k: copy.copy(v) for k, v in vars(carry).items()}
            st["endo"] = carry.endo()
            carried.append((edge, st))

        def built(carry, endo, V):
            real_init(carry, endo, V)
            snapshot(carry, None)

        def recording(carry, edge, peak):
            decreased = real_advance(carry, edge, peak)
            snapshot(carry, edge)
            return decreased

        monkeypatch.setattr(groupoid._Carry, "__init__", built)
        monkeypatch.setattr(groupoid._Carry, "advance", recording)
        tags = collections.Counter()
        for sig in list(GRID) + OFF_GRID:
            rank = groupoid._rank_table(sig)
            tokens = 10 if sig.g <= 2 else 5
            for _ in range(4):
                a = random_adl_automorphism(sig, rng, tokens)
                # from the relator, and from a random Zieschang source V:
                # canonical_edge(V) carries V to the relator, so the image is short
                V = random_zieschang(sig, rng)
                c, _ = canonical_edge(V)
                for source, phi in ((relator(sig), a.fwd), (V, compose(c, a).fwd)):
                    carried.clear()
                    edges, _ = nielsen_reduce(source, phi)
                    assert [e for e, _ in carried] == [None] + edges
                    word = source
                    for e, st in carried:
                        if e is not None:
                            phi, word = compose(e.aut.inv, phi), e.target
                        # the map, the word and the measure rebuilt from scratch
                        mu = mu_key(phi)
                        assert st["endo"] == phi
                        assert st["word"] == word
                        # the signed image table, with every code the one
                        # int object of its value
                        at = st["at"]
                        for b in sig.basis_codes():
                            assert at[b] == phi.images[b - 1].codes
                            assert at[-b] == phi.images[b - 1].inverse().codes
                        assert all(shared(c) for codes in at for c in codes)
                        # the measure by signed letter, in ``mu_key``'s order
                        # (b, then b' for a handle letter b), and sorted as
                        # (key, position) in that order
                        measured = [c for b in sig.basis_codes()
                                    for c in ((b,) if sig.is_t_code(b) else (b, -b))]
                        ranks = sorted((groupoid._key_of(at[c], rank), i)
                                       for i, c in enumerate(measured))
                        assert [at[measured[i]] for _, i in ranks] == [
                            w.codes for w in mu.words]
                        assert tuple(k for k, _ in ranks) == mu.keys
                        assert tuple(i for _, i in ranks) == mu.order
                        assert st["seen"] == {w.codes for w in mu.words}
                        assert st["distinct"]
                    tags.update(e.kind.tag for e in edges)
        # both ways of building the moved image ran, each on both sides of
        # its letter: the peak's slices (N2) and their join with an image (N3)
        assert tags[N2_RIGHT] + tags[N2_LEFT] > 500
        assert tags[N3_RIGHT] + tags[N3_LEFT] > 100
        assert min(tags[t] for t in (N2_RIGHT, N2_LEFT, N3_RIGHT, N3_LEFT)) > 10

    @settings(max_examples=400)
    @given(
        st.lists(_SHORT_CODES, min_size=2, max_size=8),
        st.lists(_SHORT_CODES, min_size=2, max_size=2),
        st.data(),
    )
    def test_measure_rule_matches_sorted_keys(self, before, inserted, data):
        # short words over two letters make equal lengths, equal left halves
        # and equal keys frequent; one or two entries replaced
        n = data.draw(st.integers(1, 2))
        slots = data.draw(st.lists(
            st.integers(0, len(before) - 1), min_size=n, max_size=n, unique=True))
        after = before[:]
        for i, codes in zip(slots, inserted):
            after[i] = codes
        removed = [before[i] for i in slots]
        assert groupoid._decreases(removed, inserted[:n], _S11_RANK) == (
            _sorted_keys(after) < _sorted_keys(before))

    def test_measure_rule_decides_each_way(self):
        """``_decreases`` on code tuples against ``sorted`` of the full
        ``_key_of`` keys, for one entry and for the two words b and b' of a
        handle letter, which have one length.  Each way the keys can decide
        is reached: by a length, by a letter of the left halves at one
        length, or not at all because the keys are equal (the words may
        still differ in their right halves)."""
        rng = random.Random(20260809)
        seen = collections.Counter()

        def word(n):
            return tuple(rng.choice((1, -1, 2)) for _ in range(n))

        for _ in range(20000):
            n = rng.choice((1, 2))
            lengths = rng.choice((0, 1, 2, 3, 4)), rng.choice((0, 1, 2, 3, 4))
            removed = [word(lengths[0]) for _ in range(n)]
            inserted = [word(lengths[1]) for _ in range(n)]
            new, old = _sorted_keys(inserted), _sorted_keys(removed)
            got = groupoid._decreases(removed, inserted, _S11_RANK)
            assert got == (new < old), (removed, inserted)
            first = next((i for i in range(n) if new[i] != old[i]), None)
            if first is None:
                way = "equal"
            elif new[first][0] != old[first][0]:
                way = "length"
            else:
                way = "left half"
            seen[n, way, got] += 1
        for n in (1, 2):
            for way, got in (("length", True), ("length", False),
                             ("left half", True), ("left half", False),
                             ("equal", False)):
                assert seen[n, way, got] > 100, (n, way, got)

    def test_resumed_scan_matches_scan_from_start(self, rng, monkeypatch):
        """At every search, so after every move, the resumed scan finds the
        move that a fresh carry of the same state scanned from position 1
        finds, and the one ``reference_first_violation`` finds from both
        products built from scratch: the same position, (A_k, B, C) and
        B < C.  Most verdicts are decided on lengths alone, so this checks
        those against the reference too."""
        counts = {"moves": 0, "resumed": 0}
        real = groupoid._find_violation

        def spying(carry):
            fresh = groupoid._Carry(carry.endo(), carry.word)
            assert fresh.resume == 1
            try:
                want = real(fresh)
            except ReductionStuck as exc:
                want = exc
            ref = reference_first_violation(carry.endo(), carry.word)
            counts["resumed"] += carry.resume > 1
            try:
                got = real(carry)
            except ReductionStuck as exc:
                assert isinstance(want, ReductionStuck) and str(exc) == str(want)
                k, triple, _ = ref
                assert (exc.k, exc.triple) == (k, triple) and len(set(triple)) < 3
                raise
            assert not isinstance(want, ReductionStuck) and got == want
            if got is None:
                assert ref is None
            else:
                tag, k, triple = got
                left = tag in (N2_LEFT, N3_LEFT)
                assert ref == (k - left, groupoid._words(carry.sig, triple), left)
                assert len(set(triple)) == 3
                counts["moves"] += 1
            return got

        monkeypatch.setattr(groupoid, "_find_violation", spying)
        for sig in list(GRID) + OFF_GRID:
            tokens = 10 if sig.g <= 2 else 5
            for _ in range(4):
                a = random_adl_automorphism(sig, rng, tokens)
                V = random_zieschang(sig, rng)
                c, _ = canonical_edge(V)
                nielsen_reduce(relator(sig), a.fwd)
                nielsen_reduce(V, compose(c, a).fwd)
        for case in _REDUCE_GOLDEN:  # maps that get stuck, with their payloads
            sig = Signature(*map(int, case["sig"].split(",")))
            phi = Endomorphism(sig, tuple(Word(sig, tuple(c)) for c in case["images"]))
            try:
                nielsen_reduce(relator(sig), phi)
            except SurfautError:
                pass
        assert counts["moves"] >= 500 and counts["resumed"] >= 100

    @given(word_pairs(max_len=8))
    def test_verdict_matches_reference(self, pair):
        # any two images, the empty word among them, with their A_k
        img, nxt = pair
        sig = img.sig
        left = img.inverse().codes
        A = left[: groupoid._lcp(left, nxt.codes)]
        verdict = groupoid._verdict(
            img.codes, nxt.inverse().codes, A, groupoid._rank_table(sig)
        )
        assert as_words(sig, verdict) == reference_verdict(
            img, nxt.inverse(), Word(sig, A)
        )

    @pytest.mark.parametrize(
        "case", _REDUCE_GOLDEN, ids=lambda c: f"{c['sig']}:{c['images']}"
    )
    def test_outcome_matches_golden(self, case):
        # outcomes on random maps, most of them not automorphisms, captured
        # before the reduction state was carried across moves
        sig = Signature(*map(int, case["sig"].split(",")))
        phi = Endomorphism(sig, tuple(Word(sig, tuple(c)) for c in case["images"]))
        want = case["outcome"]
        if "error" in want:
            with pytest.raises(SurfautError) as info:
                nielsen_reduce(relator(sig), phi)
            exc = info.value
            triple = getattr(exc, "triple", None)
            if triple is not None:
                triple = [list(w.codes) for w in triple]
            assert type(exc).__name__ == want["error"] and str(exc) == want["message"]
            assert getattr(exc, "k", None) == want["k"] and triple == want["triple"]
        else:
            edges, n1 = nielsen_reduce(relator(sig), phi)
            assert [[str(e.kind), list(e.target.codes)] for e in edges] == want["edges"]
            assert [list(w.codes) for w in n1.aut.fwd.images] == want["remainder"]


def reference_first_violation(phi, V):
    """The first position k whose verdict is not (), with its (A_k, B, C)
    and whether B < C, from the images of phi at V."""
    imgs, A = reference_imgs(phi, V), reference_prefixes(phi, V)
    for k in range(1, len(imgs)):
        verdict = reference_verdict(imgs[k - 1], imgs[k].inverse(), A[k])
        if verdict:
            return k, verdict[0], verdict[2]
    return None


_STUCK_SIG = S11
#: three moves from the relator, the first N2_right at k = 2
_STUCK_AUT = "x1 -> y1' x1 y1' x1 x1; y1 -> x1' y1"


def _patch_stuck(site, monkeypatch, phi):
    """Patch one private step of the engine so that the reduction of
    ``phi`` from the relator raises at ``site``."""
    if site == "measure":
        # the measure never falls: the first move cannot decrease it
        monkeypatch.setattr(groupoid, "_decreases", lambda removed, inserted, rank: False)
    elif site == "prefixes":
        real = groupoid._verdict

        def not_distinct(*args):
            verdict = real(*args)
            return (verdict[0], False, verdict[2]) if verdict else verdict

        monkeypatch.setattr(groupoid, "_verdict", not_distinct)
    elif site == "remainder":
        monkeypatch.setattr(groupoid, "classify_letters", lambda endo: None)
    else:
        # a budget of one iteration: one move, and none left to finish
        total = sum(len(w) for w in phi.images)
        monkeypatch.setattr(groupoid, "_MAX_ITER_BASE", 1 - 20 * total)


class TestStuckRaiseSites:
    """No input is known to reach these raises of the engine (the relator of
    a surface group is a test element), so each is reached by patching one
    private step; the message, the payload and the CLI's exit 3 are pinned."""

    @pytest.mark.parametrize("site", ["measure", "prefixes", "remainder", "budget"])
    def test_raise_site(self, site, monkeypatch):
        from surfaut.cli import run
        from surfaut.endo import parse_endomorphism

        sig, v0 = _STUCK_SIG, relator(_STUCK_SIG)
        phi = parse_endomorphism(
            f"sig g={sig.g} p={sig.p}\n" + _STUCK_AUT.replace("; ", "\n")
        )
        edges, _ = nielsen_reduce(v0, phi)
        assert [str(e.kind) for e in edges] == [
            "N2_right k=2", "N2_right k=2", "N2_left k=5"]
        k, triple, left = reference_first_violation(phi, v0)
        assert (k, left) == (2, False)
        want = {
            "measure": ("measure failed to decrease at N2_right k=2", k, triple),
            "prefixes": ("prefix words not distinct at k=2", k, triple),
            "remainder": ("remainder is not a letter permutation", None, None),
            "budget": ("iteration budget exhausted", None, None),
        }[site]
        _patch_stuck(site, monkeypatch, phi)
        with pytest.raises(ReductionStuck) as info:
            nielsen_reduce(v0, phi)
        assert (str(info.value), info.value.k, info.value.triple) == want
        assert not info.value.not_injective  # an engine fault for the CLI
        out, err = io.StringIO(), io.StringIO()
        argv = ["nielsen-reduce", "--sig", f"{sig.g},{sig.p}", "--aut", _STUCK_AUT]
        assert run(argv, out, err) == 3
        assert out.getvalue() == ""
        assert err.getvalue() == f"internal assertion: ReductionStuck: {want[0]}\n"


def zieschang_words(sig):
    """Every Zieschang word of ``sig``: the orderings of its candidate
    letters that pass ``is_zieschang``."""
    letters = sorted(_candidate_letters(sig))
    for codes in itertools.permutations(letters):
        V = Word(sig, codes)
        if is_zieschang(V, sig):
            yield V


class TestEdgeMemos:
    """``_nielsen_edge`` and ``_template_move`` keep pure functions of their
    keys in bounded LRU memos; a raise stores nothing."""

    @pytest.mark.parametrize(
        "sig,stride",
        [(Signature(0, 3), 1), (S11, 1), (Signature(2, 0), 16)],
        ids=["0,3", "1,1", "2,0"],
    )
    def test_memoised_edges_match_uncached(self, sig, stride, monkeypatch):
        # every template position of the Zieschang words (of every 16th at
        # (2,0), which has 8,064 of them)
        memo, info = groupoid._nielsen_edge, groupoid._nielsen_edge.cache_info
        tags = (N2_RIGHT, N2_LEFT, N3_RIGHT, N3_LEFT)
        got, refused = {}, {}
        for V in itertools.islice(zieschang_words(sig), 0, None, stride):
            for tag in tags:
                for k in range(1, sig.chain_len + 1):
                    size = info().currsize
                    try:
                        e = got[V, tag, k] = memo(V, tag, k)
                    except CosetViolation as exc:
                        refused[V, tag, k] = str(exc)
                        assert info().currsize == size  # not stored
                        with pytest.raises(CosetViolation):
                            memo(V, tag, k)
                    else:
                        assert memo(V, tag, k) is e  # a hit
        assert got and refused
        # the reference builds every edge and template afresh
        uncached = groupoid._template_move.__wrapped__
        monkeypatch.setattr(groupoid, "_template_move", uncached)
        for key, e in got.items():
            want = memo.__wrapped__(*key)
            assert (e.source, e.target, e.kind) == (want.source, want.target, want.kind)
            assert (e.aut.fwd, e.aut.inv) == (want.aut.fwd, want.aut.inv)
        for key, message in refused.items():
            with pytest.raises(CosetViolation) as exc:
                memo.__wrapped__(*key)
            assert str(exc.value) == message


class TestTemplateClasses:
    """A template edge checks its target only: a template fixes every
    puncture letter (N2) or conjugates one (N3), so it permutes the classes
    by construction."""

    @pytest.mark.parametrize(
        "sig",
        [Signature(0, 3), S11, Signature(1, 2), Signature(2, 0), Signature(2, 1)],
        ids=["0,3", "1,1", "1,2", "2,0", "2,1"],
    )
    def test_every_template_edge_permutes_the_classes(self, sig):
        # a template is a function of its tag, moved letter and neighbour, so
        # one position per distinct adjacent letter pair of the Zieschang
        # words reaches every template their edges use
        first = {}
        for V in zieschang_words(sig):
            v = V.codes
            for k in range(1, len(v)):
                first.setdefault((v[k - 1], v[k]), (V, k))
        templates = set()
        for V, k in first.values():
            for tag, pos in ((N2_RIGHT, k), (N3_RIGHT, k), (N2_LEFT, k + 1), (N3_LEFT, k + 1)):
                aut = groupoid._template_aut(V, tag, pos)
                if aut is not None:
                    templates.add(aut)
                    perm = _t_class_permutation(aut.fwd)
                    # each puncture letter keeps its class
                    assert perm is not None and perm.images == tuple(range(1, sig.p + 1))
        assert templates
        if sig.p:
            # some template conjugates a puncture letter
            assert any(aut.fwd.moved_codes()[0] <= sig.p for aut in templates)

    def test_template_edge_skips_the_class_check(self, monkeypatch):
        # the class check of a case-table edge still runs; a template's does not
        V = relator(S11)
        monkeypatch.setattr(groupoid, "_t_class_permutation", lambda endo: None)
        e = groupoid._nielsen_edge.__wrapped__(V, N2_RIGHT, 2)
        assert e.target == e.aut.apply(V)
        with pytest.raises(CosetViolation, match="does not permute the puncture classes"):
            groupoid._edge(V, e.aut, None)

    def test_template_target_is_still_checked(self, monkeypatch):
        # the engine built the template, so a bad target is an engine fault
        monkeypatch.setattr(groupoid, "is_zieschang", lambda V, sig: False)
        with pytest.raises(CosetViolation, match="edge target .* is not Zieschang"):
            groupoid._nielsen_edge.__wrapped__(relator(S11), N2_RIGHT, 2)


def _map_builders(monkeypatch):
    """Record every canonical step map built; returns the list they land in.
    Each step builds its map with exactly one of these, in step order."""
    maps = []
    for name in ("letter_move", "swap_letters", "_whitehead_step"):

        def recording(*args, real=getattr(groupoid, name)):
            maps.append(real(*args))
            return maps[-1]

        monkeypatch.setattr(groupoid, name, recording)
    return maps


def _walked(sig, rng, enough):
    """A seeded Zieschang word of ``sig`` whose canonical steps satisfy
    ``enough``, with those steps; the memos are left empty."""
    while True:
        V = random_zieschang(sig, rng)
        clear_memos()
        _, steps = canonical_edge(V)
        if enough(steps):
            clear_memos()
            return V, steps


#: The memo of ``_step``, read while a test patches ``groupoid._step``.
_step_info = groupoid._step.cache_info


def _memo_state():
    """How many entries the two memos of the walk hold: ``canonical_edge``'s
    and ``_step``'s."""
    return canonical_edge.cache_info().currsize, _step_info().currsize


class TestSplicedTargets:
    """Every template edge's target and every canonical step's word must be
    the image of its source under ``apply``."""

    def test_engine_edges_match_apply(self, rng):
        edges_seen = 0
        for sig in list(GRID) + OFF_GRID:
            tokens = 10 if sig.g <= 2 else 5
            for _ in range(4):
                a = random_adl_automorphism(sig, rng, tokens)
                V = random_zieschang(sig, rng)
                c, _ = canonical_edge(V)
                for source, phi in ((relator(sig), a.fwd), (V, compose(c, a).fwd)):
                    edges, n1 = nielsen_reduce(source, phi)
                    for e in edges + [n1]:
                        assert e.target == e.aut.apply(e.source)
                    edges_seen += len(edges)
                for e in enumerate_nielsen_from(V):
                    assert e.target == e.aut.apply(e.source)
                    edges_seen += 1
        assert edges_seen > 1000

    def test_canonical_steps_match_apply(self, rng, monkeypatch):
        maps = _map_builders(monkeypatch)
        kinds = set()
        for sig in list(GRID) + OFF_GRID:
            for _ in range(12):
                maps.clear()
                clear_memos()  # a warm ``_step`` link would skip the maps counted here
                _, steps = canonical_edge(random_zieschang(sig, rng))
                assert len(maps) == len(steps)
                for aut, step in zip(maps, steps):
                    assert step.after == aut.apply(step.before)
                    kinds.add(step.kind)
        assert kinds == {"i", "ii", "iv", "v", "vi", "vii"}


class TestCanonicalEdge:
    def test_memo_is_bounded(self, rng):
        info = canonical_edge.cache_info
        assert info().maxsize == MEMO_SIZE
        V = random_zieschang(Signature(1, 2), rng)
        assert canonical_edge(V) is canonical_edge(Word(V.sig, V.codes))
        assert (info().hits, info().currsize) == (1, 1)

    def test_one_composite_per_call(self, rng, monkeypatch):
        calls = []
        real = groupoid.compose

        def counted(*maps):
            calls.append(len(maps))
            return real(*maps)

        monkeypatch.setattr(groupoid, "compose", counted)
        for sig in SMALL_SIGS:
            for _ in range(5):
                V = random_zieschang(sig, rng)
                calls.clear()
                groupoid.canonical_edge.cache_clear()
                phi, steps = canonical_edge(V)
                assert calls == ([len(steps)] if steps else [])
                assert apply(phi, V) == relator(sig)
                assert compose(phi, phi.inverse()).is_identity()

    def test_relator_is_fixed_point(self):
        phi, steps = canonical_edge(relator(S10))
        assert phi.is_identity() and steps == ()

    def test_two_step_example(self):
        V = parse_word(S11, "t1 x1 y1 x1' y1'")
        phi, steps = canonical_edge(V)
        assert [s.kind for s in steps] == ["iv", "vi"]
        assert apply(phi, V) == relator(S11)

    def test_puncture_conjugate_property(self, rng):
        # a word P t1 Q: the canonical edge sends t1 conjugated by P-bar to t1
        for _ in range(20):
            V = random_zieschang(S11, rng)
            phi, _ = canonical_edge(V)
            t1 = parse_word(S11, "t1")
            pos = V.codes.index(S11.t_code(1))
            conj = Word(S11, V.codes[:pos]) * t1 * Word(S11, V.codes[:pos]).inverse()
            assert apply(phi, conj) == t1

    def test_log_serialization(self):
        V = parse_word(S11, "t1 x1 y1 x1' y1'")
        _, steps = canonical_edge(V)
        line = str(steps[0])
        assert line.startswith("(iv k=1) ") and " => " in line

    def test_not_zieschang(self):
        with pytest.raises(NotZieschang):
            canonical_edge(parse_word(S10, "x1 y1 x1 y1"))

    @pytest.mark.parametrize("sig", sorted({c["sig"] for c in _CANON_GOLDEN}))
    def test_matches_golden(self, sig):
        # seeded words at the grid and off it, captured before the canonical
        # steps (i) and (v) were built by letter_move
        cases = [c for c in _CANON_GOLDEN if c["sig"] == sig]
        assert len(cases) == 25
        s = Signature(*map(int, sig.split(",")))
        for case in cases:
            phi, steps = canonical_edge(parse_word(s, case["word"]))
            assert format_endomorphism(phi.fwd).splitlines() == case["fwd"]
            assert format_endomorphism(phi.inv).splitlines() == case["inv"]
            assert [str(r) for r in steps] == case["steps"]

    def test_walk_too_long_for_recursion(self, rng):
        # seeded template moves from the relator at (150,100) give a walk of
        # 500 steps or more, which the loop over ``_step`` links finishes
        sig = Signature(150, 100)
        V = relator(sig)
        for _ in range(4000):
            tag = rng.choice([N2_RIGHT, N2_LEFT, N3_RIGHT, N3_LEFT])
            k = rng.randrange(1, len(V.codes) + 1)
            aut = groupoid._template_aut(V, tag, k)
            if aut is not None:
                V = groupoid._template_edge(V, aut, NielsenKind(tag, k)).target
        phi, steps = canonical_edge(V)
        assert len(steps) >= 500
        assert steps[0].before == V and steps[-1].after == relator(sig)
        assert apply(phi, V) == relator(sig)

    def test_random_normalization(self, rng):
        from surfaut import is_zieschang

        for sig in SMALL_SIGS:
            for _ in range(10):
                V = random_zieschang(sig, rng)
                phi, steps = canonical_edge(V)
                assert apply(phi, V) == relator(sig)
                for rec in steps:
                    assert is_zieschang(rec.after, sig)


class TestCanonicalTails:
    """The walk reads only the current word, so the normalisation from any
    word it reaches is the rest of the walk: the same ``_step`` links."""

    def test_every_step_starts_the_rest_of_the_walk(self, rng):
        tried = 0
        info = _step_info
        for sig in list(GRID) + OFF_GRID:
            for _ in range(20):
                V = random_zieschang(sig, rng)
                clear_memos()
                phi, steps = canonical_edge(V)
                if not steps:
                    continue
                # every link of the walk is stored, the relator's None too,
                # and each step's ``after`` starts the next link
                hits = info().hits
                links = [groupoid._step(step.before) for step in steps]
                assert groupoid._step(steps[-1].after) is None
                assert info().hits - hits == len(steps) + 1
                assert tuple(step for _, step in links) == steps
                assert all(a.after == b.before for a, b in zip(steps, steps[1:]))
                maps = [aut for aut, _ in links]
                assert compose(*maps).fwd == phi.fwd
                for k, step in enumerate(steps, 1):
                    clear_memos()
                    rest_phi, rest = canonical_edge(step.after)
                    assert rest == steps[k:]
                    if rest:
                        assert rest_phi.fwd == compose(*maps[k:]).fwd
                        assert rest_phi.inv == compose(*maps[k:]).inv
                    else:
                        assert rest_phi.is_identity()
                    tried += 1
        assert tried > 1000, tried

    def test_golden_words_in_reverse_with_warm_memos(self, monkeypatch):
        maps = _map_builders(monkeypatch)
        fired = 0
        for case in reversed(_CANON_GOLDEN):
            s = Signature(*map(int, case["sig"].split(",")))
            phi, steps = canonical_edge(parse_word(s, case["word"]))
            assert format_endomorphism(phi.fwd).splitlines() == case["fwd"]
            assert format_endomorphism(phi.inv).splitlines() == case["inv"]
            assert [str(r) for r in steps] == case["steps"]
            fired += len(steps)
        # warm ``_step`` links served the steps that were not built
        assert 0 < len(maps) < fired

    def test_a_stored_tail_serves_the_rest(self, rng, monkeypatch):
        V, steps = _walked(Signature(2, 1), rng, lambda s: len(s) >= 3)
        canonical_edge(steps[0].after)
        maps = _map_builders(monkeypatch)
        info = _step_info
        misses, hits = info().misses, info().hits
        phi, served = canonical_edge(V)
        assert len(maps) == 1 and served == steps
        assert apply(phi, V) == relator(V.sig)
        # V's link is the one miss; the rest of the walk, the relator's None
        # included, is served
        assert (info().misses - misses, info().hits - hits) == (1, len(steps))

    def test_relator_has_no_step(self):
        v0 = relator(S11)
        assert canonical_edge(v0)[1] == ()
        assert groupoid._first_move(v0) is None and groupoid._step(v0) is None


class TestFirstMove:
    """``_first_move`` passes a block only when it matches the relator's, and
    the p + g blocks cover all 4g + p letters, so it is None exactly at the
    relator."""

    def test_none_exactly_at_the_relator(self, rng):
        reached = set()
        for sig in list(GRID) + OFF_GRID:
            for _ in range(20):
                V = random_zieschang(sig, rng)
                _, steps = canonical_edge(V)
                reached.add(V)
                reached.update(step.after for step in steps)
        assert {relator(sig) for sig in list(GRID) + OFF_GRID} <= reached
        assert len(reached) > 1000, len(reached)
        for W in reached:
            assert (groupoid._first_move(W) is None) == (W == relator(W.sig))


class TestCanonicalFaults:
    """The engine-fault raises of ``canonical_edge``, on a walk from empty
    memos and on one whose rest warm ``_step`` links serve after the first
    step.  A raise stores nothing in ``canonical_edge``, and ``_step`` stores
    no link for the word it failed from."""

    SIG = Signature(2, 1)
    NOT_CARRIED = "^canonical composite does not carry V to the relator$"

    @pytest.fixture
    def walk(self, rng):
        # the rest after the first step has two steps or more
        return _walked(self.SIG, rng, lambda s: len(s) >= 3)

    def _warm_tail(self, steps):
        canonical_edge(steps[0].after)
        return _memo_state()

    def _patch_links(self, monkeypatch, link):
        """Route ``canonical_edge``'s links through ``link(W, real link)``."""
        real = groupoid._step
        monkeypatch.setattr(groupoid, "_step", lambda W: link(W, real(W)))

    @pytest.mark.parametrize("served", [False, True])
    def test_step_leaving_a_non_zieschang_word(self, walk, served, monkeypatch):
        V, steps = walk
        before = self._warm_tail(steps) if served else _memo_state()
        real = groupoid._first_move

        def first_move(W):
            # the true move's kind and level, with a map sending W to 1
            _, kind, level = real(W)
            empty = dict.fromkeys(W.sig.basis_codes(), Word.identity(W.sig))
            return Endomorphism.from_map(W.sig, empty), kind, level

        monkeypatch.setattr(groupoid, "_first_move", first_move)
        first = steps[0]
        with pytest.raises(
            NotZieschang, match=rf"^canonical step \({first.kind}, {first.level}\) left 1$"
        ):
            canonical_edge(V)
        assert _memo_state() == before

    def test_later_step_leaving_a_non_zieschang_word(self, walk, monkeypatch):
        # the walk fails at its second step: the first link is stored, and
        # the word the walk failed from has none
        V, steps = walk
        bad = steps[1]
        real = groupoid.is_zieschang
        monkeypatch.setattr(
            groupoid, "is_zieschang", lambda W, sig: W != bad.after and real(W, sig)
        )
        with pytest.raises(
            NotZieschang, match=rf"^canonical step \({bad.kind}, {bad.level}\) left {bad.after}$"
        ):
            canonical_edge(V)
        assert _memo_state() == (0, 1)
        monkeypatch.undo()
        info = _step_info
        misses = info().misses
        groupoid._step(V)
        assert info().misses == misses
        groupoid._step(bad.before)
        assert info().misses == misses + 1

    def test_walk_ending_early(self, walk, monkeypatch):
        # the walk is cut after its first step, so the composite carries V to
        # that step's word
        V, _ = walk
        self._patch_links(monkeypatch, lambda W, link: link if W == V else None)
        with pytest.raises(CosetViolation, match=self.NOT_CARRIED):
            canonical_edge(V)
        # ``_step`` keeps the true links of V and of the word after it
        assert _memo_state() == (0, 2)

    def test_served_tail_ending_early(self, walk, monkeypatch):
        V, steps = walk
        before = self._warm_tail(steps)
        self._patch_links(
            monkeypatch, lambda W, link: None if W == steps[-1].before else link
        )
        with pytest.raises(CosetViolation, match=self.NOT_CARRIED):
            canonical_edge(V)
        # V's link is the one entry added
        assert _memo_state() == (before[0], before[1] + 1)

    def test_composite_missing_a_map(self, walk, monkeypatch):
        V, steps = walk
        real = groupoid.compose
        monkeypatch.setattr(groupoid, "compose", lambda *maps: real(*maps[:-1]))
        with pytest.raises(CosetViolation, match=self.NOT_CARRIED):
            canonical_edge(V)
        assert _memo_state() == (0, len(steps) + 1)

    def test_served_tail_with_wrong_maps(self, walk, monkeypatch):
        V, steps = walk
        before = self._warm_tail(steps)
        identity = Automorphism.identity(self.SIG)
        self._patch_links(
            monkeypatch,
            lambda W, link: link if link is None or W == V else (identity, link[1]),
        )
        with pytest.raises(CosetViolation, match=self.NOT_CARRIED):
            canonical_edge(V)
        assert _memo_state() == (before[0], before[1] + 1)


class TestWhiteheadStepFaults:
    """The engine-fault raises of step (vii): a chain line that misses a
    vertex or whose segment holds a block or puncture letter, and a built
    map that moves the tail or fails to conjugate the segment."""

    SIG = Signature(2, 1)

    def _segment(self, rec):
        """The segment word between x_i and y_i of the word before step
        (vii) ``rec``."""
        rest = rec.before.codes[self.SIG.p + 4 * (rec.level - 1) :]
        return rest[3 : rest.index(self.SIG.y_code(rec.level))]

    @pytest.fixture
    def step(self, rng):
        # a step (vii) on the first block, so the tail holds the second; the
        # segment's two ends are distinct vertices of the chain line
        def found(steps):
            return any(
                r.kind == "vii" and -self._segment(r)[0] != self._segment(r)[-1]
                for r in steps
            )

        _, steps = _walked(self.SIG, rng, found)
        rec = next(r for r in steps if r.kind == "vii")
        assert rec.level == 1 and -self._segment(rec)[0] != self._segment(rec)[-1]
        return rec, self.SIG.p

    @pytest.mark.parametrize(
        "letter, message",
        [
            ("x1", "segment contains x1"),
            ("x1'", "segment contains x1'"),
            ("y1", "segment contains y1"),
            ("y1'", "segment contains y1'"),
            ("t1", "segment contains a puncture letter"),
        ],
    )
    def test_segment_letter(self, step, letter, message, monkeypatch):
        rec, done = step
        sig = self.SIG
        (bad,) = parse_word(sig, letter).codes
        mid = self._segment(rec)
        real = groupoid._chain_line(sig, rec.before.codes)
        line = [v for v in real if v != bad]
        lo = min(line.index(-mid[0]), line.index(mid[-1]))
        line.insert(lo + 1, bad)
        monkeypatch.setattr(groupoid, "_chain_line", lambda sig, codes: line)
        with pytest.raises(CosetViolation, match=f"^{message}$"):
            groupoid._whitehead_step(rec.before, sig, rec.level, done)

    def test_short_chain_line(self, step, monkeypatch):
        rec, done = step
        sig = self.SIG
        line = groupoid._chain_line(sig, rec.before.codes)[:-1]
        monkeypatch.setattr(groupoid, "_chain_line", lambda sig, codes: line)
        with pytest.raises(CosetViolation, match="^chain line has 9 of 10 vertices$"):
            groupoid._whitehead_step(rec.before, sig, rec.level, done)

    def test_map_moving_the_tail(self, step, monkeypatch):
        rec, done = step
        sig = self.SIG
        rest = rec.before.codes[done:]
        tail = rest[rest.index(sig.y_code(rec.level)) + 1 :]
        assert tail
        moving = letter_move(sig, tail[0], Word(sig, ()), Word(sig, (sig.x_code(1),)))
        monkeypatch.setattr(groupoid, "_aut", lambda fwd, inv: moving)
        with pytest.raises(CosetViolation, match="^whitehead step moved the tail$"):
            groupoid._whitehead_step(rec.before, sig, rec.level, done)

    def test_map_not_conjugating_the_segment(self, step, monkeypatch):
        rec, done = step
        identity = Automorphism.identity(self.SIG)
        monkeypatch.setattr(groupoid, "_aut", lambda fwd, inv: identity)
        with pytest.raises(
            CosetViolation, match="^whitehead step failed to conjugate the segment word$"
        ):
            groupoid._whitehead_step(rec.before, self.SIG, rec.level, done)


class TestCertify:
    def test_beta1_witness(self):
        cert = certify_automorphism(generator(GenName("b", 1), S10).fwd)
        assert cert is not None
        assert cert.inv.images[1] == parse_word(S10, "x1' y1")

    def test_identity(self):
        cert = certify_automorphism(Endomorphism.identity(S10))
        assert cert is not None and cert.is_identity()

    def test_round_trip_stripped(self, rng):
        for sig in SMALL_SIGS:
            a = random_adl_automorphism(sig, rng, 8)
            cert = certify_automorphism(a.fwd)
            assert cert is not None and cert.fwd == a.fwd
            assert compose(cert, cert.inverse()).is_identity()

    def test_relator_precondition(self):
        phi = Endomorphism.from_map(S10, {1: parse_word(S10, "x1 y1")})
        with pytest.raises(HypothesisViolated):
            certify_automorphism(phi)

    def test_class_precondition(self):
        phi = Endomorphism.from_map(S11, {1: parse_word(S11, "t1'")})
        with pytest.raises(HypothesisViolated):
            certify_automorphism(phi)

    def test_non_automorphism_not_certified(self):
        # degenerate map collapsing the handle letters, relator fixed at (0,0)?
        # use a non-injective relator-fixing endo at (1,0): x1 -> y1 fails the
        # class hypothesis trivially (p = 0 has no classes), relator moves.
        phi = Endomorphism.from_map(S10, {1: parse_word(S10, "y1")})
        with pytest.raises(HypothesisViolated):
            certify_automorphism(phi)

    @pytest.mark.parametrize(
        "sig, word, power, letters",
        [(S10, "a1 b1'", 12, 196418), (Signature(2, 0), "a1 b1' g2 a2 b2'", 5, 18086)],
    )
    def test_long_input_in_linear_work(self, sig, word, power, letters):
        # the certificate is read off the edges, so its cost is linear in the
        # image length; the witness check of the pair, quadratic, would take
        # about ten minutes at 196,418 letters
        a = eval_gen_word(parse_gen_word(" ".join([word] * power)), sig)
        assert sum(len(w) for w in a.fwd.images) == letters
        start = time.perf_counter()
        cert = certify_automorphism(a.fwd)
        assert time.perf_counter() - start < 10.0
        # the inverse of an automorphism is unique
        assert cert.fwd == a.fwd and cert.inv == a.inv

    def test_edges_move_one_letter_each_way(self, rng):
        # the folds read only b's image of each edge's maps, so both maps of
        # every edge move b alone; the certificate passes the witness check
        for sig in SMALL_SIGS:
            for _ in range(4):
                endo = random_adl_automorphism(sig, rng, 8).fwd
                edges, _ = nielsen_reduce(relator(sig), endo)
                for e in edges:
                    b = abs(e.source.codes[e.kind.k - 1])
                    assert e.aut.fwd.moved_codes() == [b]
                    assert e.aut.inv.moved_codes() == [b]
                cert = certify_automorphism(endo)
                assert Automorphism(endo, cert.inv).inv == cert.inv


def _word_codes(value):
    """Every code of every word in a memo's value: words, tuples of them, and
    the dataclasses that hold them (maps, edges, step records)."""
    if isinstance(value, Word):
        yield from value.codes
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _word_codes(v)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _word_codes(getattr(value, f.name))


class TestSharedCodes:
    """The words that ``_nielsen_edge``, ``_step`` and ``canonical_edge`` keep,
    and the reductions that ``factorize._reduced`` keeps, hold no int object
    of their own below -5: each such code is the one ``core._NEG`` holds for
    its value, or an object of the input itself."""

    @pytest.mark.parametrize("sig", [Signature(2, 4), Signature(5, 1)])
    def test_kept_words_share_their_codes(self, sig, rng, monkeypatch):
        kept, held, inputs = [], [], set()
        for name in ("_nielsen_edge", "_step"):
            memo = getattr(groupoid, name)

            def spy(*args, memo=memo):
                value = memo(*args)  # the stored value itself
                kept.append(value)
                return value

            monkeypatch.setattr(groupoid, name, spy)
        kinds = set()
        for _ in range(8):
            endo = random_adl_automorphism(sig, rng, 10).fwd
            V = random_zieschang(sig, rng)
            held.append((endo, V))  # alive, so that no id below is reused
            inputs |= {id(c) for c in _word_codes(endo)} | {id(c) for c in V.codes}
            assert certify_automorphism(endo) is not None
            kept.append(nielsen_reduce(relator(sig), endo))
            kept.append(canonical_edge(V))
            kinds |= {step.kind for step in kept[-1][1]}
        assert {"ii", "iv", "vi"} & kinds  # the walks take swap steps
        low = [c for c in _word_codes(kept) if c < -5]
        assert len(low) > 1000
        assert [c for c in low if c is not core._NEG[-c] and id(c) not in inputs] == []
        assert sum(c is core._NEG[-c] for c in low) > len(low) // 2


class TestEdgeInvariants:
    def test_bad_target_rejected(self):
        v0 = relator(S10)
        other = parse_word(S10, "x1 y1 x1' y1'")
        with pytest.raises(CosetViolation, match="does not carry source to target"):
            GroupoidEdge(v0, other, generator(GenName("b", 1), S10))

    def test_missing_template_is_coset_violation(self):
        # x1' heads the relator, so no puncture (N3) template applies at k=1
        with pytest.raises(CosetViolation, match="no N3_right template at k=1"):
            nielsen_edge(relator(S10), N3_RIGHT, 1)

    def test_nielsen_edge_checks_its_source(self):
        V = parse_word(S10, "x1 y1 x1 y1")
        with pytest.raises(NotZieschang, match="edge source x1 y1 x1 y1 is not"):
            nielsen_edge(V, N2_RIGHT, 1)

    def test_trusted_edge_keeps_its_other_checks(self, monkeypatch):
        v0 = relator(S10)
        # x1 -> x1 y1 sends the relator to a word of length 6
        y1 = parse_word(S10, "y1")
        lengthens = letter_move(S10, S10.x_code(1), Word.identity(S10), y1)
        # the engine built the map, so a bad target is an engine fault
        with pytest.raises(CosetViolation, match="edge target .* is not Zieschang"):
            groupoid._edge(v0, lengthens, None)
        # a caller-supplied edge with that target is a rejected input
        with pytest.raises(NotZieschang, match="edge target .* is not Zieschang"):
            GroupoidEdge(v0, apply(lengthens, v0), lengthens)
        b1 = generator(GenName("b", 1), S10)
        assert groupoid._edge(v0, b1, None).target == apply(b1, v0)
        # the N1 remainder compares the computed target with the expected one
        ident = Endomorphism.identity(S10)
        with pytest.raises(CosetViolation, match="does not carry source to target"):
            groupoid._finish_n1(ident, v0, parse_word(S10, "x1 y1 x1' y1'"))
        a1 = generator(GenName("a", 1), S10)
        monkeypatch.setattr(groupoid, "_t_class_permutation", lambda endo: None)
        with pytest.raises(CosetViolation, match="does not permute the puncture classes"):
            groupoid._edge(v0, a1, None)

    def test_public_edge_checks_the_class_permutation(self):
        # t1 -> t2' t1 and t3 -> t2 t3 carry the relator t3 t2 t1 to the
        # Zieschang word t2 t3 t1, but send t1 to no conjugate of a puncture
        # letter
        sig = Signature(0, 3)
        t1, t2, t3 = (sig.t_code(j) for j in (1, 2, 3))
        one = Word.identity(sig)
        a = compose(letter_move(sig, t1, Word(sig, (-t2,)), one),
                    letter_move(sig, t3, Word(sig, (t2,)), one))
        v0 = relator(sig)
        assert apply(a, v0) == parse_word(sig, "t2 t3 t1")
        with pytest.raises(CosetViolation, match="does not permute the puncture classes"):
            GroupoidEdge(v0, apply(a, v0), a)

    def test_template_edges_witnessed(self):
        e = nielsen_edge(relator(S10), N2_RIGHT, 1)
        assert compose(e.aut, e.aut.inverse()).is_identity()
        assert e.inverse().kind.tag == N2_LEFT

    def test_inverse_round_trip(self, rng):
        for sig in SMALL_SIGS[:4]:
            V = random_zieschang(sig, rng)
            for e in enumerate_nielsen_from(V)[:6]:
                back = e.inverse()
                assert back.source == e.target and back.target == e.source
                assert back.kind is not None
