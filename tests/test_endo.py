import random
import re
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfaut import (
    Automorphism,
    Endomorphism,
    GenName,
    NotInStabilizer,
    Signature,
    TPermutation,
    Word,
    apply,
    classify_letters,
    compose,
    conjugate,
    eval_gen_word,
    format_endomorphism,
    gen_set,
    generator,
    membership,
    outer_equal,
    parse_endomorphism,
    parse_word,
    relator,
    restrict_drop_tp,
    restrict_relabel_K,
)
from surfaut.endo import (
    _splice,
    _substitute,
    _t_class_permutation,
    _undoes,
    aut_from_map,
    letter_move,
    swap_letters,
)
from surfaut.core import Letter
from surfaut.errors import CosetViolation, ImageEscapes, ParseError, SignatureMismatch
from surfaut.selftest import GRID, random_adl_automorphism, random_gen_word

from conftest import SMALL_SIGS, words

S10 = Signature(1, 0)
OFF_GRID = [Signature(2, 4), Signature(3, 2), Signature(4, 0), Signature(5, 1)]
S03 = Signature(0, 3)
S12 = Signature(1, 2)
S01, S02, S11 = Signature(0, 1), Signature(0, 2), Signature(1, 1)


def gen(fam, i, sig):
    return generator(GenName(fam, i), sig)


class TestApply:
    def test_sigma2_moves_t2(self):
        sig = Signature(0, 2)
        assert apply(gen("s", 2, sig), parse_word(sig, "t2")) == parse_word(sig, "t1")

    def test_identity(self):
        u = parse_word(S10, "x1 y1 x1'")
        assert apply(Automorphism.identity(S10), u) == u

    def test_alpha1_fixes_relator(self):
        # direct free reduction of (x1' y1)(y1')(y1' x1)(y1)
        assert apply(gen("a", 1, S10), relator(S10)) == relator(S10)


class TestCompose:
    def test_beta1_alpha1_on_conjugated_y(self):
        sig = Signature(3, 0)
        ba = compose(gen("b", 1, sig), gen("a", 1, sig))
        assert apply(ba, parse_word(sig, "x1' y1' x1")) == parse_word(sig, "x1'")

    def test_identity_neutral(self):
        a = gen("g", 2, Signature(2, 0))
        ident = Automorphism.identity(Signature(2, 0))
        assert compose(a, ident).fwd == a.fwd
        assert compose(ident, a).fwd == a.fwd

    def test_witness_contract(self):
        a = gen("a", 1, S10)
        assert compose(a, a.inverse()).is_identity()

    def test_associative(self, rng):
        for sig in SMALL_SIGS:
            a, b, c = (random_adl_automorphism(sig, rng, 5) for _ in range(3))
            assert compose(compose(a, b), c).fwd == compose(a, compose(b, c)).fwd

    def test_convention_phi_first(self, rng):
        for sig in SMALL_SIGS[:3]:
            a = random_adl_automorphism(sig, rng, 5)
            b = random_adl_automorphism(sig, rng, 5)
            u = relator(sig)
            assert apply(compose(a, b), u) == apply(b, apply(a, u))


class TestInvert:
    def test_identity(self):
        ident = Automorphism.identity(S10)
        assert ident.inverse().fwd == ident.fwd

    def test_involutive(self):
        a = gen("g", 1, Signature(1, 1))
        assert a.inverse().inverse() == a

    def test_sigma2_inverse_sends_t1_to_t2(self):
        sig = Signature(0, 2)
        assert apply(gen("s", 2, sig).inverse(), parse_word(sig, "t1")) == parse_word(
            sig, "t2"
        )

    def test_witness_round_trip(self, rng):
        for sig in SMALL_SIGS:
            a = random_adl_automorphism(sig, rng, 6)
            for b in sig.basis_codes():
                u = Word(sig, (b,))
                assert apply(a.fwd, apply(a.inv, u)) == u


class TestClassifyLetters:
    def test_identity(self):
        t_perm, xmap = classify_letters(Endomorphism.identity(S12))
        assert t_perm.is_identity()
        assert all(xmap[c] == c for c in xmap)

    def test_swap_xy(self):
        phi = Endomorphism.from_map(
            S10, {1: parse_word(S10, "y1"), 2: parse_word(S10, "x1")}
        )
        t_perm, xmap = classify_letters(phi)
        assert t_perm == TPermutation.identity(0)
        assert xmap[1] == 2 and xmap[2] == 1

    def test_alpha1_not_letters(self):
        assert classify_letters(gen("a", 1, S10)) is None


class TestMembership:
    def test_alpha1(self):
        rep = membership(gen("a", 1, S10))
        assert rep.fixes_relator and rep.permutes_t_classes.is_identity() and rep.in_A

    def test_non_member(self):
        phi = Endomorphism.from_map(S10, {1: parse_word(S10, "x1 y1")})
        rep = membership(phi)
        assert not rep.fixes_relator and not rep.in_A

    def test_identity(self):
        rep = membership(Automorphism.identity(S12))
        assert rep.fixes_relator and rep.in_A

    def test_closure_under_composition(self, rng):
        for sig in SMALL_SIGS[:4]:
            a = random_adl_automorphism(sig, rng, 6)
            b = random_adl_automorphism(sig, rng, 6)
            assert membership(compose(a, b)).in_A


class TestOuterEqual:
    def test_reflexive(self):
        a = gen("b", 1, S10)
        assert outer_equal(a, a) == Word.identity(S10)

    def test_inner_twin(self, rng):
        for sig in SMALL_SIGS[:5]:
            a = random_adl_automorphism(sig, rng, 6)
            conj_word = parse_word(sig, "x1") if sig.g else parse_word(sig, "t1")
            inner_f = Endomorphism(
                sig,
                tuple(
                    conjugate(Word(sig, (b,)), conj_word) for b in sig.basis_codes()
                ),
            )
            inner_b = Endomorphism(
                sig,
                tuple(
                    conjugate(Word(sig, (b,)), conj_word.inverse())
                    for b in sig.basis_codes()
                ),
            )
            twin = compose(a, Automorphism(inner_f, inner_b))
            w = outer_equal(a, twin)
            assert w is not None
            for b in sig.basis_codes():
                u = Word(sig, (b,))
                assert apply(a, u) == conjugate(apply(twin, u), w)

    def test_identity_vs_beta1(self):
        # theta(1) = x1, and theta(2) = x1' y1 is not a conjugate of y1
        assert outer_equal(Automorphism.identity(S10), gen("b", 1, S10)) is None

    def test_symmetric_and_transitive(self, rng):
        sig = Signature(1, 1)
        a = random_adl_automorphism(sig, rng, 5)
        conj = parse_word(sig, "x1 t1")
        inner = Automorphism(
            Endomorphism(
                sig, tuple(conjugate(Word(sig, (b,)), conj) for b in sig.basis_codes())
            ),
            Endomorphism(
                sig,
                tuple(
                    conjugate(Word(sig, (b,)), conj.inverse())
                    for b in sig.basis_codes()
                ),
            ),
        )
        b = compose(a, inner)
        w_ab, w_ba = outer_equal(a, b), outer_equal(b, a)
        assert w_ab is not None and w_ba is not None
        for c in sig.basis_codes():
            u = Word(sig, (c,))
            assert apply(b, u) == conjugate(apply(a, u), w_ba)


def _inner(sig, w):
    """Conjugation u -> w' u w."""
    basis = [Word(sig, (b,)) for b in sig.basis_codes()]
    return Automorphism(
        Endomorphism(sig, tuple(conjugate(u, w) for u in basis)),
        Endomorphism(sig, tuple(conjugate(u, w.inverse()) for u in basis)),
    )


def _reduced_words(sig, n):
    """Every reduced word over ``sig`` of length at most ``n``."""
    letters = [c for c in range(-sig.rank, sig.rank + 1) if c]
    found = [()]
    layer = [()]
    for _ in range(n):
        layer = [w + (c,) for w in layer for c in letters if not w or w[-1] != -c]
        found += layer
    return [Word(sig, w) for w in found]


class TestCentralizerCoset:
    """Every conjugator of a pair lies in the coset 1^i r' of the centralizer
    of the basis letter 1, where theta(1) = r 1 r' for theta = b^-1 a;
    ``outer_equal`` reads i off theta(2) and checks the one candidate."""

    def test_conjugation_against_identity(self):
        # x1 -> (x1 y1)' x1 (x1 y1) = y1' x1 y1, so r = y1' and i = 1
        w = parse_word(S10, "x1 y1")
        assert outer_equal(_inner(S10, w), Automorphism.identity(S10)) == w

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_recovers_every_conjugator(self, data):
        # rank >= 2, so the conjugator is unique: it must come back as w
        sig = data.draw(st.sampled_from(SMALL_SIGS))
        seed = data.draw(st.none() | st.integers(0, 2**32 - 1))
        if seed is None:
            b = Automorphism.identity(sig)
        else:
            b = random_adl_automorphism(sig, random.Random(seed), 3)
        w = data.draw(words(sig=sig, max_len=8))
        assert outer_equal(compose(b, _inner(sig, w)), b) == w

    def test_large_exponent(self):
        # w = x1^7 y1: theta(1) = y1' x1 y1, and theta(2) carries the x1^7
        w = parse_word(S10, "x1 x1 x1 x1 x1 x1 x1 y1")
        assert outer_equal(_inner(S10, w), Automorphism.identity(S10)) == w
        b = gen("a", 1, S10)
        assert outer_equal(compose(b, _inner(S10, w)), b) == w

    @pytest.mark.parametrize("sig", [S10, S03, S11], ids=str)
    def test_none_means_no_short_conjugator(self, sig, rng):
        # exhaustive oracle: the conjugators of length <= 3 of random pairs,
        # half of them inner twins by a word of length <= 3
        short = _reduced_words(sig, 3)
        for k in range(30):
            b = random_adl_automorphism(sig, rng, 3)
            if k % 2:
                a = compose(b, _inner(sig, rng.choice(short)))
            else:
                a = random_adl_automorphism(sig, rng, 3)
            found = [w for w in short if compose(b, _inner(sig, w)).fwd == a.fwd]
            w = outer_equal(a, b)
            assert found == ([] if w is None or len(w) > 3 else [w])

    @pytest.mark.parametrize(
        "name,sig",
        [
            # theta(1) = y1 x1 is not a conjugate of x1
            ("a", S10),
            # theta fixes t1 and x1, so w = 1, which moves y1
            ("b", S11),
        ],
        ids=["theta1-not-conjugate", "final-check"],
    )
    def test_identity_vs_generator(self, name, sig):
        # ``TestOuterEqual.test_identity_vs_beta1`` is the case between them
        assert outer_equal(Automorphism.identity(sig), gen(name, 1, sig)) is None


class TestRestrictDropTp:
    def test_sigma2_drops_t3(self):
        big, small = Signature(0, 3), Signature(0, 2)
        assert restrict_drop_tp(gen("s", 2, big)).fwd == gen("s", 2, small).fwd

    def test_identity(self):
        assert restrict_drop_tp(Automorphism.identity(S12)).is_identity()

    def test_gamma1_drops_t2(self):
        big, small = S12, Signature(1, 1)
        assert restrict_drop_tp(gen("g", 1, big)).fwd == gen("g", 1, small).fwd

    def test_not_in_stabilizer(self):
        sig = Signature(0, 2)
        with pytest.raises(NotInStabilizer):
            restrict_drop_tp(gen("s", 2, sig))

    def test_reinclusion_round_trip(self, rng):
        for big in [S12, Signature(2, 1), Signature(0, 3)]:
            small = Signature(big.g, big.p - 1)
            w = random_gen_word(small, rng, 8)
            included = eval_gen_word(w, big)
            assert restrict_drop_tp(included).fwd == eval_gen_word(w, small).fwd


class TestRestrictRelabelK:
    def test_alpha1_is_kernel(self):
        assert restrict_relabel_K(gen("a", 1, Signature(2, 0))).is_identity()

    def test_beta2_relabels_to_beta1(self):
        big, small = Signature(2, 0), Signature(1, 1)
        assert restrict_relabel_K(gen("b", 2, big)).fwd == gen("b", 1, small).fwd

    def test_gamma2_relabels_to_gamma1(self):
        big, small = Signature(2, 0), Signature(1, 1)
        assert restrict_relabel_K(gen("g", 2, big)).fwd == gen("g", 1, small).fwd

    def test_identity(self):
        assert restrict_relabel_K(Automorphism.identity(S10)).is_identity()

    def test_not_in_stabilizer(self):
        with pytest.raises(NotInStabilizer):
            restrict_relabel_K(gen("b", 1, S10))


class TestTextFormat:
    def test_round_trip(self, rng):
        for sig in SMALL_SIGS:
            a = random_adl_automorphism(sig, rng, 6)
            again = parse_endomorphism(format_endomorphism(a.fwd))
            assert again == a.fwd

    def test_only_moved_letters_printed(self):
        text = format_endomorphism(gen("a", 1, Signature(2, 0)).fwd)
        assert text == "sig g=2 p=0\nx1 -> y1' x1\n"

    def test_unlisted_letters_fixed(self):
        endo = parse_endomorphism("sig g=1 p=1\nx1 -> y1' x1")
        assert endo.images[0] == parse_word(Signature(1, 1), "t1")


def naive_apply(endo, u):
    """Letter-by-letter substitution, reduced by the validating constructor."""
    codes = []
    for c in u.codes:
        img = endo.images[abs(c) - 1].codes
        codes.extend(img if c > 0 else [-d for d in reversed(img)])
    return Word(u.sig, tuple(codes))


def naive_compose(phi, psi):
    return Endomorphism(phi.sig, tuple(naive_apply(psi, w) for w in phi.images))


def witnessed(a):
    """Both witness identities, checked by naive substitution."""
    sig = a.sig
    basis = [Word(sig, (b,)) for b in sig.basis_codes()]
    return all(naive_apply(a.inv, naive_apply(a.fwd, u)) == u for u in basis) and all(
        naive_apply(a.fwd, naive_apply(a.inv, u)) == u for u in basis
    )


@st.composite
def endomorphisms(draw, sig=None):
    s = sig if sig is not None else draw(st.sampled_from(SMALL_SIGS))
    images = tuple(draw(words(sig=s, max_len=6)) for _ in s.basis_codes())
    return Endomorphism(s, images)


@st.composite
def automorphisms(draw, sig=None, max_tokens=5):
    s = sig if sig is not None else draw(st.sampled_from(SMALL_SIGS))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_adl_automorphism(s, random.Random(seed), max_tokens)


class TestTrustedKernel:
    """``apply`` and ``compose`` build their results without re-validation;
    each must equal the naive substitution rebuilt by the public constructors."""

    @given(st.data())
    def test_apply_matches_naive(self, data):
        phi = data.draw(endomorphisms())
        u = data.draw(words(sig=phi.sig))
        image = phi.apply(u)
        assert image == naive_apply(phi, u)
        assert Word(image.sig, image.codes).codes == image.codes

    @given(st.data())
    def test_compose_endomorphisms_matches_naive(self, data):
        sig = data.draw(st.sampled_from(SMALL_SIGS))
        phi, psi, chi = (data.draw(endomorphisms(sig=sig)) for _ in range(3))
        assert compose(phi, psi) == naive_compose(phi, psi)
        assert compose(phi, psi, chi) == naive_compose(naive_compose(phi, psi), chi)

    @given(st.data())
    def test_compose_automorphisms_matches_naive(self, data):
        sig = data.draw(st.sampled_from(SMALL_SIGS))
        a, b = data.draw(automorphisms(sig=sig)), data.draw(automorphisms(sig=sig))
        ab = compose(a, b)
        assert ab.fwd == naive_compose(a.fwd, b.fwd)
        assert ab.inv == naive_compose(b.inv, a.inv)
        assert witnessed(ab)

    @given(automorphisms())
    def test_inverse_is_witnessed(self, a):
        inv = a.inverse()
        assert inv.fwd == a.inv and inv.inv == a.fwd
        assert witnessed(inv)
        assert Automorphism(inv.fwd, inv.inv) == inv

    @given(st.sampled_from([S12, Signature(2, 1), S03]), st.integers(0, 2**32 - 1))
    def test_restrict_drop_tp_images_are_reduced(self, big, seed):
        small = Signature(big.g, big.p - 1)
        a = eval_gen_word(random_gen_word(small, random.Random(seed), 6), big)
        r = restrict_drop_tp(a)
        for img in r.fwd.images + r.inv.images:
            assert img.sig == small and Word(small, img.codes).codes == img.codes

    @given(st.sampled_from([Signature(2, 0), Signature(3, 0)]), st.integers(0, 2**32 - 1))
    def test_restrict_relabel_K_images_are_reduced(self, big, seed):
        small = Signature(big.g - 1, 1)
        w = random_gen_word(small, random.Random(seed), 6)
        a = eval_gen_word(w.shifted(1), big)
        r = restrict_relabel_K(a)
        assert r.fwd == eval_gen_word(w, small).fwd
        for img in r.fwd.images + r.inv.images:
            assert img.sig == small and Word(small, img.codes).codes == img.codes

    @pytest.mark.parametrize("sig", SMALL_SIGS)
    def test_from_map_fixes_unlisted_letters(self, sig):
        assert Endomorphism.from_map(sig, {}) == Endomorphism(
            sig, tuple(Word(sig, (b,)) for b in sig.basis_codes())
        )
        assert Endomorphism.identity(sig) == Endomorphism.from_map(sig, {})

    @given(st.data())
    def test_image_of_inverse_letter(self, data):
        a = data.draw(automorphisms())
        u = data.draw(words(sig=a.sig))
        assert apply(a, u.inverse()) == apply(a, u).inverse()


class TestLetterMove:
    """``letter_move`` writes the inverse itself and skips the witness
    substitution; the validating constructor must accept every pair it builds,
    and its concatenated code tuples must be what ``Word`` arithmetic gives."""

    @given(st.data())
    def test_pair_is_witnessed(self, data):
        sig = data.draw(st.sampled_from(GRID))
        b = data.draw(st.sampled_from(list(sig.basis_codes())))
        code = data.draw(st.sampled_from([b, -b]))
        others = st.sampled_from(
            [c for c in range(-sig.rank, sig.rank + 1) if abs(c) not in (0, b)]
        )
        avoiding = st.lists(others, max_size=6).map(lambda cs: Word(sig, tuple(cs)))
        left, right = data.draw(avoiding), data.draw(avoiding)
        a = letter_move(sig, code, left, right)
        assert Automorphism(a.fwd, a.inv) == a
        assert witnessed(a)
        assert apply(a, Word(sig, (code,))) == Word(sig, left.codes + (code,) + right.codes)
        assert a.fwd.moved_codes() in ([], [b]) and a.inv.moved_codes() in ([], [b])
        letter = Word(sig, (code,))
        fwd = left * letter * right
        inv = left.inverse() * letter * right.inverse()
        if code < 0:
            fwd, inv = fwd.inverse(), inv.inverse()
        fixed = Endomorphism.identity(sig).images
        assert a.fwd.images == fixed[: b - 1] + (fwd,) + fixed[b:]
        assert a.inv.images == fixed[: b - 1] + (inv,) + fixed[b:]

    @pytest.mark.parametrize("sig", SMALL_SIGS)
    def test_own_letter_rejected(self, sig):
        b, one = sig.rank, Word.identity(sig)
        for code in (b, -b):
            for own in (Word(sig, (b, b)), Word(sig, (-b,)), Word(sig, (1, -b, 1))):
                with pytest.raises(CosetViolation, match="mentions its own letter"):
                    letter_move(sig, code, own, one)
                with pytest.raises(CosetViolation, match="mentions its own letter"):
                    letter_move(sig, code, one, own)


@st.composite
def chain_factors(draw, sig):
    """One factor of a composition chain, drawn from the kinds the package
    composes: the identity, sparse moves of one or two letters, ADL
    generators, dense maps and non-injective maps with empty images."""
    basis = list(sig.basis_codes())
    kind = draw(st.sampled_from(["identity", "move", "flip", "swap", "adl", "dense", "collapse"]))
    if kind == "identity":
        return Endomorphism.identity(sig)
    b = draw(st.sampled_from(basis))
    if kind == "move":
        u, v = draw(words(sig=sig, max_len=3)), draw(words(sig=sig, max_len=3))
        return Endomorphism.from_map(sig, {b: u * Word(sig, (b,)) * v})
    if kind == "flip":
        return Endomorphism.from_map(sig, {b: Word(sig, (-b,))})
    if kind == "swap":
        c = draw(st.sampled_from(basis))
        return swap_letters(sig, b, draw(st.sampled_from([c, -c]))).fwd
    if kind == "adl":
        a = generator(draw(st.sampled_from(gen_set(sig))), sig)
        return draw(st.sampled_from([a.fwd, a.inv]))
    if kind == "dense":
        return draw(endomorphisms(sig=sig))
    killed = draw(st.sets(st.sampled_from(basis), min_size=1))
    images = [
        Word.identity(sig) if c in killed else draw(words(sig=sig, max_len=4)) for c in basis
    ]
    return Endomorphism(sig, tuple(images))


@st.composite
def inverse_heavy_words(draw, sig):
    """Words mostly of inverse letters, with repeats, so that the lazily built
    inverse images are reused within one call."""
    neg = st.sampled_from([-c for c in sig.basis_codes()])
    letters = st.one_of(neg, neg, neg, st.sampled_from(list(sig.basis_codes())))
    return Word(sig, tuple(draw(st.lists(letters, min_size=1, max_size=24))))


class TestSubstitutionKernel:
    """The right fold and the single substitution primitive against the naive
    left fold of letter-by-letter substitution."""

    @given(st.data())
    def test_chain_matches_naive_left_fold(self, data):
        sig = data.draw(st.sampled_from(SMALL_SIGS))
        chain = data.draw(st.lists(chain_factors(sig), min_size=1, max_size=10))
        composite = compose(*chain)
        assert composite == reduce(naive_compose, chain)
        u = data.draw(inverse_heavy_words(sig))
        assert apply(composite, u) == reduce(lambda w, e: naive_apply(e, w), chain, u)

    @given(st.data())
    def test_automorphism_chain_matches_naive(self, data):
        sig = data.draw(st.sampled_from(SMALL_SIGS))
        names = gen_set(sig)
        chain = [
            generator(n, sig) if e > 0 else generator(n, sig).inverse()
            for n, e in data.draw(
                st.lists(st.tuples(st.sampled_from(names), st.sampled_from([1, -1])),
                         min_size=1, max_size=10)
            )
        ]
        composite = compose(*chain)
        assert composite.fwd == reduce(naive_compose, [a.fwd for a in chain])
        assert composite.inv == reduce(naive_compose, [a.inv for a in reversed(chain)])
        assert witnessed(composite)

    @given(st.data())
    def test_apply_inverse_heavy_words(self, data):
        phi = data.draw(st.one_of(endomorphisms(), automorphisms().map(lambda a: a.fwd)))
        u = data.draw(inverse_heavy_words(phi.sig))
        image = phi.apply(u)
        assert image == naive_apply(phi, u)
        assert Word(image.sig, image.codes).codes == image.codes

    @pytest.mark.parametrize("sig", SMALL_SIGS)
    def test_identity_automorphism_is_witnessed(self, sig):
        ident = Automorphism.identity(sig)
        assert ident == Automorphism(Endomorphism.identity(sig), Endomorphism.identity(sig))
        assert witnessed(ident) and ident.is_identity()


@st.composite
def splice_cases(draw):
    """(images, codes, moved): a reduced word over two or three basis
    letters, so that letters repeat and moved letters stand side by side,
    and a map that moves 1-3 basis letters, mostly letters of the word.  A
    moved letter's image is a random word, the empty word, or built to
    cancel into its neighbours at one occurrence: the inverse of up to the
    whole stretch of the word before it, a short middle, and the inverse of
    up to the whole stretch after it, so that cancellation runs across the
    seams and can swallow a whole neighbouring segment."""
    sig = draw(st.sampled_from([s for s in SMALL_SIGS if s.rank >= 2]))
    basis = list(sig.basis_codes())
    alphabet = draw(st.lists(st.sampled_from(basis), min_size=2, max_size=3, unique=True))
    letters = st.sampled_from(alphabet + [-c for c in alphabet])
    codes = Word(sig, tuple(draw(st.lists(letters, max_size=16)))).codes
    moved = draw(st.lists(st.sampled_from(alphabet), min_size=1, unique=True))
    if draw(st.booleans()):
        moved += draw(st.lists(st.sampled_from(basis), max_size=1))
    moved = list(dict.fromkeys(moved))[:3]
    images = list(Endomorphism.identity(sig).images)
    for b in moved:
        at = [i for i, c in enumerate(codes) if abs(c) == b]
        kind = draw(st.sampled_from(["random", "empty", "cancel", "cancel"]))
        if kind == "random" or (kind == "cancel" and not at):
            img = draw(words(sig=sig, max_len=5))
        elif kind == "empty":
            img = Word.identity(sig)
        else:
            i = draw(st.sampled_from(at))
            lo, hi = draw(st.integers(0, i)), draw(st.integers(i + 1, len(codes)))
            w = (
                Word(sig, codes[lo:i]).inverse()
                * draw(words(sig=sig, max_len=2))
                * Word(sig, codes[i + 1 : hi]).inverse()
            )
            img = w if codes[i] > 0 else w.inverse()
        images[b - 1] = img
    return tuple(images), codes, moved


class TestSplice:
    """The sparse path copies the runs between moved letters as slices and
    cancels only at the seams; it must give ``_substitute``'s result."""

    @settings(max_examples=400)
    @given(splice_cases())
    def test_matches_substitute(self, case):
        images, codes, moved = case
        assert _splice(images, codes, moved) == _substitute(images, codes, {})

    @pytest.mark.parametrize(
        "codes, moved, want",
        [
            # two adjacent moved positions, the second image cancelling the
            # first and then the whole run after it
            ((1, 2, 3), {1: (3,), 2: (-3, -3)}, ()),
            # an image cancelling a whole run before it and the image before
            # that run
            ((1, 2, 3), {1: (2,), 3: (-2, -2)}, ()),
            # cancellation across the seam through the whole run after an
            # image; the next image then joins what is left before the run
            ((2, 1, -3, -2, 1), {1: (2, 3)}, (2, 2, 3)),
            # an empty image joins the runs on both sides, which cancel
            ((2, 1, -2, 3), {1: ()}, (3,)),
            # a moved letter that the word does not contain
            ((2, 3), {1: (2, 2)}, (2, 3)),
        ],
    )
    def test_seam_cascades(self, codes, moved, want):
        images = list(Endomorphism.identity(S03).images)
        for b, img in moved.items():
            images[b - 1] = Word(S03, img)
        assert _splice(images, codes, moved) == want
        assert _substitute(images, codes, {}) == want


FWD_INV = "witness failure: fwd * inv is not the identity"


class TestWitnessFailures:
    """Pairs that break a witness identity at one basis letter only.  (A pair
    that passes fwd * inv but fails inv * fwd does not exist: if inv undoes
    fwd, inv is onto, and a free group of finite rank is Hopfian.)"""

    @pytest.mark.parametrize("sig", SMALL_SIGS)
    def test_fails_only_at_last_letter(self, sig):
        last = sig.rank
        bad = Endomorphism.from_map(sig, {last: Word(sig, (last, 1))})
        ident = Endomorphism.identity(sig)
        for fwd, inv in ((ident, bad), (bad, ident)):
            with pytest.raises(ValueError) as exc:
                Automorphism(fwd, inv)
            assert str(exc.value) == FWD_INV

    @pytest.mark.parametrize("sig", SMALL_SIGS)
    def test_inverse_at_every_letter_but_the_last(self, sig):
        # a true automorphism with the witness image of the last letter spoiled
        a = eval_gen_word(random_gen_word(sig, random.Random(sig.rank), 6), sig)
        last = sig.rank
        spoiled = list(a.inv.images)
        spoiled[last - 1] = spoiled[last - 1] * Word(sig, (last,))
        for fwd, inv in (
            (a.fwd, Endomorphism(sig, tuple(spoiled))),
            (Endomorphism(sig, tuple(spoiled)), a.fwd),
        ):
            with pytest.raises(ValueError) as exc:
                Automorphism(fwd, inv)
            assert str(exc.value) == FWD_INV


class TestBoundary:
    """The public constructors still reject malformed maps."""

    def test_too_few_images(self):
        with pytest.raises(ValueError, match="need 2 images"):
            Endomorphism(S10, (parse_word(S10, "x1"),))

    def test_too_many_images(self):
        x1 = parse_word(S10, "x1")
        with pytest.raises(ValueError, match="need 2 images"):
            Endomorphism(S10, (x1, x1, x1))

    def test_foreign_signature_image(self):
        foreign = parse_word(Signature(1, 1), "x1")
        with pytest.raises(SignatureMismatch):
            Endomorphism(S10, (foreign, parse_word(S10, "y1")))

    def test_bad_witness(self):
        fwd = gen("a", 1, S10).fwd
        with pytest.raises(ValueError, match="witness failure"):
            Automorphism(fwd, fwd)

    def test_one_sided_witness(self):
        # x1 -> x1 y1 and x1 -> x1: neither composite is the identity
        fwd = Endomorphism.from_map(S10, {1: parse_word(S10, "x1 y1")})
        with pytest.raises(ValueError, match="witness failure"):
            Automorphism(fwd, Endomorphism.identity(S10))

    def test_from_map_checks_caller_images(self):
        foreign = parse_word(S12, "x1")
        with pytest.raises(SignatureMismatch):
            Endomorphism.from_map(S10, {1: foreign})

    def test_witness_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            Automorphism(Endomorphism.identity(S10), Endomorphism.identity(S12))

    def test_aut_from_map_checks_witness(self):
        with pytest.raises(ValueError, match="witness failure"):
            aut_from_map(S10, {1: parse_word(S10, "y1' x1")}, {1: parse_word(S10, "y1' x1")})

    def test_apply_across_signatures(self):
        with pytest.raises(SignatureMismatch):
            apply(gen("a", 1, S10), parse_word(S12, "x1"))


def parent_undoes(first, then):
    """``_undoes`` as first written: every basis letter is substituted."""
    images, inv = then.images, {}
    return all(
        _substitute(images, w.codes, inv) == (b,) for b, w in enumerate(first.images, 1)
    )


def parent_t_class_permutation(endo):
    """``_t_class_permutation`` as first written, on cyclic reductions."""
    sig = endo.sig
    images = []
    for j in range(1, sig.p + 1):
        core, _ = endo.images[sig.t_code(j) - 1].cyclic_reduction()
        if len(core) != 1 or core.codes[0] <= 0 or not sig.is_t_code(core.codes[0]):
            return None
        images.append(core.codes[0])
    if sorted(images) != list(range(1, sig.p + 1)):
        return None
    return TPermutation(tuple(images))


def parent_swap_letters(sig, a, b):
    """``swap_letters`` as first written, through the validating constructors."""
    if abs(a) == abs(b):
        if a == b:
            return Automorphism.identity(sig)
        img = {abs(a): Word(sig, (-abs(a),))}
        return aut_from_map(sig, img, img)
    moved = {
        abs(a): Word(sig, (b if a > 0 else -b,)),
        abs(b): Word(sig, (a if b > 0 else -a,)),
    }
    return aut_from_map(sig, moved, moved)


@st.composite
def witness_candidates(draw, sig):
    """(first, then, is_witness): true witness pairs of ADL automorphisms in
    either order, and wrong pairs: the witness of another automorphism, the
    map itself, a witness spoiled at one letter, and two random factors,
    which mostly fix letters that the other map may move."""
    kind = draw(st.sampled_from(["witness", "other", "self", "spoiled", "factors"]))
    if kind == "factors":
        return draw(chain_factors(sig)), draw(chain_factors(sig)), None
    a = draw(automorphisms(sig=sig, max_tokens=6))
    first, then = (a.fwd, a.inv) if draw(st.booleans()) else (a.inv, a.fwd)
    if kind == "witness":
        return first, then, True
    if kind == "other":
        return first, draw(automorphisms(sig=sig, max_tokens=6)).inv, None
    if kind == "self":
        return first, first, None
    b = draw(st.sampled_from(list(sig.basis_codes())))
    spoiled = list(then.images)
    spoiled[b - 1] = spoiled[b - 1] * draw(words(sig=sig, max_len=2))
    return first, Endomorphism(sig, tuple(spoiled)), None


@st.composite
def puncture_maps(draw, sig):
    """Maps whose puncture images are conjugates r t_k r' of puncture letters,
    with k running through a permutation or, now and then, drawn freely; one
    puncture image may be a near miss instead: r t_k' r', a handle letter,
    two letters, r t_k s', or the empty word."""
    p = sig.p
    if draw(st.integers(0, 3)):
        ks = draw(st.permutations(range(1, p + 1)))
    else:
        ks = draw(st.lists(st.integers(1, p), min_size=p, max_size=p))
    spoiled = draw(st.integers(1, p))
    images = []
    for b in sig.basis_codes():
        if not sig.is_t_code(b):
            images.append(draw(words(sig=sig, max_len=4)))
            continue
        k = ks[b - 1]
        kind = "conj"
        if b == spoiled:
            kind = draw(st.sampled_from(
                ["conj", "inverse", "handle", "two", "unbalanced", "empty"]
            ))
        r = draw(words(sig=sig, max_len=3))
        core = {
            "conj": (k,),
            "inverse": (-k,),
            "handle": (draw(st.integers(1, sig.rank)),),
            "two": (k, draw(st.integers(1, p))),
            "unbalanced": (k,),
            "empty": (),
        }[kind]
        right = draw(words(sig=sig, max_len=3)) if kind == "unbalanced" else r
        images.append(r * Word(sig, core) * right.inverse())
    return Endomorphism(sig, tuple(images))


class TestConstructionChecks:
    """The construction checks decide what their first versions decided."""

    @given(st.data())
    def test_undoes_matches_full_substitution(self, data):
        sig = data.draw(st.sampled_from(SMALL_SIGS))
        first, then, is_witness = data.draw(witness_candidates(sig))
        verdict = _undoes(first, then)
        assert verdict == parent_undoes(first, then)
        # free groups of finite rank are Hopfian: one identity implies the other
        assert verdict == _undoes(then, first)
        if is_witness:
            assert verdict and _undoes(then, first)

    @pytest.mark.parametrize("sig", SMALL_SIGS)
    def test_undoes_on_fixed_letters(self, sig):
        # ``first`` fixes every letter, so only ``then``'s images decide
        ident = Endomorphism.identity(sig)
        assert _undoes(ident, ident)
        for b in sig.basis_codes():
            moved = Endomorphism.from_map(sig, {b: Word(sig, (-b,))})
            assert not _undoes(ident, moved) and not parent_undoes(ident, moved)

    @settings(max_examples=300)
    @given(st.data())
    def test_t_class_permutation_matches_cyclic_reduction(self, data):
        sig = data.draw(st.sampled_from([s for s in SMALL_SIGS if s.p]))
        endo = data.draw(puncture_maps(sig))
        assert _t_class_permutation(endo) == parent_t_class_permutation(endo)

    @given(st.data())
    def test_t_class_permutation_of_automorphisms(self, data):
        a = data.draw(automorphisms(max_tokens=8))
        perm = _t_class_permutation(a.fwd)
        assert perm is not None and perm == parent_t_class_permutation(a.fwd)

    @pytest.mark.parametrize("sig", SMALL_SIGS)
    def test_swap_letters_matches_validating_build(self, sig):
        letters = [c for b in sig.basis_codes() for c in (b, -b)]
        for a in letters:
            for b in letters:
                assert swap_letters(sig, a, b) == parent_swap_letters(sig, a, b)

    @pytest.mark.parametrize("sig", list(GRID) + OFF_GRID)
    def test_swap_letters_is_its_own_witness(self, sig):
        # built by the trusted constructor: each swap or flip is an involution
        letters = [c for b in sig.basis_codes() for c in (b, -b)]
        for a in letters:
            for b in letters:
                e = swap_letters(sig, a, b)
                assert e.fwd == e.inv and _undoes(e.fwd, e.fwd)

    @pytest.mark.parametrize("code", [0, 3, -3, 7])
    def test_moves_reject_letters_out_of_range(self, code):
        one = Word.identity(S10)
        with pytest.raises(ValueError, match=f"letter code {code} out of range"):
            letter_move(S10, code, one, one)
        with pytest.raises(ValueError, match="out of range"):
            swap_letters(S10, code, 1)


def _one_move(sig, text):
    """The endomorphism at ``sig`` that sends one basis letter as ``text``
    ("x1 -> y1") says and fixes the rest."""
    src, dst = (parse_word(sig, side.strip()) for side in text.split("->"))
    return Endomorphism.from_map(sig, {src.codes[0]: dst})


class TestNegativeInputs:
    """Public entry points given inputs they reject or answer with None."""

    @pytest.mark.parametrize(
        "build,error,says",
        [
            (lambda: Letter.from_code(S10, 3), ValueError,
             "letter code 3 out of range for (g=1, p=0)"),
            (lambda: TPermutation((1, 1)), ValueError, "not a permutation of 1..2: (1, 1)"),
            (lambda: outer_equal(Automorphism.identity(S10), Automorphism.identity(S02)),
             SignatureMismatch, "(g=1, p=0) vs (g=0, p=2)"),
            (lambda: restrict_drop_tp(Automorphism.identity(S10)), NotInStabilizer,
             "restrict_drop_tp needs p >= 1"),
            # fixes t2, but the image of t1 mentions it
            (lambda: restrict_drop_tp(aut_from_map(
                S02, {1: parse_word(S02, "t2 t1 t2'")}, {1: parse_word(S02, "t2' t1 t2")})),
             ImageEscapes, "image of t1 mentions t2"),
            (lambda: restrict_relabel_K(Automorphism.identity(S11)), NotInStabilizer,
             "restrict_relabel_K needs p = 0 and g >= 1"),
            # conjugation by x1' y1' x1 fixes it, but sends y1 to a word with x1
            (lambda: restrict_relabel_K(_inner(S10, parse_word(S10, "x1' y1' x1"))),
             ImageEscapes, "image of y1 leaves the x1-free factor"),
            (lambda: parse_endomorphism("  \n "), ParseError, "empty automorphism text"),
        ],
        ids=["letter-code", "t-permutation", "outer-mixed", "drop-tp-at-p0",
             "drop-tp-escapes", "relabel-at-p1", "relabel-escapes", "parse-blank"],
    )
    def test_rejects(self, build, error, says):
        with pytest.raises(error, match=f"^{re.escape(says)}$"):
            build()

    @pytest.mark.parametrize(
        "sig,move",
        [(S11, "t1 -> x1"), (S11, "x1 -> t1"), (S02, "t2 -> t1"), (S10, "x1 -> y1")],
        ids=["t-to-x", "x-to-t", "t-not-permuted", "x-not-permuted"],
    )
    def test_classify_letters_none(self, sig, move):
        assert classify_letters(_one_move(sig, move)) is None

    def test_outer_equal_none_at_rank_one(self):
        flip = _one_move(S01, "t1 -> t1'")
        assert outer_equal(Automorphism(flip, flip), Automorphism.identity(S01)) is None
