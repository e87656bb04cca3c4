import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from surfaut import (
    GenName,
    GenWord,
    GroupRingElement,
    IndexOutOfRange,
    Letter,
    ParseError,
    Signature,
    Word,
    commutator,
    conjugate,
    fox_derivative,
    free_reduce,
    gen_set,
    invert,
    multiply,
    parse_gen_word,
    parse_word,
    relator,
)
from surfaut.core import parse_letter

from surfaut.errors import SignatureMismatch

from conftest import SMALL_SIGS, word_pairs, words

S10 = Signature(1, 0)
S12 = Signature(1, 2)


def w(sig, text):
    return parse_word(sig, text)


class TestFreeReduce:
    def test_inverse_pair_cancels(self):
        assert free_reduce(S10, [1, -1]) == Word.identity(S10)

    def test_single_cancellation(self):
        sig = Signature(1, 1)
        seq = [Letter("t", 1, 1), Letter("x", 1, 1), Letter("x", 1, -1), Letter("y", 1, 1)]
        assert free_reduce(sig, seq) == w(sig, "t1 y1")

    def test_already_reduced(self):
        word = w(S10, "x1' y1' x1 y1")
        assert free_reduce(S10, word.codes) == word

    @given(words())
    def test_idempotent_retraction(self, u):
        assert Word(u.sig, u.codes) == u
        assert u * u.inverse() == Word.identity(u.sig)


class TestGroupOps:
    def test_commutator_definition(self):
        assert commutator(w(S10, "x1"), w(S10, "y1")) == w(S10, "x1' y1' x1 y1")

    def test_conjugate_definition(self):
        sig = Signature(1, 1)
        assert conjugate(w(sig, "t1"), w(sig, "x1")) == w(sig, "x1' t1 x1")

    def test_multiply_cancels(self):
        assert multiply(w(S10, "x1 y1"), w(S10, "y1' x1")) == w(S10, "x1 x1")

    @given(word_pairs())
    def test_length_bounds(self, pair):
        u, v = pair
        assert len(u * v) <= len(u) + len(v)
        assert len(conjugate(u, v)) <= len(u) + 2 * len(v)

    @given(words())
    def test_double_inverse(self, u):
        assert invert(invert(u)) == u

    @given(words())
    def test_truth_is_nonempty(self, u):
        # truth comes from __len__: only the empty word is false
        assert bool(u) == (u.codes != ())


class TestRelator:
    def test_genus_one(self):
        assert relator(S10) == w(S10, "x1' y1' x1 y1")

    def test_empty(self):
        sig = Signature(0, 0)
        assert relator(sig) == Word.identity(sig)

    def test_mixed(self):
        assert relator(S12) == w(S12, "t2 t1 x1' y1' x1 y1")

    @pytest.mark.parametrize("sig", SMALL_SIGS)
    def test_length_and_letters(self, sig):
        v0 = relator(sig)
        assert len(v0) == 4 * sig.g + sig.p
        seen = sorted(v0.codes)
        expect = sorted(
            [sig.t_code(j) for j in range(1, sig.p + 1)]
            + [s * sig.x_code(i) for i in range(1, sig.g + 1) for s in (1, -1)]
            + [s * sig.y_code(i) for i in range(1, sig.g + 1) for s in (1, -1)]
        )
        assert seen == expect


class TestParsing:
    def test_empty_word_token(self):
        assert parse_word(S10, "1") == Word.identity(S10)

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_word(S10, "z1")

    def test_out_of_range(self):
        with pytest.raises(ParseError):
            parse_word(S10, "t1")

    @given(words())
    def test_round_trip(self, u):
        assert parse_word(u.sig, str(u)) == u

    @given(words())
    def test_letters_round_trip(self, u):
        assert Word.from_letters(u.sig, list(u.letters())) == u


class TestFox:
    def test_basis_rule_same(self):
        d = fox_derivative(w(S10, "x1"), Letter("x", 1, 1))
        assert d == GroupRingElement.of(Word.identity(S10))

    def test_basis_rule_other(self):
        d = fox_derivative(w(S10, "y1"), Letter("x", 1, 1))
        assert d.is_zero()

    def test_product_of_basis(self):
        d = fox_derivative(w(S10, "x1 y1"), Letter("x", 1, 1))
        assert d == GroupRingElement.of(w(S10, "y1"))

    @given(word_pairs())
    def test_product_rule(self, pair):
        u, v = pair
        for b in u.sig.basis_codes():
            lhs = fox_derivative(u * v, b)
            rhs = fox_derivative(u, b).right_mul(v) + fox_derivative(v, b)
            assert lhs == rhs

    @given(words())
    def test_inverse_rule(self, u):
        for b in u.sig.basis_codes():
            lhs = fox_derivative(u.inverse(), b)
            rhs = -(fox_derivative(u, b).right_mul(u.inverse()))
            assert lhs == rhs

    def test_positive_letter_required(self):
        with pytest.raises(ValueError):
            fox_derivative(w(S10, "x1"), -1)


class TestLetter:
    @given(words())
    def test_inverse_negates_the_code(self, u):
        for code in u.codes:
            letter = Letter.from_code(u.sig, code)
            assert letter.inverse.code(u.sig) == -code
            assert letter.inverse.inverse == letter

    def test_inverse_keeps_kind_and_index(self):
        assert Letter("y", 2, 1).inverse == Letter("y", 2, -1)
        assert str(Letter("t", 1, -1).inverse) == "t1"


class TestGroupRingElement:
    def test_zero(self):
        zero = GroupRingElement.zero(S10)
        assert zero.is_zero() and str(zero) == "0"
        # a zero coefficient is dropped
        assert zero == GroupRingElement.of(w(S10, "x1"), 0)
        assert zero + GroupRingElement.of(w(S10, "y1")) == GroupRingElement.of(w(S10, "y1"))

    def test_sub(self):
        x, y = w(S10, "x1"), w(S10, "y1")
        a = GroupRingElement(S10, {x: 2, y: 1})
        assert a - GroupRingElement.of(x, 2) == GroupRingElement.of(y)
        assert a - a == GroupRingElement.zero(S10)
        assert GroupRingElement.zero(S10) - a == -a
        with pytest.raises(SignatureMismatch):
            a - GroupRingElement.zero(S12)

    def test_str_lists_terms_in_lenlex_order(self):
        e = GroupRingElement(
            S10, {w(S10, "x1 y1"): -2, w(S10, "y1"): 1, Word.identity(S10): 3}
        )
        assert str(e) == repr(e) == "+3*(1) +1*(y1) -2*(x1 y1)"

    def test_hash_agrees_with_equality(self):
        x, y = w(S10, "x1"), w(S10, "y1")
        a = GroupRingElement(S10, {x: 1, y: -1})
        b = GroupRingElement.of(x) - GroupRingElement.of(y)
        c = GroupRingElement(S10, {y: -1, x: 1, w(S10, "x1 y1"): 0})
        assert a == b == c and hash(a) == hash(b) == hash(c)
        assert {a, b, c, GroupRingElement.zero(S10)} == {a, GroupRingElement.zero(S10)}


def validated(u):
    """The same word rebuilt through the validating constructor."""
    return Word(u.sig, u.codes)


class TestTrustedKernel:
    """Products, inverses and cyclic reductions skip validation; each result
    must equal what the validating constructor gives on the naive codes."""

    @given(word_pairs())
    def test_product_matches_naive(self, pair):
        u, v = pair
        prod = u * v
        assert prod == Word(u.sig, u.codes + v.codes)
        assert type(prod.codes) is tuple and validated(prod).codes == prod.codes

    @given(words())
    def test_inverse_matches_naive(self, u):
        inv = u.inverse()
        assert inv == Word(u.sig, tuple(-c for c in u.codes[::-1]))
        assert validated(inv).codes == inv.codes

    @given(words())
    def test_cyclic_reduction_matches_naive(self, u):
        core, r = u.cyclic_reduction()
        assert validated(core).codes == core.codes and validated(r).codes == r.codes
        assert Word(u.sig, r.codes + core.codes + r.inverse().codes) == u
        assert len(core) < 2 or core.codes[0] != -core.codes[-1]

    @given(st.sampled_from(SMALL_SIGS), st.data())
    def test_product_with_identity(self, sig, data):
        u = data.draw(words(sig=sig))
        one = Word.identity(sig)
        assert u * one == u and one * u == u


class TestBoundary:
    """The public constructor still rejects what the trusted paths never see."""

    @pytest.mark.parametrize("sig", SMALL_SIGS)
    def test_code_above_rank(self, sig):
        with pytest.raises(ValueError, match="out of range"):
            Word(sig, (1, sig.rank + 1))

    @pytest.mark.parametrize("sig", SMALL_SIGS)
    def test_code_below_minus_rank(self, sig):
        with pytest.raises(ValueError, match="out of range"):
            Word(sig, (-(sig.rank + 1),))

    def test_zero_code(self):
        with pytest.raises(ValueError, match="out of range"):
            Word(S10, (0,))

    @pytest.mark.parametrize("codes", [(3, -3), (0, 0), (1, 0, 0, 2)])
    def test_bad_letters_that_cancel(self, codes):
        with pytest.raises(ValueError, match="out of range"):
            Word(S10, codes)

    def test_reduces_at_construction(self):
        assert Word(S10, (1, 2, -2, -1, 2)).codes == (2,)

    def test_product_across_signatures(self):
        with pytest.raises(ValueError):
            w(S10, "x1") * w(S12, "x1")


@pytest.mark.parametrize(
    "build,error,says",
    [
        (lambda: Signature(-1, 0), ValueError,
         "genus and puncture counts must be >= 0, got (g=-1, p=0)"),
        (lambda: parse_word(S10, ""), ParseError, "empty word text; use '1' for the identity"),
        (lambda: parse_gen_word(""), ParseError,
         "empty generator word; use '1' for the identity"),
        (lambda: parse_gen_word("a1 q1"), ParseError, "bad generator token 'q1'"),
        (lambda: parse_letter("z"), ParseError, "bad letter token 'z'"),
        (lambda: GenName("q", 1), IndexOutOfRange, "bad generator name q1"),
        (lambda: GenWord(((GenName("a", 1), 2),)), ValueError,
         "token exponent must be +-1, got 2"),
        (lambda: gen_set(S10, "x"), ValueError, "variant must be 'adl' or 'adlh', got 'x'"),
    ],
    ids=["signature", "word-text", "gen-word-text", "gen-token", "letter", "gen-name",
         "exponent", "variant"],
)
def test_public_constructor_rejects(build, error, says):
    # the whole message, so a changed text shows here
    with pytest.raises(error, match=f"^{re.escape(says)}$"):
        build()
