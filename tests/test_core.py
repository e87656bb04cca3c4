import copy
import pickle
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from surfaut import (
    Automorphism,
    Endomorphism,
    GenName,
    GenWord,
    GroupRingElement,
    GroupoidEdge,
    IndexOutOfRange,
    Letter,
    NotZieschang,
    ParseError,
    Signature,
    Word,
    commutator,
    compose,
    conjugate,
    enumerate_nielsen_from,
    eval_gen_word,
    fox_derivative,
    free_reduce,
    gen_set,
    invert,
    multiply,
    parse_gen_word,
    parse_word,
    relator,
)
from surfaut import core
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


#: Every signature with 2g + p <= 12.
TABLE_SIGS = [Signature(g, p) for g in range(7) for p in range(13 - 2 * g)]


class TestLetterTables:
    """Words print and parse through the per-signature tables
    ``core._letter_names`` and ``core._letter_codes``; ``Letter`` is their
    reference, and a token outside them takes the reference parse."""

    @pytest.mark.parametrize("sig", TABLE_SIGS, ids=str)
    def test_every_signed_letter_matches_the_reference(self, sig):
        names, codes = core._letter_names(sig), core._letter_codes(sig)
        assert len(names) == 2 * sig.rank + 1 and len(codes) == 2 * sig.rank
        for c in range(-sig.rank, sig.rank + 1):
            if c:
                name = str(Letter.from_code(sig, c))
                assert names[c] == core.letter_str(sig, c) == name
                assert codes[name] == c

    def test_seeded_words_round_trip(self, rng):
        unreduced = 0
        for _ in range(300):
            sig = Signature(rng.randint(0, 5), rng.randint(0, 6))
            letters = [c for c in range(-sig.rank, sig.rank + 1) if c]
            raw = [rng.choice(letters) for _ in range(rng.randint(0, 30) if letters else 0)]
            u = Word(sig, tuple(raw))
            assert parse_word(sig, str(u)) == u
            # the text of the unreduced codes parses to their reduced word
            text = " ".join(str(Letter.from_code(sig, c)) for c in raw) or "1"
            assert parse_word(sig, text) == u
            unreduced += len(u) < len(raw)
        assert unreduced > 100

    @pytest.mark.parametrize(
        "sig, text, message",
        [
            (Signature(1, 1), "x0", "bad letter token 'x0'"),
            (Signature(1, 1), "x01", "bad letter token 'x01'"),
            (Signature(1, 1), "z1", "bad letter token 'z1'"),
            (Signature(1, 0), "t1", "t-index 1 out of range for (g=1, p=0)"),
            (Signature(2, 0), "x3", "x-index 3 out of range for (g=2, p=0)"),
            (Signature(1, 1), "x1 1 y1", "bad letter token '1'"),
            # every token is read before any is placed: a malformed token
            # raises before an earlier one out of range
            (Signature(1, 1), "x1 x3 q1", "bad letter token 'q1'"),
        ],
    )
    def test_parse_error_texts(self, sig, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_word(sig, text)

    @pytest.mark.parametrize("sig", [Signature(0, 0), Signature(1, 1), Signature(2, 3)], ids=str)
    def test_letter_str_range_error(self, sig):
        for code in (0, sig.rank + 1, -sig.rank - 1):
            message = f"letter code {code} out of range for {sig}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                core.letter_str(sig, code)

    def test_long_word_builds_each_table_once(self, monkeypatch):
        sig = Signature(2, 3)
        calls = []
        real = Letter.from_code
        monkeypatch.setattr(
            Letter, "from_code", staticmethod(lambda s, c: calls.append(c) or real(s, c)))
        # every signed letter; neighbours differ in letter, so nothing cancels
        u = Word(sig, tuple((k % 7 + 1) * (-1) ** (k // 7) for k in range(10_000)))
        assert len(u) == 10_000
        assert parse_word(sig, str(u)) == u
        assert str(parse_word(sig, str(u.inverse()))) == str(u.inverse())
        assert len(calls) <= sig.rank


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


class TestSignatureValue:
    """``Signature`` is a named tuple: equality, hashing and ordering are
    those of the pair (g, p), run by ``tuple`` itself."""

    def test_tuple_methods(self):
        assert Signature.__eq__ is tuple.__eq__
        assert Signature.__hash__ is tuple.__hash__
        assert Signature.__lt__ is tuple.__lt__

    @pytest.mark.parametrize("sig", SMALL_SIGS)
    def test_hash_is_the_pair_hash(self, sig):
        assert hash(sig) == hash((sig.g, sig.p))

    def test_sorted_by_genus_then_punctures(self):
        sigs = [Signature(2, 0), Signature(0, 3), Signature(1, 2), Signature(1, 0)]
        assert sorted(sigs) == [Signature(0, 3), Signature(1, 0), Signature(1, 2),
                                Signature(2, 0)]

    @pytest.mark.parametrize("clone", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_round_trip(self, clone):
        sig = clone(S12)
        assert type(sig) is Signature and sig == S12 and str(sig) == "(g=1, p=2)"

    def test_bool_count_equals_int_count(self):
        assert Signature(True, 0) == Signature(1, 0) == S10

    def test_equals_its_pair(self):
        assert Signature(1, 0) == (1, 0)

    @pytest.mark.parametrize("g,p", [(-1, 0), (0, -2), (-3, -1)])
    def test_negative_count_rejected(self, g, p):
        says = f"genus and puncture counts must be >= 0, got (g={g}, p={p})"
        with pytest.raises(ValueError, match=f"^{re.escape(says)}$"):
            Signature(g, p)

    @pytest.mark.parametrize("field", ["g", "p", "rank"])
    def test_fields_are_read_only(self, field):
        with pytest.raises(AttributeError):
            setattr(S10, field, 2)
        assert (S10.g, S10.p) == (1, 0)

    @pytest.mark.parametrize(
        "build,says",
        [
            (lambda: Signature._make((-1, 0)), "(g=-1, p=0)"),
            (lambda: Signature._make([0, -3]), "(g=0, p=-3)"),
            (lambda: Signature(1, 0)._replace(g=-2), "(g=-2, p=0)"),
            (lambda: S12._replace(p=-1), "(g=1, p=-1)"),
        ],
        ids=["make-g", "make-p", "replace-g", "replace-p"],
    )
    def test_make_and_replace_validate(self, build, says):
        says = f"genus and puncture counts must be >= 0, got {says}"
        with pytest.raises(ValueError, match=f"^{re.escape(says)}$"):
            build()

    def test_make_and_replace_build_signatures(self):
        for sig in (Signature._make((1, 2)), S10._replace(p=2)):
            assert type(sig) is Signature and sig == S12 and sig.rank == 4


def _stand_in(g, p):
    """A ``Signature`` value built by ``tuple.__new__``, behind ``__new__``'s
    back, so that only the route under test can cover its rank."""
    return tuple.__new__(Signature, (g, p))


class TestNegationTable:
    """``core._NEG`` holds -c for every code c of every signature made, one
    object per value; a route that skipped ``Signature.__new__`` would leave
    a large rank uncovered, and a list read past its range wraps round."""

    @pytest.mark.parametrize(
        "route",
        [
            lambda g, p: Signature._make((g, p)),
            lambda g, p: Signature(0, 0)._replace(g=g, p=p),
            lambda g, p: pickle.loads(pickle.dumps(_stand_in(g, p))),
            lambda g, p: copy.deepcopy(_stand_in(g, p)),
            Signature,
        ],
        ids=["make", "replace", "pickle", "deepcopy", "new"],
    )
    def test_every_route_covers_a_new_rank(self, route):
        before = core._NEG[:]
        top = len(before) // 2
        sig = route(150, top + 100)  # larger than any signature made so far
        assert type(sig) is Signature and sig.rank == top + 400
        assert len(core._NEG) == 2 * sig.rank + 1
        assert all(core._NEG[c] == -c for c in range(-sig.rank, sig.rank + 1))
        # growing keeps the objects already handed out
        assert all(core._NEG[c] is before[c] for c in range(-top, top + 1))

    def test_one_object_per_value(self):
        assert len({id(c) for c in core._NEG}) == len(core._NEG)

    def test_smaller_signature_leaves_the_table(self):
        before = core._NEG[:]
        Signature(1, 0)
        assert len(core._NEG) == len(before)
        assert all(a is b for a, b in zip(core._NEG, before))

    def test_inverse_round_trips_at_a_large_rank(self):
        sig = Signature(150, 100)
        codes = tuple(int(str(c)) for c in (5, -400, 7, 399, -6, -300, 100, -101))
        w = Word(sig, codes)
        inv = w.inverse()
        assert inv.codes == (101, -100, 300, 6, -399, -7, 400, -5)
        assert inv.inverse() == w and (w * inv).codes == ()
        assert all(c is core._NEG[-c] for c in inv.codes)


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
        (lambda: S10.y_code(2), ValueError, "y-index 2 out of range for (g=1, p=0)"),
        (lambda: Letter("z", 1, 1), ValueError, "bad letter kind 'z'"),
        (lambda: Letter("x", 1, 2), ValueError, "bad letter Letter(kind='x', index=1, sign=2)"),
        (lambda: compose(), ValueError, "compose needs at least one map"),
        (lambda: compose(Endomorphism.identity(S10), Endomorphism.identity(S12)),
         SignatureMismatch, "(g=1, p=2) vs (g=1, p=0)"),
        (lambda: GroupoidEdge(w(S10, "x1"), w(S10, "x1"), Automorphism.identity(S10)),
         NotZieschang, "edge source x1 is not Zieschang"),
        (lambda: enumerate_nielsen_from(w(S10, "x1")), NotZieschang, "x1 is not Zieschang"),
    ],
    ids=["signature", "word-text", "gen-word-text", "gen-token", "letter", "gen-name",
         "exponent", "variant", "y-index", "letter-kind", "letter-sign", "compose-nothing",
         "compose-mixed", "edge-source", "nielsen-source"],
)
def test_public_constructor_rejects(build, error, says):
    # the whole message, so a changed text shows here
    with pytest.raises(error, match=f"^{re.escape(says)}$"):
        build()


@pytest.mark.parametrize(
    "value,text",
    [
        (lambda a: a, "sig g=1 p=0\nx1 -> y1' x1\n"),
        (lambda a: a.fwd, "sig g=1 p=0\nx1 -> y1' x1\n"),
        (lambda a: a.inverse(), "sig g=1 p=0\nx1 -> y1 x1\n"),
    ],
    ids=["automorphism", "endomorphism", "inverse"],
)
def test_str_is_the_forward_map_text(value, text):
    # an automorphism prints as its forward map, the text ``parse_endomorphism`` reads
    assert str(value(eval_gen_word(parse_gen_word("a1"), S10))) == text
