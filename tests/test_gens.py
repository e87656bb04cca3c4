import copy
import io
import json
import pathlib
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfaut import (
    GenName,
    GenWord,
    IndexOutOfRange,
    ParseError,
    Signature,
    apply,
    compose,
    eta,
    eval_gen_word,
    format_endomorphism,
    gen_set,
    generator,
    humphries_rewrite,
    membership,
    parse_word,
    relator,
    zeta_lift,
)
from surfaut import core, gens
from surfaut.cli import run
from surfaut.errors import CosetViolation
from surfaut.gens import HUMPHRIES_CHAIN, _eval_fwd, _splice, parse_gen_word
from surfaut.selftest import GRID, random_gen_word

S10 = Signature(1, 0)
S30 = Signature(3, 0)

_GENERATOR_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "canon_outputs.json").read_text(
        encoding="utf-8"
    )
)["generators"]


class TestGenNameValue:
    """``GenName`` is a named tuple: equality and hashing are those of the
    pair (family, index), run by ``tuple`` itself."""

    def test_tuple_methods(self):
        assert GenName.__eq__ is tuple.__eq__
        assert GenName.__hash__ is tuple.__hash__

    @pytest.mark.parametrize("name", [GenName(f, i) for f in "sabg" for i in (1, 2, 7)])
    def test_hash_is_the_pair_hash(self, name):
        assert hash(name) == hash((name.family, name.index))

    @pytest.mark.parametrize("clone", [lambda n: pickle.loads(pickle.dumps(n)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_round_trip(self, clone):
        name = clone(GenName("g", 3))
        assert type(name) is GenName and name == GenName("g", 3) and str(name) == "g3"

    def test_equals_its_pair(self):
        assert GenName("a", 1) == ("a", 1)

    @pytest.mark.parametrize("family,index", [("q", 1), ("a", 0), ("s", -2), ("x", 0)])
    def test_bad_name_rejected(self, family, index):
        says = f"bad generator name {family}{index}"
        with pytest.raises(IndexOutOfRange, match=f"^{re.escape(says)}$"):
            GenName(family, index)

    @pytest.mark.parametrize("field", ["family", "index"])
    def test_fields_are_read_only(self, field):
        name = GenName("b", 2)
        with pytest.raises(AttributeError):
            setattr(name, field, 1)
        assert (name.family, name.index) == ("b", 2)

    @pytest.mark.parametrize(
        "build,says",
        [
            (lambda: GenName._make(("q", 0)), "q0"),
            (lambda: GenName._make(["a", -1]), "a-1"),
            (lambda: GenName("a", 1)._replace(index=0), "a0"),
            (lambda: GenName("b", 2)._replace(family="x"), "x2"),
        ],
        ids=["make-family", "make-index", "replace-index", "replace-family"],
    )
    def test_make_and_replace_validate(self, build, says):
        says = f"bad generator name {says}"
        with pytest.raises(IndexOutOfRange, match=f"^{re.escape(says)}$"):
            build()

    def test_make_and_replace_build_names(self):
        for name in (GenName._make(("g", 3)), GenName("a", 3)._replace(family="g")):
            assert type(name) is GenName and name == GenName("g", 3)


class TestGeneratorImages:
    def test_alpha1(self):
        a = generator(GenName("a", 1), S10)
        assert a.fwd.images[0] == parse_word(S10, "y1' x1")
        assert a.fwd.images[1] == parse_word(S10, "y1")

    def test_gamma2_images(self):
        sig = Signature(2, 0)
        c = generator(GenName("g", 2), sig)
        w2 = "y1 x2' y2' x2"
        assert apply(c, parse_word(sig, "x1")) == parse_word(sig, f"x2' y2 x2 y1' x1")
        assert apply(c, parse_word(sig, "y1")) == parse_word(
            sig, f"x2' y2 x2 y1' y1 {w2}"
        )
        assert apply(c, parse_word(sig, "x2")) == parse_word(sig, f"x2 {w2}")
        assert apply(c, parse_word(sig, "y2")) == parse_word(sig, "y2")

    def test_sigma2_squared(self):
        sig = Signature(0, 2)
        s2 = generator(GenName("s", 2), sig)
        twice = compose(s2, s2)
        assert apply(twice, parse_word(sig, "t2")) == parse_word(sig, "t1' t2 t1")

    def test_gamma1_images(self):
        sig = Signature(1, 1)
        c = generator(GenName("g", 1), sig)
        w1 = parse_word(sig, "t1 x1' y1' x1")
        assert apply(c, parse_word(sig, "t1")) == w1.inverse() * parse_word(sig, "t1") * w1
        assert apply(c, parse_word(sig, "x1")) == parse_word(sig, "x1") * w1

    @pytest.mark.parametrize("sig", sorted({c["sig"] for c in _GENERATOR_GOLDEN}))
    def test_images_match_golden(self, sig):
        # captured before alpha_i and beta_i were built by letter_move
        s = Signature(*map(int, sig.split(",")))
        cases = [c for c in _GENERATOR_GOLDEN if c["sig"] == sig]
        names = gen_set(s, "adl")
        assert [c["name"] for c in cases] == [str(n) for n in names]
        for name, case in zip(names, cases):
            a = generator(name, s)
            assert format_endomorphism(a.fwd).splitlines() == case["fwd"]
            assert format_endomorphism(a.inv).splitlines() == case["inv"]

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            generator(GenName("a", 2), S10)
        with pytest.raises(IndexOutOfRange):
            generator(GenName("g", 1), S10)  # gamma_1 needs p >= 1
        with pytest.raises(IndexOutOfRange):
            generator(GenName("s", 2), S10)

    @pytest.mark.parametrize("sig", [S10, Signature(0, 3), Signature(1, 2), Signature(2, 1)])
    def test_all_generators_in_A(self, sig):
        for name in gen_set(sig, "adl"):
            rep = membership(generator(name, sig))
            assert rep.fixes_relator and rep.in_A, f"{name} at {sig}"


class TestGenSet:
    def test_genus_one_closed(self):
        assert [str(n) for n in gen_set(S10, "adl")] == ["a1", "b1"]

    def test_genus_three_adlh(self):
        assert [str(n) for n in gen_set(S30, "adlh")] == [
            "a1", "a2", "b1", "b2", "b3", "g2", "g3",
        ]

    def test_three_punctures(self):
        assert [str(n) for n in gen_set(Signature(0, 3), "adl")] == ["s2", "s3"]

    def test_variant_checked(self):
        with pytest.raises(ValueError):
            gen_set(S10, "adlhh")


class TestEvalGenWord:
    def test_empty(self):
        assert eval_gen_word(GenWord.empty(), S10).is_identity()

    def test_token_cancellation(self):
        assert parse_gen_word("a1 a1'") == GenWord.empty()

    def test_beta1_alpha1_display(self):
        a = eval_gen_word(parse_gen_word("b1 a1"), S30)
        assert apply(a, parse_word(S30, "x1' y1' x1")) == parse_word(S30, "x1'")

    def test_split_composition(self, rng):
        from surfaut.selftest import random_gen_word

        for sig in [S10, Signature(1, 1), Signature(2, 0)]:
            w = random_gen_word(sig, rng, 10)
            for cut in range(len(w.tokens) + 1):
                left, right = GenWord(w.tokens[:cut]), GenWord(w.tokens[cut:])
                assert (
                    compose(eval_gen_word(left, sig), eval_gen_word(right, sig)).fwd
                    == eval_gen_word(w, sig).fwd
                )

    def test_parse_round_trip(self):
        text = "s2 a1' b2 g3 g1'"
        assert str(parse_gen_word(text)) == text
        with pytest.raises(ParseError):
            parse_gen_word("q1")

    def test_seeded_words_round_trip(self, rng):
        unreduced = 0
        for _ in range(300):
            sig = Signature(rng.randint(1, 4), rng.randint(0, 5))
            raw = random_gen_word(sig, rng, 30).tokens
            # ``random_gen_word`` reduces; a token next to its inverse makes
            # text that is not
            at = rng.randrange(len(raw) + 1)
            name, exp = rng.choice(gen_set(sig)), rng.choice((1, -1))
            raw = raw[:at] + ((name, exp), (name, -exp)) + raw[at:]
            w = GenWord(raw)
            assert parse_gen_word(str(w)) == w
            text = " ".join(f"{n}{chr(39) if e < 0 else ''}" for n, e in raw)
            assert parse_gen_word(text) == w
            unreduced += len(w) < len(raw)
        assert unreduced == 300

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a0", "bad generator token 'a0'"),
            ("q1", "bad generator token 'q1'"),
            ("a1 b2' 1", "bad generator token '1'"),
        ],
    )
    def test_parse_error_texts(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_gen_word(text)


def _single_tokens():
    return [
        (sig, GenWord(((name, exp),)))
        for sig in GRID
        for name in gen_set(sig, "adl")
        for exp in (1, -1)
    ]


def _eval_output(sig, word, before=(), after=()):
    out, err = io.StringIO(), io.StringIO()
    argv = [*before, "eval", "--sig", f"{sig.g},{sig.p}", "--genword", str(word), *after]
    assert run(argv, out, err) == 0 and err.getvalue() == ""
    return out.getvalue()


class TestForwardFold:
    """``_eval_fwd`` is the forward half of ``eval_gen_word``, and the forward
    fold of the inverse word is its inverse half."""

    @staticmethod
    def check(w, sig):
        aut = eval_gen_word(w, sig)
        assert _eval_fwd(w, sig) == aut.fwd
        assert _eval_fwd(w.inverse(), sig) == aut.inv

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(GRID), st.integers(0, 2**32 - 1))
    def test_random_adl_words(self, sig, seed):
        self.check(random_gen_word(sig, random.Random(seed), 16), sig)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([S30, Signature(4, 0)]), st.integers(0, 2**32 - 1))
    def test_flat_adlh_words(self, sig, seed):
        w = _splice(random_gen_word(sig, random.Random(seed), 4), sig)
        assert not any(n.family == "a" and n.index >= 3 for n, _ in w.tokens)
        self.check(w, sig)

    def test_single_tokens_and_empty_word(self):
        for sig, w in _single_tokens():
            self.check(w, sig)
            name, exp = w.tokens[0]
            gen_aut = generator(name, sig)
            assert _eval_fwd(w, sig) == (gen_aut.fwd if exp > 0 else gen_aut.inv)
        for sig in GRID:
            self.check(GenWord.empty(), sig)
            assert _eval_fwd(GenWord.empty(), sig).is_identity()

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(GRID), st.integers(0, 2**32 - 1))
    def test_eval_output_is_the_witnessed_forward_map(self, sig, seed):
        # `surfaut eval` prints what the witnessed evaluator's forward map
        # formats to, in text and in JSON, and applies that map
        w = random_gen_word(sig, random.Random(seed), 12)
        text = format_endomorphism(eval_gen_word(w, sig).fwd)
        assert _eval_output(sig, w) == text
        payload = {"command": "eval", "automorphism": text}
        assert json.loads(_eval_output(sig, w, before=["--json"])) == payload
        probe = relator(sig)
        image = apply(eval_gen_word(w, sig), probe)
        assert _eval_output(sig, w, after=["--apply", str(probe)]) == f"{image}\n"

    def test_eval_output_on_flat_and_single_words(self):
        words = [(sig, w) for sig, w in _single_tokens()]
        words += [(sig, GenWord.empty()) for sig in GRID]
        words += [(S30, humphries_rewrite(3, S30))]
        words += [(Signature(4, 0), humphries_rewrite(4, Signature(4, 0)).inverse())]
        for sig, w in words:
            text = format_endomorphism(eval_gen_word(w, sig).fwd)
            assert _eval_output(sig, w) == text


class TestEta:
    def test_carries_conjugated_y_to_y3(self):
        assert apply(eta(), parse_word(S30, "x1' y1' x1")) == parse_word(S30, "y3")

    def test_intertwines_alpha1_alpha3(self):
        a1 = generator(GenName("a", 1), S30)
        a3 = generator(GenName("a", 3), S30)
        assert compose(a1, eta()).fwd == compose(eta(), a3).fwd

    def test_in_A(self):
        assert membership(eta()).in_A

    def test_failed_certification_is_caught(self, monkeypatch):
        # eta certifies its own map; a refusal is an engine fault
        from surfaut import groupoid

        monkeypatch.setattr(groupoid, "_certify", lambda fwd: None)
        with pytest.raises(CosetViolation, match="^eta failed certification$"):
            eta()

    def test_table_moving_the_relator_exits_3(self, monkeypatch):
        # eta's table is the engine's own, so a table that fails the relator
        # check is an engine fault, not a verdict on an input
        monkeypatch.setattr(gens, "commutator", lambda u, v: u * v)
        out, err = io.StringIO(), io.StringIO()
        assert run(["selftest", "--criteria", "3"], out, err) == 3
        assert (out.getvalue(), err.getvalue()) == ("", (
            "internal assertion: CosetViolation: "
            "edge automorphism does not carry source to target\n"))


class TestZetaLift:
    def test_genus_one_swap(self):
        z = zeta_lift(S10)
        assert apply(z, parse_word(S10, "x1")) == parse_word(S10, "y1")
        assert apply(z, parse_word(S10, "y1")) == parse_word(S10, "x1")

    def test_relator_reversal(self):
        z = zeta_lift(S10)
        assert apply(z, relator(S10)) == parse_word(S10, "y1' x1' y1 x1")

    @pytest.mark.parametrize("g,p", [(0, 2), (1, 1), (2, 0), (3, 2)])
    def test_involution(self, g, p):
        z = zeta_lift(Signature(g, p))
        assert compose(z, z).is_identity()


class TestHumphries:
    def test_base_word_shape(self):
        word = humphries_rewrite(3, S30)
        assert len(word.tokens) == 33
        chain = GenWord.of(*HUMPHRIES_CHAIN)
        assert word == chain.inverse() * GenWord.of(GenName("a", 1)) * chain

    def test_evaluates_to_alpha3(self):
        word = humphries_rewrite(3, S30)
        assert eval_gen_word(word, S30).fwd == generator(GenName("a", 3), S30).fwd

    def test_shifted_alpha4(self):
        sig = Signature(4, 0)
        word = humphries_rewrite(4, sig)
        assert eval_gen_word(word, sig).fwd == generator(GenName("a", 4), sig).fwd
        alphas = {n.index for n, _ in word.tokens if n.family == "a"}
        assert alphas <= {1, 2}

    def test_no_high_alphas(self):
        for g in (3, 4, 5):
            sig = Signature(g, 0)
            for i in range(3, g + 1):
                word = humphries_rewrite(i, sig)
                assert not any(n.family == "a" and n.index >= 3 for n, _ in word.tokens)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            humphries_rewrite(2, S30)
        with pytest.raises(IndexOutOfRange):
            humphries_rewrite(4, S30)

    def test_lengths_and_values_to_genus_8(self):
        # humphries_rewrite checks each value against generator(a_i) itself;
        # the flat evaluation here is the independent check, kept to i <= 5
        sig = Signature(8, 0)
        lengths = {3: 33, 4: 147, 5: 571, 6: 2153, 7: 8057, 8: 30091}
        for i, size in lengths.items():
            word = humphries_rewrite(i, sig)
            assert len(word) == size
            assert not any(n.family == "a" and n.index >= 3 for n, _ in word.tokens)
            if i <= 5:
                target = generator(GenName("a", i), sig).fwd
                assert eval_gen_word(word, sig).fwd == target

    def test_corrupted_chain_is_caught(self, monkeypatch):
        # the flat word stays alpha_(>=3)-free, so only the value check can fail
        bad = (GenName("b", 2),) + HUMPHRIES_CHAIN[1:]
        monkeypatch.setattr(gens, "HUMPHRIES_CHAIN", bad)
        with pytest.raises(CosetViolation, match="failed evaluation"):
            humphries_rewrite(3, S30)
        with pytest.raises(CosetViolation, match="failed evaluation"):
            humphries_rewrite(5, Signature(5, 0))


def reference_splice(w, sig):
    """``_splice`` as first written: every alpha_(>=3) token expanded in
    place, then the whole flat word reduced token by token by the checked
    constructor."""
    tokens = []
    for name, exp in w.tokens:
        if name.family == "a" and name.index >= 3:
            sub = humphries_rewrite(name.index, sig).tokens
            tokens.extend(sub if exp > 0 else [(n, -e) for n, e in reversed(sub)])
        else:
            tokens.append((name, exp))
    return GenWord(tuple(tokens))


def _flat(runs):
    return tuple(t for run in runs for t in run)


# two indices of three families: short random runs cancel often
_TOKENS = st.lists(
    st.tuples(
        st.builds(GenName, st.sampled_from("abg"), st.integers(1, 2)),
        st.sampled_from((1, -1)),
    ),
    max_size=6,
)


@st.composite
def reduced_runs(draw):
    """Reduced token runs; some start with the inverse of a suffix of the
    runs before them, so they cancel completely or cascade across several
    earlier runs."""
    runs = []
    for _ in range(draw(st.integers(0, 6))):
        head = []
        if runs and draw(st.booleans()):
            so_far = GenWord(_flat(runs)).tokens
            cut = draw(st.integers(0, len(so_far)))
            head = [(n, -e) for n, e in reversed(so_far[cut:])]
        runs.append(GenWord(tuple(head + draw(_TOKENS))).tokens)
    return runs


class TestSeamJoin:
    """The package builds its generator words from reduced token runs joined
    at their seams; that is the checked constructor's reduction of the
    concatenation."""

    @settings(max_examples=300, deadline=None)
    @given(reduced_runs())
    def test_join_is_the_checked_reduction(self, runs):
        assert gens._join(runs) == GenWord(_flat(runs)).tokens

    def test_complete_cancellation_and_cascades(self):
        def runs(*texts):
            return [parse_gen_word(t).tokens for t in texts]

        # a run that cancels completely, then one that cancels into the run
        # before it: the cascade crosses three seams
        assert str(GenWord(gens._join(runs("a1 b1 g2", "g2'", "b1'", "a1' b2")))) == "b2"
        assert gens._join(runs("a1 b2", "b2' a1'")) == ()
        assert gens._join(runs("1", "b1", "1")) == runs("b1")[0]
        assert gens._join([]) == ()

    @settings(max_examples=100, deadline=None)
    @given(reduced_runs())
    def test_products_inverses_and_shifts(self, runs):
        words = [gens._genword(run) for run in runs]
        product = GenWord.empty()
        for w in words:
            product = product * w
        assert product == GenWord(_flat(runs))
        for w in words:
            assert w.inverse() == GenWord(tuple((n, -e) for n, e in reversed(w.tokens)))
            assert w.shifted(2) == GenWord(tuple((n.shifted(2), e) for n, e in w.tokens))


_SPLICE_WORDS = [
    (S30, "b3 a3"),
    (S30, "a3 b3'"),
    (S30, "b3 a3' b3'"),
    (S30, "a3 a3"),
    (S30, "b3' a3' b3 a3 a3"),
    (Signature(4, 0), "b4 a4 b4'"),
    (Signature(4, 0), "b3 a3 a4' b4'"),
    (Signature(4, 0), "a4 a3' b4 a4'"),
    (Signature(5, 0), "b3 a3 b4 a4 b3' a3'"),
    (Signature(5, 0), "a4' b4' a4 a3 b3'"),
]


class TestSplice:
    """``_splice`` joins the runs between alpha_(>=3) tokens with the
    memoised rewrite runs at their seams."""

    @pytest.mark.parametrize("sig,text", _SPLICE_WORDS)
    def test_matches_token_by_token_reference(self, sig, text):
        w = parse_gen_word(text)
        spliced = _splice(w, sig)
        assert spliced == reference_splice(w, sig)
        assert not any(n.family == "a" and n.index >= 3 for n, _ in spliced.tokens)
        # each word cancels across a seam of the splice
        expanded = sum(
            len(humphries_rewrite(n.index, sig)) if n.family == "a" and n.index >= 3 else 1
            for n, _ in w.tokens
        )
        assert len(spliced) < expanded

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([S30, Signature(4, 0), Signature(5, 0)]),
        st.lists(
            st.tuples(
                st.sampled_from([GenName(f, i) for f in "abg" for i in (2, 3, 4)]),
                st.sampled_from((1, -1)),
            ),
            max_size=8,
        ),
    )
    def test_random_words_match_reference(self, sig, tokens):
        w = GenWord(tuple((n, e) for n, e in tokens if n.index <= sig.g))
        spliced = _splice(w, sig)
        assert spliced == reference_splice(w, sig)
        # a splice leaves no alpha_(>=3) token and keeps the value of its word
        assert not any(n.family == "a" and n.index >= 3 for n, _ in spliced.tokens)
        assert _eval_fwd(spliced, sig) == _eval_fwd(w, sig)

    def test_word_without_high_alpha_is_returned_as_is(self):
        w = parse_gen_word("b3 a2 g3' a1")
        assert _splice(w, S30) is w

    def test_rewrite_runs_are_memoised_for_both_signs(self):
        sig = Signature(4, 0)
        for i in (3, 4):
            word = humphries_rewrite(i, sig)
            assert gens._humphries_run(i, 1, sig) == word.tokens
            assert gens._humphries_run(i, -1, sig) == word.inverse().tokens
            assert gens._humphries_run(i, -1, sig) is gens._humphries_run(i, -1, sig)
        assert gens._humphries_run.cache_info().maxsize == core.MEMO_SIZE
