import json
import pathlib

import pytest

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
from surfaut import gens
from surfaut.errors import CosetViolation
from surfaut.gens import HUMPHRIES_CHAIN, parse_gen_word

S10 = Signature(1, 0)
S30 = Signature(3, 0)

_GENERATOR_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "canon_outputs.json").read_text(
        encoding="utf-8"
    )
)["generators"]


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


class TestEta:
    def test_carries_conjugated_y_to_y3(self):
        assert apply(eta(), parse_word(S30, "x1' y1' x1")) == parse_word(S30, "y3")

    def test_intertwines_alpha1_alpha3(self):
        a1 = generator(GenName("a", 1), S30)
        a3 = generator(GenName("a", 3), S30)
        assert compose(a1, eta()).fwd == compose(eta(), a3).fwd

    def test_in_A(self):
        assert membership(eta()).in_A


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
