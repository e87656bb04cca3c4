import contextlib
import dataclasses
import io
import json
import os
import pathlib
import runpy
import subprocess
import sys
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfaut import (
    Automorphism,
    GenName,
    GenWord,
    Signature,
    Word,
    cli,
    compose,
    eval_gen_word,
    factorize,
    factorize_audit,
    generator,
    groupoid,
    parse_gen_word,
)
from surfaut.endo import Endomorphism, _aut, letter_move
from surfaut.cli import run
from surfaut.errors import CosetViolation, ImageEscapes, ReductionStuck
from surfaut.selftest import GRID


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


class TestIsZieschang:
    def test_relator_true(self):
        code, out, _ = invoke(["is-zieschang", "--sig", "1,0", "--word", "x1' y1' x1 y1"])
        assert code == 0 and out.strip() == "true"

    def test_cycle_false(self):
        code, out, _ = invoke(
            ["is-zieschang", "--sig", "1,1", "--word", "x1 y1 t1 y1' x1'"]
        )
        assert code == 1 and out.strip() == "false"

    def test_bad_word_is_usage_error(self):
        code, _, err = invoke(["is-zieschang", "--sig", "1,0", "--word", "q9"])
        assert code == 2 and "error" in err


class TestEval:
    def test_display_identity(self):
        code, out, _ = invoke(
            ["eval", "--sig", "3,0", "--genword", "b1 a1", "--apply", "x1' y1' x1"]
        )
        assert code == 0 and out.strip() == "x1'"

    def test_prints_automorphism(self):
        code, out, _ = invoke(["eval", "--sig", "1,0", "--genword", "a1"])
        assert code == 0 and "x1 -> y1' x1" in out

    def test_bad_generator_for_signature(self):
        code, _, _ = invoke(["eval", "--sig", "1,0", "--genword", "s2"])
        assert code == 2

    @pytest.mark.parametrize(
        "sig, genword, err",
        [
            ("1,0", "a1 s2 g3 s2 b1", "error: s2 is not a generator name for (g=1, p=0)\n"),
            ("2,0", "g2 a3 g9", "error: a3 is not a generator name for (g=2, p=0)\n"),
            ("1,0", "a1 a0", "error: bad generator token 'a0'\n"),
        ],
    )
    def test_first_bad_name_raises(self, sig, genword, err):
        assert invoke(["eval", "--sig", sig, "--genword", genword]) == (2, "", err)

    def test_validates_each_distinct_name_once(self, monkeypatch):
        # the names validated before the fold, which validates them again
        seen, before_fold = [], []
        real, fold = GenName.validate, cli._eval_fwd
        monkeypatch.setattr(GenName, "validate", lambda n, sig: seen.append(n) or real(n, sig))
        monkeypatch.setattr(cli, "_eval_fwd", lambda w, sig: before_fold.extend(seen) or fold(w, sig))
        code, _, _ = invoke(["eval", "--sig", "2,0", "--genword", "b2 a1 b2' g2 a1 b2 a1'"])
        assert code == 0
        assert before_fold == [GenName("b", 2), GenName("a", 1), GenName("g", 2)]


class TestFormattedOnce:
    """Each command formats its output once, and ``--json`` carries the same
    text as the plain output."""

    AUT = "x1 -> y1' x1"

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["certify", "--sig", "1,0", "--aut", AUT], "inverse"),
            (["eval", "--sig", "1,0", "--genword", "a1 b1'"], "automorphism"),
            (["canon", "--sig", "1,1", "--word", "t1 x1 y1 x1' y1'"], "automorphism"),
        ],
        ids=["certify", "eval", "canon"],
    )
    def test_format_endomorphism_once(self, argv, field, monkeypatch):
        calls = []
        real = cli.format_endomorphism
        monkeypatch.setattr(cli, "format_endomorphism", lambda e: calls.append(e) or real(e))
        code, text, _ = invoke(argv)
        assert code == 0 and len(calls) == 1
        code, out, _ = invoke(["--json", *argv])
        assert code == 0 and len(calls) == 2
        assert text.startswith(json.loads(out)[field])

    def test_factorize_prints_its_word_once(self, monkeypatch):
        calls = []
        real = GenWord.__str__
        monkeypatch.setattr(GenWord, "__str__", lambda w: calls.append(w) or real(w))
        argv = ["factorize", "--sig", "1,0", "--aut", self.AUT]
        code, text, _ = invoke(argv)
        assert (code, text, len(calls)) == (0, "a1\n", 1)
        code, out, _ = invoke(["--json", *argv])
        assert (code, len(calls)) == (0, 2)
        assert json.loads(out)["genword"] == "a1"


class TestVerify:
    def test_member(self):
        code, out, _ = invoke(
            ["verify", "--sig", "1,0", "--aut", "x1 -> y1' x1"]
        )
        assert code == 0 and "in_A: true" in out

    def test_non_member(self):
        code, out, _ = invoke(["verify", "--sig", "1,0", "--aut", "x1 -> x1 y1"])
        assert code == 1 and "fixes_relator: false" in out

    def test_letter_outside_signature_is_usage_error(self):
        code, _, err = invoke(["verify", "--sig", "1,0", "--aut", "t1 -> x1"])
        assert code == 2 and err.startswith("error:")

    def test_json_fields(self):
        code, out, _ = invoke(
            ["--json", "verify", "--sig", "1,0", "--aut", "x1 -> y1' x1"]
        )
        payload = json.loads(out)
        assert payload["command"] == "verify"
        assert payload["in_A"] is True and payload["permutes_t_classes"] == []


class TestCanonAndReduce:
    def test_canon(self):
        code, out, _ = invoke(
            ["canon", "--sig", "1,1", "--word", "t1 x1 y1 x1' y1'"]
        )
        assert code == 0
        assert "(iv k=1)" in out and "(vi k=1)" in out

    def test_canon_rejects_non_zieschang(self):
        code, _, err = invoke(["canon", "--sig", "1,1", "--word", "x1 y1 t1 y1' x1'"])
        assert code == 1 and "NotZieschang" in err

    def test_chain_line_fault_exits_3(self, monkeypatch):
        # step (vii) fires on this word; a line short of a vertex fails its guard
        real = groupoid._chain_line
        monkeypatch.setattr(groupoid, "_chain_line", lambda sig, codes: real(sig, codes)[1:])
        code, out, err = invoke(
            ["canon", "--sig", "2,0", "--word", "y2' y1' x2' x1 x2 y2 x1' y1"]
        )
        assert code == 3 and out == ""
        assert err == (
            "internal assertion: CosetViolation: chain line has 7 of 8 vertices\n"
        )

    def test_step_leaving_the_zieschang_words_exits_3(self, monkeypatch):
        # step (v) with its right factor not inverted lengthens the word: a
        # step keeps the length of its word, so the walk stops there
        real = groupoid._first_move

        def wrong_v(V):
            move = real(V)
            if move is None or move[1] != "v":
                return move
            aut, kind, level = move
            b = aut.fwd.moved_codes()[0]
            img = aut.fwd.images[b - 1].codes
            i = img.index(b)
            left, right = Word(V.sig, img[:i]), Word(V.sig, img[i + 1 :])
            return letter_move(V.sig, b, left, right.inverse()), kind, level

        monkeypatch.setattr(groupoid, "_first_move", wrong_v)
        start = time.perf_counter()
        code, out, err = invoke(
            ["canon", "--sig", "2,0", "--word", "y1' x2 y2' x1' y1 x1 x2' y2"]
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (
            "internal assertion: CosetViolation: canonical step (v, 1) left"
            " x1' x2 y2' y1' y2' y1' x1 y1 y1 y2 x2' y2\n"
        )

    def test_cycling_walk_exits_3(self, monkeypatch):
        # every step leads back to the word it left: the walk cycles, and its
        # step budget stops it, well under a second
        V = Word(Signature(1, 0), (2, 1, -2, -1))
        link = (Automorphism.identity(V.sig), groupoid.StepRecord("iv", 1, V, V))
        monkeypatch.setattr(groupoid, "_step", lambda W: link)
        start = time.perf_counter()
        code, out, err = invoke(["canon", "--sig", "1,0", "--word", "y1 x1 y1' x1'"])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        budget = groupoid._MAX_WALK_BASE + 20 * 4
        assert err == (
            f"internal assertion: ReductionStuck: canonical walk exceeds {budget} steps\n"
        )

    def test_missing_template_exits_3(self, monkeypatch):
        monkeypatch.setattr(groupoid, "_template_aut", lambda V, tag, k: None)
        argv = ["nielsen-reduce", "--sig", "1,0", "--aut", "x1 -> y1' x1"]
        code, out, err = invoke(argv)
        assert code == 3 and out == ""
        assert err == (
            "internal assertion: CosetViolation: no N2_right template at k=1"
            " for x1' y1' x1 y1\n"
        )

    def test_nielsen_reduce(self):
        code, out, _ = invoke(
            ["nielsen-reduce", "--sig", "1,0", "--aut", "x1 -> y1' x1"]
        )
        assert code == 0 and "N2_right k=1" in out and "(N1)" in out

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["plain", "json"])
    def test_equal_images_exit_1(self, flags):
        # x1 and y1 both go to x1 up to sign: the map is not injective, which
        # is a verdict on the input, as certify's "not an automorphism" is
        argv = [*flags, "nielsen-reduce", "--sig", "1,0", "--aut", "x1 -> x1'; y1 -> x1"]
        assert invoke(argv) == (
            1, "", "NotInA: input endomorphism is not an automorphism: "
            "basis images are not distinct\n")


class TestCertifyFactorize:
    def test_certify(self):
        code, out, _ = invoke(["certify", "--sig", "1,0", "--aut", "y1 -> x1 y1"])
        assert code == 0 and "y1 -> x1' y1" in out

    def test_certify_rejects(self):
        code, _, err = invoke(["certify", "--sig", "1,0", "--aut", "x1 -> x1 y1"])
        assert code == 1 and "HypothesisViolated" in err

    def test_certify_rejects_unpermuted_classes(self):
        # fixes the relator t1 t2, but t2 goes to no conjugate of a puncture letter
        argv = ["certify", "--sig", "0,2", "--aut", "t1 -> t1 t2; t2 -> t2 t1 t2' t1'"]
        code, out, err = invoke(argv)
        assert code == 1 and out == ""
        assert err == "HypothesisViolated: puncture classes are not permuted\n"

    @pytest.mark.parametrize("as_json", [False, True])
    def test_certify_stuck_reduction_exits_1(self, as_json, monkeypatch):
        # no known input gets stuck, so the reduction is made to
        def stuck(V, phi, W, suffixes):
            raise ReductionStuck("forced")

        monkeypatch.setattr(groupoid, "_reduce_from", stuck)
        argv = ["certify", "--sig", "1,0", "--aut", "y1 -> x1 y1"]
        code, out, err = invoke(["--json"] + argv if as_json else argv)
        assert code == 1 and err == ""
        if as_json:
            assert json.loads(out) == {"command": "certify", "certified": False}
        else:
            assert out == "not an automorphism\n"

    def test_factorize_stuck_reduction_exits_1(self, monkeypatch):
        # the same forced refusal: ``factorize`` takes its input for no
        # automorphism
        def stuck(V, phi, W, suffixes):
            raise ReductionStuck("forced")

        monkeypatch.setattr(groupoid, "_reduce_from", stuck)
        code, out, err = invoke(["factorize", "--sig", "1,0", "--aut", "y1 -> x1 y1"])
        assert (code, out) == (1, "")
        assert err == "NotInA: input endomorphism is not an automorphism\n"

    def test_certify_edges_missing_the_input_exit_3(self, monkeypatch):
        # an engine fault: the forward fold skips the edge applied last
        real = groupoid._fold_moves
        monkeypatch.setattr(
            groupoid, "_fold_moves", lambda sig, images, moves: real(sig, images, moves[1:])
        )
        code, out, err = invoke(["certify", "--sig", "1,0", "--aut", "y1 -> x1 y1"])
        assert (code, out) == (3, "")
        assert err == (
            "internal assertion: CosetViolation: Nielsen edges do not recompose the input\n"
        )

    def test_factorize(self, tmp_path):
        path = tmp_path / "sigma2.txt"
        path.write_text("sig g=0 p=2\nt2 -> t1\nt1 -> t1' t2 t1\n", encoding="utf-8")
        code, out, _ = invoke(["factorize", "--sig", "0,2", "--aut", str(path)])
        assert code == 0
        code2, out2, _ = invoke(
            ["eval", "--sig", "0,2", "--genword", out.strip(), "--apply", "t2"]
        )
        assert code2 == 0 and out2.strip() == "t1"

    @pytest.mark.parametrize("sig", GRID, ids=lambda s: f"{s.g},{s.p}")
    def test_identity_from_eval_reads_back_inline(self, sig):
        # eval prints the identity as its signature header alone
        arg = f"{sig.g},{sig.p}"
        code, aut, _ = invoke(["eval", "--sig", arg, "--genword", "1"])
        assert code == 0 and "->" not in aut
        code, out, err = invoke(["factorize", "--sig", arg, "--aut", aut])
        assert code == 0 and out == "1\n" and err == ""

    def test_factorize_adlh(self):
        # alpha_3 written only with ADLH names
        code, out, _ = invoke(
            ["factorize", "--sig", "3,0", "--adlh", "--aut", "x3 -> y3' x3"]
        )
        assert code == 0
        assert "a3" not in out.split()

    def test_deterministic(self):
        args = ["factorize", "--sig", "1,1", "--aut", "x1 -> y1' x1; y1 -> x1 y1"]
        assert invoke(args) == invoke(args)

    @pytest.mark.parametrize("kind", [CosetViolation, ImageEscapes, ReductionStuck])
    def test_internal_error_exits_3(self, kind, monkeypatch):
        def fail(aut):
            raise kind("forced")

        monkeypatch.setattr(cli, "factorize_adl", fail)
        code, out, err = invoke(["factorize", "--sig", "1,0", "--aut", "x1 -> y1' x1"])
        assert code == 3 and out == ""
        assert err == f"internal assertion: {kind.__name__}: forced\n"

    def test_non_nielsen_edge_exits_3(self, monkeypatch):
        # edges stripped of their kind, and a classifier that matches nothing
        real = factorize._reduce_from

        def unlabelled(V, endo, W, memo):
            edges, n1 = real(V, endo, W, memo)
            return [dataclasses.replace(e, kind=None) for e in edges], n1

        monkeypatch.setattr(factorize, "_reduce_from", unlabelled)
        monkeypatch.setattr(factorize, "classify_nielsen", lambda e: None)
        code, out, err = invoke(["factorize", "--sig", "1,0", "--aut", "x1 -> y1' x1"])
        assert code == 3 and out == ""
        assert err == "internal assertion: CosetViolation: edge is not a Nielsen edge\n"

    def test_edge_check_failure_exits_3(self, monkeypatch):
        # the case tables' edges see maps that permute no puncture classes,
        # so the class check of their constructor fails
        real = factorize._edge

        def unpermuting(source, aut, kind):
            with monkeypatch.context() as m:
                m.setattr(groupoid, "_t_class_permutation", lambda endo: None)
                return real(source, aut, kind)

        code, aut, _ = invoke(["eval", "--sig", "1,1", "--genword", "g1"])
        assert code == 0
        monkeypatch.setattr(factorize, "_edge", unpermuting)
        argv = ["factorize", "--sig", "1,1", "--aut", aut.strip().replace("\n", "; ")]
        code, out, err = invoke(argv)
        assert code == 3 and out == ""
        assert err == (
            "internal assertion: CosetViolation: edge automorphism does not permute"
            " the puncture classes\n"
        )


    def test_bad_edge_target_exits_3(self, monkeypatch):
        # case-table moves that drop their right factor carry a checked word
        # to one that is not Zieschang: an engine fault, not a rejected input.
        # An edge checks no target, and such a move of t1, t1 -> P' t1, sends
        # t1 to no conjugate, so the class check of its edge stops it
        real = factorize.letter_move

        def no_right_factor(sig, code, left, right):
            return real(sig, code, left, Word.identity(sig))

        code, aut, _ = invoke(["eval", "--sig", "1,1", "--genword", "g1"])
        assert code == 0
        monkeypatch.setattr(factorize, "letter_move", no_right_factor)
        code, out, err = invoke(["factorize", "--sig", "1,1", "--aut", aut])
        assert code == 3 and out == ""
        assert err == (
            "internal assertion: CosetViolation: edge automorphism does not permute"
            " the puncture classes\n"
        )

    def test_bracket_of_a_non_zieschang_end_exits_3(self, monkeypatch):
        # case-table moves of handle letters gain a right factor t1: they
        # permute the classes, but the pull edge of the left hexagon ends off
        # the Zieschang words, and ``canonical_edge`` refuses that end when
        # the edge is bracketed, as an engine fault
        real = factorize.letter_move

        def t1_appended(sig, code, left, right):
            if sig.is_t_code(code):
                return real(sig, code, left, right)
            return real(sig, code, left, right * Word(sig, (sig.t_code(1),)))

        code, aut, _ = invoke(["eval", "--sig", "1,1", "--genword", "g1"])
        assert code == 0
        monkeypatch.setattr(factorize, "letter_move", t1_appended)
        code, out, err = invoke(["factorize", "--sig", "1,1", "--aut", aut])
        assert code == 3 and out == ""
        assert err == (
            "internal assertion: CosetViolation: t1 x1' t1 y1' t1' x1 y1 is not Zieschang\n"
        )

    @pytest.mark.parametrize(
        "sig, genword", [("1,2", "g1"), ("1,2", "s2 a1 b1'"), ("0,3", "s3 s2")]
    )
    def test_stabiliser_moving_its_last_puncture_exits_3(self, sig, genword, monkeypatch):
        # the stabiliser of a loop is followed by s_p, so it fixes the relator
        # and permutes the classes but moves t_p: the recursion built it, so
        # the restriction that needs t_p fixed fails as an engine fault, not
        # as the rejected input it is for a caller of ``restrict_drop_tp``
        real = factorize.restrict_drop_tp

        def moving_tp(a):
            return real(compose(a, generator(GenName("s", a.sig.p), a.sig)))

        code, aut, _ = invoke(["eval", "--sig", sig, "--genword", genword])
        assert code == 0
        monkeypatch.setattr(factorize, "restrict_drop_tp", moving_tp)
        code, out, err = invoke(["factorize", "--sig", sig, "--aut", aut])
        p = sig.split(",")[1]
        assert (code, out) == (3, "")
        assert err == f"internal assertion: CosetViolation: t{p} is not fixed\n"

    @pytest.mark.parametrize("command", ["certify", "verify", "factorize", "nielsen-reduce"])
    def test_template_leaving_the_zieschang_words_exits_3(self, command, monkeypatch):
        # N3_left without its right factor, u -> c' u, sends t3 t2 t1 to t2 t1:
        # no template edge checks its target, and the reduction stuck at that
        # word checks it at its end, so the fault is no verdict on the input
        real = groupoid._template_move

        def no_right_factor(sig, tag, u, c):
            if tag != groupoid.N3_LEFT:
                return real(sig, tag, u, c)
            return letter_move(sig, u, Word(sig, (-c,)), Word.identity(sig))

        code, aut, _ = invoke(["eval", "--sig", "0,3", "--genword", "s3 s2"])
        assert code == 0
        monkeypatch.setattr(groupoid, "_template_move", no_right_factor)
        start = time.perf_counter()
        code, out, err = invoke([command, "--sig", "0,3", "--aut", aut])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (
            "internal assertion: CosetViolation: peak reduction left the Zieschang"
            " words at t2 t1\n"
        )

    @pytest.mark.parametrize("command", ["certify", "verify", "factorize"])
    @pytest.mark.parametrize("sig,genword", [("1,1", "g1 a1 b1'"), ("2,0", "b1 a1 g2 b2'"),
                                             ("2,1", "b2 g2 a1'")])
    def test_template_moving_nothing_exits_3(self, command, sig, genword, monkeypatch):
        # N2_right without its right factor is the identity, so the words stay
        # Zieschang; the reduction stops at a word that its carried map no
        # longer takes to the relator, which no faithful move can leave
        real = groupoid._template_move

        def no_right_factor(s, tag, u, c):
            if tag != groupoid.N2_RIGHT:
                return real(s, tag, u, c)
            return letter_move(s, u, Word.identity(s), Word.identity(s))

        code, aut, _ = invoke(["eval", "--sig", sig, "--genword", genword])
        assert code == 0
        monkeypatch.setattr(groupoid, "_template_move", no_right_factor)
        code, out, err = invoke([command, "--sig", sig, "--aut", aut])
        assert (code, out) == (3, "")
        assert err.startswith("internal assertion: CosetViolation: peak reduction carried ")

    def test_non_injective_stabiliser_exits_3(self, monkeypatch):
        # the stabiliser factored at (0,2) is swapped for a map that sends
        # both letters to t2: the recursion built it, so equal images there
        # are an engine fault, not the verdict they are for nielsen-reduce.
        # The map moves the relator, so the stuck reduction's carry check
        # reports it
        real = factorize._restricted

        def collapsed(stab):
            sig = real(stab).sig
            t2 = Word(sig, (sig.t_code(2),))
            return _aut(Endomorphism(sig, (t2, t2)), Endomorphism.identity(sig))

        code, aut, _ = invoke(["eval", "--sig", "0,3", "--genword", "s3 s2"])
        assert code == 0
        monkeypatch.setattr(factorize, "_restricted", collapsed)
        argv = ["factorize", "--sig", "0,3", "--aut", aut.strip().replace("\n", "; ")]
        code, out, err = invoke(argv)
        assert (code, out) == (3, "")
        assert err == (
            "internal assertion: CosetViolation: peak reduction carried t2 t1 to t2 t2,"
            " not to t2 t1\n"
        )

    def test_unpermuting_stabiliser_exits_3(self, monkeypatch):
        # the stabiliser factored at (0,2) is followed by t1 -> t1 t2, which
        # sends t1 to no conjugate of a puncture letter: the recursion built
        # it, so the reduction that cannot end at the relator is an engine
        # fault, not a rejected input; the stuck reduction's carry check
        # reports it
        real = factorize._restricted

        def unpermuting(stab):
            inner = real(stab)
            sig = inner.sig
            t2 = Word(sig, (sig.t_code(2),))
            return compose(inner, letter_move(sig, sig.t_code(1), Word.identity(sig), t2))

        code, aut, _ = invoke(["eval", "--sig", "0,3", "--genword", "s3 s2"])
        assert code == 0
        monkeypatch.setattr(factorize, "_restricted", unpermuting)
        argv = ["factorize", "--sig", "0,3", "--aut", aut.strip().replace("\n", "; ")]
        code, out, err = invoke(argv)
        assert (code, out) == (3, "")
        assert err == (
            "internal assertion: CosetViolation: peak reduction carried t1 t2 to t2 t1 t2,"
            " not to t2 t1\n"
        )


_AUDIT_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "factorize_audit.json").read_text(
        encoding="utf-8"
    )
)


def _audit_id(case):
    """The signature of the first case at that signature; later cases there
    add their input word."""
    first = next(c for c in _AUDIT_GOLDEN if c["sig"] == case["sig"])
    return case["sig"] if case is first else f"{case['sig']} {case['genword']}"


def _check_audit_golden(case, as_json, flags, field):
    code, aut, _ = invoke(["eval", "--sig", case["sig"], "--genword", case["genword"]])
    assert code == 0
    argv = ["factorize", "--sig", case["sig"], "--aut", aut, "--audit"] + flags
    code, out, err = invoke(["--json"] + argv if as_json else argv)
    assert code == 0 and err == ""
    assert out == case[field + ("json" if as_json else "text")]


@pytest.mark.parametrize("case", _AUDIT_GOLDEN, ids=_audit_id)
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_factorize_audit_golden(case, as_json):
    _check_audit_golden(case, as_json, [], "")


@pytest.mark.parametrize("case", _AUDIT_GOLDEN, ids=_audit_id)
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_factorize_adlh_audit_golden(case, as_json):
    _check_audit_golden(case, as_json, ["--adlh"], "adlh_")


@pytest.mark.parametrize("case", _AUDIT_GOLDEN, ids=_audit_id)
def test_factorize_audit_returns_the_printed_scripts(case):
    sig = Signature(*map(int, case["sig"].split(",")))
    scripts = factorize_audit(eval_gen_word(parse_gen_word(case["genword"]), sig))
    lines = [line for script in scripts for line in script.lines()]
    assert lines == json.loads(case["json"]).get("audit", [])


class TestWhitehead:
    def test_dot_to_stdout(self):
        code, out, _ = invoke(["whitehead", "--sig", "1,0", "--word", "x1' y1' x1 y1"])
        assert code == 0 and out.startswith("digraph whitehead")

    def test_dot_to_file(self, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, _ = invoke(
            ["whitehead", "--sig", "0,2", "--word", "t2 t1", "--dot", str(target)]
        )
        assert code == 0 and target.exists()
        assert "digraph" in target.read_text(encoding="utf-8")

    def test_non_candidate_word_exits_2(self):
        # a word whose letters are not the signature's candidate letters is
        # malformed input, with one error line and nothing on stdout
        code, out, err = invoke(["whitehead", "--sig", "1,0", "--word", "x1 x1"])
        assert code == 2 and out == ""
        assert err.startswith("error: not a candidate word") and err.count("\n") == 1


class TestUnusablePaths:
    """File errors and malformed signatures are malformed input: exit 2 with
    one ``error:`` line and no traceback."""

    @staticmethod
    def assert_usage_error(argv, says=""):
        code, out, err = invoke(argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert says in err

    def test_aut_directory(self, tmp_path):
        self.assert_usage_error(["verify", "--sig", "1,0", "--aut", str(tmp_path)])

    def test_aut_missing(self, tmp_path):
        missing = str(tmp_path / "absent.txt")
        self.assert_usage_error(
            ["certify", "--sig", "1,0", "--aut", missing],
            f"no such automorphism file: {missing}",
        )

    def test_aut_with_newline_is_inline(self):
        # not echoed back as a file name over two lines
        self.assert_usage_error(
            ["verify", "--sig", "1,0", "--aut", "foo\nbar"], "bad image line 'foo'"
        )

    @pytest.mark.parametrize(
        "aut,says",
        [
            ("sig q", "bad signature header 'sig q'"),
            ("sig g=1 p=0; x1 y1", "bad image line 'x1 y1'"),
            ("x1' -> y1", "image lines must use positive letters"),
            ("x2 -> y1", "x-index 2 out of range"),
            ("x1 -> y1; x1 -> y1", "duplicate image for 'x1'"),
        ],
        ids=["header", "no-arrow", "inverse-letter", "out-of-range", "duplicate"],
    )
    def test_bad_automorphism_text(self, aut, says):
        self.assert_usage_error(["verify", "--sig", "1,0", "--aut", aut], says)

    def test_argparse_error_goes_to_err(self, capsys):
        # "-1,2" reads as an option, so --sig has no value
        code, out, err = invoke(["verify", "--sig", "-1,2", "--aut", "x"])
        assert code == 2 and out == ""
        assert [ln for ln in err.splitlines() if "error:" in ln] == [
            "surfaut verify: error: argument --sig: expected one argument"
        ]
        assert capsys.readouterr().err == ""

    def test_aut_file_of_another_signature(self, tmp_path):
        path = tmp_path / "aut.txt"
        path.write_text("sig g=2 p=0\nx1 -> y1' x1\n", encoding="utf-8")
        self.assert_usage_error(
            ["verify", "--sig", "1,1", "--aut", str(path)], "does not match"
        )

    def test_bad_signature(self):
        self.assert_usage_error(
            ["verify", "--sig", "x,1", "--aut", "x1 -> x1"], "bad signature 'x,1'"
        )

    @pytest.mark.parametrize(
        "argv,says",
        [
            # "--sig -1,0" would read as an option
            (["verify", "--sig=-1,0", "--aut", "x1 -> x1"],
             "genus and puncture counts must be >= 0, got (g=-1, p=0)"),
            (["is-zieschang", "--sig", "1,0", "--word", ""],
             "empty word text; use '1' for the identity"),
            (["eval", "--sig", "1,0", "--genword", ""],
             "empty generator word; use '1' for the identity"),
            (["eval", "--sig", "1,0", "--genword", "a1 q1"], "bad generator token 'q1'"),
            (["canon", "--sig", "1,0", "--word", "x1 z"], "bad letter token 'z'"),
        ],
        ids=["signature", "word-text", "gen-word-text", "gen-token", "letter"],
    )
    def test_constructor_rejections(self, argv, says):
        # the CLI side of ``test_core.test_public_constructor_rejects``
        code, out, err = invoke(argv)
        assert (code, out, err) == (2, "", f"error: {says}\n")

    def test_aut_not_utf8(self, tmp_path):
        path = tmp_path / "aut.txt"
        path.write_bytes(b"sig g=1 p=0\nx1 -> y1\xff x1\n")
        self.assert_usage_error(["certify", "--sig", "1,0", "--aut", str(path)])

    def test_other_directory(self, tmp_path):
        self.assert_usage_error(
            ["outer-equal", "--sig", "1,0", "--aut", "x1 -> x1", "--other", str(tmp_path)]
        )

    @pytest.mark.parametrize("target", ["", "no/such/dir/x.dot"], ids=["dir", "no-dir"])
    def test_dot_unwritable(self, tmp_path, target):
        dot = str(tmp_path / target) if target else str(tmp_path)
        self.assert_usage_error(
            ["whitehead", "--sig", "0,2", "--word", "t2 t1", "--dot", dot]
        )


class TestOutputStreams:
    """Help text goes to ``run``'s ``out``; a standard output closed by its
    reader ends the run with exit 1, no message and no traceback."""

    def test_help_goes_to_out(self, capsys):
        for argv in (["--help"], ["factorize", "-h"]):
            code, out, err = invoke(argv)
            assert code == 0 and err == ""
            assert out.startswith("usage: surfaut")
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize(
        "argv",
        [["factorize", "--sig", "1,0", "--aut", "x1 -> y1' x1", "--adlh", "--audit"],
         ["--json", "verify", "--sig", "1,0", "--aut", "x1 -> y1' x1"],
         # argparse's own help printing would swallow the error
         ["--help"], ["factorize", "-h"]],
        ids=["factorize", "json", "help", "command-help"],
    )
    def test_closed_output_exits_quietly(self, argv):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        assert run(argv, Closed(), err) == 1
        assert err.getvalue() == ""

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_closed_pipe_in_a_process(self, buffered):
        # the read end is closed before the process starts, so its first
        # write to standard output fails: in ``_emit`` when unbuffered, in
        # the flush of ``main`` when buffered
        r, w = os.pipe()
        os.close(r)
        src = str(pathlib.Path(cli.__file__).parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = ["factorize", "--sig", "1,0", "--aut", "x1 -> y1' x1", "--audit"]
        try:
            proc = subprocess.run([sys.executable, "-m", "surfaut.cli", *argv],
                                  stdout=w, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(w)
        assert (proc.returncode, proc.stderr) == (1, b"")


class TestMain:
    """``cli.main`` in this process: its exit code, the closed-output branch
    with ``os`` replaced by spies, so that no real descriptor is touched,
    and the ``__main__`` guard."""

    ARGV = ["surfaut", "is-zieschang", "--sig", "1,0", "--word", "x1' y1' x1 y1"]

    def test_exit_code(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", self.ARGV)
        with pytest.raises(SystemExit) as info:
            cli.main()
        assert info.value.code == 0

    def test_writes_to_the_current_stdout(self, monkeypatch):
        # the streams are read at call time, not bound at import
        monkeypatch.setattr(sys, "argv", self.ARGV)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as info:
            cli.main()
        assert info.value.code == 0 and buf.getvalue() == "true\n"

    def test_failed_flush_exits_1(self, monkeypatch):
        calls = []

        class Closed(io.StringIO):
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return 99

        def spy_open(path, flags):
            calls.append(("open", path, flags))
            return 98

        fake_os = types.SimpleNamespace(
            devnull=os.devnull, O_WRONLY=os.O_WRONLY, open=spy_open,
            dup2=lambda fd, fd2: calls.append(("dup2", fd, fd2)),
        )
        monkeypatch.setattr(cli, "os", fake_os)
        monkeypatch.setattr(sys, "argv", self.ARGV)
        monkeypatch.setattr(sys, "stdout", Closed())
        with pytest.raises(SystemExit) as info:
            cli.main()
        assert info.value.code == 1
        assert calls == [("open", os.devnull, os.O_WRONLY), ("dup2", 98, 99)]

    def test_main_guard(self, monkeypatch, capsys):
        # run as a fresh module, as ``python -m surfaut.cli`` would
        monkeypatch.delitem(sys.modules, "surfaut.cli")
        monkeypatch.setattr(sys, "argv", self.ARGV)
        with pytest.raises(SystemExit) as info:
            runpy.run_module("surfaut.cli", run_name="__main__")
        assert info.value.code == 0
        assert capsys.readouterr().out == "true\n"


class TestOuterEqual:
    def test_equal_to_self(self):
        code, out, _ = invoke(
            ["outer-equal", "--sig", "1,0", "--aut", "y1 -> x1 y1", "--other", "y1 -> x1 y1"]
        )
        assert code == 0 and out.strip() == "1"

    def test_not_outer_equal(self):
        code, out, _ = invoke(
            ["outer-equal", "--sig", "1,0", "--aut", "x1 -> x1", "--other", "y1 -> x1 y1"]
        )
        assert code == 1 and out.strip() == "none"

    # conjugation by the relator against the identity
    RELATOR_CONJUGATION = [
        "outer-equal", "--sig", "1,0",
        "--aut", "x1 -> y1' x1' y1 x1 y1' x1 y1; y1 -> y1' x1' y1 x1 y1 x1' y1' x1 y1",
        "--other", "x1 -> x1",
    ]

    def test_conjugator_text(self):
        code, out, _ = invoke(self.RELATOR_CONJUGATION)
        assert code == 0 and out.strip() == "x1' y1' x1 y1"

    def test_conjugator_json(self):
        code, out, _ = invoke(["--json"] + self.RELATOR_CONJUGATION)
        assert code == 0 and out.strip() == (
            '{"command": "outer-equal", "conjugator": "x1\' y1\' x1 y1", "equal": true}'
        )


class TestSelftest:
    def test_tiny_run(self):
        code, out, _ = invoke(
            ["selftest", "--samples", "2", "--seed", "7", "--criteria", "4,6,9"]
        )
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 3 and all(ln.startswith("PASS") for ln in lines)

    def test_every_criterion_without_criteria(self):
        code, out, _ = invoke(["selftest", "--samples", "1", "--seed", "0"])
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 9 and all(ln.startswith("PASS") for ln in lines)

    def test_json_output(self):
        code, out, _ = invoke(
            ["--json", "selftest", "--samples", "1", "--seed", "7", "--criteria", "9"]
        )
        payload = json.loads(out)
        assert payload["command"] == "selftest"
        assert payload["results"][0]["ok"] is True

    def test_json_fields(self):
        code, out, _ = invoke(
            ["--json", "selftest", "--samples", "1", "--seed", "0", "--criteria", "2"]
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"command", "seed", "results"}
        assert (payload["command"], payload["seed"]) == ("selftest", 0)
        assert [r["index"] for r in payload["results"]] == [2]
        for r in payload["results"]:
            assert set(r) == {"index", "name", "ok", "detail", "seconds"}
            assert r["ok"] is True and isinstance(r["seconds"], float)

    def test_bad_criterion_index(self):
        code, _, err = invoke(["selftest", "--criteria", "42"])
        assert code == 2

    def test_non_integer_criterion_is_usage_error(self):
        code, _, err = invoke(["selftest", "--criteria", "1,x"])
        assert code == 2 and err.startswith("error:")

    def test_empty_criterion_list_is_usage_error(self):
        code, out, err = invoke(["selftest", "--samples", "1", "--criteria", ""])
        assert code == 2 and out == "" and err.startswith("error:")

    def test_repeated_criterion_is_usage_error(self):
        code, out, err = invoke(["selftest", "--samples", "1", "--criteria", "9,9"])
        assert code == 2 and out == ""
        assert err == "error: criterion 9 listed twice\n"

    @pytest.mark.parametrize("samples", ["-1", "0"])
    def test_samples_below_one_is_usage_error(self, samples):
        code, out, err = invoke(["selftest", "--samples", samples, "--criteria", "9"])
        assert code == 2 and out == "" and err.startswith("error:")


_VALUES = {
    "--sig": ["1,0", "0,2", "1,1", "0,3", "-1,2", "x,1", "1", ""],
    "--aut": ["x1 -> y1' x1", "y1 -> x1 y1", "t1 -> t2; t2 -> t1", "sig g=1 p=0",
              "sig q", "foo\nbar", "x1' -> y1", "x1 -> y1; x1 -> y1", "no/such/file"],
    "--word": ["x1' y1' x1 y1", "t2 t1", "t1 x1 y1 x1' y1'", "x1 x1", "q9", ""],
    "--genword": ["a1 b1'", "s2", "g1'", "1", "q", ""],
}
_VALUES["--other"] = _VALUES["--aut"]
_VALUES["--apply"] = _VALUES["--word"]
# selftest is left out: without --samples it runs at full scale
_COMMANDS = ["verify", "is-zieschang", "whitehead", "canon", "nielsen-reduce",
             "certify", "factorize", "eval", "outer-equal", "bogus"]
_ARGV = st.builds(
    lambda head, cmd, opts, tail: head + [cmd] + [t for opt in opts for t in opt] + tail,
    st.sampled_from([[], ["--json"]]),
    st.sampled_from(_COMMANDS),
    st.lists(
        st.sampled_from(sorted(_VALUES)).flatmap(
            lambda flag: st.tuples(st.just(flag), st.sampled_from(_VALUES[flag]))
        ),
        max_size=4,
    ),
    st.lists(st.sampled_from(["--adlh", "--audit", "--json", "--sig", "-x", "extra"]),
             max_size=2),
)


@settings(max_examples=150, deadline=None)
@given(_ARGV)
def test_exit_code_contract(argv):
    # every argv ends in an exit code of 0-3 with no traceback, and a usage
    # error writes one error line
    code, out, err = invoke(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out + err
    if code == 2:
        assert len([ln for ln in err.splitlines() if "error:" in ln]) == 1
