import dataclasses
import io
import json
import pathlib

import pytest

from surfaut import Word, cli, factorize, groupoid
from surfaut.cli import run
from surfaut.errors import CosetViolation, ImageEscapes, ReductionStuck
from surfaut.selftest import GRID
from surfaut.whitehead import ExtendedWhiteheadGraph


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
        # step (vii) fires on this word; a branching graph makes chain_line fail
        def branching(V, sig):
            return ExtendedWhiteheadGraph(sig, ((1, 2), (1, 3)), None, None)

        monkeypatch.setattr(groupoid, "build_graph", branching)
        code, out, err = invoke(
            ["canon", "--sig", "2,0", "--word", "y2' y1' x2' x1 x2 y2 x1' y1"]
        )
        assert code == 3 and out == ""
        assert err == (
            "internal assertion: CosetViolation: graph is not a union of simple chains\n"
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


class TestCertifyFactorize:
    def test_certify(self):
        code, out, _ = invoke(["certify", "--sig", "1,0", "--aut", "y1 -> x1 y1"])
        assert code == 0 and "y1 -> x1' y1" in out

    def test_certify_rejects(self):
        code, _, err = invoke(["certify", "--sig", "1,0", "--aut", "x1 -> x1 y1"])
        assert code == 1 and "HypothesisViolated" in err

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
        def fail(aut, audit=None):
            raise kind("forced")

        monkeypatch.setattr(cli, "factorize_adl", fail)
        code, out, err = invoke(["factorize", "--sig", "1,0", "--aut", "x1 -> y1' x1"])
        assert code == 3 and out == ""
        assert err == f"internal assertion: {kind.__name__}: forced\n"

    def test_non_nielsen_edge_exits_3(self, monkeypatch):
        # edges stripped of their kind, and a classifier that matches nothing
        real = factorize.nielsen_reduce

        def unlabelled(V, phi):
            edges, n1 = real(V, phi)
            return [dataclasses.replace(e, kind=None) for e in edges], n1

        monkeypatch.setattr(factorize, "nielsen_reduce", unlabelled)
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
        # to one that is not Zieschang: an engine fault, not a rejected input
        real = factorize.letter_move

        def no_right_factor(sig, code, left, right):
            return real(sig, code, left, Word.identity(sig))

        code, aut, _ = invoke(["eval", "--sig", "1,1", "--genword", "g1"])
        assert code == 0
        monkeypatch.setattr(factorize, "letter_move", no_right_factor)
        code, out, err = invoke(["factorize", "--sig", "1,1", "--aut", aut])
        assert code == 3 and out == ""
        assert err == (
            "internal assertion: CosetViolation: edge target t1 y1' x1 y1 is not"
            " Zieschang\n"
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


@pytest.mark.parametrize("case", _AUDIT_GOLDEN, ids=_audit_id)
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_factorize_audit_golden(case, as_json):
    code, aut, _ = invoke(["eval", "--sig", case["sig"], "--genword", case["genword"]])
    assert code == 0
    argv = ["factorize", "--sig", case["sig"], "--aut", aut, "--audit"]
    code, out, err = invoke(["--json"] + argv if as_json else argv)
    assert code == 0 and err == ""
    assert out == case["json" if as_json else "text"]


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


class TestSelftest:
    def test_tiny_run(self):
        code, out, _ = invoke(
            ["selftest", "--samples", "2", "--seed", "7", "--criteria", "4,6,9"]
        )
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 3 and all(ln.startswith("PASS") for ln in lines)

    def test_json_output(self):
        code, out, _ = invoke(
            ["--json", "selftest", "--samples", "1", "--seed", "7", "--criteria", "9"]
        )
        payload = json.loads(out)
        assert payload["command"] == "selftest"
        assert payload["results"][0]["ok"] is True

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
