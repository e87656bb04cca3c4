"""Command-line front end.

Exit codes: 0 for success or a true verdict, 1 for false verdicts and
failed mathematical preconditions, 2 for malformed input, 3 for internal
assertion failures (stuck reduction, coset violations).  A standard output
closed by its reader (``surfaut ... | head -1``) ends the run with exit 1
and no message.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from typing import Optional, TextIO

from . import selftest as st
from .core import Signature, parse_word, relator
from .endo import (
    Automorphism,
    Endomorphism,
    format_endomorphism,
    membership,
    outer_equal,
    parse_endomorphism,
)
from .errors import (
    CosetViolation,
    HypothesisViolated,
    ImageEscapes,
    IndexOutOfRange,
    NotACandidate,
    NotInA,
    NotInStabilizer,
    NotZieschang,
    ParseError,
    ReductionStuck,
    TargetTooLong,
)
from .factorize import factorize_adl, factorize_adlh
from .gens import _eval_fwd, parse_gen_word
from .groupoid import canonical_edge, certify_automorphism, nielsen_reduce
from .whitehead import build_graph, is_zieschang, to_dot

_VERDICT_ERRORS = (NotZieschang, HypothesisViolated, NotInStabilizer, NotInA, TargetTooLong)
_INTERNAL_ERRORS = (CosetViolation, ImageEscapes, ReductionStuck)


def _parse_sig(text: str) -> Signature:
    try:
        g_str, p_str = text.split(",")
        g, p = int(g_str), int(p_str)
    except ValueError as exc:
        raise ParseError(f"bad signature {text!r}; expected 'g,p'") from exc
    try:
        return Signature(g, p)
    except ValueError as exc:  # a negative count, in Signature's own words
        raise ParseError(str(exc)) from exc


def _load_endo(sig: Signature, arg: str) -> Endomorphism:
    """Accept an automorphism inline ('x1 -> y1' x1', lines separated by ';'
    or newlines, header optional; a lone header is the identity) or as a path
    to a file in the same format."""
    if "->" in arg or "\n" in arg or re.match(r"\s*sig\s", arg):
        text = arg.replace(";", "\n")
        if not text.lstrip().startswith("sig"):
            text = f"sig g={sig.g} p={sig.p}\n" + text
    else:
        if not os.path.exists(arg):
            raise ParseError(f"no such automorphism file: {arg}")
        try:
            with open(arg, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read automorphism file {arg}: {exc}") from exc
    endo = parse_endomorphism(text)
    if endo.sig != sig:
        raise ParseError(f"automorphism signature {endo.sig} does not match {sig}")
    return endo


def _certified(endo: Endomorphism) -> Automorphism:
    aut = certify_automorphism(endo)
    if aut is None:
        raise NotInA("input endomorphism is not an automorphism")
    return aut


def _emit(out: TextIO, as_json: bool, payload: dict, text: str) -> None:
    if as_json:
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        out.write(text)
        if not text.endswith("\n"):
            out.write("\n")


def _cmd_verify(args, out: TextIO) -> int:
    sig = _parse_sig(args.sig)
    endo = _load_endo(sig, args.aut)
    rep = membership(endo)
    perm = list(rep.permutes_t_classes.images) if rep.permutes_t_classes else None
    payload = {
        "command": "verify",
        "fixes_relator": rep.fixes_relator,
        "permutes_t_classes": perm,
        "in_A": rep.in_A,
    }
    text = (
        f"fixes_relator: {str(rep.fixes_relator).lower()}\n"
        f"permutes_t_classes: {perm if perm is not None else 'no'}\n"
        f"in_A: {str(rep.in_A).lower()}"
    )
    _emit(out, args.json, payload, text)
    return 0 if rep.in_A else 1


def _cmd_is_zieschang(args, out: TextIO) -> int:
    sig = _parse_sig(args.sig)
    word = parse_word(sig, args.word)
    verdict = is_zieschang(word, sig)
    _emit(
        out,
        args.json,
        {"command": "is-zieschang", "word": str(word), "zieschang": verdict},
        str(verdict).lower(),
    )
    return 0 if verdict else 1


def _cmd_whitehead(args, out: TextIO) -> int:
    sig = _parse_sig(args.sig)
    word = parse_word(sig, args.word)
    try:
        graph = build_graph(word, sig)
    except NotACandidate as exc:
        raise ParseError(f"not a candidate word: {exc}") from exc
    dot = to_dot(graph)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(dot)
        except OSError as exc:
            raise ParseError(f"cannot write {args.dot}: {exc}") from exc
        _emit(
            out,
            args.json,
            {"command": "whitehead", "dot_file": args.dot, "forest": graph.is_forest()},
            f"wrote {args.dot}",
        )
    else:
        _emit(
            out,
            args.json,
            {"command": "whitehead", "dot": dot, "forest": graph.is_forest()},
            dot,
        )
    return 0


def _cmd_canon(args, out: TextIO) -> int:
    sig = _parse_sig(args.sig)
    word = parse_word(sig, args.word)
    phi, steps = canonical_edge(word)
    log = [str(s) for s in steps]
    payload = {
        "command": "canon",
        "automorphism": format_endomorphism(phi.fwd),
        "steps": log,
    }
    text = format_endomorphism(phi.fwd) + "".join(line + "\n" for line in log)
    _emit(out, args.json, payload, text)
    return 0


def _cmd_nielsen_reduce(args, out: TextIO) -> int:
    sig = _parse_sig(args.sig)
    word = parse_word(sig, args.word) if args.word else relator(sig)
    endo = _load_endo(sig, args.aut)
    edges, n1 = nielsen_reduce(word, endo)
    lines = [f"({e.kind}) {e.source} => {e.target}" for e in edges]
    lines.append(f"({n1.kind}) {n1.source} => {n1.target}")
    payload = {"command": "nielsen-reduce", "moves": lines, "edge_count": len(edges)}
    _emit(out, args.json, payload, "\n".join(lines))
    return 0


def _cmd_certify(args, out: TextIO) -> int:
    sig = _parse_sig(args.sig)
    endo = _load_endo(sig, args.aut)
    aut = certify_automorphism(endo)
    if aut is None:
        _emit(
            out,
            args.json,
            {"command": "certify", "certified": False},
            "not an automorphism",
        )
        return 1
    payload = {
        "command": "certify",
        "certified": True,
        "inverse": format_endomorphism(aut.inv),
    }
    _emit(out, args.json, payload, format_endomorphism(aut.inv))
    return 0


def _cmd_factorize(args, out: TextIO) -> int:
    sig = _parse_sig(args.sig)
    endo = _load_endo(sig, args.aut)
    aut = _certified(endo)
    audit: Optional[list] = [] if args.audit else None
    word = factorize_adlh(aut, audit) if args.adlh else factorize_adl(aut, audit)
    payload = {"command": "factorize", "genword": str(word), "tokens": len(word.tokens)}
    text = str(word)
    if audit:
        script_lines = [line for script in audit for line in script.lines()]
        payload["audit"] = script_lines
        text += "\n" + "\n".join(script_lines)
    _emit(out, args.json, payload, text)
    return 0


def _cmd_eval(args, out: TextIO) -> int:
    sig = _parse_sig(args.sig)
    word = parse_gen_word(args.genword)
    for name, _ in word.tokens:
        name.validate(sig)
    fwd = _eval_fwd(word, sig)
    if args.apply:
        image = fwd.apply(parse_word(sig, args.apply))
        _emit(out, args.json, {"command": "eval", "image": str(image)}, str(image))
        return 0
    payload = {"command": "eval", "automorphism": format_endomorphism(fwd)}
    _emit(out, args.json, payload, format_endomorphism(fwd))
    return 0


def _cmd_outer_equal(args, out: TextIO) -> int:
    sig = _parse_sig(args.sig)
    a = _certified(_load_endo(sig, args.aut))
    b = _certified(_load_endo(sig, args.other))
    conj = outer_equal(a, b)
    if conj is None:
        _emit(out, args.json, {"command": "outer-equal", "equal": False}, "none")
        return 1
    _emit(
        out,
        args.json,
        {"command": "outer-equal", "equal": True, "conjugator": str(conj)},
        str(conj),
    )
    return 0


def _cmd_selftest(args, out: TextIO) -> int:
    indices = None
    if args.criteria is not None:
        try:
            indices = [int(tok) for tok in args.criteria.split(",")]
        except ValueError as exc:
            raise ParseError(f"bad criterion list {args.criteria!r}") from exc
        for n, i in enumerate(indices):
            if not 1 <= i <= len(st.CRITERIA):
                raise ParseError(f"criterion index {i} out of range")
            if i in indices[:n]:
                raise ParseError(f"criterion {i} listed twice")
    if args.samples is not None and args.samples < 1:
        raise ParseError(f"--samples must be at least 1, got {args.samples}")
    results = st.run_all(args.seed, args.samples, indices)
    if args.json:
        payload = {
            "command": "selftest",
            "seed": args.seed,
            "results": [
                {
                    "index": r.index,
                    "name": r.name,
                    "ok": r.ok,
                    "detail": r.detail,
                    "seconds": round(r.seconds, 2),
                }
                for r in results
            ],
        }
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        for r in results:
            out.write(r.line() + "\n")
    return 0 if all(r.ok for r in results) else 1


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own print_help swallows OSError, so help written to a
        # closed output would end the run with 0
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="surfaut",
        description="Exact computation with surface-relator-stabilizing "
        "free-group automorphisms.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON reports")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--sig", required=name != "selftest", help="signature 'g,p'")
        return sp

    p = add("verify", _cmd_verify, help="membership report for a basis-image map")
    p.add_argument("--aut", required=True, help="automorphism file or inline text")

    p = add("is-zieschang", _cmd_is_zieschang, help="test the Zieschang property")
    p.add_argument("--word", required=True)

    p = add("whitehead", _cmd_whitehead, help="extended Whitehead graph as DOT")
    p.add_argument("--word", required=True)
    p.add_argument("--dot", help="output file (stdout when omitted)")

    p = add("canon", _cmd_canon, help="canonical edge and its step log")
    p.add_argument("--word", required=True)

    p = add("nielsen-reduce", _cmd_nielsen_reduce, help="peak-reduce an edge")
    p.add_argument("--word", help="source word (default: the relator)")
    p.add_argument("--aut", required=True)

    p = add("certify", _cmd_certify, help="certify an endomorphism, print the inverse")
    p.add_argument("--aut", required=True)

    p = add("factorize", _cmd_factorize, help="factor into ADL/ADLH generators")
    p.add_argument("--aut", required=True)
    p.add_argument("--adlh", action="store_true", help="rewrite alpha_(>=3) away")
    p.add_argument("--audit", action="store_true", help="print the cascade scripts")

    p = add("eval", _cmd_eval, help="evaluate a generator word")
    p.add_argument("--genword", required=True)
    p.add_argument("--apply", help="apply the result to this word")

    p = add("outer-equal", _cmd_outer_equal, help="simultaneous conjugacy test")
    p.add_argument("--aut", required=True)
    p.add_argument("--other", required=True)

    p = sub.add_parser("selftest", help="run the seeded acceptance suite")
    p.set_defaults(fn=_cmd_selftest)
    p.add_argument("--samples", type=int, default=None,
                   help="per-signature sample count (default: full scale)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--criteria", help="comma-separated criterion indices")

    return parser


#: Exit code of a run whose standard output was closed by its reader.
_CLOSED_OUTPUT = 1


def run(argv: list[str], out: TextIO = sys.stdout, err: TextIO = sys.stderr) -> int:
    parser = build_parser()
    try:
        # --help goes to ``out``, usage errors to ``err``
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except BrokenPipeError:
        return _CLOSED_OUTPUT
    try:
        return args.fn(args, out)
    except BrokenPipeError:
        return _CLOSED_OUTPUT
    except (ParseError, IndexOutOfRange) as exc:
        err.write(f"error: {exc}\n")
        return 2
    except _INTERNAL_ERRORS as exc:
        err.write(f"internal assertion: {type(exc).__name__}: {exc}\n")
        return 3
    except _VERDICT_ERRORS as exc:
        err.write(f"{type(exc).__name__}: {exc}\n")
        return 1


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: what is still buffered goes to the null
        # device, so the flush at interpreter exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _CLOSED_OUTPUT
    sys.exit(code)


if __name__ == "__main__":
    main()
