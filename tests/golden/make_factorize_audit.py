"""Write the ``factorize --audit`` goldens, ``factorize_audit.json``.

Each case is a generator word at a signature.  The CLI evaluates the word,
factorises the result with ``--audit``, and the case records the text output
and the ``--json`` output.  Past the first four cases, the inputs are picked
so that every case-table branch writes audit scripts: the chunked square and
the front conjugation with a puncture letter in its prefix (p >= 2), the
right and left hexagons (p = 1), the first-letter split (p = 0), and the
inverse-edge recursions of p = 1 and p = 0.  Run from the repository root:

    PYTHONPATH=src python tests/golden/make_factorize_audit.py \
        > tests/golden/factorize_audit.json
"""

import io
import json
import sys

from surfaut.cli import run

CASES = [
    ("1,1", "a1 b1' g1"),
    ("1,2", "s2 a1 b1 g1'"),
    ("2,0", "a1 g2 b2'"),
    ("2,1", "b1 g2 a2'"),
    # chunked square, front conjugation over a puncture letter
    ("0,3", "s3'"),
    ("0,3", "s2 s3'"),
    ("1,2", "b1'"),
    ("2,2", "a1'"),
    ("1,3", "s3'"),
    ("0,4", "s2'"),
    # right hexagon into left hexagon; left hexagon from an inverse edge
    ("1,1", "g1"),
    ("1,1", "g1'"),
    ("2,1", "g1"),
    # first-letter split, inverse edges at p = 0
    ("1,0", "b1' a1"),
    ("1,0", "b1 b1 a1"),
    ("2,0", "b2' a2"),
    ("2,0", "g2'"),
]


def _cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    if run(argv, out, err) != 0:
        raise SystemExit(f"{argv} failed: {err.getvalue()}")
    return out.getvalue()


def cases() -> list[dict]:
    out = []
    for sig, genword in CASES:
        aut = _cli(["eval", "--sig", sig, "--genword", genword])
        argv = ["factorize", "--sig", sig, "--aut", aut, "--audit"]
        out.append(
            {
                "sig": sig,
                "genword": genword,
                "text": _cli(argv),
                "json": _cli(["--json"] + argv),
            }
        )
    return out


if __name__ == "__main__":
    json.dump(cases(), sys.stdout, indent=2)
    sys.stdout.write("\n")
