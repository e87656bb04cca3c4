"""Rewrite the peak-reduction goldens, ``reduce_outcomes.json``.

The inputs are the 78 stored random maps (a signature and the basis images,
most of them not automorphisms); the script reads them from the committed
file and recomputes the outcome of ``nielsen_reduce`` from the relator on
each: the exception type, message, ``k`` and ``triple``, or the kinds and
targets of the edges and the images of the remainder.  Run from the
repository root, through a temporary file, since the script reads the file
it rewrites:

    PYTHONPATH=src python tests/golden/make_reduce_outcomes.py > reduce_outcomes.tmp
    mv reduce_outcomes.tmp tests/golden/reduce_outcomes.json
"""

import json
import pathlib
import sys

from surfaut import Endomorphism, Signature, Word, nielsen_reduce, relator
from surfaut.errors import SurfautError

GOLDEN = pathlib.Path(__file__).parent / "reduce_outcomes.json"


def outcome(sig: Signature, images: list[list[int]]) -> dict:
    phi = Endomorphism(sig, tuple(Word(sig, tuple(c)) for c in images))
    try:
        edges, n1 = nielsen_reduce(relator(sig), phi)
    except SurfautError as exc:
        triple = getattr(exc, "triple", None)
        return {
            "error": type(exc).__name__,
            "message": str(exc),
            "k": getattr(exc, "k", None),
            "triple": None if triple is None else [list(w.codes) for w in triple],
        }
    return {
        "edges": [[str(e.kind), list(e.target.codes)] for e in edges],
        "remainder": [list(w.codes) for w in n1.aut.fwd.images],
    }


def cases() -> list[dict]:
    out = []
    for case in json.loads(GOLDEN.read_text(encoding="utf-8")):
        sig = Signature(*map(int, case["sig"].split(",")))
        images = case["images"]
        out.append({"sig": case["sig"], "images": images, "outcome": outcome(sig, images)})
    return out


if __name__ == "__main__":
    sys.stdout.write("[\n" + ",\n".join(json.dumps(c) for c in cases()) + "\n]\n")
