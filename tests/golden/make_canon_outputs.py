"""Write the canonical-edge and generator goldens, ``canon_outputs.json``.

For seeded Zieschang words at the grid signatures and at four signatures off
the grid, each case holds the word, the forward and inverse maps of its
``canonical_edge`` and the step log.  For the same signatures, each ADL
generator's forward and inverse maps are recorded.  Maps are written in the
``format_endomorphism`` text, one list entry per line.  Run from the
repository root:

    PYTHONPATH=src python tests/golden/make_canon_outputs.py \
        > tests/golden/canon_outputs.json
"""

import json
import random
import sys

from surfaut import Signature, canonical_edge, format_endomorphism, gen_set, generator
from surfaut.selftest import GRID, random_zieschang

SEED = 20260809
WORDS_PER_SIG = 25
SIGS = list(GRID) + [Signature(2, 4), Signature(3, 2), Signature(4, 0), Signature(5, 1)]


def lines(endo) -> list[str]:
    return format_endomorphism(endo).splitlines()


def outputs() -> dict:
    rng = random.Random(SEED)
    canonical, generators = [], []
    for sig in SIGS:
        for _ in range(WORDS_PER_SIG):
            V = random_zieschang(sig, rng)
            aut, steps = canonical_edge(V)
            canonical.append(
                {
                    "sig": f"{sig.g},{sig.p}",
                    "word": str(V),
                    "fwd": lines(aut.fwd),
                    "inv": lines(aut.inv),
                    "steps": [str(s) for s in steps],
                }
            )
        for name in gen_set(sig, "adl"):
            a = generator(name, sig)
            generators.append(
                {
                    "sig": f"{sig.g},{sig.p}",
                    "name": str(name),
                    "fwd": lines(a.fwd),
                    "inv": lines(a.inv),
                }
            )
    return {"canonical": canonical, "generators": generators}


if __name__ == "__main__":
    json.dump(outputs(), sys.stdout, indent=2)
    sys.stdout.write("\n")
