"""Write the plain factorisation goldens, ``factorize_words.json``.

Each case is a seeded generator word, the automorphism it evaluates to, and
the word ``factorize_adl`` (grid signatures) or ``factorize_adlh`` ((3,0) and
(4,0)) returns for that automorphism.  Run from the repository root:

    PYTHONPATH=src python tests/golden/make_factorize_words.py \
        > tests/golden/factorize_words.json
"""

import json
import random
import sys

from surfaut import GenWord, Signature, eval_gen_word, factorize_adl, factorize_adlh
from surfaut.gens import gen_set
from surfaut.selftest import random_gen_word

SEED = 20260809
GRID = [(0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]
PER_SIG = 6
# (signature, variant, tokens per input); inputs shrink as the cost grows
PLAN = [(gp, "adl", 10 if gp[0] + gp[1] <= 2 else 7) for gp in GRID] + [
    ((3, 0), "adlh", 2),
    ((4, 0), "adlh", 1),
]


def cases() -> list[dict]:
    rng = random.Random(SEED)
    out = []
    for (g, p), variant, tokens in PLAN:
        sig = Signature(g, p)
        for i in range(PER_SIG):
            if tokens == 1:
                names = gen_set(sig, "adl")
                w = GenWord(((names[i % len(names)], rng.choice((1, -1))),))
            else:
                w = random_gen_word(sig, rng, tokens)
            fn = factorize_adl if variant == "adl" else factorize_adlh
            out.append(
                {
                    "sig": f"{g},{p}",
                    "variant": variant,
                    "genword": str(w),
                    "word": str(fn(eval_gen_word(w, sig))),
                }
            )
    return out


if __name__ == "__main__":
    json.dump(cases(), sys.stdout, indent=2)
    sys.stdout.write("\n")
