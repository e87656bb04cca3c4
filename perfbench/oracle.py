"""Free-group arithmetic for checking outputs, kept apart from ``surfaut``.

The benchmark uses this module to build its inputs and to check every
output, so a defect in the package's own word, map or generator code
cannot also hide in the check.  It shares only the encoding of letters:
over signature (g, p) the basis codes are t_j = j, x_i = p + 2i - 1 and
y_i = p + 2i, and a negative code is the inverse letter.

A map is a dict from every basis code to its image, a tuple of codes.
Maps compose left to right, as in the package: ``then(f, h)`` applies
``f`` first.
"""

from __future__ import annotations

Map = dict[int, tuple[int, ...]]


def reduce(codes) -> tuple[int, ...]:
    out: list[int] = []
    for c in codes:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def inverse(word) -> tuple[int, ...]:
    return tuple(-c for c in reversed(word))


def x(sig, i: int) -> int:
    return sig[1] + 2 * i - 1


def y(sig, i: int) -> int:
    return sig[1] + 2 * i


def rank(sig) -> int:
    return 2 * sig[0] + sig[1]


def relator(sig) -> tuple[int, ...]:
    """t_p .. t_1 [x_1, y_1] .. [x_g, y_g] with [u, v] = u' v' u v."""
    g, p = sig
    codes = list(range(p, 0, -1))
    for i in range(1, g + 1):
        codes += [-x(sig, i), -y(sig, i), x(sig, i), y(sig, i)]
    return tuple(codes)


def identity(sig) -> Map:
    return {b: (b,) for b in range(1, rank(sig) + 1)}


def apply(m: Map, word) -> tuple[int, ...]:
    out: list[int] = []
    for c in word:
        image = m[c] if c > 0 else inverse(m[-c])
        for d in image:
            if out and out[-1] == -d:
                out.pop()
            else:
                out.append(d)
    return tuple(out)


def then(f: Map, h: Map) -> Map:
    """The map applying f first and h second."""
    return {b: apply(h, w) for b, w in f.items()}


def is_identity(m: Map) -> bool:
    return all(w == (b,) for b, w in m.items())


def _pick(fwd: Map, inv: Map, exp: int) -> Map:
    return fwd if exp > 0 else inv


def generator(sig, family: str, index: int, exp: int) -> Map:
    """Images of the basis letters a named generator (or its inverse) moves.

    sigma_j swaps the punctures t_(j-1), t_j; alpha_i and beta_i are the
    Dehn twists x_i -> y_i' x_i and y_i -> x_i y_i; gamma_i twists along
    w = y_(i-1) x_i' y_i' x_i (w = t_1 x_1' y_1' x_1 for i = 1), which it
    fixes, so its inverse twists by w' in the same places.
    """
    g, p = sig
    if family == "s":
        if not 2 <= index <= p:
            raise ValueError(f"s{index} is not a generator at {sig}")
        tj, tk = index, index - 1
        return _pick({tj: (tk,), tk: (-tk, tj, tk)}, {tk: (tj,), tj: (tj, tk, -tj)}, exp)
    if not 1 <= index <= g:
        raise ValueError(f"{family}{index} is not a generator at {sig}")
    xi, yi = x(sig, index), y(sig, index)
    if family == "a":
        return _pick({xi: (-yi, xi)}, {xi: (yi, xi)}, exp)
    if family == "b":
        return _pick({yi: (xi, yi)}, {yi: (-xi, yi)}, exp)
    if family != "g":
        raise ValueError(f"unknown generator family {family!r}")
    if index == 1:
        if p < 1:
            raise ValueError(f"g1 is not a generator at {sig}")
        prev_x, prev_y = None, 1
    else:
        prev_x, prev_y = x(sig, index - 1), y(sig, index - 1)
    w = (prev_y, -xi, -yi, xi)
    if exp < 0:
        w = inverse(w)
    moved = {prev_y: inverse(w) + (prev_y,) + w, xi: (xi,) + w}
    if prev_x is not None:
        moved[prev_x] = inverse(w) + (prev_x,)
    return {b: reduce(img) for b, img in moved.items()}


def evaluate(sig, tokens) -> Map:
    """The map of a generator word given as (family, index, exp) tokens.

    Works from the last token back: the suffix map is kept, and a token
    changes only the images of the letters it moves.  The package
    evaluates front to back, so the two share no order of work either.
    """
    suffix = identity(sig)
    for family, index, exp in reversed(tokens):
        moved = generator(sig, family, index, exp)
        suffix.update({b: apply(suffix, image) for b, image in moved.items()})
    return suffix


def union_find_forest(sig, word) -> bool:
    """Is the extended Whitehead graph of a candidate word a forest?

    Vertices are the signed letters; edges are t_j' - t_j and
    v_k - inverse(v_(k+1)).
    """
    parent: dict[int, int] = {}

    def root(v: int) -> int:
        while parent.get(v, v) != v:
            v = parent[v]
        return v

    edges = [(-j, j) for j in range(1, sig[1] + 1)]
    edges += [(word[k], -word[k + 1]) for k in range(len(word) - 1)]
    for a, b in edges:
        ra, rb = root(a), root(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def candidate_letters(sig) -> list[int]:
    """One of each t_j and of each x_i, x_i', y_i, y_i'."""
    g, p = sig
    codes = list(range(1, p + 1))
    for i in range(1, g + 1):
        codes += [x(sig, i), -x(sig, i), y(sig, i), -y(sig, i)]
    return codes
