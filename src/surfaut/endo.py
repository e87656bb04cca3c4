"""Endomorphisms and witnessed automorphisms of the (g, p) free group.

Composition follows the right-action convention: ``compose(phi, psi)``
applies ``phi`` first, so ``apply(compose(phi, psi), u) ==
apply(psi, apply(phi, u))``.  Automorphisms always carry a witness
inverse; the constructor checks that applying ``fwd`` and then ``inv``
fixes every basis letter.  That one identity is the whole witness: it
makes ``inv`` onto, a free group of finite rank is Hopfian, so ``inv`` is
an automorphism and ``fwd`` is its inverse.

The public constructors validate.  Images computed here from valid maps
(``apply``, the composites of ``compose``), the swapped pair of
``Automorphism.inverse``, the identity pair of ``Automorphism.identity``, the
one-letter moves of ``letter_move`` and the involutions of ``swap_letters``
are built with the trusted constructors ``_endo`` and ``_aut``.  A
one-letter move c -> u c v is witnessed by checking that u and v avoid the
letter of c: both maps then fix u and v, so the inverse c -> u' c v' undoes
it without a substitution, and u c v is reduced as written.  A swap of two
signed letters, or the sign flip of one, is an involution, so it is its own
witness; the swaps are memoised, so every swap step of the canonical walks
shares one map per swap.  ``compose`` of witnessed pairs is witnessed by
algebra, since (a b)(b' a') = 1, and so is the restriction of a witnessed
pair to a free factor that both of its maps preserve.

``_substitute`` replaces each letter of a word by its image from an image
list and cancels at the seams; it is the one image kernel: ``apply`` is
one substitution, and so is every Nielsen move and canonical step.  Most
letters of the maps it applies keep a one-letter image, so a negative
letter with a one-letter image writes that letter's inverse straight from
``core._NEG`` (or cancels it at the seam) and builds no inverse image.  It
and ``letter_move`` read every inverse letter they write from ``_NEG``, so
the words the memos keep share one int object per code.
Composition is a right fold: it starts from the images of the last factor
and, going leftwards, recomputes only the basis letters each factor moves,
so a named generator or a Nielsen move costs work on its 1-3 moved letters,
not on all ``rank`` of them.  The witness check serves the pairs that
callers build (``Automorphism``, ``aut_from_map``): it substitutes letter
by letter and stops at the first letter that is not undone; a letter that
the first map fixes costs one comparison of the other map's image instead
of a substitution.  Its work grows with the product of the two maps' image
lengths, so certification (``groupoid.certify_automorphism``) makes no
witness check: its certificate is the composite of witnessed pairs,
witnessed by algebra as ``compose`` is, once the forward composite is
checked to be the input.  ``whitehead.is_onto`` is the independent oracle
of the witness: it decides by Stallings folding whether a map is onto.
``letter_move`` and ``swap_letters`` range-check their letters and build
their one-letter images with ``_word``.  The puncture-class check reads
code tuples and builds no words.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    _NEG,
    Signature,
    Word,
    _word,
    letter_str,
    memo,
    order_rank,
    parse_letter,
    parse_word,
    relator,
)
from .errors import (
    CosetViolation,
    ImageEscapes,
    NotInStabilizer,
    ParseError,
    SignatureMismatch,
)


@dataclass(frozen=True, slots=True)
class Endomorphism:
    """Basis-image map; ``images[b - 1]`` is the image of basis code b."""

    sig: Signature
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.sig.rank:
            raise ValueError(
                f"need {self.sig.rank} images for {self.sig}, got {len(self.images)}"
            )
        for w in self.images:
            if w.sig != self.sig:
                raise SignatureMismatch(f"image {w} not over {self.sig}")

    @staticmethod
    @memo
    def identity(sig: Signature) -> "Endomorphism":
        """One shared value per signature (while it stays in the bounded
        memo), so the fixed images of every map built from it share their
        words.  Sharing saves memory only: no code compares images, or the
        int objects of their codes (``core._NEG``), by identity."""
        return _endo(sig, tuple([_word(sig, (b,)) for b in sig.basis_codes()]))

    @staticmethod
    def from_map(sig: Signature, moved: dict[int, Word]) -> "Endomorphism":
        """Build from a map of basis codes to images; unlisted letters are fixed."""
        fixed = Endomorphism.identity(sig).images
        images = [moved.get(b, w) for b, w in zip(sig.basis_codes(), fixed)]
        return Endomorphism(sig, tuple(images))

    def apply(self, u: Word) -> Word:
        sig = self.sig
        if u.sig != sig:
            raise SignatureMismatch(f"{u.sig} vs {sig}")
        return _word(sig, _substitute(self.images, u.codes, {}))

    def is_identity(self) -> bool:
        return all(w.codes == (b,) for b, w in zip(self.sig.basis_codes(), self.images))

    def moved_codes(self) -> list[int]:
        return [
            b for b, w in zip(self.sig.basis_codes(), self.images) if w.codes != (b,)
        ]

    def __str__(self) -> str:
        return format_endomorphism(self)


_new = object.__new__
_set_endo_sig = Endomorphism.sig.__set__
_set_endo_images = Endomorphism.images.__set__


def _endo(sig: Signature, images: tuple[Word, ...]) -> Endomorphism:
    """Trusted constructor: ``images`` must be ``sig.rank`` words over ``sig``."""
    e = _new(Endomorphism)
    _set_endo_sig(e, sig)
    _set_endo_images(e, images)
    return e


def _substitute(
    images: Sequence[Word], codes: tuple[int, ...], inv: dict[int, tuple[int, ...]]
) -> tuple[int, ...]:
    """Reduced image of the word ``codes`` when each basis letter c is replaced
    by ``images[c - 1]``.  A positive letter reads its image straight from the
    list.  A negative letter reads its inverse image from ``inv``, which the
    caller owns for one call or one fold step.  On a miss, a letter whose
    image is the one letter d writes d' from the table ``core._NEG``, or
    cancels a d that stands before it, and builds and stores nothing; a
    longer image is inverted once, from ``_NEG`` as well, and kept in
    ``inv``.  Each code written is then the one int object of its value, not
    a new one per negation.  The images are reduced, so each one cancels
    only at the seam."""
    out: list[int] = []
    pop, append, extend = out.pop, out.append, out.extend
    for c in codes:
        if c > 0:
            img = images[c - 1].codes
        else:
            img = inv.get(c)
            if img is None:
                fwd = images[-c - 1].codes
                if len(fwd) == 1:
                    d = fwd[0]
                    if out and out[-1] == d:
                        pop()
                    else:
                        append(_NEG[d])
                    continue
                img = inv[c] = tuple([_NEG[d] for d in reversed(fwd)])
        if out and img and out[-1] == -img[0]:
            pop()
            k, m = 1, len(img)
            while k < m and out and out[-1] == -img[k]:
                pop()
                k += 1
            extend(img[k:])
        else:
            extend(img)
    return tuple(out)


def apply(phi, u: Word) -> Word:
    """Apply an Endomorphism or Automorphism to a word."""
    return _fwd(phi).apply(u)


def _fwd(phi) -> Endomorphism:
    return phi.fwd if isinstance(phi, Automorphism) else phi


def compose(*maps) -> "Endomorphism | Automorphism":
    """Left-to-right composition; mixes Endomorphisms and Automorphisms.

    Returns an Automorphism when every factor is one.
    """
    if not maps:
        raise ValueError("compose needs at least one map")
    if all(isinstance(m, Automorphism) for m in maps):
        # witnessed by algebra: (a b)(b' a') = 1
        fwd = _compose_endos([m.fwd for m in maps])
        inv = _compose_endos([m.inv for m in reversed(maps)])
        return _aut(fwd, inv)
    return _compose_endos([_fwd(m) for m in maps])


def _compose_endos(endos: list[Endomorphism]) -> Endomorphism:
    """Right fold: start from the images of the last factor and, for each
    earlier factor going leftwards, recompute only the letters it moves by
    substituting the images accumulated so far into its images."""
    sig = endos[0].sig
    for e in endos:
        if e.sig != sig:
            raise SignatureMismatch(f"{e.sig} vs {sig}")
    if len(endos) == 1:
        return endos[0]
    acc = endos[-1].images
    for e in reversed(endos[:-1]):
        nxt = list(acc)
        inv: dict[int, tuple[int, ...]] = {}
        for b, w in enumerate(e.images, 1):
            img = w.codes
            if len(img) != 1 or img[0] != b:
                nxt[b - 1] = _word(sig, _substitute(acc, img, inv))
        acc = nxt
    return _endo(sig, tuple(acc))


def _compose_all(endos: list[Endomorphism], sig: Signature) -> Endomorphism:
    """Left-to-right composite of the forward maps ``endos``; the identity
    of ``sig`` when there are none."""
    if not endos:
        return Endomorphism.identity(sig)
    return _compose_endos(endos)


@dataclass(frozen=True, slots=True)
class Automorphism:
    """Endomorphism with a witness inverse, checked at construction.

    Only ``fwd * inv`` (``fwd`` first) is checked: when it is the identity,
    ``inv`` is onto, hence an automorphism (free groups of finite rank are
    Hopfian), and ``inv * fwd`` is the identity as well."""

    fwd: Endomorphism
    inv: Endomorphism

    def __post_init__(self) -> None:
        if self.fwd.sig != self.inv.sig:
            raise SignatureMismatch(f"{self.fwd.sig} vs {self.inv.sig}")
        if not _undoes(self.fwd, self.inv):
            raise ValueError("witness failure: fwd * inv is not the identity")

    @property
    def sig(self) -> Signature:
        return self.fwd.sig

    @staticmethod
    def identity(sig: Signature) -> "Automorphism":
        # the identity pair is witnessed by definition
        e = Endomorphism.identity(sig)
        return _aut(e, e)

    def apply(self, u: Word) -> Word:
        return self.fwd.apply(u)

    def inverse(self) -> "Automorphism":
        # the swapped pair is witnessed: each map of a witnessed pair undoes
        # the other
        return _aut(self.inv, self.fwd)

    def is_identity(self) -> bool:
        return self.fwd.is_identity()

    def __str__(self) -> str:
        return format_endomorphism(self.fwd)


_set_fwd = Automorphism.fwd.__set__
_set_inv = Automorphism.inv.__set__


def _aut(fwd: Endomorphism, inv: Endomorphism) -> Automorphism:
    """Trusted constructor: ``(fwd, inv)`` must be a checked witness pair."""
    a = _new(Automorphism)
    _set_fwd(a, fwd)
    _set_inv(a, inv)
    return a


def _undoes(first: Endomorphism, then: Endomorphism) -> bool:
    """True when applying ``first`` and then ``then`` fixes every basis letter,
    i.e. ``compose(first, then)`` is the identity; stops at the first letter
    that is not fixed."""
    images = then.images
    inv: dict[int, tuple[int, ...]] = {}
    for b, w in enumerate(first.images, 1):
        img = w.codes
        if len(img) == 1 and img[0] == b:
            # ``first`` fixes b, so the composite sends b to then(b)
            if images[b - 1].codes != img:
                return False
        elif _substitute(images, img, inv) != (b,):
            return False
    return True


def aut_from_map(
    sig: Signature, moved: dict[int, Word], moved_inv: dict[int, Word]
) -> Automorphism:
    """Witnessed automorphism from explicit forward and inverse basis maps."""
    return Automorphism(
        Endomorphism.from_map(sig, moved), Endomorphism.from_map(sig, moved_inv)
    )


def letter_move(sig: Signature, code: int, left: Word, right: Word) -> Automorphism:
    """The automorphism sending the signed letter ``code`` to ``left code
    right`` and fixing every other basis letter; its inverse sends ``code``
    to ``left' code right'``.

    ``left`` and ``right`` must not mention the letter of ``code``
    (``CosetViolation`` otherwise).  Both maps then fix them, so each map
    undoes the other on ``code`` and the pair is witnessed by construction.
    Nothing cancels next to ``code`` either, so the images are the reduced
    code tuples concatenated as they stand.
    """
    b = abs(code)
    u, v = left.codes, right.codes
    if not 1 <= b <= sig.rank:
        raise ValueError(f"letter code {code} out of range for {sig}")
    if any(abs(c) == b for c in u + v):
        raise CosetViolation(
            f"one-letter move of {letter_str(sig, code)} mentions its own letter"
        )
    ui = tuple([_NEG[c] for c in reversed(u)])
    vi = tuple([_NEG[c] for c in reversed(v)])
    if code > 0:
        fwd, inv = _word(sig, u + (b,) + v), _word(sig, ui + (b,) + vi)
    else:
        # the image of b is the inverse of u b' v, and of u' b' v'
        fwd, inv = _word(sig, vi + (b,) + ui), _word(sig, v + (b,) + u)
    fixed = Endomorphism.identity(sig).images
    return _aut(
        _endo(sig, fixed[: b - 1] + (fwd,) + fixed[b:]),
        _endo(sig, fixed[: b - 1] + (inv,) + fixed[b:]),
    )


@memo
def swap_letters(sig: Signature, a: int, b: int) -> Automorphism:
    """The involution exchanging the signed letters a and b (and their inverses).

    When a and b share a basis letter this is the sign flip of that letter.
    The map exchanges a and b (a flip sends c to c' and back) and fixes
    every other letter, so it is its own inverse: the pair is witnessed by
    construction.  Memoised, so the swap steps of every canonical walk share
    one map per swap; its images read their codes from ``_NEG``, not from
    the arguments.
    """
    if a == b:
        return Automorphism.identity(sig)
    for c in (a, b):
        if not 1 <= abs(c) <= sig.rank:
            raise ValueError(f"letter code {c} out of range for {sig}")
    images = list(Endomorphism.identity(sig).images)
    if abs(a) == abs(b):
        images[abs(a) - 1] = _word(sig, (_NEG[abs(a)],))
    else:
        # the table's object of the value b (a > 0) or -b, and of a or -a
        images[abs(a) - 1] = _word(sig, (_NEG[-b if a > 0 else b],))
        images[abs(b) - 1] = _word(sig, (_NEG[-a if b > 0 else a],))
    e = _endo(sig, tuple(images))
    return _aut(e, e)


@dataclass(frozen=True)
class TPermutation:
    """Permutation of the puncture indices 1..p, stored as the image tuple."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        p = len(self.images)
        if sorted(self.images) != list(range(1, p + 1)):
            raise ValueError(f"not a permutation of 1..{p}: {self.images}")

    @property
    def p(self) -> int:
        return len(self.images)

    def __call__(self, j: int) -> int:
        return self.images[j - 1]

    def is_identity(self) -> bool:
        return all(self(j) == j for j in range(1, self.p + 1))

    @staticmethod
    def identity(p: int) -> "TPermutation":
        return TPermutation(tuple(range(1, p + 1)))


def classify_letters(phi) -> Optional[tuple[TPermutation, dict[int, int]]]:
    """Return (t-permutation, signed x-letter permutation) when phi permutes
    the t-letters and permutes the x-letters; None otherwise."""
    endo = _fwd(phi)
    sig = endo.sig
    t_images = []
    xmap: dict[int, int] = {}
    for b in sig.basis_codes():
        w = endo.images[b - 1]
        if len(w) != 1:
            return None
        c = w.codes[0]
        if sig.is_t_code(b):
            if c <= 0 or not sig.is_t_code(c):
                return None
            t_images.append(c)
        else:
            if sig.is_t_code(c):
                return None
            xmap[b] = c
            xmap[-b] = -c
    if len(set(t_images)) != sig.p:
        return None
    if len(set(xmap.values())) != len(xmap):
        return None
    return TPermutation(tuple(t_images)), xmap


@dataclass(frozen=True)
class Membership:
    fixes_relator: bool
    permutes_t_classes: Optional[TPermutation]
    in_A: bool


def membership(phi) -> Membership:
    """Check the two defining conditions of the relator-stabilizing group.

    For a plain Endomorphism the automorphism property is certified through
    peak reduction; witnessed Automorphisms are already certified.
    """
    endo = _fwd(phi)
    sig = endo.sig
    v0 = relator(sig)
    fixes = endo.apply(v0) == v0
    perm = _t_class_permutation(endo)
    in_a = fixes and perm is not None
    if in_a and not isinstance(phi, Automorphism):
        from .groupoid import certify_automorphism  # deferred: groupoid imports endo

        in_a = certify_automorphism(endo) is not None
    return Membership(fixes, perm, in_a)


def _t_class_permutation(endo: Endomorphism) -> Optional[TPermutation]:
    """The permutation j -> k when each phi(t_j) is a conjugate r t_k r' of a
    puncture letter, else None."""
    sig = endo.sig
    p = sig.p
    images = []
    for j in range(1, p + 1):
        codes = endo.images[sig.t_code(j) - 1].codes
        # the cyclic core is one letter exactly when the word is r c r' for
        # reduced r, that is of odd length and read backwards inverted
        m, odd = divmod(len(codes), 2)
        c = codes[m] if odd else 0
        if not 1 <= c <= p or codes[:m] != tuple([-d for d in codes[:m:-1]]):
            return None
        images.append(c)
    if sorted(images) != list(range(1, sig.p + 1)):
        return None
    return TPermutation(tuple(images))


def outer_equal(a: Automorphism, b: Automorphism) -> Optional[Word]:
    """Conjugator w with a(u) = w' b(u) w for every basis letter u, or None.

    The map theta = b^-1 a (``b.inv`` first) sends b(u) to a(u), and b is
    onto, so w is a conjugator exactly when theta(c) = w' c w for every
    basis letter c.  At rank >= 2 the centralizer of the group is trivial,
    so w is unique, and the first two basis letters, written 1 and 2, read
    it off.  Write theta(1) = r 1 r' with r taken by cyclic reduction: then
    w r commutes with the letter 1, whose centralizer is its own cyclic
    group, so w = 1^i r'.  Then r' theta(2) r = 1^-i 2 1^i is the letter 2
    conjugated by q = 1^-i, and w = (r q)'.  Checking w on every basis
    letter decides.
    """
    if a.sig != b.sig:
        raise SignatureMismatch(f"{a.sig} vs {b.sig}")
    sig = a.sig
    if a.fwd == b.fwd:
        return Word.identity(sig)
    if sig.rank <= 1:
        return None
    core, r = a.apply(b.inv.images[0]).cyclic_reduction()
    if core.codes != (1,):
        return None
    core, q = (r.inverse() * a.apply(b.inv.images[1]) * r).cyclic_reduction()
    if core.codes != (2,) or q.codes not in ((1,) * len(q), (-1,) * len(q)):
        return None
    w = (r * q).inverse()
    return w if _checks_all(a, b, w) else None


def _checks_all(a: Automorphism, b: Automorphism, w: Word) -> bool:
    wi = w.inverse()
    return all(
        a.fwd.images[c - 1] == wi * b.fwd.images[c - 1] * w
        for c in a.sig.basis_codes()
    )


def restrict_drop_tp(a: Automorphism) -> Automorphism:
    """Restriction of a t_p-fixing member of the stabilizer group to the
    (g, p-1) free factor; the basis images provably avoid t_p."""
    sig = a.sig
    if sig.p < 1:
        raise NotInStabilizer("restrict_drop_tp needs p >= 1")
    tp = Word(sig, (sig.t_code(sig.p),))
    if a.apply(tp) != tp:
        raise NotInStabilizer(f"t{sig.p} is not fixed")
    code_map = {b: b if b < sig.p else b - 1 for b in sig.basis_codes() if b != sig.p}
    return _restrict(a, Signature(sig.g, sig.p - 1), code_map, f"mentions t{sig.p}")


def restrict_relabel_K(a: Automorphism) -> Automorphism:
    """Restriction of an (x1' y1' x1)-fixing member of the p = 0 stabilizer
    group to the free factor on y1, x2, y2, .., relabeled to signature
    (g-1, 1) via y1 -> t1, x_i -> x_{i-1}, y_i -> y_{i-1}."""
    sig = a.sig
    if sig.p != 0 or sig.g < 1:
        raise NotInStabilizer("restrict_relabel_K needs p = 0 and g >= 1")
    x1 = sig.x_code(1)
    probe = Word(sig, (-x1, -sig.y_code(1), x1))
    if a.apply(probe) != probe:
        raise NotInStabilizer("x1' y1' x1 is not fixed")
    small = Signature(sig.g - 1, 1)
    code_map = {sig.y_code(1): small.t_code(1)}
    for i in range(2, sig.g + 1):
        code_map[sig.x_code(i)] = small.x_code(i - 1)
        code_map[sig.y_code(i)] = small.y_code(i - 1)
    return _restrict(a, small, code_map, "leaves the x1-free factor")


def _restrict(
    a: Automorphism, small: Signature, code_map: dict[int, int], escapes: str
) -> Automorphism:
    """Restriction of ``a`` to the free factor on the basis letters of
    ``code_map``, relabeled by it onto every basis letter of ``small``.  An
    image that mentions a letter outside the factor raises ``ImageEscapes``
    ("image of <letter> <escapes>")."""
    sig = a.sig

    def restrict(endo: Endomorphism) -> Endomorphism:
        images: list = [None] * small.rank
        for old, new in code_map.items():
            out = []
            for c in endo.images[old - 1].codes:
                b = code_map.get(abs(c))
                if b is None:
                    raise ImageEscapes(f"image of {letter_str(sig, old)} {escapes}")
                out.append(b if c > 0 else -b)
            # a one-to-one relabeling that keeps inverse pairs keeps it reduced
            images[new - 1] = _word(small, tuple(out))
        return _endo(small, tuple(images))

    # both maps keep the free factor, so their restrictions undo each other
    return _aut(restrict(a.fwd), restrict(a.inv))


def format_endomorphism(endo: Endomorphism) -> str:
    """Text format: a signature header, then one line per moved letter."""
    sig = endo.sig
    lines = [f"sig g={sig.g} p={sig.p}"]
    moved = sorted(endo.moved_codes(), key=order_rank)
    for b in moved:
        lines.append(f"{letter_str(sig, b)} -> {endo.images[b - 1]}")
    return "\n".join(lines) + "\n"


def parse_endomorphism(text: str) -> Endomorphism:
    """Parse the format written by format_endomorphism."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty automorphism text")
    m = re.match(r"^sig\s+g=(\d+)\s+p=(\d+)$", lines[0])
    if m is None:
        raise ParseError(f"bad signature header {lines[0]!r}")
    sig = Signature(int(m.group(1)), int(m.group(2)))
    moved: dict[int, Word] = {}
    for ln in lines[1:]:
        if "->" not in ln:
            raise ParseError(f"bad image line {ln!r}")
        lhs, rhs = ln.split("->", 1)
        letter = parse_letter(lhs.strip())
        if letter.sign != 1:
            raise ParseError(f"image lines must use positive letters, got {lhs.strip()!r}")
        try:
            code = letter.code(sig)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        if code in moved:
            raise ParseError(f"duplicate image for {lhs.strip()!r}")
        moved[code] = parse_word(sig, rhs.strip())
    return Endomorphism.from_map(sig, moved)
