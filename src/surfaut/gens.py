"""Named automorphisms (sigma, alpha, beta, gamma, eta, the zeta lift),
generator words over them, and the Humphries rewriting of alpha_i (i >= 3).

Generator word tokens are `s<j>`, `a<i>`, `b<i>`, `g<i>`, with a trailing
apostrophe for the inverse and `1` for the empty word.  Evaluation is
left-to-right composition, matching the right-action convention.

One fold, ``_eval_fwd``, evaluates every generator word: it composes the
forward maps of the tokens (a generator's witnessed inverse map for a
negative token) and builds no inverse.  The checks of the package compare
forward maps only, so they call it directly; the public ``eval_gen_word``
runs it on the word and on its inverse word.  That pair is witnessed by
algebra: each generator's pair is witnessed, and the fold of the inverse
word composes the inverses in the reverse order.

``GenWord(tokens)`` validates and reduces its tokens.  Words built from
words that are already reduced (products, inverses, shifts, the factoriser's
words and the Humphries splice) go through the trusted constructor
``_genword`` instead, from reduced token runs joined by ``_join``, which
cancels only at the seams between runs.  ``_splice`` returns a word with no
alpha_(>=3) token as it is, and otherwise joins the runs between those
tokens with the memoised runs of their rewrites (``_humphries_run``, either
sign).  Each rewrite run contains no alpha_(>=3) token, by induction on i
(``humphries_rewrite``), and its value is checked; ``_join`` only cancels
inverse pairs.  So a splice has no alpha_(>=3) token and the value of the
word it splices, and nothing scans or folds it again.

Generator words cross the text boundary one token at a time through two
memos: ``_token_name`` prints a token and ``_parse_token`` reads one; a
text that names no token raises a ``ParseError`` that quotes it.
Distinct tokens are few (at most four families times the genus or the
punctures, each of either sign), so a long word prints and parses with one
memo hit per token.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable

from .core import Signature, Word, commutator, memo
from .endo import (
    Automorphism,
    Endomorphism,
    _aut,
    _compose_all,
    aut_from_map,
    letter_move,
)
from .errors import CosetViolation, IndexOutOfRange, ParseError

_FAMILIES = ("s", "a", "b", "g")
_TOKEN_RE = re.compile(r"^([sabg])([1-9][0-9]*)(')?$")


class GenName(namedtuple("GenName", "family index")):
    """A named generator: family 's', 'a', 'b' or 'g' plus its index.  A
    named tuple, so it compares and hashes as the pair (family, index)."""

    __slots__ = ()

    def __new__(cls, family: str, index: int) -> "GenName":
        if family not in _FAMILIES or index < 1:
            raise IndexOutOfRange(f"bad generator name {family}{index}")
        return super().__new__(cls, family, index)

    @classmethod
    def _make(cls, iterable) -> "GenName":
        # through the validating ``__new__``, and so is ``_replace``
        return cls(*iterable)

    def validate(self, sig: Signature) -> None:
        ok = {
            "s": 2 <= self.index <= sig.p,
            "a": 1 <= self.index <= sig.g,
            "b": 1 <= self.index <= sig.g,
            "g": max(2 - sig.p, 1) <= self.index <= sig.g,
        }[self.family]
        if not ok:
            raise IndexOutOfRange(f"{self} is not a generator name for {sig}")

    def shifted(self, offset: int) -> "GenName":
        return GenName(self.family, self.index + offset)

    def __str__(self) -> str:
        return f"{self.family}{self.index}"


@dataclass(frozen=True)
class GenWord:
    """Word in generator names, freely reduced over the tokens."""

    tokens: tuple[tuple[GenName, int], ...]

    def __post_init__(self) -> None:
        out: list[tuple[GenName, int]] = []
        for name, exp in self.tokens:
            if exp not in (1, -1):
                raise ValueError(f"token exponent must be +-1, got {exp}")
            if out and out[-1] == (name, -exp):
                out.pop()
            else:
                out.append((name, exp))
        object.__setattr__(self, "tokens", tuple(out))

    @staticmethod
    def empty() -> "GenWord":
        return GenWord(())

    @staticmethod
    def of(*names: GenName) -> "GenWord":
        return GenWord(tuple((n, 1) for n in names))

    def __mul__(self, other: "GenWord") -> "GenWord":
        if not other.tokens:
            return self
        if not self.tokens:
            return other
        return _genword(_join((self.tokens, other.tokens)))

    def inverse(self) -> "GenWord":
        return _genword(tuple([(n, -e) for n, e in reversed(self.tokens)]))

    def shifted(self, offset: int) -> "GenWord":
        # a shift is injective on names, so it keeps the word reduced
        return _genword(tuple([(n.shifted(offset), e) for n, e in self.tokens]))

    def __len__(self) -> int:
        return len(self.tokens)

    def __str__(self) -> str:
        if not self.tokens:
            return "1"
        return " ".join(map(_token_name, self.tokens))


_Tokens = tuple[tuple[GenName, int], ...]


def _genword(tokens: _Tokens) -> GenWord:
    """Trusted constructor: ``tokens`` must be a freely reduced tuple of
    tokens.  Skips the checks and the reduction of ``GenWord.__post_init__``."""
    w = object.__new__(GenWord)
    object.__setattr__(w, "tokens", tokens)  # the dataclass is frozen
    return w


def _join(runs: Iterable[_Tokens]) -> _Tokens:
    """The free reduction of the concatenation of ``runs``, each a freely
    reduced token tuple.  Each run cancels only at its seam with what is left
    before it; a run may cancel completely, and the next one then cancels
    against what is left before that."""
    out: list[tuple[GenName, int]] = []
    pop = out.pop
    for run in runs:
        j, n = 0, len(run)
        while out and j < n:
            name, exp = run[j]
            if out[-1] != (name, -exp):
                break
            pop()
            j += 1
        out += run[j:] if j else run
    return tuple(out)


@memo
def _token_name(token: tuple[GenName, int]) -> str:
    """The text of one token: its name, with an apostrophe if it is inverse."""
    name, exp = token
    return f"{name}{'' if exp > 0 else chr(39)}"


@memo
def _parse_token(text: str) -> tuple[GenName, int]:
    """The token that ``text`` names; a text that names none raises."""
    m = _TOKEN_RE.match(text)
    if m is None:
        raise ParseError(f"bad generator token {text!r}")
    fam, idx, inv = m.groups()
    return (GenName(fam, int(idx)), -1 if inv else 1)


def parse_gen_word(text: str) -> GenWord:
    tokens = text.split()
    if not tokens:
        raise ParseError("empty generator word; use '1' for the identity")
    if tokens == ["1"]:
        return GenWord.empty()
    return GenWord(tuple(map(_parse_token, tokens)))


@memo
def generator(name: GenName, sig: Signature) -> Automorphism:
    """Witnessed automorphism for a generator name; inverses are closed-form."""
    name.validate(sig)
    i = name.index
    W = lambda *codes: Word(sig, codes)  # noqa: E731
    if name.family == "s":
        tj, tk = sig.t_code(i), sig.t_code(i - 1)
        return aut_from_map(
            sig,
            {tj: W(tk), tk: W(-tk, tj, tk)},
            {tk: W(tj), tj: W(tj, tk, -tj)},
        )
    if name.family == "a":
        return letter_move(sig, sig.x_code(i), W(-sig.y_code(i)), W())
    if name.family == "b":
        return letter_move(sig, sig.y_code(i), W(sig.x_code(i)), W())
    # gamma
    x_i, y_i = sig.x_code(i), sig.y_code(i)
    if i >= 2:
        x_prev, y_prev = sig.x_code(i - 1), sig.y_code(i - 1)
        w = W(y_prev, -x_i, -y_i, x_i)
    else:
        x_prev, y_prev = None, sig.t_code(1)
        w = W(sig.t_code(1), -x_i, -y_i, x_i)
    wi = w.inverse()
    fwd = {y_prev: wi * W(y_prev) * w, x_i: W(x_i) * w}
    inv = {y_prev: w * W(y_prev) * wi, x_i: W(x_i) * wi}
    if x_prev is not None:
        fwd[x_prev] = wi * W(x_prev)
        inv[x_prev] = w * W(x_prev)
    return aut_from_map(sig, fwd, inv)


def gen_set(sig: Signature, variant: str = "adl") -> list[GenName]:
    """The ADL generating set, or ADLH (alpha_i dropped for i >= 3)."""
    if variant not in ("adl", "adlh"):
        raise ValueError(f"variant must be 'adl' or 'adlh', got {variant!r}")
    names = [GenName("s", j) for j in range(2, sig.p + 1)]
    amax = sig.g if variant == "adl" else min(2, sig.g)
    names += [GenName("a", i) for i in range(1, amax + 1)]
    names += [GenName("b", i) for i in range(1, sig.g + 1)]
    names += [GenName("g", i) for i in range(max(2 - sig.p, 1), sig.g + 1)]
    return names


def _eval_fwd(w: GenWord, sig: Signature) -> Endomorphism:
    """Forward map of ``w``: the right fold of the forward maps of its
    generators, taking a generator's inverse map for a negative token."""
    return _compose_all([
        generator(n, sig).fwd if e > 0 else generator(n, sig).inv
        for n, e in w.tokens
    ], sig)


def eval_gen_word(w: GenWord, sig: Signature) -> Automorphism:
    """Left-to-right composition of the named generators, witnessed: the
    forward fold of ``w`` paired with the forward fold of its inverse word,
    which undoes it token by token."""
    if not w.tokens:
        return Automorphism.identity(sig)
    return _aut(_eval_fwd(w, sig), _eval_fwd(w.inverse(), sig))


_ETA_SIG = Signature(3, 0)


@memo
def eta() -> Automorphism:
    """The genus-3 element conjugating alpha_1 into alpha_3."""
    sig = _ETA_SIG
    x = [None] + [Word(sig, (sig.x_code(i),)) for i in range(1, 4)]
    y = [None] + [Word(sig, (sig.y_code(i),)) for i in range(1, 4)]
    c3 = commutator(x[3], y[3])
    c2 = commutator(x[2], y[2])
    fwd = Endomorphism(
        sig,
        (
            y[3].inverse() * x[3].inverse() * y[3].inverse(),
            y[3].inverse().conjugate_by(x[3] * y[3]),
            x[2].conjugate_by(c3),
            y[2].conjugate_by(c3),
            x[1].conjugate_by(c2 * c3),
            y[1].conjugate_by(c2 * c3),
        ),
    )
    from .groupoid import _certify  # deferred: groupoid imports endo

    # the table is the engine's own: one that fails to fix the relator or
    # permute the classes is a fault, which the reduction's end checks raise
    aut = _certify(fwd)
    if aut is None:
        raise CosetViolation("eta failed certification")
    return aut


def zeta_lift(sig: Signature) -> Automorphism:
    """Involution x_i <-> y_{g+1-i}, t_j -> t_{p+1-j} inverted."""
    moved: dict[int, Word] = {}
    for j in range(1, sig.p + 1):
        moved[sig.t_code(j)] = Word(sig, (-sig.t_code(sig.p + 1 - j),))
    for i in range(1, sig.g + 1):
        moved[sig.x_code(i)] = Word(sig, (sig.y_code(sig.g + 1 - i),))
        moved[sig.y_code(i)] = Word(sig, (sig.x_code(sig.g + 1 - i),))
    return aut_from_map(sig, moved, moved)


#: Conjugating chain for the Humphries rewriting at base index 3.
HUMPHRIES_CHAIN = tuple(
    GenName(f, i)
    for f, i in [
        ("b", 1), ("g", 2), ("b", 2), ("a", 2), ("g", 3), ("b", 3), ("b", 2),
        ("g", 3), ("g", 2), ("b", 2), ("b", 1), ("g", 2), ("a", 2), ("b", 2),
        ("g", 3), ("b", 3),
    ]
)


@memo
def humphries_rewrite(i: int, sig: Signature) -> GenWord:
    """Rewrite alpha_i (i >= 3) over the ADLH names: conjugate alpha_(i-2) by
    the index-shifted 16-step chain, then splice away the alpha_(>=3) tokens
    the shift has introduced.

    Correctness is checked once, before the splice, by comparing the forward
    fold of the 33-token unexpanded form with alpha_i.  Its alpha tokens
    are alpha_(i-2) and alpha_(i-1), and ``_splice`` replaces those of index
    3 or more by their own rewrites, built the same way.  So by induction on
    i the flat word has no alpha_(>=3) token and the value of the unexpanded
    form: each rewrite's value is checked, evaluation is a homomorphism and
    ``_join`` only cancels inverse pairs.  The flat word grows about 3.7 times per genus and is built for
    output only."""
    if not 3 <= i <= sig.g:
        raise IndexOutOfRange(f"humphries_rewrite needs 3 <= i <= g, got i={i} at {sig}")
    shift = i - 3
    chain = GenWord.of(*(n.shifted(shift) for n in HUMPHRIES_CHAIN))
    raw = chain.inverse() * GenWord.of(GenName("a", i - 2)) * chain
    if _eval_fwd(raw, sig) != generator(GenName("a", i), sig).fwd:
        raise CosetViolation(f"Humphries rewriting failed evaluation for alpha_{i} at {sig}")
    return _splice(raw, sig)


@memo
def _humphries_run(i: int, exp: int, sig: Signature) -> _Tokens:
    """The tokens of the checked rewrite of alpha_i (``exp`` 1) or of its
    inverse (``exp`` -1)."""
    word = humphries_rewrite(i, sig)
    return word.tokens if exp > 0 else word.inverse().tokens


def _splice(w: GenWord, sig: Signature) -> GenWord:
    """Expand every alpha_i (i >= 3) token of ``w``, either sign, into its
    (checked) Humphries rewrite: the runs of ``w`` between those tokens and
    the rewrites' runs are joined at their seams.  ``w`` itself when it has
    no such token."""
    tokens = w.tokens
    runs: list[_Tokens] = []
    start = 0
    for at, (name, exp) in enumerate(tokens):
        if name.index >= 3 and name.family == "a":
            runs += (tokens[start:at], _humphries_run(name.index, exp, sig))
            start = at + 1
    if not runs:
        return w
    runs.append(tokens[start:])
    return _genword(_join(runs))
