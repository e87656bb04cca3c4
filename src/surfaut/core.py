"""Exact free-group arithmetic over the (g, p) surface alphabet.

The free group has basis t_1 .. t_p (puncture letters) followed by
x_1, y_1, .., x_g, y_g (handle letters).  A signed letter is encoded as a
nonzero int: the basis letter with 1-based code b is +b and its inverse
is -b.  The fixed total order on signed letters is

    t1 < t1' < t2 < t2' < .. < x1 < x1' < y1 < y1' < x2 < ..

where the apostrophe marks the inverse.  Words are immutable and always
freely reduced.

``Word(sig, codes)`` validates: it reduces the codes and range-checks every
letter, and it stores the table ``_NEG``'s int object for each code.
Results built from words that are already valid (products, inverses,
slices of reduced words, images under a map) go through the trusted
constructor ``_word`` instead, which stores the codes as given.

One int object per negative code: the memos keep many words, and CPython
shares only the ints -5..256, so a word built here or by a substitution
reads an inverse letter -c from the table ``_NEG`` instead of computing it,
and a validated word reads every code from it.
``_NEG[c] == -c`` for every code c of every signature made so far, and
``Signature`` grows the table when it meets a larger rank.

Words cross the text boundary through two tables per signature, kept in
the bounded memos ``_name_tables`` and ``_code_tables``:
``_letter_names(sig)`` holds the name of each signed code in ``_NEG``'s
layout, and ``_letter_codes(sig)`` maps each name back to its code.  Both
are built once, from ``Letter``, which stays the reference.  ``Word``
prints as one join of lookups, ``letter_str`` range-checks and looks up,
and ``parse_word`` looks every token up and hands the codes to the
validating ``Word``.  A token that is not in the table takes the reference
parse, ``parse_letter`` and ``Letter.code``, whose ``ParseError`` names the
first malformed token, or else the first one out of range.
"""

from __future__ import annotations

import re
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .errors import ParseError, SignatureMismatch

#: Entries kept by each memo of the package (``memo`` and ``_Memo``); the
#: least recently used entry leaves first.  Sized to hold the distinct keys
#: of a benchmark pool or of a selftest criterion, so a repeated value is
#: computed once per run; the per-signature tables are bounded by it too,
#: because a caller may name any signature.
MEMO_SIZE = 4096

#: Every memo of the package, in the order they were made, so that one loop
#: can empty them all.
_MEMOS: list = []


def memo(fn):
    """``fn`` behind an ``lru_cache`` of ``MEMO_SIZE`` entries, registered
    in ``_MEMOS``."""
    cached = lru_cache(maxsize=MEMO_SIZE)(fn)
    _MEMOS.append(cached)
    return cached


class _Memo(OrderedDict):
    """A bounded LRU memo of ``MEMO_SIZE`` entries, registered in
    ``_MEMOS``; the least recently used entry leaves first."""

    def __init__(self) -> None:
        super().__init__()
        _MEMOS.append(self)

    def lookup(self, key, build):
        """The entry of ``key``, now the most recently used, made by
        ``build()`` on a miss.  A build that raises stores nothing."""
        value = self.get(key)
        if value is None:
            return self.put(key, build())
        # not ``put``: assigning to a key already present keeps its place,
        # so it would not mark the entry as recently used
        self.move_to_end(key)
        return value

    def put(self, key, value):
        """Store ``value`` at ``key`` and return it; a new key is the most
        recently used, and the least recently used entry leaves past
        ``MEMO_SIZE``."""
        self[key] = value
        if len(self) > MEMO_SIZE:
            self.popitem(last=False)
        return value


#: ``_NEG[c] == -c`` for every signed code c of the largest rank R of a
#: signature made so far, indexed like ``groupoid._rank_table``: the layout
#: is [0, -1, .., -R, R, .., 1], so a negative code reads from the end.  It
#: holds one int object per value, so the words that use it share them.
_NEG: list = [0]


class Signature(namedtuple("Signature", "g p")):
    """Genus and puncture counts fixing the alphabet.  A named tuple, so it
    compares, hashes and orders as the pair (g, p), in C.  Every route that
    makes one (``_make``, ``_replace``, pickling and copying included) goes
    through ``__new__``, which validates and covers the rank in ``_NEG``."""

    __slots__ = ()

    def __new__(cls, g: int, p: int) -> "Signature":
        self = super().__new__(cls, g, p)
        if g < 0 or p < 0:
            raise ValueError(f"genus and puncture counts must be >= 0, got {self}")
        old, new = len(_NEG) // 2, 2 * g + p
        if new > old:
            # in place, between the two halves: the objects handed out stay
            grown = [-c for c in range(old + 1, new + 1)]
            _NEG[old + 1 : old + 1] = grown + list(range(new, old, -1))
        return self

    @classmethod
    def _make(cls, iterable) -> "Signature":
        return cls(*iterable)

    @property
    def rank(self) -> int:
        """Number of basis letters, 2g + p."""
        return 2 * self.g + self.p

    @property
    def chain_len(self) -> int:
        """Length of a Zieschang element, 4g + p."""
        return 4 * self.g + self.p

    def t_code(self, j: int) -> int:
        if not 1 <= j <= self.p:
            raise ValueError(f"t-index {j} out of range for {self}")
        return j

    def x_code(self, i: int) -> int:
        if not 1 <= i <= self.g:
            raise ValueError(f"x-index {i} out of range for {self}")
        return self.p + 2 * i - 1

    def y_code(self, i: int) -> int:
        if not 1 <= i <= self.g:
            raise ValueError(f"y-index {i} out of range for {self}")
        return self.p + 2 * i

    def basis_codes(self) -> range:
        return range(1, self.rank + 1)

    def is_t_code(self, code: int) -> bool:
        return 1 <= abs(code) <= self.p

    def __str__(self) -> str:
        return f"(g={self.g}, p={self.p})"


def order_rank(code: int) -> int:
    """Position of a signed letter in the fixed total order."""
    return 2 * (abs(code) - 1) + (0 if code > 0 else 1)


_LETTER_RE = re.compile(r"^([txy])([1-9][0-9]*)(')?$")


@dataclass(frozen=True)
class Letter:
    """A signed basis letter: kind 't', 'x' or 'y', 1-based index, sign +-1."""

    kind: str
    index: int
    sign: int

    def __post_init__(self) -> None:
        if self.kind not in ("t", "x", "y"):
            raise ValueError(f"bad letter kind {self.kind!r}")
        if self.index < 1 or self.sign not in (1, -1):
            raise ValueError(f"bad letter {self!r}")

    def code(self, sig: Signature) -> int:
        if self.kind == "t":
            base = sig.t_code(self.index)
        elif self.kind == "x":
            base = sig.x_code(self.index)
        else:
            base = sig.y_code(self.index)
        return base * self.sign

    @staticmethod
    def from_code(sig: Signature, code: int) -> "Letter":
        b = abs(code)
        if not 1 <= b <= sig.rank:
            raise ValueError(f"letter code {code} out of range for {sig}")
        sign = 1 if code > 0 else -1
        if b <= sig.p:
            return Letter("t", b, sign)
        off = b - sig.p - 1
        return Letter("x" if off % 2 == 0 else "y", off // 2 + 1, sign)

    @property
    def inverse(self) -> "Letter":
        return Letter(self.kind, self.index, -self.sign)

    def __str__(self) -> str:
        return f"{self.kind}{self.index}" + ("'" if self.sign < 0 else "")


def parse_letter(token: str) -> Letter:
    m = _LETTER_RE.match(token)
    if m is None:
        raise ParseError(f"bad letter token {token!r}")
    kind, idx, inv = m.groups()
    return Letter(kind, int(idx), -1 if inv else 1)


def letter_str(sig: Signature, code: int) -> str:
    if not 1 <= abs(code) <= sig.rank:
        raise ValueError(f"letter code {code} out of range for {sig}")
    return _letter_names(sig)[code]


#: Per signature, the tables of ``_letter_names`` and ``_letter_codes``.
#: ``_Memo``s, not ``memo``s: ``MEMO_SIZE`` bounds them when they grow, so a
#: bound set after this module is imported still holds for them.
_name_tables = _Memo()
_code_tables = _Memo()


def _letter_names(sig: Signature) -> tuple:
    """The name of every signed code c of ``sig`` at index c, in ``_NEG``'s
    layout: a negative code reads from the end, and index 0 holds ``None``.
    ``Letter`` is the reference it is built from, once per basis letter."""

    def build() -> tuple:
        names = [None] * (2 * sig.rank + 1)
        for c in sig.basis_codes():
            letter = Letter.from_code(sig, c)
            names[c], names[-c] = str(letter), str(letter.inverse)
        return tuple(names)

    return _name_tables.lookup(sig, build)


def _letter_codes(sig: Signature) -> dict:
    """The signed code of every letter name of ``sig``: the inverse of
    ``_letter_names``."""

    def build() -> dict:
        names = _letter_names(sig)
        return {names[c]: c for c in range(-sig.rank, sig.rank + 1) if c}

    return _code_tables.lookup(sig, build)


@dataclass(frozen=True, slots=True)
class Word:
    """A freely reduced word; reduction happens at construction."""

    sig: Signature
    codes: tuple[int, ...]

    def __post_init__(self) -> None:
        rank = self.sig.rank
        out: list[int] = []
        for c in self.codes:
            # before it is reduced, so that a bad letter cannot cancel away
            if not 1 <= abs(c) <= rank:
                raise ValueError(f"letter code {c} out of range for {self.sig}")
            if out and out[-1] == -c:
                out.pop()
            else:
                out.append(_NEG[-c])  # the table's object: _NEG[-c] == c
        object.__setattr__(self, "codes", tuple(out))

    @staticmethod
    def identity(sig: Signature) -> "Word":
        return _word(sig, ())

    @staticmethod
    def from_letters(sig: Signature, letters: Iterable[Letter]) -> "Word":
        return Word(sig, tuple(l.code(sig) for l in letters))

    def letters(self) -> Iterator[Letter]:
        for c in self.codes:
            yield Letter.from_code(self.sig, c)

    def __len__(self) -> int:
        return len(self.codes)

    def __mul__(self, other: "Word") -> "Word":
        sig = self.sig
        if other.sig != sig:
            raise SignatureMismatch(f"{sig} vs {other.sig}")
        a, b = self.codes, other.codes
        if not a:
            return other
        if not b:
            return self
        return _word(sig, _join_codes(a, b))

    def inverse(self) -> "Word":
        return _word(self.sig, tuple([_NEG[c] for c in reversed(self.codes)]))

    def conjugate_by(self, v: "Word") -> "Word":
        """u^v = v' u v."""
        return v.inverse() * self * v

    def __str__(self) -> str:
        if not self.codes:
            return "1"
        return " ".join(map(_letter_names(self.sig).__getitem__, self.codes))

    def lenlex_key(self) -> tuple:
        return (len(self.codes), tuple(order_rank(c) for c in self.codes))

    def cyclic_reduction(self) -> tuple["Word", "Word"]:
        """Return (core, r) with self = r * core * r' and core cyclically reduced."""
        codes = self.codes
        i, j = 0, len(codes)
        while j - i >= 2 and codes[i] == -codes[j - 1]:
            i += 1
            j -= 1
        return _word(self.sig, codes[i:j]), _word(self.sig, codes[:i])


_new = object.__new__
_set_sig = Word.sig.__set__
_set_codes = Word.codes.__set__


def _join_codes(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The codes of the product of the reduced words with codes ``a`` and
    ``b``: both are reduced, so cancellation happens only at the seam."""
    i, j, n = len(a), 0, len(b)
    while i and j < n and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:] if j else a + b


def _word(sig: Signature, codes: tuple[int, ...]) -> Word:
    """Trusted constructor: ``codes`` must be a freely reduced tuple of letter
    codes in range for ``sig``.  Skips the checks of ``Word.__post_init__``."""
    w = _new(Word)
    _set_sig(w, sig)
    _set_codes(w, codes)
    return w


def free_reduce(sig: Signature, letters: Iterable) -> Word:
    """Freely reduce a sequence of Letters or signed codes."""
    codes = tuple(l.code(sig) if isinstance(l, Letter) else int(l) for l in letters)
    return Word(sig, codes)


def multiply(u: Word, v: Word) -> Word:
    return u * v


def invert(u: Word) -> Word:
    return u.inverse()


def conjugate(u: Word, v: Word) -> Word:
    return u.conjugate_by(v)


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u' v' u v."""
    return u.inverse() * v.inverse() * u * v


def parse_word(sig: Signature, text: str) -> Word:
    tokens = text.split()
    if not tokens:
        raise ParseError("empty word text; use '1' for the identity")
    if tokens == ["1"]:
        return Word.identity(sig)
    codes = tuple(map(_letter_codes(sig).get, tokens))
    if None not in codes:
        return Word(sig, codes)
    # a token that names no letter of ``sig``: the reference parse raises,
    # and names the first malformed token, else the first out of range
    letters = [parse_letter(tok) for tok in tokens]
    try:
        return Word.from_letters(sig, letters)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def relator(sig: Signature) -> Word:
    """The surface relator t_p .. t_1 [x_1,y_1] .. [x_g,y_g]."""
    codes: list[int] = [sig.t_code(j) for j in range(sig.p, 0, -1)]
    for i in range(1, sig.g + 1):
        x, y = sig.x_code(i), sig.y_code(i)
        codes += [_NEG[x], _NEG[y], x, y]
    return _word(sig, tuple(codes))  # distinct neighbours: reduced, in range


class GroupRingElement:
    """Finite integer combination of words; supports addition, negation and
    right multiplication by a word, which is all Fox calculus needs."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig: Signature, terms: Mapping[Word, int] | None = None):
        self.sig = sig
        cleaned = {w: c for w, c in (terms or {}).items() if c != 0}
        self.terms: dict[Word, int] = cleaned

    @staticmethod
    def zero(sig: Signature) -> "GroupRingElement":
        return GroupRingElement(sig)

    @staticmethod
    def of(w: Word, coeff: int = 1) -> "GroupRingElement":
        return GroupRingElement(w.sig, {w: coeff})

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        if self.sig != other.sig:
            raise SignatureMismatch(f"{self.sig} vs {other.sig}")
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return GroupRingElement(self.sig, terms)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.sig, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def right_mul(self, v: Word) -> "GroupRingElement":
        terms: dict[Word, int] = {}
        for w, c in self.terms.items():
            wv = w * v
            terms[wv] = terms.get(wv, 0) + c
        return GroupRingElement(self.sig, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupRingElement)
            and self.sig == other.sig
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.sig, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=Word.lenlex_key):
            c = self.terms[w]
            parts.append(f"{c:+d}*({w})")
        return " ".join(parts)

    __repr__ = __str__


def fox_derivative(u: Word, w: Letter | int) -> GroupRingElement:
    """Fox derivative of u with respect to the positive basis letter w.

    Satisfies the basis rule v^d = delta(v, w) and the product rule
    (uv)^d = u^d * v + v^d; the inverse rule follows.
    """
    sig = u.sig
    wc = w.code(sig) if isinstance(w, Letter) else int(w)
    if wc <= 0 or wc > sig.rank:
        raise ValueError(f"fox_derivative needs a positive basis letter, got {wc}")
    total: dict[Word, int] = {}
    for k, c in enumerate(u.codes):
        if abs(c) != wc:
            continue
        # letter rule: w^d = 1, (w')^d = -(w'); then right-multiply by the tail
        if c == wc:
            term = Word(sig, u.codes[k + 1 :])
            coeff = 1
        else:
            term = Word(sig, u.codes[k:])
            coeff = -1
        total[term] = total.get(term, 0) + coeff
    return GroupRingElement(sig, total)
