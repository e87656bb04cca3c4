"""The Zieschang groupoid: Nielsen edges, the peak-reduction engine, the
canonical normalizing edges, and automorphism certification.

Edges are triples (source, target, aut) with both endpoints Zieschang and
aut class-permuting.  ``nielsen_reduce`` factors any admissible map into
Nielsen edges followed by a letter-permutation remainder, with a strictly
decreasing termination measure checked at every step.  ``canonical_edge``
is the deterministic normalization of a Zieschang word onto the relator.

The engine builds one ``_Carry`` per call, straight from the map and the
word (the signed image table ``at``, with the codes of phi(c) for every
signed letter c, and the set of the measured words' codes), and then
updates it in place; it builds the map's ``Word``s once, for the
remainder.  A Nielsen move changes the image of one basis letter b, the
letter of v_k, so a move recomputes only what reads phi(b): b's two entries
of ``at``, and the distinct-images check, kept as a set of image codes.
The move is read off the peak (A_k, B, C) where the search found it.  An
N2 move's new image is phi(v_k) phi(v_(k+1)) = B A_k' A_k C' = B C', and its
inverse C B': both are slices of ``at``, and nothing cancels between them,
because A_k is the longest common prefix.  An N3 move conjugates, so its
new image and its inverse each join one of those two products with one
entry of ``at``, at the one seam that can cancel.
The measure (``mu_key``, ordered as ``PreOrderKey``) is the sorted list of
the entries' keys, so whether it strictly decreased is read off the
replaced entries alone (``_decreases``), and their codes are compared as
their keys would be, by length first and on a tie by ``order_rank`` on the
balanced left halves, with no key built.  No verdict is kept across moves:
the search for a violation works out each position's verdict where it reads
it, and resumes where the last one was found, or earlier where the move
changed a letter of the word or b's letter occurs: every position before
that kept the verdict ().  A verdict reads code tuples from ``at`` only:
A_k is the longest common prefix of phi(v_k)' and phi(v_(k+1)), it cancels
completely in B = phi(v_k) A_k and C = phi(v_(k+1))' A_k, so B and C are
slices, and lenlex compares lengths first and then ``order_rank`` from a
per-signature table.  Most verdicts are decided on lengths alone: A_k is below B and C
when twice its length is below |phi(v_k)| and |phi(v_(k+1))|, so only the
other pairs take the slices.  Words are built for the stuck payload only.

Each edge end is checked once.  Public edges (``GroupoidEdge``,
``nielsen_edge``) check their source; the N1 remainder and the
factorisation case tables' edges are built by the trusted ``_edge``,
because their source is the checked input or the end of a checked edge.
``_edge`` computes the target as the image of the source, so it checks only
that target (``is_zieschang``, a walk along the chain, in
``_template_edge``) and then the class permutation.  The Nielsen templates
are one-letter moves (``letter_move``), witnessed by construction; a
template fixes or conjugates every puncture letter, so it permutes the
classes by construction, and a template edge checks its target only.
``GroupoidEdge.inverse`` swaps the ends of its edge, which were checked,
and checks nothing.  The step (vii)
maps of ``canonical_edge`` and the N1 remainder are witnessed by
construction as well.  Every target and every step's word is the image of
its source under ``apply``.  ``canonical_edge`` applies each step's map
(step (vii) reads the chain line off the walk of ``is_zieschang``, one
pass over the codes), collects its steps, composes them once per call
(witnessed by algebra, see ``endo.compose``) and checks that the composite
carries the word to the relator.

Five memos (``core.memo``, the ``lru_cache`` form of the package's one
bounded LRU memo layer in ``core``; ``core._Memo`` is the other) keep pure
functions of their keys, and a raise stores nothing: ``canonical_edge`` and
``_step`` per word; ``_nielsen_edge`` per (source, tag, k), so a hit returns
an edge whose target and class permutation were checked on an equal key;
``_template_move``, the template pair per (signature, tag, moved letter,
neighbour letter); and ``_rank_table`` per signature.

``canonical_edge`` follows ``_step`` links.  Each move of steps (i)-(vii)
reads only the current word: ``_first_move`` fires on the first block of
the word that differs from the relator's.  So the walk from V is its first
move followed by the walk from the word that move reaches, and ``_step``
keeps that first move per word, its map and record, once the word it
reaches is checked Zieschang.  A walk that reaches a word an earlier walk
left follows the stored links from there and builds no map for them.
``_first_move`` is None only when all p + g blocks match, and they cover
all 4g + p letters, so every walk ends at the relator.  Each call composes
its maps once and checks that the composite carries V to the relator.

The loop ``_reduce_from`` has three entries.  ``nielsen_reduce`` is the
one that checks the public preconditions (``NotZieschang``,
``TargetTooLong``, ``HypothesisViolated``) and runs the loop with no memo,
towards W = phi(V).  Certification and factorisation enter it at the
relator, with the relator as W: each checks the relator and the class
permutation of its input itself (factorisation through ``membership`` at
the top level), and at a level of the recursion the loop's own end checks
test both facts for W: the remainder is a letter permutation, and its N1
edge permutes the classes and ends at W.  Factorisation passes its memo of
reduction suffixes (``factorize._reduced``), keyed on each state after the
first (``_Carry.key``): the rest of a reduction is a function of the
current word and images alone, so a hit appends the edges that an earlier
reduction made from an equal state and returns its remainder, once that
remainder is checked to end at W.

Certification (``certify_automorphism``) checks that the map fixes the
relator and permutes the classes, and enters the loop past those checks
with the relator as the target.  The certificate is read off the edges in
one linear pass: each edge and the remainder is a pair witnessed by
construction, so the composite pair is witnessed by algebra, once the
forward composite, folded one moved letter at a time, is checked to be the
input map.  No substitution of the long inverse images into the long input
images is made, which would cost work quadratic in the images' length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import (
    _NEG,
    Signature,
    Word,
    _Memo,
    _join_codes,
    _word,
    letter_str,
    memo,
    order_rank,
    relator,
)
from .endo import (
    Automorphism,
    Endomorphism,
    _aut,
    _compose_endos,
    _endo,
    _fwd,
    _substitute,
    _t_class_permutation,
    classify_letters,
    compose,
    letter_move,
    swap_letters,
)
from .errors import (
    CosetViolation,
    HypothesisViolated,
    NotZieschang,
    ReductionStuck,
    TargetTooLong,
)
from .whitehead import _chain_line, is_zieschang

N1 = "N1"
N2_RIGHT = "N2_right"
N2_LEFT = "N2_left"
N3_RIGHT = "N3_right"
N3_LEFT = "N3_left"

_NOT_CARRIED = "edge automorphism does not carry source to target"
_NOT_PERMUTED = "edge automorphism does not permute the puncture classes"


@dataclass(frozen=True, slots=True)
class NielsenKind:
    """Tag plus the 1-based chain position of the moved letter (None for N1)."""

    tag: str
    k: Optional[int] = None

    def __str__(self) -> str:
        return self.tag if self.k is None else f"{self.tag} k={self.k}"


@dataclass(frozen=True)
class GroupoidEdge:
    """(source, target, aut) with aut carrying source onto target."""

    source: Word
    target: Word
    aut: Automorphism
    kind: Optional[NielsenKind] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        sig = self.source.sig
        if not is_zieschang(self.source, sig):
            raise NotZieschang(f"edge source {self.source} is not Zieschang")
        if self.aut.apply(self.source) != self.target:
            raise CosetViolation(_NOT_CARRIED)
        if not is_zieschang(self.target, sig):
            raise NotZieschang(f"edge target {self.target} is not Zieschang")
        if _t_class_permutation(self.aut.fwd) is None:
            raise CosetViolation(_NOT_PERMUTED)

    @property
    def sig(self) -> Signature:
        return self.source.sig

    def inverse(self) -> "GroupoidEdge":
        # both ends and the class permutation were checked on this edge, and
        # the inverse map carries the target back to the source
        inv = self.aut.inverse()
        return _edge_to(self.target, self.source, inv, classify_nielsen_map(self.target, inv))


def _edge(source: Word, aut: Automorphism, kind: Optional[NielsenKind]) -> GroupoidEdge:
    """Trusted constructor for the edge from a source already known to be
    Zieschang (a checked input or the target of a checked edge) to its image
    under ``aut``: the target check of ``_template_edge``, then the class
    permutation.  The engine built ``aut``, so a failed check is an engine
    fault and raises ``CosetViolation``."""
    e = _template_edge(source, aut, kind)
    if _t_class_permutation(aut.fwd) is None:
        raise CosetViolation(_NOT_PERMUTED)
    return e


def _edge_to(
    source: Word, target: Word, aut: Automorphism, kind: Optional[NielsenKind]
) -> GroupoidEdge:
    """The edge from ``source`` to ``target``, the image of the source under
    ``aut``, with no check: its caller checks the target."""
    e = object.__new__(GroupoidEdge)
    setf = object.__setattr__  # the dataclass is frozen
    setf(e, "source", source)
    setf(e, "target", target)
    setf(e, "aut", aut)
    setf(e, "kind", kind)
    return e


def _template_edge(V: Word, aut: Automorphism, kind: Optional[NielsenKind]) -> GroupoidEdge:
    """The edge of the Nielsen template ``aut`` at ``kind`` from V, which is
    known to be Zieschang.  A template fixes every puncture letter (N2) or
    conjugates one (N3), so it permutes the classes by construction and only
    its target is checked."""
    target = aut.apply(V)
    if not is_zieschang(target, V.sig):
        raise CosetViolation(f"edge target {target} is not Zieschang")
    return _edge_to(V, target, aut, kind)


def _template_aut(V: Word, tag: str, k: int) -> Optional[Automorphism]:
    """The Nielsen template automorphism at chain position k, or None when the
    position/letter-type constraints fail."""
    sig = V.sig
    v = V.codes
    if tag in (N2_RIGHT, N3_RIGHT):
        if not 1 <= k <= len(v) - 1:
            return None
        u, c = v[k - 1], v[k]
    else:
        if not 2 <= k <= len(v):
            return None
        u, c = v[k - 1], v[k - 2]
    # N3 moves a puncture letter, N2 a handle letter
    if sig.is_t_code(u) != (tag in (N3_RIGHT, N3_LEFT)):
        return None
    return _template_move(sig, tag, u, c)


@memo
def _template_move(sig: Signature, tag: str, u: int, c: int) -> Automorphism:
    """The template pair moving the letter u past its neighbour c: u -> u c'
    (N2_right), c u c' (N3_right), c' u (N2_left) or c' u c (N3_left)."""
    ci = _NEG[c]
    left, right = {
        N2_RIGHT: ((), (ci,)),
        N3_RIGHT: ((c,), (ci,)),
        N2_LEFT: ((ci,), ()),
        N3_LEFT: ((ci,), (c,)),
    }[tag]
    return letter_move(sig, u, _word(sig, left), _word(sig, right))


def nielsen_edge(V: Word, tag: str, k: int) -> GroupoidEdge:
    """Construct the Nielsen edge of the given kind with source V."""
    if not is_zieschang(V, V.sig):
        raise NotZieschang(f"edge source {V} is not Zieschang")
    return _nielsen_edge(V, tag, k)


@memo
def _nielsen_edge(V: Word, tag: str, k: int) -> GroupoidEdge:
    """``nielsen_edge`` for a source V already known to be Zieschang."""
    aut = _template_aut(V, tag, k)
    if aut is None:
        raise CosetViolation(f"no {tag} template at k={k} for {V}")
    return _template_edge(V, aut, NielsenKind(tag, k))


def classify_nielsen_map(V: Word, aut: Automorphism) -> Optional[NielsenKind]:
    """N1 when ``aut`` permutes the letters, else the first N2/N3 kind, in
    tag-then-k order, whose template on V has the forward map of ``aut``;
    None when there is none."""
    if classify_letters(aut.fwd) is not None:
        return NielsenKind(N1)
    # the template at chain position k moves exactly the basis letter |v_k|,
    # so only the positions of the one letter aut moves can match
    moved = aut.fwd.moved_codes()
    if len(moved) != 1:
        return None
    positions = [k for k, c in enumerate(V.codes, 1) if abs(c) == moved[0]]
    for tag in (N2_RIGHT, N2_LEFT, N3_RIGHT, N3_LEFT):
        for k in positions:
            cand = _template_aut(V, tag, k)
            if cand is not None and cand.fwd == aut.fwd:
                return NielsenKind(tag, k)
    return None


def classify_nielsen(e: GroupoidEdge) -> Optional[NielsenKind]:
    """Match the edge against the five Nielsen templates on its source chain."""
    return classify_nielsen_map(e.source, e.aut)


def enumerate_nielsen_from(V: Word) -> list[GroupoidEdge]:
    """All N2/N3 edges with source V, in deterministic template order."""
    sig = V.sig
    if not is_zieschang(V, sig):
        raise NotZieschang(f"{V} is not Zieschang")
    out = []
    n = len(V.codes)
    for tag in (N2_RIGHT, N2_LEFT, N3_RIGHT, N3_LEFT):
        for k in range(1, n + 1):
            aut = _template_aut(V, tag, k)
            if aut is not None:
                out.append(_template_edge(V, aut, NielsenKind(tag, k)))
    return out


@memo
def _rank_table(sig: Signature) -> tuple[int, ...]:
    """``order_rank`` of every signed letter of ``sig``, indexed by its code;
    a negative code reads from the end of the tuple."""
    table = [0] * (2 * sig.rank + 1)
    for b in sig.basis_codes():
        table[b], table[-b] = order_rank(b), order_rank(-b)
    return tuple(table)


def _balanced_key(w: Word) -> tuple[int, tuple[int, ...]]:
    """Length-first key on the balanced left half, |left| - |right| in {0, 1}."""
    return _key_of(w.codes, _rank_table(w.sig))


def _key_of(
    codes: tuple[int, ...], rank: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """``_balanced_key`` of the word ``codes``, with ``rank`` its signature's
    ``_rank_table``."""
    return (len(codes), tuple([rank[c] for c in codes[: (len(codes) + 1) // 2]]))


@dataclass(frozen=True)
class PreOrderKey:
    """Multiset measure of the basis images: puncture letters contribute one
    image, handle letters both signs.  Ordered by the sorted balanced keys;
    ``order`` holds the position in the measured word list of each sorted
    entry."""

    words: tuple[Word, ...]
    keys: tuple[tuple[int, tuple[int, ...]], ...] = field(compare=False)
    order: tuple[int, ...] = field(compare=False)

    @staticmethod
    def of(words: list[Word]) -> "PreOrderKey":
        # the index breaks ties, so this is the stable sort of the words by key
        keyed = sorted((_balanced_key(w), i) for i, w in enumerate(words))
        return PreOrderKey(
            tuple(words[i] for _, i in keyed),
            tuple(k for k, _ in keyed),
            tuple(i for _, i in keyed),
        )

    def __lt__(self, other: "PreOrderKey") -> bool:
        return self.keys < other.keys

    def __le__(self, other: "PreOrderKey") -> bool:
        return self.keys <= other.keys


def mu_key(phi) -> PreOrderKey:
    """The termination measure of the reduction engine."""
    endo = _fwd(phi)
    sig = endo.sig
    words = []
    for b, w in enumerate(endo.images, 1):
        words.append(w)
        if not sig.is_t_code(b):
            words.append(w.inverse())
    return PreOrderKey.of(words)


def _key_less(u: tuple[int, ...], v: tuple[int, ...], rank: tuple[int, ...]) -> bool:
    """``_key_of(u, rank) < _key_of(v, rank)``, without building either key:
    the shorter word first, and for one length the balanced left halves in
    lenlex order (``_lenlex_less``)."""
    if len(u) != len(v):
        return len(u) < len(v)
    half = (len(u) + 1) // 2
    return _lenlex_less(u[:half], v[:half], rank)


def _decreases(removed: list, inserted: list, rank: tuple[int, ...]) -> bool:
    """Whether the measure, the sorted list of all entry keys, falls when
    the one or two entries with the codes ``removed`` are replaced by as many
    with the codes ``inserted``.  Entries compare as their keys do
    (``_key_less``), so no key is built.

    For two multisets X and Y of one size, cancel the keys they share.  If
    nothing is left, X = Y.  Otherwise the least key m left is in one of
    them only; below m they agree, and X holds more copies of m exactly when
    m is left in X.  Then, at the first position past Y's copies of m,
    sorted X holds m and sorted Y a larger key: sorted(X) < sorted(Y).  So
    the order of the sorted lists is read off what is left after cancelling.
    For the measures after and before the move, what is left is ``inserted``
    and ``removed`` cancelled against each other, exactly as for the two
    entry lists, so these compare as the measures do.

    Two sorted lists compare on their least keys first, and a key leads
    with its word's length, so when the least lengths differ they decide;
    the two words of a handle letter, b and b', have one length."""
    if len(removed) == 1:
        return _key_less(inserted[0], removed[0], rank)
    i0, i1 = inserted
    r0, r1 = removed
    new, old = min(len(i0), len(i1)), min(len(r0), len(r1))
    if new != old:
        return new < old
    if _key_less(i1, i0, rank):
        i0, i1 = i1, i0
    if _key_less(r1, r0, rank):
        r0, r1 = r1, r0
    if _key_less(i0, r0, rank):
        return True
    return not _key_less(r0, i0, rank) and _key_less(i1, r1, rank)


class _Carry:
    """The state of one peak reduction, built once from the map and the
    source word and updated in place by each move.  A Nielsen move changes
    the image of one basis letter b only, so ``advance`` recomputes only the
    values that read phi(b) or phi(b'):

    - ``word``: the current source word;
    - ``at``: the codes of phi(c) for every signed letter c, indexed by c in
      ``core._NEG``'s layout, so ``at[b]`` and ``at[-b]`` are phi(b) and
      phi(b)'; a move replaces its letter's two entries.  The measured words
      are ``at[b]`` for every basis letter b, and ``at[-b]`` too when b is a
      handle letter (``mu_key``'s words), so a move replaces b's one or two
      of them, and ``_decreases`` reads the change of the sorted measure off
      those alone;
    - ``seen`` and ``distinct``: the codes of the measured words, and
      whether they are pairwise distinct;
    - ``resume``: the position where ``_find_violation`` starts.  Every
      position before the last violation had the verdict (), and keeps it
      unless a move changed one of its letters or its pair holds b's letter.
    """

    def __init__(self, endo: Endomorphism, V: Word) -> None:
        sig = self.sig = endo.sig
        self.rank = _rank_table(sig)
        self.word = V
        at = self.at = [()] * (2 * sig.rank + 1)
        for b, w in enumerate(endo.images, 1):
            at[b] = w.codes
            at[-b] = tuple([_NEG[d] for d in reversed(w.codes)])
        measured = [at[c] for b in sig.basis_codes()
                    for c in ((b,) if sig.is_t_code(b) else (b, -b))]
        self.seen = set(measured)
        self.distinct = len(self.seen) == len(measured)
        self.resume = 1

    def endo(self) -> Endomorphism:
        """The current map."""
        sig, at = self.sig, self.at
        return _endo(sig, tuple([_word(sig, at[b]) for b in sig.basis_codes()]))

    def key(self) -> tuple:
        """The codes of the current word and of the current images; their
        lengths, 4g + p and 2g + p, fix the signature."""
        return (self.word.codes, tuple(self.at[1 : self.sig.rank + 1]))

    def advance(self, edge: GroupoidEdge, peak: tuple) -> bool:
        """Move to the target of the Nielsen ``edge``, made at the peak
        (A_k, B, C) that ``_find_violation`` found, leaving the values a
        carry built from ``compose(edge.aut.inv, phi)`` and ``edge.target``
        would hold; True when the measure strictly decreased."""
        old, new = self.word.codes, edge.target.codes
        tag, k = edge.kind.tag, edge.kind.k
        # the template at chain position k moves only the signed letter
        # u = v_k, so the composite differs from phi at u alone: phi(inv(u))
        u = old[k - 1]
        b = abs(u)
        at = self.at
        # the peak pair (v_j, v_(j+1)) = (x, y), with u = x (a right move)
        # or u = y (a left move): phi(x) = B A', phi(y) = A C', and A is
        # their longest common prefix, so the product phi(x) phi(y) = B C'
        # and its inverse C B' are slices of ``at`` with nothing to cancel
        A, B, C = peak
        j = k if tag in (N2_RIGHT, N3_RIGHT) else k - 1
        x, y = old[j - 1], old[j]
        m = len(A)
        bc, cb = B + at[y][m:], C + at[-x][m:]
        if tag in (N2_RIGHT, N2_LEFT):
            # inv(u) = x y
            img, img_inv = bc, cb
        elif tag == N3_RIGHT:
            # inv(u) = y' x y
            img, img_inv = _join_codes(at[-y], bc), _join_codes(cb, at[y])
        else:
            # inv(u) = x y x'
            img, img_inv = _join_codes(bc, at[-x]), _join_codes(at[x], cb)
        self.word = edge.target
        # a verdict reads only its two letters' images, so a position before
        # the last violation, which had the verdict (), keeps it unless one
        # of its two letters changed or is +-b: the scan resumes at the
        # position whose pair (v_j, v_(j+1)) first holds such a letter, at
        # 0-based index j
        if self.sig.is_t_code(b):
            measured, first = (b,), new.index(b)
        else:
            measured, first = (b, -b), min(new.index(b), new.index(-b))
        stop = min(self.resume, first)
        for j in range(stop):
            if old[j] != new[j]:
                stop = j
                break
        self.resume = stop or 1

        seen = self.seen
        removed = [at[c] for c in measured]
        for codes in removed:
            seen.discard(codes)  # exact: the words were distinct
        at[u], at[-u] = img, img_inv
        inserted = [at[c] for c in measured]
        for codes in inserted:
            if codes in seen:
                self.distinct = False
            seen.add(codes)
        return _decreases(removed, inserted, self.rank)


_MAX_ITER_BASE = 10000


def nielsen_reduce(V: Word, phi) -> tuple[list[GroupoidEdge], GroupoidEdge]:
    """Factor phi as Nielsen edges from V followed by a letter-permutation
    remainder; the measure strictly decreases at every applied move.

    Raises NotZieschang / TargetTooLong / HypothesisViolated on precondition
    failures and ReductionStuck when the input cannot be an automorphism;
    its ``not_injective`` marks a map whose measured images coincide at some
    state, which is not injective.
    """
    endo = _fwd(phi)
    sig = endo.sig
    if not is_zieschang(V, sig):
        raise NotZieschang(f"{V} is not Zieschang")
    W = endo.apply(V)
    if len(W) > sig.chain_len:
        raise TargetTooLong(f"|image| = {len(W)} exceeds 4g+p = {sig.chain_len}")
    if _t_class_permutation(endo) is None:
        raise HypothesisViolated("map does not permute the puncture classes")
    return _reduce_from(V, endo, W, None)


def _reduce_from(
    V: Word, endo: Endomorphism, W: Word, suffixes: Optional[_Memo]
) -> tuple[list[GroupoidEdge], GroupoidEdge]:
    """The peak-reduction loop of the map ``endo`` from the Zieschang word
    V, which must end at the word W, through the memo ``suffixes`` of
    reduction suffixes when one is given.

    W is what endo(V) must be: ``nielsen_reduce`` passes endo(V) once it has
    checked that it is no longer than 4g + p and that ``endo`` permutes the
    classes; certification and factorisation reduce from the relator and
    pass the relator.  The loop itself checks both facts for W: the
    remainder must be a letter permutation (``_finish_n1``), and its N1 edge
    must permute the classes and end at W; a remainder served by the memo
    passed those checks on an equal state and must end at W as well.  So a
    map that does not carry V to W, or does not permute the classes, raises
    ``ReductionStuck`` or ``CosetViolation``.

    Every state after the first is looked up by ``_Carry.key``.  The rest of
    a reduction is a function of that state alone, so a hit serves the
    stored call's edges from the equal state on and its remainder, which
    passed every check on that state; it is taken only when the moves stay
    within this call's budget.  Once the call has its remainder, each of its
    states after the first is stored with the call's edges, the state's
    index among them and the remainder; a raise stores nothing.
    """
    sig = endo.sig
    edges: list[GroupoidEdge] = []
    keys: list[tuple] = []  # the memo key of each state after the first
    budget = _MAX_ITER_BASE + 20 * sum(len(w) for w in endo.images)
    carry = _Carry(endo, V)
    for _ in range(budget):
        if edges and suffixes is not None:
            key = carry.key()
            hit = suffixes.get(key)
            if hit is not None and len(edges) + len(hit[0]) - hit[1] < budget:
                done, i, n1 = hit
                if n1.target != W:
                    raise CosetViolation(_NOT_CARRIED)
                suffixes.move_to_end(key)
                edges.extend(done[i:])
                break
            keys.append(key)
        if not carry.distinct:
            raise ReductionStuck("basis images are not distinct", not_injective=True)
        move = _find_violation(carry)
        if move is None:
            n1 = _finish_n1(carry.endo(), carry.word, W)
            break
        tag, k, triple = move
        # the source is V or the previous target, both checked
        edge = _nielsen_edge(carry.word, tag, k)
        if not carry.advance(edge, triple):
            raise ReductionStuck(
                f"measure failed to decrease at {tag} k={k}",
                k=k,
                triple=_words(sig, triple),
            )
        edges.append(edge)
    else:
        raise ReductionStuck("iteration budget exhausted")
    # the state after move i is keyed keys[i - 1]; there are none without
    # a memo
    done = tuple(edges)
    for i, key in enumerate(keys, 1):
        suffixes.put(key, (done, i, n1))
    return edges, n1


def _lcp(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """The length of the longest common prefix of two code tuples."""
    m = 0
    for a, b in zip(u, v):
        if a != b:
            break
        m += 1
    return m


def _lenlex_less(u: tuple[int, ...], v: tuple[int, ...], rank: tuple[int, ...]) -> bool:
    """u < v in length-lexicographic order: shorter first, then by
    ``order_rank`` (read from ``rank``) at the first letter where they
    differ."""
    if len(u) != len(v):
        return len(u) < len(v)
    for a, b in zip(u, v):
        if a != b:
            return rank[a] < rank[b]
    return False


def _verdict(
    img: tuple[int, ...], next_inv: tuple[int, ...], A: tuple[int, ...],
    rank: tuple[int, ...],
) -> tuple:
    """Verdict of position k from the codes of phi(v_k), phi(v_(k+1))' and
    A_k: () when A_k is below both B = phi(v_k) A_k and C = phi(v_(k+1))' A_k
    in lenlex order, else ((A_k, B, C), whether the three are distinct,
    whether B < C), as code tuples.

    A_k is a common prefix of phi(v_k)' and phi(v_(k+1)), so it cancels
    completely in both products: B and C are the words with A_k' cut off the
    end of phi(v_k) and of phi(v_(k+1))'."""
    b = img[: len(img) - len(A)]
    c = next_inv[: len(next_inv) - len(A)]
    if _lenlex_less(A, b, rank) and _lenlex_less(A, c, rank):
        return ()
    return ((A, b, c), A != b and A != c and b != c, _lenlex_less(b, c, rank))


def _words(sig: Signature, triple) -> tuple[Word, ...]:
    """The words of a verdict's code triple (slices of reduced words)."""
    return tuple([_word(sig, codes) for codes in triple])


def _find_violation(carry: _Carry):
    """Smallest k where A_k fails to be below both neighbours, with the move.
    The scan starts at ``carry.resume``: every position before it has the
    verdict ().  Each position's verdict is worked out as it is read, from
    the current images in ``carry.at``."""
    sig = carry.sig
    codes = carry.word.codes
    at, rank = carry.at, carry.rank
    for k in range(carry.resume, len(codes)):
        a, b = codes[k - 1], codes[k]
        # A_k of length m is below B and C, of lengths |phi(v_k)| - m and
        # |phi(v_(k+1))| - m, when it is shorter than both; only the other
        # pairs compare words
        nxt = at[b]
        m = _lcp(at[-a], nxt)
        if 2 * m < len(nxt) and 2 * m < len(at[a]):
            continue
        verdict = _verdict(at[a], at[-b], nxt[:m], rank)
        if not verdict:
            continue
        carry.resume = k
        triple, distinct, left = verdict
        if not distinct:
            raise ReductionStuck(
                f"prefix words not distinct at k={k}", k=k, triple=_words(sig, triple)
            )
        if left:
            moved = codes[k]  # v_{k+1}
            tag = N3_LEFT if sig.is_t_code(moved) else N2_LEFT
            return (tag, k + 1, triple)
        moved = codes[k - 1]  # v_k
        tag = N3_RIGHT if sig.is_t_code(moved) else N2_RIGHT
        return (tag, k, triple)
    return None


def _finish_n1(endo: Endomorphism, V: Word, W: Word) -> GroupoidEdge:
    """The N1 edge of the remainder ``endo`` from V, which must end at W.
    After the range check, a signed letter permutation b -> c is inverted
    letter by letter (c -> b), so the pair is witnessed by construction."""
    sig = endo.sig
    if classify_letters(endo) is None:
        raise ReductionStuck("remainder is not a letter permutation")
    inv: list = [None] * sig.rank
    for b in sig.basis_codes():
        c = endo.images[b - 1].codes[0]
        inv[abs(c) - 1] = _word(sig, (b if c > 0 else _NEG[b],))
    aut = _aut(endo, _endo(sig, tuple(inv)))
    # V is the checked input or the last move's target
    e = _edge(V, aut, NielsenKind(N1))
    if e.target != W:
        raise CosetViolation(_NOT_CARRIED)
    return e


@dataclass(frozen=True, slots=True)
class StepRecord:
    """One fired move of the canonical normalization."""

    kind: str
    level: int
    before: Word
    after: Word

    def __str__(self) -> str:
        return f"({self.kind} k={self.level}) {self.before} => {self.after}"


@memo
def canonical_edge(V: Word) -> tuple[Automorphism, tuple[StepRecord, ...]]:
    """The deterministic edge carrying a Zieschang word onto the relator.

    Returns the composite automorphism and the log of fired moves.  Results
    are kept in a bounded LRU memo keyed on the word, that is on its
    signature and codes; the walk follows the memoised links of ``_step``
    (see the module docstring).
    """
    sig = V.sig
    if not is_zieschang(V, sig):
        raise NotZieschang(f"{V} is not Zieschang")
    auts: list[Automorphism] = []
    steps: list[StepRecord] = []
    link = _step(V)
    while link is not None:
        aut, step = link
        auts.append(aut)
        steps.append(step)
        link = _step(step.after)
    # one composite per call, checked on the word it must carry
    acc = compose(*auts) if auts else Automorphism.identity(sig)
    if acc.apply(V) != relator(sig):
        raise CosetViolation("canonical composite does not carry V to the relator")
    return acc, tuple(steps)


@memo
def _step(V: Word) -> Optional[tuple[Automorphism, StepRecord]]:
    """The first move of the walk from the Zieschang word V, its map and
    record, once the word it reaches is checked Zieschang; None at the
    relator."""
    move = _first_move(V)
    if move is None:
        return None
    aut, kind, level = move
    W = aut.apply(V)
    if not is_zieschang(W, V.sig):
        raise NotZieschang(f"canonical step ({kind}, {level}) left {W}")
    return aut, StepRecord(kind, level, V, W)


def _first_move(V: Word):
    """The move of steps (i)-(vii) that the walk fires from V, as (map, kind,
    level), or None when V is the relator.  It fires on the first block of V
    that differs from the relator's: t_p .. t_1 one letter each, then each
    [x_i, y_i] as four letters."""
    sig = V.sig
    codes = V.codes

    # puncture phase: establish the prefix t_p .. t_1
    for j in range(sig.p, 0, -1):
        done = sig.p - j
        if codes[done] == j:
            continue
        rest = codes[done:]
        m = next(idx for idx, c in enumerate(rest) if sig.is_t_code(c))
        ti = rest[m]
        if m > 0:
            P = _word(sig, rest[:m])
            return letter_move(sig, ti, P.inverse(), P), "i", j
        return swap_letters(sig, ti, sig.t_code(j)), "ii", j

    # handle phase: establish [x_i, y_i] blocks left to right
    for i in range(1, sig.g + 1):
        done = sig.p + 4 * (i - 1)
        xi, yi = sig.x_code(i), sig.y_code(i)
        if codes[done : done + 4] == (-xi, -yi, xi, yi):
            continue
        a = codes[done]
        if a != -xi:
            return swap_letters(sig, a, -xi), "iv", i
        rest = codes[done:]
        mpos = rest.index(xi)
        P, Q = rest[1:mpos], rest[mpos + 1 :]
        if len(P) >= 2:
            qset = set(Q)
            b_idx = next(idx for idx, c in enumerate(P) if -c in qset)
            b = P[b_idx]
            P1, P2 = _word(sig, P[:b_idx]), _word(sig, P[b_idx + 1 :])
            return letter_move(sig, b, P1.inverse(), P2.inverse()), "v", i
        b = P[0]
        if b != -yi:
            return swap_letters(sig, b, -yi), "vi", i
        # the block starts x_i' y_i' x_i, so a segment sits before y_i
        return _whitehead_step(V, sig, i, done), "vii", i
    return None


def _whitehead_step(cur: Word, sig: Signature, i: int, done: int) -> Automorphism:
    """Step (vii): push the segment between x_i and y_i' past the block,
    multiplying exactly the letters whose chain segment sits inside it.
    After the checks on the segment the pair is witnessed by construction."""
    xi, yi = sig.x_code(i), sig.y_code(i)
    rest = cur.codes[done:]
    qpos = rest.index(yi)
    mid = rest[3:qpos]
    tail = rest[qpos + 1 :]
    line, n = _chain_line(sig, cur.codes), sig.chain_len + sig.p
    if len(line) != n:
        raise CosetViolation(f"chain line has {len(line)} of {n} vertices")
    i1, i2 = line.index(-mid[0]), line.index(mid[-1])
    lo, hi = min(i1, i2), max(i1, i2)
    segment = set(line[lo : hi + 1])
    for forbidden in (xi, -xi, yi, -yi):
        if forbidden in segment:
            raise CosetViolation(f"segment contains {letter_str(sig, forbidden)}")
    if any(sig.is_t_code(c) for c in segment):
        raise CosetViolation("segment contains a puncture letter")
    # b -> L b R and back b -> L' b R', with L and R empty or the letter
    # y_i or y_i': the segment holds neither y_i nor y_i', so both maps fix
    # y_i, b is not y_i's letter and the images are reduced as written, and
    # each map undoes the other
    fwd = list(Endomorphism.identity(sig).images)
    inv = fwd[:]
    yi_inv = _NEG[yi]
    for b in sig.basis_codes():
        left = (yi,) if -b in segment else ()
        right = (yi_inv,) if b in segment else ()
        if left or right:
            fwd[b - 1] = _word(sig, left + (b,) + right)
            inv[b - 1] = _word(sig, (yi_inv,) * len(left) + (b,) + (yi,) * len(right))
    aut = _aut(_endo(sig, tuple(fwd)), _endo(sig, tuple(inv)))
    mid_word, tail_word = _word(sig, mid), _word(sig, tail)
    y_word = _word(sig, (yi,))
    if aut.apply(tail_word) != tail_word:
        raise CosetViolation("whitehead step moved the tail")
    if aut.apply(mid_word) != y_word * mid_word * y_word.inverse():
        raise CosetViolation("whitehead step failed to conjugate the segment word")
    return aut


def certify_automorphism(phi) -> Optional[Automorphism]:
    """Certify an endomorphism fixing the relator and permuting the puncture
    classes.  Returns None when reduction gets stuck (the map is not an
    automorphism).

    The reduction, entered past the two checks made here, factors the map as
    its Nielsen edges e_1 .. e_n, applied first, followed by the N1
    remainder.  Each edge is a one-letter move of the letter b of v_k, and
    the remainder a letter permutation, each pair witnessed by construction,
    so the composite of the pairs is witnessed by algebra, as in
    ``endo.compose``.  Its forward map is folded from the right and must
    give back the input (``CosetViolation`` otherwise, an engine fault); its
    inverse is the remainder's inverse followed by the edges' inverses in
    reverse order, folded from the right as well.  Each fold substitutes the
    images so far into the 2-3 letter image of b only, so certification
    costs work linear in the images' lengths.
    """
    endo = _fwd(phi)
    sig = endo.sig
    v0 = relator(sig)
    if endo.apply(v0) != v0:
        raise HypothesisViolated("relator is not fixed")
    if _t_class_permutation(endo) is None:
        raise HypothesisViolated("puncture classes are not permuted")
    try:
        edges, n1 = _reduce_from(v0, endo, v0, None)
    except ReductionStuck:
        return None
    moves = [(abs(e.source.codes[e.kind.k - 1]), e.aut) for e in edges]
    fwd = list(n1.aut.fwd.images)
    _fold_moves(sig, fwd, [(b, aut.fwd) for b, aut in reversed(moves)])
    if tuple(fwd) != endo.images:
        raise CosetViolation("Nielsen edges do not recompose the input")
    inv = list(Endomorphism.identity(sig).images)
    _fold_moves(sig, inv, [(b, aut.inv) for b, aut in moves])
    return _aut(endo, _compose_endos([n1.aut.inv, _endo(sig, tuple(inv))]))


def _fold_moves(
    sig: Signature, images: list[Word], moves: list[tuple[int, Endomorphism]]
) -> None:
    """Compose, in place, each map of ``moves`` in turn before the map with
    the basis images ``images``: a move (b, f), where f moves the letter b
    only, replaces b's image by the images substituted into f(b).  The
    inverse images that ``_substitute`` keeps stay valid until their letter
    moves."""
    inv: dict[int, tuple[int, ...]] = {}
    for b, f in moves:
        images[b - 1] = _word(sig, _substitute(images, f.images[b - 1].codes, inv))
        inv.pop(-b, None)
