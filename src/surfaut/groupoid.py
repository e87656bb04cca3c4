"""The Zieschang groupoid: Nielsen edges, the peak-reduction engine, the
canonical normalizing edges, and automorphism certification.

Edges are triples (source, target, aut) with both endpoints Zieschang and
aut class-permuting.  ``nielsen_reduce`` factors any admissible map into
Nielsen edges followed by a letter-permutation remainder, with a strictly
decreasing termination measure checked at every step.  ``canonical_edge``
is the deterministic normalization of a Zieschang word onto the relator.

The engine builds one ``ReductionState`` per call (``_state_of``: the map,
the word and the measure) and then updates one ``_Carry`` in place.  A
Nielsen move changes the image of one basis letter b, the letter of v_k, so
a move recomputes only what reads phi(b): the new phi(b), one substitution
into the old images; b's one or two entries of the sorted measure keys,
deleted and re-inserted by bisection; the distinct-images check, kept as a
set of image codes; and the verdict of each letter pair (v_k, v_(k+1)) that
involves b.  The measure decreases when the sorted keys after the move are
below those before it, the order of ``PreOrderKey``.  The verdicts are
memoised per letter pair and indexed by basis letter, so a move drops b's
pairs without scanning the others.  A verdict reads code tuples only: A_k
is the longest common prefix of phi(v_k)' and phi(v_(k+1)), it cancels
completely in B = phi(v_k) A_k and C = phi(v_(k+1))' A_k, so B and C are
slices, and lenlex compares lengths first and then ``order_rank`` from a
per-signature table.  Words are built for the stuck payload only.

Each edge end is checked once.  Public edges (``GroupoidEdge``,
``nielsen_edge``) check their source; the engine's Nielsen edges, the
factorisation case tables' edges and ``GroupoidEdge.inverse`` are built by
the trusted ``_edge``, because their source is the checked input or the
end of a checked edge.  ``_edge`` computes the target as the image of the
source, so it checks only that target (``is_zieschang``, a walk along the
chain) and the class permutation.  The Nielsen templates are one-letter
moves (``letter_move``), witnessed by construction; a template moves only
the letter of v_k, so its target is spliced (``endo._splice``) from the
source's runs between that letter's occurrences.  A template fixes or
conjugates every puncture letter, so it permutes the classes by
construction, and a template edge checks its target only.  The step (vii) maps of
``canonical_edge`` and the N1 remainder are witnessed by construction as
well.  ``canonical_edge`` splices the words of steps (i), (ii), (iv), (v)
and (vi) the same way from the letters each step moves, applies step (vii),
collects its steps, composes them once per call (witnessed by algebra, see
``endo.compose``) and checks that the composite carries the word to the
relator.

Five memos (``core.memo``, the package's one bounded LRU) keep pure
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

``nielsen_reduce`` runs the loop ``_reduce`` with no memo.  Factorisation
passes its memo of reduction suffixes (``factorize._reduced``), keyed on each
state after the first (``_Carry.key``): the rest of a reduction is a
function of the current word and images alone, so a hit appends the edges
that an earlier reduction made from an equal state and returns its
remainder, once that remainder is checked to end at this call's target.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

from .core import Signature, Word, _Memo, _word, letter_str, memo, order_rank, relator
from .endo import (
    Automorphism,
    Endomorphism,
    _aut,
    _compose_endos,
    _endo,
    _fwd,
    _splice,
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
from .whitehead import build_graph, chain_line, is_zieschang

N1 = "N1"
N2_RIGHT = "N2_right"
N2_LEFT = "N2_left"
N3_RIGHT = "N3_right"
N3_LEFT = "N3_left"

_NOT_CARRIED = "edge automorphism does not carry source to target"


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
        if not is_zieschang(self.source, self.source.sig):
            raise NotZieschang(f"edge source {self.source} is not Zieschang")
        if self.aut.apply(self.source) != self.target:
            raise CosetViolation(_NOT_CARRIED)
        self._check_target(NotZieschang)

    def _check_target(self, not_zieschang: type[Exception]) -> None:
        """The checks left once the target is known to be the image of the
        source: the target is Zieschang (``not_zieschang`` is raised
        otherwise) and the map permutes the classes."""
        if not is_zieschang(self.target, self.source.sig):
            raise not_zieschang(f"edge target {self.target} is not Zieschang")
        if _t_class_permutation(self.aut.fwd) is None:
            raise CosetViolation(
                "edge automorphism does not permute the puncture classes"
            )

    @property
    def sig(self) -> Signature:
        return self.source.sig

    def inverse(self) -> "GroupoidEdge":
        # the target is a checked end, and the inverse map carries it back
        inv = self.aut.inverse()
        return _edge(self.target, inv, classify_nielsen_map(self.target, inv))


def _edge(source: Word, aut: Automorphism, kind: Optional[NielsenKind]) -> GroupoidEdge:
    """Trusted constructor for the edge from a source already known to be
    Zieschang (a checked input or the target of a checked edge) to its image
    under ``aut``; it runs ``GroupoidEdge``'s checks on that target.  The
    engine built ``aut``, so a target that is not Zieschang is an engine
    fault and raises ``CosetViolation``, not ``NotZieschang``."""
    e = _edge_to(source, aut.apply(source), aut, kind)
    e._check_target(CosetViolation)
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


def _spliced(aut: Automorphism, V: Word, moved) -> Word:
    """The image of V under ``aut``, which moves no basis letter outside the
    distinct letters ``moved``."""
    return _word(V.sig, _splice(aut.fwd.images, V.codes, moved))


def _template_edge(V: Word, aut: Automorphism, kind: NielsenKind) -> GroupoidEdge:
    """The edge of the Nielsen template ``aut`` at ``kind`` from V; the
    template moves only the letter of v_k, so its target is spliced.  A
    template fixes every puncture letter (N2) or conjugates one (N3), so it
    permutes the classes by construction and only its target is checked."""
    target = _spliced(aut, V, (abs(V.codes[kind.k - 1]),))
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
    left, right = {
        N2_RIGHT: ((), (-c,)),
        N3_RIGHT: ((c,), (-c,)),
        N2_LEFT: ((-c,), ()),
        N3_LEFT: ((-c,), (c,)),
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


def _measure_position(sig: Signature, b: int) -> int:
    """Position of phi(b) in the word list ``mu_key`` measures; for a handle
    letter, phi(b)' follows at the next position."""
    return b - 1 if sig.is_t_code(b) else sig.p + 2 * (b - sig.p - 1)


@dataclass(frozen=True)
class ReductionState:
    """Snapshot of the reduction: current map, current source word and the
    measure.  The engine builds one per call, the one its ``_Carry`` starts
    from."""

    phi: Endomorphism
    word: Word
    mu: PreOrderKey


def _state_of(endo: Endomorphism, V: Word) -> ReductionState:
    return ReductionState(endo, V, mu_key(endo))


class _Carry:
    """The state of one ``nielsen_reduce`` call, built once from a
    ``ReductionState`` and updated in place by each move.  A Nielsen move
    changes the image of one basis letter b only, so ``advance`` recomputes
    only the values that read phi(b) or phi(b'):

    - ``word``: the current source word; ``images``: the basis images of
      the current map; ``inv``: the codes of phi(c) for the negative letters
      c read since c's letter last moved;
    - ``verdicts``: the verdict of position k, per letter pair
      (v_k, v_(k+1)), built when ``_find_violation`` first needs it; it
      depends only on the pair and the two letters' images;
    - ``pairs``: for each basis letter, the pairs memoised since it last
      moved that involve it, so that a move drops only its letter's pairs;
    - ``keys`` and ``ranks``: the measure's keys in sorted order, and the
      same entries as (key, position) pairs, ``PreOrderKey.of``'s order;
      ``key_at`` and ``codes_at``: the key and the word's codes at each
      position of the measured word list.  A move deletes b's one or two
      entries and inserts the new ones by bisection;
    - ``seen`` and ``distinct``: the codes of the measure words, and whether
      they are pairwise distinct.
    """

    def __init__(self, state: ReductionState) -> None:
        mu = state.mu
        self.sig = state.phi.sig
        self.rank = _rank_table(self.sig)
        self.word = state.word
        self.images = list(state.phi.images)
        self.inv: dict[int, tuple[int, ...]] = {}
        self.verdicts: dict[tuple[int, int], tuple] = {}
        self.pairs: dict[int, list[tuple[int, int]]] = {}
        self.keys = list(mu.keys)
        self.ranks = list(zip(mu.keys, mu.order))
        n = len(mu.order)
        self.key_at: list = [None] * n
        self.codes_at: list = [None] * n
        for key, i, w in zip(mu.keys, mu.order, mu.words):
            self.key_at[i], self.codes_at[i] = key, w.codes
        self.seen = set(self.codes_at)
        self.distinct = len(self.seen) == n

    def letter(self, c: int) -> tuple[int, ...]:
        """The codes of phi(c) for a signed letter c."""
        if c > 0:
            return self.images[c - 1].codes
        w = self.inv.get(c)
        if w is None:
            w = self.inv[c] = tuple([-d for d in reversed(self.images[-c - 1].codes)])
        return w

    def endo(self) -> Endomorphism:
        """The current map."""
        return _endo(self.sig, tuple(self.images))

    def key(self) -> tuple:
        """The codes of the current word and of the current images; their
        lengths, 4g + p and 2g + p, fix the signature."""
        return (self.word.codes, tuple([w.codes for w in self.images]))

    def verdict(self, pair: tuple[int, int]) -> tuple:
        """Build, memoise and index the verdict of the letter pair
        (v_k, v_(k+1))."""
        a, b = pair
        A = _lcp(self.letter(-a), self.letter(b))
        verdict = self.verdicts[pair] = _verdict(
            self.letter(a), self.letter(-b), A, self.rank
        )
        for c in (abs(a), abs(b)):
            self.pairs.setdefault(c, []).append(pair)
        return verdict

    def advance(self, edge: GroupoidEdge) -> bool:
        """Move to the target of the Nielsen ``edge``, leaving the values
        ``_state_of`` would build for ``compose(edge.aut.inv, phi)`` and
        ``edge.target``; True when the measure strictly decreased."""
        sig = self.sig
        # the template at chain position k moves only the letter b of v_k, so
        # the composite differs from phi at b alone: phi(inv(b))
        b = abs(self.word.codes[edge.kind.k - 1])
        img = _substitute(self.images, edge.aut.inv.images[b - 1].codes, {})
        self.images[b - 1] = _word(sig, img)
        self.inv.pop(-b, None)
        self.word = edge.target
        # every pair with a verdict is listed under both its letters; a list
        # may still name a pair dropped through its other letter, or
        # memoised again since, and dropping that pair is right: it involves b
        for pair in self.pairs.pop(b, ()):
            self.verdicts.pop(pair, None)
        pos = _measure_position(sig, b)
        slots = [(pos, img)]
        if not sig.is_t_code(b):
            slots.append((pos + 1, self.letter(-b)))

        # the measure: b's entries leave the (key, position) order, the new
        # ones go in by bisection; (key, position) is unique
        keys, ranks, key_at, codes_at, seen = (
            self.keys, self.ranks, self.key_at, self.codes_at, self.seen
        )
        before = keys[:]
        for i, _ in slots:
            j = bisect_left(ranks, (key_at[i], i))
            del ranks[j], keys[j]
            seen.discard(codes_at[i])  # exact: the words were distinct
        for i, codes in slots:
            if codes in seen:
                self.distinct = False
            seen.add(codes)
            codes_at[i] = codes
            key = key_at[i] = _key_of(codes, self.rank)
            j = bisect_left(ranks, (key, i))
            ranks.insert(j, (key, i))
            keys.insert(j, key)
        return keys < before


_MAX_ITER_BASE = 10000


def nielsen_reduce(V: Word, phi) -> tuple[list[GroupoidEdge], GroupoidEdge]:
    """Factor phi as Nielsen edges from V followed by a letter-permutation
    remainder; the measure strictly decreases at every applied move.

    Raises NotZieschang / TargetTooLong / HypothesisViolated on precondition
    failures and ReductionStuck when the input cannot be an automorphism.
    """
    return _reduce(V, _fwd(phi), None)


def _reduce(
    V: Word, endo: Endomorphism, suffixes: Optional[_Memo]
) -> tuple[list[GroupoidEdge], GroupoidEdge]:
    """``nielsen_reduce`` of the map ``endo``, through the memo ``suffixes``
    of reduction suffixes when one is given.

    Every state after the first is looked up by ``_Carry.key``.  The rest of
    a reduction is a function of that state alone, so a hit serves the
    stored call's edges from the equal state on and its remainder, which
    passed every check on that state; it is taken only when the moves stay
    within this call's budget.  Once the call has its remainder, each of its
    states after the first is stored with the call's edges, the state's
    index among them and the remainder; a raise stores nothing.
    """
    sig = endo.sig
    if not is_zieschang(V, sig):
        raise NotZieschang(f"{V} is not Zieschang")
    W = endo.apply(V)
    if len(W) > sig.chain_len:
        raise TargetTooLong(f"|image| = {len(W)} exceeds 4g+p = {sig.chain_len}")
    if _t_class_permutation(endo) is None:
        raise HypothesisViolated("map does not permute the puncture classes")

    edges: list[GroupoidEdge] = []
    keys: list[tuple] = []  # the memo key of each state after the first
    budget = _MAX_ITER_BASE + 20 * sum(len(w) for w in endo.images)
    carry = _Carry(_state_of(endo, V))
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
            raise ReductionStuck("basis images are not distinct")
        move = _find_violation(carry)
        if move is None:
            n1 = _finish_n1(carry.endo(), carry.word, W)
            break
        tag, k, triple = move
        # the source is V or the previous target, both checked
        edge = _nielsen_edge(carry.word, tag, k)
        if not carry.advance(edge):
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


def _lcp(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """The longest common prefix of two code tuples."""
    m = 0
    for a, b in zip(u, v):
        if a != b:
            break
        m += 1
    return u[:m]


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
    """Smallest k where A_k fails to be below both neighbours, with the move."""
    sig = carry.sig
    codes = carry.word.codes
    verdicts = carry.verdicts
    for k in range(1, len(codes)):
        pair = (codes[k - 1], codes[k])
        verdict = verdicts.get(pair)
        if verdict is None:
            verdict = carry.verdict(pair)
        if not verdict:
            continue
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
        inv[abs(c) - 1] = _word(sig, (b if c > 0 else -b,))
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
    aut, kind, level, moved = move
    # ``moved``: the basis letters the step moves, when known by
    # construction, so that the new word is spliced
    W = aut.apply(V) if moved is None else _spliced(aut, V, moved)
    if not is_zieschang(W, V.sig):
        raise NotZieschang(f"canonical step ({kind}, {level}) left {W}")
    return aut, StepRecord(kind, level, V, W)


def _first_move(V: Word):
    """The move of steps (i)-(vii) that the walk fires from V, as (map, kind,
    level, moved letters or None), or None when V is the relator.  It fires
    on the first block of V that differs from the relator's: t_p .. t_1 one
    letter each, then each [x_i, y_i] as four letters."""
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
            P = Word(sig, rest[:m])
            return letter_move(sig, ti, P.inverse(), P), "i", j, (abs(ti),)
        return swap_letters(sig, ti, sig.t_code(j)), "ii", j, {abs(ti), j}

    # handle phase: establish [x_i, y_i] blocks left to right
    for i in range(1, sig.g + 1):
        done = sig.p + 4 * (i - 1)
        xi, yi = sig.x_code(i), sig.y_code(i)
        if codes[done : done + 4] == (-xi, -yi, xi, yi):
            continue
        a = codes[done]
        if a != -xi:
            return swap_letters(sig, a, -xi), "iv", i, {abs(a), xi}
        rest = codes[done:]
        mpos = rest.index(xi)
        P, Q = rest[1:mpos], rest[mpos + 1 :]
        if len(P) >= 2:
            qset = set(Q)
            b_idx = next(idx for idx, c in enumerate(P) if -c in qset)
            b = P[b_idx]
            P1, P2 = Word(sig, P[:b_idx]), Word(sig, P[b_idx + 1 :])
            return letter_move(sig, b, P1.inverse(), P2.inverse()), "v", i, (abs(b),)
        b = P[0]
        if b != -yi:
            return swap_letters(sig, b, -yi), "vi", i, {abs(b), yi}
        # the block starts x_i' y_i' x_i, so a segment sits before y_i
        return _whitehead_step(V, sig, i, done), "vii", i, None
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
    line = chain_line(build_graph(cur, sig))
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
    for b in sig.basis_codes():
        left = (yi,) if -b in segment else ()
        right = (-yi,) if b in segment else ()
        if left or right:
            fwd[b - 1] = _word(sig, left + (b,) + right)
            inv[b - 1] = _word(
                sig, tuple([-c for c in left]) + (b,) + tuple([-c for c in right])
            )
    aut = _aut(_endo(sig, tuple(fwd)), _endo(sig, tuple(inv)))
    mid_word, tail_word = Word(sig, mid), Word(sig, tail)
    y_word = Word(sig, (yi,))
    if aut.apply(tail_word) != tail_word:
        raise CosetViolation("whitehead step moved the tail")
    if aut.apply(mid_word) != y_word * mid_word * y_word.inverse():
        raise CosetViolation("whitehead step failed to conjugate the segment word")
    return aut


def certify_automorphism(phi) -> Optional[Automorphism]:
    """Certify an endomorphism fixing the relator and permuting the puncture
    classes; the witness inverse is assembled from the Nielsen factorization.
    Returns None when reduction gets stuck (the map is not an automorphism).
    """
    endo = _fwd(phi)
    sig = endo.sig
    v0 = relator(sig)
    if endo.apply(v0) != v0:
        raise HypothesisViolated("relator is not fixed")
    if _t_class_permutation(endo) is None:
        raise HypothesisViolated("puncture classes are not permuted")
    try:
        edges, n1 = nielsen_reduce(v0, endo)
    except ReductionStuck:
        return None
    parts = [n1.aut.inv] + [e.aut.inv for e in reversed(edges)]
    return Automorphism(endo, _compose_endos(parts))
