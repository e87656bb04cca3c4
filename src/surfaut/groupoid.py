"""The Zieschang groupoid: Nielsen edges, the peak-reduction engine, the
canonical normalizing edges, and automorphism certification.

Edges are triples (source, target, aut) with both endpoints Zieschang and
aut class-permuting.  ``nielsen_reduce`` factors any admissible map into
Nielsen edges followed by a letter-permutation remainder, with a strictly
decreasing termination measure checked at every step.  ``canonical_edge``
is the deterministic normalization of a Zieschang word onto the relator.

The engine builds its first ``ReductionState`` in full (``_state_of``) and
carries it across the moves (``_Carry``).  A Nielsen move changes the image
of one basis letter b, so the next state recomputes only what reads phi(b):
b's entries of the measure, re-inserted into the sorted order by bisection;
the distinct-images check, kept as a set of image codes; and A_k and the
verdict of each letter pair (v_k, v_(k+1)) that involves b or b'.  The pair
memos are indexed by basis letter, so the move drops b's pairs without
scanning the others, which keep their memos for the rest of the call.  A
verdict slices B and C off the two images instead of multiplying (A_k
cancels completely in both products) and compares lengths before letters.
Each carried state is the same value ``_state_of`` would build.

Each edge end is checked once.  Public edges (``GroupoidEdge``,
``nielsen_edge``) check their source; the engine's Nielsen edges, the
factorisation case tables' edges and ``GroupoidEdge.inverse`` are built by
the trusted ``_edge``, because their source is the checked input or the
end of a checked edge.  ``_edge`` computes the target as the image of the
source, so it checks only that target (``is_zieschang``, a walk along the
chain) and the class permutation.  The Nielsen templates are one-letter
moves (``letter_move``), witnessed by construction.  ``canonical_edge``
collects its steps and witnesses one composite per call, and keeps its
results in a bounded LRU memo.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .core import MEMO_SIZE, Signature, Word, _word, letter_str, order_rank, relator
from .endo import (
    Automorphism,
    Endomorphism,
    _compose_endos,
    _fwd,
    _t_class_permutation,
    aut_from_map,
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
    e = object.__new__(GroupoidEdge)
    setf = object.__setattr__  # the dataclass is frozen
    setf(e, "source", source)
    setf(e, "target", aut.apply(source))
    setf(e, "aut", aut)
    setf(e, "kind", kind)
    e._check_target(CosetViolation)
    return e


def _template_aut(V: Word, tag: str, k: int) -> Optional[Automorphism]:
    """The Nielsen template automorphism at chain position k, or None when the
    position/letter-type constraints fail."""
    sig = V.sig
    n = len(V.codes)
    v = V.codes
    one = Word.identity(sig)
    if tag in (N2_RIGHT, N3_RIGHT):
        if not 1 <= k <= n - 1:
            return None
        u, c = v[k - 1], v[k]
        cw = _word(sig, (c,))
        if tag == N2_RIGHT:
            if sig.is_t_code(u):
                return None
            return letter_move(sig, u, one, cw.inverse())
        if not sig.is_t_code(u):
            return None
        return letter_move(sig, u, cw, cw.inverse())
    if not 2 <= k <= n:
        return None
    u, c = v[k - 1], v[k - 2]
    cw = _word(sig, (c,))
    if tag == N2_LEFT:
        if sig.is_t_code(u):
            return None
        return letter_move(sig, u, cw.inverse(), one)
    if not sig.is_t_code(u):
        return None
    return letter_move(sig, u, cw.inverse(), cw)


def nielsen_edge(V: Word, tag: str, k: int) -> GroupoidEdge:
    """Construct the Nielsen edge of the given kind with source V."""
    if not is_zieschang(V, V.sig):
        raise NotZieschang(f"edge source {V} is not Zieschang")
    return _nielsen_edge(V, tag, k)


def _nielsen_edge(V: Word, tag: str, k: int) -> GroupoidEdge:
    """``nielsen_edge`` for a source V already known to be Zieschang."""
    aut = _template_aut(V, tag, k)
    if aut is None:
        raise CosetViolation(f"no {tag} template at k={k} for {V}")
    return _edge(V, aut, NielsenKind(tag, k))


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
                out.append(_edge(V, aut, NielsenKind(tag, k)))
    return out


def _balanced_key(w: Word) -> tuple[int, tuple[int, ...]]:
    """Length-first key on the balanced left half, |left| - |right| in {0, 1}."""
    left = (len(w.codes) + 1) // 2
    return (len(w.codes), tuple(order_rank(c) for c in w.codes[:left]))


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
    """Snapshot of one engine iteration: current map, current source word,
    the letter images phi(v_k), the common-prefix words A_k, and the measure."""

    phi: Endomorphism
    word: Word
    imgs: tuple[Word, ...]
    A: tuple[Word, ...]
    mu: PreOrderKey


def _lcp(u: Word, v: Word) -> Word:
    m = 0
    for a, b in zip(u.codes, v.codes):
        if a != b:
            break
        m += 1
    return _word(u.sig, u.codes[:m])  # a prefix of a reduced word is reduced


def _state_of(endo: Endomorphism, V: Word) -> ReductionState:
    images = endo.images
    imgs = tuple(images[c - 1] if c > 0 else images[-c - 1].inverse() for c in V.codes)
    A = [Word.identity(endo.sig)] * (len(imgs) + 1)
    for k in range(1, len(imgs)):
        A[k] = _lcp(imgs[k - 1].inverse(), imgs[k])
    return ReductionState(endo, V, imgs, tuple(A), mu_key(endo))


class _Carry:
    """What ``nielsen_reduce`` carries from one state to the next, for one
    call.  A Nielsen move changes the image of one basis letter b only, so
    ``advance`` recomputes only the values that read phi(b) or phi(b'):

    - ``images`` and ``inv``: the basis images of the current map, and
      phi(c) of the negative letters c met so far;
    - ``prefixes`` and ``verdicts``: A_k and the verdict of position k, per
      letter pair (v_k, v_(k+1)) met so far; both depend only on the pair
      and the two letters' images;
    - ``pairs``: for each basis letter, the pairs memoised since it last
      moved that involve it, so that a move drops only its letter's pairs;
    - ``seen`` and ``distinct``: the codes of the measure words, and whether
      they are pairwise distinct.
    """

    def __init__(self, state: ReductionState) -> None:
        codes = state.word.codes
        self.images = state.phi.images
        self.inv = {c: w for c, w in zip(codes, state.imgs) if c < 0}
        self.prefixes: dict[tuple[int, int], Word] = {}
        self.pairs: dict[int, list[tuple[int, int]]] = {}
        for k in range(1, len(codes)):
            self._memo_prefix((codes[k - 1], codes[k]), state.A[k])
        self.verdicts: dict[tuple[int, int], tuple] = {}
        self.seen = {w.codes for w in state.mu.words}
        self.distinct = len(self.seen) == len(state.mu.words)

    def _memo_prefix(self, pair: tuple[int, int], a: Word) -> None:
        self.prefixes[pair] = a
        for b in (abs(pair[0]), abs(pair[1])):
            self.pairs.setdefault(b, []).append(pair)

    def letter(self, c: int) -> Word:
        """phi(c) for a signed letter c."""
        if c > 0:
            return self.images[c - 1]
        w = self.inv.get(c)
        if w is None:
            w = self.inv[c] = self.images[-c - 1].inverse()
        return w

    def advance(self, state: ReductionState, edge: GroupoidEdge) -> ReductionState:
        """The state after ``edge``: the same value as ``_state_of`` of
        ``compose(edge.aut.inv, state.phi)`` and ``edge.target``."""
        phi = _compose_endos([edge.aut.inv, state.phi])
        sig = phi.sig
        self.images = phi.images
        slots: list[tuple[int, Word]] = []
        for b in edge.aut.inv.moved_codes():
            self.inv.pop(-b, None)
            # every pair with a verdict has a prefix word and is listed under
            # both its letters; a list may still name a pair dropped through
            # its other letter, or memoised again since, and dropping that
            # pair is right: it involves b
            for pair in self.pairs.pop(b, ()):
                self.prefixes.pop(pair, None)
                self.verdicts.pop(pair, None)
            pos = _measure_position(sig, b)
            slots.append((pos, self.letter(b)))
            if not sig.is_t_code(b):
                slots.append((pos + 1, self.letter(-b)))

        # the measure: b's entries leave the (key, position) order, the new
        # ones go in by bisection
        mu = state.mu
        drop = {i for i, _ in slots}
        entries, gone = [], []
        for e in zip(mu.keys, mu.order, mu.words):
            (gone if e[1] in drop else entries).append(e)
        for _, _, w in gone:
            self.seen.discard(w.codes)  # exact: the words were distinct
        for i, w in slots:
            if w.codes in self.seen:
                self.distinct = False
            self.seen.add(w.codes)
            insort(entries, (_balanced_key(w), i, w))  # (key, i) is unique
        keys, order, words = zip(*entries)

        V = edge.target
        codes = V.codes
        imgs = tuple([self.letter(c) for c in codes])
        A = [Word.identity(sig)] * (len(codes) + 1)
        for k in range(1, len(codes)):
            pair = (codes[k - 1], codes[k])
            a = self.prefixes.get(pair)
            if a is None:
                a = _lcp(self.letter(-pair[0]), imgs[k])
                self._memo_prefix(pair, a)
            A[k] = a
        return ReductionState(phi, V, imgs, tuple(A), PreOrderKey(words, keys, order))


_MAX_ITER_BASE = 10000


def nielsen_reduce(V: Word, phi) -> tuple[list[GroupoidEdge], GroupoidEdge]:
    """Factor phi as Nielsen edges from V followed by a letter-permutation
    remainder; the measure strictly decreases at every applied move.

    Raises NotZieschang / TargetTooLong / HypothesisViolated on precondition
    failures and ReductionStuck when the input cannot be an automorphism.
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

    edges: list[GroupoidEdge] = []
    budget = _MAX_ITER_BASE + 20 * sum(len(w) for w in endo.images)
    state = _state_of(endo, V)
    carry = _Carry(state)
    for _ in range(budget):
        if not carry.distinct:
            raise ReductionStuck("basis images are not distinct")
        move = _find_violation(state, carry)
        if move is None:
            return edges, _finish_n1(state.phi, state.word, W)
        # the source is V or the previous target, both checked
        edge = _nielsen_edge(state.word, move[0], move[1])
        nxt_state = carry.advance(state, edge)
        if not nxt_state.mu < state.mu:
            raise ReductionStuck(
                f"measure failed to decrease at {move[0]} k={move[1]}",
                k=move[1],
                triple=move[2],
            )
        edges.append(edge)
        state = nxt_state
    raise ReductionStuck("iteration budget exhausted")


def _lenlex_less(u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """u < v in length-lexicographic order: shorter first, then by
    ``order_rank`` at the first letter where they differ."""
    if len(u) != len(v):
        return len(u) < len(v)
    for a, b in zip(u, v):
        if a != b:
            return order_rank(a) < order_rank(b)
    return False


def _verdict(img: Word, next_inv: Word, A: Word) -> tuple:
    """Verdict of position k from phi(v_k), phi(v_(k+1))' and A_k: () when A_k
    is below both B = phi(v_k) A_k and C = phi(v_(k+1))' A_k in lenlex order,
    else ((A_k, B, C), whether the three are distinct, whether B < C).

    A_k is a common prefix of phi(v_k)' and phi(v_(k+1)), so it cancels
    completely in both products: B and C are the words with A_k' cut off the
    end of phi(v_k) and of phi(v_(k+1))'."""
    a = A.codes
    b = img.codes[: len(img.codes) - len(a)]
    c = next_inv.codes[: len(next_inv.codes) - len(a)]
    if _lenlex_less(a, b) and _lenlex_less(a, c):
        return ()
    sig = A.sig
    triple = (A, _word(sig, b), _word(sig, c))  # slices of reduced words
    return (triple, a != b and a != c and b != c, _lenlex_less(b, c))


def _find_violation(state: ReductionState, carry: _Carry):
    """Smallest k where A_k fails to be below both neighbours, with the move."""
    sig = state.phi.sig
    codes = state.word.codes
    verdicts = carry.verdicts
    for k in range(1, len(codes)):
        pair = (codes[k - 1], codes[k])
        verdict = verdicts.get(pair)
        if verdict is None:
            verdict = verdicts[pair] = _verdict(
                state.imgs[k - 1], carry.letter(-codes[k]), state.A[k]
            )
        if not verdict:
            continue
        triple, distinct, left = verdict
        if not distinct:
            raise ReductionStuck(
                f"prefix words not distinct at k={k}", k=k, triple=triple
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
    sig = endo.sig
    perm = classify_letters(endo)
    if perm is None:
        raise ReductionStuck("remainder is not a letter permutation")
    inv_map: dict[int, Word] = {}
    for b in sig.basis_codes():
        c = endo.images[b - 1].codes[0]
        inv_map[abs(c)] = Word(sig, (b if c > 0 else -b,))
    aut = Automorphism(endo, Endomorphism.from_map(sig, inv_map))
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


@lru_cache(maxsize=MEMO_SIZE)
def canonical_edge(V: Word) -> tuple[Automorphism, tuple[StepRecord, ...]]:
    """The deterministic edge carrying a Zieschang word onto the relator.

    Returns the composite automorphism and the log of fired moves.  Results
    are kept in a bounded LRU memo keyed on the word, that is on its
    signature and codes.
    """
    sig = V.sig
    if not is_zieschang(V, sig):
        raise NotZieschang(f"{V} is not Zieschang")
    steps: list[StepRecord] = []
    auts: list[Automorphism] = []
    cur = V

    def fire(aut: Automorphism, kind: str, level: int) -> None:
        nonlocal cur
        before = cur
        cur = aut.apply(cur)
        auts.append(aut)
        if not is_zieschang(cur, sig):
            raise NotZieschang(f"canonical step ({kind}, {level}) left {cur}")
        steps.append(StepRecord(kind, level, before, cur))

    # puncture phase: establish the prefix t_p .. t_1
    for j in range(sig.p, 0, -1):
        done = sig.p - j
        rest = cur.codes[done:]
        m = next(idx for idx, c in enumerate(rest) if sig.is_t_code(c))
        ti = rest[m]
        if m > 0:
            P = Word(sig, rest[:m])
            fire(letter_move(sig, ti, P.inverse(), P), "i", j)
        if ti != sig.t_code(j):
            fire(swap_letters(sig, ti, sig.t_code(j)), "ii", j)

    # handle phase: establish [x_i, y_i] blocks left to right
    for i in range(1, sig.g + 1):
        done = sig.p + 4 * (i - 1)
        xi, yi = sig.x_code(i), sig.y_code(i)
        a = cur.codes[done]
        if a != -xi:
            fire(swap_letters(sig, a, -xi), "iv", i)
        rest = cur.codes[done:]
        mpos = rest.index(xi)
        P, Q = rest[1:mpos], rest[mpos + 1 :]
        if len(P) >= 2:
            qset = set(Q)
            b_idx = next(idx for idx, c in enumerate(P) if -c in qset)
            b = P[b_idx]
            P1, P2 = Word(sig, P[:b_idx]), Word(sig, P[b_idx + 1 :])
            fire(letter_move(sig, b, P1.inverse(), P2.inverse()), "v", i)
            rest = cur.codes[done:]
            mpos = rest.index(xi)
            P = rest[1:mpos]
        b = P[0]
        if b != -yi:
            fire(swap_letters(sig, b, -yi), "vi", i)
        rest = cur.codes[done:]
        qpos = rest.index(yi)
        mid = rest[3:qpos]
        if mid:
            fire(_whitehead_step(cur, sig, i, done), "vii", i)

    if cur != relator(sig):
        raise CosetViolation(f"canonical normalization ended at {cur}")
    # one witness check, on the whole composite
    acc = compose(*auts) if auts else Automorphism.identity(sig)
    if acc.apply(V) != relator(sig):
        raise CosetViolation("canonical composite does not carry V to the relator")
    return acc, tuple(steps)


def _whitehead_step(cur: Word, sig: Signature, i: int, done: int) -> Automorphism:
    """Step (vii): push the segment between x_i and y_i' past the block,
    multiplying exactly the letters whose chain segment sits inside it."""
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
    fwd_map: dict[int, Word] = {}
    inv_map: dict[int, Word] = {}
    for b in sig.basis_codes():
        left = (yi,) if -b in segment else ()
        right = (-yi,) if b in segment else ()
        if left or right:
            fwd_map[b] = Word(sig, left + (b,) + right)
            inv_map[b] = Word(
                sig, tuple(-c for c in left) + (b,) + tuple(-c for c in right)
            )
    aut = aut_from_map(sig, fwd_map, inv_map)
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
