"""The Zieschang groupoid: Nielsen edges, the peak-reduction engine, the
canonical normalizing edges, and automorphism certification.

Edges are triples (source, target, aut) with both endpoints Zieschang and
aut class-permuting.  ``nielsen_reduce`` factors any admissible map into
Nielsen edges followed by a letter-permutation remainder, with a strictly
decreasing termination measure checked at every step.  ``canonical_edge``
is the deterministic normalization of a Zieschang word onto the relator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import Signature, Word, _word, letter_str, order_rank, relator
from .endo import (
    Automorphism,
    Endomorphism,
    _compose_endos,
    _fwd,
    _t_class_permutation,
    aut_from_map,
    classify_letters,
    compose,
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


@dataclass(frozen=True)
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
        if not is_zieschang(self.target, sig):
            raise NotZieschang(f"edge target {self.target} is not Zieschang")
        if self.aut.apply(self.source) != self.target:
            raise ValueError("edge automorphism does not carry source to target")
        if _t_class_permutation(self.aut.fwd) is None:
            raise ValueError("edge automorphism does not permute the puncture classes")

    @property
    def sig(self) -> Signature:
        return self.source.sig

    def inverse(self) -> "GroupoidEdge":
        kind = classify_nielsen_map(self.target, self.aut.inverse())
        return GroupoidEdge(self.target, self.source, self.aut.inverse(), kind)


def _single_letter_aut(
    sig: Signature, code: int, image: tuple[int, ...], inv_image: tuple[int, ...]
) -> Automorphism:
    """Automorphism moving only the basis letter of ``code``; when the template
    is phrased on an inverse letter, both maps are flipped to the basis."""
    b = abs(code)
    if code > 0:
        fwd, inv = image, inv_image
    else:
        fwd = tuple(-c for c in reversed(image))
        inv = tuple(-c for c in reversed(inv_image))
    return aut_from_map(sig, {b: Word(sig, fwd)}, {b: Word(sig, inv)})


def _template_aut(V: Word, tag: str, k: int) -> Optional[Automorphism]:
    """The Nielsen template automorphism at chain position k, or None when the
    position/letter-type constraints fail."""
    sig = V.sig
    n = len(V.codes)
    v = V.codes
    if tag in (N2_RIGHT, N3_RIGHT):
        if not 1 <= k <= n - 1:
            return None
        u, c = v[k - 1], v[k]
        if tag == N2_RIGHT:
            if sig.is_t_code(u):
                return None
            return _single_letter_aut(sig, u, (u, -c), (u, c))
        if not sig.is_t_code(u):
            return None
        return _single_letter_aut(sig, u, (c, u, -c), (-c, u, c))
    if not 2 <= k <= n:
        return None
    u, c = v[k - 1], v[k - 2]
    if tag == N2_LEFT:
        if sig.is_t_code(u):
            return None
        return _single_letter_aut(sig, u, (-c, u), (c, u))
    if not sig.is_t_code(u):
        return None
    return _single_letter_aut(sig, u, (-c, u, c), (c, u, -c))


def nielsen_edge(V: Word, tag: str, k: int) -> GroupoidEdge:
    """Construct the Nielsen edge of the given kind with source V."""
    aut = _template_aut(V, tag, k)
    if aut is None:
        raise ValueError(f"no {tag} template at k={k} for {V}")
    return GroupoidEdge(V, aut.apply(V), aut, NielsenKind(tag, k))


def classify_nielsen_map(V: Word, aut: Automorphism) -> Optional[NielsenKind]:
    if classify_letters(aut.fwd) is not None:
        return NielsenKind(N1)
    n = len(V.codes)
    for tag in (N2_RIGHT, N2_LEFT, N3_RIGHT, N3_LEFT):
        for k in range(1, n + 1):
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
                out.append(GroupoidEdge(V, aut.apply(V), aut, NielsenKind(tag, k)))
    return out


def _balanced_key(w: Word) -> tuple[int, tuple[int, ...]]:
    """Length-first key on the balanced left half, |left| - |right| in {0, 1}."""
    left = (len(w.codes) + 1) // 2
    return (len(w.codes), tuple(order_rank(c) for c in w.codes[:left]))


@dataclass(frozen=True)
class PreOrderKey:
    """Multiset measure of the basis images: puncture letters contribute one
    image, handle letters both signs.  Ordered by the sorted balanced keys."""

    words: tuple[Word, ...]
    keys: tuple[tuple[int, tuple[int, ...]], ...] = field(compare=False)

    @staticmethod
    def of(words: list[Word]) -> "PreOrderKey":
        # the index breaks ties, so this is the stable sort of the words by key
        keyed = sorted((_balanced_key(w), i) for i, w in enumerate(words))
        return PreOrderKey(
            tuple(words[i] for _, i in keyed), tuple(k for k, _ in keyed)
        )

    def __lt__(self, other: "PreOrderKey") -> bool:
        return self.keys < other.keys

    def __le__(self, other: "PreOrderKey") -> bool:
        return self.keys <= other.keys


def mu_key(phi) -> PreOrderKey:
    """The termination measure of the reduction engine."""
    endo = _fwd(phi)
    sig = endo.sig
    words = [endo.images[sig.t_code(j) - 1] for j in range(1, sig.p + 1)]
    for b in sig.basis_codes():
        if not sig.is_t_code(b):
            w = endo.images[b - 1]
            words.append(w)
            words.append(w.inverse())
    return PreOrderKey.of(words)


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
    for _ in range(budget):
        if len({w.codes for w in state.mu.words}) != len(state.mu.words):
            raise ReductionStuck("basis images are not distinct")
        move = _find_violation(state)
        if move is None:
            return edges, _finish_n1(state.phi, state.word, W)
        edge = nielsen_edge(state.word, move[0], move[1])
        nxt_state = _state_of(_compose_endos([edge.aut.inv, state.phi]), edge.target)
        if not nxt_state.mu < state.mu:
            raise ReductionStuck(
                f"measure failed to decrease at {move[0]} k={move[1]}",
                k=move[1],
                triple=move[2],
            )
        edges.append(edge)
        state = nxt_state
    raise ReductionStuck("iteration budget exhausted")


def _find_violation(state: ReductionState):
    """Smallest k where A_k fails to be below both neighbours, with the move."""
    sig = state.phi.sig
    codes = state.word.codes
    imgs = state.imgs
    for k in range(1, len(codes)):
        A = state.A[k]
        B = imgs[k - 1] * A
        C = imgs[k].inverse() * A
        ka, kb, kc = A.lenlex_key(), B.lenlex_key(), C.lenlex_key()
        if ka < kb and ka < kc:
            continue
        if len({ka, kb, kc}) != 3:
            raise ReductionStuck(
                f"prefix words not distinct at k={k}", k=k, triple=(A, B, C)
            )
        if kb < kc:
            moved = codes[k]  # v_{k+1}
            tag = N3_LEFT if sig.is_t_code(moved) else N2_LEFT
            return (tag, k + 1, (A, B, C))
        moved = codes[k - 1]  # v_k
        tag = N3_RIGHT if sig.is_t_code(moved) else N2_RIGHT
        return (tag, k, (A, B, C))
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
    return GroupoidEdge(V, W, aut, NielsenKind(N1))


@dataclass(frozen=True)
class StepRecord:
    """One fired move of the canonical normalization."""

    kind: str
    level: int
    before: Word
    after: Word

    def __str__(self) -> str:
        return f"({self.kind} k={self.level}) {self.before} => {self.after}"


_canonical_cache: dict[tuple[Signature, tuple[int, ...]], tuple[Automorphism, tuple[StepRecord, ...]]] = {}


def canonical_edge(V: Word) -> tuple[Automorphism, tuple[StepRecord, ...]]:
    """The deterministic edge carrying a Zieschang word onto the relator.

    Returns the composite automorphism and the log of fired moves.
    """
    key = (V.sig, V.codes)
    hit = _canonical_cache.get(key)
    if hit is None:
        hit = _canonical_edge_impl(V)
        _canonical_cache[key] = hit
    return hit


def _canonical_edge_impl(V: Word):
    sig = V.sig
    if not is_zieschang(V, sig):
        raise NotZieschang(f"{V} is not Zieschang")
    steps: list[StepRecord] = []
    acc = Automorphism.identity(sig)
    cur = V

    def fire(aut: Automorphism, kind: str, level: int) -> None:
        nonlocal acc, cur
        before = cur
        cur = aut.apply(cur)
        acc = compose(acc, aut)
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
            fire(
                aut_from_map(
                    sig,
                    {ti: P.inverse() * Word(sig, (ti,)) * P},
                    {ti: P * Word(sig, (ti,)) * P.inverse()},
                ),
                "i",
                j,
            )
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
            fire(
                _single_letter_aut(
                    sig,
                    b,
                    (P1.inverse() * Word(sig, (b,)) * P2.inverse()).codes,
                    (P1 * Word(sig, (b,)) * P2).codes,
                ),
                "v",
                i,
            )
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
