"""Constructive factorization into the ADL and ADLH generating sets.

Every admissible automorphism is peak-reduced into Nielsen edges, each edge
is telescoped between canonical edges into base loops at the relator, each
loop is peeled into a distinguished-letter part plus a stabilizer part, and
the stabilizer part is restricted to a smaller signature and factored
recursively.  Every case-table step is verified concretely: endpoint words,
loop coset tags, and the final recomposition are all checked, so a
transcription bug surfaces as a hard error instead of a wrong answer.

Each checked value is computed once and passed on.  ``nielsen_to_base_loops``
brackets its edge once; the case tables take that bracket, and a table that
recurses on the inverse edge passes its inverse.  ``_loop`` computes each
loop's coset tag once and stores it.  ``_factorize_impl`` factors each
distinct stabilizer once per call (every loop, in order, when auditing), and
``_stab_word`` returns its word with the value it checked.  Evaluation is a
homomorphism, so the end-to-end check composes those checked piece values
and compares the result with the input, which is the same predicate as
evaluating the whole word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .core import Signature, Word, relator
from .endo import (
    Automorphism,
    Endomorphism,
    compose,
    letter_move,
    membership,
    restrict_drop_tp,
    restrict_relabel_K,
)
from .errors import CosetViolation, NotInA, SignatureMismatch
from .gens import GenName, GenWord, _splice, eval_gen_word, generator
from .groupoid import (
    N1,
    N2_LEFT,
    N2_RIGHT,
    N3_LEFT,
    N3_RIGHT,
    GroupoidEdge,
    NielsenKind,
    canonical_edge,
    classify_nielsen,
    nielsen_edge,
    nielsen_reduce,
)

STAB = "stab"
STAB_SPECIAL = "stab_special"
STAB_SPECIAL_INV = "stab_special_inv"


def _distinguished(sig: Signature) -> Word:
    if sig.p >= 2:
        return Word(sig, (sig.t_code(sig.p),))
    if sig.p == 1:
        return Word(sig, (sig.t_code(1),))
    x1, y1 = sig.x_code(1), sig.y_code(1)
    return Word(sig, (-x1, -y1, x1))


def _special_generator(sig: Signature) -> Automorphism:
    if sig.p >= 2:
        return generator(GenName("s", sig.p), sig)
    if sig.p == 1:
        return generator(GenName("g", 1), sig)
    raise CosetViolation("no special generator at p = 0")


def _tag_of(aut: Automorphism, sig: Signature) -> Optional[str]:
    probe = _distinguished(sig)
    im = aut.apply(probe)
    if im == probe:
        return STAB
    if sig.p == 0:
        x1bar = Word(sig, (-sig.x_code(1),))
        if aut.apply(x1bar) == x1bar:
            return STAB_SPECIAL
        return None
    sp = _special_generator(sig)
    if im == sp.apply(probe):
        return STAB_SPECIAL
    if im == sp.inverse().apply(probe):
        return STAB_SPECIAL_INV
    return None


@dataclass(frozen=True)
class BaseLoop:
    """A loop at the relator whose distinguished image matches its tag."""

    aut: Automorphism
    coset_tag: str

    def __post_init__(self) -> None:
        self._check_fixes_relator()
        if _tag_of(self.aut, self.aut.sig) != self.coset_tag:
            raise CosetViolation(
                f"loop distinguished image does not match tag {self.coset_tag}"
            )

    def _check_fixes_relator(self) -> None:
        v0 = relator(self.aut.sig)
        if self.aut.apply(v0) != v0:
            raise CosetViolation("base loop does not fix the relator")


def _loop(aut: Automorphism, expect: Optional[str] = None) -> BaseLoop:
    """Trusted constructor: runs the coset checks and ``BaseLoop``'s relator
    check once, and stores the tag it computed instead of recomputing it."""
    sig = aut.sig
    tag = _tag_of(aut, sig)
    if tag is None:
        raise CosetViolation("loop lands outside every admissible coset")
    if expect is not None and sig.p >= 1 and tag != expect:
        raise CosetViolation(f"expected a {expect} loop, found {tag}")
    loop = object.__new__(BaseLoop)
    setf = object.__setattr__  # the dataclass is frozen
    setf(loop, "aut", aut)
    setf(loop, "coset_tag", tag)
    loop._check_fixes_relator()
    return loop


@dataclass(frozen=True)
class EdgeScript:
    """A cascade of moves rewriting one edge; endpoints are re-checked and the
    composite is compared against the edge being rewritten."""

    moves: tuple[tuple[Automorphism, Word, Word], ...]
    expected: Automorphism

    def __post_init__(self) -> None:
        prev_end: Optional[Word] = None
        for aut, src, tgt in self.moves:
            if prev_end is not None and src != prev_end:
                raise CosetViolation("edge script endpoints do not chain")
            if aut.apply(src) != tgt:
                raise CosetViolation("edge script move endpoint mismatch")
            prev_end = tgt
        comp = compose(*(aut for aut, _, _ in self.moves))
        if comp.fwd != self.expected.fwd:
            raise CosetViolation("edge script composite differs from its edge")

    def lines(self) -> list[str]:
        return [f"{src} => {tgt}" for _, src, tgt in self.moves]


def _bracket(e: GroupoidEdge) -> Automorphism:
    phi_src, _ = canonical_edge(e.source)
    phi_tgt, _ = canonical_edge(e.target)
    return compose(phi_src.inverse(), e.aut, phi_tgt)


def _conj_t_to_front(V: Word, pos: int) -> Optional[GroupoidEdge]:
    """Edge P t_j Q -> t_j P Q moving the puncture letter at ``pos`` by
    conjugation over its prefix; None when it is already in front."""
    if pos == 0:
        return None
    sig = V.sig
    tj = V.codes[pos]
    P = Word(sig, V.codes[:pos])
    aut = letter_move(sig, tj, P.inverse(), P)
    target = aut.apply(V)
    if target.codes[: pos + 1] != (tj,) + V.codes[:pos]:
        raise CosetViolation("front conjugation produced an unexpected word")
    return GroupoidEdge(V, target, aut)


def _first_t_pos(codes: tuple[int, ...], sig: Signature) -> Optional[int]:
    for idx, c in enumerate(codes):
        if sig.is_t_code(c):
            return idx
    return None


def nielsen_to_base_loops(
    e: GroupoidEdge, audit: Optional[list] = None
) -> list[BaseLoop]:
    """Telescope one Nielsen edge into base loops at the relator.

    The loops composed in order equal
    compose(invert(canonical(source)), e.aut, canonical(target)).
    """
    sig = e.sig
    if sig.p <= 1 and sig.g < 1:
        raise CosetViolation(f"no case table applies at {sig}")
    kind = e.kind or classify_nielsen(e)
    if kind is None:
        raise CosetViolation("edge is not a Nielsen edge")
    br = _bracket(e)
    if sig.p >= 2:
        loops = _loops_p_ge2(e, kind, br, audit)
    elif sig.p == 1:
        loops = _loops_p1(e, kind, br, audit)
    else:
        loops = _loops_p0(e, kind, br, audit)
    if _compose_all([l.aut for l in loops], sig).fwd != br.fwd:
        raise CosetViolation("base loops do not recompose the telescoped edge")
    return loops


def _compose_all(auts: list[Automorphism], sig: Signature) -> Automorphism:
    """Left-to-right composite of ``auts``; the identity when there are none."""
    if not auts:
        return Automorphism.identity(sig)
    return auts[0] if len(auts) == 1 else compose(*auts)


def _invert_loops(loops: list[BaseLoop], sig: Signature) -> list[BaseLoop]:
    """Loops composing to the inverse, each re-tagged; a special loop inverts
    into a pure special-inverse loop followed by a stabilizer loop."""
    out: list[BaseLoop] = []
    for loop in reversed(loops):
        if loop.coset_tag == STAB or sig.p == 0:
            out.append(_loop(loop.aut.inverse()))
            continue
        sp = _special_generator(sig)
        if loop.coset_tag == STAB_SPECIAL:
            s = compose(loop.aut, sp.inverse())
            out.append(_loop(sp.inverse(), STAB_SPECIAL_INV))
        else:
            s = compose(loop.aut, sp)
            out.append(_loop(sp, STAB_SPECIAL))
        out.append(_loop(s.inverse(), STAB))
    return out


# -- case p >= 2 -------------------------------------------------------------


def _loops_p_ge2(
    e: GroupoidEdge, kind: NielsenKind, br: Automorphism, audit
) -> list[BaseLoop]:
    sig = e.sig
    if kind.tag == N1:
        return [_loop(br, STAB)]
    if kind.tag in (N3_RIGHT, N3_LEFT) and sig.p == 2:
        k = kind.k
        conj = e.source.codes[k - 2] if kind.tag == N3_LEFT else e.source.codes[k]
        if sig.is_t_code(conj):
            # adjacent puncture pair: the direct bracket lands in the special
            # coset (left) or its inverse (right)
            expect = STAB_SPECIAL if kind.tag == N3_LEFT else STAB_SPECIAL_INV
            return [_loop(br, expect)]
    jc = _untouched_t(e.aut, sig)
    if jc is None:
        raise CosetViolation("no untouched puncture letter for the chunked square")
    return _loops_chunked_square(e, jc, br, audit)


def _untouched_t(aut: Automorphism, sig: Signature) -> Optional[int]:
    bad: set[int] = set()
    for b in sig.basis_codes():
        img = aut.fwd.images[b - 1]
        if sig.is_t_code(b) and img.codes != (b,):
            bad.add(b)
        for c in img.codes:
            if sig.is_t_code(c) and abs(c) != b:
                bad.add(abs(c))
    for j in range(1, sig.p + 1):
        if sig.t_code(j) not in bad:
            return sig.t_code(j)
    return None


def _loops_chunked_square(
    e: GroupoidEdge, jc: int, br: Automorphism, audit
) -> list[BaseLoop]:
    """Split source and target at an untouched puncture letter, move it to the
    front on both sides, and read off the commuting bottom loop.  With the
    letter in front on both sides the bottom is ``e`` itself, whose bracket
    is ``br``."""
    sig = e.sig
    d_v = _conj_t_to_front(e.source, e.source.codes.index(jc))
    d_w = _conj_t_to_front(e.target, e.target.codes.index(jc))
    mid_src = d_v.target if d_v else e.source
    mid_tgt = d_w.target if d_w else e.target
    tau_aut = _sandwich(d_v, e.aut, d_w)
    t_word = Word(sig, (jc,))
    if tau_aut.apply(t_word) != t_word:
        raise CosetViolation("bottom of the chunked square moves the split letter")
    tau = GroupoidEdge(mid_src, mid_tgt, tau_aut)
    if audit is not None:
        moves = []
        if d_v:
            moves.append((d_v.aut, d_v.source, d_v.target))
        moves.append((tau_aut, mid_src, mid_tgt))
        if d_w:
            moves.append((d_w.aut.inverse(), mid_tgt, e.target))
        audit.append(EdgeScript(tuple(moves), e.aut))
    loops = _loops_move_front(d_v, audit)
    loops.append(_loop(br if d_v is None and d_w is None else _bracket(tau), STAB))
    loops.extend(_invert_loops(_loops_move_front(d_w, audit), sig))
    return loops


def _sandwich(left: Optional[GroupoidEdge], mid: Automorphism, right) -> Automorphism:
    parts: list[Automorphism] = []
    if left is not None:
        parts.append(left.aut.inverse())
    parts.append(mid)
    if right is not None:
        parts.append(right.aut)
    return compose(*parts) if len(parts) > 1 else parts[0]


def _loops_move_front(d: Optional[GroupoidEdge], audit) -> list[BaseLoop]:
    """Loops for a front conjugation P t_j Q -> t_j P Q.

    With no puncture letter in P this is the first canonical move, so the
    telescoped loop is trivial; otherwise it splits into a square at the
    first puncture letter of P followed by an adjacent-transposition move.
    """
    if d is None:
        return []
    sig = d.sig
    V = d.source
    # the moved letter is the puncture letter that reached the target's front
    jc = d.target.codes[0]
    pos = V.codes.index(jc)
    prefix = V.codes[:pos]
    t1_pos = _first_t_pos(prefix, sig)
    if t1_pos is None:
        br = _bracket(d)
        if not br.is_identity():
            raise CosetViolation("front conjugation over a puncture-free prefix "
                                 "should telescope to the identity")
        return []
    j1 = prefix[t1_pos]
    p0 = Word(sig, prefix[:t1_pos])
    q0 = Word(sig, prefix[t1_pos + 1 :])
    nu1_aut = letter_move(sig, jc, q0.inverse(), q0)
    nu1 = GroupoidEdge(V, nu1_aut.apply(V), nu1_aut)
    conj2 = p0 * Word(sig, (j1,))
    nu2_aut = letter_move(sig, jc, conj2.inverse(), conj2)
    nu2 = GroupoidEdge(nu1.target, nu2_aut.apply(nu1.target), nu2_aut)
    if nu2.target != d.target:
        raise CosetViolation("front conjugation cascade missed its target")
    if audit is not None:
        audit.append(
            EdgeScript(
                ((nu1_aut, V, nu1.target), (nu2_aut, nu1.target, nu2.target)),
                d.aut,
            )
        )
    # nu1 fixes t_{j1}; its own square has puncture-free verticals
    d1_v = _conj_t_to_front(nu1.source, t1_pos)
    d1_w = _conj_t_to_front(nu1.target, t1_pos)
    for vert in (d1_v, d1_w):
        if vert is not None and not _bracket(vert).is_identity():
            raise CosetViolation("puncture-free vertical failed to telescope away")
    tau_aut = _sandwich(d1_v, nu1_aut, d1_w)
    mid_src = d1_v.target if d1_v else nu1.source
    mid_tgt = d1_w.target if d1_w else nu1.target
    j1_word = Word(sig, (j1,))
    if tau_aut.apply(j1_word) != j1_word:
        raise CosetViolation("inner square bottom moves its split letter")
    tau = GroupoidEdge(mid_src, mid_tgt, tau_aut)
    return [_loop(_bracket(tau), STAB), _loop(_bracket(nu2), STAB_SPECIAL)]


# -- case p == 1 -------------------------------------------------------------


def _split_contract_holds(e: GroupoidEdge) -> bool:
    """Does the edge carry t1 conjugated by its source prefix to t1 conjugated
    by its target prefix (the direct-square contract)?"""
    sig = e.sig
    t1 = sig.t_code(1)
    pv, pw = e.source.codes.index(t1), e.target.codes.index(t1)
    t_word = Word(sig, (t1,))
    lhs = t_word.conjugate_by(Word(sig, e.source.codes[:pv]).inverse())
    rhs = t_word.conjugate_by(Word(sig, e.target.codes[:pw]).inverse())
    return e.aut.apply(lhs) == rhs


def _loops_p1(
    e: GroupoidEdge, kind: NielsenKind, br: Automorphism, audit
) -> list[BaseLoop]:
    """Case table at p = 1; ``br`` is the bracket of ``e``."""
    sig = e.sig
    if kind.tag in (N1, N3_RIGHT, N3_LEFT):
        if not _split_contract_holds(e):
            raise CosetViolation(f"{kind} edge violates the direct-square contract")
        return [_loop(br, STAB)]
    if _split_contract_holds(e):
        return [_loop(br, STAB)]
    t1 = sig.t_code(1)
    V = e.source
    k = kind.k
    moved = V.codes[k - 1]
    if kind.tag == N2_LEFT and V.codes[k - 2] == t1:
        if V.codes.index(-moved) > k - 1:
            return _loops_hexagon_left(e, audit)
        inv = e.inverse()
        return _invert_loops(_loops_p1(inv, inv.kind, br.inverse(), audit), sig)
    if kind.tag == N2_RIGHT and V.codes[k] == t1:
        if V.codes.index(-moved) > k:
            return _loops_hexagon_right(e, audit)
        inv = e.inverse()
        return _invert_loops(_loops_p1(inv, inv.kind, br.inverse(), audit), sig)
    raise CosetViolation(f"unhandled p=1 edge shape {kind}")


def _loops_hexagon_left(e: GroupoidEdge, audit) -> list[BaseLoop]:
    """Edge P t1 a Q a' R -> P a Q a' t1 R: the special-coset hexagon."""
    sig = e.sig
    t1 = sig.t_code(1)
    W = e.target
    e_back = _conj_t_to_front(W, W.codes.index(t1))
    w1 = e_back.target
    a = e.source.codes[e.source.codes.index(t1) + 1]
    a_pos = w1.codes.index(a)
    p_word = Word(sig, w1.codes[1:a_pos])
    pull_aut = letter_move(sig, a, p_word.inverse(), Word.identity(sig))
    e_pull = GroupoidEdge(w1, pull_aut.apply(w1), pull_aut)
    w2 = e_pull.target
    phi_v, _ = canonical_edge(e.source)
    phi_w2, _ = canonical_edge(w2)
    big = compose(phi_v.inverse(), e.aut, e_back.aut, pull_aut, phi_w2)
    if audit is not None:
        audit.append(
            EdgeScript(
                (
                    (e.aut, e.source, W),
                    (e_back.aut, W, w1),
                    (pull_aut, w1, w2),
                ),
                compose(e.aut, e_back.aut, pull_aut),
            )
        )
    loops = [_loop(big, STAB_SPECIAL)]
    loops.extend(_invert_loops([_loop(_bracket(e_pull), STAB)], sig))
    loops.extend(_invert_loops([_loop(_bracket(e_back), STAB)], sig))
    return loops


def _loops_hexagon_right(e: GroupoidEdge, audit) -> list[BaseLoop]:
    """Edge P a t1 Q a' R -> P a Q t1 a' R: conjugate t1 past a on both sides.
    The bottom edge is then P t1 a Q a' R -> P a Q a' t1 R, the left-hexagon
    shape."""
    sig = e.sig
    t1 = sig.t_code(1)
    V, W = e.source, e.target
    a = Word(sig, (V.codes[V.codes.index(t1) - 1],))
    psi = letter_move(sig, t1, a.inverse(), a)
    e_l = GroupoidEdge(V, psi.apply(V), psi)
    e_r = GroupoidEdge(W, psi.apply(W), psi)
    chi = compose(psi.inverse(), e.aut, psi)
    bottom = GroupoidEdge(e_l.target, e_r.target, chi)
    bkind = classify_nielsen(bottom)
    if bkind is None or bkind.tag != N2_LEFT:
        raise CosetViolation("hexagon bottom is not the expected left move")
    if audit is not None:
        audit.append(
            EdgeScript(
                ((psi, V, e_l.target), (chi, e_l.target, e_r.target),
                 (psi.inverse(), e_r.target, W)),
                e.aut,
            )
        )
    loops = [_loop(_bracket(e_l), STAB)]
    loops.extend(_loops_hexagon_left(bottom, audit))
    loops.extend(_invert_loops([_loop(_bracket(e_r), STAB)], sig))
    return loops


# -- case p == 0 -------------------------------------------------------------


def _loops_p0(
    e: GroupoidEdge, kind: NielsenKind, br: Automorphism, audit
) -> list[BaseLoop]:
    """Case table at p = 0; ``br`` is the bracket of ``e``."""
    sig = e.sig
    V, W = e.source, e.target
    if kind.tag == N1:
        return [_loop(br)]
    a1 = V.codes[0]
    img = e.aut.apply(Word(sig, (a1,)))
    if len(img) == 1 and img.codes[0] == W.codes[0]:
        return [_loop(br)]
    if kind.tag == N2_RIGHT and kind.k == 1:
        return [_loop(br, STAB)]
    if kind.tag == N2_LEFT and kind.k == 2:
        nu1 = nielsen_edge(V, N2_RIGHT, 1)
        nu2_aut = compose(nu1.aut.inverse(), e.aut)
        nu2 = GroupoidEdge(nu1.target, W, nu2_aut)
        first = nu2_aut.apply(Word(sig, (nu1.target.codes[0],)))
        if len(first) != 1 or first.codes[0] != W.codes[0]:
            raise CosetViolation("second leg of the first-letter split is not "
                                 "a first-letter map")
        if audit is not None:
            audit.append(
                EdgeScript(
                    ((nu1.aut, V, nu1.target), (nu2_aut, nu1.target, W)), e.aut
                )
            )
        return [_loop(_bracket(nu1), STAB), _loop(_bracket(nu2))]
    inv = e.inverse()
    return _invert_loops(_loops_p0(inv, inv.kind, br.inverse(), audit), sig)


# -- peeling and the recursion ------------------------------------------------


def peel_special(l: BaseLoop, sig: Signature) -> tuple[Automorphism, GenWord]:
    """Split a base loop into a stabilizer part and a special generator word.

    Reassembly: for p >= 1 the loop equals stab followed by eval(special);
    for p = 0 it equals eval(special)' * stab * eval(special).
    """
    if l.aut.sig != sig:
        raise SignatureMismatch("loop signature mismatch")
    if l.coset_tag == STAB:
        return l.aut, GenWord.empty()
    if sig.p >= 1:
        sp = _special_generator(sig)
        name = GenName("s", sig.p) if sig.p >= 2 else GenName("g", 1)
        if l.coset_tag == STAB_SPECIAL:
            stab = compose(l.aut, sp.inverse())
            special = GenWord(((name, 1),))
        else:
            stab = compose(l.aut, sp)
            special = GenWord(((name, -1),))
    else:
        if l.coset_tag != STAB_SPECIAL:
            raise CosetViolation(f"unexpected p=0 loop tag {l.coset_tag}")
        ba = compose(generator(GenName("b", 1), sig), generator(GenName("a", 1), sig))
        stab = compose(ba, l.aut, ba.inverse())
        special = GenWord(((GenName("b", 1), 1), (GenName("a", 1), 1)))
    if _tag_of(stab, sig) != STAB:
        raise CosetViolation("peeled part is not in the stabilizer")
    return stab, special


def _alpha1_power(delta: Automorphism, sig: Signature) -> int:
    """Exponent k with delta = alpha_1^k; the kernel of the relabeling
    restriction is generated by alpha_1."""
    x1, y1 = sig.x_code(1), sig.y_code(1)
    moved = delta.fwd.moved_codes()
    if moved not in ([], [x1]):
        raise CosetViolation("relabeling discrepancy moves more than x1")
    img = delta.fwd.images[x1 - 1].codes
    if not img or img[-1] != x1:
        raise CosetViolation("relabeling discrepancy has the wrong x1 image")
    head = img[:-1]
    if any(abs(c) != y1 for c in head):
        raise CosetViolation("relabeling discrepancy is not a power of alpha_1")
    if head and len({c for c in head}) != 1:
        raise CosetViolation("relabeling discrepancy is not a power of alpha_1")
    m = len(head) if head and head[0] == y1 else -len(head)
    return -m


def _stab_word(
    stab: Automorphism, sig: Signature, audit
) -> tuple[GenWord, Automorphism]:
    """A word for ``stab`` and the value it was checked at: the evaluation of
    the word, whose ``fwd`` equals ``stab.fwd``."""
    if sig.p >= 1:
        inner = _factorize_rec(restrict_drop_tp(stab), audit)
        value = eval_gen_word(inner, sig)
        if value.fwd != stab.fwd:
            raise CosetViolation("re-included stabilizer word failed to recompose")
        return inner, value
    inner = _factorize_rec(restrict_relabel_K(stab), audit)
    if any(n.family == "s" for n, _ in inner.tokens):
        raise CosetViolation("relabeled recursion produced a puncture move")
    shifted = inner.shifted(1)
    shifted_value = eval_gen_word(shifted, sig)
    delta = compose(stab, shifted_value.inverse())
    k = _alpha1_power(delta, sig)
    a1 = GenName("a", 1)
    prefix = GenWord(tuple((a1, 1 if k > 0 else -1) for _ in range(abs(k))))
    # evaluation is a homomorphism: eval(prefix shifted) = eval(prefix) eval(shifted)
    value = compose(eval_gen_word(prefix, sig), shifted_value) if k else shifted_value
    if value.fwd != stab.fwd:
        raise CosetViolation("alpha_1 correction failed to recompose")
    return prefix * shifted, value


def factorize_adl(a: Automorphism, audit: Optional[list] = None) -> GenWord:
    """Factor a member of the relator-stabilizing group over the ADL names.

    The result recomposes to ``a`` exactly; this is asserted before returning.
    """
    rep = membership(a)
    if not rep.in_A:
        raise NotInA("input does not fix the relator and permute the classes")
    return _factorize_rec(a, audit)


@lru_cache(maxsize=None)
def _factorize_cached(a: Automorphism) -> GenWord:
    return _factorize_impl(a, None)


def _factorize_rec(a: Automorphism, audit) -> GenWord:
    if audit is None:
        return _factorize_cached(a)
    return _factorize_impl(a, audit)


def _factorize_impl(a: Automorphism, audit) -> GenWord:
    sig = a.sig
    if 2 * sig.g + sig.p <= 1:
        if not a.is_identity():
            raise NotInA(f"the group at {sig} is trivial")
        return GenWord.empty()
    v0 = relator(sig)
    edges, n1 = nielsen_reduce(v0, a.fwd)
    loops: list[BaseLoop] = []
    for e in edges:
        loops.extend(nielsen_to_base_loops(e, audit))
    loops.extend(nielsen_to_base_loops(n1, audit))
    # per call, each distinct stabilizer (keyed by its forward map, which
    # determines it) is factored and checked once, unless an audit records
    # every loop's scripts in order
    stab_words: dict[Endomorphism, tuple[GenWord, Automorphism]] = {}
    special_values: dict[GenWord, Automorphism] = {}
    tokens: list[tuple[GenName, int]] = []
    pieces: list[Automorphism] = []  # the checked value of each part, in order
    for loop in loops:
        stab, special = peel_special(loop, sig)
        found = stab_words.get(stab.fwd) if audit is None else None
        if found is None:
            found = stab_words[stab.fwd] = _stab_word(stab, sig, audit)
        parts = [found]
        if special.tokens:
            sp = special_values.get(special)
            if sp is None:
                sp = special_values[special] = eval_gen_word(special, sig)
            parts.append((special, sp))
            if sig.p == 0:
                parts.insert(0, (special.inverse(), sp.inverse()))
        for word, value in parts:
            if word.tokens:
                tokens.extend(word.tokens)
                pieces.append(value)
    # the word's value is the composite of its checked pieces' values
    if _compose_all(pieces, sig).fwd != a.fwd:
        raise CosetViolation("factorization failed to recompose the input")
    return GenWord(tuple(tokens))


def factorize_adlh(a: Automorphism, audit: Optional[list] = None) -> GenWord:
    """ADL factorization with every alpha_i (i >= 3) token rewritten over the
    ADLH names.  Each rewrite is checked once, so the recomposition check
    evaluates the ADL word rather than the much longer flat word."""
    sig = a.sig
    base = factorize_adl(a, audit)
    word = _splice(base, sig)
    if any(n.family == "a" and n.index >= 3 for n, _ in word.tokens):
        raise CosetViolation("ADLH output still uses alpha_(>=3)")
    if eval_gen_word(base, sig).fwd != a.fwd:
        raise CosetViolation("ADLH factorization failed to recompose the input")
    return word
