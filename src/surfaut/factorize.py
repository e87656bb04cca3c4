"""Constructive factorization into the ADL and ADLH generating sets.

Every admissible automorphism is peak-reduced into Nielsen edges, each edge
is telescoped between canonical edges into base loops at the relator, each
loop is peeled into a distinguished-letter part plus a stabilizer part, and
the stabilizer part is restricted to a smaller signature and factored
recursively.  Every case-table step is verified concretely: endpoint words,
loop coset tags, and the final recomposition are all checked, so a
transcription bug surfaces as a hard error instead of a wrong answer.

Each checked value is computed once per process while its memo keeps it.
Seven memos hold checked values, each a ``core._Memo``, one of the two
forms of the package's one bounded LRU memo layer in ``core`` (``core.memo``
is the other).  Each entry is one value, made whole by one
``lookup(key, build)``, and a raise stores nothing:

- ``_adl_words`` keeps, per top-level input of ``factorize_adl`` keyed on
  its forward image codes (``_loop_key``), its checked ADL word.  The
  forward map fixes the automorphism, which has one inverse.
  ``factorize_adl`` runs ``membership`` only on a miss, so once per distinct
  input while the memo keeps it: a word is stored only after it was checked
  to recompose its input, and every ADL generator fixes the relator and
  permutes the puncture classes, so every stored key is a member.  A
  non-member raises ``NotInA`` and stores nothing, so it raises again on
  every call.  The recursion's stabilizers do not pass through it;
  ``_parts`` serves an equal loop;
- ``_adlh_words`` keeps, per input of ``factorize_adlh`` keyed the same way,
  its flat ADLH word: the splice (``gens._splice``) of its checked ADL word,
  which has the ADL word's value and no alpha_(>=3) token (see ``gens``),
  so it is built with no fold and no check of its own;
- ``_factored`` keeps, per Nielsen edge, the edge's reduced tokens with the
  composite of the forward values of its checked parts, so an edge is
  telescoped only on a miss;
- ``_brackets``, ``_tags`` and ``_parts`` keep, per loop at the relator
  keyed on its forward image codes (``_loop_key``), the witnessed pair of a
  bracket, the coset tag once ``_loop``'s checks pass, and the nonempty
  parts the loop peels into (``peel_special``, ``_stab_word`` and the
  special generator's words), each part with the forward value it was
  checked at;
- ``_reduced`` keeps, per state of a peak reduction after its first, keyed
  on the codes of the current word and of the current images (their
  lengths, 4g + p and 2g + p, fix the signature), the edges of a reduction
  that passed through it, the state's index among them and that reduction's
  N1 remainder edge.  ``_factorize_word`` enters the reduction loop
  ``groupoid._reduce_from`` at the relator with it, so a reduction that
  reaches a stored state appends the stored suffix and runs no move for it.
  The loop checks that the remainder is a letter permutation of the classes
  ending at the relator, so no precondition is checked again before it:
  ``membership`` checked the top level, and a recursion level's stabilizer
  that does not fix the relator and permute the classes is an engine fault
  (``ReductionStuck`` or ``CosetViolation``).  The rest of a
  reduction is a function of its state, so a hit returns edges that passed
  every check on an equal state.  A state is stored once its reduction has
  its remainder; a hit that would end past the call's iteration budget is
  not taken.  The first state is not looked up: at the top level it is the
  input, which ``_adl_words`` serves, and in the recursion it is a
  stabilizer, whose loop ``_parts`` serves.

The key of an edge is what its telescoping reads: the signature, the source
codes, the forward image codes and the kind; the target and the inverse are
functions of the source and the forward map.  A loop's forward map
determines its inverse and its coset tag, so it determines the parts.  A hit
therefore returns the values that every check passed on an equal edge or
loop.  Each stored value is the forward fold of its stored tokens:
``_stab_word`` and ``_peel_parts`` return the fold of the word they return,
and ``_factor_edge`` joins its parts' runs and composes their values in the
same order.  Evaluation is a homomorphism and ``_join`` only cancels
inverse pairs, so the end-to-end check of a level, which composes one value
per edge and compares the result with the input, is a check of the word it
returns: the same predicate as evaluating that word, whether its parts came
from a memo or not.  Every ADL word rests on that one check, and every ADLH
word is the splice of a checked ADL word.

``factorize_audit`` factorises its input, so a non-member raises
``NotInA``, and then replays the factorisation (``_replay``): it telescopes
every edge of a level again, in order, then peels every loop and replays
its stabilizer, so the scripts come out in the recursion's order.  It reads
the bracket pairs and the checked coset tags from ``_brackets`` and
``_tags``, and no edge, parts or reduction memo: it reduces with the public
``nielsen_reduce``, which runs every move, so its scripts come from a
reduction that no memo served.  Certification (``certify_automorphism``)
checks its preconditions itself and then enters the reduction loop
``groupoid._reduce_from`` with no memo, so it runs every move of its input
as well.  Each case table records its cascade scripts as it telescopes
(``_telescope``); only the replay builds them into ``EdgeScript``s.

Words are joined, not re-reduced: every ``GenWord`` is reduced, so an
edge's tokens and a level's word are the parts' and edges' token runs
joined at their seams (``gens._join``) and built by the trusted
``gens._genword``.

The telescoping brackets its edge once; the case tables take that bracket,
and a table that recurses on the inverse edge passes its inverse.  Brackets
take few values (on the ``adl-grid`` benchmark pool, 4,912 brackets take
293), so a bracket folds its forward map and looks it up in
``_brackets``; only a miss folds the inverse, and since an automorphism
has one inverse, a hit returns the pair a fresh fold would give.  ``_loop``
runs the coset and relator checks once per distinct forward map and
compares the expected tag on every call.  Every recomposition check
compares forward maps, so it folds forward maps only (``_compose_endos`` and
``gens._eval_fwd``) and builds no inverse for it.

Every move of a case table is one ``GroupoidEdge``, built once by the
trusted ``groupoid._edge`` from a source that is an end of a checked edge,
with the image of that source as its target.  The same edges serve the
telescoping and the audit: an ``EdgeScript`` is a chain of them, checked
for chaining and against the composite of the edge it rewrites, and the
audit checks every script it prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Signature, Word, _Memo, _word, relator
from .endo import (
    Automorphism,
    Endomorphism,
    _aut,
    _compose_all,
    _compose_endos,
    compose,
    letter_move,
    membership,
    restrict_drop_tp,
    restrict_relabel_K,
)
from .errors import CosetViolation, NotInA, NotInStabilizer, NotZieschang, SignatureMismatch
from .gens import (
    GenName,
    GenWord,
    _eval_fwd,
    _genword,
    _join,
    _splice,
    _Tokens,
    generator,
)
from .groupoid import (
    N1,
    N2_LEFT,
    N2_RIGHT,
    N3_LEFT,
    N3_RIGHT,
    GroupoidEdge,
    NielsenKind,
    _edge,
    _nielsen_edge,
    _reduce_from,
    canonical_edge,
    classify_nielsen,
    nielsen_reduce,
)

STAB = "stab"
STAB_SPECIAL = "stab_special"
STAB_SPECIAL_INV = "stab_special_inv"


def _distinguished(sig: Signature) -> Word:
    if sig.p >= 1:
        return _word(sig, (sig.t_code(sig.p),))
    x1, y1 = sig.x_code(1), sig.y_code(1)  # these check that g >= 1
    return _word(sig, (-x1, -y1, x1))


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


@dataclass(frozen=True, slots=True)
class BaseLoop:
    """A loop at the relator whose distinguished image matches its tag."""

    aut: Automorphism
    coset_tag: str

    def __post_init__(self) -> None:
        _check_fixes_relator(self.aut)
        if _tag_of(self.aut, self.aut.sig) != self.coset_tag:
            raise CosetViolation(
                f"loop distinguished image does not match tag {self.coset_tag}"
            )


def _check_fixes_relator(aut: Automorphism) -> None:
    v0 = relator(aut.sig)
    if aut.apply(v0) != v0:
        raise CosetViolation("base loop does not fix the relator")


def _loop(aut: Automorphism, expect: Optional[str] = None) -> BaseLoop:
    """Trusted constructor.  The coset checks and ``BaseLoop``'s relator
    check run once per distinct forward map, on a miss of ``_tags``, which
    stores the tag only when they all pass, the ``expect`` comparison
    included; that comparison runs again on every call."""
    tag = _tags.lookup(_loop_key(aut.fwd), lambda: _checked_tag(aut, expect))
    _check_expected(aut.sig, tag, expect)
    loop = object.__new__(BaseLoop)
    setf = object.__setattr__  # the dataclass is frozen
    setf(loop, "aut", aut)
    setf(loop, "coset_tag", tag)
    return loop


def _checked_tag(aut: Automorphism, expect: Optional[str]) -> str:
    """The coset tag of a loop, once the coset checks and ``BaseLoop``'s
    relator check pass."""
    tag = _tag_of(aut, aut.sig)
    if tag is None:
        raise CosetViolation("loop lands outside every admissible coset")
    _check_expected(aut.sig, tag, expect)
    _check_fixes_relator(aut)
    return tag


def _check_expected(sig: Signature, tag: str, expect: Optional[str]) -> None:
    if expect is not None and sig.p >= 1 and tag != expect:
        raise CosetViolation(f"expected a {expect} loop, found {tag}")


@dataclass(frozen=True)
class EdgeScript:
    """A cascade of edges rewriting one edge: each edge starts where the one
    before it ends, and their composite is the edge being rewritten."""

    moves: tuple[GroupoidEdge, ...]
    expected: Automorphism

    def __post_init__(self) -> None:
        for prev, move in zip(self.moves, self.moves[1:]):
            if move.source != prev.target:
                raise CosetViolation("edge script endpoints do not chain")
        comp = compose(*(m.aut for m in self.moves))
        if comp.fwd != self.expected.fwd:
            raise CosetViolation("edge script composite differs from its edge")

    def lines(self) -> list[str]:
        return [f"{m.source} => {m.target}" for m in self.moves]


def _bracket(e: GroupoidEdge) -> Automorphism:
    """The loop canon(V)' e canon(W) at the relator, for e: V -> W.  Only
    the forward map is folded on every call; the inverse is folded on a miss
    of ``_brackets`` only, since an automorphism has one inverse.  The
    engine built both ends of e, so an end that is not Zieschang, which
    ``canonical_edge`` refuses on entry, is an engine fault."""
    try:
        phi_src, _ = canonical_edge(e.source)
        phi_tgt, _ = canonical_edge(e.target)
    except NotZieschang as exc:
        raise CosetViolation(str(exc)) from exc
    fwd = _compose_endos([phi_src.inv, e.aut.fwd, phi_tgt.fwd])

    def witnessed() -> Automorphism:
        # witnessed by algebra, as in ``compose``
        return _aut(fwd, _compose_endos([phi_tgt.inv, e.aut.inv, phi_src.fwd]))

    return _brackets.lookup(_loop_key(fwd), witnessed)


def _conj_t_to_front(V: Word, pos: int) -> Optional[GroupoidEdge]:
    """Edge P t_j Q -> t_j P Q moving the puncture letter at ``pos`` by
    conjugation over its prefix; None when it is already in front.  V is an
    end of a checked edge."""
    if pos == 0:
        return None
    sig = V.sig
    tj = V.codes[pos]
    P = Word(sig, V.codes[:pos])
    d = _edge(V, letter_move(sig, tj, P.inverse(), P), None)
    if d.target.codes[: pos + 1] != (tj,) + V.codes[:pos]:
        raise CosetViolation("front conjugation produced an unexpected word")
    return d


def _first_t_pos(codes: tuple[int, ...], sig: Signature) -> Optional[int]:
    for idx, c in enumerate(codes):
        if sig.is_t_code(c):
            return idx
    return None


def _loop_key(fwd: Endomorphism) -> tuple:
    """The signature and the image codes of a loop's forward map, which
    determine its inverse, its coset tag and its parts."""
    return (fwd.sig, tuple([w.codes for w in fwd.images]))


def _edge_key(e: GroupoidEdge) -> tuple:
    """What the telescoping of ``e`` reads: the signature, the source codes,
    the forward image codes and the kind.  The target and the inverse are
    functions of the source and the forward map."""
    return (e.sig, e.source.codes, tuple([w.codes for w in e.aut.fwd.images]), e.kind)


def nielsen_to_base_loops(e: GroupoidEdge) -> list[BaseLoop]:
    """Telescope one Nielsen edge into base loops at the relator: classify,
    bracket, run the case table and check the loops against the bracket.

    The loops composed in order equal
    compose(invert(canonical(source)), e.aut, canonical(target)).
    Factorisation telescopes an edge only on a miss of ``_factored``.
    """
    return _telescope(e)[0]


def _telescope(e: GroupoidEdge) -> tuple[list[BaseLoop], list]:
    """The base loops of ``e`` and the cascade scripts its case tables
    recorded, in order.  A case table records a script as its moves and the
    map they compose to, or None when that is their own composite."""
    sig = e.sig
    if sig.p <= 1 and sig.g < 1:
        raise CosetViolation(f"no case table applies at {sig}")
    kind = e.kind or classify_nielsen(e)
    if kind is None:
        raise CosetViolation("edge is not a Nielsen edge")
    br = _bracket(e)
    records: list = []
    if sig.p >= 2:
        loops = _loops_p_ge2(e, kind, br, records)
    elif sig.p == 1:
        loops = _loops_p1(e, kind, br, records)
    else:
        loops = _loops_p0(e, kind, br, records)
    if _compose_all([l.aut.fwd for l in loops], sig) != br.fwd:
        raise CosetViolation("base loops do not recompose the telescoped edge")
    return loops, records


def _invert_loops(loops: list[BaseLoop], sig: Signature) -> list[BaseLoop]:
    """Loops composing to the inverse, each re-tagged; a special loop inverts
    into a pure special-inverse loop followed by a stabilizer loop.  The case
    tables pass stab and stab_special loops only: a stab_special_inv loop
    would fail the stab tag check of ``_loop``."""
    out: list[BaseLoop] = []
    for loop in reversed(loops):
        if loop.coset_tag == STAB or sig.p == 0:
            out.append(_loop(loop.aut.inverse()))
            continue
        sp = _special_generator(sig)
        s = compose(loop.aut, sp.inverse())
        out.append(_loop(sp.inverse(), STAB_SPECIAL_INV))
        out.append(_loop(s.inverse(), STAB))
    return out


# -- case p >= 2 -------------------------------------------------------------


def _loops_p_ge2(
    e: GroupoidEdge, kind: NielsenKind, br: Automorphism, scripts: list
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
    return _loops_chunked_square(e, jc, br, scripts)


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
    e: GroupoidEdge, jc: int, br: Automorphism, scripts: list
) -> list[BaseLoop]:
    """Split source and target at an untouched puncture letter, move it to the
    front on both sides, and read off the commuting bottom loop.  With the
    letter in front on both sides the bottom is ``e`` itself, whose bracket
    is ``br``."""
    d_v, tau, d_w = _square(e, jc)
    scripts.append(((d_v, tau, d_w.inverse()) if d_v else (tau,), e.aut))
    loops = _loops_move_front(d_v, scripts)
    loops.append(_loop(br if tau is e else _bracket(tau), STAB))
    loops.extend(_invert_loops(_loops_move_front(d_w, scripts), e.sig))
    return loops


def _square(
    e: GroupoidEdge, jc: int
) -> tuple[Optional[GroupoidEdge], GroupoidEdge, Optional[GroupoidEdge]]:
    """The square over ``e`` at the puncture letter ``jc``: the front
    conjugations d_v, d_w of its ends (None when ``jc`` is already in front)
    and the bottom tau = d_v' e d_w, which fixes ``jc``; tau is ``e`` when
    both are None.

    They are both None or both edges.  ``e`` fixes ``jc`` and no other image
    contains it, so the target is e(P) jc e(Q) for the source P jc Q, with
    nothing cancelling against ``jc``; it starts with ``jc`` exactly when
    e(P) is empty, that is when P is, as ``e`` is injective."""
    d_v = _conj_t_to_front(e.source, e.source.codes.index(jc))
    d_w = _conj_t_to_front(e.target, e.target.codes.index(jc))
    if (d_v is None) != (d_w is None):
        raise CosetViolation("front conjugation at one end of the square only")
    tau = e
    if d_v:
        # d_v' carries d_v's target back to e's source; tau ends where d_w does
        tau = _edge(d_v.target, compose(d_v.aut.inverse(), e.aut, d_w.aut), None)
    t_word = Word(e.sig, (jc,))
    if tau.aut.apply(t_word) != t_word:
        raise CosetViolation("bottom of the square moves its split letter")
    return d_v, tau, d_w


def _loops_move_front(d: Optional[GroupoidEdge], scripts: list) -> list[BaseLoop]:
    """Loops for a front conjugation P t_j Q -> t_j P Q: none when P has no
    puncture letter, as it is then the first canonical move (bracket 1).
    Otherwise it is nu1 then nu2, split at the first puncture letter t_k of P;
    nu1 fixes t_k and the verticals of its square at t_k are first canonical
    moves, so the bottom of that square has the bracket of nu1."""
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
        return []
    q0 = Word(sig, prefix[t1_pos + 1 :])
    nu1 = _edge(V, letter_move(sig, jc, q0.inverse(), q0), None)
    conj2 = Word(sig, prefix[: t1_pos + 1])
    nu2 = _edge(nu1.target, letter_move(sig, jc, conj2.inverse(), conj2), None)
    if nu2.target != d.target:
        raise CosetViolation("front conjugation cascade missed its target")
    scripts.append(((nu1, nu2), d.aut))
    return [_loop(_bracket(nu1), STAB), _loop(_bracket(nu2), STAB_SPECIAL)]


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
    e: GroupoidEdge, kind: NielsenKind, br: Automorphism, scripts: list
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
            return _loops_hexagon_left(e, br, scripts)
        inv = e.inverse()
        return _invert_loops(_loops_p1(inv, inv.kind, br.inverse(), scripts), sig)
    if kind.tag == N2_RIGHT and V.codes[k] == t1:
        if V.codes.index(-moved) > k:
            return _loops_hexagon_right(e, br, scripts)
        inv = e.inverse()
        return _invert_loops(_loops_p1(inv, inv.kind, br.inverse(), scripts), sig)
    raise CosetViolation(f"unhandled p=1 edge shape {kind}")


def _loops_hexagon_left(e: GroupoidEdge, br: Automorphism, scripts: list) -> list[BaseLoop]:
    """Edge P t1 a Q a' R -> P a Q a' t1 R: the special-coset hexagon; ``br``
    is the bracket of ``e``.  ``e_back`` is the target's first canonical move,
    whose bracket is the identity, so the special loop, the bracket of
    e e_back e_pull, is ``br`` followed by the bracket of ``e_pull``."""
    sig = e.sig
    t1 = sig.t_code(1)
    W = e.target
    e_back = _conj_t_to_front(W, W.codes.index(t1))
    w1 = e_back.target
    a = e.source.codes[e.source.codes.index(t1) + 1]
    a_pos = w1.codes.index(a)
    p_word = Word(sig, w1.codes[1:a_pos])
    e_pull = _edge(w1, letter_move(sig, a, p_word.inverse(), Word.identity(sig)), None)
    scripts.append(((e, e_back, e_pull), None))
    pull = _bracket(e_pull)
    loops = [_loop(compose(br, pull), STAB_SPECIAL)]
    loops.extend(_invert_loops([_loop(pull, STAB)], sig))
    return loops


def _loops_hexagon_right(e: GroupoidEdge, br: Automorphism, scripts: list) -> list[BaseLoop]:
    """Edge P a t1 Q a' R -> P a Q t1 a' R: conjugate t1 past a on both sides
    by psi: t1 -> a' t1 a, leaving the left-hexagon bottom
    P t1 a Q a' R -> P a Q a' t1 R.  The first canonical move of P a t1 Q is
    psi then that of P t1 a Q, so the sides have identity brackets and the
    bottom has the bracket ``br`` of ``e``."""
    sig = e.sig
    t1 = sig.t_code(1)
    V = e.source
    a = Word(sig, (V.codes[V.codes.index(t1) - 1],))
    psi = letter_move(sig, t1, a.inverse(), a)
    e_l = _edge(V, psi, None)
    # psi' carries e_l's target back to V, so the bottom ends at psi(W)
    bottom = _edge(e_l.target, compose(psi.inverse(), e.aut, psi), None)
    bkind = classify_nielsen(bottom)
    if bkind is None or bkind.tag != N2_LEFT:
        raise CosetViolation("hexagon bottom is not the expected left move")
    e_r = _edge(e.target, psi, None)
    scripts.append(((e_l, bottom, e_r.inverse()), e.aut))
    return _loops_hexagon_left(bottom, br, scripts)


# -- case p == 0 -------------------------------------------------------------


def _loops_p0(
    e: GroupoidEdge, kind: NielsenKind, br: Automorphism, scripts: list
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
        nu1 = _nielsen_edge(V, N2_RIGHT, 1)
        # nu1' carries nu1's target back to V, so nu2 ends at W
        nu2 = _edge(nu1.target, compose(nu1.aut.inverse(), e.aut), None)
        first = nu2.aut.apply(Word(sig, (nu1.target.codes[0],)))
        if len(first) != 1 or first.codes[0] != W.codes[0]:
            raise CosetViolation("second leg of the first-letter split is not "
                                 "a first-letter map")
        scripts.append(((nu1, nu2), e.aut))
        return [_loop(_bracket(nu1), STAB), _loop(_bracket(nu2))]
    inv = e.inverse()
    return _invert_loops(_loops_p0(inv, inv.kind, br.inverse(), scripts), sig)


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


def _alpha1_power(delta: Endomorphism, sig: Signature) -> int:
    """Exponent k with the forward map ``delta`` = alpha_1^k, which sends x1
    to y1^(-k) x1 and fixes every other letter; the kernel of the relabeling
    restriction is generated by alpha_1.  ``_stab_word`` passes the forward
    map of the inverse discrepancy and negates the exponent."""
    x1, y1 = sig.x_code(1), sig.y_code(1)
    moved = delta.moved_codes()
    if moved not in ([], [x1]):
        raise CosetViolation("relabeling discrepancy moves more than x1")
    img = delta.images[x1 - 1].codes
    if not img or img[-1] != x1:
        raise CosetViolation("relabeling discrepancy has the wrong x1 image")
    # a prefix of a reduced word in y1 and y1' has no y1 next to y1', so
    # its letters are all equal
    head = img[:-1]
    if any(abs(c) != y1 for c in head):
        raise CosetViolation("relabeling discrepancy is not a power of alpha_1")
    m = len(head) if head and head[0] == y1 else -len(head)
    return -m


def _restricted(stab: Automorphism) -> Automorphism:
    """The stabilizer part of a loop at the smaller signature it is factored
    at: without the last puncture letter (p >= 1), or relabeled (p = 0).
    The recursion built ``stab``, so a letter it fails to fix, which the
    restriction refuses, is an engine fault."""
    try:
        return restrict_drop_tp(stab) if stab.sig.p >= 1 else restrict_relabel_K(stab)
    except NotInStabilizer as exc:
        raise CosetViolation(str(exc)) from exc


def _stab_word(stab: Automorphism, sig: Signature) -> tuple[GenWord, Endomorphism]:
    """A word for ``stab`` and the value it was checked at: the forward map
    of the word, which equals ``stab.fwd``.

    At p = 0 the word is alpha_1^k followed by the shifted recursive word,
    where the discrepancy delta = stab shifted' is alpha_1^k.  Its inverse
    shifted stab' needs no inverse of the word, and delta = alpha_1^k exactly
    when delta' = alpha_1^(-k), so k is read off delta' and negated."""
    inner = _factorize_word(_restricted(stab))
    if sig.p >= 1:
        value = _eval_fwd(inner, sig)
        if value != stab.fwd:
            raise CosetViolation("re-included stabilizer word failed to recompose")
        return inner, value
    if any(n.family == "s" for n, _ in inner.tokens):
        raise CosetViolation("relabeled recursion produced a puncture move")
    shifted = inner.shifted(1)
    shifted_value = _eval_fwd(shifted, sig)
    k = -_alpha1_power(_compose_endos([shifted_value, stab.inv]), sig)
    a1 = GenName("a", 1)
    prefix = GenWord(tuple((a1, 1 if k > 0 else -1) for _ in range(abs(k))))
    # evaluation is a homomorphism: eval(prefix shifted) = eval(prefix) eval(shifted)
    value = _compose_endos([_eval_fwd(prefix, sig), shifted_value]) if k else shifted_value
    if value != stab.fwd:
        raise CosetViolation("alpha_1 correction failed to recompose")
    return prefix * shifted, value


def factorize_adl(a: Automorphism) -> GenWord:
    """Factor a member of the relator-stabilizing group over the ADL names.

    The result recomposes to ``a`` exactly; this is asserted before returning.
    Membership is checked only on a miss of ``_adl_words``: every stored
    word was checked to recompose its key's automorphism, which is therefore
    a member.
    """
    return _adl_words.lookup(_loop_key(a.fwd), lambda: _factorize_member(a))


def factorize_audit(a: Automorphism) -> list[EdgeScript]:
    """The cascade scripts of the factorisation of ``a``, in the recursion's
    order, each checked for chaining and against its edge.  ``a`` is
    factorised first, so a non-member raises ``NotInA``; the scripts come
    from the replay ``_replay``."""
    factorize_adl(a)
    return _replay(a)


def _factorize_member(a: Automorphism) -> GenWord:
    """``_factorize_word`` of ``a`` once ``membership`` passes."""
    if not membership(a).in_A:
        raise NotInA("input does not fix the relator and permute the classes")
    return _factorize_word(a)


def _factorize_word(a: Automorphism) -> GenWord:
    """The ADL word of ``a``: its peak reduction's edges factored in order,
    each through ``_factored``, and checked against ``a``."""
    sig = a.sig
    if 2 * sig.g + sig.p <= 1:
        # ``membership`` refuses every other map at the top level, so only
        # the recursion, an engine fault, reaches this with a non-identity
        if not a.is_identity():
            raise CosetViolation(f"the group at {sig} is trivial")
        return GenWord.empty()
    # the reduced tokens and the forward value of each edge, in order
    runs: list[_Tokens] = []
    pieces: list[Endomorphism] = []
    # ``membership`` checked the top level; at a recursion level the loop's
    # end checks test the relator and the classes (see the module docstring)
    v0 = relator(sig)
    steps, n1 = _reduce_from(v0, a.fwd, v0, _reduced)
    for e in steps + [n1]:
        edge_tokens, value = _edge_factors(e)
        if edge_tokens:
            runs.append(edge_tokens)
            pieces.append(value)
    # the word's value is the composite of its checked pieces' values
    if _compose_all(pieces, sig) != a.fwd:
        raise CosetViolation("factorization failed to recompose the input")
    return _genword(_join(runs))


def _replay(a: Automorphism) -> list[EdgeScript]:
    """The cascade scripts of the factorisation of ``a``, which has
    succeeded: each edge of the level telescoped in order, then the scripts
    of each loop's stabilizer, one loop after another.  Nothing is read from
    or stored in the edge and parts memos."""
    sig = a.sig
    if 2 * sig.g + sig.p <= 1:
        return []
    steps, n1 = nielsen_reduce(relator(sig), a.fwd)
    scripts: list[EdgeScript] = []
    loops: list[BaseLoop] = []
    for e in steps + [n1]:
        edge_loops, records = _telescope(e)
        loops += edge_loops
        for moves, expected in records:
            scripts.append(EdgeScript(moves, expected or compose(*(m.aut for m in moves))))
    for loop in loops:
        scripts += _replay(_restricted(peel_special(loop, sig)[0]))
    return scripts


_Parts = tuple[tuple[GenWord, Endomorphism], ...]  # (word, checked forward value)

#: Per Nielsen edge, keyed on what its telescoping reads (``_edge_key``): the
#: edge's reduced tokens and the composite of its checked parts' forward
#: values.
_factored = _Memo()
#: Per loop at the relator, keyed on its forward image codes (``_loop_key``),
#: the three loop memos: a bracket's witnessed pair, the checked coset tag and
#: the nonempty parts the loop peels into.
_brackets = _Memo()
_tags = _Memo()
_parts = _Memo()
#: Per top-level input of ``factorize_adl``, keyed on its forward image codes
#: (``_loop_key``): its checked ADL word.
_adl_words = _Memo()
#: Per input of ``factorize_adlh``, keyed the same way: its flat ADLH word.
_adlh_words = _Memo()
#: Per state of a peak reduction after its first, keyed on the codes of the
#: current word and images (``groupoid._Carry.key``): the edges of a
#: reduction that passed through it, the state's index among them and that
#: reduction's N1 remainder edge (``groupoid._reduce_from``).
_reduced = _Memo()


def _edge_factors(e: GroupoidEdge) -> tuple[_Tokens, Endomorphism]:
    """``_factor_edge`` through the ``_factored`` memo."""
    return _factored.lookup(_edge_key(e), lambda: _factor_edge(e))


def _factor_edge(e: GroupoidEdge) -> tuple[_Tokens, Endomorphism]:
    """The reduced tokens of the parts of the edge's loops, joined in order,
    and the composite of the parts' values; each loop is peeled only on a
    miss of ``_parts``."""
    runs: list[_Tokens] = []
    values: list[Endomorphism] = []
    sig = e.sig
    for loop in nielsen_to_base_loops(e):
        parts = _parts.lookup(_loop_key(loop.aut.fwd), lambda: _peel_parts(loop, sig))
        for word, value in parts:
            runs.append(word.tokens)
            values.append(value)
    return _join(runs), _compose_all(values, sig)


def _peel_parts(loop: BaseLoop, sig: Signature) -> _Parts:
    """The nonempty parts of one loop, in order, each with its checked
    forward value: the stabilizer word (``_stab_word``) and the special
    generator word after it (around it at p = 0, its inverse first)."""
    stab, special = peel_special(loop, sig)
    parts = [_stab_word(stab, sig)]
    if special.tokens:
        parts.append((special, _eval_fwd(special, sig)))
        if sig.p == 0:
            inv = special.inverse()
            parts.insert(0, (inv, _eval_fwd(inv, sig)))
    return tuple([part for part in parts if part[0].tokens])


def factorize_adlh(a: Automorphism) -> GenWord:
    """ADL factorization with every alpha_i (i >= 3) token rewritten over the
    ADLH names (``gens._splice``, which joins the ADL word's runs with the
    memoised rewrites at their seams).  The flat word is the splice of the
    checked ADL word, and a splice keeps the value of its word and leaves no
    alpha_(>=3) token, so it adds no check of its own.  It is read from the
    bounded LRU memo ``_adlh_words``, keyed like ``_adl_words``: an equal
    key is an equal forward map, so a hit is the splice of that map's
    word."""
    return _adlh_words.lookup(_loop_key(a.fwd), lambda: _splice(factorize_adl(a), a.sig))
