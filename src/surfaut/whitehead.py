"""Extended Whitehead graphs and Zieschang recognition.

The graph of a candidate word V = v_1 .. v_n (n = 4g + p) has all 4g + 2p
signed letters as vertices and the directed edges t_j' -> t_j together
with v_k -> inverse(v_{k+1}).  V is a Zieschang element when the graph is
a forest; for (g, p) != (0, 0) the forest is then a single line with
4g + 2p - 1 edges.  The two ghost edges that book-end the chain are kept
as endpoint annotations, not graph edges.

``is_zieschang`` builds no graph.  It compares the letter set of V with the
signature's candidate letters, then walks the chain.  In a candidate every
letter occurs once, so the tails of the 4g + 2p - 1 edges are distinct and
so are their heads: the graph is a union of directed paths and cycles with
one edge fewer than vertices, that is one path plus any number of cycles.
The one vertex with no predecessor is v_1', so the graph is a forest exactly
when the walk from v_1' visits all 4g + 2p vertices.  ``build_graph`` with
its union-find check (``is_forest``) and ``forest_check_dfs`` are the two
independent oracles of that walk.  The verdict is a function of the
signature and the codes, so ``_is_zieschang`` keeps it per (signature,
codes) in a ``core.memo``; a word of another signature is refused before
the memo, so that branch stores nothing.

``is_onto`` is the independent oracle of automorphism-ness (Stallings,
*Topology of finite graphs*, 1983; Kapovich and Myasnikov, *Stallings
foldings and subgroups of free groups*, 2002).  It folds the bouquet of the
basis images of a map: the images generate the whole free group exactly
when the folded graph is the rose, one vertex with a loop for every letter.
A free group of finite rank is Hopfian, so an onto endomorphism is an
automorphism.  The fold shares no code with substitution or peak reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Signature, Word, letter_str, memo, order_rank
from .errors import CosetViolation, NotACandidate


@dataclass(frozen=True)
class ExtendedWhiteheadGraph:
    """Directed graph on the signed letters, plus ghost-edge annotations."""

    sig: Signature
    edges: tuple[tuple[int, int], ...]
    ghost_in: Optional[int]  # vertex hit by the ghost edge from the left end
    ghost_out: Optional[int]  # vertex emitting the ghost edge at the right end

    def vertices(self) -> list[int]:
        out = []
        for b in self.sig.basis_codes():
            out.extend((b, -b))
        return out

    def is_forest(self) -> bool:
        return _forest_union_find(self.vertices(), self.edges)


@memo
def _candidate_letters(sig: Signature) -> frozenset[int]:
    """The letters of a candidate word: t_1 .. t_p and both signs of every
    handle letter, 4g + p in all."""
    need = {sig.t_code(j) for j in range(1, sig.p + 1)}
    for i in range(1, sig.g + 1):
        need.update({sig.x_code(i), -sig.x_code(i), sig.y_code(i), -sig.y_code(i)})
    return frozenset(need)


def _check_candidate(V: Word, sig: Signature) -> None:
    n = sig.chain_len
    if V.sig != sig:
        raise NotACandidate(f"word signature {V.sig} != {sig}")
    if len(V) != n:
        raise NotACandidate(f"length {len(V)} != 4g+p = {n}")
    have = set(V.codes)
    if len(have) != n or have != _candidate_letters(sig):
        for j in range(1, sig.p + 1):
            if -sig.t_code(j) in have:
                raise NotACandidate(f"t{j} occurs inverted")
        raise NotACandidate("letter multiset is not one of each required letter")


def build_graph(V: Word, sig: Signature) -> ExtendedWhiteheadGraph:
    """Extended Whitehead graph of a candidate word; raises NotACandidate."""
    _check_candidate(V, sig)
    edges = [(-sig.t_code(j), sig.t_code(j)) for j in range(1, sig.p + 1)]
    codes = V.codes
    edges.extend((codes[k], -codes[k + 1]) for k in range(len(codes) - 1))
    ghost_in = -codes[0] if codes else None
    ghost_out = codes[-1] if codes else None
    return ExtendedWhiteheadGraph(sig, tuple(edges), ghost_in, ghost_out)


def is_zieschang(V: Word, sig: Signature) -> bool:
    """True iff V is a candidate and its extended graph is a forest."""
    if V.sig is not sig and V.sig != sig:
        return False
    return _is_zieschang(sig, V.codes)


@memo
def _is_zieschang(sig: Signature, codes: tuple[int, ...]) -> bool:
    """``is_zieschang`` of the word ``codes`` of ``sig``."""
    n = len(codes)
    # n letters forming the n-element candidate set: each occurs once
    if n != sig.chain_len or frozenset(codes) != _candidate_letters(sig):
        return False
    if not n:
        return True  # (0, 0): no vertices, the empty forest
    # successors: v_k -> v_(k+1)' along the word, and t_j' -> t_j
    succ = dict(zip(codes, [-c for c in codes[1:]]))
    for j in range(1, sig.p + 1):
        succ[-j] = j
    v, seen = -codes[0], 1
    while v in succ:  # v_1' has no predecessor, so the walk cannot close up
        v = succ[v]
        seen += 1
    return seen == n + sig.p


def _forest_union_find(vertices: list[int], edges) -> bool:
    parent = {v: v for v in vertices}

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:  # path compression
            parent[v], v = root, parent[v]
        return root

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def is_onto(endo) -> bool:
    """True iff the basis images of ``endo`` (an ``Endomorphism``) generate
    the free group of its signature, decided by Stallings folding.

    Vertex 0 is the base of the bouquet; each image of length m adds a closed
    path of m edges through it.  ``out[v]`` maps a signed letter to the
    vertex its edge leaves v for, and every edge is entered under both
    directions.  Two edges with one label at one vertex are folded by
    merging their far ends (union-find); the merged vertex takes the union
    of both label tables, which may fold further."""
    parent: list[int] = [0]
    out: list[Optional[dict[int, int]]] = [{}]
    merges: list[tuple[int, int]] = []

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:  # path compression
            parent[v], v = root, parent[v]
        return root

    def enter(v: int, c: int, u: int) -> None:
        # the edge v -c-> u, and u -c'-> v
        for a, lab, b in ((v, c, u), (u, -c, v)):
            table = out[find(a)]
            t = table.get(lab)
            if t is None:
                table[lab] = b
            else:
                merges.append((t, b))
        while merges:
            a, b = merges.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if len(out[a]) < len(out[b]):
                a, b = b, a
            parent[b] = a
            table, gone = out[a], out[b]
            out[b] = None
            for lab, t in gone.items():
                s = table.get(lab)
                if s is None:
                    table[lab] = t
                else:
                    merges.append((s, t))

    for w in endo.images:
        codes = w.codes
        v = 0
        for k, c in enumerate(codes):
            if k == len(codes) - 1:
                u = 0
            else:
                u = len(parent)
                parent.append(u)
                out.append({})
            enter(v, c, u)
            v = u
    root = find(0)
    if any(find(v) != root for v in range(len(parent))):
        return False
    # one folded vertex: every label occurs at most once, so all 2 * rank
    # signed letters label a loop exactly when the table has 2 * rank entries
    return len(out[root]) == 2 * endo.sig.rank


def forest_check_dfs(graph: ExtendedWhiteheadGraph) -> bool:
    """Independent oracle: undirected depth-first cycle detection."""
    adj: dict[int, list[int]] = {v: [] for v in graph.vertices()}
    for a, b in graph.edges:
        adj[a].append(b)
        adj[b].append(a)
    seen: set[int] = set()
    for start in graph.vertices():
        if start in seen:
            continue
        stack = [(start, None)]
        seen.add(start)
        while stack:
            v, parent_edge = stack.pop()
            skipped_parent = False
            for u in adj[v]:
                if u == parent_edge and not skipped_parent:
                    skipped_parent = True  # one multi-edge back to the parent is fine
                    continue
                if u in seen:
                    return False
                seen.add(u)
                stack.append((u, v))
    return True


def chain_line(graph: ExtendedWhiteheadGraph) -> list[int]:
    """Vertex sequence of the single line of a Zieschang graph.

    Callers pass graphs of words that passed ``is_zieschang``, so a graph
    that is not one simple line is an internal fault (``CosetViolation``)."""
    succ = dict(graph.edges)
    pred = {b: a for a, b in graph.edges}
    if len(succ) != len(graph.edges) or len(pred) != len(graph.edges):
        raise CosetViolation("graph is not a union of simple chains")
    starts = [v for v in graph.vertices() if v not in pred]
    lines = []
    for s in starts:
        line = [s]
        while line[-1] in succ:
            line.append(succ[line[-1]])
        lines.append(line)
    if len(lines) != 1:
        raise CosetViolation(f"expected one line, found {len(lines)}")
    return lines[0]


def to_dot(graph: ExtendedWhiteheadGraph) -> str:
    """Deterministic DOT output; ghost annotations drawn as dashed loops."""
    sig = graph.sig
    lines = ["digraph whitehead {", "  rankdir=LR;"]
    for v in sorted(graph.vertices(), key=order_rank):
        lines.append(f'  "{letter_str(sig, v)}";')
    for a, b in graph.edges:
        lines.append(f'  "{letter_str(sig, a)}" -> "{letter_str(sig, b)}";')
    for v, tag in ((graph.ghost_in, "ghost_in"), (graph.ghost_out, "ghost_out")):
        if v is not None:
            name = letter_str(sig, v)
            lines.append(f'  "{name}" -> "{name}" [style=dashed, label="{tag}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
