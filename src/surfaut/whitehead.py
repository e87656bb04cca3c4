"""Extended Whitehead graphs and Zieschang recognition.

The graph of a candidate word V = v_1 .. v_n (n = 4g + p) has all 4g + 2p
signed letters as vertices and the directed edges t_j' -> t_j together
with v_k -> inverse(v_{k+1}).  V is a Zieschang element when the graph is
a forest; for (g, p) != (0, 0) the forest is then a single line with
4g + 2p - 1 edges.  The two ghost edges that book-end the chain are kept
as endpoint annotations, not graph edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Signature, Word, letter_str, order_rank
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


def _check_candidate(V: Word, sig: Signature) -> None:
    n = sig.chain_len
    if V.sig != sig:
        raise NotACandidate(f"word signature {V.sig} != {sig}")
    if len(V) != n:
        raise NotACandidate(f"length {len(V)} != 4g+p = {n}")
    need = {sig.t_code(j) for j in range(1, sig.p + 1)}
    for i in range(1, sig.g + 1):
        need.update({sig.x_code(i), -sig.x_code(i), sig.y_code(i), -sig.y_code(i)})
    have = set(V.codes)
    if len(have) != n or have != need:
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
    try:
        graph = build_graph(V, sig)
    except NotACandidate:
        return False
    return graph.is_forest()


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
