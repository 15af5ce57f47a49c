"""Small-scale reduction-graph oracle for the resource calculus.

Exhaustively explores every one-step reduction from a starting sum (every
reducible addend, every redex position) up to a node cap, recording the
graph.  Strong normalization plus confluence predict a DAG with exactly one
sink; the oracle checks that independently of the engine's normalizer.

An addend usually recurs in many sums of one graph.  Each exploration keeps
a table from addend to its redexes and their reducts, so each distinct
addend is stepped once per exploration, however many nodes contain it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .resource import SumStep, _apply_sum_step, _as_sum, _check_mode, redexes_res, step_r
from .syntax import Pos, ResTerm, Sum


class GraphOverflow(Exception):
    """Exploration hit the node cap; results would be incomplete."""

    def __init__(self, node_cap: int, visited: int):
        super().__init__(f"reduction graph exceeds node cap {node_cap}")
        self.node_cap = node_cap
        self.visited = visited


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    addend: ResTerm
    pos: Pos
    kind: str


@dataclass
class ReductionGraph:
    root: Sum
    semiring: str
    mode: str
    nodes: list[Sum] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)
    sinks: list[int] = field(default_factory=list)

    def node_index(self) -> dict[Sum, int]:
        return {s: i for i, s in enumerate(self.nodes)}


def successors(
    s: Sum, mode: str, steps: dict[ResTerm, list[tuple[Pos, str, Sum]]]
) -> list[tuple[Sum, ResTerm, Pos, str]]:
    """Every one-step successor of ``s`` with the addend, position and kind
    of its step.  ``steps`` holds each addend's redexes and reducts; an
    addend not in it yet is stepped and added."""
    out = []
    for t, c in s.items:
        table = steps.get(t)
        if table is None:
            table = [(pos, kind, step_r(t, pos, s.semiring)) for pos, kind in redexes_res(t)]
            steps[t] = table
        for pos, kind, reduct in table:
            nxt = _apply_sum_step(s, SumStep(t, c, pos, kind), mode, reduct)
            out.append((nxt, t, pos, kind))
    return out


def explore(
    x: ResTerm | Sum, semiring: str, node_cap: int = 50_000, mode: str = "coeff"
) -> ReductionGraph:
    """Breadth-first closure of one-step reduction; raises GraphOverflow
    rather than returning a truncated graph."""
    _check_mode(mode)
    root = _as_sum(x, semiring)
    g = ReductionGraph(root=root, semiring=semiring, mode=mode)
    index: dict[Sum, int] = {root: 0}
    g.nodes.append(root)
    queue: deque[int] = deque([0])
    steps: dict[ResTerm, list[tuple[Pos, str, Sum]]] = {}
    while queue:
        i = queue.popleft()
        s = g.nodes[i]
        succ = successors(s, mode, steps)
        if not succ:
            g.sinks.append(i)
            continue
        for nxt, t, pos, kind in succ:
            j = index.get(nxt)
            if j is None:
                if len(g.nodes) >= node_cap:
                    raise GraphOverflow(node_cap, len(g.nodes))
                j = len(g.nodes)
                index[nxt] = j
                g.nodes.append(nxt)
                queue.append(j)
            g.edges.append(Edge(i, j, t, pos, kind))
    g.sinks.sort()
    return g


def unique_sink(g: ReductionGraph) -> Sum | None:
    """The single normal form, or None when the graph has several sinks
    (inspect ``g.sinks`` for the counterexample pair)."""
    if len(g.sinks) == 1:
        return g.nodes[g.sinks[0]]
    return None


def reachable_sums(g: ReductionGraph) -> set[Sum]:
    return set(g.nodes)


def joinable(
    a: ResTerm | Sum,
    b: ResTerm | Sum,
    semiring: str,
    node_cap: int = 50_000,
    mode: str = "coeff",
) -> bool:
    """Do the two reduction graphs share any sum at all?"""
    ga = explore(a, semiring, node_cap, mode)
    gb = explore(b, semiring, node_cap, mode)
    return not reachable_sums(ga).isdisjoint(reachable_sums(gb))


def is_dag(g: ReductionGraph) -> bool:
    """Kahn's algorithm; reduction graphs must be acyclic."""
    indeg = [0] * len(g.nodes)
    adj: list[list[int]] = [[] for _ in g.nodes]
    for e in g.edges:
        if e.src == e.dst:
            return False
        adj[e.src].append(e.dst)
        indeg[e.dst] += 1
    queue = deque(i for i, d in enumerate(indeg) if d == 0)
    seen = 0
    while queue:
        i = queue.popleft()
        seen += 1
        for j in adj[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    return seen == len(g.nodes)
