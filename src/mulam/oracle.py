"""Small-scale reduction-graph oracle for the resource calculus.

Exhaustively explores every one-step reduction from a starting sum (every
reducible addend, every redex position) up to a node cap, recording the
graph.  Strong normalization plus confluence predict a DAG with exactly one
sink; the oracle checks that independently of the engine's normalizer.

An addend usually recurs in many sums of one graph.  Each exploration keeps
a table from addend to its redexes and their reducts, so each distinct
addend is stepped once per exploration, however many nodes contain it.

Most edges lead to a node already found, so a successor is looked up by a
key that costs only the change: the sum over its addends of coefficient
times addend hash, modulo 2^61 - 1 (an additive multiset hash; Clarke et
al., "Incremental multiset hash functions", ASIACRYPT 2003).  Stepping
``k`` units of ``t`` to ``r`` subtracts ``k`` times the hash of ``t`` and
adds ``k`` times the key of ``r``.  Over Bool, where coefficients saturate,
the key is taken over the support instead.  Keys only find a candidate: a
node is known when its coefficients equal the successor's exactly, and on a
collision the next key is probed.  Node numbers come from the order nodes
are found, never from keys, so graphs do not depend on the string hash
seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .resource import _as_sum, _check_mode, step_r
from .syntax import BOOL, Pos, ResTerm, Sum, SumBuilder, redexes


class GraphOverflow(Exception):
    """Exploration hit the node cap; results would be incomplete."""

    def __init__(self, node_cap: int, visited: int):
        super().__init__(f"reduction graph exceeds node cap {node_cap}")
        self.node_cap = node_cap
        self.visited = visited


@dataclass(frozen=True, slots=True)
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


# Node keys are taken modulo this Mersenne prime.
_P = (1 << 61) - 1


def _addend_hash(t: ResTerm) -> int:
    """The hash of one addend in a node key."""
    return hash(t.enc) % _P


def _step_table(t: ResTerm, semiring: str) -> tuple[int, list[tuple[Pos, str, tuple, int]]]:
    """``t``'s hash, and for each of its redexes the position, the kind, the
    reduct's items as (term, coefficient, hash) and the reduct's key."""
    reducts = []
    for pos, kind in redexes(t):
        items = tuple((u, c, _addend_hash(u)) for u, c in step_r(t, pos, semiring).items)
        reducts.append((pos, kind, items, sum(c * h for _, c, h in items) % _P))
    return _addend_hash(t), reducts


def explore(
    x: ResTerm | Sum, semiring: str, node_cap: int = 50_000, mode: str = "coeff"
) -> ReductionGraph:
    """Breadth-first closure of one-step reduction; raises GraphOverflow
    rather than returning a truncated graph.

    A successor is built as a copy of its parent's coefficient dict with the
    step applied, keyed from the parent's key (see the module docstring);
    only a new node becomes a canonical sum.
    """
    _check_mode(mode)
    root = _as_sum(x, semiring)
    g = ReductionGraph(root=root, semiring=semiring, mode=mode)
    nodes, edges = g.nodes, g.edges
    saturate = semiring == BOOL
    root_key = sum(c * _addend_hash(t) for t, c in root.items) % _P
    index = {root_key: 0}  # probed key -> node
    nodes.append(root)
    queue: deque[tuple[int, int]] = deque([(0, root_key)])  # node, its key
    steps: dict[ResTerm, tuple[int, list[tuple[Pos, str, tuple, int]]]] = {}
    while queue:
        i, key = queue.popleft()
        s = nodes[i]
        parent = dict(s.items)
        seen_edges = len(edges)
        for t, c in s.items:
            entry = steps.get(t)
            if entry is None:
                entry = steps[t] = _step_table(t, semiring)
            ht, reducts = entry
            k = c if mode == "coeff" else 1
            for pos, kind, items, rkey in reducts:
                d = parent.copy()
                if c == k:
                    del d[t]
                else:
                    d[t] = c - k
                if saturate:
                    # Over Bool the key is the support's: an addend already
                    # there adds nothing.
                    nkey = key - ht
                    for u, _, hu in items:
                        if u not in d:
                            d[u] = 1
                            nkey += hu
                    nkey %= _P
                else:
                    nkey = (key + k * (rkey - ht)) % _P
                    for u, cu, _ in items:
                        d[u] = d.get(u, 0) + k * cu
                # A key hit is the successor only if the coefficients agree.
                probe = nkey
                while (j := index.get(probe)) is not None and d != dict(nodes[j].items):
                    probe += 1
                if j is None:
                    if len(nodes) >= node_cap:
                        raise GraphOverflow(node_cap, len(nodes))
                    j = index[probe] = len(nodes)
                    nodes.append(SumBuilder(semiring, d).build())
                    queue.append((j, nkey))
                edges.append(Edge(i, j, t, pos, kind))
        if len(edges) == seen_edges:
            g.sinks.append(i)
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
