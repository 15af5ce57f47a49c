"""Small-scale reduction-graph oracle for the resource calculus.

Exhaustively explores every one-step reduction from a starting sum (every
reducible addend, every redex position) up to a node cap, recording the
graph.  Strong normalization plus confluence predict a DAG with exactly one
sink; the oracle checks that independently of the engine's normalizer.

An addend usually recurs in many sums of one graph.  Each exploration
interns its addends (hash-consing scoped to one call; Filliatre and
Conchon, "Type-safe modular hash-consing", 2006): the first time an addend
is seen it gets a dense id, and lists indexed by id hold the addend, its
hash, its sort key and its redexes with their reducts, so each distinct
addend is stepped once per exploration, however many nodes contain it.
While exploring, a node is a dict from addend id to coefficient, so copying
and comparing nodes runs on ints and never calls a term's hash.

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

A node's dict keeps its addends in canonical order, and a successor
inherits it: it is a copy of its parent's dict in which addends are only
deleted or re-weighted, and both keep the order of the others.  Only a reduct
that brings an addend the parent lacks appends it out of order, so a new node
is sorted by the addends' sort keys only then; otherwise it is stored as a
compact copy in the order it has.  The hot loop builds each ``Edge`` (a named
tuple) with ``tuple.__new__``, which skips the Python frame of its
constructor.  The canonical sums of ``g.nodes`` are built once the search is
over (never when it overflows), each in one pass over its dict's items, and
all of them share one ``(term, coefficient)`` item per distinct pair.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .resource import _as_sum, _check_mode, step_r
from .syntax import BOOL, Pos, ResTerm, Sum, _bag_key, redexes


# The default node cap of ``explore``, ``joinable`` and the confluence suite.
NODE_CAP = 50_000


class GraphOverflow(Exception):
    """Exploration hit the node cap; results would be incomplete."""

    def __init__(self, node_cap: int, visited: int):
        super().__init__(f"reduction graph exceeds node cap {node_cap}")
        self.node_cap = node_cap
        self.visited = visited


class Edge(NamedTuple):
    src: int
    dst: int
    addend: ResTerm
    pos: Pos
    kind: str


class ReductionGraph:
    __slots__ = ("root", "semiring", "mode", "nodes", "edges", "sinks")

    def __init__(
        self,
        root: Sum,
        semiring: str,
        mode: str,
        nodes: list[Sum] | None = None,
        edges: list[Edge] | None = None,
        sinks: list[int] | None = None,
    ):
        self.root = root
        self.semiring = semiring
        self.mode = mode
        self.nodes = [] if nodes is None else nodes
        self.edges = [] if edges is None else edges
        self.sinks = [] if sinks is None else sinks


# Node keys are taken modulo this Mersenne prime.
_P = (1 << 61) - 1


def _addend_hash(t: ResTerm) -> int:
    """The hash of one addend in a node key."""
    return hash(t.enc) % _P


class _Items(dict):
    """(addend id, coefficient) -> the ``(term, coefficient)`` item that every
    node of one graph shares for that pair, made on its first lookup."""

    __slots__ = ("terms",)

    def __init__(self, terms: list[ResTerm]):
        super().__init__()
        self.terms = terms

    def __missing__(self, pair: tuple[int, int]) -> tuple[ResTerm, int]:
        item = self[pair] = (self.terms[pair[0]], pair[1])
        return item


def explore(
    x: ResTerm | Sum, semiring: str, node_cap: int = NODE_CAP, mode: str = "coeff"
) -> ReductionGraph:
    """Breadth-first closure of one-step reduction; raises GraphOverflow
    rather than returning a truncated graph, and ValueError for a node cap
    below 1.

    While exploring, a node is a dict from addend id to coefficient in
    canonical addend order.  A successor is a copy of its parent's dict with
    the step applied, keyed from the parent's key, and it is sorted only
    when the step inserted an addend (see the module docstring).  The nodes
    become canonical sums once the search is over.
    """
    _check_mode(mode)
    if node_cap < 1:
        raise ValueError(f"node cap must be at least 1, got {node_cap}")
    root = _as_sum(x, semiring)
    g = ReductionGraph(root=root, semiring=semiring, mode=mode)
    saturate = semiring == BOOL
    occurrence = mode != "coeff"

    # Addend id -> the addend, its hash, its sort key and (once stepped) for
    # each of its redexes the position, the kind, the reduct's items as
    # (id, coefficient, hash) and the reduct's key.
    ids: dict[ResTerm, int] = {}
    terms: list[ResTerm] = []
    hashes: list[int] = []
    sort_keys: list[tuple[int, bytes]] = []
    steps: list[list[tuple[Pos, str, tuple, int]] | None] = []

    def intern(t: ResTerm) -> int:
        u = ids.get(t)
        if u is None:
            u = ids[t] = len(terms)
            terms.append(t)
            hashes.append(_addend_hash(t))
            sort_keys.append(_bag_key(t))
            steps.append(None)
        return u

    def step_table(u: int) -> list[tuple[Pos, str, tuple, int]]:
        t = terms[u]
        reducts = []
        for pos, kind in redexes(t):
            items = []
            for v, c in step_r(t, pos, semiring).items:
                v = intern(v)
                items.append((v, c, hashes[v]))
            reducts.append((pos, kind, items, sum(c * h for _, c, h in items) % _P))
        return reducts

    coeffs = [{intern(t): c for t, c in root.items}]  # node -> addend id -> coefficient
    node_keys = [sum(c * hashes[u] for u, c in coeffs[0].items()) % _P]
    index = {node_keys[0]: 0}  # probed key -> node
    edges = g.edges
    record = tuple.__new__
    by_sort_key = sort_keys.__getitem__
    i = 0
    while i < len(coeffs):
        parent, key = coeffs[i], node_keys[i]
        seen_edges = len(edges)
        for u, c in parent.items():
            reducts = steps[u]
            if reducts is None:
                reducts = steps[u] = step_table(u)
            t, hu = terms[u], hashes[u]
            k = 1 if occurrence else c
            for pos, kind, items, rkey in reducts:
                # The copy keeps the parent's canonical order unless the
                # reduct inserts an addend, which goes at the end.
                d = parent.copy()
                if c == k:
                    del d[u]
                else:
                    d[u] = c - k
                survivors = len(d)
                if saturate:
                    # Over Bool the key is the support's: an addend already
                    # there adds nothing.
                    nkey = key - hu
                    for v, _, hv in items:
                        if v not in d:
                            d[v] = 1
                            nkey += hv
                    nkey %= _P
                else:
                    nkey = (key + k * (rkey - hu)) % _P
                    for v, cv, _ in items:
                        d[v] = d.get(v, 0) + k * cv
                # A key hit is the successor only if the coefficients agree.
                probe = nkey
                while (j := index.get(probe)) is not None and d != coeffs[j]:
                    probe += 1
                if j is None:
                    if len(coeffs) >= node_cap:
                        raise GraphOverflow(node_cap, len(coeffs))
                    j = index[probe] = len(coeffs)
                    # A fresh dict of d's items, so that no node keeps the
                    # larger table that d inherited from its parent.
                    order = d if len(d) == survivors else sorted(d, key=by_sort_key)
                    coeffs.append({v: d[v] for v in order})
                    node_keys.append(nkey)
                edges.append(record(Edge, (i, j, t, pos, kind)))
        if len(edges) == seen_edges:
            g.sinks.append(i)
        i += 1

    # Every node shares one (term, coefficient) item per distinct pair; the
    # root's own items are the first ones.
    pairs = _Items(terms)
    pairs.update(((ids[item[0]], item[1]), item) for item in root.items)
    item_of = pairs.__getitem__
    nodes = g.nodes
    nodes.append(root)
    for j in range(1, len(coeffs)):
        nodes.append(Sum.of_canonical(semiring, tuple(map(item_of, coeffs[j].items()))))
        coeffs[j] = None
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
    node_cap: int = NODE_CAP,
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
