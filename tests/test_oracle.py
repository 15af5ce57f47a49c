"""Exhaustive reduction graphs: sinks, acyclicity, joinability."""

import os
import random
import subprocess
import sys
from collections import deque
from dataclasses import dataclass

import pytest

import mulam
from mulam import oracle
from mulam.gen import gen_res
from mulam.oracle import (
    _P,
    Edge,
    GraphOverflow,
    ReductionGraph,
    _addend_hash,
    explore,
    is_dag,
    joinable,
    reachable_sums,
    unique_sink,
)
from mulam.resource import _as_sum, _check_mode, normalize_r, step_r
from mulam.syntax import BOOL, NAT, Pos, ResTerm, Sum, SumBuilder, redexes
from mulam.textio import parse_res, parse_sum


def _p(src):
    return parse_res(src)


def test_graph_of_the_two_copy_example():
    g = explore(_p("(mu 'a.<'a> mu 'e.<'a> x)[y,y]"), NAT)
    assert is_dag(g)
    sink = unique_sink(g)
    assert sink == normalize_r(_p("(mu 'a.<'a> mu 'e.<'a> x)[y,y]"), NAT)
    assert len(g.nodes) > 3
    assert all(e.kind in ("lam", "mu", "rho") for e in g.edges)


def test_normal_forms_are_their_own_graph():
    g = explore(_p("x[y]"), BOOL)
    assert len(g.nodes) == 1 and g.sinks == [0]
    assert unique_sink(g) == Sum.unit(_p("x[y]"), BOOL)


def test_annihilation_has_the_empty_sink():
    g = explore(_p("(\\x.x) 1"), NAT)
    assert unique_sink(g) == Sum.zero(NAT)


def test_node_cap_raises_instead_of_truncating():
    with pytest.raises(GraphOverflow):
        explore(_p("(mu 'a.<'a> mu 'e.<'a> x)[y,y]"), NAT, node_cap=2)


@pytest.mark.parametrize("semiring", [BOOL, NAT])
@pytest.mark.parametrize("mode", ["coeff", "occurrence"])
def test_node_cap_is_the_largest_graph_allowed(semiring, mode):
    root = parse_sum("2*(mu 'a.<'a> mu 'e.<'a> x)[y0, y1]", semiring)
    whole = explore(root, semiring, mode=mode)
    count = len(whole.nodes)
    exact = explore(root, semiring, node_cap=count, mode=mode)
    assert (exact.nodes, exact.edges, exact.sinks) == (whole.nodes, whole.edges, whole.sinks)
    with pytest.raises(GraphOverflow) as err:
        explore(root, semiring, node_cap=count - 1, mode=mode)
    assert (err.value.node_cap, err.value.visited) == (count - 1, count - 1)


@pytest.mark.parametrize("cap", [0, -5])
@pytest.mark.parametrize("src", ["x", r"(\x.x)[y]"])
def test_node_cap_below_one_is_rejected_before_exploring(src, cap, monkeypatch):
    # a normal root and a root with a redex: neither is stepped
    def no_steps(*args):
        raise AssertionError("explored with a node cap below 1")

    monkeypatch.setattr(oracle, "step_r", no_steps)
    with pytest.raises(ValueError, match="node cap"):
        explore(_p(src), NAT, node_cap=cap)
    with pytest.raises(ValueError, match="node cap"):
        joinable(_p(src), _p("x"), NAT, node_cap=cap)


def test_distinct_normal_forms_are_not_joinable():
    assert not joinable(_p("x"), _p("y"), NAT)


def _hand_graph(arcs):
    nodes = [parse_sum(f"y{i}", NAT) for i in range(3)]
    edges = [Edge(i, j, _p("x"), (), "lam") for i, j in arcs]
    return ReductionGraph(nodes[0], NAT, "coeff", nodes, edges, [])


@pytest.mark.parametrize(
    "arcs, acyclic",
    [
        ([(0, 1), (1, 2), (0, 2)], True),
        ([(0, 1), (1, 0)], False),  # a 2-cycle
        ([(0, 1), (1, 1)], False),  # a self-loop
        ([(0, 1), (1, 2), (2, 1)], False),  # a cycle below a source
    ],
)
def test_is_dag_on_hand_built_graphs(arcs, acyclic):
    assert is_dag(_hand_graph(arcs)) is acyclic


def test_reduction_graph_builds_positionally_and_by_keyword():
    root = parse_sum("x", NAT)
    edge = Edge(0, 0, _p("x"), (), "lam")
    g = ReductionGraph(root, NAT, "coeff", [root], [edge], [0])
    assert (g.root, g.semiring, g.mode, g.nodes, g.edges, g.sinks) == (
        root, NAT, "coeff", [root], [edge], [0])
    h = ReductionGraph(mode="occurrence", semiring=BOOL, root=root)
    assert (h.root, h.semiring, h.mode, h.nodes, h.edges, h.sinks) == (
        root, BOOL, "occurrence", [], [], [])
    # Each graph gets lists of its own.
    h.nodes.append(root)
    assert ReductionGraph(root, BOOL, "coeff").nodes == []


def test_joinable_after_diverging_first_steps():
    # both orders of contracting the blocked pair meet again
    orig = _p("(mu 'a.<'a> mu 'g.<'h> x) 1")
    a = parse_sum("mu 'a.<'a> (mu 'g.<'h> x) 1", NAT)
    b = parse_sum("(mu 'a.<'h> x) 1", NAT)
    assert joinable(a, b, NAT)


def test_occurrence_mode_reaches_interleavings():
    from mulam.syntax import RApp

    s = _p("(\\z.z)[y]")
    start = Sum(NAT, [(RApp(s, [s]), 2)])
    mixed = Sum(NAT, [(RApp(_p("y"), [s]), 1), (RApp(s, [_p("y")]), 1)])
    assert mixed in reachable_sums(explore(start, NAT, mode="occurrence"))
    assert mixed not in reachable_sums(explore(start, NAT, mode="coeff"))


# ---------- the explorer against a naive breadth-first search ----------


def _naive_graph(root, semiring, mode):
    """Breadth-first search that steps every addend again on every edge and
    builds each successor with the validating constructor."""
    nodes, index, edges, sinks = [root], {root: 0}, [], []
    queue = deque([0])
    while queue:
        i = queue.popleft()
        s = nodes[i]
        out = []
        for t, c in s.items:
            k = c if mode == "coeff" else 1
            rest = Sum(semiring, [(u, cu - k if u == t else cu) for u, cu in s.items])
            for pos, kind in redexes(t):
                out.append((rest + step_r(t, pos, semiring).scale(k), t, pos, kind))
        if not out:
            sinks.append(i)
        for nxt, t, pos, kind in out:
            if nxt not in index:
                index[nxt] = len(nodes)
                nodes.append(nxt)
                queue.append(index[nxt])
            edges.append((i, index[nxt], t, pos, kind))
    return nodes, edges, sorted(sinks)


_SMALL = [
    "(mu 'a.<'a> mu 'e.<'a> x)[y, y]",
    "2*(\\z.z[z])[(\\x.x)[y], w] + (mu 'a.<'b> x)[y] + (\\z.z)[y]",
    "3*mu 'a.<'b> mu 'g.<'a> (\\x.x)[mu 'd.<'g> y]",
    # both addends reach (\w.w)[v], so reducts merge into addends already there
    "(\\z.z)[(\\w.w)[v]] + (\\u.(\\w.w)[u])[v]",
]


def _graph(g):
    return (g.nodes, [(e.src, e.dst, e.addend, e.pos, e.kind) for e in g.edges], g.sinks)


def _small_roots(semiring):
    roots = [parse_sum(src, semiring) for src in _SMALL]
    return roots + [Sum(semiring, [(gen_res(random.Random(seed), 10), 2)]) for seed in range(40)]


def _assert_canonical_and_shared(g):
    """Nodes bypass the validating constructor: each must equal, and hash
    like, the sum that constructor makes of its items, and each distinct
    (term, coefficient) item must be one object across all nodes."""
    shared = {}
    for s in g.nodes:
        again = Sum(g.semiring, s.items)
        assert s == again and hash(s) == hash(again), s
        for item in s.items:
            assert shared.setdefault(item, item) is item, item


@pytest.mark.parametrize("semiring", [BOOL, NAT])
@pytest.mark.parametrize("mode", ["coeff", "occurrence"])
def test_explore_matches_naive_search(semiring, mode):
    for root in _small_roots(semiring):
        g = explore(root, semiring, mode=mode)
        assert _graph(g) == _naive_graph(root, semiring, mode), root
        _assert_canonical_and_shared(g)


@pytest.mark.parametrize("semiring", [BOOL, NAT])
@pytest.mark.parametrize("mode", ["coeff", "occurrence"])
def test_explore_matches_naive_search_when_all_keys_collide(semiring, mode, monkeypatch):
    # Every node gets key 0, so each lookup is decided by the exact
    # comparison of coefficients alone.  That holds only if every addend's
    # hash is taken through _addend_hash, which the spy checks.
    hashed = set()
    monkeypatch.setattr(oracle, "_addend_hash", lambda t: hashed.add(t) or 0)
    for root in _small_roots(semiring):
        hashed.clear()
        g = explore(root, semiring, mode=mode)
        assert _graph(g) == _naive_graph(root, semiring, mode), root
        assert {t for s in g.nodes for t, _ in s.items} <= hashed


# The two-copy mu redex applied to a bag: the inputs of the benchmark's
# graphs workload, with their sizes.
_FANOUTS = [
    ("y0, y1, y1, y2", NAT, "coeff", 6146, 37891),
    ("y, y, y, y", NAT, "occurrence", 1052, 3808),
    ("y0, y1, y2", BOOL, "coeff", 386, 1603),
]


def _fanout(bag, semiring):
    return parse_sum(f"(mu 'a.<'a> mu 'e.<'a> x)[{bag}]", semiring)


@pytest.mark.parametrize("bag, semiring, mode, nodes, edges", _FANOUTS)
def test_graph_sizes_of_the_two_copy_fanout(bag, semiring, mode, nodes, edges):
    g = explore(_fanout(bag, semiring), semiring, mode=mode)
    assert (len(g.nodes), len(g.edges), len(g.sinks)) == (nodes, edges, 1)
    _assert_canonical_and_shared(g)
    # The loop builds its records without the constructor; they must still
    # be the named tuples the constructor makes.
    for e in g.edges:
        assert type(e) is Edge and e == Edge(*e), e


# ---------- the explorer against the one it replaced ----------
#
# The explorer before addends were interned, kept as written (its Edge was a
# frozen dataclass): nodes were canonical sums from the start, and a key hit
# was confirmed by rebuilding the candidate's coefficient dict.


@dataclass(frozen=True, slots=True)
class RefEdge:
    src: int
    dst: int
    addend: ResTerm
    pos: Pos
    kind: str


def ref_step_table(t: ResTerm, semiring: str) -> tuple[int, list[tuple[Pos, str, tuple, int]]]:
    """``t``'s hash, and for each of its redexes the position, the kind, the
    reduct's items as (term, coefficient, hash) and the reduct's key."""
    reducts = []
    for pos, kind in redexes(t):
        items = tuple((u, c, _addend_hash(u)) for u, c in step_r(t, pos, semiring).items)
        reducts.append((pos, kind, items, sum(c * h for _, c, h in items) % _P))
    return _addend_hash(t), reducts


def ref_explore(
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
                entry = steps[t] = ref_step_table(t, semiring)
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
                edges.append(RefEdge(i, j, t, pos, kind))
        if len(edges) == seen_edges:
            g.sinks.append(i)
    g.sinks.sort()
    return g


def _outcome(search, root, semiring, mode, node_cap):
    try:
        return _graph(search(root, semiring, node_cap, mode))
    except GraphOverflow as err:
        return ("overflow", err.node_cap, err.visited)


@pytest.mark.parametrize("bag, semiring, mode, nodes, edges", _FANOUTS)
def test_explore_matches_the_reference_on_the_fanouts(bag, semiring, mode, nodes, edges):
    root = _fanout(bag, semiring)
    assert _graph(explore(root, semiring, mode=mode)) == _graph(ref_explore(root, semiring, mode=mode))


@pytest.mark.parametrize("semiring", [BOOL, NAT])
@pytest.mark.parametrize("mode", ["coeff", "occurrence"])
def test_explore_matches_the_reference_on_generated_roots(semiring, mode):
    # Two addends, so that nodes have several and reducts merge into them;
    # one of these graphs passes the cap (nat, occurrence).
    for seed in range(300):
        rng = random.Random(seed)
        root = Sum(semiring, [(gen_res(rng, 12), 2), (gen_res(rng, 12), 1)])
        got = _outcome(explore, root, semiring, mode, 2000)
        assert got == _outcome(ref_explore, root, semiring, mode, 2000), seed


# ---------- the order a successor inherits ----------
#
# A successor is its parent's dict with the step applied.  Each root here has
# one redex, applied to a coefficient 2 so that occurrence mode takes two
# steps: one that vanishes (the successor only loses an addend), one whose
# reduct re-weights an addend already there, and one whose reduct ``y`` is
# new and sorts before every survivor.  Only the last must be sorted.

_ORDER_STEPS = [
    ("2*(\\x.x) 1 + w[w]", 0),
    ("2*(\\z.z)[y] + y + w[w]", 0),
    ("2*(\\z.z)[y] + w[w]", 1),
]


@pytest.mark.parametrize("semiring", [BOOL, NAT])
@pytest.mark.parametrize("mode", ["coeff", "occurrence"])
@pytest.mark.parametrize("src, sorts", _ORDER_STEPS)
def test_only_a_reduct_that_brings_an_addend_makes_a_sort(src, sorts, semiring, mode,
                                                           monkeypatch):
    calls = []

    def counted_sorted(*args, **kwargs):
        calls.append(args)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(oracle, "sorted", counted_sorted, raising=False)
    root = parse_sum(src, semiring)
    g = explore(root, semiring, mode=mode)
    assert len(calls) == sorts
    assert _graph(g) == _graph(ref_explore(root, semiring, mode=mode))
    _assert_canonical_and_shared(g)
    if sorts:
        assert unique_sink(g).items[0][0] == _p("y")


# The digest of every fanout graph and of the generated two-addend roots
# (seeds 0-59, cap 2000, both semirings and modes): each node printed, then
# each edge, then the sinks; an overflow counts by its visited nodes.  It was
# computed when every new node was sorted, so it pins the graphs of that
# explorer; dict order must not make them depend on the string hash seed.
_GRAPHS_SHA256 = "db6da6c69ef4f8b50301f2b1d642b132191831a1b5e64820be44f141d2579285"

_DIGEST_CODE = """
import functools, hashlib, random
from mulam.gen import gen_res
from mulam.oracle import GraphOverflow, explore
from mulam.syntax import BOOL, NAT, Sum
from mulam.textio import parse_sum, print_res, print_sum

h = hashlib.sha256()
printed = functools.lru_cache(None)(print_res)

def add(root, semiring, mode, cap=50_000):
    try:
        g = explore(root, semiring, cap, mode)
    except GraphOverflow as err:
        h.update(f"overflow {err.visited}\\n".encode())
        return
    for s in g.nodes:
        h.update(f"{print_sum(s)}\\n".encode())
    for e in g.edges:
        h.update(f"{e.src} {e.dst} {printed(e.addend)} {e.pos} {e.kind}\\n".encode())
    h.update(f"sinks {g.sinks}\\n".encode())

for bag, semiring, mode in [("y0, y1, y1, y2", NAT, "coeff"), ("y, y, y, y", NAT, "occurrence"),
                            ("y0, y1, y2", BOOL, "coeff")]:
    add(parse_sum(f"(mu 'a.<'a> mu 'e.<'a> x)[{bag}]", semiring), semiring, mode)
for semiring in (BOOL, NAT):
    for mode in ("coeff", "occurrence"):
        for seed in range(60):
            rng = random.Random(seed)
            add(Sum(semiring, [(gen_res(rng, 12), 2), (gen_res(rng, 12), 1)]), semiring, mode, 2000)
print(h.hexdigest())
"""


def test_graphs_are_pinned_under_two_hash_seeds():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mulam.__file__)))
    runs = [subprocess.Popen([sys.executable, "-c", _DIGEST_CODE],
                             env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for seed in ("1", "12345")]
    for run in runs:
        out, err = run.communicate(timeout=120)
        assert run.returncode == 0, err
        assert out.strip() == _GRAPHS_SHA256


def test_explore_rejects_an_unknown_mode():
    with pytest.raises(ValueError):
        explore(_p("x"), NAT, mode="coef")


def test_explore_rejects_a_sum_of_another_semiring():
    with pytest.raises(ValueError):
        explore(parse_sum("(\\x.x)[y]", NAT), BOOL)
