"""Exhaustive reduction graphs: sinks, acyclicity, joinability."""

import random
from collections import deque

import pytest

from mulam import oracle
from mulam.gen import gen_res
from mulam.oracle import (
    GraphOverflow,
    explore,
    is_dag,
    joinable,
    reachable_sums,
    unique_sink,
)
from mulam.resource import normalize_r, step_r
from mulam.syntax import BOOL, NAT, Sum, redexes
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


@pytest.mark.parametrize("semiring", [BOOL, NAT])
@pytest.mark.parametrize("mode", ["coeff", "occurrence"])
def test_explore_matches_naive_search(semiring, mode):
    roots = [parse_sum(src, semiring) for src in _SMALL]
    roots += [Sum(semiring, [(gen_res(random.Random(seed), 10), 2)]) for seed in range(40)]
    for root in roots:
        g = explore(root, semiring, mode=mode)
        got = (g.nodes, [(e.src, e.dst, e.addend, e.pos, e.kind) for e in g.edges], g.sinks)
        assert got == _naive_graph(root, semiring, mode), root


@pytest.mark.parametrize("semiring", [BOOL, NAT])
@pytest.mark.parametrize("mode", ["coeff", "occurrence"])
def test_explore_matches_naive_search_when_all_keys_collide(semiring, mode, monkeypatch):
    # Every node gets key 0, so each lookup is decided by the exact
    # comparison of coefficients alone.
    monkeypatch.setattr(oracle, "_addend_hash", lambda t: 0)
    test_explore_matches_naive_search(semiring, mode)


@pytest.mark.parametrize(
    "bag, semiring, mode, nodes, edges",
    [
        ("y0, y1, y1, y2", NAT, "coeff", 6146, 37891),
        ("y, y, y, y", NAT, "occurrence", 1052, 3808),
        ("y0, y1, y2", BOOL, "coeff", 386, 1603),
    ],
)
def test_graph_sizes_of_the_two_copy_fanout(bag, semiring, mode, nodes, edges):
    g = explore(parse_sum(f"(mu 'a.<'a> mu 'e.<'a> x)[{bag}]", semiring), semiring, mode=mode)
    assert (len(g.nodes), len(g.edges), len(g.sinks)) == (nodes, edges, 1)


def test_explore_rejects_an_unknown_mode():
    with pytest.raises(ValueError):
        explore(_p("x"), NAT, mode="coef")


def test_explore_rejects_a_sum_of_another_semiring():
    with pytest.raises(ValueError):
        explore(parse_sum("(\\x.x)[y]", NAT), BOOL)
