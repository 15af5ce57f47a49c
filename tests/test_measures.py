"""Termination measures and their orders."""

import random
from collections import Counter

from hypothesis import given, strategies as st

from mulam.gen import gen_res
from mulam.measures import (
    bag_depths,
    bold_ms,
    compare_bold,
    compare_multiset,
    mu_degree,
    ms,
)
from mulam.resource import step_r
from mulam.syntax import NAT, RApp, RLam, RMu, RVar, redexes, size
from mulam.textio import parse_res


def _p(src):
    return parse_res(src)


# ---------- the raw ingredients ----------


def test_mu_degree_counts_mu_nodes():
    assert mu_degree(_p("x")) == 0
    assert mu_degree(_p("mu 'a.<'a> x[mu 'b.<'b> y]")) == 2


def test_bag_depths_count_every_application():
    assert bag_depths(_p("x 1")) == [0]
    assert bag_depths(_p("mu 'a.<'a> x 1")) == [1]
    assert sorted(bag_depths(_p("mu 'a.<'a> x[mu 'b.<'b> y 1]"))) == [1, 2]


def _ref_bag_depths(t):
    """The recursive definition of ``bag_depths``."""
    out = []

    def go(u, d):
        match u:
            case RVar():
                pass
            case RLam(body=b):
                go(b, d)
            case RMu(body=b):
                go(b, d + 1)
            case RApp(head=h, bag=bag):
                out.append(d)
                go(h, d)
                for e in bag:
                    go(e, d)

    go(t, 0)
    return out


def test_bag_depths_agrees_with_the_recursive_definition():
    rng = random.Random(3)
    for _ in range(500):
        t = gen_res(rng, 20)
        assert bag_depths(t) == _ref_bag_depths(t)


def test_bag_depths_in_preorder():
    # The bag is written in its canonical order, the order of the walk.
    t = _p("(mu 'a.<'a> x[y 1])[mu 'b.<'b> v 1, z[w]]")
    assert bag_depths(t) == _ref_bag_depths(t) == [0, 1, 1, 1, 0]


def test_bag_depths_of_a_deep_term_need_no_recursion():
    # Built in a loop, since the parser recurses.  From the top down the
    # levels repeat a lambda, a mu, an application whose head goes on and
    # one whose bag goes on.
    t = RVar(0)
    levels = 5000
    for i in reversed(range(levels)):
        k = i % 4
        if k == 0:
            t = RLam(t)
        elif k == 1:
            t = RMu(0, t)
        elif k == 2:
            t = RApp(t, [])
        else:
            t = RApp(RVar(0), [t])
    assert bag_depths(t) == [(i + 2) // 4 for i in range(levels) if i % 4 >= 2]


def test_slack_multiset_is_degree_minus_depth():
    assert ms(_p("mu 'a.<'a> x[mu 'b.<'b> y 1]")) == (1, 0)
    assert ms(_p("x")) == ()


def test_layered_measure_components():
    t = _p("mu 'a.<'a> x 1")
    assert bold_ms(t) == ((0,), 1, 3)
    assert bold_ms(t)[2] == size(t)


# ---------- multiset order ----------


def test_multiset_order_examples():
    assert compare_multiset((), (0,)) == -1
    assert compare_multiset((1,), (0, 0, 0)) == 1
    assert compare_multiset((1, 0), (1,)) == 1  # same head, longer wins
    assert compare_multiset((2, 1), (2, 1)) == 0


def multiset_less_brute(a, b):
    """Direct quantifier form of the Dershowitz-Manna order, as a cross-check:
    a < b iff they differ and wherever a has more copies of some value, b has
    more copies of some strictly larger value."""
    ca, cb = Counter(a), Counter(b)
    if ca == cb:
        return False
    for n in set(ca) | set(cb):
        if ca[n] > cb[n] and not any(m > n and cb[m] > ca[m] for m in set(ca) | set(cb)):
            return False
    return True


@given(
    st.lists(st.integers(min_value=-3, max_value=3), max_size=5),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=5),
)
def test_multiset_order_matches_brute_force(xs, ys):
    a = tuple(sorted(xs, reverse=True))
    b = tuple(sorted(ys, reverse=True))
    assert (compare_multiset(a, b) < 0) == multiset_less_brute(a, b)


def test_layered_order_breaks_ties_in_order():
    assert compare_bold(((1,), 0, 5), ((1,), 1, 2)) == -1
    assert compare_bold(((1,), 1, 2), ((1,), 1, 5)) == -1
    assert compare_bold(((0,), 9, 9), ((1,), 0, 0)) == -1


# ---------- every step drops the measure ----------


def test_each_reduction_step_lowers_the_measure():
    checked = 0
    for seed in range(400):
        t = gen_res(random.Random(seed), 18)
        for pos, _ in redexes(t):
            before = bold_ms(t)
            for u, _ in step_r(t, pos, NAT).items:
                assert compare_bold(bold_ms(u), before) < 0, (seed, pos)
                checked += 1
    assert checked > 150  # the sample actually exercised reductions
