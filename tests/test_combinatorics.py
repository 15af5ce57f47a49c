"""Weak compositions of multisets and their multiplicities."""

import random
from collections import Counter

from hypothesis import given, strategies as st

from mulam.combinatorics import (
    assignment_to_composition,
    compositions_of,
    index_assignments,
    weak_compositions,
    weak_compositions_with_counts,
)
from mulam.syntax import RVar, mkbag


def test_compositions_of_cover_everything():
    cs = list(compositions_of(3, 2))
    assert sorted(cs) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert all(sum(c) == 3 for c in cs)


def test_compositions_of_zero_parts():
    assert list(compositions_of(0, 0)) == [()]
    assert list(compositions_of(2, 0)) == []


def _brute_counts(bag, nparts):
    """Aggregate index assignments (functions element-slot -> part) into
    canonical compositions; the fibre sizes are the multiplicities."""
    agg = Counter()
    for assign in index_assignments(bag, nparts - 1):
        parts = assignment_to_composition(bag, assign, nparts - 1)
        agg[tuple(tuple(sorted(p, key=lambda t: (len(t.enc), t.enc))) for p in parts)] += 1
    return agg


@given(
    st.lists(st.sampled_from("xxyz"), max_size=4),
    st.integers(min_value=1, max_value=3),
)
def test_counts_match_assignment_fibres(letters, nparts):
    bag = mkbag(RVar(c) for c in letters)
    got = {
        tuple(tuple(p) for p in parts): cnt
        for parts, cnt in weak_compositions_with_counts(bag, nparts)
    }
    assert got == dict(_brute_counts(bag, nparts))
    assert sum(got.values()) == nparts ** len(bag)


def test_parts_reassemble_the_bag():
    bag = mkbag([RVar("x"), RVar("x"), RVar("y")])
    for parts, _ in weak_compositions_with_counts(bag, 3):
        assert mkbag(t for p in parts for t in p) == bag


def test_zero_parts_of_the_empty_bag():
    assert list(weak_compositions_with_counts(mkbag([]), 0)) == [((), 1)]
    assert list(weak_compositions_with_counts(mkbag([RVar("x")]), 0)) == []


def test_duplicate_elements_collapse_but_count():
    bag = mkbag([RVar("x"), RVar("x")])
    table = dict(weak_compositions_with_counts(bag, 2))
    # splits: (xx|-), (x|x), (-|xx) with the middle one realizable two ways
    assert len(table) == 3
    assert table[((RVar("x"),), (RVar("x"),))] == 2


def test_weak_compositions_drops_counts():
    bag = mkbag([RVar("x"), RVar("y")])
    assert len(weak_compositions(bag, 2)) == 4


@given(
    st.lists(st.sampled_from("xxyz"), max_size=5),
    st.lists(st.sampled_from([None, 0, 1, 2, 3]), min_size=1, max_size=4),
)
def test_sized_splits_are_the_filtered_enumeration(letters, sizes):
    bag = mkbag(RVar(c) for c in letters)
    nparts = len(sizes)

    def fits(parts):
        return all(n is None or len(p) == n for p, n in zip(parts, sizes))

    got = list(weak_compositions_with_counts(bag, nparts, sizes))
    want = [(parts, cnt) for parts, cnt in weak_compositions_with_counts(bag, nparts) if fits(parts)]
    assert got == want
    brute = {parts: cnt for parts, cnt in _brute_counts(bag, nparts).items() if fits(parts)}
    assert dict(got) == brute


def test_sized_splits_with_unmatched_sizes_are_empty():
    bag = mkbag([RVar("x"), RVar("y")])
    assert list(weak_compositions_with_counts(bag, 2, [1, 0])) == []
    assert list(weak_compositions_with_counts(bag, 2, [3, None])) == []
    assert list(weak_compositions_with_counts(bag, 2, [0, None])) == [(((), bag), 1)]
