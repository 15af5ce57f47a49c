"""Weak compositions of multisets and their multiplicities."""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from typing import Iterator, Sequence

import pytest
from hypothesis import given, strategies as st

import mulam
from mulam.combinatorics import (WeakComposition, _compositions, _shape_splits,
                                 compositions_of, weak_compositions_with_counts)
from mulam.resource import normalize_r
from mulam.syntax import NAT, VAR, Bag, ResTerm, RVar, mkbag, multinomial, occurrences
from mulam.textio import parse_res

# ---------- test oracles ----------


def weak_compositions(bag, nparts):
    """The set of weak compositions, without multiplicities."""
    return [wc for wc, _ in weak_compositions_with_counts(bag, nparts)]


def index_assignments(bag, n):
    """All maps from bag slots into {0, ..., n}, in counter order."""
    if n < 0:
        raise ValueError(f"negative largest part index: {n}")
    return itertools.product(range(n + 1), repeat=len(bag))


def assignment_to_composition(bag, assignment, n):
    """The weak composition into n + 1 parts that an index assignment induces."""
    if n < 0:
        raise ValueError(f"negative largest part index: {n}")
    if len(assignment) != len(bag):
        raise ValueError(f"{len(assignment)} part indices for a bag of {len(bag)}")
    parts = [[] for _ in range(n + 1)]
    for elem, i in zip(bag, assignment):
        if not 0 <= i <= n:
            raise ValueError(f"part index {i} outside 0..{n}")
        parts[i].append(elem)
    return tuple(mkbag(p) for p in parts)


def test_compositions_of_cover_everything():
    cs = list(compositions_of(3, 2))
    assert sorted(cs) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert all(sum(c) == 3 for c in cs)


def test_compositions_of_zero_parts():
    assert list(compositions_of(0, 0)) == [()]
    assert list(compositions_of(2, 0)) == []


def ref_compositions(m, k, caps):
    """The enumeration as it was before it became a loop: one level of
    recursion per part, on a copy of the remaining caps."""
    if k == 0:
        if m == 0:
            yield ()
        return
    if k == 1:
        if m <= caps[0]:
            yield (m,)
        return
    room = sum(caps[1:])
    for first in range(max(0, m - room), min(m, caps[0]) + 1):
        for rest in ref_compositions(m - first, k - 1, caps[1:]):
            yield (first,) + rest


def test_compositions_of_enumerates_as_the_recursion_did():
    for k in range(6):
        cap_choices = list(itertools.product(range(4), repeat=k))
        for m in range(7):
            assert list(compositions_of(m, k)) == list(ref_compositions(m, k, (m,) * k))
            for caps in cap_choices:
                assert list(compositions_of(m, k, caps)) == list(ref_compositions(m, k, caps)), (
                    m, k, caps)


def test_compositions_of_many_parts_need_no_deep_stack():
    [one] = compositions_of(1, 5000, (0,) * 4999 + (1,))
    assert one == (0,) * 4999 + (1,)
    assert sum(1 for _ in compositions_of(1, 5000)) == 5000


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


# ---------- splits by shape against the enumeration per bag ----------


# The split as it was before it was cached by shape, verbatim but for its
# name: the whole enumeration on every call, on the bag's elements.
def ref_weak_compositions_with_counts(
    bag: Bag, nparts: int, sizes: Sequence[int | None] | None = None
) -> Iterator[tuple[WeakComposition, int]]:
    """Weak compositions of ``bag`` into ``nparts`` parts with multiplicities.

    Each composition is yielded exactly once; its count is the number of
    index assignments inducing it.  Equal bag elements are grouped, so the
    count for a group sending m copies as (m_0, ..., m_{n-1}) is the
    multinomial m! / prod(m_i!), and counts multiply across groups.

    ``sizes`` directs the split: part i gets exactly ``sizes[i]`` elements
    (0: the empty part), or any number when ``sizes[i]`` is None.  Each
    group's allocations are pruned by those sizes as caps, so an empty part
    is never tried; the products of allocations are then filtered by the
    exact positive sizes.  The compositions yielded are those of the given
    part sizes, in the order of the unconstrained enumeration.
    """
    if nparts < 0:
        raise ValueError(f"negative part count: {nparts}")
    if sizes is None:
        exact: list[tuple[int, int]] = []
        caps = (len(bag),) * nparts
    else:
        if len(sizes) != nparts:
            raise ValueError(f"{len(sizes)} sizes for {nparts} parts")
        fixed = [n for n in sizes if n is not None]
        if min(fixed, default=0) < 0:
            raise ValueError(f"negative part size in {sizes}")
        if sum(fixed) > len(bag) or (len(fixed) == nparts and sum(fixed) != len(bag)):
            return
        # No group may put more into a part than the part's size, so the
        # caps alone enforce the empty parts; the positive sizes are checked
        # once every group is placed.
        exact = [(i, n) for i, n in enumerate(sizes) if n]
        caps = tuple(len(bag) if n is None else n for n in sizes)
    groups = [(elem, len(list(g))) for elem, g in itertools.groupby(bag)]
    per_group = [
        [(alloc, multinomial(alloc)) for alloc in _compositions(mult, nparts, caps)]
        for _, mult in groups
    ]
    for combo in itertools.product(*per_group):
        if exact:
            totals = [sum(col) for col in zip(*(alloc for alloc, _ in combo))]
            if any(totals[i] != n for i, n in exact):
                continue
        parts: list[list[ResTerm]] = [[] for _ in range(nparts)]
        count = 1
        for (elem, _), (alloc, cnt) in zip(groups, combo):
            count *= cnt
            for i, copies in enumerate(alloc):
                parts[i].extend([elem] * copies)
        # Elements are appended in bag order (already sorted), and equal
        # elements stay adjacent, so each part is canonical as built.
        yield tuple(tuple(p) for p in parts), count


def _same_splits(bag, nparts, sizes=None):
    got = list(weak_compositions_with_counts(bag, nparts, sizes))
    assert got == list(ref_weak_compositions_with_counts(bag, nparts, sizes)), (bag, nparts, sizes)


def test_splits_by_shape_equal_the_enumeration_on_random_bags():
    rng = random.Random(26)
    for _ in range(3000):
        bag = mkbag(RVar(rng.choice("xxxyyz")) for _ in range(rng.randint(0, 6)))
        nparts = rng.randint(0, 4)
        if rng.random() < 0.25:
            sizes = None
        else:
            sizes = [rng.choice([None, 0, 1, 2, 3]) for _ in range(nparts)]
        _same_splits(bag, nparts, sizes)


def test_splits_by_shape_into_zero_parts():
    for bag in (mkbag([]), mkbag([RVar("x")]), mkbag([RVar("x"), RVar("x")])):
        _same_splits(bag, 0)
        _same_splits(bag, 0, [])


def test_bags_of_one_shape_get_their_own_elements():
    # [p, p, q] and [x, x, y] group as (2, 1): the second reads the first's
    # cached positions, with other shapes split in between.
    one, two = mkbag(RVar(c) for c in "ppq"), mkbag(RVar(c) for c in "xxy")
    other = mkbag(RVar(c) for c in "xyz")
    assert [len(list(g)) for _, g in itertools.groupby(one)] == [2, 1]
    assert [len(list(g)) for _, g in itertools.groupby(two)] == [2, 1]
    for sizes in (None, [1, None], [None, 0, 2]):
        nparts = 2 if sizes is None else len(sizes)
        for bag in (one, other, two, one, other, two):
            _same_splits(bag, nparts, sizes)


def test_the_split_over_1202_parts_equals_the_enumeration():
    # README's (\x.z[x,w,...,w])[y] with 1200 w: the bag [y] is split over
    # z and the 1201 elements of its bag, directed by their counts of x.
    body = parse_res("z[x, " + ", ".join(["w"] * 1200) + "]")
    kids = (body.head,) + body.bag
    sizes = [occurrences(k, VAR, "x") for k in kids]
    assert len(kids) == 1202 and sum(sizes) == 1
    _same_splits(mkbag([RVar("y")]), len(kids), sizes)


def test_fanout_of_six_computes_five_shapes():
    _shape_splits.cache_clear()
    nf = normalize_r(parse_res(r"(\x. x[x][x][x][x][x])[a, b, c, d, e, f]"), NAT)
    assert len(nf) == 720
    assert _shape_splits.cache_info().misses <= 5


# ---------- validation that survives python -O ----------

_BAG = "mkbag([RVar('x'), RVar('y')])"

# Each case is an expression that must raise ValueError, with or without -O.
INVALID_CALLS = {
    "negative total": "list(compositions_of(-1, 2))",
    "negative part count": "list(compositions_of(2, -1))",
    "caps of the wrong length": "list(compositions_of(2, 2, [2]))",
    "negative cap": "list(compositions_of(2, 2, [3, -1]))",
    "negative nparts": f"list(weak_compositions_with_counts({_BAG}, -1))",
    "sizes of the wrong length": f"list(weak_compositions_with_counts({_BAG}, 2, [1]))",
    "negative size": f"list(weak_compositions_with_counts({_BAG}, 2, [-1, None]))",
}
_NAMES = ("from mulam.combinatorics import compositions_of, weak_compositions_with_counts\n"
          "from mulam.syntax import RVar, mkbag\n")
# The oracles above check their arguments too; they are test code, so they
# are only called in-process.
ORACLE_INVALID_CALLS = {
    "negative largest index": f"list(index_assignments({_BAG}, -1))",
    "assignment index too large": f"assignment_to_composition({_BAG}, (0, 2), 1)",
    "negative assignment index": f"assignment_to_composition({_BAG}, (0, -1), 1)",
    "assignment of the wrong length": f"assignment_to_composition({_BAG}, (0,), 1)",
}
_ALL_INVALID_CALLS = {**INVALID_CALLS, **ORACLE_INVALID_CALLS}


@pytest.mark.parametrize("call", list(_ALL_INVALID_CALLS.values()), ids=list(_ALL_INVALID_CALLS))
def test_invalid_arguments_are_rejected(call):
    env = {"index_assignments": index_assignments,
           "assignment_to_composition": assignment_to_composition}
    exec(_NAMES, env)
    with pytest.raises(ValueError):
        eval(call, env)


def test_invalid_arguments_are_rejected_under_python_O():
    code = _NAMES + f"""
for call in {list(INVALID_CALLS.values())!r}:
    try:
        eval(call)
    except ValueError:
        print('ValueError')
    else:
        print('accepted')
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mulam.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * len(INVALID_CALLS)
