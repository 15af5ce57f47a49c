"""Bag-splitting combinatorics used by the linear substitution operators.

A weak composition of a bag into n parts is an ordered tuple of n sub-bags
whose multiset union is the bag.  An index assignment sends each bag slot to
a part index; distinct assignments can induce the same composition, and the
number that do is the composition's multiplicity (a product of multinomials,
one per group of equal elements).  The exact-count semiring needs those
multiplicities; the idempotent one only needs the composition set.

The enumeration can be directed by per-part sizes (exact, empty, or free),
so that the substitution operators, which know the degree of every subterm,
never see a split that would vanish.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .syntax import Bag, ResTerm, multinomial

WeakComposition = tuple[Bag, ...]


def compositions_of(
    m: int, k: int, caps: Sequence[int] | None = None
) -> Iterator[tuple[int, ...]]:
    """All tuples of k non-negative ints summing to m, lexicographically;
    with ``caps``, only those whose entry i is at most ``caps[i]``."""
    if m < 0 or k < 0:
        raise ValueError(f"negative total or part count: m={m}, k={k}")
    if caps is None:
        caps = (m,) * k
    elif len(caps) != k:
        raise ValueError(f"{len(caps)} caps for {k} parts")
    elif min(caps, default=0) < 0:
        raise ValueError(f"negative cap in {list(caps)}")
    return _compositions(m, k, tuple(caps))


def _compositions(m: int, k: int, caps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    # A loop, not one level of recursion per part, so a bag split over
    # thousands of parts fits in any stack.  ``room[i]`` is the most that
    # the parts after part i can hold together.
    room = [0] * k
    for i in range(k - 1, 0, -1):
        room[i - 1] = room[i] + caps[i]
    if m > (room[0] + caps[0] if k else 0):
        return
    c = [0] * k
    i, left = 0, m
    while True:
        # Parts i.. share ``left``, each as small as the parts after it allow:
        # the first composition with the prefix c[:i].
        for j in range(i, k):
            c[j] = x = max(0, left - room[j])
            left -= x
        yield tuple(c)
        # The next prefix grows the last part that is below its cap and has
        # something after it to take from.
        i, left = k - 1, 0
        while i >= 0 and (left == 0 or c[i] >= caps[i]):
            left += c[i]
            i -= 1
        if i < 0:
            return
        c[i] += 1
        i, left = i + 1, left - 1


def weak_compositions_with_counts(
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
