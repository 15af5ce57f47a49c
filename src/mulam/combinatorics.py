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

A split depends on the bag only through its shape: the sizes of its groups
of equal elements, the part count and the part sizes.  So each shape is
enumerated once, as positions in the bag, and every bag of that shape reads
its parts off the cached positions.  The cache keeps the last
``SHAPE_CACHE_SIZE`` (256) shapes.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Sequence

from .syntax import Bag, multinomial

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
    (0: the empty part), or any number when ``sizes[i]`` is None.  The
    compositions yielded are those of the given part sizes, in the order of
    the unconstrained enumeration.

    Splits are enumerated once per shape (see the module docstring), by
    ``_shape_splits``, which keeps the last ``SHAPE_CACHE_SIZE`` shapes.
    """
    if nparts < 0:
        raise ValueError(f"negative part count: {nparts}")
    if sizes is not None:
        if len(sizes) != nparts:
            raise ValueError(f"{len(sizes)} sizes for {nparts} parts")
        sizes = tuple(sizes)
        if min((n for n in sizes if n is not None), default=0) < 0:
            raise ValueError(f"negative part size in {list(sizes)}")
    mults = tuple(len(list(g)) for _, g in itertools.groupby(bag))
    get = bag.__getitem__
    for idx, count in _shape_splits(mults, nparts, sizes):
        yield tuple([tuple(map(get, part)) for part in idx]), count


# Each cached shape holds its compositions as position tuples, so the bound
# is on shapes, not on bytes.
SHAPE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _shape_splits(
    mults: tuple[int, ...], nparts: int, sizes: tuple[int | None, ...] | None
) -> tuple[tuple[tuple[tuple[int, ...], ...], int], ...]:
    """The sized weak compositions into ``nparts`` parts of every bag whose
    groups of equal elements have the sizes ``mults``, with their counts.  A
    part is a tuple of positions in the bag, a group's first position once
    per copy it takes."""
    total = sum(mults)
    if sizes is None:
        exact: list[tuple[int, int]] = []
        caps = (total,) * nparts
    else:
        fixed = [n for n in sizes if n is not None]
        if sum(fixed) > total or (len(fixed) == nparts and sum(fixed) != total):
            return ()
        # No group may put more into a part than the part's size, so the
        # caps alone enforce the empty parts; the positive sizes are checked
        # once every group is placed.
        exact = [(i, n) for i, n in enumerate(sizes) if n]
        caps = tuple(total if n is None else n for n in sizes)
    firsts = tuple(itertools.accumulate(mults[:-1], initial=0))
    per_group = [
        [(alloc, multinomial(alloc)) for alloc in _compositions(mult, nparts, caps)]
        for mult in mults
    ]
    out = []
    for combo in itertools.product(*per_group):
        if exact:
            totals = [sum(col) for col in zip(*(alloc for alloc, _ in combo))]
            if any(totals[i] != n for i, n in exact):
                continue
        parts: list[list[int]] = [[] for _ in range(nparts)]
        count = 1
        for first, (alloc, cnt) in zip(firsts, combo):
            count *= cnt
            for i, copies in enumerate(alloc):
                parts[i].extend([first] * copies)
        # Positions are appended in bag order (already sorted), and equal
        # elements stay adjacent, so each part is canonical as built.
        out.append((tuple(tuple(p) for p in parts), count))
    return tuple(out)
