"""Termination measures for the resource calculus.

The interesting quantity for a bag occurrence is how many mu binders could
still act on it from above: the number of mu nodes in the whole term minus
the number of mu ancestors of the occurrence.  Collecting that over all bag
occurrences gives a multiset of naturals; lambda and mu steps shrink it in
the Dershowitz-Manna order, the naming-merge step can leave it unchanged but
then shrinks the mu count, and the term size breaks the final tie.
"""

from __future__ import annotations

from .syntax import RApp, RLam, RMu, RVar, ResTerm

Multiset = tuple[int, ...]
BoldMeasure = tuple[Multiset, int, int]


def mu_degree(t: ResTerm) -> int:
    return t.nmu


def bag_depths(t: ResTerm) -> list[int]:
    """Mu-ancestor count of every bag occurrence (every application node,
    including those carrying an empty bag), in preorder."""
    out: list[int] = []
    # The stack holds the bag elements still to walk; the loop below follows
    # heads and bodies without pushing them.
    stack: list[tuple[ResTerm, int]] = [(t, 0)]
    while stack:
        u, d = stack.pop()
        while True:
            cls = type(u)
            if cls is RApp:
                out.append(d)
                if u.bag:
                    stack.extend([(e, d) for e in reversed(u.bag)])
                u = u.head
            elif cls is RLam:
                u = u.body
            elif cls is RMu:
                u = u.body
                d += 1
            elif cls is RVar:
                break
            else:
                raise AssertionError(u)
    return out


def ms(t: ResTerm) -> Multiset:
    """Multiset of (mu count minus depth) per bag, sorted descending."""
    n = t.nmu
    return tuple(sorted((n - d for d in bag_depths(t)), reverse=True))


def bold_ms(t: ResTerm) -> BoldMeasure:
    return (ms(t), t.nmu, t.size)


def compare_multiset(a: Multiset, b: Multiset) -> int:
    """Dershowitz-Manna comparison of multisets of naturals (-1, 0 or 1).

    On descending-sorted tuples this is Python's tuple order, where a
    proper prefix loses.
    """
    a = tuple(sorted(a, reverse=True))
    b = tuple(sorted(b, reverse=True))
    return (a > b) - (a < b)


def compare_bold(a: BoldMeasure, b: BoldMeasure) -> int:
    """The layered order: the multiset first, then the mu count, then the
    size."""
    return compare_multiset(a[0], b[0]) or (a[1:] > b[1:]) - (a[1:] < b[1:])
