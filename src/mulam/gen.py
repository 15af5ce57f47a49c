"""Seeded random generation of terms for the property suites.

Grammar-directed and budget-bounded: the resource generator counts the same
size the measures use (one per node plus one per bag slot), the lambda-mu
generator counts nodes.  Defaults favor small bags and shallow mu-nesting so
oracle graphs stay within their node caps.

Every draw is one of two primitives of the ``random.Random`` it is given,
passed down the recursion as bound methods: ``random()`` for a weighted
choice or a coin, ``getrandbits`` for an integer below a bound (``_below``,
the rejection sampler behind ``randrange``, ``choice``, ``randint`` and
``sample``).  Each weighted choice is a table built once at import, whose
fields (cumulative weights, total, population) the generators read inline
to draw as ``random.choices`` draws; a split into two parts is its one cut,
drawn inline as ``_split_budget`` draws it.  So a seed gives the same terms,
and leaves the generator in the same state, as the stdlib wrappers would,
without their per-call overhead.

A bag (``gen_bag``) draws its size, then each of its at most two elements
through ``gen_res``, one after the other, as a generator over
``range(size)`` would; only a bag of two is sorted.

Leaves are shared: a free atom, or an index below ``_SHARED_INDICES``, is
one node built at import and returned by every draw of it.  Sharing is safe
because nodes are immutable, equality and hashing go through their
encoding, and nothing in the package compares nodes by identity.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from typing import Callable

from .syntax import App, Bag, Lam, Mu, RApp, RLam, RMu, RVar, ResTerm, Term, Var, mkbag

FREE_VARS = ("x", "y", "z")
FREE_NAMES = ("a", "b", "c")


def _weighted(pairs: list[tuple[object, int]]) -> tuple[tuple[int, ...], float, int, tuple]:
    """A fixed weighted choice as ``(cum, total, hi, population)``: the
    cumulative weights summed once, their total as a float, the last index
    and the values.  ``population[bisect(cum, rand() * total, 0, hi)]``
    draws exactly as ``rng.choices(population, weights)[0]`` does: one
    ``rng.random()`` call, scaled by the total weight, and the same
    bisection.  So it returns the same value and leaves the generator in the
    same state."""
    cum = tuple(accumulate(w for _, w in pairs))
    return cum, cum[-1] + 0.0, len(cum) - 1, tuple(p for p, _ in pairs)


_BAG_SIZE = _weighted([(0, 30), (1, 45), (2, 25)])

# No mu binder is drawn below this many mu binders.
_MU_CAP = 3


def _res_kinds(room: bool, mu_ok: bool) -> tuple:
    """The node kinds ``gen_res`` draws from: only a variable without room
    for a child, a mu only below the mu cap."""
    pairs = [("var", 2)]
    if room:
        pairs += [("lam", 2), ("app", 4)]
        if mu_ok:
            pairs.append(("mu", 2))
    return _weighted(pairs)


def _term_kinds(nodes: int, mu_ok: bool) -> tuple:
    """The node kinds ``gen_term`` draws from with a budget of ``nodes``
    (counted up to 3): a binder needs 2, an application 3."""
    pairs = [("var", 2)]
    if nodes >= 2:
        pairs.append(("lam", 2))
        if mu_ok:
            pairs.append(("mu", 2))
    if nodes >= 3:
        pairs.append(("app", 5))
    return _weighted(pairs)


_RES_KINDS = {(room, mu_ok): _res_kinds(room, mu_ok)
              for room in (False, True) for mu_ok in (False, True)}
_TERM_KINDS = {(nodes, mu_ok): _term_kinds(nodes, mu_ok)
               for nodes in (1, 2, 3) for mu_ok in (False, True)}

# Shared leaves: the free atoms, and the indices below _SHARED_INDICES, of
# both syntaxes.  A deeper index gets a node of its own.
_SHARED_INDICES = 16
_RES_ATOMS = tuple(RVar(x) for x in FREE_VARS)
_RES_INDICES = tuple(RVar(i) for i in range(_SHARED_INDICES))
_TERM_ATOMS = tuple(Var(x) for x in FREE_VARS)
_TERM_INDICES = tuple(Var(i) for i in range(_SHARED_INDICES))


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform int in ``[0, n)`` for ``n >= 1``, drawn as CPython's
    ``Random._randbelow_with_getrandbits`` draws it: ``n.bit_length()``
    random bits, redrawn while they reach ``n``.  ``randrange(n)``,
    ``choice`` of ``n`` items, ``randint(0, n - 1)`` and each pick of
    ``sample`` make exactly this draw."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _split_budget(getrandbits: Callable[[int], int], total: int, parts: int) -> list[int]:
    """Random composition of ``total`` into ``parts`` positive chunks.

    The cuts are ``sorted(rng.sample(range(1, total), parts - 1))``, drawn
    as ``sample`` draws up to five picks: from a shrinking pool when the
    range has at most 21 values, else by rejecting repeats.
    """
    if parts < 1 or total < parts:
        raise ValueError(f"cannot split {total} into {parts} positive chunks")
    n = total - 1
    cuts: list[int] = []
    if n <= 21:
        pool = list(range(1, total))
        for i in range(parts - 1):
            j = _below(getrandbits, n - i)
            cuts.append(pool[j])
            pool[j] = pool[n - i - 1]
    else:
        for _ in range(parts - 1):
            j = _below(getrandbits, n)
            while j + 1 in cuts:
                j = _below(getrandbits, n)
            cuts.append(j + 1)
    bounds = [0, *sorted(cuts), total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def gen_res(rng: random.Random, max_size: int, ld: int = 0, nd: int = 0) -> ResTerm:
    """One random resource term of size at most ``max_size`` (open: free
    atoms are drawn from a small pool), under ``ld`` lambda and ``nd`` mu
    binders whose indices it may use."""
    if max_size < 1:
        raise ValueError(f"size budget must be at least 1, got {max_size}")
    return _res(rng.random, rng.getrandbits, max_size, ld, nd)


def _res(rand, getrandbits, max_size: int, ld: int, nd: int) -> ResTerm:
    cum, total, hi, kinds = _RES_KINDS[max_size >= 2, nd < _MU_CAP]
    kind = kinds[bisect(cum, rand() * total, 0, hi)]
    if kind == "var":
        if ld > 0 and rand() < 0.6:
            i = _below(getrandbits, ld)
            return _RES_INDICES[i] if i < _SHARED_INDICES else RVar(i)
        return _RES_ATOMS[_below(getrandbits, 3)]
    if kind == "lam":
        return RLam(_res(rand, getrandbits, max_size - 1, ld + 1, nd))
    if kind == "mu":
        # Naming reference drawn from the scope including the new binder
        # (index 0) or the free pool.
        if rand() < 0.5:
            named: int | str = _below(getrandbits, nd + 1)
        else:
            named = FREE_NAMES[_below(getrandbits, 3)]
        return RMu(named, _res(rand, getrandbits, max_size - 1, ld, nd + 1))
    # The kind left is "app".
    cum, total, hi, sizes = _BAG_SIZE
    k = sizes[bisect(cum, rand() * total, 0, hi)]
    while max_size - 1 - k < k + 1:
        k -= 1
    budget = max_size - 1 - k
    if k == 0:
        return RApp(_res(rand, getrandbits, budget, ld, nd), ())
    if k == 1:
        # One cut, drawn as _split_budget draws it for two parts.
        cut = _below(getrandbits, budget - 1) + 1
        head = _res(rand, getrandbits, cut, ld, nd)
        return RApp(head, (_res(rand, getrandbits, budget - cut, ld, nd),))
    chunks = _split_budget(getrandbits, budget, k + 1)
    head = _res(rand, getrandbits, chunks[0], ld, nd)
    elems = [_res(rand, getrandbits, c, ld, nd) for c in chunks[1:]]
    return RApp(head, elems)


def gen_bag(rng: random.Random, max_elem_size: int) -> Bag:
    """A bag of 0 to 2 random resource terms, each of size at most
    ``max_elem_size``."""
    if max_elem_size < 1:
        raise ValueError(f"size budget must be at least 1, got {max_elem_size}")
    k = _below(rng.getrandbits, 3)
    if k == 0:
        return ()
    first = gen_res(rng, max_elem_size)
    if k == 1:
        return (first,)
    return mkbag((first, gen_res(rng, max_elem_size)))


def gen_term(rng: random.Random, max_nodes: int, ld: int = 0, nd: int = 0) -> Term:
    """One random lambda-mu term with at most ``max_nodes`` nodes, under
    ``ld`` lambda and ``nd`` mu binders."""
    if max_nodes < 1:
        raise ValueError(f"node budget must be at least 1, got {max_nodes}")
    return _term(rng.random, rng.getrandbits, max_nodes, ld, nd)


def _term(rand, getrandbits, max_nodes: int, ld: int, nd: int) -> Term:
    cum, total, hi, kinds = _TERM_KINDS[min(max_nodes, 3), nd < _MU_CAP]
    kind = kinds[bisect(cum, rand() * total, 0, hi)]
    if kind == "var":
        if ld > 0 and rand() < 0.6:
            i = _below(getrandbits, ld)
            return _TERM_INDICES[i] if i < _SHARED_INDICES else Var(i)
        return _TERM_ATOMS[_below(getrandbits, 3)]
    if kind == "lam":
        return Lam(_term(rand, getrandbits, max_nodes - 1, ld + 1, nd))
    if kind == "mu":
        if rand() < 0.5:
            named: int | str = _below(getrandbits, nd + 1)
        else:
            named = FREE_NAMES[_below(getrandbits, 3)]
        return Mu(named, _term(rand, getrandbits, max_nodes - 1, ld, nd + 1))
    # The kind left is "app": one cut, drawn as _split_budget draws it for
    # two parts.
    cut = _below(getrandbits, max_nodes - 2) + 1
    return App(_term(rand, getrandbits, cut, ld, nd),
               _term(rand, getrandbits, max_nodes - 1 - cut, ld, nd))


def gen_random(kind: str, max_size: int, seed: int):
    """Seeded entry point: same arguments, same value."""
    rng = random.Random(seed)
    if kind == "term":
        return gen_term(rng, max_size)
    if kind == "resterm":
        return gen_res(rng, max_size)
    raise ValueError(f"unknown kind: {kind}")
