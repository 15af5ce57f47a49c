"""Seeded random generation of terms for the property suites.

Grammar-directed and budget-bounded: the resource generator counts the same
size the measures use (one per node plus one per bag slot), the lambda-mu
generator counts nodes.  Defaults favor small bags and shallow mu-nesting so
oracle graphs stay within their node caps.

Every draw is one of two primitives of the ``random.Random`` it is given,
passed down the recursion as bound methods: ``random()`` for a weighted
choice or a coin, ``getrandbits`` for an integer below a bound (``_below``,
the rejection sampler behind ``randrange``, ``choice``, ``randint`` and
``sample``).  Each weighted choice is a table built once at import and drawn
as ``random.choices`` draws.  So a seed gives the same terms, and leaves the
generator in the same state, as the stdlib wrappers would, without their
per-call overhead.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from typing import Callable

from .syntax import App, Bag, Lam, Mu, RApp, RLam, RMu, RVar, ResTerm, Term, Var, mkbag

FREE_VARS = ("x", "y", "z")
FREE_NAMES = ("a", "b", "c")


class _Weighted:
    """A fixed weighted choice whose cumulative weights are summed once.

    ``pick(rng.random)`` draws exactly as ``rng.choices(population,
    weights)[0]`` does: one ``rng.random()`` call, scaled by the total
    weight, and the same bisection.  So it returns the same value and leaves
    the generator in the same state.
    """

    __slots__ = ("population", "weights", "cum", "hi")

    def __init__(self, pairs: list[tuple[object, int]]):
        self.population = tuple(p for p, _ in pairs)
        self.weights = tuple(w for _, w in pairs)
        self.cum = tuple(accumulate(self.weights))
        self.hi = len(self.cum) - 1

    def pick(self, rand: Callable[[], float]):
        return self.population[bisect(self.cum, rand() * self.cum[-1], 0, self.hi)]


_BAG_SIZE = _Weighted([(0, 30), (1, 45), (2, 25)])

# No mu binder is drawn below this many mu binders.
_MU_CAP = 3


def _res_kinds(room: bool, mu_ok: bool) -> _Weighted:
    """The node kinds ``gen_res`` draws from: only a variable without room
    for a child, a mu only below the mu cap."""
    pairs = [("var", 2)]
    if room:
        pairs += [("lam", 2), ("app", 4)]
        if mu_ok:
            pairs.append(("mu", 2))
    return _Weighted(pairs)


def _term_kinds(nodes: int, mu_ok: bool) -> _Weighted:
    """The node kinds ``gen_term`` draws from with a budget of ``nodes``
    (counted up to 3): a binder needs 2, an application 3."""
    pairs = [("var", 2)]
    if nodes >= 2:
        pairs.append(("lam", 2))
        if mu_ok:
            pairs.append(("mu", 2))
    if nodes >= 3:
        pairs.append(("app", 5))
    return _Weighted(pairs)


_RES_KINDS = {(room, mu_ok): _res_kinds(room, mu_ok)
              for room in (False, True) for mu_ok in (False, True)}
_TERM_KINDS = {(nodes, mu_ok): _term_kinds(nodes, mu_ok)
               for nodes in (1, 2, 3) for mu_ok in (False, True)}


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
    if parts == 1:
        return [total]
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
    kind = _RES_KINDS[max_size >= 2, nd < _MU_CAP].pick(rand)
    if kind == "var":
        if ld > 0 and rand() < 0.6:
            return RVar(_below(getrandbits, ld))
        return RVar(FREE_VARS[_below(getrandbits, 3)])
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
    k = _BAG_SIZE.pick(rand)
    while max_size - 1 - k < k + 1:
        k -= 1
    chunks = _split_budget(getrandbits, max_size - 1 - k, k + 1)
    head = _res(rand, getrandbits, chunks[0], ld, nd)
    elems = [_res(rand, getrandbits, c, ld, nd) for c in chunks[1:]]
    return RApp(head, elems)


def gen_bag(rng: random.Random, max_elem_size: int) -> Bag:
    """A bag of 0 to 2 random resource terms, each of size at most
    ``max_elem_size``."""
    if max_elem_size < 1:
        raise ValueError(f"size budget must be at least 1, got {max_elem_size}")
    return mkbag(gen_res(rng, max_elem_size) for _ in range(_below(rng.getrandbits, 3)))


def gen_term(rng: random.Random, max_nodes: int, ld: int = 0, nd: int = 0) -> Term:
    """One random lambda-mu term with at most ``max_nodes`` nodes, under
    ``ld`` lambda and ``nd`` mu binders."""
    if max_nodes < 1:
        raise ValueError(f"node budget must be at least 1, got {max_nodes}")
    return _term(rng.random, rng.getrandbits, max_nodes, ld, nd)


def _term(rand, getrandbits, max_nodes: int, ld: int, nd: int) -> Term:
    kind = _TERM_KINDS[min(max_nodes, 3), nd < _MU_CAP].pick(rand)
    if kind == "var":
        if ld > 0 and rand() < 0.6:
            return Var(_below(getrandbits, ld))
        return Var(FREE_VARS[_below(getrandbits, 3)])
    if kind == "lam":
        return Lam(_term(rand, getrandbits, max_nodes - 1, ld + 1, nd))
    if kind == "mu":
        if rand() < 0.5:
            named: int | str = _below(getrandbits, nd + 1)
        else:
            named = FREE_NAMES[_below(getrandbits, 3)]
        return Mu(named, _term(rand, getrandbits, max_nodes - 1, ld, nd + 1))
    # The kind left is "app".
    nf, na = _split_budget(getrandbits, max_nodes - 1, 2)
    return App(_term(rand, getrandbits, nf, ld, nd), _term(rand, getrandbits, na, ld, nd))


def gen_random(kind: str, max_size: int, seed: int):
    """Seeded entry point: same arguments, same value."""
    rng = random.Random(seed)
    if kind == "term":
        return gen_term(rng, max_size)
    if kind == "resterm":
        return gen_res(rng, max_size)
    raise ValueError(f"unknown kind: {kind}")
