"""Seeded random generation of terms for the property suites.

Grammar-directed and budget-bounded: the resource generator counts the same
size the measures use (one per node plus one per bag slot), the lambda-mu
generator counts nodes.  Defaults favor small bags and shallow mu-nesting so
oracle graphs stay within their node caps.
"""

from __future__ import annotations

import random

from .syntax import App, Bag, Lam, Mu, RApp, RLam, RMu, RVar, ResTerm, Term, Var, mkbag

FREE_VARS = ("x", "y", "z")
FREE_NAMES = ("a", "b", "c")

_BAG_SIZES = (0, 1, 2)
_BAG_WEIGHTS = (30, 45, 25)


def _split_budget(rng: random.Random, total: int, parts: int) -> list[int]:
    """Random composition of ``total`` into ``parts`` positive chunks."""
    if parts < 1 or total < parts:
        raise ValueError(f"cannot split {total} into {parts} positive chunks")
    if parts == 1:
        return [total]
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0] + cuts + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def gen_res(
    rng: random.Random,
    max_size: int,
    ld: int = 0,
    nd: int = 0,
    mu_cap: int = 3,
) -> ResTerm:
    """One random resource term of size at most ``max_size`` (open: free
    atoms are drawn from a small pool)."""
    if max_size < 1:
        raise ValueError(f"size budget must be at least 1, got {max_size}")
    choices = ["var"]
    weights = [2]
    if max_size >= 2:
        choices += ["lam", "app"]
        weights += [2, 4]
        if nd < mu_cap:
            choices.append("mu")
            weights.append(2)
    kind = rng.choices(choices, weights)[0]
    if kind == "var":
        if ld > 0 and rng.random() < 0.6:
            return RVar(rng.randrange(ld))
        return RVar(rng.choice(FREE_VARS))
    if kind == "lam":
        return RLam(gen_res(rng, max_size - 1, ld + 1, nd, mu_cap))
    if kind == "mu":
        # Naming reference drawn from the scope including the new binder
        # (index 0) or the free pool.
        if rng.random() < 0.5:
            named: int | str = rng.randrange(nd + 1)
        else:
            named = rng.choice(FREE_NAMES)
        return RMu(named, gen_res(rng, max_size - 1, ld, nd + 1, mu_cap))
    assert kind == "app"
    k = rng.choices(_BAG_SIZES, _BAG_WEIGHTS)[0]
    while max_size - 1 - k < k + 1:
        k -= 1
    chunks = _split_budget(rng, max_size - 1 - k, k + 1)
    head = gen_res(rng, chunks[0], ld, nd, mu_cap)
    elems = [gen_res(rng, c, ld, nd, mu_cap) for c in chunks[1:]]
    return RApp(head, elems)


def gen_bag(rng: random.Random, max_elem_size: int, max_len: int = 2) -> Bag:
    return mkbag(
        gen_res(rng, max_elem_size) for _ in range(rng.randint(0, max_len))
    )


def gen_term(
    rng: random.Random,
    max_nodes: int,
    ld: int = 0,
    nd: int = 0,
    mu_cap: int = 3,
) -> Term:
    """One random lambda-mu term with at most ``max_nodes`` nodes."""
    if max_nodes < 1:
        raise ValueError(f"node budget must be at least 1, got {max_nodes}")
    choices = ["var"]
    weights = [2]
    if max_nodes >= 2:
        choices += ["lam", "mu"] if nd < mu_cap else ["lam"]
        weights += [2, 2] if nd < mu_cap else [2]
    if max_nodes >= 3:
        choices.append("app")
        weights.append(5)
    kind = rng.choices(choices, weights)[0]
    if kind == "var":
        if ld > 0 and rng.random() < 0.6:
            return Var(rng.randrange(ld))
        return Var(rng.choice(FREE_VARS))
    if kind == "lam":
        return Lam(gen_term(rng, max_nodes - 1, ld + 1, nd, mu_cap))
    if kind == "mu":
        if rng.random() < 0.5:
            named: int | str = rng.randrange(nd + 1)
        else:
            named = rng.choice(FREE_NAMES)
        return Mu(named, gen_term(rng, max_nodes - 1, ld, nd + 1, mu_cap))
    assert kind == "app"
    nf, na = _split_budget(rng, max_nodes - 1, 2)
    return App(gen_term(rng, nf, ld, nd, mu_cap), gen_term(rng, na, ld, nd, mu_cap))


def gen_random(kind: str, max_size: int, seed: int):
    """Seeded entry point: same arguments, same value."""
    rng = random.Random(seed)
    if kind == "term":
        return gen_term(rng, max_size)
    if kind == "resterm":
        return gen_res(rng, max_size)
    raise ValueError(f"unknown kind: {kind}")
