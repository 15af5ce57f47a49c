"""Resource approximation of lambda-mu terms.

A resource term approximates a lambda-mu term when it has the same shape
with every argument replaced by a bag of approximants of that argument
(possibly empty, with repetitions).  The approximants of a term up to a size
budget are finitely many and computable; normalizing them over the
idempotent semiring yields a truncated picture of the term's full normal
form, good enough to compare terms, decide head-termination empirically, and
check that head reduction commutes with approximation.

That check head-steps approximants of the source and keeps the reducts that
fit the budget.  The size of every head reduct of an approximant is read off
its head redex before stepping, so only the approximants whose reducts can
fit are stepped; the others could only add reducts that the budget drops.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lamu import head_step, head_run, Hnf
from .resource import head_step_res, normalize_r
from .syntax import (
    App,
    BOOL,
    Lam,
    Mu,
    RApp,
    RLam,
    RMu,
    RVar,
    ResTerm,
    Term,
    Var,
    head_redex_pos,
    is_locally_closed,
    mkbag,
    subterm_at,
)

# ---------- membership and enumeration ----------


def taylor_member(t: ResTerm, m: Term) -> bool:
    """Does the resource term approximate the lambda-mu term?"""
    match t, m:
        case RVar(ref=r1), Var(ref=r2):
            return r1 == r2
        case RLam(body=b1), Lam(body=b2):
            return taylor_member(b1, b2)
        case RMu(named=n1, body=b1), Mu(named=n2, body=b2):
            return n1 == n2 and taylor_member(b1, b2)
        case RApp(head=h, bag=bag), App(fun=f, arg=a):
            return taylor_member(h, f) and all(taylor_member(e, a) for e in bag)
    return False


def taylor_enum(m: Term, max_size: int) -> tuple[ResTerm, ...]:
    """All approximants of ``m`` of size at most ``max_size``, sorted.

    Sizes count one per node plus one per bag slot, so an application with k
    arguments in the bag costs 1 + k on top of its subterms.
    """
    return _approximants(m, max_size, {})


# The enumeration is written with module-level functions and an explicit
# memo, not nested closures: a nested recursive function refers to itself,
# and that cycle would keep the whole memo alive until the cycle collector
# ran.


def _approximants(
    u: Term, budget: int, memo: dict[tuple[bytes, int], tuple[ResTerm, ...]]
) -> tuple[ResTerm, ...]:
    if budget <= 0:
        return ()
    key = (u.enc, budget)
    hit = memo.get(key)
    if hit is not None:
        return hit
    out: list[ResTerm] = []
    match u:
        case Var(ref=r):
            out.append(RVar(r))
        case Lam(body=b):
            out.extend(RLam(t) for t in _approximants(b, budget - 1, memo))
        case Mu(named=nr, body=b):
            out.extend(RMu(nr, t) for t in _approximants(b, budget - 1, memo))
        case App(fun=f, arg=a):
            for h in _approximants(f, budget - 1, memo):
                room = budget - 1 - h.size
                pool = _approximants(a, room - 1, memo) if room >= 1 else ()
                for bag in _bags(pool, 0, room):
                    out.append(RApp(h, bag))
    result = mkbag(out)
    memo[key] = result
    return result


def _bags(pool: tuple[ResTerm, ...], start: int, left: int):
    """Bags drawn from ``pool[start:]`` (as non-decreasing index sequences)
    whose slots cost at most ``left``: one per element plus its size."""
    yield ()
    for j in range(start, len(pool)):
        cost = 1 + pool[j].size
        if cost <= left:
            for rest in _bags(pool, j, left - cost):
                yield (pool[j],) + rest


# ---------- truncated normal-form sets ----------


def nft_truncated(m: Term, max_size: int) -> frozenset[ResTerm]:
    """Normal forms of all approximants up to the size budget (idempotent
    semiring); approximants that vanish contribute nothing."""
    out: set[ResTerm] = set()
    for t in taylor_enum(m, max_size):
        out.update(normalize_r(t, BOOL).terms())
    return frozenset(out)


def leq_truncated(m: Term, n: Term, max_size: int) -> bool:
    """Approximation order, truncated: every normal form reachable from
    ``m``'s budget-bounded approximants is reachable from ``n``'s."""
    return nft_truncated(m, max_size) <= nft_truncated(n, max_size)


def nft_eq_truncated(m: Term, n: Term, max_size: int) -> bool:
    return nft_truncated(m, max_size) == nft_truncated(n, max_size)


# ---------- solvability ----------


@dataclass(frozen=True)
class Solvable:
    steps: int
    hnf: Term


@dataclass(frozen=True)
class Unknown:
    fuel: int
    term: Term


def solvable(m: Term, fuel: int) -> Solvable | Unknown:
    """Head reduction with fuel: reaching a head normal form proves the term
    solvable; running out is inconclusive (reported, never silently cut)."""
    res = head_run(m, fuel)
    if isinstance(res, Hnf):
        return Solvable(res.steps, res.term)
    return Unknown(res.fuel, res.term)


# ---------- head reduction commutes with approximation ----------


def _head_reduct_size_floor(t: ResTerm) -> int | None:
    """A lower bound on the size of every addend of ``head_step_res(t)``,
    read off the head redex alone; None on a head normal form.

    The size rule of the three head steps:
    - lambda, (\\x.s)[u1, ..., uk] -> s{u1, ..., uk / x}: the application
      node, its k slots, the lambda and the k occurrences of x go, so every
      addend has size exactly ``t.size - 2 - 2k`` (a bag whose size is not
      the degree of x gives no addend at all);
    - mu, (mu 'a.s)[u1, ..., uk]: the application node goes and each of the
      n namings of 'a gets one, so every addend has size ``t.size - 1 + n``;
    - merge (rho), mu 'a.<'b> mu 'c.<'d> s -> mu 'a.<'d> s{'b / 'c}: one mu
      goes, so every addend has size exactly ``t.size - 1``.
    """
    hit = head_redex_pos(t)
    if hit is None:
        return None
    pos, kind = hit
    if kind == "lam":
        return t.size - 2 - 2 * len(subterm_at(t, pos).bag)
    return t.size - 1


def head_slice_bound(max_size: int) -> int:
    """Approximants at most this large can head-step to something of size
    <= max_size.  By the size rule of ``_head_reduct_size_floor``, a lambda
    step shrinks by 2 + 2k and keeps each of the k bag elements, so k is at
    most the reduct's size; mu and merge steps shrink by at most 1."""
    return 3 * max_size + 2


def head_commute_slices(m: Term, max_size: int) -> tuple[frozenset[ResTerm], frozenset[ResTerm]]:
    """Left: approximants of the head reduct, up to the budget.  Right: head
    reducts of sufficiently many approximants of the source, cut to the same
    budget.  The two sets must coincide.

    Only the approximants whose head reducts can fit the budget are stepped:
    ``_head_reduct_size_floor`` bounds every reduct's size from below, and
    an approximant whose bound exceeds the budget could only add reducts
    that the cut drops, so no reduct of the right slice is lost."""
    reduct = head_step(m)
    if reduct is None:
        raise ValueError("term is already a head normal form")
    left = frozenset(taylor_enum(reduct, max_size))
    right: set[ResTerm] = set()
    for t in taylor_enum(m, head_slice_bound(max_size)):
        floor = _head_reduct_size_floor(t)
        if floor is None or floor > max_size:
            continue
        for u in head_step_res(t, BOOL).terms():
            if u.size <= max_size:
                right.add(u)
    return left, frozenset(right)


def head_commutes(m: Term, max_size: int) -> bool:
    left, right = head_commute_slices(m, max_size)
    return left == right


# ---------- common combinators ----------


def church_true() -> Term:
    return Lam(Lam(Var(1)))


def church_false() -> Term:
    return Lam(Lam(Var(0)))


def pair_of(m: Term, n: Term) -> Term:
    """<m, n> = \\z. z m n (grafting is safe: inputs are locally closed)."""
    if not (is_locally_closed(m) and is_locally_closed(n)):
        raise ValueError(f"a pair needs locally closed terms, got {m!r} and {n!r}")
    return Lam(App(App(Var(0), m), n))


def omega() -> Term:
    dup = Lam(App(Var(0), Var(0)))
    return App(dup, dup)
