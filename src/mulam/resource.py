"""Reduction engine for the resource calculus.

Terms apply to finite multisets (bags) and reduction is multilinear: a
lambda redex distributes its bag over the occurrences of the bound variable
(zero unless the counts match exactly), and a mu redex distributes its bag
over the namings of the bound name via the linear named application.  Both
distributions sum over weak compositions of the bag; under the exact-count
semiring each composition is weighted by the number of index assignments
inducing it.

Splits are directed by degree: only compositions whose part sizes can
survive are enumerated (exactly the occurrence counts for a lambda redex,
the empty part for every subterm without a naming of the mu's name), and a
body with no such naming takes the whole bag at once.  Each distribution
accumulates its addends in one ``SumBuilder`` and canonicalizes once.

A redex that contracts to zero (a lambda redex whose bag size differs from
the occurrences of its variable, a mu redex whose non-empty bag finds no
naming of its binder) is recognized on the closed term, before ``step_r``
opens any binder on the way to it.  A step of a whole sum copies the sum,
takes the stepped weight away and adds the reduct in one ``SumBuilder``; the
reduct is computed by the caller, so a caller that meets the same addend
again (the reduction-graph oracle) steps it only once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .combinatorics import weak_compositions_with_counts
from .syntax import (
    BOOL,
    NAT,
    Bag,
    Pos,
    RApp,
    RLam,
    RMu,
    RVar,
    ResTerm,
    Sum,
    SumBuilder,
    _strip_quote,
    close_rname,
    close_rvar,
    degree,
    fresh_atom,
    lift_app,
    mkbag,
    open_mu_binder,
    open_rvar,
    subterm_at,
)
from .lamu import rho_inner_parts

# ---------- linear substitution ----------


def _lsubst(t: ResTerm, x: str, bag: Bag, semiring: str) -> Sum:
    # The caller guarantees len(bag) == degree(x, t); every split below is
    # directed by the degrees, so each branch keeps that invariant and none
    # of them vanishes.
    if not bag:
        return Sum.unit(t, semiring)
    match t:
        case RVar(ref=r):
            assert r == x and len(bag) == 1, (t, x, bag)
            return Sum.unit(bag[0], semiring)
        case RLam(body=b):
            return _lsubst(b, x, bag, semiring).map(RLam)
        case RMu(named=nr, body=b):
            return _lsubst(b, x, bag, semiring).map(lambda u: RMu(nr, u))
        case RApp(head=h, bag=elems):
            kids = (h,) + elems
            acc = SumBuilder(semiring)
            sizes = [degree(x, k) for k in kids]
            for parts, count in weak_compositions_with_counts(bag, len(kids), sizes):
                sums = [_lsubst(k, x, p, semiring) for k, p in zip(kids, parts)]
                acc.add(lift_app(sums[0], sums[1:]), count)
            return acc.build()
    raise AssertionError(t)


def linear_subst(t: ResTerm, x: str, bag, semiring: str) -> Sum:
    """t<[bag]/x>: replace the occurrences of ``x`` by the bag elements in
    all possible ways; zero when the counts cannot match."""
    bag = mkbag(bag)
    if degree(x, t) != len(bag):
        return Sum.zero(semiring)
    return _lsubst(t, x, bag, semiring)


# ---------- linear named application ----------


def _lna_term(t: ResTerm, alpha: str, bag: Bag, semiring: str) -> Sum:
    if degree("'" + alpha, t) == 0:
        # No naming of alpha anywhere: the empty bag is the identity, any
        # other bag has nowhere to go.
        if bag:
            return Sum.zero(semiring)
        return Sum.unit(t, semiring)
    match t:
        case RVar():
            raise AssertionError(t)  # degree is 0, handled above
        case RLam(body=b):
            return _lna_term(b, alpha, bag, semiring).map(RLam)
        case RMu(named=nr, body=b):
            return _lna_named(nr, b, alpha, bag, semiring).map(lambda u: RMu(nr, u))
        case RApp(head=h, bag=elems):
            # A child with no naming of alpha only takes the empty part.
            kids = (h,) + elems
            acc = SumBuilder(semiring)
            sizes = [None if degree("'" + alpha, k) else 0 for k in kids]
            for parts, count in weak_compositions_with_counts(bag, len(kids), sizes):
                sums = [_lna_term(k, alpha, p, semiring) for k, p in zip(kids, parts)]
                acc.add(lift_app(sums[0], sums[1:]), count)
            return acc.build()
    raise AssertionError(t)


def _lna_named(named: int | str, body: ResTerm, alpha: str, bag: Bag, semiring: str) -> Sum:
    """Linear named application on a named pair ``<named| body>``.

    Returns the sum of new bodies; the naming itself never changes.  At a
    naming of ``alpha`` the bag splits in two: one part goes inside
    recursively, the other becomes a new application at the naming, and the
    application node appears even when that part is empty.
    """
    if named != alpha:
        return _lna_term(body, alpha, bag, semiring)
    if degree("'" + alpha, body) == 0:
        # Only the split that keeps nothing inside survives.
        return Sum.unit(RApp(body, bag), semiring)
    acc = SumBuilder(semiring)
    for (w1, w2), count in weak_compositions_with_counts(bag, 2):
        acc.add(_lna_term(body, alpha, w1, semiring).map(lambda u: RApp(u, w2)), count)
    return acc.build()


def linear_named_app(t: ResTerm, alpha: str, bag, semiring: str) -> Sum:
    """<t>_alpha [bag]: distribute the bag over the namings of ``alpha``."""
    return _lna_term(t, _strip_quote(alpha), mkbag(bag), semiring)


def linear_named_app_named(eta: str, t: ResTerm, alpha: str, bag, semiring: str) -> Sum:
    """The named-pair form ``<<eta| t>>_alpha [bag]``, as a sum of bodies
    (the naming stays ``eta``)."""
    return _lna_named(_strip_quote(eta), t, _strip_quote(alpha), mkbag(bag), semiring)


# ---------- redexes and single steps ----------


def redex_kind_res(t: ResTerm) -> str | None:
    match t:
        case RApp(head=RLam()):
            return "lam"
        case RApp(head=RMu()):
            return "mu"
        case RMu(body=RMu()):
            return "rho"
    return None


def redexes_res(t: ResTerm) -> list[tuple[Pos, str]]:
    out: list[tuple[Pos, str]] = []

    def go(u: ResTerm, pos: Pos) -> None:
        k = redex_kind_res(u)
        if k is not None:
            out.append((pos, k))
        match u:
            case RLam(body=b) | RMu(body=b):
                go(b, pos + (0,))
            case RApp(head=h, bag=bag):
                go(h, pos + (0,))
                for i, e in enumerate(bag):
                    go(e, pos + (i + 1,))

    go(t, ())
    return out


def is_normal_res(t: ResTerm) -> bool:
    return not redexes_res(t)


def _bound_degree(body: ResTerm, name: bool) -> int:
    """Occurrences, in the body of a lambda (``name`` false) or of a mu
    (``name`` true), of the variable or name that binder binds."""
    n = 0
    stack = [(body, 1 if name else 0)]
    while stack:
        u, d = stack.pop()
        match u:
            case RVar(ref=r):
                if not name and r == d:
                    n += 1
            case RLam(body=b):
                stack.append((b, d if name else d + 1))
            case RMu(named=nr, body=b):
                if name and nr == d:
                    n += 1
                stack.append((b, d + 1 if name else d))
            case RApp(head=h, bag=bag):
                stack.append((h, d))
                stack.extend((e, d) for e in bag)
    return n


def _vanishes(t: ResTerm) -> bool:
    """Does the redex ``t`` contract to zero?  Only the redex's own binder
    matters, so the answer is the same with outer binders open or closed."""
    match t:
        case RApp(head=RLam(body=b), bag=bag):
            return _bound_degree(b, False) != len(bag)
        case RApp(head=RMu(named=nr, body=b), bag=bag):
            return bool(bag) and nr != 0 and _bound_degree(b, True) == 0
    return False


def contract_res(t: ResTerm, semiring: str) -> Sum:
    """Contract a root redex (term opened with respect to outer binders)."""
    if _vanishes(t):
        return Sum.zero(semiring)
    return _contract(t, semiring)


def _contract(t: ResTerm, semiring: str) -> Sum:
    # The caller has ruled out a vanishing redex, so a lambda redex's bag
    # matches the occurrences of its variable.
    match t:
        case RApp(head=RLam(body=b), bag=bag):
            x = fresh_atom("v")
            return _lsubst(open_rvar(b, x), x, bag, semiring)
        case RApp(head=RMu() as m, bag=bag):
            a = fresh_atom("n")
            named, body = open_mu_binder(m, a)
            s = _lna_named(named, body, a, bag, semiring)
            closed = 0 if named == a else named
            return s.map(lambda u: RMu(closed, close_rname(u, a)))
        case RMu(named=nr, body=RMu() as inner):
            new_named, body = rho_inner_parts(nr, inner.named, inner.body)
            return Sum.unit(RMu(new_named, body), semiring)
    raise ValueError(f"not a redex: {t!r}")


def step_r(t: ResTerm, pos: Pos, semiring: str) -> Sum:
    """One reduction step at a given position, as a sum.

    A redex that contracts to zero is recognized before any binder above it
    is opened.
    """
    if _vanishes(subterm_at(t, pos)):
        return Sum.zero(semiring)

    def go(u: ResTerm, p: Pos) -> Sum:
        if not p:
            return _contract(u, semiring)
        i, rest = p[0], p[1:]
        match u:
            case RLam(body=b):
                x = fresh_atom("v")
                return go(open_rvar(b, x), rest).map(lambda w: RLam(close_rvar(w, x)))
            case RMu() as m:
                a = fresh_atom("n")
                named, body = open_mu_binder(m, a)
                closed = 0 if named == a else named
                return go(body, rest).map(lambda w: RMu(closed, close_rname(w, a)))
            case RApp(head=h, bag=bag):
                if i == 0:
                    return go(h, rest).map(lambda w: RApp(w, bag))
                return go(bag[i - 1], rest).map(
                    lambda w: RApp(h, bag[: i - 1] + (w,) + bag[i:])
                )
        raise AssertionError((u, p))

    return go(t, pos)


# ---------- stepping whole sums ----------


@dataclass(frozen=True)
class SumStep:
    """What a single sum-level step did (for traces and oracles)."""

    term: ResTerm
    coeff: int
    pos: Pos
    kind: str


def reducible_addends(s: Sum) -> list[tuple[ResTerm, int, list[tuple[Pos, str]]]]:
    out = []
    for t, c in s.items:
        rs = redexes_res(t)
        if rs:
            out.append((t, c, rs))
    return out


_MODES = ("coeff", "occurrence")


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {_MODES}")


def _as_sum(x: ResTerm | Sum, semiring: str) -> Sum:
    """A term as a one-addend sum, or a sum checked to be over ``semiring``."""
    if semiring not in (BOOL, NAT):
        raise ValueError(f"unknown semiring {semiring!r}")
    if isinstance(x, ResTerm):
        return Sum.unit(x, semiring)
    if x.semiring != semiring:
        raise ValueError(f"a {x.semiring} sum where a {semiring} sum is expected")
    return x


def _apply_sum_step(s: Sum, step: SumStep, mode: str, reduct: Sum) -> Sum:
    """The sum after ``step``, whose addend contracts to ``reduct``.

    In "coeff" mode the addend steps with its whole coefficient, in
    "occurrence" mode one unit of it steps; over Bool every coefficient is 1,
    so the modes agree.
    """
    k = step.coeff if mode == "coeff" else 1
    acc = SumBuilder(s.semiring)
    acc.add(s)
    acc.remove(step.term, k)
    acc.add(reduct, k)
    return acc.build()


def pick_step(s: Sum, strategy: str, rng: random.Random | None = None) -> SumStep:
    cands = reducible_addends(s)
    if not cands:
        raise ValueError("sum is in normal form")
    if strategy == "leftmost":
        t, c, rs = cands[0]
        pos, kind = rs[0]
    elif strategy == "rightmost":
        t, c, rs = cands[-1]
        pos, kind = rs[-1]
    elif strategy == "random":
        if rng is None:
            raise ValueError("random strategy needs an rng")
        pairs = [(t, c, pos, kind) for t, c, rs in cands for pos, kind in rs]
        t, c, pos, kind = rng.choice(pairs)
    else:
        raise ValueError(f"unknown strategy: {strategy}")
    return SumStep(t, c, pos, kind)


def step_sum(
    s: Sum,
    strategy: str = "leftmost",
    rng: random.Random | None = None,
    mode: str = "coeff",
) -> Sum:
    """Rewrite one reducible addend of the sum; error on normal forms.

    ``mode`` is "coeff" (an addend steps with its whole coefficient) or
    "occurrence" (one unit at a time); they only differ over the exact-count
    semiring.
    """
    _check_mode(mode)
    step = pick_step(s, strategy, rng)
    return _apply_sum_step(s, step, mode, step_r(step.term, step.pos, s.semiring))


# ---------- normalization ----------


def normalize_r(x: ResTerm | Sum, semiring: str) -> Sum:
    """The (unique) normal form, computed addend-wise with memoization.

    Iterative worklist so deep reduction chains cannot hit the recursion
    limit; strong normalization guarantees the worklist drains.
    """
    start = _as_sum(x, semiring)
    memo: dict[ResTerm, Sum] = {}
    steps: dict[ResTerm, Sum] = {}
    for root, _ in start.items:
        stack = [root]
        while stack:
            u = stack[-1]
            if u in memo:
                stack.pop()
                continue
            if u not in steps:
                rs = redexes_res(u)
                if not rs:
                    memo[u] = Sum.unit(u, semiring)
                    stack.pop()
                    continue
                steps[u] = step_r(u, rs[0][0], semiring)
            reduct = steps[u]
            pending = [v for v, _ in reduct.items if v not in memo]
            if pending:
                stack.extend(pending)
                continue
            memo[u] = reduct.bind(lambda v: memo[v])
            stack.pop()
    return start.bind(lambda t: memo[t])


# ---------- head reduction ----------


def head_redex_pos_res(t: ResTerm) -> tuple[Pos, str] | None:
    """Mirror of the head-position rule on resource terms."""
    pos: list[int] = []
    u = t
    while True:
        match u:
            case RMu(body=RMu()):
                return tuple(pos), "rho"
            case RLam(body=b) | RMu(body=b):
                pos.append(0)
                u = b
            case _:
                break
    nargs = 0
    while isinstance(u, RApp):
        nargs += 1
        u = u.head
    if nargs == 0 or isinstance(u, RVar):
        return None
    kind = "lam" if isinstance(u, RLam) else "mu"
    return tuple(pos) + (0,) * (nargs - 1), kind


def is_hnf_res(t: ResTerm) -> bool:
    return head_redex_pos_res(t) is None


def head_step_res(t: ResTerm, semiring: str = BOOL) -> Sum:
    """One head step as a sum; zero on head normal forms (they are erased,
    not kept, under iteration)."""
    hit = head_redex_pos_res(t)
    if hit is None:
        return Sum.zero(semiring)
    return step_r(t, hit[0], semiring)
