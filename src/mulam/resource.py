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
body with no such naming takes the whole bag at once.  Each child's count is
taken once per application node and handed down, so no subterm is counted
again at its own top.

Substitution and named application take their target as a reference: a
free atom (the public entry points) or a de Bruijn index, which goes up by
one under each binder of its kind.  A redex is contracted on its own index
(the lambda's variable is index 0 of its body, the mu's name index 0 at its
naming), so its binder is never opened.  Nor are the binders above it:
``step_r`` opens the redex alone on them, in one pass over the redex
(``syntax.open_outer``), and closes each reduct once.  A distribution is
collected in plain term -> coefficient dicts and canonicalized once per
contraction by one ``SumBuilder``.

A redex that contracts to zero (a lambda redex whose bag size differs from
the occurrences of its variable, a mu redex whose non-empty bag finds no
naming of its binder) is recognized on the closed term and opens nothing.
A step of a whole sum copies the sum, takes the stepped weight away and adds
the reduct in one ``SumBuilder``; the reduct is computed by the caller, so a
caller that meets the same addend again (the reduction-graph oracle) steps
it only once.  Normalization steps the first redex of an addend in
pre-order and stops looking there.

Normalization also sizes the split at each naming of a mu redex's binder.
There the part ``w2`` becomes the argument of the body, ``body'[w2]``, and
when that body is an abstraction only one size of ``w2`` can survive
(``_arity``): the degree of a lambda's variable, or 0 for a mu whose binder
is never named.  ``normalize_r`` asks ``step_r`` (``keep_dead=False``) for
the reduct without the other sizes.  That is sound:

- every dropped addend holds the redex ``body'[w2]``, and that redex
  vanishes: bag elements are locally closed, so putting the inside part
  into ``body`` adds no occurrence of the head's own variable or name;
- so ``step_r`` at that position is 0, and since resource reduction is
  confluent and strongly normalizing, the addend's normal form is 0;
- normal forms are linear, so the normal form of the reduct, over ``nat``
  and over ``bool``, is the same with or without those addends.

Every other caller (``step_sum``, the oracle, the CLI's traces) sees the
whole one-step reduct, which is observable.

The redex finder, the head position and the opening of a redex on the
binders above it are shared with the lambda-mu calculus and defined in
``syntax``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import syntax
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
    Ref,
    ResTerm,
    Sum,
    SumBuilder,
    _strip_quote,
    _under,
    add_app,
    head_redex_pos,
    iter_redexes,
    mkbag,
    path_to,
    redexes,
)
from .lamu import rho_inner_parts

# A distribution is collected as a term -> coefficient dict of positive
# coefficients and canonicalized into a ``Sum`` once, by its caller.
Coeffs = dict[ResTerm, int]

# ---------- occurrences of a target ----------
#
# The target of a substitution or a named application is a reference: a free
# atom, or the de Bruijn index of a binder above, resolved with the depth
# convention of ``syntax.map_refs``.  An atom is the same at every depth; an
# index goes up by one under each binder of its own kind (``_under``).


def _count(t: ResTerm, target: Ref, name: bool) -> int:
    """Occurrences in ``t`` of the variable (``name`` false) or the name
    (``name`` true) that ``target`` refers to."""
    n = 0
    stack = [(t, target)]
    while stack:
        u, d = stack.pop()
        match u:
            case RVar(ref=r):
                if not name and r == d:
                    n += 1
            case RLam(body=b):
                stack.append((b, d if name else _under(d)))
            case RMu(named=nr, body=b):
                if name and nr == d:
                    n += 1
                stack.append((b, _under(d) if name else d))
            case RApp(head=h, bag=bag):
                stack.append((h, d))
                stack.extend((e, d) for e in bag)
    return n


# ---------- linear substitution ----------


def _lsubst(t: ResTerm, x: Ref, bag: Bag) -> Coeffs:
    # The caller guarantees len(bag) == _count(t, x, False); every split
    # below is directed by the children's counts, so each branch keeps that
    # invariant and none of them vanishes.  The constructors wrapped around
    # a child's addends are injective, so no two of them merge.
    if not bag:
        return {t: 1}
    match t:
        case RVar(ref=r):
            assert r == x and len(bag) == 1, (t, x, bag)
            return {bag[0]: 1}
        case RLam(body=b):
            return {RLam(u): c for u, c in _lsubst(b, _under(x), bag).items()}
        case RMu(named=nr, body=b):
            return {RMu(nr, u): c for u, c in _lsubst(b, x, bag).items()}
        case RApp(head=h, bag=elems):
            kids = (h,) + elems
            acc: Coeffs = {}
            sizes = [_count(k, x, False) for k in kids]
            for parts, count in weak_compositions_with_counts(bag, len(kids), sizes):
                maps = [_lsubst(k, x, p).items() for k, p in zip(kids, parts)]
                add_app(acc, maps[0], maps[1:], count)
            return acc
    raise AssertionError(t)


def linear_subst(t: ResTerm, x: str, bag, semiring: str) -> Sum:
    """t<[bag]/x>: replace the occurrences of ``x`` by the bag elements in
    all possible ways; zero when the counts cannot match."""
    bag = mkbag(bag)
    if _count(t, x, False) != len(bag):
        return Sum.zero(semiring)
    return SumBuilder(semiring, _lsubst(t, x, bag)).build()


# ---------- linear named application ----------


def _lna_term(t: ResTerm, alpha: Ref, bag: Bag, n: int, keep_dead: bool = True) -> Coeffs:
    """The named application on ``t``, which names ``alpha`` ``n`` times."""
    if n == 0:
        # No naming of alpha anywhere: the empty bag is the identity, any
        # other bag has nowhere to go.
        return {} if bag else {t: 1}
    match t:
        case RLam(body=b):
            return {RLam(u): c for u, c in _lna_term(b, alpha, bag, n, keep_dead).items()}
        case RMu(named=nr, body=b):
            inner = _lna_named(nr, b, alpha, bag, n - 1 if nr == alpha else n, keep_dead)
            return {RMu(nr, u): c for u, c in inner.items()}
        case RApp(head=h, bag=elems):
            # A child with no naming of alpha only takes the empty part.
            kids = (h,) + elems
            acc: Coeffs = {}
            counts = [_count(k, alpha, True) for k in kids]
            sizes = [None if m else 0 for m in counts]
            for parts, count in weak_compositions_with_counts(bag, len(kids), sizes):
                maps = [_lna_term(k, alpha, p, m, keep_dead).items()
                        for k, p, m in zip(kids, parts, counts)]
                add_app(acc, maps[0], maps[1:], count)
            return acc
    raise AssertionError(t)  # a variable has no naming: n is 0


def _lna_named(
    named: Ref, body: ResTerm, alpha: Ref, bag: Bag, n: int, keep_dead: bool = True
) -> Coeffs:
    """Linear named application on a named pair ``<named| body>``, where the
    body names ``alpha`` ``n`` times.

    ``alpha`` is resolved at the naming, as ``named`` is, so in the body it
    is one mu binder further out.  Returns the new bodies; the naming itself
    never changes.  At a naming of ``alpha`` the bag splits in two: one part
    goes inside recursively, the other becomes a new application at the
    naming, and the application node appears even when that part is empty.
    Unless ``keep_dead``, the applied part only takes the size for which
    that application is not a vanishing redex (``_arity`` of the body).
    """
    inner = _under(alpha)
    if named != alpha:
        return _lna_term(body, inner, bag, n, keep_dead)
    arity = None if keep_dead else _arity(body)
    if n == 0:
        # Only the split that keeps nothing inside survives.
        return {} if arity is not None and arity != len(bag) else {RApp(body, bag): 1}
    acc: Coeffs = {}
    for (w1, w2), count in weak_compositions_with_counts(bag, 2, (None, arity)):
        for u, c in _lna_term(body, inner, w1, n, keep_dead).items():
            v = RApp(u, w2)
            acc[v] = acc.get(v, 0) + c * count
    return acc


def linear_named_app(t: ResTerm, alpha: str, bag, semiring: str) -> Sum:
    """<t>_alpha [bag]: distribute the bag over the namings of ``alpha``."""
    alpha = _strip_quote(alpha)
    got = _lna_term(t, alpha, mkbag(bag), _count(t, alpha, True))
    return SumBuilder(semiring, got).build()


def linear_named_app_named(eta: str, t: ResTerm, alpha: str, bag, semiring: str) -> Sum:
    """The named-pair form ``<<eta| t>>_alpha [bag]``, as a sum of bodies
    (the naming stays ``eta``)."""
    alpha = _strip_quote(alpha)
    got = _lna_named(_strip_quote(eta), t, alpha, mkbag(bag), _count(t, alpha, True))
    return SumBuilder(semiring, got).build()


# ---------- redexes and single steps ----------


def is_normal_res(t: ResTerm) -> bool:
    return next(iter_redexes(t), None) is None


def _arity(head: ResTerm) -> int | None:
    """The only bag size for which ``head[bag]`` is not a vanishing redex,
    or None when no size vanishes (``head`` is a mu whose name occurs, or
    no abstraction at all).  Only the head's own binder matters, so the
    answer is the same with outer binders open or closed."""
    match head:
        case RLam(body=b):
            return _count(b, 0, False)
        case RMu(named=nr, body=b):
            return None if nr == 0 or _count(b, 1, True) else 0
    return None


def _vanishes(t: ResTerm) -> bool:
    """Does the redex ``t`` contract to zero?"""
    if not isinstance(t, RApp):
        return False
    arity = _arity(t.head)
    return arity is not None and arity != len(t.bag)


def contract_res(t: ResTerm, semiring: str, nl: int = 0, nm: int = 0) -> Sum:
    """Contract the redex at the root of ``t``, which sits below ``nl``
    lambda and ``nm`` mu binders that its indices may still point to."""
    if _vanishes(t):
        return Sum.zero(semiring)
    return SumBuilder(semiring, _contract_under(t, nl, nm)).build()


def _contract_under(t: ResTerm, nl: int, nm: int, keep_dead: bool = True) -> Coeffs:
    """The reducts of the live redex ``t`` below ``nl`` lambda and ``nm`` mu
    binders: ``t`` is opened on those binders (not at all at the root),
    contracted, and each reduct closed once.  Closing is injective, so no
    two reducts merge."""
    if not (nl or nm):
        return _contract(t, keep_dead)
    opened, close = syntax.open_outer(t, nl, nm)
    return {close(w): c for w, c in _contract(opened, keep_dead).items()}


def _contract(t: ResTerm, keep_dead: bool = True) -> Coeffs:
    # The redex's own binder stays closed: the lambda's variable is index 0
    # of its body, and the mu's name is index 0 at its naming (1 in its
    # body).  Binders above are open, so the bag elements are locally closed
    # and go under binders as they are.  The caller has ruled out a
    # vanishing redex, so a lambda redex's bag matches its variable's count.
    match t:
        case RApp(head=RLam(body=b), bag=bag):
            return _lsubst(b, 0, bag)
        case RApp(head=RMu(named=nr, body=b), bag=bag):
            inner = _lna_named(nr, b, 0, bag, _count(b, 1, True), keep_dead)
            return {RMu(nr, u): c for u, c in inner.items()}
        case RMu(named=nr, body=RMu() as inner):
            return {RMu(*rho_inner_parts(nr, inner.named, inner.body)): 1}
    raise ValueError(f"not a redex: {t!r}")


def step_r(t: ResTerm, pos: Pos, semiring: str, *, keep_dead: bool = True) -> Sum:
    """One reduction step at a given position, as a sum.

    The walk down to the redex is a loop (``syntax.path_to``) that counts
    the lambda and mu binders above it.  A redex that contracts to zero is
    recognized there, on the closed term, and opens nothing.  Any other
    redex is opened on those binders alone (``syntax.open_outer``, one pass
    over the redex), contracted, and each reduct closed once; the path above
    is rebuilt around the reducts with the plain constructors, and the sum
    is canonicalized once.

    By default the sum is the whole one-step reduct.  With ``keep_dead``
    false, a mu redex's named applications leave out every addend that
    would hold a new vanishing redex at a naming of the redex's binder; those
    addends have normal form 0, so the reduct normalizes to the same sum
    (see the module docstring), but it is no longer the one-step reduct.
    """
    path, u, nl, nm = path_to(t, pos)
    if _vanishes(u):
        return Sum.zero(semiring)
    coeffs = _contract_under(u, nl, nm, keep_dead)
    # Each wrapper is injective on the reducts, so no two of them merge.
    for v, i in reversed(path):
        cls = type(v)
        if cls is RLam:
            coeffs = {RLam(w): c for w, c in coeffs.items()}
        elif cls is RMu:
            named = v.named
            coeffs = {RMu(named, w): c for w, c in coeffs.items()}
        elif i == 0:
            bag = v.bag
            coeffs = {RApp(w, bag): c for w, c in coeffs.items()}
        else:
            h, bag = v.head, v.bag
            coeffs = {RApp(h, bag[: i - 1] + (w,) + bag[i:]): c for w, c in coeffs.items()}
    return SumBuilder(semiring, coeffs).build()


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
        rs = redexes(t)
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
    return choose_step(cands, strategy, rng)


def choose_step(
    cands: list[tuple[ResTerm, int, list[tuple[Pos, str]]]],
    strategy: str,
    rng: random.Random | None = None,
) -> SumStep:
    """The step a strategy takes among the non-empty ``reducible_addends``
    of a sum."""
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
                first = next(iter_redexes(u), None)
                if first is None:
                    memo[u] = Sum.unit(u, semiring)
                    stack.pop()
                    continue
                steps[u] = step_r(u, first[0], semiring, keep_dead=False)
            reduct = steps[u]
            pending = [v for v, _ in reduct.items if v not in memo]
            if pending:
                stack.extend(pending)
                continue
            memo[u] = reduct.bind(lambda v: memo[v])
            stack.pop()
    return start.bind(lambda t: memo[t])


# ---------- head reduction ----------


def head_step_res(t: ResTerm, semiring: str = BOOL) -> Sum:
    """One head step as a sum; zero on head normal forms (they are erased,
    not kept, under iteration)."""
    hit = head_redex_pos(t)
    if hit is None:
        return Sum.zero(semiring)
    return step_r(t, hit[0], semiring)
