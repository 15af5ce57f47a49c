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

Both operations are one recursive walk, ``_linear``, of kind ``VAR`` or
``NAME``; the split at a naming is written once, in ``_lna_named``.  The
walk solves each sub-problem once per top-level call.  What it returns for
a subterm depends only on the subterm, the target and the sub-bag it is
handed (a top-level call has one kind and one ``keep_dead``), and terms are
immutable, so the key (subterm, target, sub-bag) fixes the result.  One
memo with that key lives for one top-level call (an entry point or one
contraction) and no longer.  On ``x[x]...[x]`` with k distinct bag elements, the inner spine
with j occurrences is solved once for each of its C(k, j) sub-bags, where
it was solved k!/j! times.
A result in the memo is shared by every branch that asks for it, so it is
never changed: it is only read, and the dicts that are added to
(``add_app``'s accumulator, a ``SumBuilder``) are always fresh ones.

Substitution and named application take their target as a reference: a
free atom (the public entry points) or a de Bruijn index, which goes up by
one under each binder of its kind.  A redex is contracted on its own index
(the lambda's variable is index 0 of its body, the mu's name index 0 at the
mu node, so a mu redex is the named application at its own binder), so its
binder is never opened.  Nor are the binders above it.  ``_reducts``, the
one contraction entry of ``step_r`` and ``contract_res``, contracts a redex
below them where it stands, as at the root, unless an index that points to
one of them would have to move (``syntax.needs_opening``: a bag element
that holds one, or a lambda body that holds a variable one).  Only such a
redex is opened alone on them, in one pass over the redex
(``syntax.open_outer``), and each of its reducts closed once.  A
distribution is collected in plain term -> coefficient dicts and
canonicalized once per contraction by one ``SumBuilder``.

The public named applications answer a name that is never named (no
naming of ``alpha`` in ``t``, and for the named-pair form ``eta`` other
than ``alpha``) without the walk: the empty bag gives ``t`` back, any
other bag gives zero.

A redex that contracts to zero (a lambda redex whose bag size differs from
the occurrences of its variable, a mu redex whose non-empty bag finds no
naming of its binder) is recognized by ``_reducts`` on the closed term and
opens nothing.
A step of a whole sum copies the sum, takes the stepped weight away and adds
the reduct in one ``SumBuilder``; the reduct is computed by the caller, so a
caller that meets the same addend again (the reduction-graph oracle) steps
it only once.  Normalization steps the first redex of an addend in
pre-order and stops looking there.

Normalization never walks a normal addend.  Every term knows whether it is
normal (``syntax``'s ``normal`` bit, set at construction), and a normal
addend is its own normal form, so it is never pushed on the worklist nor
searched for a redex.  Nor is it re-merged: a reduct whose addends are all
normal is memoized as it is, and a reduct of one addend with coefficient 1
shares that addend's memoized normal form.  Only a reduct that has some
addend still to normalize is collected again, in one ``SumBuilder`` that
takes its normal addends as they are.

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

Every other caller (``step_sum``, the oracle, the CLI's traces and the
``sn`` suite) sees the whole one-step reduct, which is observable.

The redex finder, the head position, the step each reduction strategy picks
(``pick_redex``, which ``step_sum``, the CLI's traces and the ``sn`` suite
call), the opening of a redex on the binders above it and the rule for when
a redex needs it are shared with the lambda-mu calculus and defined in
``syntax``.
"""

from __future__ import annotations

import random

from . import syntax
from .combinatorics import weak_compositions_with_counts
from .syntax import (
    BOOL,
    NAME,
    VAR,
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
    _atom,
    _check_semiring,
    _strip_quote,
    _under,
    add_app,
    head_redex_pos,
    iter_redexes,
    mkbag,
    needs_opening,
    occurrences,
    path_to,
    pick_redex,
    plug,
)
from .lamu import rho_inner_parts

# A distribution is collected as a term -> coefficient dict of positive
# coefficients and canonicalized into a ``Sum`` once, by its caller.
Coeffs = dict[ResTerm, int]

# ---------- linear substitution and named application ----------
#
# The target of a substitution or a named application is a reference: a free
# atom, or the de Bruijn index of a binder above, resolved with the depth
# convention of ``syntax.map_refs`` and counted by ``syntax.occurrences``.
# An atom is the same at every depth; an index goes up by one under each
# binder of its own kind (``_under``).

Memo = dict[tuple, Coeffs]


def _linear(t: ResTerm, kind: str, x: Ref, bag: Bag, n: int, memo: Memo, keep_dead=True) -> Coeffs:
    """Distribute ``bag`` over the ``n`` occurrences of ``x`` in ``t``:
    substitution for ``kind`` ``VAR`` (one element each, ``n == len(bag)``),
    named application for ``NAME`` (any part per naming, ``_lna_named``).

    Each split follows the children's counts, so every branch keeps its
    kind's invariant, and the constructors wrapped around a child's addends
    are injective, so none merge.  A result in ``memo`` is read, never
    changed.
    """
    if n == 0:
        # Nothing to distribute over: the empty bag is the identity, any
        # other bag has nowhere to go.
        return {} if bag else {t: 1}
    cls = type(t)
    if cls is RVar:
        # Only a substituted variable occurs, and it takes the one element.
        return {bag[0]: 1}
    key = (t, x, bag)
    out = memo.get(key)
    if out is not None:
        return out
    if cls is RApp:
        kids = (t.head,) + t.bag
        counts = [occurrences(k, kind, x) for k in kids]
        # A substitution hands each child exactly its count of elements, a
        # named application a child with no naming only the empty part.
        sizes = counts if kind == VAR else [None if m else 0 for m in counts]
        out = {}
        for parts, count in weak_compositions_with_counts(bag, len(kids), sizes):
            maps = [_linear(k, kind, x, p, m, memo, keep_dead).items()
                    for k, p, m in zip(kids, parts, counts)]
            add_app(out, maps[0], maps[1:], count)
    elif cls is RLam:
        inner = _linear(t.body, kind, _under(x) if kind == VAR else x, bag, n, memo, keep_dead)
        out = {RLam(u): c for u, c in inner.items()}
    else:
        nr = t.named
        if kind == VAR:
            inner = _linear(t.body, kind, x, bag, n, memo, keep_dead)
        else:
            inner = _lna_named(nr, t.body, x, bag, n - 1 if nr == x else n, memo, keep_dead)
        out = {RMu(nr, u): c for u, c in inner.items()}
    memo[key] = out
    return out


def _lna_named(
    named: Ref, body: ResTerm, alpha: Ref, bag: Bag, n: int, memo: Memo, keep_dead=True
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
        return _linear(body, NAME, inner, bag, n, memo, keep_dead)
    arity = None if keep_dead else _arity(body)
    if n == 0:
        # Only the split that keeps nothing inside survives.
        return {} if arity is not None and arity != len(bag) else {RApp(body, bag): 1}
    acc: Coeffs = {}
    for (w1, w2), count in weak_compositions_with_counts(bag, 2, (None, arity)):
        for u, c in _linear(body, NAME, inner, w1, n, memo, keep_dead).items():
            v = RApp(u, w2)
            acc[v] = acc.get(v, 0) + c * count
    return acc


def _checked_bag(t: ResTerm, bag) -> Bag:
    """The canonical bag of a linear entry point, once ``t`` and the bag's
    elements are checked to be resource terms (a lambda-mu term sorts too)."""
    elems = tuple(bag)
    for u in (t,) + elems:
        if not isinstance(u, ResTerm):
            raise TypeError(f"a resource term is expected, not {u!r}")
    return mkbag(elems)


def linear_subst(t: ResTerm, x: str, bag, semiring: str) -> Sum:
    """t<[bag]/x>: replace the occurrences of ``x`` by the bag elements in
    all possible ways; zero when the counts cannot match."""
    bag = _checked_bag(t, bag)
    n = occurrences(t, VAR, _atom(x))
    if n != len(bag):
        return Sum.zero(semiring)
    return SumBuilder(semiring, _linear(t, VAR, x, bag, n, {})).build()


def linear_named_app(t: ResTerm, alpha: str, bag, semiring: str) -> Sum:
    """<t>_alpha [bag]: distribute the bag over the namings of ``alpha``."""
    bag = _checked_bag(t, bag)
    alpha = _strip_quote(alpha)
    n = occurrences(t, NAME, alpha)
    if n == 0:
        return _name_free(t, bag, semiring)
    return SumBuilder(semiring, _linear(t, NAME, alpha, bag, n, {})).build()


def linear_named_app_named(eta: str, t: ResTerm, alpha: str, bag, semiring: str) -> Sum:
    """The named-pair form ``<<eta| t>>_alpha [bag]``, as a sum of bodies
    (the naming stays ``eta``)."""
    bag = _checked_bag(t, bag)
    alpha = _strip_quote(alpha)
    eta = _strip_quote(eta)
    n = occurrences(t, NAME, alpha)
    if n == 0 and eta != alpha:
        return _name_free(t, bag, semiring)
    return SumBuilder(semiring, _lna_named(eta, t, alpha, bag, n, {})).build()


def _name_free(t: ResTerm, bag: Bag, semiring: str) -> Sum:
    """A named application at a name that is never named: the empty bag
    leaves ``t`` as it is, any other bag has nowhere to go."""
    return Sum.zero(semiring) if bag else Sum.unit(t, semiring)


# ---------- redexes and single steps ----------


def _arity(head: ResTerm) -> int | None:
    """The only bag size for which ``head[bag]`` is not a vanishing redex,
    or None when no size vanishes (``head`` is a mu whose name occurs, or
    no abstraction at all).  Only the head's own binder matters, so the
    answer is the same with outer binders open or closed."""
    match head:
        case RLam(body=b):
            return occurrences(b, VAR, 0)
        case RMu(named=nr, body=b):
            return None if nr == 0 or occurrences(b, NAME, 1) else 0
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
    return SumBuilder(semiring, _reducts(t, nl, nm)).build()


def _reducts(t: ResTerm, nl: int, nm: int, keep_dead: bool = True) -> Coeffs:
    """The reducts of the redex ``t`` below ``nl`` lambda and ``nm`` mu
    binders.  A vanishing redex has none and opens nothing.  Any other is
    contracted where it stands, unless an index that points to one of those
    binders would have to move (``syntax.needs_opening``); then it is opened
    on them, contracted, and each reduct closed once.  Closing is injective,
    so no two reducts merge."""
    if _vanishes(t):
        return {}
    if not needs_opening(t, nl, nm):
        return _contract(t, keep_dead)
    opened, close = syntax.open_outer(t, nl, nm)
    return {close(w): c for w, c in _contract(opened, keep_dead).items()}


def _contract(t: ResTerm, keep_dead: bool = True) -> Coeffs:
    # The redex's own binder stays closed: the lambda's variable is index 0
    # of its body, and the mu's name is index 0 at the mu node itself (1 in
    # its body), so a mu redex is the named application at its own binder.
    # No bag element holds an index that points to a binder above (the
    # caller opened those binders where one did, ``syntax.needs_opening``),
    # so the elements go under binders as they are.  The caller has ruled
    # out a vanishing redex, so a lambda redex's bag matches its variable's
    # count.
    match t:
        case RApp(head=RLam(body=b), bag=bag):
            return _linear(b, VAR, 0, bag, len(bag), {})
        case RApp(head=RMu() as m, bag=bag):
            return _linear(m, NAME, 0, bag, occurrences(m, NAME, 0), {}, keep_dead)
        case RMu(named=nr, body=RMu() as inner):
            return {RMu(*rho_inner_parts(nr, inner.named, inner.body)): 1}
    raise ValueError(f"not a redex: {t!r}")


def step_r(t: ResTerm, pos: Pos, semiring: str, *, keep_dead: bool = True) -> Sum:
    """One reduction step at a given position, as a sum.

    The walk down to the redex is a loop (``syntax.path_to``) that counts
    the lambda and mu binders above it.  ``_reducts`` contracts the redex
    below them, each reduct is plugged back into the path (``syntax.plug``),
    and the sum is canonicalized once.

    By default the sum is the whole one-step reduct.  With ``keep_dead``
    false, a mu redex's named applications leave out every addend that
    would hold a new vanishing redex at a naming of the redex's binder; those
    addends have normal form 0, so the reduct normalizes to the same sum
    (see the module docstring), but it is no longer the one-step reduct.
    """
    path, u, nl, nm = path_to(t, pos)
    # Plugging is injective on the reducts, so no two of them merge.
    coeffs = _reducts(u, nl, nm, keep_dead)
    return SumBuilder(semiring, {plug(path, w): c for w, c in coeffs.items()}).build()


# ---------- stepping whole sums ----------


_MODES = ("coeff", "occurrence")


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {_MODES}")


def _as_sum(x: ResTerm | Sum, semiring: str) -> Sum:
    """A term as a one-addend sum, or a sum checked to be over ``semiring``;
    anything else is a ``TypeError``."""
    _check_semiring(semiring)
    if isinstance(x, ResTerm):
        return Sum.unit(x, semiring)
    if not isinstance(x, Sum):
        raise TypeError(f"a resource term or a sum is expected, not {x!r}")
    if x.semiring != semiring:
        raise ValueError(f"a {x.semiring} sum where a {semiring} sum is expected")
    return x


def _apply_sum_step(s: Sum, t: ResTerm, c: int, mode: str, reduct: Sum) -> Sum:
    """The sum after its addend ``t``, of coefficient ``c``, contracts to
    ``reduct``.

    In "coeff" mode the addend steps with its whole coefficient, in
    "occurrence" mode one unit of it steps; over Bool every coefficient is 1,
    so the modes agree.
    """
    k = c if mode == "coeff" else 1
    items = s.items
    if len(items) == 1 and items[0][1] == k and items[0][0] == t and reduct.semiring == s.semiring:
        # The sum's one addend steps whole, so the reduct is all that is left.
        return reduct.scale(k)
    acc = SumBuilder(s.semiring)
    acc.add(s)
    acc.remove(t, k)
    acc.add(reduct, k)
    return acc.build()


def step_sum(
    s: Sum,
    strategy: str = "leftmost",
    rng: random.Random | None = None,
    mode: str = "coeff",
) -> Sum:
    """Rewrite the addend that ``strategy`` picks (``syntax.pick_redex``);
    error on normal forms.

    ``mode`` is "coeff" (an addend steps with its whole coefficient) or
    "occurrence" (one unit at a time); they only differ over the exact-count
    semiring.
    """
    _check_mode(mode)
    hit = pick_redex(s.items, strategy, rng)
    if hit is None:
        raise ValueError("sum is in normal form")
    t, c, pos, _ = hit
    return _apply_sum_step(s, t, c, mode, step_r(t, pos, s.semiring))


# ---------- normalization ----------


def normalize_r(x: ResTerm | Sum, semiring: str) -> Sum:
    """The (unique) normal form, computed addend-wise with memoization.

    Iterative worklist so deep reduction chains cannot hit the recursion
    limit; strong normalization guarantees the worklist drains.  A normal
    addend is its own normal form: it never enters the worklist or the
    memo (see the module docstring).
    """
    start = _as_sum(x, semiring)
    memo: dict[ResTerm, Sum] = {}
    steps: dict[ResTerm, Sum] = {}
    for root, _ in start.items:
        stack = [] if root.normal else [root]
        while stack:
            u = stack[-1]
            if u in memo:
                stack.pop()
                continue
            if u not in steps:
                first = next(iter_redexes(u))
                steps[u] = step_r(u, first[0], semiring, keep_dead=False)
            reduct = steps[u]
            pending = [v for v, _ in reduct.items if not v.normal and v not in memo]
            if pending:
                stack.extend(pending)
                continue
            memo[u] = _normal_forms(reduct, memo)
            stack.pop()
    return _normal_forms(start, memo)


def _normal_forms(s: Sum, memo: dict[ResTerm, Sum]) -> Sum:
    """``s`` with each addend replaced by its normal form: a normal addend
    by itself, any other by its entry in ``memo``.  A sum of normal addends
    is returned as it is, and one addend with coefficient 1 as its entry."""
    items = s.items
    if len(items) == 1 and items[0][1] == 1 and not items[0][0].normal:
        return memo[items[0][0]]
    if all(t.normal for t, _ in items):
        return s
    acc = SumBuilder(s.semiring)
    coeffs = acc.coeffs
    for t, c in items:
        if t.normal:
            coeffs[t] = coeffs.get(t, 0) + c
        else:
            acc.add(memo[t], c)
    return acc.build()


# ---------- head reduction ----------


def head_step_res(t: ResTerm, semiring: str = BOOL) -> Sum:
    """One head step as a sum; zero on head normal forms (they are erased,
    not kept, under iteration)."""
    hit = head_redex_pos(t)
    if hit is None:
        return Sum.zero(semiring)
    return step_r(t, hit[0], semiring)
