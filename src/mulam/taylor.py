"""Resource approximation of lambda-mu terms.

A resource term approximates a lambda-mu term when it has the same shape
with every argument replaced by a bag of approximants of that argument
(possibly empty, with repetitions).  The approximants of a term up to a size
budget are finitely many and computable; normalizing them over the
idempotent semiring yields a truncated picture of the term's full normal
form, good enough to compare terms, decide head-termination empirically, and
check that head reduction commutes with approximation.

The enumeration builds only what its caller keeps.  Resource reduction is
linear in every subterm, so an approximant that holds a vanishing redex (an
application whose head's binder asks for another bag size, see
``resource._arity``) has normal form 0: contracting that redex gives 0, and
reduction is confluent and strongly normalizing.  Truncated normal forms
therefore enumerate only bags of the size the head asks for, at every
application node and inside the bags.  They also leave out a lambda redex
whose bag elements cannot land: each element goes to one occurrence of the
lambda's variable, and an element with an arity that goes to an occurrence
heading a bag of another size makes a vanishing redex.  When every way of
sending the elements does that (``_landing_sites``, ``_lands``), every
addend of the redex's reduct holds a vanishing redex, and the approximant's
normal form is 0 again.

The approximants up to a budget are downward closed (Ehrhard & Regnier,
"Uniformity and the Taylor expansion of ordinary lambda-terms", TCS 2008):
those of size at most b are the approximants at any budget B >= b whose size
fits b.  An application's size, 1 + len(bag) + head.size plus the sizes of
the elements, is exactly what its bag's cost bound counts, and the
nonvanishing filters read only the approximant.  So the enumeration solves
each subterm once, at the largest budget it is asked at, and cuts a smaller
budget from that by size.

The commutation check head-steps approximants of the source and keeps the
reducts that fit the budget.  Approximants keep the term's shape, so each
has the source's head position and redex kind, and the size of its head
reducts is read off the head redex (``_head_step_shrink``).  At a lambda
head only bags of the lambda's arity k give a reduct, and the reduct is
2 + 2k smaller than the approximant; that credit of size travels up the
spine with each partial approximant, so the enumeration builds exactly the
approximants whose reducts fit.  Vanishing redexes elsewhere stay: both
slices are sets of raw approximants, not normal forms.
"""

from __future__ import annotations

from .lamu import FuelExhausted, Hnf, head_run, head_step
from .resource import _arity, head_step_res, normalize_r
from .syntax import (
    App,
    BOOL,
    Lam,
    Mu,
    Pos,
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
)

# ---------- membership and enumeration ----------


def taylor_member(t: ResTerm, m: Term) -> bool:
    """Does the resource term approximate the lambda-mu term?  A walk with
    its own stack of the pairs still to compare, so depth costs no recursion."""
    stack = [(t, m)]
    while stack:
        match stack.pop():
            case RVar(ref=r1), Var(ref=r2):
                if r1 != r2:
                    return False
            case RLam(body=b1), Lam(body=b2):
                stack.append((b1, b2))
            case RMu(named=n1, body=b1), Mu(named=n2, body=b2):
                if n1 != n2:
                    return False
                stack.append((b1, b2))
            case RApp(head=h, bag=bag), App(fun=f, arg=a):
                stack.append((h, f))
                stack.extend((e, a) for e in bag)
            case _:
                return False
    return True


KEEPS = ("all", "nonvanishing", "head-reducts")


def taylor_enum(m: Term, max_size: int, keep: str = "all") -> tuple[ResTerm, ...]:
    """Approximants of ``m``, sorted: those the caller keeps.

    Sizes count one per node plus one per bag slot, so an application with k
    arguments in the bag costs 1 + k on top of its subterms.

    - ``"all"``: every approximant of size at most ``max_size``;
    - ``"nonvanishing"``: those of them that hold no vanishing redex and
      no lambda redex whose bag elements cannot land, that is, whose
      one-step reducts each hold a vanishing redex at an occurrence of the
      lambda's variable; the others have normal form zero;
    - ``"head-reducts"``: the approximants whose head step can give a reduct
      of size at most ``max_size`` (exactly those for a lambda or merge
      head, and for a mu head every approximant one larger); none when
      ``m`` is a head normal form.
    """
    if keep not in KEEPS:
        raise ValueError(f"keep must be one of {KEEPS}, got {keep!r}")
    if keep == "head-reducts":
        return _head_reduct_sources(m, max_size)
    return _approximants(m, max_size, {}, {} if keep == "nonvanishing" else None)


# The enumeration is written with module-level functions and an explicit
# memo, not nested closures: a nested recursive function refers to itself,
# and that cycle would keep the whole memo alive until the cycle collector
# ran.  The memo maps a subterm's encoding to the largest budget it was
# enumerated at and its approximants there.  The approximants at a smaller
# budget are exactly those of them whose size fits it: an approximant's
# size is 1 + len(bag) + head.size + the sum of its elements' sizes, which
# is the bound ``_bags`` applies, and the filters of ``"nonvanishing"``
# (``_known_arity``, ``_lands``) read only the approximant, not the budget.
# So a smaller budget is cut from the stored tuple by size, in its
# canonical order, and only a larger one enumerates again.  The arities
# are None when every approximant is kept, and otherwise hold ``_arity`` of
# the approximants asked about so far.
Memo = dict[bytes, tuple[int, tuple[ResTerm, ...]]]
Arities = dict[ResTerm, int | None]


def _approximants(u: Term, budget: int, memo: Memo, arities: Arities | None) -> tuple[ResTerm, ...]:
    if budget <= 0:
        return ()
    hit = memo.get(u.enc)
    if hit is not None and hit[0] >= budget:
        top, approx = hit
        return approx if top == budget else tuple(t for t in approx if t.size <= budget)
    out: list[ResTerm] = []
    match u:
        case Var(ref=r):
            out.append(RVar(r))
        case Lam(body=b):
            out.extend(RLam(t) for t in _approximants(b, budget - 1, memo, arities))
        case Mu(named=nr, body=b):
            out.extend(RMu(nr, t) for t in _approximants(b, budget - 1, memo, arities))
        case App(fun=f, arg=a):
            for h in _approximants(f, budget - 1, memo, arities):
                room = budget - 1 - h.size
                pool = _approximants(a, room - 1, memo, arities) if room >= 1 else ()
                if arities is None:
                    out.extend(RApp(h, bag) for bag in _bags(pool, 0, room))
                    continue
                k = _known_arity(h, arities)
                bags = tuple(_bags(pool, 0, room, k))
                if k and bags:
                    heads, other = _landing_sites(h.body)
                    bags = [bag for bag in bags if _lands(bag, arities, heads, other)]
                out.extend(RApp(h, bag) for bag in bags)
    result = mkbag(out)
    memo[u.enc] = (budget, result)
    return result


def _known_arity(t: ResTerm, arities: Arities) -> int | None:
    """``_arity(t)``, computed once per enumeration."""
    a = arities.get(t, -1)
    if a == -1:
        a = arities[t] = _arity(t)
    return a


def _landing_sites(body: ResTerm) -> tuple[dict[int, int], int]:
    """Where the bag elements of a lambda redex with this body land: the
    number of occurrences of the lambda's variable (index 0 of ``body``)
    that head an application, by the size of its bag, and the number of
    the other occurrences."""
    heads: dict[int, int] = {}
    other = 0
    stack = [(body, 0)]
    while stack:
        u, d = stack.pop()
        cls = type(u)
        if cls is RVar:
            other += u.ref == d
        elif cls is RLam:
            stack.append((u.body, d + 1))
        elif cls is RMu:
            stack.append((u.body, d))
        else:
            h = u.head
            if type(h) is RVar and h.ref == d:
                heads[len(u.bag)] = heads.get(len(u.bag), 0) + 1
            else:
                stack.append((h, d))
            stack.extend((e, d) for e in u.bag)
    return heads, other


def _lands(bag: tuple[ResTerm, ...], arities: Arities, heads: dict[int, int], other: int) -> bool:
    """Can the bag's elements go to the occurrences ``_landing_sites``
    counted without making a vanishing redex?  An element of arity a fits
    a head with a bag of size a or an occurrence that is no head, and an
    element without an arity fits anywhere."""
    want: dict[int, int] = {}
    for e in bag:
        a = _known_arity(e, arities)
        if a is not None:
            want[a] = want.get(a, 0) + 1
    return sum(max(0, n - heads.get(a, 0)) for a, n in want.items()) <= other


def _bags(pool: tuple[ResTerm, ...], start: int, left: int, n: int | None = None):
    """Bags drawn from ``pool[start:]`` (as non-decreasing index sequences)
    whose slots cost at most ``left``: one per element plus its size.  With
    ``n``, only the bags of exactly ``n`` elements."""
    if n is None or n == 0:
        yield ()
    if n == 0:
        return
    rest_n = None if n is None else n - 1
    for j in range(start, len(pool)):
        cost = 1 + pool[j].size
        if cost <= left:
            for rest in _bags(pool, j, left - cost, rest_n):
                yield (pool[j],) + rest


def _head_reduct_sources(m: Term, max_size: int) -> tuple[ResTerm, ...]:
    """The approximants of ``taylor_enum(m, max_size, "head-reducts")``."""
    hit = head_redex_pos(m)
    if hit is None:
        return ()
    pos, kind = hit
    if kind != "lam":
        return _approximants(m, max_size + _head_step_shrink(kind, 0), {}, None)
    return mkbag(t for t, _ in _head_spine(m, pos, max_size, {}))


def _head_spine(u: Term, path: Pos, budget: int, memo: Memo) -> list[tuple[ResTerm, int]]:
    """Approximants t of ``u`` whose lambda redex at ``path`` has a bag of
    the lambda's arity, each with its credit: the shrink of its head step,
    so that its reducts have size ``t.size - credit``, at most ``budget``."""
    out: list[tuple[ResTerm, int]] = []
    if not path:
        # Each slot with its element costs at least 2, as much as it adds to
        # the shrink, so the lambda alone fits the credit of an empty bag.
        for h in _approximants(u.fun, budget + _head_step_shrink("lam", 0) - 1, memo, None):
            k = _arity(h)
            credit = _head_step_shrink("lam", k)
            room = budget + credit - 1 - h.size
            pool = _approximants(u.arg, room - 1, memo, None) if room >= 1 else ()
            out.extend((RApp(h, bag), credit) for bag in _bags(pool, 0, room, k))
        return out
    match u:
        case Lam(body=b):
            out.extend((RLam(t), c) for t, c in _head_spine(b, path[1:], budget - 1, memo))
        case Mu(named=nr, body=b):
            out.extend((RMu(nr, t), c) for t, c in _head_spine(b, path[1:], budget - 1, memo))
        case App(fun=f, arg=a):
            for h, credit in _head_spine(f, path[1:], budget - 1, memo):
                room = budget + credit - 1 - h.size
                pool = _approximants(a, room - 1, memo, None) if room >= 1 else ()
                out.extend((RApp(h, bag), credit) for bag in _bags(pool, 0, room))
    return out


# ---------- truncated normal-form sets ----------


def nft_truncated(m: Term, max_size: int) -> frozenset[ResTerm]:
    """Normal forms of all approximants up to the size budget (idempotent
    semiring); approximants that vanish contribute nothing.

    Only approximants without a vanishing redex are normalized.  The others
    have normal form 0: a resource term is linear in each of its subterms,
    so contracting the vanishing redex gives 0 wherever it sits, and since
    resource reduction is confluent and strongly normalizing, every
    reduction of the approximant ends in 0.  Leaving them out changes no
    set of normal forms."""
    out: set[ResTerm] = set()
    for t in taylor_enum(m, max_size, "nonvanishing"):
        out.update(normalize_r(t, BOOL).terms())
    return frozenset(out)


def leq_truncated(m: Term, n: Term, max_size: int) -> bool:
    """Approximation order, truncated: every normal form reachable from
    ``m``'s budget-bounded approximants is reachable from ``n``'s."""
    return nft_truncated(m, max_size) <= nft_truncated(n, max_size)


def nft_eq_truncated(m: Term, n: Term, max_size: int) -> bool:
    return nft_truncated(m, max_size) == nft_truncated(n, max_size)


# ---------- solvability ----------

# Solvability by head reduction with fuel (``lamu.head_run``, which documents
# the run): a head normal form within the fuel (``Solvable``) proves a term
# solvable; running out of fuel (``Unknown``) is inconclusive.
solvable = head_run
Solvable = Hnf
Unknown = FuelExhausted


# ---------- head reduction commutes with approximation ----------


def _head_step_shrink(kind: str, k: int) -> int:
    """How much smaller than an approximant every addend of its head step is
    at least, for a head redex of ``kind`` whose bag has ``k`` elements.

    The size rule of the three head steps:
    - lambda, (\\x.s)[u1, ..., uk] -> s{u1, ..., uk / x}: the application
      node, its k slots, the lambda and the k occurrences of x go, so every
      addend is exactly 2 + 2k smaller (a bag whose size is not the degree
      of x gives no addend at all);
    - mu, (mu 'a.s)[u1, ..., uk]: the application node goes and each of the
      n namings of 'a gets one, so every addend is 1 - n smaller;
    - merge (rho), mu 'a.<'b> mu 'c.<'d> s -> mu 'a.<'d> s{'b / 'c}: one mu
      goes, so every addend is exactly 1 smaller.
    """
    return 2 + 2 * k if kind == "lam" else 1


def head_commute_slices(m: Term, max_size: int) -> tuple[frozenset[ResTerm], frozenset[ResTerm]]:
    """Left: approximants of the head reduct, up to the budget.  Right: head
    reducts of sufficiently many approximants of the source, cut to the same
    budget.  The two sets must coincide.

    Only the approximants whose head reducts can fit the budget are built
    and stepped (``taylor_enum``'s ``"head-reducts"``); the others could only
    add reducts that the cut drops, so no reduct of the right slice is
    lost."""
    reduct = head_step(m)
    if reduct is None:
        raise ValueError("term is already a head normal form")
    left = frozenset(taylor_enum(reduct, max_size))
    right: set[ResTerm] = set()
    for t in taylor_enum(m, max_size, "head-reducts"):
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
