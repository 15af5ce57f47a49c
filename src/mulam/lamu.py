"""Reduction engine for the lambda-mu calculus.

Three redex shapes: a lambda applied to an argument, a mu applied to an
argument (which pushes the argument through the body at every naming of the
mu's own name), and a mu whose body is directly another mu (which merges the
two namings).  Head reduction prefers the leftmost merge redex in the binder
prefix and otherwise fires the head redex, the innermost application of the
spine below the prefix.  A head run (``head_run``) that comes back to a
term it has seen jumps to the end of its fuel.

A redex is contracted on its own index: the lambda's variable is replaced
where it occurs as an index of the body, and the mu's name is followed as an
index through the body, so the redex's binder is never opened.  The redex
alone is opened on the binders above it, in one pass that makes the argument
locally closed so that it goes under binders as it is; the binders above are
never opened.

The redex finder, the head position (``head_redex_pos``) and the opening of
a redex on the binders above it (``open_outer``) are shared with the
resource calculus and defined in ``syntax``.
"""

from __future__ import annotations

from . import syntax
from .syntax import (
    App,
    Lam,
    Mu,
    Pos,
    Ref,
    Term,
    Var,
    _atom,
    _strip_quote,
    _under,
    head_redex_pos,
    is_hnf,
    is_locally_closed,
    map_refs,
    path_to,
    plug,
)

# ---------- substitution and named application ----------


def subst(t: Term, x: str, n: Term) -> Term:
    """Capture-free substitution of the free variable atom ``x`` by ``n``.

    With locally nameless terms this is a plain graft: binders are indices,
    so they cannot capture atoms of ``n``.
    """
    x = _atom(x)
    return map_refs(t, var=lambda r, d: n if r == x else None)


def named_app(t: Term, alpha: Ref, n: Term) -> Term:
    """(t)_alpha n: duplicate the argument at every naming of ``alpha``.

    Clauses: variables untouched; abstractions and applications structural;
    ``mu b.<g| m>`` maps to ``mu b.<g| (m)_alpha n>`` when g is not alpha and
    to ``mu b.<alpha| ((m)_alpha n) n>`` when it is.  ``alpha`` is a free
    name or the index of a mu binder, resolved at the namings of the mu
    nodes at the top of ``t`` (so index 0 is such a mu's own binder and
    index 1 the binder just outside ``t``); an index goes up by one under
    each mu.
    """
    if isinstance(alpha, str):
        alpha = _strip_quote(alpha)

    def go(u: Term, a: Ref) -> Term:
        match u:
            case Var():
                return u
            case Lam(body=b):
                return Lam(go(b, a))
            case App(fun=f, arg=x):
                return App(go(f, a), go(x, a))
            case Mu(named=nr, body=b):
                inner = go(b, _under(a))
                if nr == a:
                    inner = App(inner, n)
                return Mu(nr, inner)
        raise AssertionError(u)

    return go(t, alpha)


# ---------- the naming-merge (rho) rule ----------


def _rho_map_ref(r: Ref, a_ref: Ref, d: int) -> Ref:
    """Image of a naming reference when the inner binder, index ``d`` at
    this naming, is removed: its namings become the outer naming ``a_ref``,
    re-indexed into the new scope when it is itself bound outside, and the
    binders further out move down by one."""
    if isinstance(r, str) or r < d:
        return r
    if r == d:
        return a_ref if isinstance(a_ref, str) else d + a_ref
    return r - 1


def rho_inner_parts(outer_named: Ref, inner_named: Ref, inner_body):
    """New naming and body for ``mu g.<a| mu b.<e| m>>  ->  mu g.<e{a/b}| m{a/b}>``.

    Works for both calculi.  The inner naming is index 0 of the inner
    binder; in the body, under ``dn`` mu binders, that binder is ``dn + 1``.
    """
    body = map_refs(inner_body, name=lambda r, dn: _rho_map_ref(r, outer_named, dn + 1))
    return _rho_map_ref(inner_named, outer_named, 0), body


def rho_term(t: Mu) -> Mu:
    if not (isinstance(t, Mu) and isinstance(t.body, Mu)):
        raise ValueError(f"not a naming-merge redex: {t!r}")
    new_named, body = rho_inner_parts(t.named, t.body.named, t.body.body)
    return Mu(new_named, body)


# ---------- redexes and single-step reduction ----------


def contract(t: Term) -> Term:
    """Contract a redex at the root.  The term must already be opened with
    respect to any surrounding binders (free references are atoms), so the
    argument is locally closed."""
    match t:
        case App(fun=Lam(body=b), arg=n):
            return map_refs(b, var=lambda r, d: n if r == d else None)
        case App(fun=Mu() as m, arg=n):
            # Index 0 at a mu node is its own binder, also at its own naming.
            return named_app(m, 0, n)
        case Mu(body=Mu()):
            return rho_term(t)
    raise ValueError(f"not a redex: {t!r}")


def reduce_redex(t: Term, pos: Pos) -> Term:
    """Contract the redex at ``pos``.

    The walk down is a loop (``syntax.path_to``) that counts the lambda and
    mu binders above the redex.  The redex alone is opened on them
    (``syntax.open_outer``; nothing at the root), so that the contraction
    grafts its argument without index shifts, and the reduct is closed once
    and plugged back into the path (``syntax.plug``).  A position that
    is not in ``t`` raises ``ValueError``, as does one that is not a redex.
    """
    path, u, nl, nm = path_to(t, pos)
    if not (nl or nm):
        return plug(path, contract(u))
    opened, close = syntax.open_outer(u, nl, nm)
    return plug(path, close(contract(opened)))


# ---------- head reduction ----------


def head_step(t: Term) -> Term | None:
    """One head-reduction step; None exactly on head normal forms."""
    hit = head_redex_pos(t)
    if hit is None:
        return None
    return reduce_redex(t, hit[0])


class _Outcome:
    """The result of a head run, with the fields its subclass's
    ``__slots__`` names.  Results are equal when of the same class with
    equal fields, and are not changed after they are built."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({args})"


class Hnf(_Outcome):
    """A head normal form ``term`` after ``steps`` steps."""

    __slots__ = ("steps", "term")

    def __init__(self, steps: int, term: Term):
        self.steps = steps
        self.term = term


class FuelExhausted(_Outcome):
    """No head normal form within ``fuel`` steps; ``term`` is the term after
    exactly ``fuel`` steps."""

    __slots__ = ("fuel", "term")

    def __init__(self, fuel: int, term: Term):
        self.fuel = fuel
        self.term = term


def head_run(t: Term, fuel: int) -> Hnf | FuelExhausted:
    """Iterate head reduction for at most ``fuel`` steps.

    Returns ``Hnf(n, u)`` when the term after ``n <= fuel`` steps is a head
    normal form, and otherwise ``FuelExhausted(fuel, u)`` with ``u`` the term
    after exactly ``fuel`` steps.

    The run looks for a cycle as Brent's algorithm does: one saved term,
    replaced at the step counts that are powers of two, is compared with each
    new term.  A head step depends only on the term (``==`` compares
    encodings), so when the term after step ``n`` equals the one saved at
    step ``s``, the run repeats with period ``n - s`` and never reaches a
    head normal form; the term after ``fuel`` steps is then reached with
    ``(fuel - n) mod (n - s)`` more steps.  A cyclic unsolvable term costs
    about its cycle, not its fuel, and only one term is kept alive besides
    the current one.
    """
    if fuel < 0:
        raise ValueError(f"fuel must be at least 0, got {fuel}")
    if not is_locally_closed(t):
        raise ValueError(f"head reduction needs a locally closed term, got {t!r}")
    u = saved = t
    s = 0
    for n in range(1, fuel + 1):
        nxt = head_step(u)
        if nxt is None:
            return Hnf(n - 1, u)
        u = nxt
        if u == saved:
            for _ in range((fuel - n) % (n - s)):
                u = head_step(u)
            return FuelExhausted(fuel, u)
        if n & (n - 1) == 0:
            saved, s = u, n
    if is_hnf(u):
        return Hnf(fuel, u)
    return FuelExhausted(fuel, u)
