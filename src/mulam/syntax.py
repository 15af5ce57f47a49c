"""Term representations for the lambda-mu calculus and its resource refinement.

Both syntaxes are stored locally nameless: bound occurrences are de Bruijn
indices counted per binder kind (lambda binders for variables, mu binders for
names), and free occurrences are plain string atoms.  The two namespaces are
independent, so a lambda binder never shifts a name index and vice versa.
Alpha-equivalent terms are structurally identical, and every node caches a
canonical byte encoding ``enc``; equality, hashing, bag ordering and sum
ordering all derive from that one total order.  The nodes of both syntaxes
derive from one base, ``_Node``, which holds the only ``__eq__``,
``__hash__`` and ``__repr__``.  Every node also caches
``normal``, true when no subterm is a redex: a variable is normal, and any
other node is normal when its children are and it is not itself a redex
(the rule next to ``redex_kind``).  Resource nodes cache ``size`` and
``nmu`` besides.  Each of these is set once in the constructor from the
children's, at O(1) per node, and the redex finder skips a normal subtree.

A mu node ``Mu(named, body)`` fuses the binder and the naming: it stands for
"mu a. <b| body>" where ``named`` is the reference for ``b`` resolved in the
scope that includes the mu's own binder (index 0 is the mu itself).  Named
terms therefore never float free; they only occur under a mu, which matches
the grammar.

The two syntaxes have the same shape node for node (a resource application
carries a bag where a lambda-mu application carries one argument), so every
shape-directed operation is defined here once, for both, and dispatches on
the node's exact class: the reference walks ``map_refs`` and ``iter_refs``,
the occurrence count ``occurrences`` (``degree`` and the resource engine's
splits both use it), the walk down a position ``path_to`` and the rebuild
back up ``plug``, the redex opener ``open_outer``, the redex finder
``redex_kind``, ``iter_redexes``/``redexes``, ``head_redex_pos`` and
``is_hnf``, and ``pick_redex``, the one definition of each reduction
strategy, for a lone term and for the addends of a sum.  Both engines and
their callers import these from here; ``textio`` has the one printer and the
one JSON export.

A step at a position walks down to the redex in a loop, counting the lambda
and mu binders above it, and opens the redex alone on them in one pass
(``open_outer``); the binders above are never opened, and each reduct is
closed once and plugged back into the path (``plug``).
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, Iterable, Iterator, Sequence

# ---------- identifiers ----------

# A reference is either a de Bruijn index (int, >= 0) or a free atom (str).
Ref = int | str

# ``next`` on an ``itertools.count`` is one C call, which the interpreter
# lock makes atomic, so two threads never draw the same number.
_fresh_numbers = itertools.count(1)


def fresh_atom(stem: str = "g") -> str:
    """Return a globally fresh atom: ``g~1``, ``g~2``, ... for the default stem.

    The tilde keeps fresh atoms disjoint from anything the grammar can
    produce, so terms that leak one would fail to round-trip; they are only
    ever used transiently while rewriting under binders.
    """
    return f"{stem}~{next(_fresh_numbers)}"


# A reference's encoding ends in ";", so an atom holds none: the encodings
# of a bag's elements are written one after another, and a variable named
# "x;V.y" would read as the two variables x and y.  ``mark`` tells a
# variable's atom (".") from a name's ("'").
def _enc_ref(ref: Ref, mark: bytes) -> bytes:
    if isinstance(ref, int):
        if ref >= 0:
            return b"%d;" % ref
    elif isinstance(ref, str) and ref and ";" not in ref:
        return mark + ref.encode() + b";"
    raise _bad_ref(ref)


def _bad_ref(ref: object) -> Exception:
    """The error for a reference that is neither an index (int >= 0) nor an
    atom (a non-empty str without ";")."""
    if isinstance(ref, (int, str)):
        return ValueError(f"a reference must be an index >= 0 or a non-empty atom without ';', got {ref!r}")
    return TypeError(f"a reference must be an int or a str, not {ref!r}")


# ---------- nodes ----------


class _Node:
    """Base class of both syntaxes' nodes: equality and hashing go through
    the canonical encoding ``enc`` (nodes of different classes are never
    equal), and the repr shows the class and the printed term."""

    __slots__ = ()
    enc: bytes
    normal: bool

    def __eq__(self, other: object) -> bool:
        return self.__class__ is other.__class__ and self.enc == other.enc  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self.enc)

    def __repr__(self) -> str:
        from . import textio

        return f"<{self.__class__.__name__} {textio._print(self)}>"


# ---------- lambda-mu terms ----------


class Term(_Node):
    """Base class for lambda-mu terms."""

    __slots__ = ()


class Var(Term):
    __slots__ = ("ref", "enc", "normal")

    def __init__(self, ref: Ref):
        self.ref = ref
        self.enc = b"V" + _enc_ref(ref, b".")
        self.normal = True


class Lam(Term):
    __slots__ = ("body", "enc", "normal")

    def __init__(self, body: Term):
        if not isinstance(body, Term):
            raise TypeError(f"a lambda body must be a term, not {body!r}")
        self.body = body
        self.enc = b"L" + body.enc
        self.normal = body.normal


class App(Term):
    __slots__ = ("fun", "arg", "enc", "normal")

    def __init__(self, fun: Term, arg: Term):
        if not (isinstance(fun, Term) and isinstance(arg, Term)):
            raise TypeError(f"an application needs two terms, not {fun!r} and {arg!r}")
        self.fun = fun
        self.arg = arg
        self.enc = b"A" + fun.enc + arg.enc
        cls = type(fun)
        self.normal = fun.normal and arg.normal and cls is not Lam and cls is not Mu


class Mu(Term):
    __slots__ = ("named", "body", "enc", "normal")

    def __init__(self, named: Ref, body: Term):
        if not isinstance(body, Term):
            raise TypeError(f"a mu body must be a term, not {body!r}")
        self.named = named
        self.body = body
        self.enc = b"M" + _enc_ref(named, b"'") + body.enc
        self.normal = body.normal and type(body) is not Mu


# ---------- resource terms ----------


class ResTerm(_Node):
    """Base class for resource terms.

    ``size`` is the node count weighted so that an application contributes
    1 + (number of bag elements) on top of its subterms; ``nmu`` counts mu
    nodes (used by the termination measures); ``normal`` says that no
    subterm is a redex (the rule next to ``redex_kind``).  All three are
    set once, from the children, as ``enc`` is.
    """

    __slots__ = ()
    size: int
    nmu: int


class RVar(ResTerm):
    __slots__ = ("ref", "enc", "size", "nmu", "normal")

    def __init__(self, ref: Ref):
        self.ref = ref
        self.enc = b"V" + _enc_ref(ref, b".")
        self.size = 1
        self.nmu = 0
        self.normal = True


class RLam(ResTerm):
    __slots__ = ("body", "enc", "size", "nmu", "normal")

    def __init__(self, body: ResTerm):
        if not isinstance(body, ResTerm):
            raise TypeError(f"a lambda body must be a resource term, not {body!r}")
        self.body = body
        self.enc = b"L" + body.enc
        self.size = 1 + body.size
        self.nmu = body.nmu
        self.normal = body.normal


class RApp(ResTerm):
    __slots__ = ("head", "bag", "enc", "size", "nmu", "normal")

    def __init__(self, head: ResTerm, bag: Iterable[ResTerm], *, _raw: bool = False):
        if not isinstance(head, ResTerm):
            raise TypeError(f"an application head must be a resource term, not {head!r}")
        elems = tuple(bag)
        cls = type(head)
        normal = head.normal and cls is not RLam and cls is not RMu
        size = 1 + len(elems) + head.size
        nmu = head.nmu
        encs = [b"A", head.enc, b"["]
        # The elements are only checked when reading their attributes fails,
        # so well-formed bags pay nothing for the check.
        try:
            if len(elems) > 1 and not _raw:
                # ``_raw`` (internal) keeps the given element order; it is
                # used only while a surrounding binder is opened, and
                # closing re-canonicalizes.
                elems = mkbag(elems)
            for e in elems:
                encs.append(e.enc)
                size += e.size
                nmu += e.nmu
                normal = normal and e.normal
        except AttributeError:
            bad = [e for e in elems if not isinstance(e, ResTerm)]
            if not bad:
                raise
            raise TypeError(f"a bag element must be a resource term, not {bad[0]!r}") from None
        encs.append(b"]")
        self.head = head
        self.bag = elems
        self.enc = b"".join(encs)
        self.size = size
        self.nmu = nmu
        self.normal = normal


class RMu(ResTerm):
    __slots__ = ("named", "body", "enc", "size", "nmu", "normal")

    def __init__(self, named: Ref, body: ResTerm):
        if not isinstance(body, ResTerm):
            raise TypeError(f"a mu body must be a resource term, not {body!r}")
        self.named = named
        self.body = body
        self.enc = b"M" + _enc_ref(named, b"'") + body.enc
        self.size = 1 + body.size
        self.nmu = 1 + body.nmu
        self.normal = body.normal and type(body) is not RMu


Bag = tuple[ResTerm, ...]


def _bag_key(t: ResTerm) -> tuple[int, bytes]:
    return (len(t.enc), t.enc)


def mkbag(elems: Iterable[ResTerm]) -> Bag:
    """Canonical bag: elements sorted by their encoding (multiset order)."""
    return tuple(sorted(elems, key=_bag_key))


def size(t: ResTerm) -> int:
    return t.size


def alpha_eq(a: Term | ResTerm, b: Term | ResTerm) -> bool:
    """Alpha-equivalence; with this representation, plain equality."""
    return a == b


# ---------- references under binders ----------
#
# The one depth convention of both syntaxes.  A walk counts depths from the
# top of the term it walks.  A variable's depth is the number of lambda
# binders above it, so at depth ``dl`` index ``dl`` points just outside the
# walked term.  A naming's depth is the number of mu binders above its mu
# node; the naming resolves in a scope that counts its own node's binder as
# index 0, so under ``dn`` mu binders index ``dn + 1`` points just outside.
# Lambda binders never shift names, and mu binders never shift variables.

VAR = "var"
NAME = "name"


def map_refs(t, var=None, name=None, raw: bool = False):
    """Rebuild a term of either syntax with its references replaced.

    ``var(ref, depth)`` returns the term that replaces a variable, or None to
    keep it; ``name(ref, depth)`` returns the new reference of a naming.
    Bags are re-canonicalized, except with ``raw``, which keeps their element
    order so that positions taken before the walk stay valid.
    """

    # Both walks dispatch on the exact class, which measured 1.4 to 2.3
    # times as fast as class patterns.
    def go(u, dl: int, dn: int):
        cls = type(u)
        if cls is RVar or cls is Var:
            w = None if var is None else var(u.ref, dl)
            return u if w is None else w
        if cls is RApp:
            return RApp(go(u.head, dl, dn), [go(e, dl, dn) for e in u.bag], _raw=raw)
        if cls is App:
            return App(go(u.fun, dl, dn), go(u.arg, dl, dn))
        if cls is RLam or cls is Lam:
            return cls(go(u.body, dl + 1, dn))
        if cls is RMu or cls is Mu:
            named = u.named if name is None else name(u.named, dn)
            return cls(named, go(u.body, dl, dn + 1))
        raise AssertionError(u)

    return go(t, 0, 0)


def iter_refs(t: Term | ResTerm) -> Iterator[tuple[str, Ref, int]]:
    """Every reference of ``t`` as ``(kind, ref, depth)``: kind ``VAR`` for
    a variable, ``NAME`` for a naming.  The order is unspecified."""
    stack: list[tuple[Term | ResTerm, int, int]] = [(t, 0, 0)]
    while stack:
        u, dl, dn = stack.pop()
        cls = type(u)
        if cls is RVar or cls is Var:
            yield VAR, u.ref, dl
        elif cls is RApp:
            stack.append((u.head, dl, dn))
            stack.extend([(e, dl, dn) for e in u.bag])
        elif cls is App:
            stack.append((u.fun, dl, dn))
            stack.append((u.arg, dl, dn))
        elif cls is RLam or cls is Lam:
            stack.append((u.body, dl + 1, dn))
        elif cls is RMu or cls is Mu:
            yield NAME, u.named, dn
            stack.append((u.body, dl, dn + 1))
        else:
            raise AssertionError(u)


def _under(target: Ref) -> Ref:
    """A target reference one binder of its kind further down: an atom is
    the same at every depth, an index goes up by one."""
    return target if isinstance(target, str) else target + 1


def occurrences(t: Term | ResTerm, kind: str, target: Ref) -> int:
    """Occurrences in ``t`` of the variable (``kind`` ``VAR``) or the name
    (``NAME``) that ``target`` refers to: a free atom, the same at every
    depth, or an index at the top of ``t``, which points one binder of its
    kind further out below each such binder.

    One explicit-stack loop counts both kinds in place.  ``kind`` picks the
    binder that deepens the target (a lambda for ``VAR``, a mu for
    ``NAME``) and the node that holds a reference to compare (a variable or
    a mu's naming).  ``None`` on the stack marks the end of a binder of the
    counted kind, so the depth is one int.
    """
    index = not isinstance(target, str)
    of_vars = kind == VAR
    n = 0
    depth = 0
    stack = [t]
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        u = pop()
        if u is None:
            depth -= 1
            continue
        cls = type(u)
        if cls is RVar or cls is Var:
            if of_vars and u.ref == (target + depth if index else target):
                n += 1
        elif cls is RApp:
            push(u.head)
            extend(u.bag)
        elif cls is App:
            push(u.fun)
            push(u.arg)
        elif cls is RLam or cls is Lam:
            if of_vars:
                push(None)
                depth += 1
            push(u.body)
        elif cls is RMu or cls is Mu:
            if not of_vars:
                if u.named == (target + depth if index else target):
                    n += 1
                push(None)
                depth += 1
            push(u.body)
        else:
            raise AssertionError(u)
    return n


def degree(nu: str, t: Term | ResTerm) -> int:
    """Number of free occurrences of a variable or name.

    ``nu`` is written grammar-style: ``"x"`` counts a variable, ``"'a"``
    counts a name (names only ever occur in naming position).
    """
    atom = _strip_quote(nu)
    return occurrences(t, VAR if atom == nu else NAME, atom)


def deg_bag(nu: str, bag: Bag) -> int:
    return sum(degree(nu, e) for e in bag)


def _atom(atom: str) -> str:
    """``atom``, a free variable or name given to an entry point.  No term
    holds the empty atom, so it is rejected (``_bad_ref``) rather than
    taken for an atom that does not occur.  A non-str is rejected too: an
    int would be taken for the index of a binder.  So is an atom that begins
    with a quote (a name given with two), which would print as a name that
    does not parse."""
    if not isinstance(atom, str):
        raise TypeError(f"an atom must be a str, not {atom!r}")
    if not atom:
        raise _bad_ref(atom)
    if atom.startswith("'"):
        raise ValueError(f"an atom cannot begin with a quote, got {atom!r}")
    return atom


def _strip_quote(name: str) -> str:
    """The atom of a name given with or without its leading quote."""
    return _atom(name[1:] if isinstance(name, str) and name.startswith("'") else name)


def rename_name(t, alpha: str, beta: str):
    """Apply the renaming {alpha/beta}: free name beta becomes alpha.

    Accepts terms, resource terms or sums; names may be given with or
    without the leading quote.
    """
    alpha = _strip_quote(alpha)
    beta = _strip_quote(beta)
    if alpha == beta:
        return t

    def rename(r: Ref, d: int) -> Ref:
        return alpha if r == beta else r

    if isinstance(t, Sum):
        return t.map(lambda u: map_refs(u, name=rename))
    return map_refs(t, name=rename)


# ---------- sums ----------

BOOL = "bool"
NAT = "nat"


class Sum:
    """Finite formal sum of resource terms with coefficients in a semiring.

    ``semiring`` is ``BOOL`` (idempotent: coefficients saturate at 1) or
    ``NAT`` (exact counts).  Items are kept sorted by term encoding, merged,
    and never carry a zero coefficient, so equal sums compare equal.

    A sum is immutable.  Sums of many parts (``add``, ``bind`` and the
    reduction engine's distributions) are collected in a ``SumBuilder`` and
    canonicalized once, so building from n parts costs one merge and one
    sort, not n.
    """

    __slots__ = ("semiring", "items")

    def __init__(self, semiring: str, items: Iterable[tuple[ResTerm, int]]):
        _check_semiring(semiring)
        merged: dict[ResTerm, int] = {}
        for t, c in items:
            if not isinstance(t, ResTerm):
                raise TypeError(f"a sum addend must be a resource term, not {t!r}")
            _check_coeff(c)
            if c == 0:
                continue
            merged[t] = merged.get(t, 0) + c
        self.semiring = semiring
        self.items = _canonical_items(semiring, merged)

    # -- constructors --

    @classmethod
    def zero(cls, semiring: str) -> "Sum":
        return cls(semiring, ())

    @classmethod
    def unit(cls, t: ResTerm, semiring: str) -> "Sum":
        return cls(semiring, ((t, 1),))

    @classmethod
    def of_canonical(cls, semiring: str, items: tuple[tuple[ResTerm, int], ...]) -> "Sum":
        """The sum whose items are ``items``, which must already be
        canonical: sorted by encoding, merged, positive and, over Bool,
        saturated.  Nothing is checked."""
        out = object.__new__(cls)
        out.semiring = semiring
        out.items = items
        return out

    # -- queries --

    @property
    def is_zero(self) -> bool:
        return not self.items

    def terms(self) -> tuple[ResTerm, ...]:
        return tuple(t for t, _ in self.items)

    def coeff(self, t: ResTerm) -> int:
        for u, c in self.items:
            if u == t:
                return c
        return 0

    def __iter__(self) -> Iterator[tuple[ResTerm, int]]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, t: ResTerm) -> bool:
        return self.coeff(t) > 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Sum)
            and self.semiring == other.semiring
            and self.items == other.items
        )

    def __hash__(self) -> int:
        return hash((self.semiring, self.items))

    def __repr__(self) -> str:
        from . import textio

        return f"<Sum:{self.semiring} {textio.print_sum(self)}>"

    # -- arithmetic --

    def add(self, other: "Sum") -> "Sum":
        acc = SumBuilder(self.semiring)
        acc.add(self)
        acc.add(other)
        return acc.build()

    __add__ = add

    def scale(self, k: int) -> "Sum":
        _check_coeff(k)
        if k == 0:
            return Sum.zero(self.semiring)
        if k == 1:
            return self
        return Sum(self.semiring, ((t, c * k) for t, c in self.items))

    def map(self, f: Callable[[ResTerm], ResTerm]) -> "Sum":
        """Apply a term constructor addend-wise (linearity of constructors)."""
        acc = SumBuilder(self.semiring)
        coeffs = acc.coeffs
        for t, c in self.items:
            u = f(t)
            coeffs[u] = coeffs.get(u, 0) + c
        return acc.build()

    def bind(self, f: Callable[[ResTerm], "Sum"]) -> "Sum":
        """Substitute each addend by a whole sum, scaling by its coefficient."""
        acc = SumBuilder(self.semiring)
        for t, c in self.items:
            acc.add(f(t), c)
        return acc.build()

    def support(self) -> "Sum":
        """Forget multiplicities: the same addends over the Bool semiring."""
        return Sum(BOOL, ((t, 1) for t, _ in self.items))

    def to_semiring(self, semiring: str) -> "Sum":
        if semiring == self.semiring:
            return self
        if semiring == BOOL:
            return self.support()
        return Sum(NAT, self.items)


def _canonical_items(semiring: str, coeffs: dict[ResTerm, int]) -> tuple[tuple[ResTerm, int], ...]:
    """The items of a sum from positive coefficients: one sort by encoding,
    and Bool coefficients saturated to 1."""
    if semiring == BOOL:
        return tuple((t, 1) for t in sorted(coeffs, key=_bag_key))
    return tuple(sorted(coeffs.items(), key=_item_key))


def _item_key(item: tuple[ResTerm, int]) -> tuple[int, bytes]:
    return _bag_key(item[0])


def _check_semiring(semiring: str) -> None:
    if semiring not in (BOOL, NAT):
        raise ValueError(f"unknown semiring {semiring!r}; expected {BOOL!r} or {NAT!r}")


def _check_coeff(k: int) -> None:
    if not isinstance(k, int):
        raise TypeError(f"a coefficient must be an int, not {k!r}")
    if k < 0:
        raise ValueError(f"a coefficient must not be negative, got {k}")


class SumBuilder:
    """Mutable accumulator of scaled sums over one semiring.

    ``add`` merges coefficients into a dict; ``build`` canonicalizes once.
    The parts are already valid sums, so no item is checked again.  A
    builder can also start from a term -> coefficient dict of positive
    coefficients that the caller collected itself (and hands over).
    """

    __slots__ = ("semiring", "coeffs")

    def __init__(self, semiring: str, coeffs: dict[ResTerm, int] | None = None):
        _check_semiring(semiring)
        self.semiring = semiring
        self.coeffs: dict[ResTerm, int] = {} if coeffs is None else coeffs

    def add(self, s: Sum, k: int = 1) -> None:
        """Add ``k`` times ``s``."""
        if s.semiring != self.semiring:
            raise ValueError(f"a {s.semiring} sum added to a {self.semiring} sum")
        _check_coeff(k)
        if k == 0:
            return
        coeffs = self.coeffs
        for t, c in s.items:
            coeffs[t] = coeffs.get(t, 0) + c * k

    def remove(self, t: ResTerm, k: int) -> None:
        """Take ``k`` units of ``t`` away; at least ``k`` must be there."""
        c = self.coeffs.get(t, 0) - k
        if c < 0:
            raise ValueError(f"cannot remove {k} of {t!r}: only {c + k} there")
        if c:
            self.coeffs[t] = c
        else:
            del self.coeffs[t]

    def build(self) -> Sum:
        return Sum.of_canonical(self.semiring, _canonical_items(self.semiring, self.coeffs))


def add_app(
    acc: dict[ResTerm, int],
    head: Iterable[tuple[ResTerm, int]],
    args: list[Iterable[tuple[ResTerm, int]]],
    k: int = 1,
) -> None:
    """Add ``k`` times the multilinear application of ``head`` to the bag
    slots ``args`` into the coefficient dict ``acc``: one addend per choice
    of one addend from the head and from each slot, with the product of
    their coefficients.  The parts are (term, coefficient) pairs, so a sum's
    ``items`` and a dict's ``items()`` both do."""
    choices: list[tuple[tuple[ResTerm, ...], int]] = [((), k)]
    for arg in args:
        choices = [(picked + (t,), c * ct) for picked, c in choices for t, ct in arg]
        if not choices:
            return
    for h, ch in head:
        for picked, c in choices:
            u = RApp(h, picked)
            acc[u] = acc.get(u, 0) + ch * c


def lift_app(head: Sum, args: list[Sum]) -> Sum:
    """Multilinear application: distribute a sum head over sums of bag slots."""
    for arg in args:
        if arg.semiring != head.semiring:
            raise ValueError(f"a {arg.semiring} bag slot under a {head.semiring} head")
    acc = SumBuilder(head.semiring)
    add_app(acc.coeffs, head.items, [arg.items for arg in args])
    return acc.build()


# ---------- opening and closing binders ----------
#
# Rewriting below a binder works on an "opened" copy whose bound references
# are fresh atoms; results are closed back afterwards.  Opening preserves bag
# element order (positions computed on the closed term stay valid), closing
# rebuilds canonically.


def open_rvar(t: ResTerm, atom: str) -> ResTerm:
    return map_refs(t, var=lambda r, d: RVar(atom) if r == d else None, raw=True)


def close_rvar(t: ResTerm, atom: str) -> ResTerm:
    return map_refs(t, var=lambda r, d: RVar(d) if r == atom else None)


def open_rname(t: ResTerm, atom: str) -> ResTerm:
    return map_refs(t, name=lambda r, d: atom if r == d + 1 else r, raw=True)


def close_rname(t: ResTerm, atom: str) -> ResTerm:
    return map_refs(t, name=lambda r, d: d + 1 if r == atom else r)


def open_var(t: Term, atom: str) -> Term:
    return map_refs(t, var=lambda r, d: Var(atom) if r == d else None)


def close_var(t: Term, atom: str) -> Term:
    return map_refs(t, var=lambda r, d: Var(d) if r == atom else None)


def open_name(t: Term, atom: str) -> Term:
    return map_refs(t, name=lambda r, d: atom if r == d + 1 else r)


def close_name(t: Term, atom: str) -> Term:
    return map_refs(t, name=lambda r, d: d + 1 if r == atom else r)


def open_mu_binder(t: Mu | RMu, atom: str):
    """Open a mu node's own binder; returns (named_ref, body) with the bound
    name replaced by ``atom`` in both the naming position and the body."""
    named = atom if t.named == 0 else t.named
    if isinstance(t, Mu):
        body = open_name(t.body, atom)
    else:
        body = open_rname(t.body, atom)
    return named, body


def open_outer(u: Term | ResTerm, nl: int, nm: int):
    """Open a redex on the binders above it, in one pass over the redex.

    ``u`` sits below ``nl`` lambda and ``nm`` mu binders.  Every reference
    of ``u`` that points to one of them becomes a fresh atom: a variable
    with index ``r`` at lambda depth ``d`` becomes ``atoms[r - d]`` when
    ``r >= d``, and a naming with index ``r`` at mu depth ``d`` becomes
    ``names[r - d - 1]`` when ``r > d`` (entry 0 is the nearest binder).  An
    index past all of them is left as it is.  Bag order is kept, as in
    every opening.

    Returns ``(opened, close)``: ``close`` turns a term of ``u``'s syntax
    built from the opened one (a reduct) back into indices at its top, so
    that it fits where ``u`` was.  Only ``u`` is walked; the binders above
    it and their other children are never opened.  This is the step of
    every walk down a path to a redex (``lamu.reduce_redex``,
    ``resource.step_r``, ``suites.mirror_step``).
    """
    mk = RVar if isinstance(u, ResTerm) else Var
    atoms = [fresh_atom("v") for _ in range(nl)]
    names = [fresh_atom("n") for _ in range(nm)]

    def var_in(r, d):
        if isinstance(r, int) and d <= r < d + nl:
            return mk(atoms[r - d])
        return None

    def name_in(r, d):
        if isinstance(r, int) and d < r <= d + nm:
            return names[r - d - 1]
        return r

    var_at = {a: k for k, a in enumerate(atoms)}
    name_at = {a: k for k, a in enumerate(names)}

    def var_out(r, d):
        k = var_at.get(r)
        return None if k is None else mk(d + k)

    def name_out(r, d):
        k = name_at.get(r)
        return r if k is None else d + 1 + k

    def close(w):
        return map_refs(w, var=var_out, name=name_out)

    return map_refs(u, var=var_in, name=name_in, raw=True), close


# ---------- positions ----------
#
# A position is a tuple of child indices.  Bodies are child 0; an
# application's function is child 0 and its argument child 1; a resource
# application's head is child 0 and bag elements are children 1..n in
# canonical bag order.

Pos = tuple[int, ...]


def path_to(t: Term | ResTerm, pos: Pos):
    """Follow ``pos`` down ``t``, in a loop, for either syntax.

    Returns ``(path, u, nl, nm)``: the nodes passed, each with the child
    index taken there; the subterm ``u`` at ``pos``; and the numbers of
    lambda and mu binders above ``u``, the binders ``open_outer`` opens it
    on.  A position that is not in ``t`` raises ``ValueError``.
    """
    path = []
    u = t
    nl = nm = 0
    for i in pos:
        cls = type(u)
        if cls is RApp and 0 <= i <= len(u.bag):
            kid = u.bag[i - 1] if i else u.head
        elif cls is App and (i == 0 or i == 1):
            kid = u.arg if i else u.fun
        elif i == 0 and (cls is RLam or cls is Lam):
            nl += 1
            kid = u.body
        elif i == 0 and (cls is RMu or cls is Mu):
            nm += 1
            kid = u.body
        else:
            raise ValueError(f"no position {pos} in {t!r}")
        path.append((u, i))
        u = kid
    return path, u, nl, nm


def plug(path, w):
    """The term that ``path_to`` walked down, with ``w`` in place of the
    subterm at the end of ``path``: the nodes of the path rebuilt around it,
    innermost first, for either syntax."""
    for v, i in reversed(path):
        cls = type(v)
        if cls is RApp:
            w = RApp(w, v.bag) if i == 0 else RApp(v.head, v.bag[: i - 1] + (w,) + v.bag[i:])
        elif cls is App:
            w = App(w, v.arg) if i == 0 else App(v.fun, w)
        elif cls is RLam or cls is Lam:
            w = cls(w)
        else:
            w = cls(v.named, w)
    return w


# ---------- redexes and the head position ----------
#
# One definition each for both syntaxes, which have the same redex shapes:
# an abstraction (lambda or mu) applied, as a function or as the head of a
# bag application, and a mu whose body is directly a mu.
#
# The constructors apply the same rule to set each node's ``normal`` bit
# from its children's: a variable is normal; a lambda is normal when its
# body is; an application is normal when its children all are and its head
# (function) is not a lambda or a mu of its syntax; a mu is normal when its
# body is normal and is not a mu of its syntax.  So ``t.normal`` holds
# exactly when ``redex_kind`` is None at every subterm of ``t``.


def redex_kind(t: Term | ResTerm) -> str | None:
    """The kind of the redex at the root of ``t``: "lam", "mu", "rho", or
    None when the root is not a redex."""
    cls = type(t)
    if cls is App:
        head = type(t.fun)
    elif cls is RApp:
        head = type(t.head)
    elif cls is Mu or cls is RMu:
        return "rho" if type(t.body) is cls else None
    else:
        return None
    if head is Lam or head is RLam:
        return "lam"
    if head is Mu or head is RMu:
        return "mu"
    return None


def iter_redexes(t: Term | ResTerm) -> Iterator[tuple[Pos, str]]:
    """The redexes of ``t`` with their kinds, in pre-order: a node before
    its children, and the children in order (function before argument, head
    before bag, bag elements in canonical order).  A normal subtree holds
    no redex and is skipped whole."""
    stack: list[tuple[Term | ResTerm, Pos]] = [(t, ())]
    while stack:
        u, pos = stack.pop()
        if u.normal:
            continue
        k = redex_kind(u)
        if k is not None:
            yield pos, k
        cls = type(u)
        if cls is RApp:
            bag = u.bag
            for i in range(len(bag), 0, -1):
                stack.append((bag[i - 1], pos + (i,)))
            stack.append((u.head, pos + (0,)))
        elif cls is App:
            stack.append((u.arg, pos + (1,)))
            stack.append((u.fun, pos + (0,)))
        else:
            stack.append((u.body, pos + (0,)))


def redexes(t: Term | ResTerm) -> list[tuple[Pos, str]]:
    """Every redex position with its kind, in pre-order."""
    return list(iter_redexes(t))


def head_redex_pos(t: Term | ResTerm) -> tuple[Pos, str] | None:
    """Position and kind of the next head-reduction step, or None on a head
    normal form.  A naming merge in the binder prefix wins over the head
    redex, which is the innermost application of the spine."""
    pos: list[int] = []
    u = t
    cls = type(u)
    while cls is Lam or cls is RLam or cls is Mu or cls is RMu:
        if type(u.body) is cls and (cls is Mu or cls is RMu):
            return tuple(pos), "rho"
        pos.append(0)
        u = u.body
        cls = type(u)
    nargs = 0
    while cls is App or cls is RApp:
        nargs += 1
        u = u.fun if cls is App else u.head
        cls = type(u)
    if nargs == 0 or cls is Var or cls is RVar:
        return None
    kind = "lam" if cls is Lam or cls is RLam else "mu"
    return tuple(pos) + (0,) * (nargs - 1), kind


def is_hnf(t: Term | ResTerm) -> bool:
    """Head normal: no head-reduction step applies."""
    return head_redex_pos(t) is None


def pick_redex(
    items: Sequence[tuple[Term | ResTerm, int]],
    strategy: str,
    rng: random.Random | None = None,
    find: Callable[[Term | ResTerm], list[tuple[Pos, str]]] = redexes,
) -> tuple[Term | ResTerm, int, Pos, str] | None:
    """The redex that ``strategy`` steps among ``items``, the (term,
    coefficient) pairs of a sum in order (``((t, 1),)`` for a lone term), as
    ``(term, coefficient, position, kind)``; None when it takes no step.

    - ``head`` steps the head redex of the first addend that has one.
    - ``leftmost`` steps the first redex of the first addend that has one.
    - ``rightmost`` steps the last redex of the last addend that has one.
    - ``random`` steps one ``rng.choice`` among the redexes of all addends,
      listed addend by addend.

    An addend's redexes are listed in pre-order, by ``find``: ``redexes``,
    or a caller's memo of it.  An unknown strategy, and ``random`` without
    an rng, raise ``ValueError``.
    """
    if strategy == "head":
        for t, c in items:
            hit = head_redex_pos(t)
            if hit is not None:
                return t, c, *hit
        return None
    if strategy == "leftmost":
        for t, c in items:
            if rs := find(t):
                return t, c, *rs[0]
        return None
    if strategy == "rightmost":
        for t, c in reversed(items):
            if rs := find(t):
                return t, c, *rs[-1]
        return None
    if strategy != "random":
        raise ValueError(f"unknown strategy: {strategy}")
    if rng is None:
        raise ValueError("random strategy needs an rng")
    cands = [(t, c, pos, kind) for t, c in items for pos, kind in find(t)]
    return rng.choice(cands) if cands else None


# ---------- combinatorial checks ----------


def is_locally_closed(t: Term | ResTerm) -> bool:
    """True when no de Bruijn index points outside the term."""
    for kind, r, d in iter_refs(t):
        outside = d if kind == VAR else d + 1
        if isinstance(r, int) and r >= outside:
            return False
    return True


def multinomial(counts: Iterable[int]) -> int:
    counts = list(counts)
    total = sum(counts)
    out = math.factorial(total)
    for c in counts:
        out //= math.factorial(c)
    return out
