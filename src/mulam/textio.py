"""Concrete syntax: parsing with source spans, deterministic printing, JSON.

Grammar (ASCII; whitespace insensitive; ``mu`` is a keyword):

    term    := '\\' VAR '.' term
             | 'mu' NAME '.' '<' NAME '>' term      (bodies extend maximally)
             | atom atom*                            (application, left assoc)
    atom    := VAR | '(' term ')'

    rterm   := '\\' VAR '.' rterm
             | 'mu' NAME '.' '<' NAME '>' rterm
             | ratom rarg*
    rarg    := '[' (rterm (',' rterm)*)? ']' | '1'   ('1' is the empty bag)
    ratom   := VAR | '(' rterm ')'

    sum     := '0' | addend ('+' addend)*
    addend  := (NUM '*')? rterm

    VAR  := [a-z][A-Za-z0-9_]*   NAME := '\\'' VAR   NUM := [0-9]+

Printers choose binder display names deterministically (never clashing with
a free atom or an enclosing binder), so printing is a pure function of the
term and parsing is its inverse.

Each walk is written once for both term syntaxes: one printer (``_print``,
behind ``print_term``, ``print_res`` and ``print_sum``), one JSON export
(``_json``, behind ``to_json`` and ``sum_to_json``), one parser of binder
headers (``_parse_binder``) and one atom parser (``_parse_atom``).  The
printer and the JSON export keep their own stacks, so any depth of term
prints and exports (the CLI writes an export out from a stack too); the
parser recurses.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from functools import cached_property

from .syntax import (
    App,
    Lam,
    Mu,
    NAME,
    NAT,
    RApp,
    Ref,
    RLam,
    RMu,
    RVar,
    ResTerm,
    Sum,
    Term,
    VAR,
    Var,
    iter_refs,
)

# ---------- lexer ----------


class Token:
    __slots__ = ("kind", "text", "start", "end")

    def __init__(self, kind: str, text: str, start: int, end: int):
        self.kind = kind
        self.text = text
        self.start = start
        self.end = end


class ParseError(ValueError):
    """Syntax error with the half-open source span it points at."""

    def __init__(self, message: str, start: int, end: int):
        super().__init__(f"parse error at {start}..{end}: {message}")
        self.message = message
        self.start = start
        self.end = end


_PUNCT = {
    "\\": "LAM",
    ".": "DOT",
    "(": "LPAR",
    ")": "RPAR",
    "[": "LBRACK",
    "]": "RBRACK",
    ",": "COMMA",
    "+": "PLUS",
    "*": "STAR",
    "<": "LT",
    ">": "GT",
}


def _is_ident_start(c: str) -> bool:
    return "a" <= c <= "z"


def _is_digit(c: str) -> bool:
    # ASCII only, as NUM says: ``str.isdigit`` also takes superscripts and
    # other scripts' digits.
    return "0" <= c <= "9"


def _is_ident_char(c: str) -> bool:
    return "a" <= c <= "z" or "A" <= c <= "Z" or "0" <= c <= "9" or c == "_"


def lex(src: str) -> list[Token]:
    toks: list[Token] = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            toks.append(Token(_PUNCT[c], c, i, i + 1))
            i += 1
            continue
        if _is_digit(c):
            j = i
            while j < n and _is_digit(src[j]):
                j += 1
            toks.append(Token("NUM", src[i:j], i, j))
            i = j
            continue
        # One scan for every identifier: after a quote it is a name (the
        # keyword ``mu`` included), else a variable or the keyword ``mu``.
        quoted = c == "'"
        k = i + 1 if quoted else i
        if k < n and _is_ident_start(src[k]):
            j = k + 1
            while j < n and _is_ident_char(src[j]):
                j += 1
            word = src[k:j]
            toks.append(Token("NAME" if quoted else "MU" if word == "mu" else "VAR", word, i, j))
            i = j
            continue
        what = "expected identifier after quote" if quoted else f"unexpected character {c!r}"
        raise ParseError(what, i, i + 1)
    toks.append(Token("EOF", "", n, n))
    return toks


# ---------- parser scaffolding ----------


class _Parser:
    def __init__(self, src: str):
        self.toks = lex(src)
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind:
            found = t.text or "end of input"
            raise ParseError(f"expected {what or kind}, found {found!r}", t.start, t.end)
        return self.next()

    def done(self) -> None:
        t = self.peek()
        if t.kind != "EOF":
            raise ParseError(f"unexpected trailing input {t.text!r}", t.start, t.end)


class _Scope:
    """Name-resolution environment shared by both term parsers."""

    __slots__ = ("venv", "nenv", "ld", "nd")

    def __init__(self, venv: dict[str, int], nenv: dict[str, int], ld: int, nd: int):
        self.venv = venv
        self.nenv = nenv
        self.ld = ld
        self.nd = nd

    def push_var(self, x: str) -> "_Scope":
        return _Scope({**self.venv, x: self.ld}, self.nenv, self.ld + 1, self.nd)

    def push_name(self, a: str) -> "_Scope":
        return _Scope(self.venv, {**self.nenv, a: self.nd}, self.ld, self.nd + 1)

    def var_ref(self, x: str) -> Ref:
        if x in self.venv:
            return self.ld - 1 - self.venv[x]
        return x


def _empty_scope() -> _Scope:
    return _Scope({}, {}, 0, 0)


# ---------- lambda-mu terms and resource terms ----------
#
# The two term grammars differ only in their constructors and in what
# follows the binders: an application chain or a chain of bags.


def _parse_binder(p: _Parser, sc: _Scope, lam, mu, rest):
    """``\\x. body`` or ``mu 'a.<'b> body`` built by ``lam(body)`` or
    ``mu(named, body)``, the body parsed by this same function in the scope
    its header pushes; with neither header next, ``rest(p, sc)``."""
    kind = p.peek().kind
    if kind == "LAM":
        p.next()
        x = p.expect("VAR", "a variable").text
        p.expect("DOT", "'.'")
        return lam(_parse_binder(p, sc.push_var(x), lam, mu, rest))
    if kind == "MU":
        p.next()
        a = p.expect("NAME", "a name like 'a").text
        p.expect("DOT", "'.'")
        p.expect("LT", "'<'")
        e = p.expect("NAME", "a name like 'a").text
        p.expect("GT", "'>'")
        inner = sc.push_name(a)
        named = (inner.nd - 1 - inner.nenv[e]) if e in inner.nenv else e
        return mu(named, _parse_binder(p, inner, lam, mu, rest))
    return rest(p, sc)


def _parse_atom(p: _Parser, sc: _Scope, var, inner, noun: str):
    """A variable built by ``var(ref)``, or ``inner`` in parentheses."""
    t = p.peek()
    if t.kind == "VAR":
        p.next()
        return var(sc.var_ref(t.text))
    if t.kind == "LPAR":
        p.next()
        out = inner(p, sc)
        p.expect("RPAR", "')'")
        return out
    found = t.text or "end of input"
    raise ParseError(f"expected {noun}, found {found!r}", t.start, t.end)


def _parse_term(p: _Parser, sc: _Scope) -> Term:
    return _parse_binder(p, sc, Lam, Mu, _parse_app)


def _parse_app(p: _Parser, sc: _Scope) -> Term:
    fun = _parse_atom(p, sc, Var, _parse_term, "a term")
    while p.peek().kind in ("VAR", "LPAR"):
        fun = App(fun, _parse_atom(p, sc, Var, _parse_term, "a term"))
    return fun


def parse_term(src: str) -> Term:
    p = _Parser(src)
    out = _parse_term(p, _empty_scope())
    p.done()
    return out


def _parse_res(p: _Parser, sc: _Scope) -> ResTerm:
    return _parse_binder(p, sc, RLam, RMu, _parse_rchain)


def _parse_rchain(p: _Parser, sc: _Scope) -> ResTerm:
    out = _parse_atom(p, sc, RVar, _parse_res, "a resource term")
    while True:
        t = p.peek()
        if t.kind == "LBRACK":
            p.next()
            elems: list[ResTerm] = []
            if p.peek().kind != "RBRACK":
                elems.append(_parse_res(p, sc))
                while p.peek().kind == "COMMA":
                    p.next()
                    elems.append(_parse_res(p, sc))
            p.expect("RBRACK", "']'")
            out = RApp(out, elems)
        elif t.kind == "NUM":
            if t.text != "1":
                raise ParseError(
                    f"expected '1' (the empty bag) or '[', found {t.text!r}",
                    t.start,
                    t.end,
                )
            p.next()
            out = RApp(out, ())
        else:
            return out


def parse_res(src: str) -> ResTerm:
    p = _Parser(src)
    out = _parse_res(p, _empty_scope())
    p.done()
    return out


def parse_sum(src: str, semiring: str = NAT) -> Sum:
    p = _Parser(src)
    t = p.peek()
    if t.kind == "NUM" and t.text == "0":
        nxt = p.toks[p.i + 1]
        if nxt.kind == "EOF":
            return Sum.zero(semiring)
    items: list[tuple[ResTerm, int]] = []
    while True:
        coeff = 1
        t = p.peek()
        if t.kind == "NUM" and p.toks[p.i + 1].kind == "STAR":
            coeff = int(t.text)
            p.next()
            p.next()
        items.append((_parse_res(p, _empty_scope()), coeff))
        if p.peek().kind != "PLUS":
            break
        p.next()
    p.done()
    return Sum(semiring, items)


# ---------- printers ----------

_VAR_BASES = ("x", "y", "z", "u", "v", "w")
_NAME_BASES = ("a", "b", "g", "d", "e", "h")


def _candidates(bases: tuple[str, ...]):
    yield from bases
    for k in itertools.count(1):
        for b in bases:
            yield f"{b}{k}"


_BASES = {VAR: _VAR_BASES, NAME: _NAME_BASES}


class _Namer:
    """Deterministic display names for binders: structure decides, nothing
    else, and no choice ever collides with a free atom or an active binder.

    A binder with ``k`` binders of its kind above it is shown as the k-th
    candidate (from 0) that is not free in the term: the binders above took
    the ones before it, so it is the first candidate clear of the free atoms
    and of every active binder.  ``shown`` lists those names per kind and
    grows on demand.  The free atoms are collected when the first binder is
    named, so a term without binders is never walked for them."""

    def __init__(self, t: Term | ResTerm):
        self._term = t
        self.shown: dict[str, list[str]] = {VAR: [], NAME: []}
        self._unused: dict[str, Iterator[str]] = {}

    @cached_property
    def _free(self) -> dict[str, set[str]]:
        free: dict[str, set[str]] = {VAR: set(), NAME: set()}
        for kind, r, _ in iter_refs(self._term):
            if type(r) is str:
                free[kind].add(r)
        return free

    def fresh(self, kind: str, depth: int) -> str:
        """The name of a binder of ``kind`` below ``depth`` others of its
        kind; those have been named, so ``depth`` is at most one past the
        end of the list."""
        names = self.shown[kind]
        if depth == len(names):
            unused = self._unused.get(kind)
            if unused is None:
                free = self._free[kind]
                unused = self._unused[kind] = (
                    c for c in _candidates(_BASES[kind]) if c not in free)
            names.append(next(unused))
        return names[depth]


def _disp_ref(ref: Ref, names: list[str], depth: int) -> str:
    """A reference below ``depth`` binders of its kind, whose display names
    are ``names[:depth]``, outermost first."""
    if isinstance(ref, str):
        return ref
    if 0 <= ref < depth:
        return names[depth - 1 - ref]
    # Dangling reference: a subterm shown on its own, cut below its binder
    # (error messages show the offending subterm).  '#' is not lexable, so
    # this cannot be mistaken for a canonical printing.
    return f"#{ref}"


# Both walks keep their own stack, so a deep term prints as well as a
# shallow one.  A node's scope is the number of lambda and of mu binders
# above it (``dv`` and ``dn``); the namer's lists hold their names.


def _print(t: Term | ResTerm) -> str:
    """The printer of both syntaxes: the text of a node is pieces of text
    and its children's texts, in order, so each node pushes them reversed
    onto a stack whose texts are written as they come off."""
    nm = _Namer(t)
    vnames, nnames = nm.shown[VAR], nm.shown[NAME]
    out: list[str] = []
    stack: list = [(t, 0, 0)]
    push = stack.append
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        u, dv, dn = item
        cls = type(u)
        if cls is Var or cls is RVar:
            out.append(_disp_ref(u.ref, vnames, dv))
        elif cls is Lam or cls is RLam:
            out.append(f"\\{nm.fresh(VAR, dv)}.")
            push((u.body, dv + 1, dn))
        elif cls is Mu or cls is RMu:
            a = nm.fresh(NAME, dn)
            out.append(f"mu '{a}.<'{_disp_ref(u.named, nnames, dn + 1)}> ")
            push((u.body, dv, dn + 1))
        else:
            if cls is App:
                f, arg = u.fun, u.arg
                if type(arg) is Var:
                    push((arg, dv, dn))
                    push(" ")
                else:
                    push(")")
                    push((arg, dv, dn))
                    push(" (")
            else:
                f, bag = u.head, u.bag
                if not bag:
                    push(" 1")
                else:
                    push("]")
                    push((bag[-1], dv, dn))
                    for e in bag[-2::-1]:
                        push(",")
                        push((e, dv, dn))
                    push("[")
            ft = type(f)
            if ft is Lam or ft is Mu or ft is RLam or ft is RMu:
                push(")")
                push((f, dv, dn))
                push("(")
            else:
                push((f, dv, dn))
    return "".join(out)


def print_term(t: Term) -> str:
    return _print(t)


def print_res(t: ResTerm) -> str:
    return _print(t)


def print_pos(pos: tuple[int, ...]) -> str:
    """A position as its child indices joined by dots; the empty one is
    "root"."""
    return ".".join(map(str, pos)) if pos else "root"


def print_sum(s: Sum) -> str:
    if s.is_zero:
        return "0"
    parts = []
    for t, c in s.items:
        rendered = _print(t)
        parts.append(rendered if c == 1 else f"{c}*{rendered}")
    return " + ".join(parts)


# ---------- JSON export ----------


def _json(t: Term | ResTerm) -> dict:
    """The JSON export of both syntaxes, with the printer's binder names.
    Each node's dict is made with its children's slots empty, and each
    child on the stack fills its slot when it comes off."""
    nm = _Namer(t)
    vnames, nnames = nm.shown[VAR], nm.shown[NAME]
    root: list = [None]
    stack: list = [(t, 0, 0, root, 0)]
    push = stack.append
    while stack:
        u, dv, dn, into, key = stack.pop()
        cls = type(u)
        if cls is Var or cls is RVar:
            d = {"tag": "var", "name": _disp_ref(u.ref, vnames, dv)}
        elif cls is Lam or cls is RLam:
            d = {"tag": "lam", "binder": nm.fresh(VAR, dv), "body": None}
            push((u.body, dv + 1, dn, d, "body"))
        elif cls is Mu or cls is RMu:
            a = nm.fresh(NAME, dn)
            d = {"tag": "mu", "binder": a, "named": _disp_ref(u.named, nnames, dn + 1),
                 "body": None}
            push((u.body, dv, dn + 1, d, "body"))
        elif cls is App:
            d = {"tag": "app", "fun": None, "arg": None}
            push((u.arg, dv, dn, d, "arg"))
            push((u.fun, dv, dn, d, "fun"))
        else:
            bag = [None] * len(u.bag)
            d = {"tag": "bagapp", "head": None, "bag": bag}
            for i, e in enumerate(u.bag):
                push((e, dv, dn, bag, i))
            push((u.head, dv, dn, d, "head"))
        into[key] = d
    return root[0]


def sum_to_json(s: Sum) -> dict:
    return {
        "tag": "sum",
        "semiring": s.semiring,
        "addends": [{"coeff": c, "term": _json(t)} for t, c in s.items],
    }


def to_json(value) -> dict:
    if isinstance(value, Sum):
        return sum_to_json(value)
    if isinstance(value, (Term, ResTerm)):
        return _json(value)
    raise TypeError(f"cannot export {type(value).__name__}")
