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
headers (``_parse_binder``), one atom parser (``_parse_atom``) and one
whole-input entry (``_parse_whole``), which gives each ``ParseError`` its
source.  The parser's scope is the binder names of each kind, innermost
last; the lexer reads the character classes that ``syntax`` holds free atoms
to.  The printer and the JSON export keep their own stacks, so any depth of
term prints and exports (the CLI writes an export out from a stack too); the
parser recurses.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from functools import cached_property
from typing import NoReturn

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
    is_digit,
    is_ident_char,
    is_ident_start,
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
    """Syntax error with the half-open span it points at in ``source``, the
    whole text that ``parse_term``, ``parse_res`` or ``parse_sum`` was given
    (as ``json.JSONDecodeError`` keeps ``doc``); None from ``lex`` alone."""

    def __init__(self, message: str, start: int, end: int):
        super().__init__(f"parse error at {start}..{end}: {message}")
        self.message = message
        self.start = start
        self.end = end
        self.source: str | None = None


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


def _scan(src: str, i: int, takes) -> int:
    """The end of the run of characters from ``i`` that ``takes``."""
    while i < len(src) and takes(src[i]):
        i += 1
    return i


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
        # A number, or an identifier: after a quote it is a name (the
        # keyword ``mu`` included), else a variable or the keyword ``mu``.
        quoted = c == "'"
        k = i + quoted
        if is_digit(c):
            kind, j = "NUM", _scan(src, i, is_digit)
        elif k < n and is_ident_start(src[k]):
            j = _scan(src, k + 1, is_ident_char)
            kind = "NAME" if quoted else "MU" if src[k:j] == "mu" else "VAR"
        else:
            what = "expected identifier after quote" if quoted else f"unexpected character {c!r}"
            raise ParseError(what, i, i + 1)
        toks.append(Token(kind, src[k:j], i, j))
        i = j
    toks.append(Token("EOF", "", n, n))
    return toks


# ---------- parser scaffolding ----------


class _Parser:
    """The tokens of one input, the next one's index, and the scope: the
    binders of each kind (``VAR``, ``NAME``) around the next token, by the
    names they were given, innermost last."""

    def __init__(self, src: str):
        self.toks = lex(src)
        self.i = 0
        self.scope: dict[str, list[str]] = {VAR: [], NAME: []}

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, what: str | None = None) -> Token:
        if self.peek().kind != kind:
            self.fail(what or kind)
        return self.next()

    def fail(self, what: str) -> NoReturn:
        t = self.peek()
        raise ParseError(f"expected {what}, found {t.text or 'end of input'!r}", t.start, t.end)

    def ref(self, kind: str, text: str) -> Ref:
        """The index of the innermost binder of ``kind`` named ``text``, or
        the atom ``text`` when none is in scope."""
        names = self.scope[kind]
        return names[::-1].index(text) if text in names else text


def _parse_whole(src: str, rule, *args):
    """``rule(parser, *args)`` on the whole of ``src``.  A parse error
    records ``src`` as its source here, once for every entry point."""
    try:
        p = _Parser(src)
        out = rule(p, *args)
        t = p.peek()
        if t.kind != "EOF":
            raise ParseError(f"unexpected trailing input {t.text!r}", t.start, t.end)
        return out
    except ParseError as e:
        e.source = src
        raise


# ---------- lambda-mu terms and resource terms ----------
#
# The two term grammars differ only in their constructors and in what
# follows the binders: an application chain or a chain of bags.


def _parse_binder(p: _Parser, lam, mu, rest):
    """``\\x. body`` or ``mu 'a.<'b> body`` built by ``lam(body)`` or
    ``mu(named, body)``, the body parsed by this same function with the
    header's binder in scope; with neither header next, ``rest(p)``."""
    kind = p.peek().kind
    if kind == "LAM":
        p.next()
        bound = p.scope[VAR]
        bound.append(p.expect("VAR", "a variable").text)
        p.expect("DOT", "'.'")
        out = lam(_parse_binder(p, lam, mu, rest))
    elif kind == "MU":
        p.next()
        bound = p.scope[NAME]
        bound.append(p.expect("NAME", "a name like 'a").text)
        p.expect("DOT", "'.'")
        p.expect("LT", "'<'")
        named = p.ref(NAME, p.expect("NAME", "a name like 'a").text)
        p.expect("GT", "'>'")
        out = mu(named, _parse_binder(p, lam, mu, rest))
    else:
        return rest(p)
    bound.pop()
    return out


def _parse_atom(p: _Parser, var, inner, noun: str):
    """A variable built by ``var(ref)``, or ``inner`` in parentheses."""
    t = p.peek()
    if t.kind == "VAR":
        p.next()
        return var(p.ref(VAR, t.text))
    if t.kind == "LPAR":
        p.next()
        out = inner(p)
        p.expect("RPAR", "')'")
        return out
    p.fail(noun)


def _parse_term(p: _Parser) -> Term:
    return _parse_binder(p, Lam, Mu, _parse_app)


def _parse_app(p: _Parser) -> Term:
    fun = _parse_atom(p, Var, _parse_term, "a term")
    while p.peek().kind in ("VAR", "LPAR"):
        fun = App(fun, _parse_atom(p, Var, _parse_term, "a term"))
    return fun


def parse_term(src: str) -> Term:
    return _parse_whole(src, _parse_term)


def _parse_res(p: _Parser) -> ResTerm:
    return _parse_binder(p, RLam, RMu, _parse_rchain)


def _parse_rchain(p: _Parser) -> ResTerm:
    out = _parse_atom(p, RVar, _parse_res, "a resource term")
    while True:
        t = p.peek()
        if t.kind == "LBRACK":
            p.next()
            elems: list[ResTerm] = []
            if p.peek().kind != "RBRACK":
                elems.append(_parse_res(p))
                while p.peek().kind == "COMMA":
                    p.next()
                    elems.append(_parse_res(p))
            p.expect("RBRACK", "']'")
            out = RApp(out, elems)
        elif t.kind == "NUM":
            if t.text != "1":
                p.fail("'1' (the empty bag) or '['")
            p.next()
            out = RApp(out, ())
        else:
            return out


def parse_res(src: str) -> ResTerm:
    return _parse_whole(src, _parse_res)


def _parse_sum(p: _Parser, semiring: str) -> Sum:
    if p.peek().text == "0" and p.toks[p.i + 1].kind == "EOF":
        p.next()
        return Sum.zero(semiring)
    items: list[tuple[ResTerm, int]] = []
    while True:
        coeff = 1
        t = p.peek()
        if t.kind == "NUM" and p.toks[p.i + 1].kind == "STAR":
            try:
                coeff = int(t.text)
            except ValueError:  # more digits than ``sys.get_int_max_str_digits()``
                raise ParseError(f"coefficient too long ({len(t.text)} digits)",
                                 t.start, t.end) from None
            p.next()
            p.next()
        items.append((_parse_res(p), coeff))
        if p.peek().kind != "PLUS":
            return Sum(semiring, items)
        p.next()


def parse_sum(src: str, semiring: str = NAT) -> Sum:
    return _parse_whole(src, _parse_sum, semiring)


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
