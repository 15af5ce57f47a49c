"""Command-line front end.

Exit codes: 0 success, 1 a check found failures (or the compared sets
differ), 2 usage or parse errors.  All output is deterministic for identical
invocations, except the wall-time line of suite reports.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .lamu import reduce_redex
from .measures import bold_ms, mu_degree, ms
from .resource import _apply_sum_step, normalize_r, step_r
from .suites import SUITES, NoSample, run_suite
from .syntax import BOOL, NAT, mkbag, pick_redex, size
from .taylor import Solvable, nft_truncated, solvable, taylor_enum
from .textio import (
    ParseError,
    parse_res,
    parse_sum,
    parse_term,
    print_pos,
    print_res,
    print_sum,
    print_term,
    to_json,
)

_ENV_NODE_CAP = "MULAM_NODE_CAP"


def _fail_parse(src: str, err: ParseError) -> int:
    sys.stderr.write(f"error: {err.message} at {err.start}..{err.end}\n")
    sys.stderr.write(f"  {src}\n")
    width = max(1, err.end - err.start)
    sys.stderr.write("  " + " " * err.start + "^" * width + "\n")
    return 2


def _parse(parse, src: str, *args):
    """``parse(src, *args)``.  A parse error is reported here, with a caret
    under its span, and goes on up to ``main``, which returns 2."""
    try:
        return parse(src, *args)
    except ParseError as e:
        _fail_parse(src, e)
        raise


def _read_input(args: argparse.Namespace) -> str:
    if getattr(args, "expr", None) is not None:
        return args.expr
    path = getattr(args, "file", None)
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        reason = e.strerror or str(e)
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    # A usage error, reported like argparse's own: one line, exit 2.
    sys.stderr.write(f"error: cannot read {path}: {reason}\n")
    raise SystemExit(2)


def _int_at_least(low: int):
    """An argparse type for integers no smaller than ``low``, so that a bad
    bound is a usage error (exit 2) rather than a crash or a silent no-op."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _add_input_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("file", nargs="?",
                    help="file holding the expression ('-' or omitted: stdin)")
    sp.add_argument("-e", "--expr", help="expression given inline")


def _json_text(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` for payloads whose
    keys are strings, with containers written from an explicit stack so
    that a deep payload (an exported term) does not recurse.  The stack
    holds (value, level) pairs and the text between them, pushed in
    reverse; keys and scalars go to ``json.dumps``."""
    out: list[str] = []
    stack: list = [(payload, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        value, level = item
        if isinstance(value, dict):
            entries = [(json.dumps(k) + ": ", v) for k, v in sorted(value.items())]
            opening, closing = "{", "}"
        elif isinstance(value, (list, tuple)):
            entries = [("", v) for v in value]
            opening, closing = "[", "]"
        else:
            out.append(json.dumps(value))
            continue
        if not entries:
            out.append(opening + closing)
            continue
        sep = "\n" + "  " * (level + 1)
        stack.append("\n" + "  " * level + closing)
        for i in reversed(range(len(entries))):
            key, v = entries[i]
            stack.append((v, level + 1))
            stack.append(("," if i else opening) + sep + key)
    return "".join(out)


def _emit_json(payload) -> None:
    print(_json_text(payload))


# ---------- parse ----------


def _cmd_parse(args: argparse.Namespace) -> int:
    src = _read_input(args)
    try:
        term = parse_term(src)
    except ParseError as lamu_err:
        try:
            s = parse_sum(src, NAT)
        except ParseError:
            return _fail_parse(src, lamu_err)
        if args.json:
            _emit_json({"kind": "resource", "value": to_json(s)})
        else:
            print(f"resource: {print_sum(s)}")
        return 0
    if args.json:
        _emit_json({"kind": "lamu", "value": to_json(term)})
    else:
        print(f"lamu: {print_term(term)}")
    return 0


# ---------- reduce / normalize --trace ----------


def _trace(x, pick, show, max_steps: int | None):
    """Print each step of a run from ``x``: ``pick(x)`` is None when no step
    applies, else the step's label and a function that takes it.  Stops
    after ``max_steps`` steps, or only where no step applies when that is
    None.  Returns the last state, the number of steps, and whether no step
    applies to it."""
    i = 0
    while (hit := pick(x)) is not None:
        if i == max_steps:
            return x, i, False
        label, take = hit
        x = take()
        i += 1
        print(f"step {i} [{label}]: {show(x)}")
    return x, i, True


def _lamu_picker(strategy: str, rng: random.Random):
    def pick(t):
        hit = pick_redex(((t, 1),), strategy, rng)
        if hit is None:
            return None
        _, _, pos, kind = hit
        return f"{kind} @ {print_pos(pos)}", lambda: reduce_redex(t, pos)

    return pick


def _res_picker(strategy: str, rng: random.Random | None):
    """The steps ``strategy`` takes on a sum, each addend stepping with its
    whole coefficient."""

    def pick(s):
        hit = pick_redex(s.items, strategy, rng)
        if hit is None:
            return None
        t, c, pos, kind = hit
        return (f"{kind} @ {print_pos(pos)} in {print_res(t)}",
                lambda: _apply_sum_step(s, t, c, "coeff", step_r(t, pos, s.semiring)))

    return pick


def _cmd_reduce(args: argparse.Namespace) -> int:
    src = _read_input(args)
    rng = random.Random(args.seed)
    if args.calculus == "lamu":
        x, show, pick = _parse(parse_term, src), print_term, _lamu_picker(args.strategy, rng)
        end = "normal for this strategy"
    else:
        x, show = _parse(parse_sum, src, args.semiring), print_sum
        pick = _res_picker(args.strategy, rng)
        end = "head-normal" if args.strategy == "head" else "normal"
    print(f"start: {show(x)}")
    _, i, done = _trace(x, pick, show, args.max_steps)
    print(f"{end} after {i} steps" if done else f"stopped after {i} steps (still reducible)")
    return 0


# ---------- normalize ----------


def _cmd_normalize(args: argparse.Namespace) -> int:
    src = _read_input(args)
    try:
        s = parse_sum(src, args.semiring)
    except ParseError as res_err:
        try:
            parse_term(src)
        except ParseError:
            return _fail_parse(src, res_err)
        sys.stderr.write(
            "error: this is a control-operator term, not a resource sum; "
            "its reduction is not finitary -- use 'reduce --calculus lamu'\n"
        )
        return 2
    if args.trace:
        nf = _trace(s, _res_picker("leftmost", None), print_sum, None)[0]
    else:
        nf = normalize_r(s, args.semiring)
    if args.json:
        _emit_json({"normal_form": to_json(nf)})
    else:
        print(f"normal form: {print_sum(nf)}")
    return 0


# ---------- measure ----------


def _cmd_measure(args: argparse.Namespace) -> int:
    t = _parse(parse_res, _read_input(args))
    slack = ms(t)
    layered = bold_ms(t)
    if args.json:
        _emit_json(
            {
                "size": size(t),
                "mu_degree": mu_degree(t),
                "slack_multiset": list(slack),
                "layered": [list(layered[0]), layered[1], layered[2]],
            }
        )
        return 0
    print(f"term: {print_res(t)}")
    print(f"size: {size(t)}")
    print(f"mu degree: {mu_degree(t)}")
    print(f"slack multiset: {list(slack)}")
    print(f"layered measure: ({list(layered[0])}, {layered[1]}, {layered[2]})")
    return 0


# ---------- taylor / nft / nft-eq ----------


def _emit_terms(args: argparse.Namespace, title: str, key: str, terms) -> int:
    """List ``terms`` under ``title`` (under ``key`` with ``--json``), at
    most ``--limit`` of them, after their count."""
    shown = terms if args.limit is None else terms[: args.limit]
    if args.json:
        _emit_json({"max_size": args.max_size, "count": len(terms),
                    key: [to_json(t) for t in shown]})
        return 0
    print(f"{title}: {len(terms)}")
    for t in shown:
        print(print_res(t))
    return 0


def _cmd_taylor(args: argparse.Namespace) -> int:
    m = _parse(parse_term, _read_input(args))
    return _emit_terms(args, f"approximants of size <= {args.max_size}", "approximants",
                       taylor_enum(m, args.max_size))


def _cmd_nft(args: argparse.Namespace) -> int:
    m = _parse(parse_term, _read_input(args))
    return _emit_terms(args, f"truncated normal forms (size <= {args.max_size})", "normal_forms",
                       mkbag(nft_truncated(m, args.max_size)))


def _cmd_nft_eq(args: argparse.Namespace) -> int:
    m = _parse(parse_term, args.expr1)
    n = _parse(parse_term, args.expr2)
    a = nft_truncated(m, args.max_size)
    b = nft_truncated(n, args.max_size)
    equal = a == b
    if args.json:
        payload = {"max_size": args.max_size, "equal": equal}
        if not equal:
            left = mkbag(a - b)
            right = mkbag(b - a)
            payload["only_left"] = [print_res(t) for t in left]
            payload["only_right"] = [print_res(t) for t in right]
        _emit_json(payload)
        return 0 if equal else 1
    if equal:
        print(f"equal up to size {args.max_size}")
        return 0
    print(f"different up to size {args.max_size}")
    for t in mkbag(a - b):
        print(f"  only left:  {print_res(t)}")
    for t in mkbag(b - a):
        print(f"  only right: {print_res(t)}")
    return 1


# ---------- solvable ----------


def _cmd_solvable(args: argparse.Namespace) -> int:
    m = _parse(parse_term, _read_input(args))
    out = solvable(m, args.fuel)
    if args.json:
        if isinstance(out, Solvable):
            _emit_json({"solvable": True, "steps": out.steps, "hnf": print_term(out.term)})
        else:
            _emit_json({"solvable": None, "fuel": out.fuel, "last": print_term(out.term)})
        return 0
    if isinstance(out, Solvable):
        print(f"solvable: head normal form after {out.steps} steps: {print_term(out.term)}")
    else:
        print(f"unknown: no head normal form within {out.fuel} steps")
    return 0


# ---------- check ----------


def _cmd_check(args: argparse.Namespace) -> int:
    node_cap = args.node_cap
    if node_cap is None:
        env = os.environ.get(_ENV_NODE_CAP)
        if env is not None:
            try:
                node_cap = _int_at_least(1)(env)
            except argparse.ArgumentTypeError as e:
                sys.stderr.write(f"error: {_ENV_NODE_CAP}: {e}\n")
                return 2
    try:
        report = run_suite(
            args.suite,
            samples=args.samples,
            seed=args.seed,
            max_term_size=args.max_term_size,
            node_cap=node_cap,
        )
    except NoSample as e:
        sys.stderr.write(f"error: {args.suite}: {e}\n")
        return 2
    if args.json:
        _emit_json(report.as_dict())
    else:
        print(report.format_text())
    return 0 if report.ok else 1


# ---------- argument parser ----------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mulam",
        description="lambda-mu calculus and its resource fragment: parsing, "
        "reduction, measures, approximants, and property suites",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse and echo in canonical form")
    _add_input_args(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_parse)

    sp = sub.add_parser("reduce", help="step-by-step reduction trace")
    _add_input_args(sp)
    sp.add_argument("--calculus", choices=("lamu", "res"), default="lamu")
    sp.add_argument("--strategy", choices=("head", "leftmost", "random"),
                    default="leftmost")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-steps", type=_int_at_least(0), default=100)
    sp.add_argument("--semiring", choices=(BOOL, NAT), default=NAT,
                    help="coefficients for --calculus res")
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("normalize", help="resource normal form")
    _add_input_args(sp)
    sp.add_argument("--semiring", choices=(BOOL, NAT), default=NAT)
    sp.add_argument("--trace", action="store_true",
                    help="print every leftmost step")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_normalize)

    sp = sub.add_parser("measure", help="termination measures of a resource term")
    _add_input_args(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_measure)

    sp = sub.add_parser("taylor", help="finite approximants up to a size bound")
    _add_input_args(sp)
    sp.add_argument("--max-size", type=_int_at_least(0), required=True)
    sp.add_argument("--limit", type=_int_at_least(0), default=None,
                    help="print at most this many")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_taylor)

    sp = sub.add_parser("nft", help="truncated normal-form set of the approximants")
    _add_input_args(sp)
    sp.add_argument("--max-size", type=_int_at_least(0), required=True)
    sp.add_argument("--limit", type=_int_at_least(0), default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_nft)

    sp = sub.add_parser("nft-eq", help="compare two truncated normal-form sets")
    sp.add_argument("expr1")
    sp.add_argument("expr2")
    sp.add_argument("--max-size", type=_int_at_least(0), required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_nft_eq)

    sp = sub.add_parser("solvable", help="bounded head-reduction query")
    _add_input_args(sp)
    sp.add_argument("--fuel", type=_int_at_least(0), default=1000)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_solvable)

    sp = sub.add_parser("check", help="run a property suite")
    sp.add_argument("--suite", choices=sorted(SUITES), required=True)
    sp.add_argument("--samples", type=_int_at_least(0), default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-term-size", type=_int_at_least(1), default=None)
    sp.add_argument("--node-cap", type=_int_at_least(1), default=None,
                    help=f"graph size guard (also via ${_ENV_NODE_CAP})")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_check)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError:
        # Already reported by ``_parse``.
        return 2
    except RecursionError:
        # The parser, ``map_refs``, ``lamu.named_app``, the resource
        # contraction's linear walk (``resource._linear``) and ``taylor``'s
        # walks still recurse on the term's structure, so very deep input is
        # beyond them; that is the input's fault (exit 2), not a failed check
        # (exit 1).  The printer, ``to_json`` and the ``--json`` writer do
        # not recurse.
        sys.stderr.write("error: input nested too deeply\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
