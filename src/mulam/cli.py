"""Command-line front end.

Exit codes: 0 success, 1 a check found failures (or the compared sets
differ), 2 usage or parse errors.  All output is deterministic for identical
invocations, except the wall-time line of suite reports.  A parse error goes
up to ``main``, which shows it with the text it carries and a caret under
its span.  ``build_parser`` declares each subcommand once, through
``command``, which adds its input arguments, ``--json`` and its dispatch.
"""

from __future__ import annotations

import argparse
import json
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


# ---------- parse ----------


def _cmd_parse(args: argparse.Namespace) -> int:
    src = _read_input(args)
    try:
        term = parse_term(src)
    except ParseError as lamu_err:
        try:
            s = parse_sum(src, NAT)
        except ParseError:
            raise lamu_err from None
        if args.json:
            print(_json_text({"kind": "resource", "value": to_json(s)}))
        else:
            print(f"resource: {print_sum(s)}")
        return 0
    if args.json:
        print(_json_text({"kind": "lamu", "value": to_json(term)}))
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
        x, show, pick = parse_term(src), print_term, _lamu_picker(args.strategy, rng)
        end = "normal for this strategy"
    else:
        x, show = parse_sum(src, args.semiring), print_sum
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
            raise res_err from None
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
        print(_json_text({"normal_form": to_json(nf)}))
    else:
        print(f"normal form: {print_sum(nf)}")
    return 0


# ---------- measure ----------


def _cmd_measure(args: argparse.Namespace) -> int:
    t = parse_res(_read_input(args))
    slack = ms(t)
    layered = bold_ms(t)
    if args.json:
        print(_json_text({
            "size": size(t),
            "mu_degree": mu_degree(t),
            "slack_multiset": list(slack),
            "layered": [list(layered[0]), layered[1], layered[2]],
        }))
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
        print(_json_text({"max_size": args.max_size, "count": len(terms),
                          key: [to_json(t) for t in shown]}))
        return 0
    print(f"{title}: {len(terms)}")
    for t in shown:
        print(print_res(t))
    return 0


def _cmd_taylor(args: argparse.Namespace) -> int:
    m = parse_term(_read_input(args))
    return _emit_terms(args, f"approximants of size <= {args.max_size}", "approximants",
                       taylor_enum(m, args.max_size))


def _cmd_nft(args: argparse.Namespace) -> int:
    m = parse_term(_read_input(args))
    return _emit_terms(args, f"truncated normal forms (size <= {args.max_size})", "normal_forms",
                       mkbag(nft_truncated(m, args.max_size)))


def _cmd_nft_eq(args: argparse.Namespace) -> int:
    m = parse_term(args.expr1)
    n = parse_term(args.expr2)
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
        print(_json_text(payload))
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
    m = parse_term(_read_input(args))
    out = solvable(m, args.fuel)
    if args.json:
        if isinstance(out, Solvable):
            doc = {"solvable": True, "steps": out.steps, "hnf": print_term(out.term)}
        else:
            doc = {"solvable": None, "fuel": out.fuel, "last": print_term(out.term)}
        print(_json_text(doc))
        return 0
    if isinstance(out, Solvable):
        print(f"solvable: head normal form after {out.steps} steps: {print_term(out.term)}")
    else:
        print(f"unknown: no head normal form within {out.fuel} steps")
    return 0


# ---------- check ----------


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        report = run_suite(
            args.suite,
            samples=args.samples,
            seed=args.seed,
            max_term_size=args.max_term_size,
            node_cap=args.node_cap,
        )
    except NoSample as e:
        sys.stderr.write(f"error: {args.suite}: {e}\n")
        return 2
    if args.json:
        print(_json_text(report.as_dict()))
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

    def command(name, func, summary, *options, inputs=True, json=True):
        """Subcommand ``name``, which runs ``func``: the input arguments if
        ``inputs``, then each ``(flag, keywords)`` of ``options``, then
        ``--json`` if ``json``."""
        sp = sub.add_parser(name, help=summary)
        if inputs:
            sp.add_argument("file", nargs="?",
                            help="file holding the expression ('-' or omitted: stdin)")
            sp.add_argument("-e", "--expr", help="expression given inline")
        for flag, keywords in options:
            sp.add_argument(flag, **keywords)
        if json:
            sp.add_argument("--json", action="store_true")
        sp.set_defaults(func=func)

    command("parse", _cmd_parse, "parse and echo in canonical form")
    command("reduce", _cmd_reduce, "step-by-step reduction trace",
            ("--calculus", dict(choices=("lamu", "res"), default="lamu")),
            ("--strategy", dict(choices=("head", "leftmost", "random"), default="leftmost")),
            ("--seed", dict(type=int, default=0)),
            ("--max-steps", dict(type=_int_at_least(0), default=100)),
            ("--semiring", dict(choices=(BOOL, NAT), default=NAT,
                                help="coefficients for --calculus res")),
            json=False)
    command("normalize", _cmd_normalize, "resource normal form",
            ("--semiring", dict(choices=(BOOL, NAT), default=NAT)),
            ("--trace", dict(action="store_true", help="print every leftmost step")))
    command("measure", _cmd_measure, "termination measures of a resource term")
    command("taylor", _cmd_taylor, "finite approximants up to a size bound",
            ("--max-size", dict(type=_int_at_least(0), required=True)),
            ("--limit", dict(type=_int_at_least(0), help="print at most this many")))
    command("nft", _cmd_nft, "truncated normal-form set of the approximants",
            ("--max-size", dict(type=_int_at_least(0), required=True)),
            ("--limit", dict(type=_int_at_least(0))))
    command("nft-eq", _cmd_nft_eq, "compare two truncated normal-form sets",
            ("expr1", {}), ("expr2", {}),
            ("--max-size", dict(type=_int_at_least(0), required=True)), inputs=False)
    command("solvable", _cmd_solvable, "bounded head-reduction query",
            ("--fuel", dict(type=_int_at_least(0), default=1000)))
    command("check", _cmd_check, "run a property suite",
            ("--suite", dict(choices=sorted(SUITES), required=True)),
            ("--samples", dict(type=_int_at_least(0))),
            ("--seed", dict(type=int, default=0)),
            ("--max-term-size", dict(type=_int_at_least(1))),
            ("--node-cap", dict(type=_int_at_least(1), help="graph size guard")),
            inputs=False)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        # The text the error points into, with a caret under its span.
        sys.stderr.write(f"error: {e.message} at {e.start}..{e.end}\n  {e.source}\n"
                         f"  {' ' * e.start}{'^' * max(1, e.end - e.start)}\n")
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
