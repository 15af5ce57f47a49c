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
from .resource import (
    SumStep,
    _apply_sum_step,
    normalize_r,
    pick_step,
    reducible_addends,
    step_r,
)
from .suites import SUITES, NoSample, run_suite
from .syntax import BOOL, NAT, Sum, head_redex_pos, mkbag, redexes, size
from .taylor import Solvable, nft_truncated, solvable, taylor_enum
from .textio import (
    ParseError,
    parse_res,
    parse_sum,
    parse_term,
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


def _pos_str(pos) -> str:
    return ".".join(map(str, pos)) if pos else "root"


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


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


# ---------- reduce ----------


def _reduce_lamu(args: argparse.Namespace, src: str) -> int:
    try:
        t = parse_term(src)
    except ParseError as e:
        return _fail_parse(src, e)
    rng = random.Random(args.seed)
    print(f"start: {print_term(t)}")
    for i in range(args.max_steps + 1):
        if args.strategy == "head":
            hit = head_redex_pos(t)
        else:
            rs = redexes(t)
            if not rs:
                hit = None
            elif args.strategy == "leftmost":
                hit = rs[0]
            else:
                hit = rng.choice(rs)
        if hit is None:
            print(f"normal for this strategy after {i} steps")
            return 0
        if i == args.max_steps:
            break
        pos, kind = hit
        t = reduce_redex(t, pos)
        print(f"step {i + 1} [{kind} @ {_pos_str(pos)}]: {print_term(t)}")
    print(f"stopped after {args.max_steps} steps (still reducible)")
    return 0


def _res_head_step(s: Sum):
    for t, c in s.items:
        hit = head_redex_pos(t)
        if hit is not None:
            pos, kind = hit
            return SumStep(t, c, pos, kind)
    return None


def _reduce_res(args: argparse.Namespace, src: str) -> int:
    try:
        s = parse_sum(src, args.semiring)
    except ParseError as e:
        return _fail_parse(src, e)
    rng = random.Random(args.seed)
    print(f"start: {print_sum(s)}")
    for i in range(args.max_steps + 1):
        if args.strategy == "head":
            step = _res_head_step(s)
        elif reducible_addends(s):
            step = pick_step(s, args.strategy, rng)
        else:
            step = None
        if step is None:
            label = "head-normal" if args.strategy == "head" else "normal"
            print(f"{label} after {i} steps")
            return 0
        if i == args.max_steps:
            break
        s = _apply_sum_step(s, step, "coeff", step_r(step.term, step.pos, s.semiring))
        print(
            f"step {i + 1} [{step.kind} @ {_pos_str(step.pos)} in {print_res(step.term)}]: {print_sum(s)}"
        )
    print(f"stopped after {args.max_steps} steps (still reducible)")
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    src = _read_input(args)
    if args.calculus == "lamu":
        return _reduce_lamu(args, src)
    return _reduce_res(args, src)


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
        i = 0
        while reducible_addends(s):
            step = pick_step(s, "leftmost", None)
            s = _apply_sum_step(s, step, "coeff", step_r(step.term, step.pos, s.semiring))
            i += 1
            print(f"step {i} [{step.kind} @ {_pos_str(step.pos)} in {print_res(step.term)}]: {print_sum(s)}")
        nf = s
    else:
        nf = normalize_r(s, args.semiring)
    if args.json:
        _emit_json({"normal_form": to_json(nf)})
    else:
        print(f"normal form: {print_sum(nf)}")
    return 0


# ---------- measure ----------


def _cmd_measure(args: argparse.Namespace) -> int:
    src = _read_input(args)
    try:
        t = parse_res(src)
    except ParseError as e:
        return _fail_parse(src, e)
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


def _cmd_taylor(args: argparse.Namespace) -> int:
    src = _read_input(args)
    try:
        m = parse_term(src)
    except ParseError as e:
        return _fail_parse(src, e)
    approx = taylor_enum(m, args.max_size)
    shown = approx if args.limit is None else approx[: args.limit]
    if args.json:
        _emit_json(
            {
                "max_size": args.max_size,
                "count": len(approx),
                "approximants": [to_json(t) for t in shown],
            }
        )
        return 0
    print(f"approximants of size <= {args.max_size}: {len(approx)}")
    for t in shown:
        print(print_res(t))
    return 0


def _cmd_nft(args: argparse.Namespace) -> int:
    src = _read_input(args)
    try:
        m = parse_term(src)
    except ParseError as e:
        return _fail_parse(src, e)
    nf = mkbag(nft_truncated(m, args.max_size))
    shown = nf if args.limit is None else nf[: args.limit]
    if args.json:
        _emit_json(
            {
                "max_size": args.max_size,
                "count": len(nf),
                "normal_forms": [to_json(t) for t in shown],
            }
        )
        return 0
    print(f"truncated normal forms (size <= {args.max_size}): {len(nf)}")
    for t in shown:
        print(print_res(t))
    return 0


def _cmd_nft_eq(args: argparse.Namespace) -> int:
    try:
        m = parse_term(args.expr1)
    except ParseError as e:
        return _fail_parse(args.expr1, e)
    try:
        n = parse_term(args.expr2)
    except ParseError as e:
        return _fail_parse(args.expr2, e)
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
    src = _read_input(args)
    try:
        m = parse_term(src)
    except ParseError as e:
        return _fail_parse(src, e)
    out = solvable(m, args.fuel)
    if args.json:
        if isinstance(out, Solvable):
            _emit_json({"solvable": True, "steps": out.steps, "hnf": print_term(out.hnf)})
        else:
            _emit_json({"solvable": None, "fuel": out.fuel, "last": print_term(out.term)})
        return 0
    if isinstance(out, Solvable):
        print(f"solvable: head normal form after {out.steps} steps: {print_term(out.hnf)}")
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
    except RecursionError:
        # The parser, printer and engine recurse on the term's structure, so
        # very deep input is beyond them; that is the input's fault (exit 2),
        # not a failed check (exit 1).
        sys.stderr.write("error: input nested too deeply\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
