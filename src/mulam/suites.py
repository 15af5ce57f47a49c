"""Randomized property suites and the fixed counterexample pack.

Each suite draws seeded samples, checks one family of facts, and returns a
SuiteReport whose failure records carry enough to replay the sample by hand
(derived seed, printed inputs, expected vs actual).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .combinatorics import weak_compositions_with_counts
from .gen import gen_bag, gen_res, gen_term
from .lamu import reduce_redex
from .measures import bold_ms, compare_bold
from .oracle import GraphOverflow, explore, reachable_sums, unique_sink
from .resource import (
    _apply_sum_step,
    choose_step,
    contract_res,
    linear_named_app,
    linear_named_app_named,
    linear_subst,
    normalize_r,
    reducible_addends,
    step_r,
)
from .syntax import (
    BOOL,
    NAT,
    Bag,
    Pos,
    RApp,
    RLam,
    RVar,
    ResTerm,
    Sum,
    SumBuilder,
    Term,
    deg_bag,
    degree,
    free_vars,
    lift_app,
    mkbag,
    open_binder,
    redexes,
    rename_name,
)
from .taylor import taylor_enum, taylor_member
from .textio import parse_res, print_res, print_sum, print_term

# ---------- reports ----------


@dataclass
class Failure:
    sample: int
    seed: int
    input: str
    expected: str
    actual: str
    note: str = ""

    def as_dict(self) -> dict:
        d = {
            "sample": self.sample,
            "seed": self.seed,
            "input": self.input,
            "expected": self.expected,
            "actual": self.actual,
        }
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class SuiteReport:
    suite: str
    samples: int
    failures: list[Failure] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "samples": self.samples,
            "failures": [f.as_dict() for f in self.failures],
            "wall_time": self.wall_time,
        }

    def format_text(self) -> str:
        lines = [
            f"suite: {self.suite}",
            f"samples: {self.samples}",
            f"failures: {len(self.failures)}",
        ]
        for f in self.failures:
            lines.append(f"  - sample {f.sample} (seed {f.seed})")
            if f.note:
                lines.append(f"    note: {f.note}")
            lines.append(f"    input: {f.input}")
            lines.append(f"    expected: {f.expected}")
            lines.append(f"    actual: {f.actual}")
        lines.append(f"wall time: {self.wall_time:.2f}s")
        return "\n".join(lines)


def _sample_seed(seed: int, i: int) -> int:
    # Spread per-sample seeds so neighbouring suites never share streams.
    return seed * 1_000_003 + i


# ---------- strong normalization + measure ----------

_STRATEGIES = ("leftmost", "rightmost", "random")
_STEP_CAP = 200_000


def sn_suite(samples: int = 1000, seed: int = 0, max_term_size: int = 30) -> SuiteReport:
    """Every strategy terminates and the layered measure drops at each step."""
    t0 = time.perf_counter()
    report = SuiteReport("sn", samples)
    for i in range(samples):
        si = _sample_seed(seed, i)
        t = gen_res(random.Random(si), max_term_size)
        shown = print_res(t)
        for sidx, strategy in enumerate(_STRATEGIES):
            rng = random.Random(si * 4 + sidx + 1)
            s = Sum.unit(t, NAT)
            steps = 0
            while cands := reducible_addends(s):
                if steps >= _STEP_CAP:
                    report.failures.append(
                        Failure(i, si, shown, f"normal form within {_STEP_CAP} steps",
                                "still reducible", note=f"strategy={strategy}")
                    )
                    break
                step = choose_step(cands, strategy, rng)
                before = bold_ms(step.term)
                reduct = step_r(step.term, step.pos, NAT)
                bad = [u for u, _ in reduct.items if compare_bold(bold_ms(u), before) >= 0]
                if bad:
                    report.failures.append(
                        Failure(i, si, shown,
                                f"measure below {before}",
                                f"{print_res(bad[0])} has {bold_ms(bad[0])}",
                                note=f"strategy={strategy} stepped={print_res(step.term)} pos={step.pos}")
                    )
                    break
                s = _apply_sum_step(s, step, "coeff", reduct)
                steps += 1
    report.wall_time = time.perf_counter() - t0
    return report


# ---------- confluence / support ----------


def confluence_suite(
    samples: int = 500,
    seed: int = 0,
    max_term_size: int = 14,
    node_cap: int = 50_000,
) -> SuiteReport:
    """Exhaustive reduction graphs have one sink, the engine agrees with it,
    and forgetting exact counts lands on the boolean normal form."""
    t0 = time.perf_counter()
    report = SuiteReport("confluence", samples)
    for i in range(samples):
        si = _sample_seed(seed, i)
        t = gen_res(random.Random(si), max_term_size)
        shown = print_res(t)
        nfs: dict[str, Sum] = {}
        for semiring in (BOOL, NAT):
            try:
                g = explore(t, semiring, node_cap=node_cap)
            except GraphOverflow as e:
                report.failures.append(
                    Failure(i, si, shown, f"graph within {node_cap} nodes",
                            f"overflow at {e.visited}", note=f"semiring={semiring}")
                )
                break
            sink = unique_sink(g)
            if sink is None:
                report.failures.append(
                    Failure(i, si, shown, "exactly one sink",
                            f"{len(g.sinks)} sinks", note=f"semiring={semiring}")
                )
                break
            nf = normalize_r(t, semiring)
            nfs[semiring] = nf
            if nf != sink:
                report.failures.append(
                    Failure(i, si, shown, print_sum(sink), print_sum(nf),
                            note=f"engine vs oracle, semiring={semiring}")
                )
                break
        else:
            if nfs[NAT].support() != nfs[BOOL]:
                report.failures.append(
                    Failure(i, si, shown, print_sum(nfs[BOOL]),
                            print_sum(nfs[NAT].support()),
                            note="support of exact-count normal form")
                )
    report.wall_time = time.perf_counter() - t0
    return report


def support_suite(samples: int = 500, seed: int = 0, max_term_size: int = 14) -> SuiteReport:
    """support(exact-count normal form) = boolean normal form, engine only."""
    t0 = time.perf_counter()
    report = SuiteReport("support", samples)
    for i in range(samples):
        si = _sample_seed(seed, i)
        t = gen_res(random.Random(si), max_term_size)
        got = normalize_r(t, NAT).support()
        want = normalize_r(t, BOOL)
        if got != want:
            report.failures.append(
                Failure(i, si, print_res(t), print_sum(want), print_sum(got))
            )
    report.wall_time = time.perf_counter() - t0
    return report


# ---------- simulation ----------


def mirror_step(t: ResTerm, pos: Pos, semiring: str) -> Sum:
    """Contract, inside an approximant, every copy of the redex that sits at
    the given position of the approximated term.

    Positions through an application argument fan out to all bag elements,
    so the result is one simultaneous multi-step of the resource calculus.
    A position the approximant does not have (a child other than 0 under a
    binder, other than 0 or 1 at an application, or any below a variable),
    or one that ends at a non-redex, is a ``ValueError``.
    """
    return _mirror(t, pos, 0, semiring)


def _mirror(t: ResTerm, pos: Pos, depth: int, semiring: str) -> Sum:
    # ``t`` sits at ``pos[:depth]`` of the approximant.
    if depth == len(pos):
        return contract_res(t, semiring)  # raises on a non-redex
    c = pos[depth]
    if type(t) is RVar:
        raise ValueError(f"no position {pos} in the approximant: a variable at {pos[:depth]}")
    if type(t) is RApp:
        h, bag = t.head, t.bag
        if c == 0:
            return _mirror(h, pos, depth + 1, semiring).map(lambda w: RApp(w, bag))
        _check_child(c, 1, pos, depth)
        if not bag:
            return Sum.unit(t, semiring)
        sums = [_mirror(e, pos, depth + 1, semiring) for e in bag]
        return lift_app(Sum.unit(h, semiring), sums)
    _check_child(c, 0, pos, depth)
    body, close = open_binder(t)
    return _mirror(body, pos, depth + 1, semiring).map(close)


def _check_child(c: int, want: int, pos: Pos, depth: int) -> None:
    if c != want:
        raise ValueError(f"no position {pos} in the approximant: child {c} at {pos[:depth]}")


def simulation_suite(
    samples: int = 200,
    seed: int = 0,
    max_term_size: int = 10,
    budget: int = 8,
) -> SuiteReport:
    """One step upstairs is matched downstairs: contracting the mirrored
    redex in any approximant lands inside the approximants of the reduct."""
    t0 = time.perf_counter()
    report = SuiteReport("simulation", samples)
    for i in range(samples):
        si = _sample_seed(seed, i)
        rng = random.Random(si)
        for _ in range(1000):
            m = gen_term(rng, max_term_size)
            rs = redexes(m)
            if rs:
                break
        else:
            raise AssertionError("no reducible term found")
        pos, kind = rng.choice(rs)
        m2 = reduce_redex(m, pos)
        shown = f"{print_term(m)}  --{kind}@{'.'.join(map(str, pos)) or 'root'}-->  {print_term(m2)}"
        for t in taylor_enum(m, budget):
            s = mirror_step(t, pos, BOOL)
            bad = [u for u in s.terms() if not taylor_member(u, m2)]
            if bad:
                report.failures.append(
                    Failure(i, si, shown,
                            "every addend approximates the reduct",
                            print_res(bad[0]),
                            note=f"approximant={print_res(t)}")
                )
                break
    report.wall_time = time.perf_counter() - t0
    return report


# ---------- non-interference ----------


def injectivity_suite(
    samples: int = 100,
    seed: int = 0,
    max_term_size: int = 12,
    budget: int = 10,
) -> SuiteReport:
    """Distinct approximants of one term never share a normal-form addend."""
    t0 = time.perf_counter()
    report = SuiteReport("injectivity", samples)
    for i in range(samples):
        si = _sample_seed(seed, i)
        m = gen_term(random.Random(si), max_term_size)
        owner: dict[ResTerm, ResTerm] = {}
        clash = None
        for t in taylor_enum(m, budget):
            for u in normalize_r(t, BOOL).terms():
                prev = owner.setdefault(u, t)
                if prev != t:
                    clash = (u, prev, t)
                    break
            if clash:
                break
        if clash:
            u, prev, t = clash
            report.failures.append(
                Failure(i, si, print_term(m), "disjoint normal forms",
                        f"{print_res(u)} from both {print_res(prev)} and {print_res(t)}")
            )
    report.wall_time = time.perf_counter() - t0
    return report


# ---------- identity suite ----------

_NAME_POOL = ("a", "b", "c", "d")
_FRESH = "qq"  # outside every generator pool, so always fresh


def _bag_choices(sums: list[Sum]) -> list[tuple[tuple[ResTerm, ...], int]]:
    """Multilinear expansion of a bag of sums: all ways to pick one addend
    per slot, with the product coefficient."""
    combos: list[tuple[list[ResTerm], int]] = [([], 1)]
    for s in sums:
        combos = [(picked + [t], c * ct) for picked, c in combos for t, ct in s.items]
    return [(tuple(picked), c) for picked, c in combos]


def _lsub(t: ResTerm, x: str, bag: Bag) -> Sum:
    return linear_subst(t, x, bag, NAT)


def _lna(t: ResTerm, a: str, bag: Bag) -> Sum:
    return linear_named_app(t, a, bag, NAT)


def _rename_bag(bag: Bag, new: str, old: str) -> Bag:
    return mkbag(rename_name(e, new, old) for e in bag)


def _deg(name: str, t: ResTerm) -> int:
    return degree("'" + name, t)


def _bag_deg(name: str, bag: Bag) -> int:
    return deg_bag("'" + name, bag)


def _draw(rng: random.Random, want, tries: int = 500):
    for _ in range(tries):
        v = want(rng)
        if v is not None:
            return v
    raise AssertionError("side-condition sampling exhausted its tries")


def _distinct_names(r: random.Random):
    a, b = r.choice(_NAME_POOL), r.choice(_NAME_POOL)
    return (a, b) if a != b else None


def _bag_where(rng: random.Random, ok) -> Bag:
    """A bag of generated elements for which ``ok(bag)`` holds, redrawn
    until it does."""

    def pick(r):
        u = gen_bag(r, 4)
        return u if ok(u) else None

    return _draw(rng, pick)


def _over_splits(bag: Bag, n: int, f) -> Sum:
    """The sum over the weak compositions of ``bag`` into ``n`` parts of
    ``f(parts)``, each weighted by the number of index assignments that
    induce the composition."""
    acc = SumBuilder(NAT)
    for parts, cnt in weak_compositions_with_counts(bag, n):
        acc.add(f(parts), cnt)
    return acc.build()


def _distributed_rhs(u: Bag, v: Bag, head, elem, then) -> Sum:
    """The right-hand side of the identities that push an operation with bag
    ``u`` inside one with bag ``v``: ``u`` splits over the term and the
    elements of ``v`` in every weak composition; ``head(part)`` acts on the
    term, ``elem(e, part)`` on each element, and each choice of new elements
    is finished by ``then(term, new_bag)``."""
    acc = SumBuilder(NAT)
    n = len(v)
    for parts, cnt in weak_compositions_with_counts(u, n + 1):
        s0 = head(parts[0])
        if s0.is_zero:
            continue
        inner = [elem(v[k], parts[k + 1]) for k in range(n)]
        for picked, c in _bag_choices(inner):
            new_bag = mkbag(picked)
            acc.add(s0.bind(lambda tt: then(tt, new_bag)), c * cnt)
    return acc.build()


def _inst_rename_rename(rng: random.Random, size: int):
    def pick(r):
        a, b, g, h = (r.choice(_NAME_POOL) for _ in range(4))
        if a != h and b != h and b != g:
            return a, b, g, h
        return None

    a, b, g, h = _draw(rng, pick)
    t = gen_res(rng, size)
    lhs = Sum.unit(rename_name(rename_name(t, a, b), g, h), NAT)
    rhs = Sum.unit(rename_name(rename_name(t, g, h), a, b), NAT)
    return f"t={print_res(t)} new/old pairs ({a},{b}) then ({g},{h})", lhs, rhs


def _inst_rename_subst(rng: random.Random, size: int):
    a, b = rng.choice(_NAME_POOL), rng.choice(_NAME_POOL)
    x = "x"
    t = gen_res(rng, size)
    u = gen_bag(rng, 4)
    lhs = rename_name(_lsub(t, x, u), a, b)
    rhs = linear_subst(rename_name(t, a, b), x, _rename_bag(u, a, b), NAT)
    return f"t={print_res(t)} u=[{', '.join(map(print_res, u))}] ({a},{b})", lhs, rhs


def _inst_rename_named_app(rng: random.Random, size: int):
    def pick(r):
        a, b, g = (r.choice(_NAME_POOL) for _ in range(3))
        if a != g and b != g:
            return a, b, g
        return None

    a, b, g = _draw(rng, pick)
    t = gen_res(rng, size)
    u = gen_bag(rng, 4)
    lhs = rename_name(_lna(t, g, u), a, b)
    rhs = linear_named_app(rename_name(t, a, b), g, _rename_bag(u, a, b), NAT)
    return f"t={print_res(t)} u=[{', '.join(map(print_res, u))}] ({a},{b}) at '{g}'", lhs, rhs


def _inst_rename_named_pair(rng: random.Random, size: int):
    def pick(r):
        a, b, g = (r.choice(_NAME_POOL) for _ in range(3))
        if a != g and b != g:
            return a, b, g
        return None

    a, b, g = _draw(rng, pick)
    eta = rng.choice(_NAME_POOL)
    t = gen_res(rng, size)
    u = gen_bag(rng, 4)
    lhs = rename_name(linear_named_app_named(eta, t, g, u, NAT), a, b)
    eta2 = a if eta == b else eta
    rhs = linear_named_app_named(eta2, rename_name(t, a, b), g, _rename_bag(u, a, b), NAT)
    return (
        f"<'{eta}| {print_res(t)}> u=[{', '.join(map(print_res, u))}] ({a},{b}) at '{g}'",
        lhs,
        rhs,
    )


def _inst_subst_subst(rng: random.Random, size: int):
    x, y = "x", "y"
    u = _bag_where(rng, lambda u: all(y not in free_vars(e) for e in u))
    t = gen_res(rng, size)
    v = gen_bag(rng, 4)
    lhs = _lsub(t, y, v).bind(lambda tt: _lsub(tt, x, u))
    rhs = _distributed_rhs(u, v, lambda p: _lsub(t, x, p), lambda e, p: _lsub(e, x, p),
                           lambda tt, b: _lsub(tt, y, b))
    return f"t={print_res(t)} v=[{', '.join(map(print_res, v))}] u=[{', '.join(map(print_res, u))}]", lhs, rhs


def _inst_subst_named_app(rng: random.Random, size: int):
    x = "x"
    a = rng.choice(_NAME_POOL)
    u = _bag_where(rng, lambda u: _bag_deg(a, u) == 0)
    t = gen_res(rng, size)
    v = gen_bag(rng, 4)
    lhs = _lna(t, a, v).bind(lambda s: _lsub(s, x, u))
    rhs = _distributed_rhs(u, v, lambda p: _lsub(t, x, p), lambda e, p: _lsub(e, x, p),
                           lambda tt, b: _lna(tt, a, b))
    return f"t={print_res(t)} v=[{', '.join(map(print_res, v))}] u=[{', '.join(map(print_res, u))}] '{a}' x", lhs, rhs


def _inst_named_app_skips_bag(rng: random.Random, size: int):
    a = rng.choice(_NAME_POOL)
    v = _bag_where(rng, lambda v: _bag_deg(a, v) == 0)
    t = gen_res(rng, size)
    u = gen_bag(rng, 4)
    lhs = linear_named_app(RApp(t, v), a, u, NAT)
    rhs = _lna(t, a, u).map(lambda s: RApp(s, v))
    return f"t={print_res(t)} v=[{', '.join(map(print_res, v))}] u=[{', '.join(map(print_res, u))}] '{a}'", lhs, rhs


def _inst_named_app_join(rng: random.Random, size: int):
    a, b = _draw(rng, _distinct_names)

    def pick_t(r):
        t = gen_res(r, size)
        return t if _deg(b, t) == 0 else None

    t = _draw(rng, pick_t)
    v = gen_bag(rng, 4)
    u = gen_bag(rng, 4)
    lhs = _lna(t, a, v).bind(lambda s: _lna(s, b, u))

    def joined(parts):
        acc = SumBuilder(NAT)
        for picked, c in _bag_choices([_lna(e, b, p) for e, p in zip(v, parts)]):
            acc.add(_lna(t, a, mkbag(picked)), c)
        return acc.build()

    rhs = _over_splits(u, len(v), joined)
    return f"t={print_res(t)} v=[{', '.join(map(print_res, v))}] u=[{', '.join(map(print_res, u))}] '{a}' then '{b}'", lhs, rhs


def _inst_swap_disjoint(rng: random.Random, size: int):
    a, b = _draw(rng, _distinct_names)
    v = _bag_where(rng, lambda v: _bag_deg(a, v) == 0)
    u = _bag_where(rng, lambda u: _bag_deg(b, u) == 0)
    t = gen_res(rng, size)
    lhs = _lna(t, a, u).bind(lambda s: _lna(s, b, v))
    rhs = _lna(t, b, v).bind(lambda s: _lna(s, a, u))
    return f"t={print_res(t)} u=[{', '.join(map(print_res, u))}]@'{a}' v=[{', '.join(map(print_res, v))}]@'{b}'", lhs, rhs


def _inst_swap_fresh_left(rng: random.Random, size: int):
    a, b = _draw(rng, _distinct_names)
    v = _bag_where(rng, lambda v: _bag_deg(a, v) == 0)
    u = gen_bag(rng, 4)
    t = gen_res(rng, size)
    d = _FRESH
    lhs = _lna(t, a, u).bind(lambda s: _lna(s, b, v))
    u_masked = _rename_bag(u, d, b)

    def swapped(parts):
        w1, w2 = parts
        s = _lna(t, b, w1)
        s = s.bind(lambda ss: _lna(ss, a, u_masked))
        s = s.bind(lambda ss: _lna(ss, d, w2))
        return rename_name(s, b, d)

    rhs = _over_splits(v, 2, swapped)
    return f"t={print_res(t)} u=[{', '.join(map(print_res, u))}]@'{a}' v=[{', '.join(map(print_res, v))}]@'{b}'", lhs, rhs


def _inst_swap_fresh_right(rng: random.Random, size: int):
    a, b = _draw(rng, _distinct_names)
    u = _bag_where(rng, lambda u: _bag_deg(b, u) == 0)
    v = gen_bag(rng, 4)
    t = gen_res(rng, size)
    d = _FRESH
    lhs = _lna(t, a, u).bind(lambda s: _lna(s, b, v))
    rhs = rename_name(
        _lna(t, b, _rename_bag(v, d, a)).bind(lambda s: _lna(s, a, u)), a, d
    )
    return f"t={print_res(t)} u=[{', '.join(map(print_res, u))}]@'{a}' v=[{', '.join(map(print_res, v))}]@'{b}'", lhs, rhs


def _merged(t: ResTerm, a: str, b: str, parts) -> Sum:
    """The right-hand side of the name-merging identity for one split of
    the bag: ``parts[0]`` at ``a`` and ``parts[1]`` at ``b``, then ``b``
    renamed to ``a``."""
    w1, w2 = parts
    return rename_name(_lna(t, a, w1).bind(lambda ss: _lna(ss, b, w2)), a, b)


def _inst_rename_then_named_app(rng: random.Random, size: int):
    a, b = _draw(rng, _distinct_names)
    u = _bag_where(rng, lambda u: _bag_deg(b, u) == 0)
    t = gen_res(rng, size)
    lhs = linear_named_app(rename_name(t, a, b), a, u, NAT)
    rhs = _over_splits(u, 2, lambda w: _merged(t, a, b, w))
    return f"t={print_res(t)} u=[{', '.join(map(print_res, u))}] merge '{b}' into '{a}'", lhs, rhs


def _inst_named_app_after_subst(rng: random.Random, size: int):
    x = "x"
    a = rng.choice(_NAME_POOL)
    u = _bag_where(rng, lambda u: all(x not in free_vars(e) for e in u))
    t = gen_res(rng, size)
    v = gen_bag(rng, 4)
    lhs = _lsub(t, x, v).bind(lambda s: _lna(s, a, u))
    rhs = _distributed_rhs(u, v, lambda p: _lna(t, a, p), lambda e, p: _lna(e, a, p),
                           lambda tt, b: _lsub(tt, x, b))
    return f"t={print_res(t)} v=[{', '.join(map(print_res, v))}]/x u=[{', '.join(map(print_res, u))}]@'{a}'", lhs, rhs


def _two_named_apps_rhs(t: ResTerm, a: str, g: str, v: Bag, u: Bag) -> Sum:
    return _distributed_rhs(u, v, lambda p: _lna(t, a, p), lambda e, p: _lna(e, a, p),
                            lambda tt, b: _lna(tt, g, b))


def _inst_two_named_apps(rng: random.Random, size: int):
    a, g = _draw(rng, _distinct_names)
    u = _bag_where(rng, lambda u: _bag_deg(g, u) == 0)
    t = gen_res(rng, size)
    v = gen_bag(rng, 4)
    lhs = _lna(t, g, v).bind(lambda s: _lna(s, a, u))
    rhs = _two_named_apps_rhs(t, a, g, v, u)
    return f"t={print_res(t)} v=[{', '.join(map(print_res, v))}]@'{g}' u=[{', '.join(map(print_res, u))}]@'{a}'", lhs, rhs


def _inst_two_named_apps_pair(rng: random.Random, size: int):
    a, g = _draw(rng, _distinct_names)
    u = _bag_where(rng, lambda u: _bag_deg(g, u) == 0)
    eta = rng.choice(_NAME_POOL)
    t = gen_res(rng, size)
    v = gen_bag(rng, 4)
    lhs = linear_named_app_named(eta, t, g, v, NAT).bind(
        lambda s: linear_named_app_named(eta, s, a, u, NAT)
    )
    rhs = _distributed_rhs(u, v, lambda p: linear_named_app_named(eta, t, a, p, NAT),
                           lambda e, p: _lna(e, a, p),
                           lambda tt, b: linear_named_app_named(eta, tt, g, b, NAT))
    return f"<'{eta}| {print_res(t)}> v=[{', '.join(map(print_res, v))}]@'{g}' u=[{', '.join(map(print_res, u))}]@'{a}'", lhs, rhs


LEMMA_INSTANCES = (
    ("rename-rename-commute", _inst_rename_rename),
    ("rename-through-subst", _inst_rename_subst),
    ("rename-through-named-app", _inst_rename_named_app),
    ("rename-through-named-pair", _inst_rename_named_pair),
    ("subst-subst", _inst_subst_subst),
    ("subst-through-named-app", _inst_subst_named_app),
    ("named-app-skips-degree-zero-bag", _inst_named_app_skips_bag),
    ("named-app-join", _inst_named_app_join),
    ("named-app-swap-disjoint", _inst_swap_disjoint),
    ("named-app-swap-fresh-left", _inst_swap_fresh_left),
    ("named-app-swap-fresh-right", _inst_swap_fresh_right),
    ("rename-then-named-app", _inst_rename_then_named_app),
    ("named-app-after-subst", _inst_named_app_after_subst),
    ("two-named-apps", _inst_two_named_apps),
    ("two-named-apps-pair", _inst_two_named_apps_pair),
)


def lemmas_suite(samples: int = 200, seed: int = 0, max_term_size: int = 6) -> SuiteReport:
    """Exact-count identities for the substitution/renaming algebra; each
    entry draws fresh instances that satisfy the identity's side conditions.
    The term ``t`` of an instance has size at most ``max_term_size``; bag
    elements keep their own bound of 4."""
    t0 = time.perf_counter()
    report = SuiteReport("lemmas", samples * len(LEMMA_INSTANCES))
    k = 0
    for name, make in LEMMA_INSTANCES:
        for i in range(samples):
            si = _sample_seed(seed, k)
            shown, lhs, rhs = make(random.Random(si), max_term_size)
            if lhs != rhs:
                report.failures.append(
                    Failure(k, si, shown, print_sum(lhs), print_sum(rhs), note=name)
                )
            k += 1
    report.wall_time = time.perf_counter() - t0
    return report


# ---------- counterexample pack ----------


def _ce_blocked_swap() -> list[Failure]:
    """Contracting the outer application first hides the inner collapse:
    no single collapse step applies afterwards, yet both orders rejoin."""
    fails = []
    orig = parse_res("(mu 'a.<'a> mu 'g.<'h> x) 1")
    blocked = parse_res("mu 'a.<'a> (mu 'g.<'h> x) 1")
    got = step_r(orig, (), NAT)
    if got != Sum.unit(blocked, NAT):
        fails.append(Failure(0, 0, print_res(orig), print_res(blocked), print_sum(got),
                             note="outer application step"))
    kinds = {kind for _, kind in redexes(blocked)}
    if "rho" in kinds:
        fails.append(Failure(0, 0, print_res(blocked), "no collapse redex",
                             str(sorted(kinds)), note="blocked term"))
    sink = unique_sink(explore(orig, NAT))
    want = Sum.unit(parse_res("mu 'a.<'h> x"), NAT)
    if sink != want:
        fails.append(Failure(0, 0, print_res(orig), print_sum(want),
                             "no unique sink" if sink is None else print_sum(sink),
                             note="joinability"))
    return fails


def _ce_subst_subst_same_var() -> list[Failure]:
    """The two-substitutions identity needs the variables distinct."""
    fails = []
    t = RVar("x")
    u = mkbag([RVar("z")])
    lhs = _lsub(t, "x", ()).bind(lambda tt: _lsub(tt, "x", u))
    rhs = _over_splits(u, 1, lambda parts: _lsub(t, "x", parts[0]).bind(lambda tt: _lsub(tt, "x", ())))
    if not (lhs.is_zero and rhs == Sum.unit(RVar("z"), NAT)):
        fails.append(Failure(1, 0, "x with v=1, u=[z], y=x", "0 vs z",
                             f"{print_sum(lhs)} vs {print_sum(rhs)}",
                             note="same-variable substitution"))
    return fails


def _ce_rename_then_named_app() -> list[Failure]:
    """Both hypotheses of the name-merging identity are necessary."""
    fails = []
    t = parse_res("mu 'g.<'a> x")
    # same name on both sides
    lhs1 = linear_named_app(rename_name(t, "a", "a"), "a", (), NAT)
    rhs1 = _over_splits((), 2, lambda w: _merged(t, "a", "a", w))
    want_l1 = Sum.unit(parse_res("mu 'g.<'a> x 1"), NAT)
    want_r1 = Sum.unit(parse_res("mu 'g.<'a> (x 1) 1"), NAT)
    if not (lhs1 == want_l1 and rhs1 == want_r1 and lhs1 != rhs1):
        fails.append(Failure(2, 0, "merge 'a into 'a on mu 'g.<'a> x, empty bag",
                             f"{print_sum(want_l1)} vs {print_sum(want_r1)}",
                             f"{print_sum(lhs1)} vs {print_sum(rhs1)}",
                             note="name-merge, equal names"))
    # bag mentioning the merged name
    u = mkbag([parse_res("mu 'g.<'b> y")])
    lhs2 = linear_named_app(rename_name(t, "a", "b"), "a", u, NAT)
    rhs2 = _over_splits(u, 2, lambda w: _merged(t, "a", "b", w))
    want_l2 = Sum.unit(parse_res("mu 'g.<'a> x[mu 'g.<'b> y]"), NAT)
    want_r2 = Sum.unit(parse_res("mu 'g.<'a> x[mu 'g.<'a> y 1]"), NAT)
    if not (lhs2 == want_l2 and rhs2 == want_r2 and lhs2 != rhs2):
        fails.append(Failure(2, 0, "merge 'b into 'a on mu 'g.<'a> x, bag [mu 'g.<'b> y]",
                             f"{print_sum(want_l2)} vs {print_sum(want_r2)}",
                             f"{print_sum(lhs2)} vs {print_sum(rhs2)}",
                             note="name-merge, name in bag"))
    return fails


def _ce_named_app_after_subst() -> list[Failure]:
    """The bag of a trailing named application must not mention the
    substituted variable."""
    fails = []
    t = parse_res("mu 'g.<'a> y")
    u = mkbag([RVar("x")])
    lhs = _lsub(t, "x", ()).bind(lambda s: _lna(s, "a", u))
    rhs = _over_splits(u, 1, lambda parts: _lna(t, "a", parts[0]).bind(lambda tt: _lsub(tt, "x", ())))
    want_l = Sum.unit(parse_res("mu 'g.<'a> y[x]"), NAT)
    if not (lhs == want_l and rhs.is_zero):
        fails.append(Failure(3, 0, "mu 'g.<'a> y with v=1, u=[x]",
                             f"{print_sum(want_l)} vs 0",
                             f"{print_sum(lhs)} vs {print_sum(rhs)}",
                             note="variable recaptured by the bag"))
    return fails


def _ce_two_named_apps() -> list[Failure]:
    """Both hypotheses of the two-named-apps identity are necessary."""
    fails = []
    t = parse_res("mu 'd.<'a> x")
    # equal names
    u1 = mkbag([parse_res("mu 'd.<'d> x")])
    v1 = mkbag([parse_res("mu 'd.<'d> y")])
    lhs1 = _lna(t, "a", v1).bind(lambda s: _lna(s, "a", u1))
    rhs1 = _two_named_apps_rhs(t, "a", "a", v1, u1)
    want_l1 = Sum.unit(parse_res("mu 'd.<'a> x[mu 'd.<'d> y][mu 'd.<'d> x]"), NAT)
    want_r1 = Sum.unit(parse_res("mu 'd.<'a> x[mu 'd.<'d> x][mu 'd.<'d> y]"), NAT)
    if not (lhs1 == want_l1 and rhs1 == want_r1 and lhs1 != rhs1):
        fails.append(Failure(4, 0, "two named apps at the same name",
                             f"{print_sum(want_l1)} vs {print_sum(want_r1)}",
                             f"{print_sum(lhs1)} vs {print_sum(rhs1)}",
                             note="equal names"))
    # second bag mentions the first name
    u2 = mkbag([parse_res("mu 'd.<'g> x")])
    v2 = mkbag([parse_res("mu 'd.<'d> x")])
    lhs2 = _lna(t, "g", v2).bind(lambda s: _lna(s, "a", u2))
    rhs2 = _two_named_apps_rhs(t, "a", "g", v2, u2)
    want_r2 = Sum.unit(parse_res("mu 'd.<'a> x[mu 'd.<'g> x[mu 'd.<'d> x]]"), NAT)
    if not (lhs2.is_zero and rhs2 == want_r2):
        fails.append(Failure(4, 0, "second bag mentions the inner name",
                             f"0 vs {print_sum(want_r2)}",
                             f"{print_sum(lhs2)} vs {print_sum(rhs2)}",
                             note="degree condition violated"))
    return fails


def _ce_copies_vs_occurrences() -> list[Failure]:
    """With set-valued sums, both copies of a duplicated argument step in
    lockstep, so the mixed sum is unreachable; with exact counts it is
    reachable, but only stepping one occurrence at a time."""
    fails = []
    s = RApp(RLam(RVar(0)), [RVar("y")])
    sp = RVar("y")
    body = RApp(RVar("x"), [RVar("x")])
    start_b = linear_subst(body, "x", [s, s], BOOL)
    start_n = linear_subst(body, "x", [s, s], NAT)
    if start_b != Sum.unit(RApp(s, [s]), BOOL):
        fails.append(Failure(5, 0, "(x[x])<[s,s]/x> qualitative",
                             print_res(RApp(s, [s])), print_sum(start_b)))
        return fails
    if start_n != Sum(NAT, [(RApp(s, [s]), 2)]):
        fails.append(Failure(5, 0, "(x[x])<[s,s]/x> quantitative",
                             "2*" + print_res(RApp(s, [s])), print_sum(start_n)))
        return fails
    mixed_b = Sum(BOOL, [(RApp(sp, [s]), 1), (RApp(s, [sp]), 1)])
    mixed_n = mixed_b.to_semiring(NAT)
    if mixed_b in reachable_sums(explore(start_b, BOOL)):
        fails.append(Failure(5, 0, print_sum(start_b), "mixed sum unreachable",
                             "reached", note="qualitative"))
    if mixed_n in reachable_sums(explore(start_n, NAT, mode="coeff")):
        fails.append(Failure(5, 0, print_sum(start_n), "mixed sum unreachable",
                             "reached", note="quantitative, whole-coefficient steps"))
    if mixed_n not in reachable_sums(explore(start_n, NAT, mode="occurrence")):
        fails.append(Failure(5, 0, print_sum(start_n), "mixed sum reachable",
                             "not reached", note="quantitative, one occurrence at a time"))
    return fails


def counterexamples_suite(samples: int = 6, seed: int = 0, max_term_size: int = 0) -> SuiteReport:
    """Fixed pack of negative results; exact expected values."""
    t0 = time.perf_counter()
    report = SuiteReport("counterexamples", 6)
    for check in (
        _ce_blocked_swap,
        _ce_subst_subst_same_var,
        _ce_rename_then_named_app,
        _ce_named_app_after_subst,
        _ce_two_named_apps,
        _ce_copies_vs_occurrences,
    ):
        report.failures.extend(check())
    report.wall_time = time.perf_counter() - t0
    return report


# ---------- registry ----------

SUITES = {
    "sn": sn_suite,
    "confluence": confluence_suite,
    "support": support_suite,
    "simulation": simulation_suite,
    "injectivity": injectivity_suite,
    "lemmas": lemmas_suite,
    "counterexamples": counterexamples_suite,
}

SUITE_DEFAULTS: dict[str, dict[str, int]] = {
    "sn": {"samples": 1000, "max_term_size": 30},
    "confluence": {"samples": 500, "max_term_size": 14, "node_cap": 50_000},
    "support": {"samples": 500, "max_term_size": 14},
    "simulation": {"samples": 200, "max_term_size": 10},
    "injectivity": {"samples": 100, "max_term_size": 12},
    "lemmas": {"samples": 200, "max_term_size": 6},
    "counterexamples": {"samples": 6, "max_term_size": 0},
}


def run_suite(
    name: str,
    samples: int | None = None,
    seed: int = 0,
    max_term_size: int | None = None,
    node_cap: int | None = None,
) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite: {name}")
    kwargs: dict[str, int] = dict(SUITE_DEFAULTS[name])
    if samples is not None:
        kwargs["samples"] = samples
    if max_term_size is not None:
        kwargs["max_term_size"] = max_term_size
    if node_cap is not None and "node_cap" in kwargs:
        kwargs["node_cap"] = node_cap
    kwargs["seed"] = seed
    return SUITES[name](**kwargs)
