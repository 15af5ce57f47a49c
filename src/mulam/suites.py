"""Randomized property suites and the fixed counterexample pack.

Each sampling suite is a check of one family of facts on one seeded sample.
One runner, ``_run``, reseeds each sample's generator, calls the check and
builds a record from each failure it yields: every sampled failure record is
built there.  A record carries enough to replay the sample by hand (derived
seed, printed inputs, expected vs actual), rendered only when a failure is
recorded.  Inputs that cannot produce a sample at all raise ``NoSample``.
The identity suite and the counterexample pack share their draws, the
builders of both sides of each family of identities, and one check of a
pair of sides.  ``run_suite`` takes each suite's defaults from its signature
and times the run; a suite called directly reports a wall time of 0.
"""

from __future__ import annotations

import random
import time
from functools import cache
from operator import ne

from .combinatorics import weak_compositions_with_counts
from .gen import _below, gen_bag, gen_res, gen_term
from .lamu import reduce_redex
from .measures import BoldMeasure, bold_ms, compare_bold
from .oracle import NODE_CAP, GraphOverflow, explore, reachable_sums, unique_sink
from .resource import (
    _apply_sum_step,
    contract_res,
    linear_named_app,
    linear_named_app_named,
    linear_subst,
    normalize_r,
    step_r,
)
from .syntax import (
    BOOL,
    NAT,
    Bag,
    Pos,
    RApp,
    RLam,
    RMu,
    RVar,
    ResTerm,
    Sum,
    SumBuilder,
    Term,
    deg_bag,
    degree,
    lift_app,
    mkbag,
    pick_redex,
    redexes,
    rename_name,
)
from .taylor import taylor_enum, taylor_member
from .textio import parse_res, print_pos, print_res, print_sum, print_term

# ---------- reports ----------


class Failure:
    __slots__ = ("sample", "seed", "input", "expected", "actual", "note")

    def __init__(self, sample: int, seed: int, input: str, expected: str, actual: str,
                 note: str = ""):
        self.sample = sample
        self.seed = seed
        self.input = input
        self.expected = expected
        self.actual = actual
        self.note = note

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


class SuiteReport:
    __slots__ = ("suite", "samples", "failures", "wall_time")

    def __init__(self, suite: str, samples: int):
        self.suite = suite
        self.samples = samples
        self.failures: list[Failure] = []
        self.wall_time = 0.0

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


class NoSample(ValueError):
    """A suite's inputs cannot produce a sample, so it cannot run at all (a
    usage error, not a failed check)."""


def _sample_seed(seed: int, i: int) -> int:
    # Spread per-sample seeds so neighbouring suites never share streams.
    return seed * 1_000_003 + i


def _run(suite: str, samples: int, seed: int, check) -> SuiteReport:
    """The report of ``suite``: ``check(i, si, rng)`` on each sample ``i``,
    with its seed ``si``, and a failure record for each ``(input, expected,
    actual, note)`` the check yields.

    One generator serves the whole run, reseeded with ``si`` per sample.
    After ``rng.seed(si)`` the generator is in the state ``random.Random(si)``
    starts in, so each sample draws what a fresh generator would, without
    building one per sample."""
    report = SuiteReport(suite, samples)
    rng = random.Random()
    for i in range(samples):
        si = _sample_seed(seed, i)
        rng.seed(si)
        for f in check(i, si, rng):
            report.failures.append(Failure(i, si, *f))
    return report


# ---------- strong normalization + measure ----------

_STRATEGIES = ("leftmost", "rightmost", "random")
_STEP_CAP = 200_000


def sn_suite(samples: int = 1000, seed: int = 0, max_term_size: int = 30) -> SuiteReport:
    """Every strategy terminates and the layered measure drops at each step.

    Each strategy's step is the one ``pick_redex`` picks.  The three
    strategies reduce the same sample and meet many of the same addends and
    steps.  One memo per sample, shared by the three, keeps each addend's
    redex list (``pick_redex``'s ``find``), each (addend, position) step's
    reduct with its measure verdict, and each term's ``bold_ms``.  Each is a
    function of the term alone, so every strategy takes the steps and
    records the failures it would without the memo; each is just computed
    once per sample.  The two function memos are built once per run and
    cleared for each sample.  A normal sample takes no step under any
    strategy, so it is not walked at all.
    """
    find = cache(redexes)
    measure = cache(bold_ms)

    def check(i, si, rng):
        t = gen_res(rng, max_term_size)
        if t.normal:
            return
        find.cache_clear()
        measure.cache_clear()
        stepped: dict[tuple[ResTerm, Pos], tuple[Sum, BoldMeasure, ResTerm | None]] = {}
        # Only the random strategy draws, so the three share its stream: the
        # sample's generator reseeded with si * 4 + 1 + its index in
        # ``_STRATEGIES``.
        rng.seed(si * 4 + 3)
        for strategy in _STRATEGIES:
            s = Sum.unit(t, NAT)
            steps = 0
            while (hit := pick_redex(s.items, strategy, rng, find)) is not None:
                if steps >= _STEP_CAP:
                    yield (print_res(t), f"normal form within {_STEP_CAP} steps",
                           "still reducible", f"strategy={strategy}")
                    break
                u, c, pos, _ = hit
                done = stepped.get((u, pos))
                if done is None:
                    before = measure(u)
                    reduct = step_r(u, pos, NAT)
                    # The first addend whose measure does not drop, if any.
                    bad = next((v for v, _ in reduct.items
                                if compare_bold(measure(v), before) >= 0), None)
                    done = stepped[u, pos] = (reduct, before, bad)
                reduct, before, bad = done
                if bad is not None:
                    yield (print_res(t), f"measure below {before}",
                           f"{print_res(bad)} has {measure(bad)}",
                           f"strategy={strategy} stepped={print_res(u)} pos={pos}")
                    break
                s = _apply_sum_step(s, u, c, "coeff", reduct)
                steps += 1

    return _run("sn", samples, seed, check)


# ---------- confluence / support ----------


def confluence_suite(
    samples: int = 500,
    seed: int = 0,
    max_term_size: int = 14,
    node_cap: int = NODE_CAP,
) -> SuiteReport:
    """Exhaustive reduction graphs have one sink, the engine agrees with it,
    and forgetting exact counts lands on the boolean normal form."""
    def check(i, si, rng):
        t = gen_res(rng, max_term_size)
        nfs: dict[str, Sum] = {}
        for semiring in (BOOL, NAT):
            try:
                g = explore(t, semiring, node_cap=node_cap)
            except GraphOverflow as e:
                yield (print_res(t), f"graph within {node_cap} nodes",
                       f"overflow at {e.visited}", f"semiring={semiring}")
                return
            sink = unique_sink(g)
            if sink is None:
                yield (print_res(t), "exactly one sink", f"{len(g.sinks)} sinks",
                       f"semiring={semiring}")
                return
            nf = normalize_r(t, semiring)
            nfs[semiring] = nf
            if nf != sink:
                yield (print_res(t), print_sum(sink), print_sum(nf),
                       f"engine vs oracle, semiring={semiring}")
                return
        if nfs[NAT].support() != nfs[BOOL]:
            yield (print_res(t), print_sum(nfs[BOOL]), print_sum(nfs[NAT].support()),
                   "support of exact-count normal form")

    return _run("confluence", samples, seed, check)


def support_suite(samples: int = 500, seed: int = 0, max_term_size: int = 14) -> SuiteReport:
    """support(exact-count normal form) = boolean normal form, engine only."""
    def check(i, si, rng):
        t = gen_res(rng, max_term_size)
        got = normalize_r(t, NAT).support()
        want = normalize_r(t, BOOL)
        if got != want:
            yield print_res(t), print_sum(want), print_sum(got), ""

    return _run("support", samples, seed, check)


# ---------- simulation ----------


def mirror_step(t: ResTerm, pos: Pos, semiring: str) -> Sum:
    """Contract, inside an approximant, every copy of the redex that sits at
    the given position of the approximated term.

    Positions through an application argument fan out to all bag elements,
    so the result is one simultaneous multi-step of the resource calculus.
    A position the approximant does not have (a child other than 0 under a
    binder, other than 0 or 1 at an application, or any below a variable),
    or one that ends at a non-redex, is a ``ValueError``.

    The walk is a loop.  It goes down in pre-order, counting the lambda and
    mu binders above each copy of the redex, and contracts each copy where
    it stands, or opened on those binders alone where an index must move
    (``contract_res``); then it rebuilds the nodes above from their
    children's sums with the plain constructors.
    """
    # Down: every node at pos[:depth], in pre-order, with the reducts of the
    # nodes at the end of the position.
    down: list[tuple[ResTerm, int, Sum | None]] = []
    stack = [(t, 0, 0, 0)]
    while stack:
        u, depth, nl, nm = stack.pop()
        if depth == len(pos):
            down.append((u, depth, contract_res(u, semiring, nl, nm)))  # raises on a non-redex
            continue
        down.append((u, depth, None))
        c = pos[depth]
        cls = type(u)
        if cls is RVar:
            raise ValueError(f"no position {pos} in the approximant: a variable at {pos[:depth]}")
        if cls is RApp:
            if c == 0:
                stack.append((u.head, depth + 1, nl, nm))
            else:
                _check_child(c, 1, pos, depth)
                stack.extend([(e, depth + 1, nl, nm) for e in reversed(u.bag)])
        else:
            _check_child(c, 0, pos, depth)
            stack.append((u.body, depth + 1, nl + (cls is RLam), nm + (cls is RMu)))
    # Up, in reverse pre-order: a node's children are done before it, and
    # come off ``done`` in their order.
    done: list[Sum] = []
    for u, depth, s in reversed(down):
        if s is None:
            cls = type(u)
            if cls is RLam:
                s = done.pop().map(RLam)
            elif cls is RMu:
                s = done.pop().map(lambda w, named=u.named: RMu(named, w))
            elif pos[depth] == 0:
                s = done.pop().map(lambda w, bag=u.bag: RApp(w, bag))
            elif not u.bag:
                s = Sum.unit(u, semiring)
            else:
                s = lift_app(Sum.unit(u.head, semiring), [done.pop() for _ in u.bag])
        done.append(s)
    return done[0]


def _check_child(c: int, want: int, pos: Pos, depth: int) -> None:
    if c != want:
        raise ValueError(f"no position {pos} in the approximant: child {c} at {pos[:depth]}")


# The size budget of the approximants each sample enumerates.
_SIMULATION_BUDGET = 8


def simulation_suite(samples: int = 200, seed: int = 0, max_term_size: int = 10) -> SuiteReport:
    """One step upstairs is matched downstairs: contracting the mirrored
    redex in any approximant lands inside the approximants of the reduct."""
    def check(i, si, rng):
        for _ in range(1000):
            m = gen_term(rng, max_term_size)
            rs = redexes(m)
            if rs:
                break
        else:
            raise NoSample(f"no term of at most {max_term_size} nodes with a redex in 1000 draws "
                           f"(sample {i}, seed {si}); the smallest redex has 3 nodes")
        pos, kind = rng.choice(rs)
        m2 = reduce_redex(m, pos)
        for t in taylor_enum(m, _SIMULATION_BUDGET):
            s = mirror_step(t, pos, BOOL)
            bad = [u for u in s.terms() if not taylor_member(u, m2)]
            if bad:
                yield (f"{print_term(m)}  --{kind}@{print_pos(pos)}-->  {print_term(m2)}",
                       "every addend approximates the reduct", print_res(bad[0]),
                       f"approximant={print_res(t)}")
                return

    return _run("simulation", samples, seed, check)


# ---------- non-interference ----------


# The size budget of the approximants each sample enumerates.
_INJECTIVITY_BUDGET = 10


def injectivity_suite(samples: int = 100, seed: int = 0, max_term_size: int = 12) -> SuiteReport:
    """Distinct approximants of one term never share a normal-form addend."""
    def check(i, si, rng):
        m = gen_term(rng, max_term_size)
        owner: dict[ResTerm, ResTerm] = {}
        for t in taylor_enum(m, _INJECTIVITY_BUDGET):
            for u in normalize_r(t, BOOL).terms():
                prev = owner.setdefault(u, t)
                if prev != t:
                    yield (print_term(m), "disjoint normal forms",
                           f"{print_res(u)} from both {print_res(prev)} and {print_res(t)}", "")
                    return

    return _run("injectivity", samples, seed, check)


# ---------- identity suite ----------
#
# Each ``_inst_*`` maker draws one instance of its identity and returns
# ``(shown, lhs, rhs)``: a zero-argument callable that renders the instance
# (``_show``; the text is read only for a failure record), and the two sides.
# The draws share one redraw loop, ``_draw``, through ``_names`` and ``_bag``
# for names and bags under side conditions.  The sides of each family of
# identities come from one builder: ``_renamed`` pushes a renaming through an
# operation, ``_pushed`` pushes one linear operation through another, and
# ``_merge_sides`` merges two names.

_NAME_POOL = ("a", "b", "c", "d")
_FRESH = "qq"  # outside every generator pool, so always fresh


def _lna(t: ResTerm, a: str, bag: Bag) -> Sum:
    return linear_named_app(t, a, bag, NAT)


def _subst_for(x: str):
    return lambda t, bag: linear_subst(t, x, bag, NAT)


def _named_app_at(a: str):
    return lambda t, bag: _lna(t, a, bag)


def _pair_app_at(eta: str, a: str):
    """The named application at ``a`` under the naming ``<'eta| ->``."""
    return lambda t, bag: linear_named_app_named(eta, t, a, bag, NAT)


def _rename_bag(bag: Bag, new: str, old: str) -> Bag:
    return mkbag(rename_name(e, new, old) for e in bag)


def _draw(rng: random.Random, make, ok=None):
    """``make(rng)``, redrawn until ``ok`` holds of it (the first draw when
    there is no ``ok``)."""
    for _ in range(500):
        v = make(rng)
        if ok is None or ok(v):
            return v
    raise NoSample("no draw met the side conditions in 500 tries")


def _name(rng: random.Random) -> str:
    """A name from the pool, drawn as ``rng.choice(_NAME_POOL)`` draws it."""
    return _NAME_POOL[_below(rng.getrandbits, len(_NAME_POOL))]


def _names(rng: random.Random, k: int, ok=None) -> list[str]:
    """``k`` names from the pool, all redrawn until ``ok(*names)`` holds."""
    return _draw(rng, lambda r: [_name(r) for _ in range(k)],
                 None if ok is None else lambda names: ok(*names))


def _bag(rng: random.Random, without: str | None = None) -> Bag:
    """A generated bag, redrawn until no element has ``without`` free (a
    variable ``x``, or a name written ``'a``)."""
    return _draw(rng, lambda r: gen_bag(r, 4),
                 None if without is None else lambda u: deg_bag(without, u) == 0)


def _show(fmt: str, **values):
    """The renderer of an instance: ``fmt`` filled with ``values``, where
    names stay as they are, terms are printed and bags are written
    ``[e1, e2]``."""
    return lambda: fmt.format(**{k: _text(v) for k, v in values.items()})


def _text(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return f"[{', '.join(map(print_res, v))}]"
    return print_res(v)


def _over_splits(bag: Bag, n: int, f) -> Sum:
    """The sum over the weak compositions of ``bag`` into ``n`` parts of
    ``f(parts)``, each weighted by the number of index assignments that
    induce the composition."""
    acc = SumBuilder(NAT)
    for parts, cnt in weak_compositions_with_counts(bag, n):
        acc.add(f(parts), cnt)
    return acc.build()


def _pushed(t: ResTerm, v: Bag, u: Bag, outer, inner, elem=None) -> tuple[Sum, Sum]:
    """Both sides of the identities that push ``inner(-, u)`` through
    ``outer(t, v)``.  On the left it acts after ``outer``.  On the right
    ``u`` splits over ``t`` and the elements of ``v`` in every weak
    composition: ``inner`` acts on ``t`` and ``elem`` (``inner`` when not
    given) on each element with its part, and ``outer`` takes ``t``'s
    addends with each choice of one addend per element as its bag.  Many
    compositions give ``t`` the same part, so ``inner`` acts on ``t`` once
    per distinct part."""
    elem = elem or inner
    lhs = outer(t, v).bind(lambda s: inner(s, u))
    rhs = SumBuilder(NAT)
    heads: dict[Bag, Sum] = {}
    for parts, cnt in weak_compositions_with_counts(u, len(v) + 1):
        head = heads.get(parts[0])
        if head is None:
            head = heads[parts[0]] = inner(t, parts[0])
        if head.is_zero:
            continue
        choices = [((), cnt)]
        for e, p in zip(v, parts[1:]):
            items = elem(e, p).items
            choices = [(picked + (w,), c * cw) for picked, c in choices for w, cw in items]
        for picked, c in choices:
            bag = mkbag(picked)
            rhs.add(head.bind(lambda s: outer(s, bag)), c)
    return lhs, rhs.build()


def _renamed(t: ResTerm, u: Bag, a: str, b: str, op, op2=None) -> tuple[Sum, Sum]:
    """Both sides of pushing the renaming of ``b`` to ``a`` through
    ``op(t, u)``: after it, and before it on ``t`` and on each element of
    ``u``, where ``op2`` stands for ``op`` when the renaming changes the
    operation itself."""
    lhs = rename_name(op(t, u), a, b)
    return lhs, (op2 or op)(rename_name(t, a, b), _rename_bag(u, a, b))


def _merge_sides(t: ResTerm, a: str, b: str, u: Bag) -> tuple[Sum, Sum]:
    """Both sides of the name-merging identity: ``b`` renamed to ``a`` before
    the named application of ``u`` at ``a``, and ``u`` split between ``a``
    and ``b`` before the renaming."""
    lhs = _lna(rename_name(t, a, b), a, u)
    rhs = _over_splits(u, 2, lambda w: rename_name(
        _lna(t, a, w[0]).bind(lambda s: _lna(s, b, w[1])), a, b))
    return lhs, rhs


def _inst_rename_rename(rng: random.Random, size: int):
    a, b, g, h = _names(rng, 4, lambda a, b, g, h: a != h and b != h and b != g)
    t = gen_res(rng, size)
    lhs = Sum.unit(rename_name(rename_name(t, a, b), g, h), NAT)
    rhs = Sum.unit(rename_name(rename_name(t, g, h), a, b), NAT)
    return _show("t={t} new/old pairs ({a},{b}) then ({g},{h})", t=t, a=a, b=b, g=g, h=h), lhs, rhs


def _inst_rename_subst(rng: random.Random, size: int):
    a, b = _names(rng, 2)
    t = gen_res(rng, size)
    u = _bag(rng)
    lhs, rhs = _renamed(t, u, a, b, _subst_for("x"))
    return _show("t={t} u={u} ({a},{b})", t=t, u=u, a=a, b=b), lhs, rhs


def _inst_rename_named_app(rng: random.Random, size: int):
    a, b, g = _names(rng, 3, lambda a, b, g: a != g and b != g)
    t = gen_res(rng, size)
    u = _bag(rng)
    lhs, rhs = _renamed(t, u, a, b, _named_app_at(g))
    return _show("t={t} u={u} ({a},{b}) at '{g}'", t=t, u=u, a=a, b=b, g=g), lhs, rhs


def _inst_rename_named_pair(rng: random.Random, size: int):
    a, b, g = _names(rng, 3, lambda a, b, g: a != g and b != g)
    eta = _name(rng)
    t = gen_res(rng, size)
    u = _bag(rng)
    eta2 = a if eta == b else eta
    lhs, rhs = _renamed(t, u, a, b, _pair_app_at(eta, g), _pair_app_at(eta2, g))
    return _show("<'{eta}| {t}> u={u} ({a},{b}) at '{g}'", eta=eta, t=t, u=u, a=a, b=b, g=g), lhs, rhs


def _inst_subst_subst(rng: random.Random, size: int):
    u = _bag(rng, without="y")
    t = gen_res(rng, size)
    v = _bag(rng)
    lhs, rhs = _pushed(t, v, u, _subst_for("y"), _subst_for("x"))
    return _show("t={t} v={v} u={u}", t=t, v=v, u=u), lhs, rhs


def _inst_subst_named_app(rng: random.Random, size: int):
    a = _name(rng)
    u = _bag(rng, without="'" + a)
    t = gen_res(rng, size)
    v = _bag(rng)
    lhs, rhs = _pushed(t, v, u, _named_app_at(a), _subst_for("x"))
    return _show("t={t} v={v} u={u} '{a}' x", t=t, v=v, u=u, a=a), lhs, rhs


def _inst_named_app_skips_bag(rng: random.Random, size: int):
    a = _name(rng)
    v = _bag(rng, without="'" + a)
    t = gen_res(rng, size)
    u = _bag(rng)
    lhs = _lna(RApp(t, v), a, u)
    rhs = _lna(t, a, u).map(lambda s: RApp(s, v))
    return _show("t={t} v={v} u={u} '{a}'", t=t, v=v, u=u, a=a), lhs, rhs


def _inst_named_app_join(rng: random.Random, size: int):
    a, b = _names(rng, 2, ne)
    t = _draw(rng, lambda r: gen_res(r, size), lambda t: degree("'" + b, t) == 0)
    v = _bag(rng)
    u = _bag(rng)
    lhs, rhs = _pushed(t, v, u, _named_app_at(a), _named_app_at(b))
    return _show("t={t} v={v} u={u} '{a}' then '{b}'", t=t, v=v, u=u, a=a, b=b), lhs, rhs


def _inst_swap_disjoint(rng: random.Random, size: int):
    a, b = _names(rng, 2, ne)
    v = _bag(rng, without="'" + a)
    u = _bag(rng, without="'" + b)
    t = gen_res(rng, size)
    lhs = _lna(t, a, u).bind(lambda s: _lna(s, b, v))
    rhs = _lna(t, b, v).bind(lambda s: _lna(s, a, u))
    return _show("t={t} u={u}@'{a}' v={v}@'{b}'", t=t, u=u, a=a, v=v, b=b), lhs, rhs


def _inst_swap_fresh_left(rng: random.Random, size: int):
    a, b = _names(rng, 2, ne)
    v = _bag(rng, without="'" + a)
    u = _bag(rng)
    t = gen_res(rng, size)
    d = _FRESH
    lhs = _lna(t, a, u).bind(lambda s: _lna(s, b, v))
    u_masked = _rename_bag(u, d, b)
    # ``v`` splits between ``b`` before ``u`` and the fresh ``d`` after it.
    rhs = _over_splits(v, 2, lambda w: rename_name(
        _lna(t, b, w[0]).bind(lambda s: _lna(s, a, u_masked)).bind(lambda s: _lna(s, d, w[1])),
        b, d))
    return _show("t={t} u={u}@'{a}' v={v}@'{b}'", t=t, u=u, a=a, v=v, b=b), lhs, rhs


def _inst_swap_fresh_right(rng: random.Random, size: int):
    a, b = _names(rng, 2, ne)
    u = _bag(rng, without="'" + b)
    v = _bag(rng)
    t = gen_res(rng, size)
    d = _FRESH
    lhs = _lna(t, a, u).bind(lambda s: _lna(s, b, v))
    rhs = rename_name(_lna(t, b, _rename_bag(v, d, a)).bind(lambda s: _lna(s, a, u)), a, d)
    return _show("t={t} u={u}@'{a}' v={v}@'{b}'", t=t, u=u, a=a, v=v, b=b), lhs, rhs


def _inst_rename_then_named_app(rng: random.Random, size: int):
    a, b = _names(rng, 2, ne)
    u = _bag(rng, without="'" + b)
    t = gen_res(rng, size)
    lhs, rhs = _merge_sides(t, a, b, u)
    return _show("t={t} u={u} merge '{b}' into '{a}'", t=t, u=u, a=a, b=b), lhs, rhs


def _inst_named_app_after_subst(rng: random.Random, size: int):
    a = _name(rng)
    u = _bag(rng, without="x")
    t = gen_res(rng, size)
    v = _bag(rng)
    lhs, rhs = _pushed(t, v, u, _subst_for("x"), _named_app_at(a))
    return _show("t={t} v={v}/x u={u}@'{a}'", t=t, v=v, u=u, a=a), lhs, rhs


def _inst_two_named_apps(rng: random.Random, size: int):
    a, g = _names(rng, 2, ne)
    u = _bag(rng, without="'" + g)
    t = gen_res(rng, size)
    v = _bag(rng)
    lhs, rhs = _pushed(t, v, u, _named_app_at(g), _named_app_at(a))
    return _show("t={t} v={v}@'{g}' u={u}@'{a}'", t=t, v=v, g=g, u=u, a=a), lhs, rhs


def _inst_two_named_apps_pair(rng: random.Random, size: int):
    a, g = _names(rng, 2, ne)
    u = _bag(rng, without="'" + g)
    eta = _name(rng)
    t = gen_res(rng, size)
    v = _bag(rng)
    lhs, rhs = _pushed(t, v, u, _pair_app_at(eta, g), _pair_app_at(eta, a), _named_app_at(a))
    return _show("<'{eta}| {t}> v={v}@'{g}' u={u}@'{a}'", eta=eta, t=t, v=v, g=g, u=u, a=a), lhs, rhs


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
    def check(k, si, rng):
        name, make = LEMMA_INSTANCES[k // samples]
        shown, lhs, rhs = make(rng, max_term_size)
        if lhs != rhs:
            yield shown(), print_sum(lhs), print_sum(rhs), name

    return _run("lemmas", samples * len(LEMMA_INSTANCES), seed, check)


# ---------- counterexample pack ----------


def _unit(src: str) -> Sum:
    return Sum.unit(parse_res(src), NAT)


def _expect_sides(k: int, shown: str, note: str, got: tuple[Sum, Sum],
                  want: tuple[Sum, Sum]) -> list[Failure]:
    """No failure when the two sides are exactly ``want``, else one that
    shows both pairs as ``lhs vs rhs``."""
    if got == want:
        return []
    return [Failure(k, 0, shown, " vs ".join(map(print_sum, want)),
                    " vs ".join(map(print_sum, got)), note=note)]


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
    want = _unit("mu 'a.<'h> x")
    if sink != want:
        fails.append(Failure(0, 0, print_res(orig), print_sum(want),
                             "no unique sink" if sink is None else print_sum(sink),
                             note="joinability"))
    return fails


def _ce_subst_subst_same_var() -> list[Failure]:
    """The two-substitutions identity needs the variables distinct."""
    return _expect_sides(
        1, "x with v=1, u=[z], y=x", "same-variable substitution",
        _pushed(RVar("x"), (), mkbag([RVar("z")]), _subst_for("x"), _subst_for("x")),
        (Sum.zero(NAT), Sum.unit(RVar("z"), NAT)),
    )


def _ce_rename_then_named_app() -> list[Failure]:
    """Both hypotheses of the name-merging identity are necessary: distinct
    names, and a bag that does not mention the merged name."""
    t = parse_res("mu 'g.<'a> x")
    return _expect_sides(
        2, "merge 'a into 'a on mu 'g.<'a> x, empty bag", "name-merge, equal names",
        _merge_sides(t, "a", "a", ()),
        (_unit("mu 'g.<'a> x 1"), _unit("mu 'g.<'a> (x 1) 1")),
    ) + _expect_sides(
        2, "merge 'b into 'a on mu 'g.<'a> x, bag [mu 'g.<'b> y]", "name-merge, name in bag",
        _merge_sides(t, "a", "b", mkbag([parse_res("mu 'g.<'b> y")])),
        (_unit("mu 'g.<'a> x[mu 'g.<'b> y]"), _unit("mu 'g.<'a> x[mu 'g.<'a> y 1]")),
    )


def _ce_named_app_after_subst() -> list[Failure]:
    """The bag of a trailing named application must not mention the
    substituted variable."""
    return _expect_sides(
        3, "mu 'g.<'a> y with v=1, u=[x]", "variable recaptured by the bag",
        _pushed(parse_res("mu 'g.<'a> y"), (), mkbag([RVar("x")]),
                _subst_for("x"), _named_app_at("a")),
        (_unit("mu 'g.<'a> y[x]"), Sum.zero(NAT)),
    )


def _ce_two_named_apps() -> list[Failure]:
    """Both hypotheses of the two-named-apps identity are necessary:
    distinct names, and a second bag that does not mention the first name."""
    t = parse_res("mu 'd.<'a> x")
    return _expect_sides(
        4, "two named apps at the same name", "equal names",
        _pushed(t, mkbag([parse_res("mu 'd.<'d> y")]), mkbag([parse_res("mu 'd.<'d> x")]),
                _named_app_at("a"), _named_app_at("a")),
        (_unit("mu 'd.<'a> x[mu 'd.<'d> y][mu 'd.<'d> x]"),
         _unit("mu 'd.<'a> x[mu 'd.<'d> x][mu 'd.<'d> y]")),
    ) + _expect_sides(
        4, "second bag mentions the inner name", "degree condition violated",
        _pushed(t, mkbag([parse_res("mu 'd.<'d> x")]), mkbag([parse_res("mu 'd.<'g> x")]),
                _named_app_at("g"), _named_app_at("a")),
        (Sum.zero(NAT), _unit("mu 'd.<'a> x[mu 'd.<'g> x[mu 'd.<'d> x]]")),
    )


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


def counterexamples_suite() -> SuiteReport:
    """Fixed pack of negative results; exact expected values."""
    report = SuiteReport("counterexamples", 6)
    for check in (_ce_blocked_swap, _ce_subst_subst_same_var, _ce_rename_then_named_app,
                  _ce_named_app_after_subst, _ce_two_named_apps, _ce_copies_vs_occurrences):
        report.failures.extend(check())
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


def run_suite(
    name: str,
    samples: int | None = None,
    seed: int = 0,
    max_term_size: int | None = None,
    node_cap: int | None = None,
) -> SuiteReport:
    """Run a suite by name and time it.  A bound left as None keeps the
    suite's own default, and the seed and the bounds go only to a suite
    that takes them (the fixed counterexample pack takes none)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite: {name}")
    suite = SUITES[name]
    code = suite.__code__
    takes = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
    given = {"samples": samples, "seed": seed, "max_term_size": max_term_size,
             "node_cap": node_cap}
    t0 = time.perf_counter()
    report = suite(**{k: v for k, v in given.items() if v is not None and k in takes})
    report.wall_time = time.perf_counter() - t0
    return report
