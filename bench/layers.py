"""Per-layer metrics, measured from outside the program.

A layer is one module of the ``mulam`` package.  A traced pass runs under
``cProfile``; a function's self time goes to its module's layer, and the self
time of a builtin or standard-library function goes to the layer of the
function that called it (split over callers as the profiler measured it).
Counts come from the profiler's call counts, plus a few wrappers, installed
only while a traced item runs, that look at what a function returned.  The
benchmark's own frames, wrappers included, belong to no layer.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys

import mulam
from mulam import (combinatorics, gen, lamu, measures, oracle, resource, suites, syntax,
                   taylor, textio)

PKG_DIR = os.path.dirname(os.path.abspath(mulam.__file__))
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# `cli` is the eleventh module; no workload calls it, so it has no metric.
LAYERS = ("syntax", "combinatorics", "resource", "lamu", "measures", "oracle",
          "taylor", "gen", "textio", "suites")
SUITE_FUNCS = dict(suites.SUITES)

# (name, unit) of every per-layer metric, in the order they are printed.
METRICS = [
    ("syntax.self_s", "s"),
    ("syntax.sum_init_calls", "count"),
    ("syntax.sum_add_calls", "count"),
    ("syntax.sum_bind_calls", "count"),
    ("syntax.sum_hash_calls", "count"),
    ("syntax.degree_calls", "count"),
    ("syntax.open_close_calls", "count"),
    ("syntax.resterm_init_calls", "count"),
    ("combinatorics.self_s", "s"),
    ("combinatorics.compositions_yielded", "count"),
    ("resource.self_s", "s"),
    ("resource.step_r_calls", "count"),
    ("resource.normalize_r_calls", "count"),
    ("resource.normalize_r_s", "s"),
    ("resource.addends_produced", "count"),
    ("resource.nf_addends", "count"),
    ("resource.addend_yield", "ratio"),
    ("resource.peak_sum_width", "count"),
    ("lamu.self_s", "s"),
    ("lamu.head_steps", "count"),
    ("measures.self_s", "s"),
    ("measures.bold_ms_calls", "count"),
    ("oracle.self_s", "s"),
    ("oracle.explore_s", "s"),
    ("oracle.nodes", "count"),
    ("oracle.edges", "count"),
    ("taylor.self_s", "s"),
    ("taylor.enum_s", "s"),
    ("taylor.approximants", "count"),
    ("taylor.nonzero_share", "ratio"),
    ("gen.self_s", "s"),
    ("gen.terms", "count"),
    ("textio.self_s", "s"),
    ("textio.print_s", "s"),
    ("suites.self_s", "s"),
    *((f"suites.{name}_s", "s") for name in SUITE_FUNCS),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead", "ratio"),
]


def _key(fn) -> tuple[str, int, str]:
    """The profiler's label for a Python function."""
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


OPEN_CLOSE = [syntax.open_rvar, syntax.close_rvar, syntax.open_rname, syntax.close_rname,
              syntax.open_var, syntax.close_var, syntax.open_name, syntax.close_name,
              syntax.open_mu_binder]
RESTERM_INITS = [syntax.RVar.__init__, syntax.RLam.__init__, syntax.RApp.__init__,
                 syntax.RMu.__init__]
PRINTERS = [textio.print_sum, textio.print_res, textio.print_term]


# ---------- counting wrappers ----------


class Counters:
    """What the wrapped functions returned during one traced pass."""

    def __init__(self) -> None:
        self.compositions = 0
        self.addends_produced = 0
        self.nf_addends = 0
        self.nonzero_nfs = 0
        self.peak_width = 0
        self.approximants = 0
        self.head_steps = 0
        self.nodes = 0
        self.edges = 0


def _wrappers(c: Counters) -> dict:
    """Wrapped function -> wrapper.  None of these recurse through their
    module-level name, so each call is counted once."""
    orig_step_r = resource.step_r
    orig_normalize_r = resource.normalize_r
    orig_wcc = combinatorics.weak_compositions_with_counts
    orig_enum = taylor.taylor_enum
    orig_head_step = lamu.head_step
    orig_explore = oracle.explore

    def step_r(*args, **kw):
        s = orig_step_r(*args, **kw)
        c.addends_produced += len(s)
        c.peak_width = max(c.peak_width, len(s))
        return s

    def normalize_r(*args, **kw):
        s = orig_normalize_r(*args, **kw)
        c.nf_addends += len(s)
        c.nonzero_nfs += not s.is_zero
        c.peak_width = max(c.peak_width, len(s))
        return s

    def weak_compositions_with_counts(*args, **kw):
        for wc in orig_wcc(*args, **kw):
            c.compositions += 1
            yield wc

    def taylor_enum(*args, **kw):
        out = orig_enum(*args, **kw)
        c.approximants += len(out)
        return out

    def head_step(*args, **kw):
        out = orig_head_step(*args, **kw)
        c.head_steps += out is not None
        return out

    def explore(*args, **kw):
        g = orig_explore(*args, **kw)
        c.nodes += len(g.nodes)
        c.edges += len(g.edges)
        return g

    return {orig_step_r: step_r, orig_normalize_r: normalize_r,
            orig_wcc: weak_compositions_with_counts, orig_enum: taylor_enum,
            orig_head_step: head_step, orig_explore: explore}


def _own_modules() -> list:
    """The package's modules and the benchmark's, the only modules that call
    the package by name."""
    return [mod for mod in list(sys.modules.values())
            if os.path.dirname(os.path.abspath(getattr(mod, "__file__", None) or "/"))
            in (PKG_DIR, BENCH_DIR)]


class Tracer:
    """The profiler and the counting wrappers of one traced pass, switched on
    around each item's call only.

    Switching on rebinds every module-level reference to a wrapped function,
    so that calls between modules go through the wrapper."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()
        self.counters = Counters()
        self._wrappers = _wrappers(self.counters)
        self._patched: list = []

    def __enter__(self) -> None:
        for mod in _own_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        self.profile.enable()

    def __exit__(self, *exc) -> None:
        self.profile.disable()
        for mod, attr, value in self._patched:
            setattr(mod, attr, value)
        self._patched.clear()


# ---------- attribution ----------


def _layer_of(func: tuple[str, int, str]) -> str | None:
    path = os.path.abspath(func[0])
    if os.path.dirname(path) != PKG_DIR:
        return None
    name = os.path.splitext(os.path.basename(path))[0]
    return name if name in LAYERS else None


def _is_harness(func: tuple[str, int, str]) -> bool:
    return os.path.dirname(os.path.abspath(func[0])) == BENCH_DIR


def self_times(stats: dict) -> dict[str, float]:
    """Self time per layer; time of the benchmark's own frames is left out."""
    owners_memo: dict = {}

    def owners(func, active: frozenset) -> dict[str, float]:
        # Share of ``func``'s calls owned by each layer, weighted by the self
        # time each caller edge carried.
        layer = _layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        if _is_harness(func) or func in active:
            return {}
        if func in owners_memo:
            return owners_memo[func]
        callers = list(stats[func][4].items())
        weights = [edge[2] for _, edge in callers]
        if not sum(weights):
            weights = [edge[0] for _, edge in callers]
        total = sum(weights)
        out: dict[str, float] = {}
        for (caller, _), w in zip(callers, weights):
            for lay, share in owners(caller, active | {func}).items():
                out[lay] = out.get(lay, 0.0) + share * w / total
        owners_memo[func] = out
        return out

    times = {lay: 0.0 for lay in LAYERS}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = _layer_of(func)
        if layer is not None:
            times[layer] += tt
            continue
        if _is_harness(func):
            continue
        for caller, edge in callers.items():
            for lay, share in owners(caller, frozenset({func})).items():
                times[lay] += edge[2] * share
    return times


def pass_metrics(prof: cProfile.Profile, c: Counters) -> dict[str, float]:
    """Every per-layer metric of one traced pass except the ``trace.*`` ones."""
    stats = pstats.Stats(prof).stats

    def calls(*fns) -> int:
        return sum(stats[_key(f)][1] for f in fns if _key(f) in stats)

    def primitive_calls(*fns) -> int:
        return sum(stats[_key(f)][0] for f in fns if _key(f) in stats)

    def cum_s(fn) -> float:
        entry = stats.get(_key(fn))
        return entry[3] if entry else 0.0

    def print_s() -> float:
        # Inclusive time of the printers, counted where a non-printer calls one.
        printers = {_key(f) for f in PRINTERS}
        total = 0.0
        for key in printers:
            for caller, edge in stats.get(key, (0, 0, 0, 0, {}))[4].items():
                if caller not in printers:
                    total += edge[3]
        return total

    selfs = self_times(stats)
    Sum = syntax.Sum
    normalize_calls = calls(resource.normalize_r)
    m = {f"{lay}.self_s": selfs[lay] for lay in LAYERS}
    m.update({
        "syntax.sum_init_calls": calls(Sum.__init__),
        "syntax.sum_add_calls": calls(Sum.add),
        "syntax.sum_bind_calls": calls(Sum.bind),
        "syntax.sum_hash_calls": calls(Sum.__hash__),
        "syntax.degree_calls": calls(syntax.degree),
        "syntax.open_close_calls": calls(*OPEN_CLOSE),
        "syntax.resterm_init_calls": calls(*RESTERM_INITS),
        "combinatorics.compositions_yielded": c.compositions,
        "resource.step_r_calls": calls(resource.step_r),
        "resource.normalize_r_calls": normalize_calls,
        "resource.normalize_r_s": cum_s(resource.normalize_r),
        "resource.addends_produced": c.addends_produced,
        "resource.nf_addends": c.nf_addends,
        "resource.addend_yield": c.nf_addends / c.addends_produced if c.addends_produced else 0.0,
        "resource.peak_sum_width": c.peak_width,
        "lamu.head_steps": c.head_steps,
        "measures.bold_ms_calls": calls(measures.bold_ms),
        "oracle.explore_s": cum_s(oracle.explore),
        "oracle.nodes": c.nodes,
        "oracle.edges": c.edges,
        "taylor.enum_s": cum_s(taylor.taylor_enum),
        "taylor.approximants": c.approximants,
        "taylor.nonzero_share": c.nonzero_nfs / normalize_calls if normalize_calls else 0.0,
        "gen.terms": primitive_calls(gen.gen_res, gen.gen_term),
        "textio.print_s": print_s(),
    })
    m.update({f"suites.{name}_s": cum_s(fn) for name, fn in SUITE_FUNCS.items()})
    return m
