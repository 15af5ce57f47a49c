"""The benchmark's workloads: inputs made from a seed, the calls each item
makes into ``mulam``, and a check of each item's output.

Every item starts from generated text, exactly as a user of the command line
would, so parsing and printing are part of the measured work.  The seed
renames the free variables of the fixed inputs (same answer, different
encodings and sort order) and is the ``seed`` of the property suites.

The checks of the fan-out and approximation items do not trust the engine:
permutation sets, a regular expression over the printed normal form, and
pinned graph sizes.  The graph sink is compared with ``normalize_r``, which
is the oracle's purpose.
"""

from __future__ import annotations

import itertools
import random
import re
import string
from dataclasses import dataclass
from typing import Callable

from mulam.oracle import explore, is_dag
from mulam.resource import normalize_r
from mulam.suites import run_suite
from mulam.syntax import BOOL, NAT
from mulam.taylor import Solvable, Unknown, head_commutes, nft_truncated, solvable, taylor_member
from mulam.textio import parse_sum, parse_term, print_sum


@dataclass(frozen=True)
class Item:
    """One closed-loop request: ``run`` does the measured work, ``check``
    judges its result outside the timed region."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def free_names(rng: random.Random, n: int) -> list[str]:
    """``n`` distinct variable names of one fixed length, so that a new seed
    reorders encodings without making them longer or shorter."""
    out: list[str] = []
    while len(out) < n:
        w = "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
        if w not in out:
            out.append(w)
    return out


# ---------- fan-out: one resource normalization per item ----------


def _normalize_item(name: str, text: str, semiring: str, check: Callable[[str], bool]) -> Item:
    """parse -> normalize_r -> print_sum, the call chain of `mulam normalize`."""

    def run() -> str:
        return print_sum(normalize_r(parse_sum(text, semiring), semiring))

    return Item(name, run, check)


def _lam_item(rng: random.Random, k: int, semiring: str) -> Item:
    ys = free_names(rng, k)
    text = "(\\x. x" + "[x]" * (k - 1) + ")[" + ", ".join(ys) + "]"
    want = {p[0] + "".join(f"[{v}]" for v in p[1:]) for p in itertools.permutations(ys)}

    def check(out: str) -> bool:
        # Every addend printed without a coefficient, one per permutation.
        addends = out.split(" + ")
        return len(addends) == len(want) and set(addends) == want

    return _normalize_item(f"lam{k}-{semiring}", text, semiring, check)


_MU_NF = re.compile(r"mu '(\w+)\.<'\1> (\w+)\[([\w,]*)\]")


def _mu_item(rng: random.Random, k: int, semiring: str) -> Item:
    x, *ys = free_names(rng, k + 1)
    text = f"(mu 'a.<'a> mu 'e.<'a> mu 'f.<'a> {x})[" + ", ".join(ys) + "]"

    def check(out: str) -> bool:
        # Exactly `mu 'a.<'a> x[y0,...,y(k-1)]` with coefficient 1.
        m = _MU_NF.fullmatch(out)
        return bool(m) and m[2] == x and sorted(m[3].split(",")) == sorted(ys)

    return _normalize_item(f"mu{k}-{semiring}", text, semiring, check)


def fanout_lam(rng: random.Random) -> list[Item]:
    # k=7 (5040 addends) is left out: it takes 16 s untraced and several
    # times that under the profiler, so one traced run would take minutes.
    return [_lam_item(rng, 6, NAT), _lam_item(rng, 6, BOOL)]


def fanout_mu(rng: random.Random) -> list[Item]:
    return [_mu_item(rng, 7, NAT), _mu_item(rng, 8, NAT), _mu_item(rng, 8, BOOL)]


# ---------- graphs: exhaustive reduction graphs ----------


def _graph_item(name: str, text: str, semiring: str, mode: str, nodes: int, edges: int) -> Item:
    def run():
        return explore(parse_sum(text, semiring), semiring, mode=mode)

    def check(g) -> bool:
        return (
            len(g.nodes) == nodes
            and len(g.edges) == edges
            and len(g.sinks) == 1
            and g.nodes[g.sinks[0]] == normalize_r(g.root, semiring)
            and is_dag(g)
        )

    return Item(name, run, check)


def graphs(rng: random.Random) -> list[Item]:
    x, y0, y1, y2 = free_names(rng, 4)
    head = f"(mu 'a.<'a> mu 'e.<'a> {x})"
    return [
        _graph_item("coeff-nat", f"{head}[{y0}, {y1}, {y1}, {y2}]", NAT, "coeff", 6146, 37891),
        _graph_item("occurrence-nat", f"{head}[{y0}, {y0}, {y0}, {y0}]", NAT, "occurrence", 1052, 3808),
        _graph_item("coeff-bool", f"{head}[{y0}, {y1}, {y2}]", BOOL, "coeff", 386, 1603),
    ]


# ---------- approx: approximants, head reduction, solvability ----------

CHURCH_2 = r"(\f.\x.f (f x))"
CHURCH_4 = r"(\f.\x.f (f (f (f x))))"
OMEGA = r"(\x.x x) (\x.x x)"
CALLCC = r"\y. mu 'a.<'a> y (\x. mu 'd.<'a> x)"


def approx(rng: random.Random) -> list[Item]:
    (w,) = free_names(rng, 1)
    two_two = f"{CHURCH_2} {CHURCH_2}"
    church_4 = parse_term(CHURCH_4)

    def approximates_four(nfs) -> bool:
        # Normal forms of approximants of 2 2 (and of 4) approximate 4.
        return bool(nfs) and all(taylor_member(t, church_4) for t in nfs)

    return [
        Item("nft-2-2", lambda: nft_truncated(parse_term(two_two), 32), approximates_four),
        Item("nft-4", lambda: nft_truncated(parse_term(CHURCH_4), 24), approximates_four),
        Item("head-commutes-dup",
             lambda: head_commutes(parse_term(rf"(\x.\y.x y y) (\z.z) {w}"), 12),
             lambda ok: ok is True),
        Item("head-commutes-2-2", lambda: head_commutes(parse_term(two_two), 12),
             lambda ok: ok is True),
        Item("solvable-omega", lambda: solvable(parse_term(OMEGA), 20000),
             lambda v: isinstance(v, Unknown) and v.fuel == 20000),
        Item("solvable-callcc", lambda: solvable(parse_term(CALLCC), 1000),
             lambda v: isinstance(v, Solvable) and v.steps == 0),
    ]


# ---------- suites: the acceptance traffic of `mulam check` ----------

# Today's defaults of `mulam check`, pinned so that a change of defaults is a
# change of the benchmark.  Values: samples, max_term_size, node_cap, and the
# sample count the report must show (lemmas reports 200 per identity).
SUITE_PARAMS = {
    "sn": (1000, 30, None, 1000),
    "confluence": (500, 14, 50_000, 500),
    "support": (500, 14, None, 500),
    "simulation": (200, 10, None, 200),
    "injectivity": (100, 12, None, 100),
    "lemmas": (200, 6, None, 3000),
    "counterexamples": (6, 0, None, 6),
}


def _suite_item(name: str, seed: int) -> Item:
    samples, max_term_size, node_cap, reported = SUITE_PARAMS[name]

    def run():
        return run_suite(name, samples=samples, seed=seed,
                         max_term_size=max_term_size, node_cap=node_cap)

    return Item(name, run, lambda r: r.samples == reported and not r.failures)


# The confluence suite explores whole reduction graphs, and on some seeds a
# sampled term's graph passes the 50000-node cap: seed 33 (sample 342, bool)
# and seed 38 (sample 361, bool) report an overflow failure after 58 s and
# 42 s, and seeds 9 and 26 take 7 s and 10 s where most take under 1 s.  It
# therefore runs at the default seed of `mulam check`, which the acceptance
# tests pass, and the other six suites take the benchmark's seed.
CONFLUENCE_SEED = 0


def suites(seed: int) -> list[Item]:
    return [_suite_item(name, CONFLUENCE_SEED if name == "confluence" else seed)
            for name in SUITE_PARAMS]


# ---------- registry ----------

WORKLOADS = ("suites", "fanout-lam", "fanout-mu", "graphs", "approx")


def build(workload: str, seed: int) -> list[Item]:
    """The items of one pass, made from ``seed`` alone."""
    if workload == "suites":
        return suites(seed)
    make = {"fanout-lam": fanout_lam, "fanout-mu": fanout_mu, "graphs": graphs,
            "approx": approx}[workload]
    return make(random.Random(seed))


def build_quick(workload: str, seed: int) -> list[Item]:
    """One small item per workload, for the benchmark's self-check."""
    rng = random.Random(seed)
    if workload == "suites":
        return [_suite_item("counterexamples", seed)]
    if workload == "fanout-lam":
        return [_lam_item(rng, 4, NAT)]
    if workload == "fanout-mu":
        return [_mu_item(rng, 5, BOOL)]
    if workload == "graphs":
        return graphs(rng)[2:]
    return approx(rng)[2:3]
