"""Failure reports of the property suites, pinned byte for byte.

Each case forces one kind of failure by replacing a function the suite
calls, then compares the report's text and its JSON form (both without the
wall time) with ``suite_failures.json``.  The goldens were written by
``python tests/test_suite_failures.py --write``; a change to how or when
failure text is rendered must leave them as they are.
"""

import json
import os
import sys

import pytest

from mulam import suites
from mulam.syntax import NAT, RVar, Sum

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "suite_failures.json")

_EXTRA = RVar("w")


def _plus_extra(s: Sum) -> Sum:
    return s + Sum.unit(_EXTRA, s.semiring)


def _sn_measure_never_drops(mp):
    mp.setattr(suites, "compare_bold", lambda a, b: 0)
    return suites.sn_suite(samples=6, seed=1)


def _sn_step_cap(mp):
    mp.setattr(suites, "_STEP_CAP", 1)
    return suites.sn_suite(samples=6, seed=1)


def _confluence_engine_vs_oracle(mp):
    real = suites.normalize_r
    mp.setattr(suites, "normalize_r", lambda t, s: _plus_extra(real(t, s)))
    return suites.confluence_suite(samples=5, seed=0)


def _confluence_support(mp):
    real_nf, real_sink = suites.normalize_r, suites.unique_sink
    mp.setattr(suites, "normalize_r",
               lambda t, s: _plus_extra(real_nf(t, s)) if s == NAT else real_nf(t, s))
    mp.setattr(suites, "unique_sink",
               lambda g: _plus_extra(real_sink(g)) if g.semiring == NAT else real_sink(g))
    return suites.confluence_suite(samples=5, seed=0)


def _confluence_no_sink(mp):
    mp.setattr(suites, "unique_sink", lambda g: None)
    return suites.confluence_suite(samples=5, seed=0)


def _confluence_overflow(mp):
    return suites.confluence_suite(samples=8, seed=0, node_cap=1)


def _simulation(mp):
    mp.setattr(suites, "taylor_member", lambda u, m: False)
    return suites.simulation_suite(samples=4, seed=0)


def _lemmas_rhs(mp):
    def skewed(make):
        def inst(rng, size):
            shown, lhs, rhs = make(rng, size)
            return shown, lhs, _plus_extra(rhs)

        return inst

    mp.setattr(suites, "LEMMA_INSTANCES",
               tuple((name, skewed(make)) for name, make in suites.LEMMA_INSTANCES))
    return suites.lemmas_suite(samples=2, seed=0)


def _counterexamples_skewed_sides(mp):
    for name in ("linear_subst", "linear_named_app"):
        real = getattr(suites, name)
        mp.setattr(suites, name, lambda *args, real=real: _plus_extra(real(*args)))
    return suites.counterexamples_suite()


CASES = {
    "sn-measure-never-drops": _sn_measure_never_drops,
    "sn-step-cap": _sn_step_cap,
    "confluence-engine-vs-oracle": _confluence_engine_vs_oracle,
    "confluence-support": _confluence_support,
    "confluence-no-sink": _confluence_no_sink,
    "confluence-overflow": _confluence_overflow,
    "simulation-not-an-approximant": _simulation,
    "lemmas-rhs-off-by-one-addend": _lemmas_rhs,
    "counterexamples-sides-off-by-one-addend": _counterexamples_skewed_sides,
}


def _pinned(report: suites.SuiteReport) -> dict:
    text = report.format_text().splitlines()
    assert text[-1].startswith("wall time: ")
    doc = report.as_dict()
    del doc["wall_time"]
    return {"text": text[:-1], "json": doc}


def _render(case: str) -> dict:
    with pytest.MonkeyPatch.context() as mp:
        return _pinned(CASES[case](mp))


def _goldens() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(CASES))
def test_forced_failure_report_is_as_pinned(case):
    got = _render(case)
    assert got["json"]["failures"], "the case must force at least one failure"
    assert got == _goldens()[case]


def test_every_failure_site_is_pinned():
    notes = {f["note"].split(",")[0].split("=")[0]
             for doc in _goldens().values() for f in doc["json"]["failures"] if "note" in f}
    assert {"strategy", "engine vs oracle", "support of exact-count normal form", "semiring",
            "approximant"} <= notes
    assert {name for name, _ in suites.LEMMA_INSTANCES} <= notes


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({case: _render(case) for case in sorted(CASES)}, fh, indent=1, sort_keys=True)
        fh.write("\n")
