"""Helpers of the property suites that take arguments from outside."""

import os
import re
import subprocess
import sys

import pytest

import mulam
from mulam import suites
from mulam.suites import SuiteReport, _pushed, _subst_for, mirror_step, run_suite
from mulam.syntax import BOOL, NAT
from mulam.textio import parse_res, parse_sum

# An approximant of \x.(\y.y) x; its redex sits at position (0,).
APPROXIMANT = r"\x.(\y.y)[x]"


def test_mirror_step_contracts_the_redex_at_the_position():
    assert mirror_step(parse_res(APPROXIMANT), (0,), BOOL) == parse_sum(r"\x.x", BOOL)


def test_mirror_step_fans_out_over_the_bag():
    t = parse_res(r"z[(\y.y)[x], (\y.y)[w]]")
    assert mirror_step(t, (1,), BOOL) == parse_sum("z[x, w]", BOOL)


@pytest.mark.parametrize("pos, where", [
    ((3, 0), "child 3 at ()"),           # under a lambda, only child 0
    ((0, 0, 1), "child 1 at (0, 0)"),    # under a lambda again, one level down
    ((0, 2), "child 2 at (0,)"),         # an application has children 0 and 1
    ((0, 1, 0), "a variable at (0, 1)"),  # below a variable
])
def test_mirror_step_rejects_a_position_outside_the_term(pos, where):
    with pytest.raises(ValueError, match=re.escape(f"no position {pos}") + ".*" + re.escape(where)):
        mirror_step(parse_res(APPROXIMANT), pos, BOOL)


def test_mirror_step_rejects_a_position_under_a_mu():
    with pytest.raises(ValueError, match=r"child 1 at \(\)"):
        mirror_step(parse_res("mu 'a.<'a> x"), (1,), BOOL)


def test_mirror_step_rejects_a_position_without_a_redex():
    with pytest.raises(ValueError, match="not a redex"):
        mirror_step(parse_res(APPROXIMANT), (), BOOL)


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="unknown suite: termination"):
        run_suite("termination")


def test_run_suite_gives_node_cap_only_to_a_suite_that_takes_it():
    assert run_suite("counterexamples", node_cap=1).ok
    report = run_suite("confluence", samples=8, node_cap=1)
    assert report.failures and all(f.expected == "graph within 1 nodes" for f in report.failures)
    # Every argument at once: the pack takes none, sn takes no node cap.
    pack = run_suite("counterexamples", samples=3, seed=5, max_term_size=4, node_cap=1)
    assert (pack.samples, pack.ok) == (6, True)
    sn = run_suite("sn", samples=2, seed=7, max_term_size=5, node_cap=1)
    assert (sn.samples, sn.ok) == (2, True)


def test_run_suite_passes_the_parameters_a_suite_declares(monkeypatch):
    got = []

    def fake(samples=1, *, seed=0):
        node_cap = "a local variable, not a parameter"
        got.append((samples, seed, node_cap))
        return SuiteReport("fake", samples)

    monkeypatch.setitem(suites.SUITES, "fake", fake)
    report = run_suite("fake", samples=2, seed=3, max_term_size=4, node_cap=5)
    assert got == [(2, 3, "a local variable, not a parameter")]
    assert report.samples == 2 and report.failures == [] and report.wall_time >= 0
    run_suite("fake")
    assert got[-1][:2] == (1, 0)


def test_mirror_step_rejects_bad_positions_under_python_O():
    code = f"""
from mulam.suites import mirror_step
from mulam.textio import parse_res
for pos in [(3, 0), (0, 2), (0, 1, 0), ()]:
    try:
        mirror_step(parse_res({APPROXIMANT!r}), pos, 'bool')
    except ValueError:
        print('ValueError')
    else:
        print('accepted')
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mulam.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 4


def test_lemma_instances_are_drawn_as_before():
    # The sha256 of every instance the lemmas suite draws at seed 0 (all 15
    # identities x 200 samples): the text shown and both printed sides.  A
    # change in the order of the random draws, or in either side, moves it.
    import hashlib
    import random

    from mulam.suites import LEMMA_INSTANCES, _sample_seed
    from mulam.textio import print_sum

    h = hashlib.sha256()
    k = 0
    for _, make in LEMMA_INSTANCES:
        for _ in range(200):
            shown, lhs, rhs = make(random.Random(_sample_seed(0, k)), 6)
            h.update(repr((shown(), print_sum(lhs), print_sum(rhs))).encode())
            k += 1
    assert k == 3000
    assert h.hexdigest() == "10c2b010852289fa2772ae735cda8305038d9f44aff980c26a9731bbda4b54c4"


def test_pushed_weighs_each_split_by_its_count():
    # (x[y]){[x]/y}{[z,z]/x} = x[x]{[z,z]/x} = 2*z[z]: the two copies of z go
    # to the two occurrences of x in 2 ways.  On the right, [z,z] splits one
    # z to x[y] and one to the x in [x], a split that 2 index assignments
    # induce; a right side that dropped that count would read z[z].
    t, v, u = parse_res("x[y]"), (parse_res("x"),), (parse_res("z"), parse_res("z"))
    lhs, rhs = _pushed(t, v, u, _subst_for("y"), _subst_for("x"))
    assert lhs == rhs == parse_sum("2*z[z]", NAT)


def test_pushed_acts_on_t_once_per_distinct_part():
    # [z,z,z] splits over t and the two elements of v in 10 weak
    # compositions, which give t one of 4 parts: [], [z], [z,z] or [z,z,z].
    t, v, u = parse_res("x[y,y]"), (parse_res("x"), parse_res("x")), (parse_res("z"),) * 3
    subst_x = _subst_for("x")
    on_t = []

    def inner(s, bag):
        if s == t:
            on_t.append(bag)
        return subst_x(s, bag)

    lhs, rhs = _pushed(t, v, u, _subst_for("y"), inner)
    assert lhs == rhs == parse_sum("12*z[z,z]", NAT)
    assert sorted(map(len, on_t)) == [0, 1, 2, 3]


def test_sn_steps_each_addend_position_once_per_sample(monkeypatch):
    # The three strategies share one memo per sample.  The (sample, addend,
    # position) triples stepped are pinned: the same 92 the suite stepped,
    # 159 times, before the memo.
    import hashlib

    from mulam.textio import print_res

    calls = []
    real_gen, real_step = suites.gen_res, suites.step_r

    def gen(rng, max_size):
        calls.append(None)
        return real_gen(rng, max_size)

    def step(t, pos, semiring, **kw):
        calls.append((print_res(t), pos))
        return real_step(t, pos, semiring, **kw)

    monkeypatch.setattr(suites, "gen_res", gen)
    monkeypatch.setattr(suites, "step_r", step)
    report = suites.sn_suite(samples=50, seed=1)
    assert report.format_text().splitlines()[:-1] == ["suite: sn", "samples: 50", "failures: 0"]
    sample, stepped = -1, []
    for c in calls:
        if c is None:
            sample += 1
        else:
            stepped.append((sample, *c))
    assert sample == 49
    assert len(stepped) == len(set(stepped)) == 92
    assert hashlib.sha256(repr(sorted(stepped)).encode()).hexdigest() == (
        "6bd6e3a715361bf3de26dac695e5390dcc96f71ea6045b704cd875bda898e016")


@pytest.mark.parametrize("argv", [["--suite", "sn", "--samples", "40"],
                                  ["--suite", "lemmas", "--samples", "10"]])
def test_check_prints_the_same_under_python_O(argv):
    # Neither the draws nor the sn memo may depend on an assert.
    src = os.path.dirname(os.path.dirname(os.path.abspath(mulam.__file__)))
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "mulam.cli", "check", *argv],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append([line for line in proc.stdout.splitlines()
                     if not line.startswith("wall time:")])
    assert outs[0] == outs[1]
    assert outs[0][0] == "suite: " + argv[1]
