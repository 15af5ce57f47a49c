"""Helpers of the property suites that take arguments from outside."""

import os
import re
import subprocess
import sys

import pytest

import mulam
from mulam.suites import mirror_step, run_suite
from mulam.syntax import BOOL
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
