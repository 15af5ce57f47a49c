"""Classical lambda-mu reduction: beta, structural mu, renaming collapse."""

import functools
import os
import random
import subprocess
import sys

import pytest

import mulam

from mulam import lamu
from mulam.gen import gen_term
from mulam.lamu import (
    FuelExhausted,
    Hnf,
    contract,
    head_run,
    head_step,
    named_app,
    reduce_redex,
    rho_term,
    subst,
)
from mulam.syntax import (
    Lam,
    Mu,
    Var,
    head_redex_pos,
    is_hnf,
    is_locally_closed,
    path_to,
    redex_kind,
    redexes,
)
from mulam.taylor import omega, pair_of
from mulam.textio import parse_term, print_term


def _p(src):
    return parse_term(src)


# ---------- substitution and named application ----------


def test_subst_replaces_free_occurrences():
    t = subst(_p("x (\\y.x)"), "x", _p("z w"))
    assert t == _p("(z w) (\\y.z w)")


def test_subst_leaves_other_atoms():
    assert subst(_p("y"), "x", _p("z")) == _p("y")


def test_named_app_appends_at_namings():
    t = _p("mu 'b.<'a> x (mu 'g.<'a> y)")
    _, body = t.named, t.body
    got = named_app(t, "a", _p("z"))
    assert got == _p("mu 'b.<'a> (x (mu 'g.<'a> y z)) z")


def test_named_app_skips_other_names():
    t = _p("mu 'b.<'g> x")
    assert named_app(t, "a", _p("z")) == t


# ---------- the three contractions ----------


def test_beta_contraction():
    assert contract(_p("(\\x.x x) y")) == _p("y y")


def test_mu_contraction_threads_the_argument():
    t = _p("(mu 'a.<'a> x) y")
    assert contract(t) == _p("mu 'a.<'a> x y")


def test_mu_contraction_under_a_different_name():
    t = _p("(mu 'a.<'b> x) y")
    assert contract(t) == _p("mu 'a.<'b> x")


def test_rho_merges_consecutive_namings():
    assert rho_term(_p("mu 'g.<'a> mu 'b.<'h> x")) == _p("mu 'g.<'h> x")


def test_rho_renames_the_inner_name():
    # the collapsed binder's occurrences are renamed to the outer naming
    t = _p("mu 'g.<'a> mu 'b.<'b> x (mu 'd.<'b> y)")
    assert rho_term(t) == _p("mu 'g.<'a> x (mu 'd.<'a> y)")


def test_rho_targets_self_naming():
    t = _p("mu 'g.<'g> mu 'b.<'b> x")
    assert rho_term(t) == _p("mu 'g.<'g> x")


def test_redex_kinds():
    assert redex_kind(_p("(\\x.x) y")) == "lam"
    assert redex_kind(_p("(mu 'a.<'a> x) y")) == "mu"
    assert redex_kind(_p("mu 'a.<'b> mu 'g.<'d> x")) == "rho"
    assert redex_kind(_p("x y")) is None


def test_redexes_find_every_position():
    t = _p("(\\x.x) ((mu 'a.<'a> y) z)")
    assert {(pos, kind) for pos, kind in redexes(t)} == {
        ((), "lam"),
        ((1,), "mu"),
    }


def test_reduce_redex_below_a_binder():
    t = _p("\\x.x ((\\y.y) z)")
    assert reduce_redex(t, (0, 1)) == _p("\\x.x z")


def test_reduce_redex_below_mu():
    t = _p("mu 'a.<'a> (\\x.x) y")
    assert reduce_redex(t, (0,)) == _p("mu 'a.<'a> y")


# ---------- head machinery ----------


def test_head_of_an_application_redex_is_the_redex():
    t = _p("(\\y.y) z w")
    pos, kind = head_redex_pos(t)
    assert path_to(t, pos)[1] == _p("(\\y.y) z")
    assert kind == "lam"


def test_hnf_recognition():
    assert is_hnf(_p("\\x.x y"))
    assert is_hnf(_p("mu 'a.<'b> x y"))
    assert not is_hnf(_p("(\\x.x) y"))
    assert not is_hnf(_p("mu 'a.<'b> mu 'g.<'d> x"))  # collapsible prefix
    assert is_hnf(_p("\\x.x ((\\y.y) z)"))  # spine redexes do not block hnf


def test_head_redex_prefers_prefix_collapse():
    t = _p("mu 'a.<'b> mu 'g.<'d> (\\x.x) y")
    assert head_redex_pos(t) == ((), "rho")


def test_head_redex_in_the_spine():
    t = _p("(\\x.x) y z")
    assert head_redex_pos(t) == ((0,), "lam")


def test_head_step_sequence():
    t = _p("(\\x.x x) (\\y.y)")
    t1 = head_step(t)
    t2 = head_step(t1)
    assert t1 == _p("(\\y.y) (\\y.y)")
    assert t2 == _p("\\y.y")
    assert head_step(t2) is None


def test_head_run_reaches_hnf():
    out = head_run(_p("(\\x.x x) (\\y.y)"), 10)
    assert isinstance(out, Hnf)
    assert out.steps == 2 and out.term == _p("\\y.y")


def test_head_run_gives_up_honestly():
    out = head_run(omega(), 25)
    assert isinstance(out, FuelExhausted)
    assert out.fuel == 25


def test_callcc_is_already_head_normal():
    cc = _p("\\y. mu 'a.<'a> y (\\x. mu 'd.<'a> x)")
    assert is_hnf(cc)
    out = head_run(cc, 5)
    assert isinstance(out, Hnf) and out.steps == 0


def test_head_run_stops_after_exactly_fuel_steps():
    # One step of fuel: the term after it is not yet head normal.
    t = _p("(\\x.x x) (\\y.y)")
    assert head_run(t, 1) == FuelExhausted(1, _p("(\\y.y) (\\y.y)"))
    assert head_run(t, 2) == Hnf(2, _p("\\y.y"))
    # No fuel: the input itself, not its reduct.
    t = _p("(\\x.x x x) (\\x.x x x)")
    assert head_run(t, 0) == FuelExhausted(0, t)
    assert head_run(t, 1) == FuelExhausted(1, _p("(\\x.x x x) (\\x.x x x) (\\x.x x x)"))


# ---------- cycle detection in head runs ----------


@functools.cache
def _reference_head_run(t, fuel):
    """Head reduction for ``fuel`` steps, one step at a time (cached, since
    the runs at fuel 20000 take that many steps)."""
    u = t
    for n in range(fuel):
        nxt = head_step(u)
        if nxt is None:
            return Hnf(n, u)
        u = nxt
    return Hnf(fuel, u) if is_hnf(u) else FuelExhausted(fuel, u)


_OMEGA = "(\\x.x x) (\\x.x x)"

# Terms whose head run cycles, with (steps before the cycle, its period).
_CYCLING = (
    (_OMEGA, 0, 1),
    (f"\\w.{_OMEGA}", 0, 1),
    (f"mu 'b.<'b> {_OMEGA}", 0, 1),
    ("(mu 'a.<'a> (\\x.x x)) (\\x.x x)", 1, 1),
    ("(\\x.x x) (\\y.(\\z.z) (y y))", 1, 2),
    # lambda and naming-merge steps
    ("(\\x. mu 'a.<'a> x x) (\\x. mu 'a.<'a> x x)", 1, 2),
    # one lambda, one mu and one naming-merge step
    ("(\\x.(mu 'a.<'a> x) x) (\\x.(mu 'a.<'a> x) x)", 2, 3),
)


def _cycle_of(t):
    """(steps before the cycle, period) of a head run known to cycle."""
    seen = {}
    u, n = t, 0
    while u not in seen:
        seen[u] = n
        u, n = head_step(u), n + 1
    return seen[u], n - seen[u]


def _head_run_disagreements(run):
    """(term, fuel) pairs where ``run`` differs from the reference: every
    fuel up to three times around the cycle and well past it, and 20000."""
    bad = []
    for src, mu, lam in _CYCLING:
        t = _p(src)
        for fuel in [*range(3 * (mu + lam) + 3), 20000]:
            if run(t, fuel) != _reference_head_run(t, fuel):
                bad.append((src, fuel))
    return bad


def test_the_cycling_terms_have_their_cycles():
    for src, mu, lam in _CYCLING:
        assert _cycle_of(_p(src)) == (mu, lam), src


def test_head_run_jumps_to_the_term_the_reference_reaches():
    assert _head_run_disagreements(head_run) == []


def test_head_run_agrees_with_the_reference_on_samples():
    for seed in range(300):
        t = gen_term(random.Random(seed), 14)
        steps = _reference_head_run(t, 20000)
        assert isinstance(steps, Hnf), seed
        for fuel in [*range(steps.steps + 3), 20000]:
            assert head_run(t, fuel) == _reference_head_run(t, fuel), (seed, fuel)


def test_head_run_finds_no_cycle_in_a_growing_term():
    t = _p("(\\x.x x x) (\\x.x x x)")
    for fuel in range(40):
        assert head_run(t, fuel) == _reference_head_run(t, fuel), fuel


def test_a_cycle_costs_its_cycle_not_its_fuel(monkeypatch):
    calls = [0]
    step = lamu.head_step

    def counting(t):
        calls[0] += 1
        return step(t)

    monkeypatch.setattr(lamu, "head_step", counting)
    assert head_run(omega(), 10**6) == FuelExhausted(10**6, omega())
    assert calls[0] == 1
    for src, mu, lam in _CYCLING:
        calls[0] = 0
        head_run(_p(src), 10**6)
        assert calls[0] <= 4 * (mu + lam), src


@pytest.mark.parametrize("old, new", (
    ("(fuel - n) % (n - s)", "(fuel - n + 1) % (n - s)"),
    ("(fuel - n) % (n - s)", "(fuel - n - 1) % (n - s)"),
    ("(fuel - n) % (n - s)", "(fuel - n) % (n - s + 1)"),
    ("saved, s = u, n", "saved, s = u, n - 1"),
))
def test_an_off_by_one_jump_is_caught(mutant_module, old, new):
    mutant = mutant_module(lamu, old, new)
    assert _head_run_disagreements(mutant.head_run)


# ---------- printing stays in sync ----------


def test_reduction_preserves_local_closure():
    t = _p("(\\x.mu 'a.<'a> x ((\\y.y) z)) w")
    seen = [t]
    while True:
        rs = redexes(seen[-1])
        if not rs:
            break
        nxt = reduce_redex(seen[-1], rs[0][0])
        assert is_locally_closed(nxt), print_term(seen[-1])
        seen.append(nxt)
    assert seen[-1] == _p("mu 'a.<'a> w z")


# ---------- validation that survives python -O ----------


@pytest.mark.parametrize("pos", [(3,), (0, 2), (0, 1, 0), (1,)])
def test_reduce_redex_rejects_a_position_not_in_the_term(pos):
    with pytest.raises(ValueError):
        reduce_redex(_p("\\x.(\\y.y) x"), pos)


def test_reduce_redex_rejects_a_position_that_is_no_redex():
    with pytest.raises(ValueError):
        reduce_redex(_p("\\x.(\\y.y) x"), (0, 1))


def test_head_run_rejects_a_dangling_index():
    with pytest.raises(ValueError):
        head_run(Lam(Var(1)), 3)


def test_rho_term_rejects_other_shapes():
    with pytest.raises(ValueError):
        rho_term(_p("mu 'a.<'a> x"))
    with pytest.raises(ValueError):
        rho_term(_p("\\x.mu 'a.<'a> x"))


def test_pair_of_rejects_a_dangling_index():
    with pytest.raises(ValueError):
        pair_of(Var(0), Var("x"))
    with pytest.raises(ValueError):
        pair_of(Var("x"), Mu(1, Var("y")))


def test_lamu_validation_holds_under_python_O():
    # python -O strips assert statements; each case must still raise.
    code = """
from mulam.lamu import head_run, reduce_redex, rho_term
from mulam.syntax import Lam, Var
from mulam.taylor import church_true, head_commutes, pair_of, solvable
from mulam.textio import parse_term
cases = [
    lambda: reduce_redex(parse_term(r"\\x.(\\y.y) x"), (3,)),
    lambda: head_run(Lam(Var(1)), 3),
    lambda: rho_term(parse_term("mu 'a.<'a> x")),
    lambda: pair_of(Var(0), Var("x")),
    lambda: head_commutes(Lam(Var(0)), 3),
    lambda: head_run(church_true(), -1),
    lambda: solvable(church_true(), -1),
]
for case in cases:
    try:
        case()
    except ValueError as e:
        print(type(e).__name__)
    else:
        print('accepted')
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mulam.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 7
