"""Finite approximants, truncated normal-form sets, solvability."""

import random

import pytest

from mulam import taylor
from mulam.gen import gen_term
from mulam.lamu import head_step
from mulam.resource import head_step_res
from mulam.syntax import BOOL, RLam, RVar, head_redex_pos, is_locally_closed, size
from mulam.taylor import (
    Solvable,
    Unknown,
    church_false,
    church_true,
    head_commute_slices,
    head_commutes,
    head_slice_bound,
    leq_truncated,
    nft_eq_truncated,
    nft_truncated,
    omega,
    pair_of,
    solvable,
    taylor_enum,
    taylor_member,
)
from mulam.textio import parse_res, parse_term


def _p(src):
    return parse_term(src)


# ---------- membership and enumeration agree ----------


def test_every_enumerated_approximant_is_a_member():
    for seed in range(60):
        m = gen_term(random.Random(seed), 10)
        for t in taylor_enum(m, 8):
            assert size(t) <= 8
            assert taylor_member(t, m), (seed, t)
            assert is_locally_closed(t)


def test_budgets_are_monotone():
    m = _p("(\\x.x x) (\\y.y y)")
    small = set(taylor_enum(m, 7))
    assert small <= set(taylor_enum(m, 12))


def test_membership_mirrors_shape():
    m = _p("\\x.x x")
    assert taylor_member(parse_res("\\x.x 1"), m)
    assert taylor_member(parse_res("\\x.x[x,x]"), m)
    assert not taylor_member(parse_res("\\x.x[y]"), m)
    assert not taylor_member(parse_res("x 1"), m)


def test_enumeration_of_self_application():
    got = {str_ for str_ in map(repr, taylor_enum(_p("\\x.x x"), 6))}
    assert got == {"<RLam \\x.x 1>", "<RLam \\x.x[x]>"}


# ---------- truncated normal forms ----------


def test_nft_of_the_identity_redex():
    assert nft_truncated(_p("(\\x.x) y"), 6) == frozenset({parse_res("y")})


def test_nft_of_omega_is_empty():
    assert nft_truncated(omega(), 16) == frozenset()


def test_nft_preorder_and_equality():
    assert leq_truncated(_p("(\\x.x) y"), _p("y"), 8)
    assert nft_eq_truncated(_p("(\\x.x) y"), _p("y"), 8)
    assert not nft_eq_truncated(church_true(), church_false(), 8)


def test_pair_projections_differ_in_nft():
    first = _p("(\\p.p (\\x.\\y.x)) ((\\z.z u v) w)")
    assert isinstance(solvable(first, 100), (Solvable, Unknown))


# ---------- solvability ----------


def test_solvable_examples():
    assert solvable(_p("(\\x.x) y"), 10) == Solvable(1, _p("y"))
    out = solvable(omega(), 40)
    assert isinstance(out, Unknown) and out.fuel == 40


def test_solvable_iff_nonempty_truncation_on_samples():
    """On small closed-ish samples the two solvability views agree: a head
    normal form is found exactly when some truncated approximant survives."""
    agree = 0
    for seed in range(80):
        m = gen_term(random.Random(seed), 8)
        has_hnf = isinstance(solvable(m, 200), Solvable)
        nonempty = bool(nft_truncated(m, 9))
        if has_hnf == nonempty:
            agree += 1
    # a large budget would make this exact; at size 9 a few positives are
    # still below the truncation threshold
    assert agree >= 70


# ---------- head steps commute with approximation ----------


def test_head_slice_bound_grows_linearly():
    assert head_slice_bound(4) == 14
    assert head_slice_bound(10) == 32


def test_head_reduction_commutes_with_truncation():
    checked = 0
    for seed in range(200):
        m = gen_term(random.Random(seed), 8)
        if head_redex_pos(m) is None:
            continue
        assert head_commutes(m, 5), seed
        checked += 1
        if checked >= 25:
            break
    assert checked >= 10


def test_head_commutes_rejects_a_head_normal_form():
    with pytest.raises(ValueError):
        head_commutes(church_true(), 5)


# ---------- the size rule that decides which approximants are stepped ----------

# The two head-commutation inputs of the benchmark's approx workload.
_CHURCH_2 = r"(\f.\x.f (f x))"
_HEAD_COMMUTE_INPUTS = (r"(\x.\y.x y y) (\z.z) w", f"{_CHURCH_2} {_CHURCH_2}")


def _size_rule_cases():
    """(term, budget): sampled terms with a head redex at budgets 4 to 8,
    and the benchmark's head-commutation inputs at 12."""
    cases = []
    for seed in range(200):
        m = gen_term(random.Random(seed), 10)
        if head_redex_pos(m) is not None:
            cases += [(m, budget) for budget in range(4, 9)]
    return cases + [(_p(src), 12) for src in _HEAD_COMMUTE_INPUTS]


def _slices_stepping_every_approximant(m, max_size):
    """``head_commute_slices`` without the size filter: every approximant up
    to the slice bound is head-stepped."""
    left = frozenset(taylor_enum(head_step(m), max_size))
    right = set()
    for t in taylor_enum(m, head_slice_bound(max_size)):
        for u in head_step_res(t, BOOL).terms():
            if u.size <= max_size:
                right.add(u)
    return left, frozenset(right)


def test_size_floor_bounds_every_head_reduct():
    """The floor is at most every head reduct's size, and equals it for
    lambda and merge steps."""
    stepped = set()
    for m, budget in _size_rule_cases():
        for t in taylor_enum(m, head_slice_bound(budget)):
            floor = taylor._head_reduct_size_floor(t)
            sizes = {u.size for u in head_step_res(t, BOOL).terms()}
            hit = head_redex_pos(t)
            if hit is None:
                assert floor is None and not sizes, t
                continue
            assert all(floor <= n for n in sizes), (t, floor, sizes)
            if hit[1] != "mu":
                assert sizes <= {floor}, (t, floor, sizes)
            if sizes:
                stepped.add(hit[1])
    assert stepped == {"lam", "mu", "rho"}


def test_filtered_slices_match_stepping_every_approximant():
    for m, budget in _size_rule_cases():
        assert head_commute_slices(m, budget) == _slices_stepping_every_approximant(m, budget), (m, budget)


def test_an_overestimating_size_floor_is_caught(monkeypatch):
    """A floor one too high skips approximants whose reducts fit exactly,
    and the check notices on the benchmark's inputs."""
    floor = taylor._head_reduct_size_floor
    monkeypatch.setattr(taylor, "_head_reduct_size_floor",
                        lambda t: None if floor(t) is None else floor(t) + 1)
    caught = []
    for src in _HEAD_COMMUTE_INPUTS:
        m = _p(src)
        _, right = head_commute_slices(m, 12)
        caught.append(not head_commutes(m, 12)
                      or right != _slices_stepping_every_approximant(m, 12)[1])
    assert any(caught)


# ---------- stock terms ----------


def test_stock_terms_are_closed():
    for m in (church_true(), church_false(), omega(), pair_of(church_true(), omega())):
        assert is_locally_closed(m)
    assert nft_truncated(church_true(), 4) == frozenset({RLam(RLam(RVar(1)))})
