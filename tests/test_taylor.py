"""Finite approximants, truncated normal-form sets, solvability."""

import random

import pytest

from mulam.gen import gen_term
from mulam.resource import normalize_r
from mulam.syntax import RLam, RVar, head_redex_pos, is_locally_closed, size
from mulam.taylor import (
    Solvable,
    Unknown,
    church_false,
    church_true,
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


# ---------- stock terms ----------


def test_stock_terms_are_closed():
    for m in (church_true(), church_false(), omega(), pair_of(church_true(), omega())):
        assert is_locally_closed(m)
    assert nft_truncated(church_true(), 4) == frozenset({RLam(RLam(RVar(1)))})
