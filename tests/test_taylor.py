"""Finite approximants, truncated normal-form sets, solvability."""

import random

import pytest

from mulam import resource, taylor
from mulam.gen import gen_term
from mulam.lamu import head_step
from mulam.resource import head_step_res, normalize_r, step_r
from mulam.syntax import (BOOL, RLam, RVar, head_redex_pos, is_locally_closed, iter_redexes,
                          path_to, size)
from mulam.taylor import (
    Solvable,
    Unknown,
    church_false,
    church_true,
    head_commute_slices,
    head_commutes,
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


# The inputs of the benchmark's approx workload: truncated normal forms with
# their budgets, and head commutation (at budget 12).
_CHURCH_2 = r"(\f.\x.f (f x))"
_CHURCH_4 = r"(\f.\x.f (f (f (f x))))"
_NFT_INPUTS = ((f"{_CHURCH_2} {_CHURCH_2}", 32), (_CHURCH_4, 24))
_HEAD_COMMUTE_INPUTS = (r"(\x.\y.x y y) (\z.z) w", f"{_CHURCH_2} {_CHURCH_2}")


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


def _vanishing_redexes(t):
    return [r for r in (path_to(t, pos)[1] for pos, _ in iter_redexes(t)) if resource._vanishes(r)]


def test_nonvanishing_enumeration_leaves_out_exactly_the_vanishing_approximants():
    heads = set()
    for seed in range(60):
        m = gen_term(random.Random(seed), 10)
        full = taylor_enum(m, 10)
        assert taylor_enum(m, 10, "nonvanishing") == tuple(
            t for t in full if not _vanishing_redexes(t)), seed
        heads.update(type(r.head).__name__ for t in full for r in _vanishing_redexes(t))
    # both kinds of vanishing redex were left out somewhere
    assert heads == {"RLam", "RMu"}


def _keeps_by_stepping(t):
    """Does ``t`` hold no vanishing redex and no lambda redex whose one-step
    reducts each hold a vanishing redex?  Read off ``step_r``: the reduct of
    the redex at ``pos`` is the subterm at ``pos`` of each addend."""
    if _vanishing_redexes(t):
        return False
    return not any(
        all(_vanishing_redexes(path_to(u, pos)[1]) for u in step_r(t, pos, BOOL).terms())
        for pos, kind in iter_redexes(t) if kind == "lam")


def _landing_disagreements(enum):
    """Cases where ``enum``'s nonvanishing approximants are not those the
    stepping reference keeps, and how many the reference leaves out that
    hold no vanishing redex."""
    cases = [(_p(src), budget) for src, budget in _NFT_INPUTS]
    cases += [(gen_term(random.Random(seed), 20), 18) for seed in range(300)]
    bad, pruned = [], 0
    for m, budget in cases:
        full = taylor_enum(m, budget)
        kept = tuple(t for t in full if _keeps_by_stepping(t))
        if enum(m, budget, "nonvanishing") != kept:
            bad.append((m, budget))
        pruned += sum(1 for t in full if not _vanishing_redexes(t)) - len(kept)
    return bad, pruned


def test_nonvanishing_enumeration_leaves_out_the_elements_that_cannot_land():
    bad, pruned = _landing_disagreements(taylor_enum)
    assert bad == []
    # 194 of them in 2 2 alone, and some among the samples
    assert pruned > 194


@pytest.mark.parametrize("old, new", (
    # no room at the occurrences that are no heads
    ("<= other", "<= 0"),
    # no head counted as a landing site
    ("n - heads.get(a, 0)", "n"),
    # the variable's index not followed under a lambda
    ("stack.append((u.body, d + 1))", "stack.append((u.body, d))"),
))
def test_a_wrong_landing_count_is_caught(mutant_module, old, new):
    mutant = mutant_module(taylor, old, new)
    assert _landing_disagreements(mutant.taylor_enum)[0]


def test_enumeration_rejects_an_unknown_keep():
    with pytest.raises(ValueError):
        taylor_enum(_p("x"), 4, "nonzero")


# ---------- truncated normal forms ----------


def _nft_normalizing_every_approximant(m, max_size):
    """``nft_truncated`` without the pruning: every approximant up to the
    budget is normalized."""
    out = set()
    for t in taylor_enum(m, max_size):
        out.update(normalize_r(t, BOOL).terms())
    return frozenset(out)


def test_nft_matches_normalizing_every_approximant():
    cases = [(gen_term(random.Random(seed), 10), budget)
             for seed in range(300) for budget in (6, 9, 12)]
    cases += [(_p(src), budget) for src, budget in _NFT_INPUTS]
    nonempty = 0
    for m, budget in cases:
        got = nft_truncated(m, budget)
        assert got == _nft_normalizing_every_approximant(m, budget), (m, budget)
        nonempty += bool(got)
    assert nonempty >= 100


def test_nft_normalizes_only_the_nonvanishing_approximants_of_2_2():
    m = _p(_NFT_INPUTS[0][0])
    assert len(taylor_enum(m, 32)) == 1113
    assert len(taylor_enum(m, 32, "nonvanishing")) == 7


@pytest.mark.parametrize("delta", (1, -1))
def test_a_wrong_arity_is_caught(monkeypatch, delta):
    """Bags one too large or too small at every head with an arity leave out
    the approximants whose normal forms survive, and the right slice loses
    every reduct of a lambda head."""
    arity = resource._arity
    monkeypatch.setattr(taylor, "_arity", lambda h: None if arity(h) is None else arity(h) + delta)
    src, budget = _NFT_INPUTS[0]
    assert nft_truncated(_p(src), budget) != _nft_normalizing_every_approximant(_p(src), budget)
    for src in _HEAD_COMMUTE_INPUTS:
        assert head_commute_slices(_p(src), 12) != _slices_stepping_every_approximant(_p(src), 12)


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


def test_solvable_rejects_negative_fuel():
    with pytest.raises(ValueError):
        solvable(church_true(), -1)
    assert solvable(church_true(), 0) == Solvable(0, church_true())


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


# ---------- the size rule that decides which approximants are built ----------


# A vanishing redex ``(\z.z)[]`` in an approximant away from the head redex:
# along the spine, in the head redex's bag and in its lambda.  Both slices
# are raw approximants, so it must stay in the right slice.
_OFF_HEAD_VANISHING = (r"(\x.x) y ((\z.z) w)", r"(\x.x) ((\z.z) w)", r"(\x.x ((\z.z) w)) y")


def _size_rule_cases():
    """(term, budget): sampled terms with a head redex at budgets 4 to 8,
    the off-head vanishing inputs at 8 and the benchmark's head-commutation
    inputs at 12."""
    cases = []
    for seed in range(300):
        m = gen_term(random.Random(seed), 10)
        if head_redex_pos(m) is not None:
            cases += [(m, budget) for budget in range(4, 9)]
    cases += [(_p(src), 8) for src in _OFF_HEAD_VANISHING]
    return cases + [(_p(src), 12) for src in _HEAD_COMMUTE_INPUTS]


def head_slice_bound(max_size):
    """Approximants at most this large can head-step to something of size
    <= max_size.  By the size rule of ``taylor._head_step_shrink``, a lambda
    step shrinks by 2 + 2k and keeps each of the k bag elements, so k is at
    most the reduct's size; mu and merge steps shrink by at most 1."""
    return 3 * max_size + 2


def test_head_slice_bound_grows_linearly():
    assert head_slice_bound(4) == 14
    assert head_slice_bound(10) == 32


def _slices_stepping_every_approximant(m, max_size):
    """``head_commute_slices`` without the directed enumeration: every
    approximant up to the slice bound is head-stepped."""
    left = frozenset(taylor_enum(head_step(m), max_size))
    right = set()
    for t in taylor_enum(m, head_slice_bound(max_size)):
        for u in head_step_res(t, BOOL).terms():
            if u.size <= max_size:
                right.add(u)
    return left, frozenset(right)


def test_size_floor_bounds_every_head_reduct():
    """An approximant's size less the shrink of its head step is at most
    every head reduct's size, and equals it for lambda and merge steps."""
    stepped = set()
    for m, budget in _size_rule_cases():
        for t in taylor_enum(m, head_slice_bound(budget)):
            sizes = {u.size for u in head_step_res(t, BOOL).terms()}
            hit = head_redex_pos(t)
            if hit is None:
                assert not sizes, t
                continue
            pos, kind = hit
            k = 0 if kind == "rho" else len(path_to(t, pos)[1].bag)
            floor = t.size - taylor._head_step_shrink(kind, k)
            assert all(floor <= n for n in sizes), (t, floor, sizes)
            if kind != "mu":
                assert sizes <= {floor}, (t, floor, sizes)
            if sizes:
                stepped.add(kind)
    assert stepped == {"lam", "mu", "rho"}


def test_head_reduct_enumeration_builds_what_can_fit():
    """Exactly the approximants with a reduct that fits, for lambda and
    merge heads; for a mu head, a superset of them."""
    kinds = set()
    for m, budget in _size_rule_cases():
        full = taylor_enum(m, head_slice_bound(budget))
        kept = taylor_enum(m, budget, "head-reducts")
        fits = tuple(t for t in full
                     if any(u.size <= budget for u in head_step_res(t, BOOL).terms()))
        kind = head_redex_pos(m)[1]
        kinds.add(kind)
        if kind == "mu":
            assert set(fits) <= set(kept) <= set(full), (m, budget)
        else:
            assert kept == fits, (m, budget)
    assert kinds == {"lam", "mu", "rho"}
    assert taylor_enum(church_true(), 5, "head-reducts") == ()


def test_filtered_slices_match_stepping_every_approximant():
    for m, budget in _size_rule_cases():
        assert head_commute_slices(m, budget) == _slices_stepping_every_approximant(m, budget), (m, budget)


def _caught_on_head_commute_inputs(slices):
    caught = []
    for src in _HEAD_COMMUTE_INPUTS:
        m = _p(src)
        left, right = slices(m, 12)
        caught.append(left != right or right != _slices_stepping_every_approximant(m, 12)[1])
    return any(caught)


def test_an_overestimating_size_floor_is_caught(monkeypatch):
    """A floor one too high (a shrink one too small) leaves out the
    approximants whose reducts fit exactly, and the check notices on the
    benchmark's inputs."""
    shrink = taylor._head_step_shrink
    monkeypatch.setattr(taylor, "_head_step_shrink", lambda kind, k: shrink(kind, k) - 1)
    assert _caught_on_head_commute_inputs(head_commute_slices)


def test_a_lambda_budget_one_short_is_caught(monkeypatch):
    """Lambda heads enumerated up to max_size + 1 + 2k instead of
    max_size + 2 + 2k."""
    shrink = taylor._head_step_shrink
    monkeypatch.setattr(taylor, "_head_step_shrink",
                        lambda kind, k: shrink(kind, k) - (kind == "lam"))
    assert _caught_on_head_commute_inputs(head_commute_slices)


def test_a_dropped_spine_credit_is_caught(mutant_module):
    """Above the head redex each partial approximant carries the credit of
    its head step; without it, the bags along the spine lose room."""
    spine_room = ("_head_spine(f, path[1:], budget - 1, memo):\n"
                  "                room = budget + credit - 1 - h.size")
    mutant = mutant_module(taylor, spine_room, spine_room.replace(" + credit", ""))
    assert _caught_on_head_commute_inputs(mutant.head_commute_slices)


# ---------- stock terms ----------


def test_stock_terms_are_closed():
    for m in (church_true(), church_false(), omega(), pair_of(church_true(), omega())):
        assert is_locally_closed(m)
    assert nft_truncated(church_true(), 4) == frozenset({RLam(RLam(RVar(1)))})
