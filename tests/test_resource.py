"""Resource reduction: linear substitution, named application, sum stepping."""

import random

from mulam.oracle import explore, unique_sink
from mulam.resource import (
    contract_res,
    head_step_res,
    is_hnf_res,
    is_normal_res,
    linear_named_app,
    linear_named_app_named,
    linear_subst,
    normalize_r,
    redexes_res,
    step_r,
    step_sum,
)
from mulam.gen import gen_res
from mulam.syntax import BOOL, NAT, RApp, RLam, RVar, Sum, mkbag
from mulam.textio import parse_res, parse_sum, print_sum


def _p(src):
    return parse_res(src)


def _s(src, semiring=NAT):
    return parse_sum(src, semiring)


# ---------- linear substitution ----------


def test_subst_needs_exact_arity():
    assert linear_subst(_p("x"), "x", [], NAT).is_zero
    assert linear_subst(_p("x 1"), "x", [_p("y"), _p("z")], NAT).is_zero
    assert linear_subst(_p("y"), "x", [_p("z")], NAT).is_zero


def test_subst_distributes_over_occurrences():
    got = linear_subst(_p("x[x]"), "x", [_p("u"), _p("v")], NAT)
    assert got == _s("u[v] + v[u]")


def test_subst_counts_equal_distributions():
    got = linear_subst(_p("x[x]"), "x", [_p("u"), _p("u")], NAT)
    assert got == _s("2*u[u]")
    assert linear_subst(_p("x[x]"), "x", [_p("u"), _p("u")], BOOL) == _s("u[u]", BOOL)


def test_subst_prunes_by_degree():
    # nothing can send two elements into a degree-one position
    got = linear_subst(_p("x[y[x]]"), "x", [_p("u"), _p("v")], NAT)
    assert got == _s("u[y[v]] + v[y[u]]")


# ---------- linear named application ----------


def test_named_app_empty_bag_is_identity_without_namings():
    t = _p("mu 'a.<'b> x")
    assert linear_named_app(t, "g", [], NAT) == Sum.unit(t, NAT)
    assert linear_named_app(t, "g", [_p("y")], NAT).is_zero


def test_named_app_always_adds_an_application():
    got = linear_named_app(_p("mu 'g.<'a> x"), "a", [], NAT)
    assert got == _s("mu 'g.<'a> x 1")


def test_named_app_splits_bags_at_the_naming():
    # the y-into-the-recursion option dies by degree pruning
    got = linear_named_app(_p("mu 'g.<'a> x"), "a", [_p("y")], NAT)
    assert got == _s("mu 'g.<'a> x[y]")
    got2 = linear_named_app(_p("mu 'g.<'a> x 1"), "a", [_p("y")], NAT)
    assert got2 == _s("mu 'g.<'a> (x 1)[y]")
    # a genuine split needs positive degree below the naming
    got3 = linear_named_app(_p("mu 'g.<'a> mu 'd.<'a> x"), "a", [_p("y")], NAT)
    assert got3 == _s("mu 'g.<'a> (mu 'd.<'a> x[y]) 1 + mu 'g.<'a> (mu 'd.<'a> x 1)[y]")


def test_named_pair_form_keeps_the_naming():
    got = linear_named_app_named("b", _p("x"), "a", [], NAT)
    assert got == Sum.unit(_p("x"), NAT)


# ---------- contractions ----------


def test_beta_with_bags():
    assert contract_res(_p("(\\x.x[x])[y,z]"), NAT) == _s("y[z] + z[y]")
    assert contract_res(_p("(\\x.x) 1"), NAT).is_zero
    assert contract_res(_p("(\\x.y)[z]"), NAT).is_zero
    assert contract_res(_p("(\\x.y) 1"), NAT) == _s("y")


def test_mu_step_golden_coefficients():
    got = contract_res(_p("(mu 'a.<'a> mu 'e.<'a> x)[y,y]"), NAT)
    want = _s(
        "mu 'a.<'a> (mu 'e.<'a> x[y,y]) 1"
        " + 2*mu 'a.<'a> (mu 'e.<'a> x[y])[y]"
        " + mu 'a.<'a> (mu 'e.<'a> x 1)[y,y]"
    )
    assert got == want, print_sum(got)


def test_mu_step_with_empty_bag_and_no_namings():
    assert contract_res(_p("(mu 'a.<'b> x) 1"), NAT) == _s("mu 'a.<'b> x")
    assert contract_res(_p("(mu 'a.<'b> x)[y]"), NAT).is_zero


def test_rho_step_resource():
    assert contract_res(_p("mu 'a.<'b> mu 'g.<'d> x[y]"), NAT) == _s("mu 'a.<'d> x[y]")
    assert contract_res(_p("mu 'a.<'a> mu 'g.<'g> x"), NAT) == _s("mu 'a.<'a> x")


def test_step_r_inside_a_bag():
    t = _p("z[(\\x.x)[y]]")
    [(pos, kind)] = redexes_res(t)
    assert kind == "lam"
    assert step_r(t, pos, NAT) == _s("z[y]")


def test_redexes_and_normality():
    assert is_normal_res(_p("x[y, \\z.z] 1"))
    assert not is_normal_res(_p("x[(\\y.y) 1]"))


# ---------- sum stepping ----------


def test_whole_coefficient_steps_keep_copies_together():
    s0 = _s("2*(\\x.x)[y]")
    assert step_sum(s0, "leftmost") == _s("2*y")


def test_occurrence_steps_split_coefficients():
    s0 = _s("2*(\\x.x)[y]")
    assert step_sum(s0, "leftmost", mode="occurrence") == _s("(\\x.x)[y] + y")


def test_annihilating_addend_drops_out():
    s0 = _s("(\\x.x) 1 + z")
    assert step_sum(s0, "leftmost") == _s("z")


# ---------- normalization agrees with the exhaustive oracle ----------


def test_normalize_matches_oracle_on_random_terms():
    for seed in range(120):
        t = gen_res(random.Random(seed), 12)
        for semiring in (BOOL, NAT):
            got = normalize_r(t, semiring)
            sink = unique_sink(explore(t, semiring))
            assert got == sink, (seed, semiring, print_sum(got))
            assert all(is_normal_res(u) for u in got.terms())


def test_normalize_accepts_sums():
    s = _s("(\\x.x)[y] + 3*(\\x.x) 1 + w")
    assert normalize_r(s, NAT) == _s("y + w")


# ---------- wide sums (golden values of the fold-per-addend engine) ----------


def test_mu_fanout_step_and_normal_form():
    s = _s("(mu 'a.<'a> mu 'e.<'a> mu 'f.<'a> x)[y0, y1, y2, y3, y4]")
    step = step_sum(s)
    assert len(step) == 3 ** 5
    assert {c for _, c in step} == {1}
    assert normalize_r(s, NAT) == _s("mu 'a.<'a> x[y0, y1, y2, y3, y4]")


def test_lambda_fanout_with_repeated_bag_elements():
    src = "(\\x. x[x][x][x])[y0, y0, y1, y1]"
    addends = [
        "y0[y0][y1][y1]", "y0[y1][y0][y1]", "y0[y1][y1][y0]",
        "y1[y0][y0][y1]", "y1[y0][y1][y0]", "y1[y1][y0][y0]",
    ]
    assert normalize_r(_s(src), NAT) == _s(" + ".join("4*" + a for a in addends))
    assert normalize_r(_s(src, BOOL), BOOL) == _s(" + ".join(addends), BOOL)


# ---------- head reduction ----------


def test_head_step_res_stops_at_hnf():
    t = _p("\\x.x[(\\y.y)[z]]")
    assert is_hnf_res(t)
    assert head_step_res(t, BOOL) == Sum.zero(BOOL)


def test_head_step_res_contracts_the_head():
    t = _p("(\\x.x 1)[y]")
    assert head_step_res(t, BOOL) == _s("y 1", BOOL)
