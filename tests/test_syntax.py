"""Core representation: canonical encodings, binder open/close, sums."""

import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import mulam
from mulam.gen import gen_res, gen_term
from mulam.syntax import (
    BOOL,
    NAT,
    Lam,
    Mu,
    RApp,
    RLam,
    RVar,
    Sum,
    SumBuilder,
    Var,
    close_rvar,
    deg_bag,
    degree,
    free_names,
    free_vars,
    fresh_atom,
    is_locally_closed,
    lift_app,
    multinomial,
    open_mu_binder,
    open_rvar,
    path_to,
    size,
)
from mulam.textio import ParseError, parse_res, parse_sum, parse_term

# ---------- alpha equality and canonical bags ----------


def test_alpha_equality_ignores_binder_names():
    assert parse_term(r"\x.x") == parse_term(r"\y.y")
    assert parse_term(r"mu 'a.<'a> x") == parse_term(r"mu 'b.<'b> x")
    assert parse_term(r"\x.x") != parse_term(r"\x.y")


def test_bags_are_canonically_sorted():
    a = parse_res("x[y,z 1]")
    b = parse_res("x[z 1,y]")
    assert a == b
    assert a.bag == b.bag


def test_bag_keeps_duplicates():
    t = parse_res("x[y,y]")
    assert len(t.bag) == 2


def test_terms_hash_consistently():
    s = {parse_res("x[y,z]"), parse_res("x[z,y]"), parse_res("x[y]")}
    assert len(s) == 2


# ---------- naming scope of mu ----------


def test_mu_naming_resolves_through_its_own_binder():
    # the naming slot counts the mu's own binder as reference 0
    assert parse_term(r"mu 'a.<'a> x").named == 0
    assert parse_term(r"mu 'a.<'b> x").named == "b"
    outer = parse_term(r"mu 'a.<'a> mu 'b.<'a> x")
    inner = outer.body
    assert isinstance(inner, Mu) and inner.named == 1


def test_open_mu_binder_roundtrip():
    t = parse_term(r"mu 'a.<'a> x (mu 'b.<'a> y)")
    named, body = open_mu_binder(t, "f~1")
    assert named == "f~1"
    assert "f~1" in free_names(body)


# ---------- open and close ----------


def test_open_is_identity_on_locally_closed_terms():
    for seed in range(50):
        t = gen_res(random.Random(seed), 12)
        assert is_locally_closed(t)
        assert open_rvar(t, "w~9") == t


def test_close_undoes_open_under_a_binder():
    for seed in range(50):
        t = gen_res(random.Random(seed), 12)
        body = RLam(t).body
        a = fresh_atom("x")
        assert close_rvar(open_rvar(body, a), a) == body


# ---------- free variables, names, degrees ----------


def test_free_vars_and_names():
    t = parse_term(r"\x.mu 'a.<'b> x y")
    assert free_vars(t) == {"y"}
    assert free_names(t) == {"b"}


def test_degree_counts_occurrences():
    t = parse_res("x[x,y] 1")
    assert degree("x", t) == 2
    assert degree("y", t) == 1
    assert degree("z", t) == 0


def test_name_degree_counts_namings():
    t = parse_res("mu 'g.<'a> x[mu 'd.<'a> y]")
    assert degree("'a", t) == 2
    assert deg_bag("'a", t.body.bag) == 1


# ---------- sums ----------


def test_sum_merges_equal_addends():
    x, y = RVar("x"), RVar("y")
    s = Sum(NAT, [(x, 1), (y, 2), (x, 3)])
    assert s.coeff(x) == 4 and s.coeff(y) == 2
    assert len(s) == 2


def test_bool_sums_saturate():
    x = RVar("x")
    s = Sum(BOOL, [(x, 1), (x, 5)])
    assert s.coeff(x) == 1


def test_zero_coefficients_vanish():
    x = RVar("x")
    assert Sum(NAT, [(x, 0)]).is_zero
    assert Sum.unit(x, NAT).scale(0).is_zero


def test_sum_equality_is_semiring_sensitive():
    x = RVar("x")
    assert Sum.unit(x, NAT) != Sum.unit(x, BOOL)
    assert Sum(NAT, [(x, 2)]).support() == Sum.unit(x, BOOL)


def test_bind_scales_by_coefficient():
    x, y = RVar("x"), RVar("y")
    s = Sum(NAT, [(x, 3)])
    out = s.bind(lambda t: Sum(NAT, [(y, 2)]))
    assert out == Sum(NAT, [(y, 6)])


def test_lift_app_is_multilinear():
    x, y, z = RVar("x"), RVar("y"), RVar("z")
    head = Sum(NAT, [(x, 2)])
    arg = Sum(NAT, [(y, 1), (z, 3)])
    out = lift_app(head, [arg])
    assert out == Sum(NAT, [(RApp(x, [y]), 2), (RApp(x, [z]), 6)])


def test_lift_app_annihilates_on_zero():
    x = RVar("x")
    assert lift_app(Sum.unit(x, NAT), [Sum.zero(NAT)]).is_zero


def test_lift_app_rejects_mixed_semirings():
    x = RVar("x")
    with pytest.raises(ValueError):
        lift_app(Sum.unit(x, NAT), [Sum.unit(x, BOOL)])


# ---------- sum validation raises, so python -O keeps it ----------


def test_negative_coefficient_is_rejected():
    with pytest.raises(ValueError):
        Sum(NAT, [(RVar("x"), -2)])


def test_unknown_semiring_is_rejected():
    with pytest.raises(ValueError):
        Sum("foo", [(RVar("x"), 1)])
    with pytest.raises(ValueError):
        SumBuilder("foo")


def test_non_term_and_non_int_items_are_rejected():
    with pytest.raises(TypeError):
        Sum(NAT, [("x", 1)])
    with pytest.raises(TypeError):
        Sum(NAT, [(RVar("x"), 1.5)])


def test_negative_scale_is_rejected():
    with pytest.raises(ValueError):
        parse_sum("x", NAT).scale(-1)
    with pytest.raises(TypeError):
        parse_sum("x", NAT).scale(2.0)


def test_builder_add_checks_semiring_and_factor():
    acc = SumBuilder(NAT)
    with pytest.raises(ValueError):
        acc.add(parse_sum("x", BOOL))
    with pytest.raises(ValueError):
        acc.add(parse_sum("x", NAT), -1)
    with pytest.raises(TypeError):
        acc.add(parse_sum("x", NAT), "2")
    with pytest.raises(ValueError):
        acc.remove(RVar("x"), 1)


def test_sum_validation_holds_under_python_O():
    # python -O strips assert statements; each case must still raise.
    code = """
from mulam.syntax import NAT, RVar, Sum, SumBuilder
from mulam.textio import parse_sum
cases = [
    lambda: Sum(NAT, [(RVar('x'), -2)]),
    lambda: Sum('foo', [(RVar('x'), 1)]),
    lambda: parse_sum('x', NAT).scale(-1),
    lambda: SumBuilder('foo'),
    lambda: SumBuilder(NAT).add(parse_sum('x', NAT), -1),
]
for case in cases:
    try:
        case()
    except (TypeError, ValueError) as e:
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
    assert proc.stdout.split() == ["ValueError"] * 5


# ---------- term constructors raise, so python -O keeps it ----------

# Each case is an expression and the error it must raise, with or without -O.
BAD_TERMS = {
    "RLam of an int": ("RLam(3)", TypeError),
    "RLam of a lambda-mu term": ("RLam(Var('x'))", TypeError),
    "RApp of a str head": ("RApp('x', [])", TypeError),
    "RApp of a lambda-mu head": ("RApp(Var('x'), [])", TypeError),
    "RMu of a non-term body": ("RMu(0, 'x')", TypeError),
    "Lam of a resource term": ("Lam(RVar('x'))", TypeError),
    "App of a non-term argument": ("App(Var('x'), 3)", TypeError),
    "App of a non-term function": ("App(3, Var('x'))", TypeError),
    "Mu of a non-term body": ("Mu(0, None)", TypeError),
    "RVar of a negative index": ("RVar(-1)", ValueError),
    "Var of an empty atom": ("Var('')", ValueError),
    "RVar of a float": ("RVar(1.0)", TypeError),
    "RMu naming a negative index": ("RMu(-2, RVar('x'))", ValueError),
    "Mu naming an empty atom": ("Mu('', Var('x'))", ValueError),
    "RMu naming a float": ("RMu(0.5, RVar('x'))", TypeError),
    "degree of an empty atom": ("degree('', RVar('x'))", ValueError),
}
_TERM_NAMES = "from mulam.syntax import App, Lam, Mu, RApp, RLam, RMu, RVar, Var, degree\n"


@pytest.mark.parametrize("call, error", list(BAD_TERMS.values()), ids=list(BAD_TERMS))
def test_ill_formed_terms_are_rejected(call, error):
    env = {}
    exec(_TERM_NAMES, env)
    with pytest.raises(error):
        eval(call, env)


def test_term_validation_holds_under_python_O():
    code = _TERM_NAMES + f"""
for call in {[call for call, _ in BAD_TERMS.values()]!r}:
    try:
        eval(call)
    except (TypeError, ValueError) as e:
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
    assert proc.stdout.split() == [error.__name__ for _, error in BAD_TERMS.values()]


# ---------- positions ----------


def test_path_to_follows_children_and_counts_the_binders_above():
    t = parse_term(r"(\x.x) (mu 'a.<'a> \y.y)")
    assert path_to(t, ()) == ([], t, 0, 0)
    assert isinstance(path_to(t, (0,))[1], Lam)
    assert isinstance(path_to(t, (1,))[1], Mu)
    path, u, nl, nm = path_to(t, (1, 0, 0))
    assert (u, nl, nm) == (Var(0), 1, 1)
    assert path == [(t, 1), (t.arg, 0), (t.arg.body, 0)]


@pytest.mark.parametrize("pos", [(2,), (0, 1), (1, 1), (1, 0, 1), (1, 0, 0, 0), (-1,)], ids=str)
def test_path_to_rejects_a_missing_position(pos):
    t = parse_term(r"(\x.x) (mu 'a.<'a> \y.y)")
    with pytest.raises(ValueError, match=re.escape(f"no position {pos}")):
        path_to(t, pos)


def test_path_to_resource_bags():
    t = parse_res("x[y,z 1]")
    got = {path_to(t, (1,))[1], path_to(t, (2,))[1]}
    assert got == {RVar("y"), parse_res("z 1")}
    for pos in [(3,), (-1,), (0, 0)]:
        with pytest.raises(ValueError, match=re.escape(f"no position {pos}")):
            path_to(t, pos)


# ---------- fresh atoms ----------


def test_fresh_atoms_do_not_collide_or_parse():
    a, b = fresh_atom("x"), fresh_atom("x")
    assert a != b and "~" in a
    with pytest.raises(ParseError):
        parse_term(a)


# ---------- generated terms stay well formed ----------


@given(st.integers(min_value=0, max_value=10_000))
def test_generated_resource_terms_are_locally_closed(seed):
    t = gen_res(random.Random(seed), 16)
    assert is_locally_closed(t)
    assert 1 <= size(t) <= 16


@given(st.integers(min_value=0, max_value=10_000))
def test_generated_lamu_terms_are_locally_closed(seed):
    t = gen_term(random.Random(seed), 12)
    assert is_locally_closed(t)


def test_size_counts_bag_slots():
    assert size(parse_res("x")) == 1
    assert size(parse_res("x 1")) == 2
    assert size(parse_res("x[y]")) == 4
    assert size(parse_res("x[y,z]")) == 6
    assert size(parse_res(r"\x.x")) == 2
    assert size(parse_res("mu 'a.<'a> x")) == 2


def test_multinomial():
    assert multinomial([2, 1]) == 3
    assert multinomial([1, 1, 1]) == 6
    assert multinomial([3]) == 1
    assert multinomial([]) == 1


_ATOMS = [RVar(c) for c in "uvw"] + [RLam(RVar(0)), RApp(RVar("u"), [RVar("v")])]


@given(
    st.sampled_from([BOOL, NAT]),
    st.lists(
        st.tuples(
            st.lists(st.tuples(st.sampled_from(_ATOMS), st.integers(0, 3)), max_size=4),
            st.integers(0, 3),
        ),
        max_size=4,
    ),
)
def test_builder_equals_sum_of_scaled_items(semiring, parts):
    acc = SumBuilder(semiring)
    for items, k in parts:
        acc.add(Sum(semiring, items), k)
    flat = [(t, c * k) for items, k in parts for t, c in items]
    assert acc.build() == Sum(semiring, flat)


# ---------- bag elements ----------

# A bag element that is not a resource term, and the repr the error names.
BAD_BAG_ELEMENTS = {
    "an int": ("RApp(RVar('x'), [3])", "3"),
    "a lambda-mu variable": ("RApp(RVar('x'), [Var('y')])", "<Var y>"),
    "an int among terms": ("RApp(RVar('x'), [RVar('y'), 3])", "3"),
    "a str in a raw bag": ("RApp(RVar('x'), ['y'], _raw=True)", "'y'"),
}


@pytest.mark.parametrize("call, shown", list(BAD_BAG_ELEMENTS.values()), ids=list(BAD_BAG_ELEMENTS))
def test_bag_elements_must_be_resource_terms(call, shown):
    env = {}
    exec(_TERM_NAMES, env)
    with pytest.raises(TypeError, match="bag element") as info:
        eval(call, env)
    assert str(info.value).endswith(f"not {shown}")


def test_bag_element_check_holds_under_python_O():
    code = _TERM_NAMES + f"""
for call in {[call for call, _ in BAD_BAG_ELEMENTS.values()]!r}:
    try:
        eval(call)
    except TypeError as e:
        print(str(e).split(', not ')[-1])
    else:
        print('accepted')
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mulam.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [shown for _, shown in BAD_BAG_ELEMENTS.values()]
