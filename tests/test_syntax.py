"""Core representation: canonical encodings, binder open/close, sums."""

import os
import random
import re
import subprocess
import sys
import threading

import pytest
from hypothesis import given, strategies as st

import mulam
from mulam.gen import gen_res, gen_term
from mulam.syntax import (
    BOOL,
    NAME,
    NAT,
    VAR,
    Lam,
    Mu,
    RApp,
    RLam,
    RMu,
    RVar,
    Sum,
    SumBuilder,
    Var,
    _canonical_items,
    close_rvar,
    deg_bag,
    degree,
    fresh_atom,
    is_locally_closed,
    iter_refs,
    lift_app,
    multinomial,
    open_mu_binder,
    open_rvar,
    path_to,
    rename_name,
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


def free_vars(t):
    return {r for kind, r, _ in iter_refs(t) if kind == VAR and isinstance(r, str)}


def free_names(t):
    return {r for kind, r, _ in iter_refs(t) if kind == NAME and isinstance(r, str)}


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


@pytest.mark.parametrize("semiring", [BOOL, NAT])
@pytest.mark.parametrize("n", range(4))
def test_canonical_items_equal_the_sorted_form(n, semiring):
    # A sum of at most one addend skips the sort.  At every size the items
    # are sorted by encoding, with Bool coefficients saturated to 1; the
    # addends are handed over out of order.
    coeffs = dict(list(zip([RApp(RVar("x"), [RVar("z")]), RVar("yy"), RVar("x")], (3, 1, 2)))[:n])
    want = tuple(sorted(((t, 1 if semiring == BOOL else c) for t, c in coeffs.items()),
                        key=lambda item: (len(item[0].enc), item[0].enc)))
    assert _canonical_items(semiring, dict(coeffs)) == want
    assert SumBuilder(semiring, dict(coeffs)).build().items == want
    assert Sum(semiring, coeffs.items()).items == want


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
    # An atom's encoding ends in ";", so one holding ";" could pass for two.
    "Var of an atom with a semicolon": ("Var('x;V.y')", ValueError),
    "RVar of an atom with a semicolon": ("RVar('x;V.y')", ValueError),
    "Mu naming an atom with a semicolon": ("Mu('a;', Var('x'))", ValueError),
    "RMu naming an atom with a semicolon": ("RMu(';', RVar('x'))", ValueError),
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


def test_a_bag_of_one_cannot_pass_for_a_bag_of_two():
    two = RApp(RVar("f"), [RVar("x"), RVar("y")])
    assert two.enc == RApp(RVar("f"), []).enc[:-1] + b"V.x;V.y;]"
    with pytest.raises(ValueError, match="without ';'"):
        RApp(RVar("f"), [RVar("x;V.y")])
    with pytest.raises(ValueError, match="without ';'"):
        RMu("a;M'b", RVar("x"))


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


def test_threads_never_draw_the_same_fresh_atom():
    # more threads than cores, switching as often as the interpreter allows:
    # a lost update of the counter would hand two threads one atom
    per_thread, drawn = 2000, []

    def draw():
        drawn.append([fresh_atom("t") for _ in range(per_thread)])

    first = int(fresh_atom("t").split("~")[1])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    numbers = sorted(int(a.split("~")[1]) for atoms in drawn for a in atoms)
    assert numbers == list(range(first + 1, first + 1 + 8 * per_thread))


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
    "an int among terms in a tuple": ("RApp(RVar('x'), (RVar('y'), 3))", "3"),
    "an int among terms in an iterator": ("RApp(RVar('x'), iter([RVar('y'), 3]))", "3"),
    "an int among terms in a generator": ("RApp(RVar('x'), (e for e in [RVar('y'), 3]))", "3"),
    "an int alone in an iterator": ("RApp(RVar('x'), iter([3]))", "3"),
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


# ---------- the empty atom names nothing, so no entry point takes it ----------

# Each call gives one entry point an empty variable or name (a lone quote is a
# name whose atom is empty); it must raise, with or without -O.
EMPTY_ATOMS = {
    "degree of a lone quote": "degree(\"'\", T)",
    "linear substitution for the empty variable": "linear_subst(T, '', [], NAT)",
    "linear named application at a lone quote": "linear_named_app(T, \"'\", [T], NAT)",
    "linear named application of a pair at a lone quote":
        "linear_named_app_named('a', T, \"'\", [T], NAT)",
    "linear named application of a pair named by a lone quote":
        "linear_named_app_named(\"'\", T, 'a', [T], NAT)",
    "renaming to a lone quote": "rename_name(T, 'a', \"'\")",
    "renaming from a lone quote": "rename_name(T, \"'\", 'a')",
    "lambda-mu substitution for the empty variable": "subst(M, '', M)",
    "lambda-mu named application at a lone quote": "named_app(M, \"'\", M)",
}
_ATOM_NAMES = """
from mulam.lamu import named_app, subst
from mulam.resource import linear_named_app, linear_named_app_named, linear_subst
from mulam.syntax import NAT, degree, rename_name
from mulam.textio import parse_res, parse_term
T = parse_res("mu 'a.<'a> x")
M = parse_term("mu 'a.<'a> x")
"""


@pytest.mark.parametrize("call", list(EMPTY_ATOMS.values()), ids=list(EMPTY_ATOMS))
def test_the_empty_atom_is_rejected(call):
    env = {}
    exec(_ATOM_NAMES, env)
    with pytest.raises(ValueError, match="non-empty atom"):
        eval(call, env)


def test_the_empty_atom_is_rejected_under_python_O():
    code = _ATOM_NAMES + f"""
for call in {list(EMPTY_ATOMS.values())!r}:
    try:
        eval(call)
    except ValueError as e:
        print('non-empty atom' in str(e))
    else:
        print('accepted')
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mulam.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * len(EMPTY_ATOMS)


# ---------- an entry point's atom is a str that does not begin with a quote ----------

# An int would be taken for the index of a binder, and a name given with two
# quotes would print as one that does not parse.  Each call must raise the
# error named beside it, with or without -O.
BAD_ATOMS = {
    "lambda-mu substitution for an int": ("subst(L, 1, Var('w'))", "TypeError"),
    "linear substitution for an int": ("linear_subst(RLam(RVar(0)), 0, [RVar('w')], NAT)",
                                       "TypeError"),
    "degree of an int": ("degree(0, T)", "TypeError"),
    "renaming from a twice-quoted name": ("rename_name(RMu('b', RVar('x')), \"''a\", 'b')",
                                          "ValueError"),
    "renaming to a twice-quoted name": ("rename_name(T, 'b', \"''a\")", "ValueError"),
    "linear named application at a twice-quoted name":
        ("linear_named_app(T, \"''a\", [], NAT)", "ValueError"),
    "degree of a twice-quoted name": ("degree(\"''a\", T)", "ValueError"),
}
_BAD_ATOM_NAMES = _ATOM_NAMES + """
from mulam.syntax import RLam, RMu, RVar, Var
L = parse_term(r"\\y.\\z. y z")
"""


@pytest.mark.parametrize("call,error", list(BAD_ATOMS.values()), ids=list(BAD_ATOMS))
def test_a_bad_atom_is_rejected(call, error):
    env = {}
    exec(_BAD_ATOM_NAMES, env)
    with pytest.raises((TypeError, ValueError)) as info:
        eval(call, env)
    assert type(info.value).__name__ == error


def test_a_bad_atom_is_rejected_under_python_O():
    code = _BAD_ATOM_NAMES + f"""
for call in {[call for call, _ in BAD_ATOMS.values()]!r}:
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
    assert proc.stdout.split() == [error for _, error in BAD_ATOMS.values()]


def test_a_sum_is_renamed_as_its_addends_are():
    t = RMu("b", RApp(RVar("x"), [RMu("c", RVar("y"))]))
    for alpha, beta in [("'a", "b"), ("'c", "'b"), ("b", "b")]:
        got = rename_name(Sum.unit(t, NAT), alpha, beta)
        assert got == Sum.unit(rename_name(t, alpha, beta), NAT), (alpha, beta)
