"""Resource reduction: linear substitution, named application, sum stepping."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import mulam
from mulam import resource
from mulam.lamu import rho_inner_parts
from mulam.oracle import explore, unique_sink
from mulam.resource import (
    contract_res,
    head_step_res,
    linear_named_app,
    linear_named_app_named,
    linear_subst,
    normalize_r,
    step_r,
    step_sum,
)
from mulam.gen import gen_res
from mulam.syntax import (
    BOOL,
    NAME,
    NAT,
    VAR,
    RApp,
    RLam,
    RMu,
    RVar,
    Sum,
    SumBuilder,
    _under,
    add_app,
    close_rname,
    close_rvar,
    degree,
    fresh_atom,
    is_hnf,
    iter_redexes,
    map_refs,
    mkbag,
    occurrences,
    open_mu_binder,
    open_rvar,
    pick_redex,
    redex_kind,
    redexes,
)
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
    [(pos, kind)] = redexes(t)
    assert kind == "lam"
    assert step_r(t, pos, NAT) == _s("z[y]")


def test_redexes_and_normality():
    assert _p("x[y, \\z.z] 1").normal
    assert not _p("x[(\\y.y) 1]").normal


def _reference_step(t, pos, semiring):
    """A step that always opens every binder down to the redex, contracts
    there and closes again, whether or not the redex vanishes."""
    if not pos:
        match t:
            case RApp(head=RLam(body=b), bag=bag):
                x = fresh_atom("v")
                return linear_subst(open_rvar(b, x), x, bag, semiring)
            case RApp(head=RMu() as m, bag=bag):
                a = fresh_atom("n")
                named, body = open_mu_binder(m, a)
                closed = 0 if named == a else named
                got = linear_named_app_named(named, body, a, bag, semiring)
                return got.map(lambda u: RMu(closed, close_rname(u, a)))
            case RMu(named=nr, body=RMu() as inner):
                return Sum.unit(RMu(*rho_inner_parts(nr, inner.named, inner.body)), semiring)
        raise AssertionError(t)
    i, rest = pos[0], pos[1:]
    match t:
        case RLam(body=b):
            x = fresh_atom("v")
            return _reference_step(open_rvar(b, x), rest, semiring).map(
                lambda w: RLam(close_rvar(w, x)))
        case RMu() as m:
            a = fresh_atom("n")
            named, body = open_mu_binder(m, a)
            closed = 0 if named == a else named
            return _reference_step(body, rest, semiring).map(
                lambda w: RMu(closed, close_rname(w, a)))
        case RApp(head=h, bag=bag) if i == 0:
            return _reference_step(h, rest, semiring).map(lambda w: RApp(w, bag))
        case RApp(head=h, bag=bag):
            return _reference_step(bag[i - 1], rest, semiring).map(
                lambda w: RApp(h, bag[: i - 1] + (w,) + bag[i:]))
    raise AssertionError((t, pos))


def _assert_steps_match_reference(t, semiring):
    for pos, _ in redexes(t):
        assert step_r(t, pos, semiring) == _reference_step(t, pos, semiring), (t, pos)


@given(st.integers(min_value=0, max_value=100_000), st.sampled_from([BOOL, NAT]))
def test_step_r_matches_the_always_opening_reference(seed, semiring):
    _assert_steps_match_reference(gen_res(random.Random(seed), 14), semiring)


@pytest.mark.parametrize("semiring", [BOOL, NAT])
@pytest.mark.parametrize("src", [
    "(\\x.x[x])[y]",
    "\\w.(\\x.\\v.x[w])[y]",
    "(\\x.mu 'a.<'a> x[x])[y, z]",
    "(mu 'a.<'b> mu 'g.<'a> x)[y]",
    "(mu 'a.<'b> mu 'g.<'g> x)[y]",
    "(mu 'a.<'b> mu 'g.<'g> mu 'd.<'a> x)[y]",
    "(mu 'a.<'b> \\v.mu 'g.<'a> v)[y]",
    "(\\x.\\v.v)[y]",
    "(mu 'a.<'a> x)[y]",
    "(mu 'a.<'b> x) 1",
    "mu 'b.<'b> (mu 'a.<'b> mu 'g.<'a> x)[y]",
])
def test_step_r_matches_the_reference_near_the_vanishing_boundary(src, semiring):
    _assert_steps_match_reference(_p(src), semiring)


def test_vanishing_redex_opens_no_binder(forbid_binder_opening):
    forbid_binder_opening()
    # a lambda redex with one bag element too many, and a mu redex whose
    # body never names its binder, each under a lambda and a mu
    for src in ("\\z. mu 'a.<'a> (\\x.x[z])[y, z]", "\\z. mu 'a.<'a> (mu 'g.<'b> z)[y]"):
        t = _p(src)
        [pos] = [p for p, kind in redexes(t) if kind in ("lam", "mu")]
        assert step_r(t, pos, NAT).is_zero


# ---------- contraction on the redex's own index ----------


@pytest.mark.parametrize("src, want", [
    ("(\\x. x[x][z])[y0, y1]", "y0[y1][z] + y1[y0][z]"),
    ("(mu 'a.<'a> mu 'e.<'a> x)[y0, y1]",
     "mu 'a.<'a> (mu 'e.<'a> x[y0, y1]) 1 + mu 'a.<'a> (mu 'e.<'a> x[y0]) [y1]"
     " + mu 'a.<'a> (mu 'e.<'a> x[y1]) [y0] + mu 'a.<'a> (mu 'e.<'a> x 1) [y0, y1]"),
])
def test_root_redex_contracts_without_opening_its_binder(forbid_binder_opening, src, want):
    forbid_binder_opening()
    t = _p(src)
    assert step_r(t, (), NAT) == _s(want)
    assert contract_res(t, BOOL) == _s(want, BOOL)


def _random_redex(rng):
    """A lambda or mu redex whose body may use the redex's binder (and, for
    a mu, its own naming may be the binder), with a bag that mostly fits
    the binder's occurrences."""
    if rng.random() < 0.5:
        body = gen_res(rng, 10, ld=1)
        redex_head = RLam(body)
        x = fresh_atom("v")
        fits = degree(x, open_rvar(body, x))
    else:
        body = gen_res(rng, 10, nd=1)
        redex_head = RMu(rng.choice([0, 0, "a", "b"]), body)
        fits = rng.randint(0, 3)
    k = fits if rng.random() < 0.7 else rng.randint(0, 3)
    bag = [gen_res(rng, 4) for _ in range(k)]
    return RApp(redex_head, bag)


@given(st.integers(min_value=0, max_value=100_000), st.sampled_from([BOOL, NAT]))
def test_index_contraction_equals_the_atom_path(seed, semiring):
    # At the root, the reference opens the redex's binder with a fresh atom,
    # runs the public atom-directed entry point and closes again.
    t = _random_redex(random.Random(seed))
    assert contract_res(t, semiring) == _reference_step(t, (), semiring), t


def _recursive_redexes(t, pos=()):
    """Pre-order redex list, written as a plain recursion."""
    out = []
    k = redex_kind(t)
    if k is not None:
        out.append((pos, k))
    match t:
        case RLam(body=b) | RMu(body=b):
            out += _recursive_redexes(b, pos + (0,))
        case RApp(head=h, bag=bag):
            out += _recursive_redexes(h, pos + (0,))
            for i, e in enumerate(bag):
                out += _recursive_redexes(e, pos + (i + 1,))
    return out


@given(st.integers(min_value=0, max_value=100_000))
def test_redexes_are_listed_in_pre_order(seed):
    t = gen_res(random.Random(seed), 20)
    assert redexes(t) == _recursive_redexes(t)
    assert next(iter_redexes(t), None) == (redexes(t) or [None])[0]


@given(st.integers(min_value=0, max_value=100_000), st.sampled_from([BOOL, NAT]))
def test_normalize_steps_the_first_redex(seed, semiring):
    taken = []

    def recording_step(u, pos, sr, **kw):
        assert kw == {"keep_dead": False}
        taken.append((u, pos))
        return step_r(u, pos, sr, **kw)

    t = gen_res(random.Random(seed), 14)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resource, "step_r", recording_step)
        normalize_r(t, semiring)
    # every term with a redex is stepped through the module-level step_r
    assert bool(taken) == (not t.normal)
    for u, pos in taken:
        assert pos == redexes(u)[0][0], u


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
            assert all(u.normal for u in got.terms())


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


# ---------- the shared linear substitution ----------
#
# ``_linear`` solves each (subterm, target, sub-bag) once per top-level call
# and hands the same result to every branch that needs it.  The reference
# is the substitution before it shared anything: every branch of every split
# solves its sub-problems again.


def ref_lsubst(t, x, bag):
    if not bag:
        return {t: 1}
    match t:
        case RVar(ref=r):
            assert r == x and len(bag) == 1, (t, x, bag)
            return {bag[0]: 1}
        case RLam(body=b):
            return {RLam(u): c for u, c in ref_lsubst(b, _under(x), bag).items()}
        case RMu(named=nr, body=b):
            return {RMu(nr, u): c for u, c in ref_lsubst(b, x, bag).items()}
        case RApp(head=h, bag=elems):
            kids = (h,) + elems
            acc = {}
            sizes = [occurrences(k, VAR, x) for k in kids]
            for parts, count in resource.weak_compositions_with_counts(bag, len(kids), sizes):
                maps = [ref_lsubst(k, x, p).items() for k, p in zip(kids, parts)]
                add_app(acc, maps[0], maps[1:], count)
            return acc
    raise AssertionError(t)


def _ref_linear_subst(t, x, bag, semiring):
    bag = mkbag(bag)
    if occurrences(t, VAR, x) != len(bag):
        return Sum.zero(semiring)
    return SumBuilder(semiring, ref_lsubst(t, x, bag)).build()


def _fanout(k, rng):
    """``x[x]…[x]`` with ``k`` occurrences and a bag of ``k`` elements drawn
    with repetition from a pool of ``k - 1``."""
    body = RVar("x")
    for _ in range(k - 1):
        body = RApp(body, [RVar("x")])
    pool = [RVar(f"y{i}") for i in range(k - 2)] + [_p("(\\z.z)[y0]")]
    return body, [rng.choice(pool) for _ in range(k)]


def _lambda_redex(rng):
    """A body of a lambda over ``x`` and a bag of its size, drawn from a
    pool of two terms so that elements repeat."""
    x = fresh_atom("v")
    body = open_rvar(gen_res(rng, 14, ld=1), x)
    pool = [gen_res(rng, 4) for _ in range(2)]
    return body, x, [rng.choice(pool) for _ in range(degree(x, body))]


def _same_both_times(f, *args):
    first = f(*args)
    assert f(*args) == first
    return first


def _assert_matches_reference(monkeypatch, body, x, bag, semiring):
    """``linear_subst`` and ``normalize_r`` of the redex agree with the
    reference, each called twice on the same input."""
    redex = RApp(RLam(close_rvar(body, x)), bag)
    got = _same_both_times(linear_subst, body, x, bag, semiring)
    nf = _same_both_times(normalize_r, redex, semiring)
    assert got == _ref_linear_subst(body, x, bag, semiring), (body, bag)
    walk = resource._linear

    def by_reference(t, kind, y, b, n, memo, keep_dead=True):
        if kind == VAR:
            return ref_lsubst(t, y, b)
        return walk(t, kind, y, b, n, memo, keep_dead)

    with monkeypatch.context() as m:
        m.setattr(resource, "_linear", by_reference)
        assert nf == normalize_r(redex, semiring), redex


@pytest.mark.parametrize("semiring", [BOOL, NAT])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_shared_substitution_matches_the_reference_on_fanouts(monkeypatch, k, semiring):
    rng = random.Random(k)
    for _ in range(4):
        body, bag = _fanout(k, rng)
        _assert_matches_reference(monkeypatch, body, "x", bag, semiring)


@pytest.mark.parametrize("semiring", [BOOL, NAT])
def test_shared_substitution_matches_the_reference_on_random_redexes(monkeypatch, semiring):
    rng = random.Random(17)
    for _ in range(300):
        body, x, bag = _lambda_redex(rng)
        _assert_matches_reference(monkeypatch, body, x, bag, semiring)


def test_shared_substitution_keys_on_the_target_index():
    # ``s = 0[1]`` occurs at the top, where target 0 is its head, and under
    # a lambda, where target 1 is its argument; each takes one ``a``.
    s = RApp(RVar(0), [RVar(1)])
    t = RApp(s, [RLam(s)])
    bag = (RVar("a"), RVar("a"))
    assert resource._linear(t, VAR, 0, bag, 2, {}) == ref_lsubst(t, 0, bag)
    rng = random.Random(5)
    for _ in range(300):
        t = gen_res(rng, 14, ld=3)
        x = rng.randrange(3)
        bag = mkbag(rng.choice([RVar("a"), RVar("b")]) for _ in range(occurrences(t, VAR, x)))
        assert resource._linear(t, VAR, x, bag, len(bag), {}) == ref_lsubst(t, x, bag), t


# ---------- the shared walk as named application ----------
#
# The reference is the named application as it was written before it shared
# a walk (and a memo) with substitution: ``_lna_term`` and ``_lna_named``,
# copied with new names and without annotations or the long docstring.


def ref_lna_term(t, alpha, bag, n, keep_dead=True):
    """The named application on ``t``, which names ``alpha`` ``n`` times."""
    if n == 0:
        # No naming of alpha anywhere: the empty bag is the identity, any
        # other bag has nowhere to go.
        return {} if bag else {t: 1}
    match t:
        case RLam(body=b):
            return {RLam(u): c for u, c in ref_lna_term(b, alpha, bag, n, keep_dead).items()}
        case RMu(named=nr, body=b):
            inner = ref_lna_named(nr, b, alpha, bag, n - 1 if nr == alpha else n, keep_dead)
            return {RMu(nr, u): c for u, c in inner.items()}
        case RApp(head=h, bag=elems):
            # A child with no naming of alpha only takes the empty part.
            kids = (h,) + elems
            acc = {}
            counts = [occurrences(k, NAME, alpha) for k in kids]
            sizes = [None if m else 0 for m in counts]
            for parts, count in resource.weak_compositions_with_counts(bag, len(kids), sizes):
                maps = [ref_lna_term(k, alpha, p, m, keep_dead).items()
                        for k, p, m in zip(kids, parts, counts)]
                add_app(acc, maps[0], maps[1:], count)
            return acc
    raise AssertionError(t)  # a variable has no naming: n is 0


def ref_lna_named(named, body, alpha, bag, n, keep_dead=True):
    inner = _under(alpha)
    if named != alpha:
        return ref_lna_term(body, inner, bag, n, keep_dead)
    arity = None if keep_dead else resource._arity(body)
    if n == 0:
        # Only the split that keeps nothing inside survives.
        return {} if arity is not None and arity != len(bag) else {RApp(body, bag): 1}
    acc = {}
    for (w1, w2), count in resource.weak_compositions_with_counts(bag, 2, (None, arity)):
        for u, c in ref_lna_term(body, inner, w1, n, keep_dead).items():
            v = RApp(u, w2)
            acc[v] = acc.get(v, 0) + c * count
    return acc


def _named_often(rng):
    """An application of three random terms whose free names are all ``a``,
    so that ``a`` and the one mu binder outside are named in several
    children and a split has counts above 1."""
    def kid():
        return map_refs(gen_res(rng, 8, nd=1), name=lambda r, d: "a" if isinstance(r, str) else r)
    return RApp(kid(), [kid(), kid()])


@pytest.mark.parametrize("keep_dead", [True, False])
def test_shared_walk_matches_the_named_application_reference(keep_dead):
    # Bags draw from a pool of two terms, so elements repeat and a split
    # counts more than one index assignment; targets are a free name and
    # the indices 0 and 1 at the top of the term (0 is each top mu's own
    # binder).
    rng = random.Random(23)
    pool = [RVar("y"), _p("\\z.z")]
    biggest = 0
    for _ in range(300):
        t = _named_often(rng)
        alpha = rng.choice(["a", 0, 1])
        bag = mkbag(rng.choice(pool) for _ in range(rng.randrange(5)))
        n = occurrences(t, NAME, alpha)
        want = ref_lna_term(t, alpha, bag, n, keep_dead)
        assert resource._linear(t, NAME, alpha, bag, n, {}, keep_dead) == want, (t, alpha, bag)
        biggest = max([biggest, *want.values()])
        # As the body of ``<eta| t>``, ``t`` sees the target one mu further out.
        eta, n = rng.choice(["a", 1]), occurrences(t, NAME, _under(alpha))
        want = ref_lna_named(eta, t, alpha, bag, n, keep_dead)
        assert resource._lna_named(eta, t, alpha, bag, n, {}, keep_dead) == want, (t, alpha, bag)
    assert biggest > 1


# ---------- normalization never builds dead addends ----------
#
# normalize_r steps with keep_dead=False: a mu redex's named application
# leaves out the addends whose new application at a naming of the binder is
# a vanishing redex.  The reference below normalizes through full one-step
# reducts instead, as normalize_r did before the pruning.  It takes them from
# the always-opening reference step, which equals step_r's default path (see
# above) but shares no vanishing test with the engine, so a wrong rule for
# which bag sizes vanish cannot hide in both.


def _normalize_full(x, semiring):
    # Every addend is searched for a redex by the plain recursion, which
    # reads no ``normal`` bit, so the engine's shortcuts for normal addends
    # are checked against a reference that has none.
    start = x if isinstance(x, Sum) else Sum.unit(x, semiring)
    memo = {}

    def nf(t):
        if t not in memo:
            rs = _recursive_redexes(t)
            memo[t] = (Sum.unit(t, semiring) if not rs
                       else _reference_step(t, rs[0][0], semiring).bind(nf))
        return memo[t]

    return start.bind(nf)


def _mu_stress(k):
    return "(mu 'a.<'a> mu 'e.<'a> mu 'f.<'a> x)[" + ", ".join(f"y{i}" for i in range(k)) + "]"


# Bodies at the naming <'a> of the planted redex (mu 'a.<'a> BODY)[bag], by
# what the new application BODY[w2] needs of |w2|.
PLANTED_BODIES = [
    # a lambda of degree 0, 1 or 2, with and without a deeper naming of 'a
    "\\x. z", "\\x. x", "\\x. x[x]",
    "\\x. mu 'e.<'a> z", "\\x. mu 'e.<'a> x", "\\x. mu 'e.<'a> x[x]",
    # a mu naming its binder at its own naming
    "mu 'e.<'e> z", "mu 'e.<'e> mu 'f.<'a> z",
    # a mu whose binder is named only deeper
    "mu 'e.<'a> mu 'f.<'e> x", "mu 'e.<'b> mu 'f.<'e> x",
    # a mu whose binder is never named
    "mu 'e.<'b> z", "mu 'e.<'a> z", "mu 'e.<'a> mu 'f.<'a> x",
]


def _planted(body, k, repeated, under_lambda):
    elems = ["y0"] * k if repeated else [f"y{i}" for i in range(k)]
    if under_lambda and elems:
        elems[0] = "w"
    redex = f"(mu 'a.<'a> {body})[{', '.join(elems)}]"
    return f"\\w. {redex}" if under_lambda else redex


PLANTED = [
    _planted(body, k, repeated, under_lambda)
    for body in PLANTED_BODIES
    for k in range(5)
    for repeated in (False, True)
    for under_lambda in (False, True)
    if not (repeated and k < 2)
]


@pytest.mark.parametrize("semiring", [BOOL, NAT])
def test_pruned_normalization_matches_full_reducts_on_random_terms(semiring):
    for seed in range(400):
        t = gen_res(random.Random(seed), 18)
        assert normalize_r(t, semiring) == _normalize_full(t, semiring), seed


@pytest.mark.parametrize("semiring", [BOOL, NAT])
def test_pruned_normalization_matches_full_reducts_on_planted_mu_redexes(semiring):
    for src in PLANTED:
        s = _s(src, semiring)
        assert normalize_r(s, semiring) == _normalize_full(s, semiring), src


@pytest.mark.parametrize("src", [_mu_stress(k) for k in range(5, 9)]
                         + ["(\\x. x[x][x][x][x][x])[y0, y1, y2, y3, y4, y5]"])
@pytest.mark.parametrize("semiring", [BOOL, NAT])
def test_pruned_normalization_matches_full_reducts_on_stress_inputs(src, semiring):
    s = _s(src, semiring)
    assert normalize_r(s, semiring) == _normalize_full(s, semiring)


# Normalization takes a normal addend as it is.  These inputs reach each
# shortcut: a reduct of normal addends only, a reduct mixing normal and
# reducible addends, and a start of one reducible addend with coefficient 1.
ALL_NORMAL_REDUCT = "(\\x. x[x])[y, z]"
MIXED_REDUCT = "(\\x. x[x])[\\y.y, z]"
MIXED_STARTS = [
    "2*x[y] + 3*" + ALL_NORMAL_REDUCT,
    "3*" + MIXED_REDUCT + " + 2*z[\\y.y] + 2*y[z]",
    "2*" + MIXED_REDUCT + " + 3*" + ALL_NORMAL_REDUCT + " + 2*\\x.x[(\\y.y)[x]] + 3*z",
    "3*(mu 'a.<'a> x[\\y.y])[(\\z.z)[w]] + 2*(mu 'a.<'b> x)[y] + 2*x[w]",
    # the reducible addend sorts first and its normal form is the other one
    "2*(mu 'a.<'a> x)[y] + 3*mu 'a.<'a> x[y]",
]
# One addend with a coefficient other than 1, at the start or in a reduct.
SCALED = ["3*" + MIXED_REDUCT, "2*(\\x. x[x])[\\y.y, \\y.y]"]


def test_the_shortcut_inputs_have_the_reducts_they_are_named_for():
    def first_reduct(src):
        t = _p(src)
        return step_r(t, redexes(t)[0][0], NAT, keep_dead=False).terms()

    assert all(u.normal for u in first_reduct(ALL_NORMAL_REDUCT))
    assert {u.normal for u in first_reduct(MIXED_REDUCT)} == {True, False}
    for src in MIXED_STARTS:
        got = {(t.normal, c) for t, c in _s(src)}
        assert {n for n, _ in got} == {True, False} and {c for _, c in got} <= {2, 3}, src


@pytest.mark.parametrize("semiring", [BOOL, NAT])
def test_normalization_of_sums_mixing_normal_and_reducible_addends(semiring):
    for src in MIXED_STARTS + SCALED:
        s = _s(src, semiring)
        assert normalize_r(s, semiring) == _normalize_full(s, semiring), src
    for src in (ALL_NORMAL_REDUCT, MIXED_REDUCT):
        t = _p(src)
        assert normalize_r(t, semiring) == _normalize_full(t, semiring), src
    assert normalize_r(_p(MIXED_REDUCT), NAT) == _s("z + z[\\y.y]")
    assert normalize_r(_s("2*" + MIXED_REDUCT + " + 3*z"), NAT) == _s("5*z + 2*z[\\y.y]")
    assert normalize_r(_s("2*" + MIXED_REDUCT + " + 3*z", BOOL), BOOL) == _s("z + z[\\y.y]", BOOL)
    assert normalize_r(_s(MIXED_STARTS[-1]), NAT) == _s("5*mu 'a.<'a> x[y]")
    assert normalize_r(_s(SCALED[1]), NAT) == _s("4*\\y.y")


@pytest.mark.parametrize("semiring", [BOOL, NAT])
def test_normalization_of_random_sums_mixing_normal_and_reducible_addends(semiring):
    terms = [gen_res(random.Random(seed), 14) for seed in range(300)]
    normal = [t for t in terms if t.normal]
    reducible = [t for t in terms if not t.normal]
    assert len(normal) > 30 and len(reducible) > 30
    rng = random.Random(18)
    for i in range(0, len(reducible) - 1, 2):
        parts = [reducible[i], reducible[i + 1], rng.choice(normal)]
        s = Sum(semiring, [(t, rng.choice((2, 3))) for t in parts])
        assert normalize_r(s, semiring) == _normalize_full(s, semiring), s


def test_a_binder_named_only_deeper_takes_the_bag():
    src = "(mu 'a.<'a> mu 'e.<'a> mu 'f.<'e> x)[y0, y1]"
    for semiring in (BOOL, NAT):
        assert normalize_r(_s(src, semiring), semiring) == _s("mu 'a.<'a> x[y0, y1]", semiring)


@pytest.mark.parametrize("src", PLANTED[::3] + [_mu_stress(4)])
def test_pruned_reduct_drops_only_addends_with_a_vanishing_redex(src):
    t = _p(src)
    pos = redexes(t)[0][0]
    full = step_r(t, pos, NAT)
    pruned = step_r(t, pos, NAT, keep_dead=False)
    assert dict(pruned.items).items() <= dict(full.items).items()
    for v in set(full.terms()) - set(pruned.terms()):
        assert any(step_r(v, p, NAT).is_zero for p, _ in redexes(v)), print_sum(full)
        assert normalize_r(v, NAT).is_zero


def test_step_r_keeps_the_whole_one_step_reduct():
    t = _p(_mu_stress(8))
    assert len(step_r(t, (), NAT)) == 3 ** 8
    assert len(step_r(t, (), NAT, keep_dead=False)) == 1


# ---------- head reduction ----------


def test_head_step_res_stops_at_hnf():
    t = _p("\\x.x[(\\y.y)[z]]")
    assert is_hnf(t)
    assert head_step_res(t, BOOL) == Sum.zero(BOOL)


def test_head_step_res_contracts_the_head():
    t = _p("(\\x.x 1)[y]")
    assert head_step_res(t, BOOL) == _s("y 1", BOOL)


# ---------- validation that survives python -O ----------


def test_unknown_mode_is_rejected():
    with pytest.raises(ValueError):
        step_sum(_s("(\\x.x)[y]"), mode="coef")


def test_sum_of_another_semiring_is_rejected():
    with pytest.raises(ValueError):
        normalize_r(_s("(\\x.x)[y]", NAT), BOOL)


def test_random_strategy_needs_an_rng():
    s = _s("(\\x.x)[y]")
    with pytest.raises(ValueError):
        pick_redex(s.items, "random", None)
    with pytest.raises(ValueError):
        step_sum(s, "random", None)


def test_unknown_strategy_is_rejected():
    s = _s("(\\x.x)[y]")
    with pytest.raises(ValueError, match="unknown strategy"):
        pick_redex(s.items, "outermost")
    with pytest.raises(ValueError, match="unknown strategy"):
        step_sum(s, "outermost")


def test_a_normal_sum_has_no_step_to_pick():
    s = _s("x[y] + \\x.x")
    for strategy in ("head", "leftmost", "rightmost", "random"):
        assert pick_redex(s.items, strategy, random.Random(0)) is None
    with pytest.raises(ValueError, match="normal form"):
        step_sum(s, "leftmost")


def test_unknown_semiring_is_rejected():
    with pytest.raises(ValueError, match="unknown semiring"):
        normalize_r(_p("(\\x.x)[y]"), "int")


def test_step_r_rejects_a_missing_position():
    with pytest.raises(ValueError):
        step_r(_p("\\x.(\\y.y)[x]"), (0, 2), NAT)


# ---------- entry points take resource terms, so python -O keeps the check ----------

# Each call passes something that is not a resource term (or, to the sum
# entries, not a sum) and must raise TypeError, with or without -O.
BAD_ARGUMENTS = {
    "substitution into a str": "linear_subst('x', 'x', [RVar('y')], NAT)",
    "substitution into a lambda-mu term": "linear_subst(Var('x'), 'x', [RVar('y')], NAT)",
    "substitution of a str": "linear_subst(RVar('x'), 'x', ['y'], NAT)",
    "substitution of a lambda-mu term": "linear_subst(RVar('x'), 'x', [Var('y')], NAT)",
    "named application of an int": "linear_named_app(RMu('a', RVar('x')), 'a', [3], NAT)",
    "named application on a lambda-mu term": "linear_named_app(Mu('a', Var('x')), 'a', [], NAT)",
    "named-pair application on a str": "linear_named_app_named('b', 'x', 'a', [], NAT)",
    "named-pair application of a str": "linear_named_app_named('b', RVar('x'), 'a', ['y'], NAT)",
    "normalizing a lambda-mu term": "normalize_r(Var('x'), NAT)",
    "normalizing a str": "normalize_r('x', BOOL)",
    "exploring a lambda-mu term": "explore(Var('x'), NAT)",
}
_ENTRY_NAMES = """
from mulam.oracle import explore
from mulam.resource import linear_named_app, linear_named_app_named, linear_subst, normalize_r
from mulam.syntax import BOOL, NAT, Mu, RMu, RVar, Var
"""


@pytest.mark.parametrize("call", list(BAD_ARGUMENTS.values()), ids=list(BAD_ARGUMENTS))
def test_an_entry_point_rejects_what_is_not_a_resource_term(call):
    env = {}
    exec(_ENTRY_NAMES, env)
    with pytest.raises(TypeError):
        eval(call, env)


def test_an_entry_point_rejects_what_is_not_a_resource_term_under_python_O():
    code = _ENTRY_NAMES + f"""
for call in {list(BAD_ARGUMENTS.values())!r}:
    try:
        eval(call)
    except Exception as e:
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
    assert proc.stdout.split() == ["TypeError"] * len(BAD_ARGUMENTS)
