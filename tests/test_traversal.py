"""The one binder-aware traversal against the hand-written walkers it replaced.

The reference walkers below are the earlier implementations, one per
operation and syntax, kept as written.  Every operation built on
``map_refs``/``iter_refs`` must agree with them on generated terms, including
terms with indices that point outside the term, and ``lamu.contract`` must
agree with the earlier open-substitute-close contraction.  The rebuild up a
path, ``plug``, must undo the walk down it, ``path_to``, at every position.
"""

import random

import pytest
from hypothesis import given, strategies as st

from mulam.gen import gen_res, gen_term
from mulam.lamu import contract, named_app, reduce_redex, rho_inner_parts
from mulam.syntax import (
    NAME,
    VAR,
    App,
    Lam,
    Mu,
    RApp,
    RLam,
    RMu,
    RVar,
    Var,
    close_name,
    close_rname,
    close_rvar,
    close_var,
    degree,
    fresh_atom,
    is_locally_closed,
    iter_refs,
    occurrences,
    open_mu_binder,
    open_name,
    open_rname,
    open_rvar,
    open_var,
    path_to,
    plug,
    rename_name,
)
from mulam.textio import _Namer, parse_res, parse_term

# ---------- the reference walkers ----------


def ref_open_rvar(t, atom):
    def go(u, d):
        match u:
            case RVar(ref=r):
                return RVar(atom) if r == d else u
            case RLam(body=b):
                return RLam(go(b, d + 1))
            case RMu(named=nr, body=b):
                return RMu(nr, go(b, d))
            case RApp(head=h, bag=bag):
                return RApp(go(h, d), [go(e, d) for e in bag], _raw=True)
        raise AssertionError(u)

    return go(t, 0)


def ref_close_rvar(t, atom):
    def go(u, d):
        match u:
            case RVar(ref=r):
                return RVar(d) if r == atom else u
            case RLam(body=b):
                return RLam(go(b, d + 1))
            case RMu(named=nr, body=b):
                return RMu(nr, go(b, d))
            case RApp(head=h, bag=bag):
                return RApp(go(h, d), [go(e, d) for e in bag])
        raise AssertionError(u)

    return go(t, 0)


def ref_open_rname(t, atom):
    def go(u, d):
        match u:
            case RVar():
                return u
            case RLam(body=b):
                return RLam(go(b, d))
            case RMu(named=nr, body=b):
                return RMu(atom if nr == d else nr, go(b, d + 1))
            case RApp(head=h, bag=bag):
                return RApp(go(h, d), [go(e, d) for e in bag], _raw=True)
        raise AssertionError(u)

    return go(t, 1)


def ref_close_rname(t, atom):
    def go(u, d):
        match u:
            case RVar():
                return u
            case RLam(body=b):
                return RLam(go(b, d))
            case RMu(named=nr, body=b):
                return RMu(d if nr == atom else nr, go(b, d + 1))
            case RApp(head=h, bag=bag):
                return RApp(go(h, d), [go(e, d) for e in bag])
        raise AssertionError(u)

    return go(t, 1)


def ref_open_var(t, atom):
    def go(u, d):
        match u:
            case Var(ref=r):
                return Var(atom) if r == d else u
            case Lam(body=b):
                return Lam(go(b, d + 1))
            case Mu(named=nr, body=b):
                return Mu(nr, go(b, d))
            case App(fun=f, arg=a):
                return App(go(f, d), go(a, d))
        raise AssertionError(u)

    return go(t, 0)


def ref_close_var(t, atom):
    def go(u, d):
        match u:
            case Var(ref=r):
                return Var(d) if r == atom else u
            case Lam(body=b):
                return Lam(go(b, d + 1))
            case Mu(named=nr, body=b):
                return Mu(nr, go(b, d))
            case App(fun=f, arg=a):
                return App(go(f, d), go(a, d))
        raise AssertionError(u)

    return go(t, 0)


def ref_open_name(t, atom):
    def go(u, d):
        match u:
            case Var():
                return u
            case Lam(body=b):
                return Lam(go(b, d))
            case Mu(named=nr, body=b):
                return Mu(atom if nr == d else nr, go(b, d + 1))
            case App(fun=f, arg=a):
                return App(go(f, d), go(a, d))
        raise AssertionError(u)

    return go(t, 1)


def ref_close_name(t, atom):
    def go(u, d):
        match u:
            case Var():
                return u
            case Lam(body=b):
                return Lam(go(b, d))
            case Mu(named=nr, body=b):
                return Mu(d if nr == atom else nr, go(b, d + 1))
            case App(fun=f, arg=a):
                return App(go(f, d), go(a, d))
        raise AssertionError(u)

    return go(t, 1)


def ref_open_mu_binder(t, atom):
    named = atom if t.named == 0 else t.named
    if isinstance(t, Mu):
        body = ref_open_name(t.body, atom)
    else:
        body = ref_open_rname(t.body, atom)
    return named, body


def ref_rename_name(t, alpha, beta):
    if alpha == beta:
        return t

    def go(u):
        match u:
            case Var() | RVar():
                return u
            case Lam(body=b):
                return Lam(go(b))
            case RLam(body=b):
                return RLam(go(b))
            case App(fun=f, arg=a):
                return App(go(f), go(a))
            case RApp(head=h, bag=bag):
                return RApp(go(h), [go(e) for e in bag])
            case Mu(named=nr, body=b):
                return Mu(alpha if nr == beta else nr, go(b))
            case RMu(named=nr, body=b):
                return RMu(alpha if nr == beta else nr, go(b))
        raise AssertionError(u)

    return go(t)


def ref_rho_map_ref(r, a_ref, d):
    if isinstance(r, str):
        return r
    if r < d:
        return r
    if r == d:
        return a_ref if isinstance(a_ref, str) else d + a_ref
    if r == d + 1:
        return d
    return r - 1


def ref_rho_rename(u, a_ref, d):
    match u:
        case Var() | RVar():
            return u
        case Lam(body=b):
            return Lam(ref_rho_rename(b, a_ref, d))
        case RLam(body=b):
            return RLam(ref_rho_rename(b, a_ref, d))
        case App(fun=f, arg=a):
            return App(ref_rho_rename(f, a_ref, d), ref_rho_rename(a, a_ref, d))
        case RApp(head=h, bag=bag):
            return RApp(ref_rho_rename(h, a_ref, d), [ref_rho_rename(e, a_ref, d) for e in bag])
        case Mu(named=nr, body=b):
            return Mu(ref_rho_map_ref(nr, a_ref, d), ref_rho_rename(b, a_ref, d + 1))
        case RMu(named=nr, body=b):
            return RMu(ref_rho_map_ref(nr, a_ref, d), ref_rho_rename(b, a_ref, d + 1))
    raise AssertionError(u)


def ref_rho_inner_parts(outer_named, inner_named, inner_body):
    if inner_named == 0:
        new_named = outer_named
    elif isinstance(inner_named, int):
        new_named = inner_named - 1
    else:
        new_named = inner_named
    return new_named, ref_rho_rename(inner_body, outer_named, 1)


def ref_free_vars(t):
    out = set()
    stack = [t]
    while stack:
        u = stack.pop()
        match u:
            case Var(ref=r) | RVar(ref=r):
                if isinstance(r, str):
                    out.add(r)
            case Lam(body=b) | RLam(body=b) | Mu(body=b) | RMu(body=b):
                stack.append(b)
            case App(fun=f, arg=a):
                stack.append(f)
                stack.append(a)
            case RApp(head=h, bag=bag):
                stack.append(h)
                stack.extend(bag)
    return out


def ref_free_names(t):
    out = set()
    stack = [t]
    while stack:
        u = stack.pop()
        match u:
            case Mu(named=n, body=b) | RMu(named=n, body=b):
                if isinstance(n, str):
                    out.add(n)
                stack.append(b)
            case Lam(body=b) | RLam(body=b):
                stack.append(b)
            case App(fun=f, arg=a):
                stack.append(f)
                stack.append(a)
            case RApp(head=h, bag=bag):
                stack.append(h)
                stack.extend(bag)
    return out


def ref_degree(nu, t):
    if nu.startswith("'"):
        atom, kind = nu[1:], "name"
    else:
        atom, kind = nu, "var"
    n = 0
    stack = [t]
    while stack:
        u = stack.pop()
        match u:
            case Var(ref=r) | RVar(ref=r):
                if kind == "var" and r == atom:
                    n += 1
            case Lam(body=b) | RLam(body=b):
                stack.append(b)
            case Mu(named=nr, body=b) | RMu(named=nr, body=b):
                if kind == "name" and nr == atom:
                    n += 1
                stack.append(b)
            case App(fun=f, arg=a):
                stack.append(f)
                stack.append(a)
            case RApp(head=h, bag=bag):
                stack.append(h)
                stack.extend(bag)
    return n


def ref_count(t, target, name):
    """The resource engine's own occurrence walk, before ``occurrences``."""
    n = 0
    stack = [(t, target)]
    while stack:
        u, d = stack.pop()
        under = d if isinstance(d, str) else d + 1
        match u:
            case RVar(ref=r):
                if not name and r == d:
                    n += 1
            case RLam(body=b):
                stack.append((b, d if name else under))
            case RMu(named=nr, body=b):
                if name and nr == d:
                    n += 1
                stack.append((b, under if name else d))
            case RApp(head=h, bag=bag):
                stack.append((h, d))
                stack.extend((e, d) for e in bag)
    return n


def ref_is_locally_closed(t):
    def go(u, dl, dn):
        match u:
            case Var(ref=r) | RVar(ref=r):
                return not (isinstance(r, int) and r >= dl)
            case Lam(body=b) | RLam(body=b):
                return go(b, dl + 1, dn)
            case Mu(named=nr, body=b) | RMu(named=nr, body=b):
                if isinstance(nr, int) and nr > dn:
                    return False
                return go(b, dl, dn + 1)
            case App(fun=f, arg=a):
                return go(f, dl, dn) and go(a, dl, dn)
            case RApp(head=h, bag=bag):
                return go(h, dl, dn) and all(go(e, dl, dn) for e in bag)
        raise AssertionError(u)

    return go(t, 0, 0)


def ref_subst(t, x, n):
    def go(u):
        match u:
            case Var(ref=r):
                return n if r == x else u
            case Lam(body=b):
                return Lam(go(b))
            case Mu(named=nr, body=b):
                return Mu(nr, go(b))
            case App(fun=f, arg=a):
                return App(go(f), go(a))
        raise AssertionError(u)

    return go(t)


def ref_named_app(t, alpha, n):
    def go(u):
        match u:
            case Var():
                return u
            case Lam(body=b):
                return Lam(go(b))
            case App(fun=f, arg=a):
                return App(go(f), go(a))
            case Mu(named=nr, body=b):
                inner = go(b)
                if nr == alpha:
                    inner = App(inner, n)
                return Mu(nr, inner)
        raise AssertionError(u)

    return go(t)


def ref_contract(t):
    """The contraction that opens the redex's binder with a fresh atom,
    substitutes and closes again."""
    match t:
        case App(fun=Lam(body=b), arg=n):
            x = fresh_atom("v")
            return ref_subst(ref_open_var(b, x), x, n)
        case App(fun=Mu() as m, arg=n):
            a = fresh_atom("n")
            named, body = ref_open_mu_binder(m, a)
            body = ref_named_app(body, a, n)
            if named == a:
                body = App(body, n)
            return Mu(0 if named == a else named, ref_close_name(body, a))
    raise AssertionError(t)


# ---------- generated inputs ----------


def _subterms(t):
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        match u:
            case Lam(body=b) | RLam(body=b) | Mu(body=b) | RMu(body=b):
                stack.append(b)
            case App(fun=f, arg=a):
                stack += [f, a]
            case RApp(head=h, bag=bag):
                stack += [h, *bag]


def _dangling_term(rng):
    """A term of either syntax that may have indices pointing up to two
    binders of each kind outside it."""
    ld, nd = rng.randint(0, 2), rng.randint(0, 2)
    if rng.random() < 0.5:
        return gen_term(rng, 14, ld=ld, nd=nd)
    return gen_res(rng, 16, ld=ld, nd=nd)


def _same(a, b):
    # ``==`` compares encodings, which spell bags in their stored order, so
    # this also checks that the raw openers keep bag order.
    assert type(a) is type(b) and a == b, (a, b)


_SEEDS = st.integers(min_value=0, max_value=100_000)


# ---------- the walkers agree with their references ----------


@given(_SEEDS)
def test_open_and_close_match_the_references_at_every_binder(seed):
    t = _dangling_term(random.Random(seed))
    atom = "q~1"
    if isinstance(t, (Var, Lam, App, Mu)):
        pairs = [(open_var, close_var, ref_open_var, ref_close_var, Lam, "x"),
                 (open_name, close_name, ref_open_name, ref_close_name, Mu, "a")]
    else:
        pairs = [(open_rvar, close_rvar, ref_open_rvar, ref_close_rvar, RLam, "x"),
                 (open_rname, close_rname, ref_open_rname, ref_close_rname, RMu, "a")]
    for opener, closer, ref_opener, ref_closer, binder, free in pairs:
        # the whole term stands for the body of a binder just outside it
        bodies = [t] + [u.body for u in _subterms(t) if isinstance(u, binder)]
        for b in bodies:
            opened = opener(b, atom)
            _same(opened, ref_opener(b, atom))
            _same(closer(opened, atom), ref_closer(opened, atom))
            _same(closer(b, free), ref_closer(b, free))
    for u in _subterms(t):
        if isinstance(u, (Mu, RMu)):
            got_named, got_body = open_mu_binder(u, atom)
            want_named, want_body = ref_open_mu_binder(u, atom)
            assert got_named == want_named
            _same(got_body, want_body)


@given(_SEEDS)
def test_queries_match_the_references(seed):
    t = _dangling_term(random.Random(seed))
    namer = _Namer(t)
    assert namer._free[VAR] == ref_free_vars(t)
    assert namer._free[NAME] == ref_free_names(t)
    for nu in ("x", "y", "z", "'a", "'b", "'c"):
        assert degree(nu, t) == ref_degree(nu, t)
    for u in _subterms(t):
        assert is_locally_closed(u) == ref_is_locally_closed(u), u


def test_dangling_indices_of_each_kind_are_seen():
    for src, closed in [(Lam(Var(1)), False), (Lam(Var(0)), True), (Mu(1, Var("x")), False),
                        (Mu(0, Mu(1, Var("x"))), True), (Mu(0, Mu(2, Var("x"))), False),
                        (RMu(0, RLam(RMu(2, RVar(1)))), False), (Lam(Mu(0, Var(0))), True)]:
        assert is_locally_closed(src) == closed == ref_is_locally_closed(src), src


@given(_SEEDS)
def test_rename_name_matches_the_reference(seed):
    t = _dangling_term(random.Random(seed))
    for alpha in ("a", "b", "c"):
        for beta in ("a", "b", "c"):
            _same(rename_name(t, alpha, beta), ref_rename_name(t, alpha, beta))


@given(_SEEDS)
def test_rho_inner_parts_matches_the_reference(seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        body = gen_term(rng, 14, ld=rng.randint(0, 1), nd=rng.randint(1, 3))
    else:
        body = gen_res(rng, 16, ld=rng.randint(0, 1), nd=rng.randint(1, 3))
    outer = rng.choice([0, 1, 2, "a", "b"])
    inner = rng.choice([0, 1, 2, 3, "a", "c"])
    got_named, got_body = rho_inner_parts(outer, inner, body)
    want_named, want_body = ref_rho_inner_parts(outer, inner, body)
    assert got_named == want_named
    _same(got_body, want_body)


# ---------- contraction on the redex's own index ----------


def _random_lamu_redex(rng):
    """A lambda or mu redex whose body uses the redex's binder (a mu's own
    naming may be that binder too) and whose argument is locally closed."""
    arg = gen_term(rng, 6)
    if rng.random() < 0.5:
        return App(Lam(gen_term(rng, 12, ld=1)), arg)
    return App(Mu(rng.choice([0, 0, "a", "b"]), gen_term(rng, 12, nd=1)), arg)


@given(_SEEDS)
def test_contract_matches_open_substitute_close(seed):
    t = _random_lamu_redex(random.Random(seed))
    _same(contract(t), ref_contract(t))


@pytest.mark.parametrize("src", [
    "(\\x. x (\\y. x y)) (\\z. z)",
    "(\\x. mu 'a.<'a> x (mu 'b.<'a> x)) w",
    "(mu 'a.<'a> x (mu 'b.<'a> y (mu 'g.<'b> z))) w",
    "(mu 'a.<'b> \\v. mu 'g.<'a> v) w",
    "(mu 'a.<'a> mu 'e.<'a> mu 'f.<'a> x) (\\y. mu 'd.<'d> y)",
])
def test_root_redex_contracts_without_opening_its_binder(forbid_binder_opening, src):
    t = parse_term(src)
    want = ref_contract(t)
    forbid_binder_opening()
    _same(contract(t), want)
    _same(reduce_redex(t, ()), want)


def test_named_app_follows_an_index_under_each_mu():
    # index 1 at the top is the binder just outside the term
    t = Mu(1, App(Var("x"), Mu(2, Var("y"))))
    z = Var("z")
    assert named_app(t, 1, z) == Mu(1, App(App(Var("x"), Mu(2, App(Var("y"), z))), z))
    assert named_app(t, 2, z) == t


@given(_SEEDS)
def test_occurrences_match_the_engines_earlier_count(seed):
    rng = random.Random(seed)
    t = gen_res(rng, 16, ld=rng.randint(0, 2), nd=rng.randint(0, 2))
    for target in (0, 1, "x"):
        assert occurrences(t, VAR, target) == ref_count(t, target, False), (t, target)
    for target in (0, 1, "a"):
        assert occurrences(t, NAME, target) == ref_count(t, target, True), (t, target)


def ref_occurrences(t, kind, target):
    """``occurrences`` as it was: a filter over the references ``iter_refs``
    yields."""
    if isinstance(target, str):
        return sum(1 for k, r, _ in iter_refs(t) if r == target and k == kind)
    return sum(1 for k, r, d in iter_refs(t) if r == target + d and k == kind)


def test_occurrences_match_the_count_over_iter_refs():
    # 4000 terms of both syntaxes, drawn under up to 3 binders of each kind
    # so that indices also point outside the term.
    for seed in range(2000):
        rng = random.Random(seed)
        ld, nd = rng.randint(0, 3), rng.randint(0, 3)
        for t in (gen_res(rng, 16, ld=ld, nd=nd), gen_term(rng, 14, ld=ld, nd=nd)):
            for kind in (VAR, NAME):
                for target in ("x", "y", "a", "b", 0, 1, 2, 3):
                    assert occurrences(t, kind, target) == ref_occurrences(t, kind, target), (
                        t, kind, target)


def test_occurrences_resolve_an_index_at_each_depth():
    # In the body of \.0[\.1, 1], index 0 is the lambda's own variable,
    # seen as 0 at the top and as 1 under the inner lambda; the last 1 is
    # the binder just outside the lambda.
    lam = RLam(RApp(RVar(0), [RLam(RVar(1)), RVar(1)]))
    assert occurrences(lam.body, VAR, 0) == 2
    assert occurrences(lam.body, VAR, 1) == 1
    assert occurrences(lam, VAR, 0) == 1
    # A naming resolves with its own mu as index 0, so index 1 at the top is
    # the binder just outside, and 2 one mu further down.
    assert occurrences(RMu(1, RMu(2, RVar("x"))), NAME, 1) == 2
    t = parse_res(r"mu 'a.<'b> x[\y.y[x]]")
    assert occurrences(t, VAR, "x") == 2
    assert occurrences(t, NAME, "b") == 1
    assert occurrences(t, NAME, "x") == 0


def _positions(t):
    stack = [(t, ())]
    while stack:
        u, pos = stack.pop()
        yield pos
        match u:
            case Lam(body=b) | RLam(body=b) | Mu(body=b) | RMu(body=b):
                stack.append((b, pos + (0,)))
            case App(fun=f, arg=a):
                stack += [(f, pos + (0,)), (a, pos + (1,))]
            case RApp(head=h, bag=bag):
                stack += [(e, pos + (i,)) for i, e in enumerate((h, *bag))]


@pytest.mark.parametrize("gen", [gen_res, gen_term])
def test_plug_undoes_path_to_at_every_position(gen):
    seen = 0
    for seed in range(300):
        t = gen(random.Random(seed), 14)
        for pos in _positions(t):
            path, u, _, _ = path_to(t, pos)
            assert len(path) == len(pos)
            _same(plug(path, u), t)
            seen += 1
    assert seen > 1500


def test_plug_puts_a_new_bag_element_in_bag_order():
    t = parse_res("x[y, z]")
    path, u, _, _ = path_to(t, (1,))
    assert u == RVar("y")
    _same(plug(path, parse_res(r"\w.w")), parse_res(r"x[z, \w.w]"))
    path, _, _, _ = path_to(parse_term("f (g y)"), (1, 1))
    _same(plug(path, Lam(Var(0))), parse_term(r"f (g (\v.v))"))
