"""The walkers shared by both syntaxes against the twin walkers they replaced.

Printing, JSON export, the redex finder, the head position and the walk down
a path to a redex each had one implementation per syntax.  The reference
walkers below are those implementations, kept as written; the shared ones
must agree with them on generated terms of both syntaxes.  The reference
printers keep the namer that scanned the candidate names at every binder;
the shared ones list each kind's names once per term.
"""

import itertools
import random

import pytest

from mulam import syntax, textio
from mulam.gen import gen_res, gen_term
from mulam.lamu import contract, reduce_redex
from mulam.resource import contract_res, step_r
from mulam.suites import mirror_step
from mulam.syntax import (
    BOOL,
    NAME,
    NAT,
    VAR,
    App,
    Lam,
    Mu,
    RApp,
    RLam,
    RMu,
    RVar,
    ResTerm,
    Sum,
    Var,
    close_name,
    close_rname,
    close_rvar,
    close_var,
    fresh_atom,
    iter_refs,
    lift_app,
    open_mu_binder,
    open_rvar,
    open_var,
)
from mulam.textio import parse_res, parse_term

SEEDS = range(400)


def _at(t, pos):
    return syntax.path_to(t, pos)[1]

# ---------- the reference walkers ----------
#
# Their namer scans the candidate names from the first one at every binder,
# skipping the free atoms and the names of the active binders.


def _candidates(bases):
    yield from bases
    for k in itertools.count(1):
        for b in bases:
            yield f"{b}{k}"


def _pick(bases, avoid):
    for c in _candidates(bases):
        if c not in avoid:
            return c


class ScanNamer:
    def __init__(self, t):
        free = {VAR: set(), NAME: set()}
        for kind, r, _ in iter_refs(t):
            if type(r) is str:
                free[kind].add(r)
        self.free_v = free[VAR]
        self.free_n = free[NAME]

    def fresh_var(self, active):
        return _pick(("x", "y", "z", "u", "v", "w"), self.free_v | set(active))

    def fresh_name(self, active):
        return _pick(("a", "b", "g", "d", "e", "h"), self.free_n | set(active))


def _disp_ref(ref, stack):
    if isinstance(ref, str):
        return ref
    if 0 <= ref < len(stack):
        return stack[-1 - ref]
    return f"#{ref}"



def ref_print_term(t):
    nm = ScanNamer(t)

    def go(u, vs, ns):
        match u:
            case Var(ref=r):
                return _disp_ref(r, vs)
            case Lam(body=b):
                x = nm.fresh_var(vs)
                return f"\\{x}.{go(b, vs + [x], ns)}"
            case Mu(named=nr, body=b):
                a = nm.fresh_name(ns)
                ns2 = ns + [a]
                return f"mu '{a}.<'{_disp_ref(nr, ns2)}> {go(b, vs, ns2)}"
            case App(fun=f, arg=arg):
                fs = go(f, vs, ns)
                if isinstance(f, (Lam, Mu)):
                    fs = f"({fs})"
                as_ = go(arg, vs, ns)
                if not isinstance(arg, Var):
                    as_ = f"({as_})"
                return f"{fs} {as_}"
        raise AssertionError(u)

    return go(t, [], [])


def ref_print_res(t):
    nm = ScanNamer(t)

    def go(u, vs, ns):
        match u:
            case RVar(ref=r):
                return _disp_ref(r, vs)
            case RLam(body=b):
                x = nm.fresh_var(vs)
                return f"\\{x}.{go(b, vs + [x], ns)}"
            case RMu(named=nr, body=b):
                a = nm.fresh_name(ns)
                ns2 = ns + [a]
                return f"mu '{a}.<'{_disp_ref(nr, ns2)}> {go(b, vs, ns2)}"
            case RApp(head=h, bag=bag):
                hs = go(h, vs, ns)
                if isinstance(h, (RLam, RMu)):
                    hs = f"({hs})"
                if not bag:
                    return f"{hs} 1"
                inner = ",".join(go(e, vs, ns) for e in bag)
                return f"{hs}[{inner}]"
        raise AssertionError(u)

    return go(t, [], [])


def ref_term_to_json(t):
    nm = ScanNamer(t)

    def go(u, vs, ns):
        match u:
            case Var(ref=r):
                return {"tag": "var", "name": _disp_ref(r, vs)}
            case Lam(body=b):
                x = nm.fresh_var(vs)
                return {"tag": "lam", "binder": x, "body": go(b, vs + [x], ns)}
            case Mu(named=nr, body=b):
                a = nm.fresh_name(ns)
                ns2 = ns + [a]
                return {"tag": "mu", "binder": a, "named": _disp_ref(nr, ns2),
                        "body": go(b, vs, ns2)}
            case App(fun=f, arg=arg):
                return {"tag": "app", "fun": go(f, vs, ns), "arg": go(arg, vs, ns)}
        raise AssertionError(u)

    return go(t, [], [])


def ref_res_to_json(t):
    nm = ScanNamer(t)

    def go(u, vs, ns):
        match u:
            case RVar(ref=r):
                return {"tag": "var", "name": _disp_ref(r, vs)}
            case RLam(body=b):
                x = nm.fresh_var(vs)
                return {"tag": "lam", "binder": x, "body": go(b, vs + [x], ns)}
            case RMu(named=nr, body=b):
                a = nm.fresh_name(ns)
                ns2 = ns + [a]
                return {"tag": "mu", "binder": a, "named": _disp_ref(nr, ns2),
                        "body": go(b, vs, ns2)}
            case RApp(head=h, bag=bag):
                return {"tag": "bagapp", "head": go(h, vs, ns), "bag": [go(e, vs, ns) for e in bag]}
        raise AssertionError(u)

    return go(t, [], [])


def ref_redex_kind(t):
    match t:
        case App(fun=Lam()):
            return "lam"
        case App(fun=Mu()):
            return "mu"
        case Mu(body=Mu()):
            return "rho"
    return None


def ref_redex_kind_res(t):
    match t:
        case RApp(head=RLam()):
            return "lam"
        case RApp(head=RMu()):
            return "mu"
        case RMu(body=RMu()):
            return "rho"
    return None


def ref_redexes(t):
    out = []

    def go(u, pos):
        k = ref_redex_kind(u)
        if k is not None:
            out.append((pos, k))
        match u:
            case Lam(body=b) | Mu(body=b):
                go(b, pos + (0,))
            case App(fun=f, arg=a):
                go(f, pos + (0,))
                go(a, pos + (1,))

    go(t, ())
    return out


def ref_redexes_res(t):
    out = []
    stack = [(t, ())]
    while stack:
        u, pos = stack.pop()
        k = ref_redex_kind_res(u)
        if k is not None:
            out.append((pos, k))
        match u:
            case RLam(body=b) | RMu(body=b):
                stack.append((b, pos + (0,)))
            case RApp(head=h, bag=bag):
                for i in range(len(bag), 0, -1):
                    stack.append((bag[i - 1], pos + (i,)))
                stack.append((h, pos + (0,)))
    return out


def ref_head_redex_pos(t):
    pos = []
    u = t
    while True:
        match u:
            case Mu(body=Mu()):
                return tuple(pos), "rho"
            case Lam(body=b) | Mu(body=b):
                pos.append(0)
                u = b
            case _:
                break
    nargs = 0
    while isinstance(u, App):
        nargs += 1
        u = u.fun
    if nargs == 0 or isinstance(u, Var):
        return None
    kind = "lam" if isinstance(u, Lam) else "mu"
    return tuple(pos) + (0,) * (nargs - 1), kind


def ref_head_redex_pos_res(t):
    pos = []
    u = t
    while True:
        match u:
            case RMu(body=RMu()):
                return tuple(pos), "rho"
            case RLam(body=b) | RMu(body=b):
                pos.append(0)
                u = b
            case _:
                break
    nargs = 0
    while isinstance(u, RApp):
        nargs += 1
        u = u.head
    if nargs == 0 or isinstance(u, RVar):
        return None
    kind = "lam" if isinstance(u, RLam) else "mu"
    return tuple(pos) + (0,) * (nargs - 1), kind


def ref_head_decompose(t):
    """Binder prefix, head and spine: the prefix as (lambda-run length,
    naming) blocks, and the head a variable or, under an applied
    abstraction, the innermost application."""
    blocks = []
    lams = 0
    u = t
    while True:
        match u:
            case Lam(body=b):
                lams += 1
                u = b
            case Mu(named=nr, body=b):
                blocks.append((lams, nr))
                lams = 0
                u = b
            case _:
                break
    if lams:
        blocks.append((lams, None))
    args = []
    while isinstance(u, App):
        args.append(u.arg)
        u = u.fun
    args.reverse()
    if isinstance(u, (Lam, Mu)) and args:
        return tuple(blocks), App(u, args[0]), tuple(args[1:])
    return tuple(blocks), u, tuple(args)


def ref_is_hnf(t):
    bs, head, _ = ref_head_decompose(t)
    if not isinstance(head, Var):
        return False
    for i in range(len(bs) - 1):
        if bs[i][1] is not None and bs[i + 1][1] is not None and bs[i + 1][0] == 0:
            return False
    return True


def ref_reduce_redex(t, pos):
    def go(u, p):
        if not p:
            return contract(u)
        rest = p[1:]
        match u:
            case Lam(body=b):
                x = fresh_atom("v")
                return Lam(close_var(go(open_var(b, x), rest), x))
            case Mu() as m:
                a = fresh_atom("n")
                named, body = open_mu_binder(m, a)
                out = go(body, rest)
                return Mu(0 if named == a else named, close_name(out, a))
            case App(fun=f, arg=arg):
                if p[0] == 0:
                    return App(go(f, rest), arg)
                return App(f, go(arg, rest))
        raise AssertionError((u, p))

    return go(t, pos)


def ref_step_r(t, pos, semiring):
    def go(u, p):
        if not p:
            return contract_res(u, semiring)
        i, rest = p[0], p[1:]
        match u:
            case RLam(body=b):
                x = fresh_atom("v")
                return go(open_rvar(b, x), rest).map(lambda w: RLam(close_rvar(w, x)))
            case RMu() as m:
                a = fresh_atom("n")
                named, body = open_mu_binder(m, a)
                closed = 0 if named == a else named
                return go(body, rest).map(lambda w: RMu(closed, close_rname(w, a)))
            case RApp(head=h, bag=bag):
                if i == 0:
                    return go(h, rest).map(lambda w: RApp(w, bag))
                return go(bag[i - 1], rest).map(lambda w: RApp(h, bag[: i - 1] + (w,) + bag[i:]))
        raise AssertionError((u, p))

    return go(t, pos)


def ref_mirror_step(t, pos, semiring):
    def go(t, depth):
        if depth == len(pos):
            return contract_res(t, semiring)
        c = pos[depth]
        match t:
            case RLam(body=b):
                if c != 0:
                    raise ValueError("child")
                x = fresh_atom("v")
                return go(open_rvar(b, x), depth + 1).map(lambda w: RLam(close_rvar(w, x)))
            case RMu() as m:
                if c != 0:
                    raise ValueError("child")
                a = fresh_atom("n")
                named, body = open_mu_binder(m, a)
                closed = 0 if named == a else named
                return go(body, depth + 1).map(lambda w: RMu(closed, close_rname(w, a)))
            case RApp(head=h, bag=bag):
                if c == 0:
                    return go(h, depth + 1).map(lambda w: RApp(w, bag))
                if c != 1:
                    raise ValueError("child")
                if not bag:
                    return Sum.unit(t, semiring)
                return lift_app(Sum.unit(h, semiring), [go(e, depth + 1) for e in bag])
        raise ValueError("variable")

    return go(t, 0)


# ---------- the shared walkers agree ----------


def _terms(seed):
    return gen_term(random.Random(seed), 20), gen_res(random.Random(seed), 30)


@pytest.mark.parametrize("chunk", range(4))
def test_printer_and_json_match_the_twin_walkers(chunk):
    for seed in SEEDS[chunk::4]:
        m, t = _terms(seed)
        assert textio.print_term(m) == ref_print_term(m)
        assert textio.print_res(t) == ref_print_res(t)
        assert textio.to_json(m) == ref_term_to_json(m)
        assert textio.to_json(t) == ref_res_to_json(t)
        assert textio.to_json(Sum.unit(t, NAT))["addends"][0]["term"] == ref_res_to_json(t)


# Free atoms that take candidate display names, so every binder's name
# skips some of them.
_FREE_V = ("x", "z", "y1", "w2", "u5")
_FREE_N = ("a", "g", "b1", "h3")


def _binder_chain(res, kinds, rng):
    """Binders of ``kinds`` ("lam" or "mu"), outermost first, around an
    application of every free variable in ``_FREE_V`` and of indices,
    some of them dangling; each mu names a free name, itself or a mu
    above."""
    lam, mu, var = (RLam, RMu, RVar) if res else (Lam, Mu, Var)
    nv = kinds.count("lam")
    refs = list(_FREE_V) + [rng.randrange(nv + 2) for _ in range(4)]
    rng.shuffle(refs)
    if res:
        body = RApp(var(refs[0]), [var(r) for r in refs[1:]])
    else:
        body = var(refs[0])
        for r in refs[1:]:
            body = App(body, var(r))
    dn = kinds.count("mu")
    for kind in reversed(kinds):
        if kind == "lam":
            body = lam(body)
        else:
            named = rng.choice(_FREE_N) if rng.random() < 0.5 else rng.randrange(dn)
            body = mu(named, body)
            dn -= 1
    return body


@pytest.mark.parametrize("shape", ["lam", "mu", "mixed"])
def test_printer_and_json_match_the_twin_walkers_on_deep_binder_chains(shape):
    rng = random.Random(shape)
    for depth in (1, 2, 6, 7, 13, 40, 300):
        if shape == "mixed":
            kinds = [rng.choice(("lam", "mu")) for _ in range(depth)]
        else:
            kinds = [shape] * depth
        for res in (False, True):
            t = _binder_chain(res, kinds, rng)
            if res:
                assert textio.print_res(t) == ref_print_res(t)
                assert textio.to_json(t) == ref_res_to_json(t)
            else:
                assert textio.print_term(t) == ref_print_term(t)
                assert textio.to_json(t) == ref_term_to_json(t)


@pytest.mark.parametrize("chunk", range(4))
def test_redex_finder_and_head_position_match_the_twin_walkers(chunk):
    for seed in SEEDS[chunk::4]:
        m, t = _terms(seed)
        assert syntax.redexes(m) == ref_redexes(m)
        assert syntax.redexes(t) == ref_redexes_res(t)
        assert list(syntax.iter_redexes(t)) == ref_redexes_res(t)
        for u in (m, *[_at(m, p) for p, _ in ref_redexes(m)]):
            assert syntax.redex_kind(u) == ref_redex_kind(u)
        for u in (t, *[_at(t, p) for p, _ in ref_redexes_res(t)]):
            assert syntax.redex_kind(u) == ref_redex_kind_res(u)
        assert syntax.head_redex_pos(m) == ref_head_redex_pos(m)
        assert syntax.head_redex_pos(t) == ref_head_redex_pos_res(t)
        assert syntax.is_hnf(m) == ref_is_hnf(m)
        assert syntax.is_hnf(t) == (ref_head_redex_pos_res(t) is None)


def test_redex_finder_sees_every_shape():
    # Generated terms hit each kind; this pins that the comparison above is
    # not vacuous.
    kinds_m, kinds_t, hnf = set(), set(), set()
    for seed in SEEDS:
        m, t = _terms(seed)
        kinds_m |= {k for _, k in ref_redexes(m)}
        kinds_t |= {k for _, k in ref_redexes_res(t)}
        hnf.add(ref_is_hnf(m))
    assert kinds_m == kinds_t == {"lam", "mu", "rho"}
    assert hnf == {True, False}


@pytest.mark.parametrize("chunk", range(4))
def test_reduce_redex_matches_the_twin_walk(chunk):
    for seed in SEEDS[chunk::4]:
        m, _ = _terms(seed)
        for pos, _ in ref_redexes(m):
            assert reduce_redex(m, pos) == ref_reduce_redex(m, pos), (m, pos)


@pytest.mark.parametrize("semiring", [BOOL, NAT])
def test_step_r_matches_the_twin_walk(semiring):
    for seed in SEEDS[::2]:
        t = gen_res(random.Random(seed), 14)
        for pos, _ in ref_redexes_res(t):
            assert step_r(t, pos, semiring) == ref_step_r(t, pos, semiring), (t, pos)


def test_mirror_step_matches_the_twin_walk():
    from mulam.taylor import taylor_enum

    checked = 0
    for seed in SEEDS:
        m = gen_term(random.Random(seed), 10)
        for pos, _ in ref_redexes(m):
            for t in taylor_enum(m, 8):
                assert mirror_step(t, pos, BOOL) == ref_mirror_step(t, pos, BOOL), (t, pos)
                checked += 1
    assert checked > 400


# ---------- the path walk opens the redex alone, once ----------


def _spy_opening(monkeypatch):
    """Record every ``syntax.open_outer`` call as ``(redex, nl, nm)``, and
    every ``syntax.map_refs`` pass as ``(term, raw)``: an opening pass is
    the one raw pass, a closing pass a canonical one."""
    opened, passes = [], []
    real_open, real_map = syntax.open_outer, syntax.map_refs

    def open_spy(u, nl, nm):
        opened.append((u, nl, nm))
        return real_open(u, nl, nm)

    def map_spy(t, var=None, name=None, raw=False):
        passes.append((t, raw))
        return real_map(t, var, name, raw)

    monkeypatch.setattr(syntax, "open_outer", open_spy)
    monkeypatch.setattr(syntax, "map_refs", map_spy)
    return opened, passes


def _assert_opened_once(opened, passes, redex, want, reducts):
    if want is None:
        assert opened == [] and passes == []
        return
    assert opened == [(redex, *want)]
    # One opening pass, over the redex alone, and one closing pass per reduct.
    assert [u for u, raw in passes if raw] == [redex]
    assert sum(1 for _, raw in passes if not raw) == reducts


@pytest.mark.parametrize("src, pos, want", [
    ("(\\x.x) y", (), None),
    ("(mu 'a.<'a> x) y", (), None),
    ("mu 'a.<'b> mu 'g.<'a> x", (), None),
    ("\\z. mu 'a.<'a> (\\x.x) z", (0, 0), (1, 1)),
    ("\\w. \\z. mu 'a.<'a> (\\x.x w) (mu 'b.<'a> z)", (0, 0, 0), (2, 1)),
    ("\\w. mu 'a.<'a> \\z. mu 'b.<'a> (mu 'g.<'b> w z) z", (0, 0, 0, 0), (2, 2)),
    ("\\w. mu 'a.<'a> mu 'b.<'b> mu 'g.<'a> w", (0, 0), (1, 1)),
])
def test_reduce_redex_opens_the_redex_once_on_the_binders_above(monkeypatch, src, pos, want):
    t = parse_term(src)
    assert (pos, syntax.redex_kind(_at(t, pos))) in syntax.redexes(t)
    opened, passes = _spy_opening(monkeypatch)
    got = reduce_redex(t, pos)
    _assert_opened_once(opened, passes, _at(t, pos), want, 1)
    assert got == ref_reduce_redex(t, pos)


@pytest.mark.parametrize("src, want", [
    ("(\\x.x[x])[y, z]", None),
    ("(mu 'a.<'a> x[y])[z]", None),
    # vanishing redexes under a lambda and a mu open nothing
    ("\\z. mu 'a.<'a> (\\x.x[z])[y, z]", None),
    ("\\z. mu 'a.<'a> (mu 'g.<'b> z)[y]", None),
    ("\\z. mu 'a.<'a> (\\x.x[z])[y]", (1, 1)),
    ("\\z. mu 'a.<'a> (\\x.x[x][z])[y, z]", (1, 1)),
    ("\\w. mu 'a.<'a> \\z. (mu 'b.<'b> x[mu 'g.<'b> w, mu 'd.<'a> z])[w, z]", (2, 1)),
])
def test_step_r_opens_a_live_redex_once_on_the_binders_above(monkeypatch, src, want):
    t = parse_res(src)
    [pos] = [p for p, kind in ref_redexes_res(t) if kind in ("lam", "mu")]
    want_sum = ref_step_r(t, pos, NAT)
    opened, passes = _spy_opening(monkeypatch)
    got = step_r(t, pos, NAT)
    _assert_opened_once(opened, passes, _at(t, pos), want, len(got))
    assert got == want_sum


@pytest.mark.parametrize("src, pos, copies", [
    ("z[(\\y.y)[x], (\\y.y)[w]]", (1,), []),
    ("\\x.(\\y.y)[x]", (0,), [((0,), 1, 0)]),
    ("\\u. mu 'a.<'a> z[(\\y.y)[u], (\\y.y)[w]]", (0, 0, 1),
     [((0, 0, 1), 1, 1), ((0, 0, 2), 1, 1)]),
])
def test_mirror_step_opens_each_copy_once_on_the_binders_above(monkeypatch, src, pos, copies):
    # ``copies`` are the approximant's positions of the redex's copies, each
    # with the lambda and mu binders above it.
    t = parse_res(src)
    want = ref_mirror_step(t, pos, BOOL)
    opened, _ = _spy_opening(monkeypatch)
    got = mirror_step(t, pos, BOOL)
    assert opened == [(_at(t, c), nl, nm) for c, nl, nm in copies]
    assert got == want


@pytest.mark.parametrize("chunk", range(4))
def test_open_outer_opens_every_outer_reference_and_closes_back(chunk):
    for t in (t for seed in SEEDS[chunk::4] for t in _terms(seed)):
        for pos, _ in syntax.redexes(t):
            path, u, nl, nm = syntax.path_to(t, pos)
            assert (nl, nm) == (sum(type(v) in (Lam, RLam) for v, _ in path),
                                sum(type(v) in (Mu, RMu) for v, _ in path))
            opened, close = syntax.open_outer(u, nl, nm)
            assert syntax.is_locally_closed(opened)
            assert close(opened) == u


# ---------- depth ----------


def test_redexes_of_a_deeply_nested_term_need_no_recursion():
    t = App(Lam(Var(0)), Var("y"))
    r = RApp(RLam(RVar(0)), [RVar("y")])
    for _ in range(1000):
        t = Lam(t)
        r = RLam(r)
    assert syntax.redexes(t) == [((0,) * 1000, "lam")]
    assert syntax.redexes(r) == [((0,) * 1000, "lam")]
    assert syntax.head_redex_pos(t) == ((0,) * 1000, "lam")
    assert not syntax.is_hnf(t)


# ---------- the normal bit ----------
#
# Every constructor sets ``normal`` from its children's.  At every subterm
# it must say what the reference redex finder says, however the term was
# built: generated, parsed, plugged, opened with its bags in raw order,
# rebuilt by a reference walk, or made by a step.


def _subterms(t):
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        match u:
            case Lam(body=b) | Mu(body=b) | RLam(body=b) | RMu(body=b):
                stack.append(b)
            case App(fun=f, arg=a):
                stack += [f, a]
            case RApp(head=h, bag=bag):
                stack += [h, *bag]


def _ref_redexes_of(t):
    return ref_redexes_res(t) if isinstance(t, ResTerm) else ref_redexes(t)


def _assert_normal_bit(t):
    for u in _subterms(t):
        assert u.normal == (_ref_redexes_of(u) == []), u


@pytest.mark.parametrize("chunk", range(4))
def test_normal_bit_matches_the_reference_finder_on_generated_terms(chunk):
    for seed in SEEDS[chunk::4]:
        for t in _terms(seed):
            _assert_normal_bit(t)


def test_generated_terms_have_normal_and_reducible_subterms_of_every_shape():
    # Pins that the comparison above is not vacuous: every class occurs as
    # a normal subterm, and every class but the variables as a reducible one.
    seen = set()
    for seed in SEEDS:
        for t in _terms(seed):
            seen |= {(type(u), u.normal) for u in _subterms(t)}
    classes = {Var, Lam, App, Mu, RVar, RLam, RApp, RMu}
    assert seen == {(c, True) for c in classes} | {(c, False) for c in classes - {Var, RVar}}


@pytest.mark.parametrize("src, normal", [
    ("x", True), ("\\x.x", True), ("x y", True), ("(\\x.x) y", False),
    ("x ((\\x.x) y)", False), ("\\y. (\\x.x) y", False),
    ("mu 'a.<'b> x", True), ("mu 'a.<'b> mu 'c.<'a> x", False),
    ("mu 'a.<'b> \\x. mu 'c.<'a> x", True), ("(mu 'a.<'a> x) y", False),
    ("x (mu 'a.<'a> y)", True),
])
def test_normal_bit_of_parsed_terms(src, normal):
    t = parse_term(src)
    assert t.normal is normal
    _assert_normal_bit(t)


@pytest.mark.parametrize("src, normal", [
    ("x", True), ("x[]", True), ("\\x.x[x, y]", True), ("(\\x.x)[y]", False),
    ("(\\x.x[])[]", False), ("x[y, (\\z.z)[w]]", False), ("x[(\\z.z)[w], y]", False),
    ("mu 'a.<'b> x[y]", True), ("mu 'a.<'b> mu 'c.<'a> x", False),
    ("(mu 'a.<'a> x)[y]", False), ("x[mu 'a.<'a> y]", True),
    ("\\x. mu 'a.<'b> x[\\y.y]", True),
])
def test_normal_bit_of_parsed_resource_terms(src, normal):
    t = parse_res(src)
    assert t.normal is normal
    _assert_normal_bit(t)


@pytest.mark.parametrize("chunk", range(4))
def test_normal_bit_of_plugged_and_opened_terms(chunk):
    for seed in SEEDS[chunk::4]:
        for t in _terms(seed):
            hole = RVar("h") if isinstance(t, ResTerm) else Var("h")
            for pos, _ in _ref_redexes_of(t):
                path, u, nl, nm = syntax.path_to(t, pos)
                # Plugging the redex back gives the term; a variable in its
                # place removes one redex, which may leave the term normal.
                assert syntax.plug(path, u) == t
                _assert_normal_bit(syntax.plug(path, hole))
                opened, close = syntax.open_outer(u, nl, nm)
                _assert_normal_bit(opened)
                _assert_normal_bit(close(opened))


@pytest.mark.parametrize("chunk", range(4))
def test_normal_bit_of_terms_rebuilt_by_map_refs(chunk):
    # Putting a redex for a free variable makes a normal term reducible.
    redexes_for = {Var: App(Lam(Var(0)), Var("y")), RVar: RApp(RLam(RVar(0)), [RVar("y")])}
    for seed in SEEDS[chunk::4]:
        for t in _terms(seed):
            redex = redexes_for[RVar if isinstance(t, ResTerm) else Var]
            for raw in (False, True):
                _assert_normal_bit(syntax.map_refs(t, var=lambda r, d: None, raw=raw))
                put = syntax.map_refs(t, var=lambda r, d: redex if isinstance(r, str) else None,
                                      raw=raw)
                _assert_normal_bit(put)


@pytest.mark.parametrize("semiring", [BOOL, NAT])
def test_normal_bit_of_step_r_reducts(semiring):
    seen = [0, 0]
    for seed in SEEDS:
        t = gen_res(random.Random(seed), 14)
        for pos, _ in ref_redexes_res(t):
            for keep_dead in (True, False):
                for u in step_r(t, pos, semiring, keep_dead=keep_dead).terms():
                    _assert_normal_bit(u)
                    seen[u.normal] += 1
    # Both kinds of reduct occur often (235 reducible and 80 normal here).
    assert min(seen) > 50
