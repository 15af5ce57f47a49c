"""Random term generators: determinism, coverage, and bounds."""

import os
import random
import subprocess
import sys
from bisect import bisect
from itertools import accumulate

import pytest

import mulam
from mulam import gen
from mulam.gen import FREE_NAMES, FREE_VARS, gen_bag, gen_random, gen_res, gen_term
from mulam.syntax import (
    App,
    Lam,
    Mu,
    RApp,
    RLam,
    RMu,
    RVar,
    Var,
    is_locally_closed,
    mkbag,
    size,
)


def _nodes(t):
    yield t
    cls = type(t)
    if cls in (Lam, Mu, RLam, RMu):
        yield from _nodes(t.body)
    elif cls is App:
        yield from _nodes(t.fun)
        yield from _nodes(t.arg)
    elif cls is RApp:
        for kid in (t.head, *t.bag):
            yield from _nodes(kid)


def term_nodes(t):
    """Plain node count of a lambda-mu term, the unit of its generator's budget."""
    return sum(1 for _ in _nodes(t))


def test_seeded_generation_is_deterministic():
    for seed in range(40):
        assert gen_random("resterm", 20, seed) == gen_random("resterm", 20, seed)
        assert gen_random("term", 20, seed) == gen_random("term", 20, seed)


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError):
        gen_random("multiset", 10, 0)


def test_res_sizes_stay_within_budget():
    for seed in range(300):
        t = gen_random("resterm", 14, seed)
        assert 1 <= size(t) <= 14
        assert is_locally_closed(t)


def test_term_sizes_stay_within_budget():
    for seed in range(300):
        t = gen_random("term", 14, seed)
        assert 1 <= term_nodes(t) <= 14
        assert is_locally_closed(t)


def _constructors(t):
    return {type(u).__name__ for u in _nodes(t)}


def test_res_generator_covers_all_constructors():
    seen = set()
    nonempty_bag = False
    for seed in range(1000):
        t = gen_random("resterm", 18, seed)
        seen |= _constructors(t)
        for u in _nodes(t):
            if isinstance(u, RApp) and u.bag:
                nonempty_bag = True
    assert seen == {"RVar", "RLam", "RApp", "RMu"}
    assert nonempty_bag


def test_term_generator_covers_all_constructors():
    seen = set()
    for seed in range(1000):
        seen |= _constructors(gen_random("term", 18, seed))
    assert seen == {"Var", "Lam", "App", "Mu"}


def test_free_atoms_come_from_the_fixed_pools():
    for seed in range(200):
        t = gen_random("resterm", 16, seed)
        for u in _nodes(t):
            if isinstance(u, RVar) and isinstance(u.ref, str):
                assert u.ref in FREE_VARS
            if isinstance(u, RMu) and isinstance(u.named, str):
                assert u.named in FREE_NAMES


def test_mu_nesting_is_capped():
    def depth(t, d=0):
        worst = d
        if isinstance(t, (RMu, Mu)):
            d += 1
            worst = d
        if isinstance(t, (RLam, Lam)):
            worst = max(worst, depth(t.body, d))
        elif isinstance(t, (RMu, Mu)):
            worst = max(worst, depth(t.body, d))
        elif isinstance(t, RApp):
            worst = max(worst, depth(t.head, d))
            for e in t.bag:
                worst = max(worst, depth(e, d))
        elif isinstance(t, App):
            worst = max(worst, depth(t.fun, d), depth(t.arg, d))
        return worst

    for seed in range(300):
        assert depth(gen_random("resterm", 30, seed)) <= 3
        assert depth(gen_random("term", 30, seed)) <= 3


def test_gen_bag_respects_length_cap():
    rng = random.Random(7)
    lengths = {len(gen_bag(rng, 5)) for _ in range(200)}
    assert lengths <= {0, 1, 2}
    assert lengths == {0, 1, 2}  # all arities show up


@pytest.mark.parametrize("seed", range(4))
def test_gen_bag_rejects_a_size_below_one_before_it_draws(seed):
    rng = random.Random(seed)
    state = rng.getstate()
    with pytest.raises(ValueError):
        gen_bag(rng, 0)
    assert rng.getstate() == state


def test_direct_entry_points_accept_an_rng():
    rng = random.Random(3)
    t = gen_res(rng, 12)
    u = gen_term(rng, 12)
    assert is_locally_closed(t) and is_locally_closed(u)


def test_generated_population_is_not_degenerate():
    # a healthy mix: some terms with binders, some plain applicative spines
    binderful = sum(
        1
        for seed in range(400)
        if any(isinstance(u, (RLam, RMu)) for u in _nodes(gen_random("resterm", 16, seed)))
    )
    assert 100 < binderful < 400


# ---------- validation that survives python -O ----------

# Each case is an expression that must raise ValueError, with or without -O.
BAD_BUDGETS = {
    "gen_term of 0 nodes": "gen_term(random.Random(0), 0)",
    "gen_res of size 0": "gen_res(random.Random(0), 0)",
    "gen_res of negative size": "gen_res(random.Random(0), -3)",
    "gen_random term of 0": "gen_random('term', 0, 1)",
    "gen_random resterm of 0": "gen_random('resterm', 0, 1)",
    "gen_bag of element size 0": "gen_bag(random.Random(1), 0)",
    "gen_bag of negative element size": "gen_bag(random.Random(2), -1)",
    "split into no chunks": "_split_budget(random.Random(0).getrandbits, 3, 0)",
    "split into too many chunks": "_split_budget(random.Random(0).getrandbits, 1, 2)",
}
_NAMES = "import random\nfrom mulam.gen import _split_budget, gen_bag, gen_random, gen_res, gen_term\n"


@pytest.mark.parametrize("call", list(BAD_BUDGETS.values()), ids=list(BAD_BUDGETS))
def test_budgets_below_one_are_rejected(call):
    env = {}
    exec(_NAMES, env)
    with pytest.raises(ValueError):
        eval(call, env)


def test_budgets_below_one_are_rejected_under_python_O():
    code = _NAMES + f"""
for call in {list(BAD_BUDGETS.values())!r}:
    try:
        eval(call)
    except ValueError:
        print('ValueError')
    else:
        print('accepted')
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mulam.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * len(BAD_BUDGETS)


# ---------- precomputed weight tables ----------


def _choices_of_gen_res(max_size, nd, mu_cap):
    # The lists gen_res built for rng.choices at every node before its
    # tables were precomputed.
    choices, weights = ["var"], [2]
    if max_size >= 2:
        choices += ["lam", "app"]
        weights += [2, 4]
        if nd < mu_cap:
            choices.append("mu")
            weights.append(2)
    return choices, weights


def _choices_of_gen_term(max_nodes, nd, mu_cap):
    choices, weights = ["var"], [2]
    if max_nodes >= 2:
        choices += ["lam", "mu"] if nd < mu_cap else ["lam"]
        weights += [2, 2] if nd < mu_cap else [2]
    if max_nodes >= 3:
        choices.append("app")
        weights.append(5)
    return choices, weights


def _tables():
    return [gen._BAG_SIZE, *gen._RES_KINDS.values(), *gen._TERM_KINDS.values()]


def _weights(table):
    cum, _, _, population = table
    return population, tuple(b - a for a, b in zip((0, *cum), cum))


def _read(table, rand):
    # The draw the generators make inline from a table's fields.
    cum, total, hi, population = table
    return population[bisect(cum, rand() * total, 0, hi)]


@pytest.mark.parametrize("table", range(11))
def test_a_table_draws_as_random_choices_does(table):
    w = _tables()[table]
    population, weights = _weights(w)
    assert w[1:3] == (float(sum(weights)), len(population) - 1)
    for seed in range(500):
        mine, theirs = random.Random(seed), random.Random(seed)
        for _ in range(8):
            assert _read(w, mine.random) == theirs.choices(population, weights)[0]
            assert mine.getstate() == theirs.getstate()


def test_the_tables_are_the_lists_the_generators_built():
    assert len(_tables()) == 11
    assert _weights(gen._BAG_SIZE) == ((0, 1, 2), (30, 45, 25))
    for size in range(1, 6):
        for nd in range(5):
            for mu_cap in range(4):
                population, weights = _weights(gen._RES_KINDS[size >= 2, nd < mu_cap])
                assert [list(population), list(weights)] == list(
                    _choices_of_gen_res(size, nd, mu_cap))
                population, weights = _weights(gen._TERM_KINDS[min(size, 3), nd < mu_cap])
                assert [list(population), list(weights)] == list(
                    _choices_of_gen_term(size, nd, mu_cap))


# ---------- the stream of draws ----------


def test_the_draws_are_pinned():
    # The sha256 of the printed terms drawn on the per-sample seeds of the
    # suites: three resource sizes and a bag on one rng, two lambda-mu sizes
    # on another.  A change in the order or the kind of the random draws
    # moves it.
    import hashlib

    from mulam.suites import _sample_seed
    from mulam.textio import print_res, print_term

    h = hashlib.sha256()
    for s in range(3):
        for i in range(1000):
            seed = _sample_seed(s, i)
            rng = random.Random(seed)
            drawn = [print_res(gen_res(rng, n)) for n in (6, 14, 30)]
            drawn.append([print_res(e) for e in gen_bag(rng, 4)])
            rng = random.Random(seed)
            drawn += [print_term(gen_term(rng, n)) for n in (10, 12)]
            h.update(repr(drawn).encode())
    assert h.hexdigest() == "1fcae3a2ff2aaf35b0b4910962e9b9dba687c151816689887dcbbec0146d7ee2"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 21, 22, 33])
def test_below_draws_as_the_stdlib_wrappers_do(n):
    # _below is the stdlib's own rejection sampler; a Python whose
    # randrange, choice or randint draws differently fails here.
    pool = tuple(range(10, 10 + n))
    for seed in range(500):
        mine, theirs = random.Random(seed), random.Random(seed)
        for draw in (lambda: theirs.randrange(n), lambda: theirs.choice(pool) - 10,
                     lambda: theirs.randint(0, n - 1)):
            assert gen._below(mine.getrandbits, n) == draw()
            assert mine.getstate() == theirs.getstate()


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_a_split_draws_its_cuts_as_random_sample_does(parts):
    # Ranges of up to 21 cut points take sample's pool branch, longer ones
    # its rejection branch; both are covered.
    for total in (parts, parts + 1, 5, 12, 21, 22, 23, 30, 60):
        for seed in range(500):
            mine, theirs = random.Random(seed), random.Random(seed)
            got = gen._split_budget(mine.getrandbits, total, parts)
            bounds = [0, *sorted(theirs.sample(range(1, total), parts - 1)), total]
            assert got == [b - a for a, b in zip(bounds, bounds[1:])]
            assert mine.getstate() == theirs.getstate()


# ---------- differential test against the generators' earlier code ----------
#
# ``_ref_res`` and ``_ref_term`` are the generators as they were before the
# tables were read inline, leaves shared and the one-cut split drawn inline:
# a table object picked per node, a fresh leaf per variable, every split
# through ``_split_budget``.  The live generators must draw the same terms
# and leave the generator in the same state.


class _RefWeighted:
    def __init__(self, pairs):
        self.population = tuple(p for p, _ in pairs)
        self.cum = tuple(accumulate(w for _, w in pairs))
        self.hi = len(self.cum) - 1

    def pick(self, rand):
        return self.population[bisect(self.cum, rand() * self.cum[-1], 0, self.hi)]


_REF_BAG_SIZE = _RefWeighted([(0, 30), (1, 45), (2, 25)])
_REF_RES_KINDS = {(size >= 2, nd < 3): _RefWeighted(list(zip(*_choices_of_gen_res(size, nd, 3))))
                  for size in (1, 2) for nd in (0, 3)}
_REF_TERM_KINDS = {(size, nd < 3): _RefWeighted(list(zip(*_choices_of_gen_term(size, nd, 3))))
                   for size in (1, 2, 3) for nd in (0, 3)}


def _ref_res(rand, getrandbits, max_size, ld, nd):
    kind = _REF_RES_KINDS[max_size >= 2, nd < 3].pick(rand)
    if kind == "var":
        if ld > 0 and rand() < 0.6:
            return RVar(gen._below(getrandbits, ld))
        return RVar(FREE_VARS[gen._below(getrandbits, 3)])
    if kind == "lam":
        return RLam(_ref_res(rand, getrandbits, max_size - 1, ld + 1, nd))
    if kind == "mu":
        if rand() < 0.5:
            named = gen._below(getrandbits, nd + 1)
        else:
            named = FREE_NAMES[gen._below(getrandbits, 3)]
        return RMu(named, _ref_res(rand, getrandbits, max_size - 1, ld, nd + 1))
    k = _REF_BAG_SIZE.pick(rand)
    while max_size - 1 - k < k + 1:
        k -= 1
    chunks = gen._split_budget(getrandbits, max_size - 1 - k, k + 1)
    head = _ref_res(rand, getrandbits, chunks[0], ld, nd)
    elems = [_ref_res(rand, getrandbits, c, ld, nd) for c in chunks[1:]]
    return RApp(head, elems)


def _ref_term(rand, getrandbits, max_nodes, ld, nd):
    kind = _REF_TERM_KINDS[min(max_nodes, 3), nd < 3].pick(rand)
    if kind == "var":
        if ld > 0 and rand() < 0.6:
            return Var(gen._below(getrandbits, ld))
        return Var(FREE_VARS[gen._below(getrandbits, 3)])
    if kind == "lam":
        return Lam(_ref_term(rand, getrandbits, max_nodes - 1, ld + 1, nd))
    if kind == "mu":
        if rand() < 0.5:
            named = gen._below(getrandbits, nd + 1)
        else:
            named = FREE_NAMES[gen._below(getrandbits, 3)]
        return Mu(named, _ref_term(rand, getrandbits, max_nodes - 1, ld, nd + 1))
    nf, na = gen._split_budget(getrandbits, max_nodes - 1, 2)
    return App(_ref_term(rand, getrandbits, nf, ld, nd), _ref_term(rand, getrandbits, na, ld, nd))


def _deepest_index(t):
    return max((u.ref for u in _nodes(t) if type(u) in (Var, RVar) and type(u.ref) is int),
               default=-1)


@pytest.mark.parametrize("live, ref", [(gen_res, _ref_res), (gen_term, _ref_term)],
                         ids=["gen_res", "gen_term"])
@pytest.mark.parametrize("ld, nd", [(0, 0), (3, 2), (70, 0)])
def test_the_generators_draw_as_their_earlier_code_did(live, ref, ld, nd):
    deepest = -1
    for seed in range(2000):
        for size in (1, 2, 3, 4, 6, 14, 30):
            mine, theirs = random.Random(seed), random.Random(seed)
            got = live(mine, size, ld, nd)
            want = ref(theirs.random, theirs.getrandbits, size, ld, nd)
            assert type(got) is type(want) and got == want, (seed, size)
            assert mine.getstate() == theirs.getstate(), (seed, size)
            deepest = max(deepest, _deepest_index(got))
    # (70, 0) draws indices past the shared leaves, so the fallback is covered.
    assert (deepest >= gen._SHARED_INDICES) == (ld > gen._SHARED_INDICES)


def test_gen_bag_draws_as_a_sorted_generator_did():
    sizes = set()
    for seed in range(2000):
        for m in (1, 2, 4, 6):
            mine, theirs = random.Random(seed), random.Random(seed)
            got = gen_bag(mine, m)
            want = mkbag(gen_res(theirs, m) for _ in range(theirs.randrange(3)))
            assert type(got) is tuple and got == want, (seed, m)
            assert mine.getstate() == theirs.getstate(), (seed, m)
            sizes.add(len(got))
    assert sizes == {0, 1, 2}


def test_leaves_below_the_bound_are_shared():
    # Every draw of a free atom, or of an index below the bound, returns the
    # one leaf built at import, which equals a fresh node.
    shared = {}
    for cls, atoms, indices in ((RVar, gen._RES_ATOMS, gen._RES_INDICES),
                                (Var, gen._TERM_ATOMS, gen._TERM_INDICES)):
        shared.update({(cls, x): leaf for x, leaf in zip(FREE_VARS, atoms)})
        shared.update({(cls, i): leaf for i, leaf in enumerate(indices)})
    assert len(shared) == 2 * (3 + gen._SHARED_INDICES)
    assert all(type(leaf) is cls and leaf == cls(ref) for (cls, ref), leaf in shared.items())
    deep = 0
    for seed in range(300):
        for t in (gen_res(random.Random(seed), 14, 40, 0), gen_term(random.Random(seed), 14, 40, 0)):
            for u in _nodes(t):
                if type(u) in (Var, RVar):
                    leaf = shared.get((type(u), u.ref))
                    assert leaf is u or (leaf is None and u.ref >= gen._SHARED_INDICES)
                    deep += leaf is None
    assert deep
