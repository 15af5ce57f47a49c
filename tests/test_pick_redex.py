"""``syntax.pick_redex`` takes the step each strategy took before it was one
function for both calculi.

The references below are the pickers it replaced: the resource engine's
choice among a sum's reducible addends (leftmost, rightmost, random), the
command line's head step of a sum, and the command line's picker for
lambda-mu terms (head, leftmost, random).  Each pick is compared on the same
seed, and so is the rng's state after it, so every later draw agrees too.
"""

import random

import pytest

from mulam.gen import gen_res, gen_term
from mulam.syntax import NAT, Sum, head_redex_pos, pick_redex, redexes

STRATEGIES = ("head", "leftmost", "rightmost", "random")


def ref_sum_pick(items, strategy, rng):
    """The step on a sum, as the resource engine and the command line
    chose it."""
    if strategy == "head":
        return next(((t, c, *hit) for t, c in items
                     if (hit := head_redex_pos(t)) is not None), None)
    cands = [(t, c, rs) for t, c in items if (rs := redexes(t))]
    if not cands:
        return None
    if strategy == "leftmost":
        t, c, rs = cands[0]
        return (t, c, *rs[0])
    if strategy == "rightmost":
        t, c, rs = cands[-1]
        return (t, c, *rs[-1])
    return rng.choice([(t, c, pos, kind) for t, c, rs in cands for pos, kind in rs])


def ref_lamu_pick(t, strategy, rng):
    """The step on a lambda-mu term, as the command line chose it (it had no
    rightmost strategy)."""
    if strategy == "head":
        hit = head_redex_pos(t)
    else:
        rs = redexes(t)
        hit = (rs[0] if strategy == "leftmost" else rng.choice(rs)) if rs else None
    return None if hit is None else (t, 1, *hit)


def _same_pick(items, strategy, seed, reference, subject):
    """``pick_redex`` on ``items`` against ``reference`` on ``subject``,
    each with an rng of ``seed``: the same step, and the same rng state."""
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    got = pick_redex(items, strategy, got_rng)
    assert got == reference(subject, strategy, want_rng), (items, strategy)
    assert got_rng.getstate() == want_rng.getstate(), (items, strategy)
    return got


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sums_of_two_or_three_addends(strategy):
    stepped = 0
    for seed in range(300):
        rng = random.Random(seed)
        addends = [(gen_res(rng, 14), 1 + rng.randrange(3)) for _ in range(2 + seed % 2)]
        items = Sum(NAT, addends).items
        stepped += _same_pick(items, strategy, seed, ref_sum_pick, items) is not None
    assert stepped > 100


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_lambda_mu_terms(strategy):
    stepped = 0
    for seed in range(300):
        t = gen_term(random.Random(seed), 12)
        items = ((t, 1),)
        if strategy == "rightmost":
            got = _same_pick(items, strategy, seed, ref_sum_pick, items)
        else:
            got = _same_pick(items, strategy, seed, ref_lamu_pick, t)
        stepped += got is not None
    assert stepped > 100
