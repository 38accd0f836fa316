"""Operations that keep or unroll a periodic tail, against the unrolling.

Every level of a tailed sequence past its presented ones is reached by
unrolling the tail, so an operation on the presentation is right only
if its result unrolls to the same maps as the input, taken through the
operation level by level.  These tests check that on seeded cyclic and
substitution sequences, several periods past the presented levels.
"""

import random

import pytest

from bratteli import (
    NonMixingMap,
    SupernaturalNumber,
    injectivize,
    keep_at,
    telescope,
    tensor_map,
    tensor_qn,
    tensor_seq,
    tensor_vec,
)
from genseq import max_usable_level, random_sequence
from test_acceptance import SUPERNATURALS

TAILS = ("cyclic", "sub")


def _composed(seq, lo, hi):
    # (parent, mult) of the composite lo -> hi, one map_at at a time
    parent, mult = list(range(seq.rank_at(lo))), [1] * seq.rank_at(lo)
    for t in range(lo, hi):
        a = seq.map_at(t)
        parent, mult = [parent[i] for i in a.parent], [
            k * mult[i] for i, k in zip(a.parent, a.mult)
        ]
    return tuple(parent), tuple(mult)


def _restricted(seq, t):
    # seq.map_at(t) between the kept coordinates of levels t and t + 1,
    # renumbered in ascending order
    a = seq.map_at(t)
    src = {c: i for i, c in enumerate(keep_at(seq, t))}
    kept = keep_at(seq, t + 1)
    return NonMixingMap(
        len(src), tuple(src[a.parent[j]] for j in kept), tuple(a.mult[j] for j in kept)
    )


@pytest.mark.parametrize("tail", TAILS)
def test_injectivize_unrolls_to_the_restricted_maps(tail):
    rng = random.Random(f"injectivize-{tail}")
    checked = past = 0
    for _ in range(1500):
        seq = random_sequence(rng, tail=tail)
        out, _ = injectivize(seq)
        top = max_usable_level(seq, extra_periods=3)
        for t in range(1, top):
            assert out.map_at(t) == _restricted(seq, t), (seq, t)
            checked += 1
            past += t >= seq.length
    assert checked > 8000 and past > 6000


@pytest.mark.parametrize("tail", TAILS)
def test_tensor_qn_unrolls_to_the_scaled_maps(tail):
    rng = random.Random(f"tensor-qn-{tail}")
    ns = [
        SupernaturalNumber.one(),
        SupernaturalNumber.from_natural(12),
        SupernaturalNumber.parse("3^inf"),
        SupernaturalNumber.parse("2^inf*5"),
    ]
    past = 0
    for _ in range(300):
        seq = random_sequence(rng, tail=tail)
        n = rng.choice(ns)
        depth = max_usable_level(seq, extra_periods=3)
        out = tensor_qn(seq, n, depth)
        ratios = n.associated_ratios(depth)
        assert out.ranks == tuple(seq.rank_at(t) for t in range(1, depth + 1))
        assert out.base_unit == tuple(ratios[0] * u for u in seq.base_unit)
        for t in range(1, depth):
            a = seq.map_at(t)
            k = ratios[t]
            assert out.map_at(t) == NonMixingMap(
                a.source_rank, a.parent, tuple(m * k for m in a.mult)
            ), (seq, n, t)
            past += t >= seq.length
    assert past > 1000


def _expanded_maps(seq, horizon):
    # {t: map from level t to t + 1} for length <= t < horizon, unrolled
    # by hand: every node copies one block coordinate, lists the kids of
    # that coordinate in presented order, and a node copying the last
    # level restarts the block at the tail start's single coordinate
    p, L = seq.periodic_tail, seq.length
    copied = [0] * seq.ranks[-1]
    maps = {}
    for t in range(L, horizon):
        b = p + (t - p) % (L - p)
        block = seq.maps[b - 1]
        parent, mult, below = [], [], []
        for j, c in enumerate(copied):
            for kid, i in enumerate(block.parent):
                if i == c:
                    parent.append(j)
                    mult.append(block.mult[kid])
                    below.append(0 if b + 1 == L else kid)
        maps[t] = NonMixingMap(len(copied), tuple(parent), tuple(mult))
        copied = below
    return maps


def test_self_similar_levels_list_the_roots_kids_expanded():
    # a block map whose parents are not ascending tells the kids'
    # expansion order apart from listing each block level in presented
    # order, which unrolls to different (equally valid) coordinates
    rng = random.Random("node-order")
    cases = checked = 0
    while cases < 300:
        seq = random_sequence(rng, tail="sub")
        p, L = seq.periodic_tail, seq.length
        block = seq.maps[p - 1 :]
        if L - p < 2 or all(list(a.parent) == sorted(a.parent) for a in block):
            continue
        cases += 1
        for t, want in _expanded_maps(seq, L + 3 * (L - p)).items():
            assert seq.map_at(t) == want, (seq, t)
            checked += 1
    assert checked == 300 * 3 * 2


@pytest.mark.parametrize("tail", TAILS)
def test_ancestor_runs_are_the_composed_parents(tail):
    rng = random.Random(f"ancestors-{tail}")
    pairs = past = 0
    for _ in range(300):
        seq = random_sequence(rng, tail=tail)
        top = max_usable_level(seq, extra_periods=3)
        for lo in range(1, top + 1):
            for hi in range(lo, top + 1):
                runs = seq.ancestor_runs(lo, hi)
                assert all(n >= 1 for _, n in runs)
                assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))
                got = tuple(a for a, n in runs for _ in range(n))
                assert got == _composed(seq, lo, hi)[0], (seq, lo, hi)
                pairs += 1
                past += hi > seq.length
    assert pairs > 5000 and past > 3000


def test_map_between_over_many_periods():
    # whole periods of a cyclic tail compose by squaring one period
    rng = random.Random("many-periods")
    for _ in range(200):
        seq = random_sequence(rng, tail="cyclic", max_mult=3)
        period = seq.length - seq.periodic_tail
        lo = rng.randint(1, seq.length + period)
        hi = lo + rng.randint(0, 13 * period)
        a = seq.map_between(lo, hi)
        assert (a.parent, a.mult) == _composed(seq, lo, hi), (seq, lo, hi)


def test_telescope_unrolls_to_the_input_composites():
    # a kept tail continues the kept levels' last step: level i of the
    # result past its presented ones is level keep[-1] + (i - len(keep)) * h
    # of the input
    rng = random.Random("telescope")
    kept = checked = 0
    while kept < 300:
        seq = random_sequence(rng, tail="cyclic", max_mult=3)
        p, period = seq.periodic_tail, seq.length - seq.periodic_tail
        head = sorted(rng.sample(range(2, p + 3), rng.randint(0, 2)))
        start = max([p, *head]) + rng.randint(0, 2 * period)
        step = period * rng.randint(1, 2)
        run = [start + j * step for j in range(rng.randint(2, 4))]
        keep = [1] + [t for t in head if t < start] + [t for t in run if t > 1]
        out = telescope(seq, keep)
        if out.periodic_tail is None:
            continue
        kept += 1
        levels = list(keep)
        horizon = out.length + 3 * (out.length - out.periodic_tail)
        while len(levels) <= horizon:
            levels.append(levels[-1] + step)
        for i in range(1, horizon):
            parent, mult = _composed(seq, levels[i - 1], levels[i])
            assert out.map_at(i) == NonMixingMap(
                seq.rank_at(levels[i - 1]), parent, mult
            ), (seq, keep, i)
            checked += 1
    assert checked > 3000


def _subtrees(maps, top, horizon, ids):
    # an id for the subtree below each level-top node down to level
    # horizon: its children's (multiplicity, subtree id) pairs, unordered.
    # maps(t) is the map out of level t; ids interns the pairs, so two
    # calls sharing ids give equal ids exactly to isomorphic subtrees
    below = [0] * maps(horizon - 1).target_rank
    for t in range(horizon - 1, top - 1, -1):
        a = maps(t)
        kids = [[] for _ in range(a.source_rank)]
        for j, i in enumerate(a.parent):
            kids[i].append((a.mult[j], below[j]))
        below = [ids.setdefault(tuple(sorted(k)), len(ids) + 1) for k in kids]
    return below


def test_tensor_seq_unrolls_to_the_product_of_the_unrollings():
    # a kept tail is the row-major product of the factors' unrollings up
    # to a relabelling that fixes the presented levels: the presented
    # maps are the product maps, and below every node of the last
    # presented level the two diagrams have the same subtree, with its
    # multiplicities, down to three periods further (one period where
    # three would pass 200,000 coordinates)
    rng = random.Random(11)
    seen = {"cyclic": 0, "substitution": 0}
    for _ in range(1500):
        a = random_sequence(rng, tail=rng.choice(("cyclic", "sub")))
        b = random_sequence(rng, tail=rng.choice(("cyclic", "sub")))
        out = tensor_seq(a, b)
        if not out.is_tailed:
            continue
        kind = "cyclic" if a.tail_kind == b.tail_kind == "cyclic" else "substitution"
        seen[kind] += 1
        L, period = out.length, out.length - out.periodic_tail
        horizon = L + 3 * period
        if a.rank_at(horizon) * b.rank_at(horizon) > 200_000:
            horizon = L + period
        assert out.base_unit == tensor_vec(a.base_unit, b.base_unit)
        for t in range(1, L):
            assert out.map_at(t) == tensor_map(a.map_at(t), b.map_at(t)), (a, b, t)
        ids = {}
        got = _subtrees(out.map_at, L, horizon, ids)
        want = _subtrees(
            lambda t: tensor_map(a.map_at(t), b.map_at(t)), L, horizon, ids
        )
        assert got == want, (a, b)
    assert seen["cyclic"] > 600 and seen["substitution"] > 250


def _scaled(a, k):
    return NonMixingMap(a.source_rank, a.parent, tuple(m * k for m in a.mult))


def _horizon(out, cap, periods=3):
    # the deepest level up to `periods` periods past out's presented ones
    # whose rank is at most cap, but at least one level past them
    L, period = out.length, out.length - out.periodic_tail
    horizon = L + periods * period
    while horizon > L + 1 and out.rank_at(horizon) > cap:
        horizon -= 1
    return horizon


def test_tensor_qn_kept_cyclic_tails_unroll_to_the_scaled_maps():
    # three periods past the presented levels, the map out of level t is
    # the input's times ratios[t], the factor the chain gives it there
    rng = random.Random("tensor-qn-kept-cyclic")
    kept = 0
    for _ in range(400):
        seq = random_sequence(rng, tail="cyclic")
        n = SupernaturalNumber.parse(rng.choice(SUPERNATURALS))
        period = seq.length - seq.periodic_tail
        out = tensor_qn(seq, n, rng.randint(seq.length, seq.length + 2 * period + 3))
        if not out.is_tailed:
            continue
        kept += 1
        horizon = out.length + 3 * (out.length - out.periodic_tail)
        ratios = n.associated_ratios(horizon)
        for t in range(out.length, horizon):
            assert out.map_at(t) == _scaled(seq.map_at(t), ratios[t]), (seq, n, t)
    assert kept > 300


def test_tensor_qn_kept_self_similar_tails_unroll_to_the_scaled_maps():
    # a kept self-similar tail unrolls in the result's own block order, so
    # below every node of the last presented level the subtree, with its
    # multiplicities, is the input's scaled one, to three periods further
    # where that many coordinates can be listed
    rng = random.Random("tensor-qn-kept-sub")
    kept = 0
    for _ in range(300):
        seq = random_sequence(rng, tail="sub")
        n = SupernaturalNumber.parse(rng.choice(SUPERNATURALS))
        depth = rng.randint(seq.length, max_usable_level(seq, extra_periods=2))
        out = tensor_qn(seq, n, depth)
        if not out.is_tailed:
            continue
        kept += 1
        horizon = _horizon(out, cap=20_000)
        ratios = n.associated_ratios(horizon)
        ids = {}
        got = _subtrees(out.map_at, depth, horizon, ids)
        want = _subtrees(lambda t: _scaled(seq.map_at(t), ratios[t]), depth, horizon, ids)
        assert got == want, (seq, n, depth)
    assert kept > 150


def _telescoped(seq, keep, step, horizon):
    # map_at(i) of telescope(seq, keep) continued past keep[-1] by step,
    # for i up to horizon - 1: the composite between its two input levels
    levels = list(keep)
    while len(levels) <= horizon:
        levels.append(levels[-1] + step)

    def map_at(i):
        parent, mult = _composed(seq, levels[i - 1], levels[i])
        return NonMixingMap(seq.rank_at(levels[i - 1]), parent, mult)

    return map_at


def test_telescope_kept_self_similar_tails_unroll_to_the_input_composites():
    rng = random.Random("telescope-sub")
    kept = 0
    while kept < 200:
        seq = random_sequence(rng, tail="sub", max_mult=3)
        p, period = seq.periodic_tail, seq.length - seq.periodic_tail
        step = rng.randint(1, 2 * period)
        start = p + rng.randint(0, period - 1)
        keep = (1, *(t for t in range(start, start + 3 * step, step) if t > 1))
        if len(keep) < 2 or seq.rank_at(keep[-1]) > 1000:
            continue
        out = telescope(seq, keep)
        if not out.is_tailed:
            continue
        kept += 1
        horizon = _horizon(out, cap=5_000)
        ids = {}
        got = _subtrees(out.map_at, out.length, horizon, ids)
        want = _subtrees(_telescoped(seq, keep, step, horizon), out.length, horizon, ids)
        assert got == want, (seq, keep)


def test_telescope_part_period_steps_unroll_to_the_input_composites():
    # a cyclic tail kept across steps that are not whole periods: the
    # kept run spans whole periods from its tail start, so the result's
    # levels past its presented ones still read the input's composites
    rng = random.Random("telescope-part-period")
    kept = checked = 0
    while kept < 300:
        seq = random_sequence(rng, tail="cyclic", max_mult=3)
        p, period = seq.periodic_tail, seq.length - seq.periodic_tail
        if period < 2:
            continue
        step = rng.choice([s for s in range(1, 2 * period) if s % period])
        start = p + rng.randint(0, period)
        run = range(start, start + rng.randint(2, 2 * period + 1) * step, step)
        keep = (1, *(t for t in run if t > 1))
        out = telescope(seq, keep)
        if not out.is_tailed:
            continue
        kept += 1
        horizon = out.length + 3 * (out.length - out.periodic_tail)
        want = _telescoped(seq, keep, step, horizon)
        for i in range(1, horizon):
            assert out.map_at(i) == want(i), (seq, keep, i)
            checked += 1
    assert checked > 3000
