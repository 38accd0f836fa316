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
    ONE,
    NonMixingMap,
    SupernaturalNumber,
    injectivize,
    keep_at,
    tensor_qn,
)
from genseq import max_usable_level, random_sequence

TAILS = ("cyclic", "sub")


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
        ONE,
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
        chain = n.associated_sequence(depth)
        assert out.ranks == tuple(seq.rank_at(t) for t in range(1, depth + 1))
        assert out.base_unit == tuple(chain[0] * u for u in seq.base_unit)
        for t in range(1, depth):
            a = seq.map_at(t)
            k = chain[t] // chain[t - 1]
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
