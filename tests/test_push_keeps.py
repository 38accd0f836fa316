"""The one push and the one pruning walk against the code they replaced.

BratteliSequence._push carries a vector up along parents, and
diagram._keeps walks parents down once per sequence.  Before them a
vector was pushed by building the composite map_between(lo, hi) and
applying it, and the kept coordinates came from two walks, one to the
tail start and one over the block, stitched together by keep_at.  Local
copies of that code are kept here, the way test_fileformat.py keeps the
old token reader, and compared with the package on seeded random
sequences of every tail kind, three periods past the presented levels.
"""

import random
from functools import partial

from bratteli import (
    BratteliSequence,
    NonMixingMap,
    diagram,
    forall_n_leq,
    forall_n_leq_limit,
    injectivize,
    keep_at,
    limit_leq,
)
from genseq import max_usable_level, random_element, random_sequence

TAILS = ("none", "cyclic", "sub")


def _old_keeps_below(seq, keep, top, lo):
    keeps = [keep]
    for s in range(top - 1, lo - 1, -1):
        parent = seq.maps[s - 1].parent
        keep = tuple(sorted({parent[j] for j in keep}))
        keeps.append(keep)
    return keeps[::-1]


def _old_keeps_to_top(seq):
    top = seq.periodic_tail or seq.length
    return tuple(_old_keeps_below(seq, _old_keep_at(seq, top), top, 1))


def _old_tail_keeps(seq):
    p, L = seq.periodic_tail, seq.length
    rank_p = seq.ranks[p - 1]
    root = tuple(range(rank_p))
    while True:
        alive = set(root)
        top = tuple(c for c in range(seq.ranks[-1]) if c % rank_p in alive)
        keeps = _old_keeps_below(seq, top, L, p)
        if keeps[0] == root:
            return tuple(keeps)
        root = keeps[0]


def _old_keep_at(seq, t):
    seq._require_level(t)
    top = seq.periodic_tail or seq.length
    if t < top:
        return _old_keeps_to_top(seq)[t - 1]
    if not seq.is_tailed:
        return tuple(range(seq.ranks[-1]))
    b = seq._block_position(t)
    keep = _old_tail_keeps(seq)[b - top]
    if t < seq.length:
        return keep
    alive = set(keep)
    order = seq._block()[0][b - top]
    return seq._repeat(t, tuple(k for k, c in enumerate(order) if c in alive))


def _old_injectivize(seq):
    L = seq.length
    top = seq.periodic_tail or L
    keeps = [
        *_old_keeps_to_top(seq),
        *(_old_keep_at(seq, t) for t in range(top + 1, L + 1)),
    ]
    # the walk never empties a level: it starts from a non-empty set,
    # and a non-empty set of coordinates has a non-empty set of parents
    assert all(keeps), seq
    if all(len(k) == r for k, r in zip(keeps, seq.ranks)):
        return seq, tuple(keeps)
    new_maps = []
    for t in range(1, L):
        old = seq.maps[t - 1]
        src = {c: i for i, c in enumerate(keeps[t - 1])}
        parent = tuple(src[old.parent[j]] for j in keeps[t])
        mult = tuple(old.mult[j] for j in keeps[t])
        new_maps.append(NonMixingMap(len(keeps[t - 1]), parent, mult))
    unit = tuple(seq.base_unit[c] for c in keeps[0])
    pruned = BratteliSequence(
        tuple(len(k) for k in keeps), tuple(new_maps), unit, seq.periodic_tail
    )
    return pruned, tuple(keeps)


def _old_pushed_pair(seq, a, b):
    m = max(a.level, b.level)
    x = seq.map_between(a.level, m).apply(a.vec)
    y = seq.map_between(b.level, m).apply(b.vec)
    kept = _old_keep_at(seq, m)
    return tuple(x[j] for j in kept), tuple(y[j] for j in kept)


def _cut_pushed_pair(seq, a, b):
    # each element's entries times its composite multiplicities M, every
    # M cut down to c, one past the largest |entry| of the two elements
    m = max(a.level, b.level)
    c = 1 + max(map(abs, a.vec + b.vec))
    kept = _old_keep_at(seq, m)

    def pushed(el):
        f = seq.map_between(el.level, m)
        return tuple(el.vec[f.parent[j]] * min(f.mult[j], c) for j in kept)

    return pushed(a), pushed(b)


def _sequences(seed, count=500):
    rng = random.Random(seed)
    for i in range(count):
        yield rng, random_sequence(rng, tail=TAILS[i % 3])


def test_keep_at_matches_the_two_walks():
    levels = {None: 0, "cyclic": 0, "substitution": 0}
    for _, seq in _sequences(1901):
        for t in range(1, max_usable_level(seq, extra_periods=3) + 1):
            assert keep_at(seq, t) == _old_keep_at(seq, t), (seq, t)
            levels[seq.tail_kind] += 1
    assert min(levels.values()) > 500


def test_injectivize_is_unchanged():
    outcomes = {"pruned": 0, "kept": 0}
    for _, seq in _sequences(1902):
        got = injectivize(seq)
        assert got == _old_injectivize(seq), seq
        outcomes["kept" if got[0] is seq else "pruned"] += 1
    assert min(outcomes.values()) > 100


def test_keeps_walk_down_once_per_sequence(count_calls):
    # one walk from L without a tail; with one, the sweep over the block
    # until it settles and one walk on from the tail start.  keep_at at
    # every level and injectivize then read that walk, and walk no more
    rng = random.Random(1903)
    walks = count_calls(diagram, "_keeps_below")
    for i in range(60):
        seq = random_sequence(rng, tail=TAILS[i % 3])
        before = walks[0]
        keeps = tuple(keep_at(seq, t) for t in range(1, seq.length + 1))
        taken = walks[0] - before
        assert taken >= 2 if seq.is_tailed else taken == 1
        assert injectivize(seq)[1] == keeps
        assert walks[0] - before == taken


def test_unit_at_is_the_applied_composite():
    for _, seq in _sequences(1904):
        for t in range(1, max_usable_level(seq, extra_periods=3) + 1):
            assert seq.unit_at(t) == seq.map_between(1, t).apply(seq.base_unit)


def test_cut_push_is_the_cut_composite():
    # with a cap each pushed entry is the exact one cut down to the cap
    for rng, seq in _sequences(1905):
        top = max_usable_level(seq, extra_periods=3)
        lo = rng.randint(1, top)
        hi = rng.randint(lo, top)
        x = [rng.randint(1, 9) for _ in range(seq.rank_at(lo))]
        cap = rng.choice((1, 5, 50, 10**4))
        want = [min(v, cap) for v in seq.map_between(lo, hi).apply(x)]
        assert seq._push([min(v, cap) for v in x], lo, hi, cap=cap) == want


def test_limit_order_matches_the_applied_composites():
    # the pushed pair is the exact one with every composite multiplicity
    # cut at one past the largest |entry|; entries up to 10**30 put that
    # cut above the multiplicities, small ones below them
    verdicts = {True: 0, False: 0}
    for rng, seq in _sequences(1906):
        top = max_usable_level(seq, extra_periods=3)
        for span in (1,) * 4 + (10**30,) * 2:
            a = random_element(rng, seq, rng.randint(1, top), lo=-3 * span, hi=span)
            b = random_element(rng, seq, rng.randint(1, top), lo=-3 * span, hi=3 * span)
            x, y = _old_pushed_pair(seq, a, b)
            kept = partial(diagram._checked_keep, seq)
            pair = (a.level, a.vec), (b.level, b.vec)
            assert diagram._pushed_pair(seq, *pair, kept) == _cut_pushed_pair(seq, a, b)
            leq = all(xi <= yi for xi, yi in zip(x, y))
            assert limit_leq(seq, a, b) == leq
            assert forall_n_leq_limit(seq, a, b) == forall_n_leq(x, y)
            verdicts[leq] += 1
    assert min(verdicts.values()) > 100
