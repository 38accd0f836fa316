"""Deterministic generators for test data.

Everything takes an explicit random.Random so failures replay exactly.
"""

import inspect

from bratteli import BratteliSequence, LimitElement, NonMixingMap


def replace(obj, **changes):
    """A copy of a value object with some fields changed, built through
    its constructor, so the constructor's checks run on the result."""
    cls = type(obj)
    fields = {name: getattr(obj, name) for name in inspect.signature(cls).parameters}
    return cls(**{**fields, **changes})


def scalar_chain(k, levels=2, unit=1, tailed=True):
    """Rank-1 sequence multiplying by k at every level."""
    m = NonMixingMap(1, (0,), (k,))
    tail = 1 if tailed else None
    return BratteliSequence(
        (1,) * levels, (m,) * (levels - 1), (unit,), periodic_tail=tail
    )


def full_tree(branch, levels):
    """Every node splits into `branch` children, all multiplicities 1."""
    ranks = tuple(branch**t for t in range(levels))
    maps = tuple(
        NonMixingMap(
            branch ** (t - 1),
            tuple(j // branch for j in range(branch**t)),
            (1,) * branch**t,
        )
        for t in range(1, levels)
    )
    return BratteliSequence(ranks, maps, (1,), periodic_tail=1)


def two_path(m0, m1, levels=3, unit=(1, 1)):
    """Two parallel rank-1 chains with multiplicities m0 and m1."""
    m = NonMixingMap(2, (0, 1), (m0, m1))
    return BratteliSequence(
        (2,) * levels, (m,) * (levels - 1), tuple(unit), periodic_tail=1
    )


def random_map(rng, src, tgt, max_mult=4, onto=False):
    if onto:
        parent = list(range(src)) + [rng.randrange(src) for _ in range(tgt - src)]
        rng.shuffle(parent)
    else:
        parent = [rng.randrange(src) for _ in range(tgt)]
    mult = [rng.randint(1, max_mult) for _ in range(tgt)]
    return NonMixingMap(src, tuple(parent), tuple(mult))


def long_chain(rng, levels, rank=8, max_mult=2):
    """Constant-rank chain of onto random maps, cyclic from level 1."""
    maps = tuple(
        random_map(rng, rank, rank, max_mult, onto=True) for _ in range(levels - 1)
    )
    unit = random_unit(rng, rank, hi=3)
    return BratteliSequence((rank,) * levels, maps, unit, periodic_tail=1)


def random_sequence(rng, max_levels=5, max_rank=4, max_mult=4, tail="maybe"):
    """A random well-formed sequence.

    tail: "none", "cyclic", "sub", or "maybe" (cyclic-biased mix).
    Substitution tails keep ranks small since sizes grow per period.
    """
    levels = rng.randint(2, max_levels)
    if tail == "maybe":
        tail = rng.choice(("none", "cyclic", "cyclic", "sub"))
    ranks = [rng.randint(1, max_rank) for _ in range(levels)]
    tail_idx = None
    if tail == "cyclic":
        tail_idx = rng.randint(1, levels - 1)
        ranks[tail_idx - 1] = ranks[-1]
    elif tail == "sub":
        levels = min(levels, 3)
        ranks = [rng.randint(1, 3) for _ in range(levels)]
        tail_idx = rng.randint(1, levels - 1)
        ranks[tail_idx - 1] = 1
    maps = tuple(
        random_map(rng, ranks[i], ranks[i + 1], max_mult) for i in range(levels - 1)
    )
    unit = tuple(rng.randint(1, 3) for _ in range(ranks[0]))
    return BratteliSequence(tuple(ranks), maps, unit, periodic_tail=tail_idx)


def random_unit(rng, rank, hi=5):
    return tuple(rng.randint(1, hi) for _ in range(rank))


def random_element(rng, seq, level, lo=-4, hi=4):
    vec = tuple(rng.randint(lo, hi) for _ in range(seq.rank_at(level)))
    return LimitElement(level, vec)


def max_usable_level(seq, extra_periods=2, size_cap=1000):
    """Deepest level worth sampling: presented part plus a bounded tail."""
    top = seq.length
    if not seq.is_tailed:
        return top
    horizon = seq.length + extra_periods * max(1, seq.length - seq.periodic_tail)
    while top < horizon and seq.rank_at(top + 1) <= size_cap:
        top += 1
    return top
