"""Tensor products of presented sequences, levelwise and against Q_n.

Everything here is Kronecker-style bookkeeping: coordinates of a tensor
level are pairs (a, b) flattened row-major, so pair (a, b) sits at index
a * rank_B + b.  That holds on every presented level, and at every level
of a kept cyclic tail.  Past the presented levels of a kept self-similar
tail the result is isomorphic to the product of the unrollings, by a
relabelling that fixes the presented levels: the unrolled coordinates
follow the result's own block order, which can permute the pairs.
verify_state_invariance rechecks the maps tensor_qn builds.
"""

from __future__ import annotations

from math import lcm
from operator import mul

from .diagram import BratteliSequence, _check_listing, _tail_start
from .simplicial import NonMixingMap


def tensor_vec(u, v) -> tuple:
    """Kronecker product of vectors; entry j*len(v)+k equals u_j*v_k."""
    u, v = tuple(u), tuple(v)
    return tuple(a * b for a in u for b in v)


def tensor_map(f: NonMixingMap, g: NonMixingMap) -> NonMixingMap:
    """Kronecker product of non-mixing maps, again non-mixing."""
    width = g.source_rank
    parent = tuple([i * width + j for i in f.parent for j in g.parent])
    mult = tuple([a * b for a in f.mult for b in g.mult])
    return NonMixingMap._of(f.source_rank * width, parent, mult)


def tensor_seq(A: BratteliSequence, B: BratteliSequence) -> BratteliSequence:
    """Levelwise tensor product of two presented sequences.

    When both factors have tails the result presents one combined
    period, from max(p_A, p_B) through the lcm of the two period
    lengths, and keeps the tail diagram._tail_start finds there.  With
    at most one tail it is truncated to the shortest untailed factor.
    A result past the listing budget (diagram._check_listing) raises
    TooLarge before any map is built.
    """
    if A.is_tailed and B.is_tailed:
        P = max(A.periodic_tail, B.periodic_tail)
        length = P + lcm(A.length - A.periodic_tail, B.length - B.periodic_tail)
    else:
        length = min(s.length for s in (A, B) if not s.is_tailed)
    _check_listing(
        (A, B), range(1, length + 1), "product level", f"a product of length {length}"
    )
    (ranks_a, maps_a), (ranks_b, maps_b) = A._levels_to(length), B._levels_to(length)
    ranks = tuple(map(mul, ranks_a, ranks_b))
    maps = tuple(map(tensor_map, maps_a, maps_b))
    unit = tensor_vec(A.base_unit, B.base_unit)
    tail = _tail_start((A, B), range(1, length + 1), ranks)
    return BratteliSequence(ranks, maps, unit, tail)


def tensor_qn(seq: BratteliSequence, n, depth: int) -> BratteliSequence:
    """Tensor with the subgroup of the rationals named by a supernatural n.

    The groups at each level are unchanged; the divisibility chain
    n_1 | n_2 | ... associated with n is folded into the presentation
    instead.  The unit becomes n_1 times the old one and the map out of
    level i picks up the integer factor n_{i+1}/n_i, read off in closed
    form without forming the chain.  The result presents `depth` levels,
    keeping the input's tail past n._steady_step(), from where every map
    picks up one factor (diagram._tail_start); levels 1..depth past the
    listing budget (diagram._check_listing) raise TooLarge up front.
    """
    seq._require_level(depth)
    _check_listing((seq,), range(1, depth + 1), listing=f"depth {depth}")
    ratios = n.associated_ratios(depth)
    ranks, plain = seq._levels_to(depth)
    maps = []
    for a, k in zip(plain, ratios[1:]):
        mult = tuple([m * k for m in a.mult])
        maps.append(NonMixingMap._of(a.source_rank, a.parent, mult))
    unit = tuple(ratios[0] * u for u in seq.base_unit)
    tail = _tail_start((seq,), range(1, depth + 1), ranks, n._steady_step())
    return BratteliSequence(ranks, tuple(maps), unit, tail)


def verify_state_invariance(seq: BratteliSequence, n, depth: int) -> bool:
    """Check that tensoring by Q_n only rescales the level maps.

    Each tensored map must have the original parents and the original
    multiplicities times n_{i+1}/n_i, exactly.  Since a state on the
    tensored level i is n_i times a state on the original level i, this
    is what makes the two limit simplices literally equal.
    """
    scaled = tensor_qn(seq, n, depth)
    ratios = n.associated_ratios(depth)
    for i in range(1, depth):
        plain = seq._map(i)
        tensored = scaled._map(i)
        if (tensored.source_rank, tensored.parent) != (plain.source_rank, plain.parent):
            return False
        if any(a != b * ratios[i] for a, b in zip(tensored.mult, plain.mult)):
            return False
    return True
