"""Tensor products of presented sequences, levelwise and against Q_n.

Everything here is Kronecker-style bookkeeping: coordinates of a tensor
level are pairs (a, b) flattened row-major, so pair (a, b) sits at index
a * rank_B + b.  That holds on every presented level, and at every level
when both factors have cyclic tails.  Past the presented levels of a
kept tail with a self-similar factor the product diagram is still
exact: it is isomorphic, by a relabelling that fixes the presented
levels, to the row-major product of the factors' unrollings.  Only the
row order differs, since the unrolled coordinates follow the result's
own block order, which can permute the row-major pairs.
"""

from __future__ import annotations

from math import lcm

from .diagram import BratteliSequence, _refuse_deep, _refuse_listing
from .errors import BadRepeat
from .simplicial import NonMixingMap


def tensor_vec(u, v) -> tuple:
    """Kronecker product of vectors; entry j*len(v)+k equals u_j*v_k."""
    u, v = tuple(u), tuple(v)
    return tuple(a * b for a in u for b in v)


def tensor_map(f: NonMixingMap, g: NonMixingMap) -> NonMixingMap:
    """Kronecker product of non-mixing maps, again non-mixing."""
    parent, mult = [], []
    for j in range(f.target_rank):
        for k in range(g.target_rank):
            parent.append(f.parent[j] * g.source_rank + g.parent[k])
            mult.append(f.mult[j] * g.mult[k])
    return NonMixingMap._of(f.source_rank * g.source_rank, tuple(parent), tuple(mult))


def tensor_seq(A: BratteliSequence, B: BratteliSequence) -> BratteliSequence:
    """Levelwise tensor product of two presented sequences.

    When both factors have tails the result presents one combined
    period, from max(p_A, p_B) through the lcm of the two period
    lengths, and keeps a tail whenever the combined pattern provably
    closes up again; otherwise the tail is dropped.  With at most one
    tail the result is truncated to the shortest untailed presentation.
    A result of more than 2**20 levels, or 2**22 coordinates, raises
    TooLarge before any map is built.
    """
    tail = None
    if A.is_tailed and B.is_tailed:
        P = max(A.periodic_tail, B.periodic_tail)
        M = lcm(A.length - A.periodic_tail, B.length - B.periodic_tail)
        length, tail = P + M, P
    else:
        length = min(
            [s.length for s in (A, B) if not s.is_tailed]
        )
    _refuse_deep(length)
    _refuse_listing(A.rank_at(t) * B.rank_at(t) for t in range(1, length + 1))
    ranks = tuple(A.rank_at(t) * B.rank_at(t) for t in range(1, length + 1))
    maps = tuple(tensor_map(A.map_at(t), B.map_at(t)) for t in range(1, length))
    unit = tensor_vec(A.base_unit, B.base_unit)
    if tail is not None:
        # a factor's rank never shrinks from P to P + M, so the product
        # takes a tail shape only when both factors keep their rank or
        # both have rank 1 at P; either way each factor's diagram from P
        # on repeats below every node of P, P + M, P + 2M, ...
        try:
            return BratteliSequence(ranks, maps, unit, tail)
        except BadRepeat:
            pass
    return BratteliSequence(ranks, maps, unit, None)


def tensor_qn(seq: BratteliSequence, n, depth: int) -> BratteliSequence:
    """Tensor with the subgroup of the rationals named by a supernatural n.

    The groups at each level are unchanged; the divisibility chain
    n_1 | n_2 | ... associated with n is folded into the presentation
    instead.  The unit becomes n_1 times the old one and the map out of
    level i picks up the integer factor n_{i+1}/n_i, read off in closed
    form without forming the chain.  The result presents `depth` levels
    and carries no tail; a depth past 2**20 levels, or levels of more
    than 2**22 coordinates together, raise TooLarge.
    """
    seq._require_level(depth)
    _refuse_deep(depth)
    seq._check_listable(1, depth)
    _refuse_listing(map(seq.rank_at, range(1, depth + 1)))
    ratios = n.associated_ratios(depth)
    ranks = tuple(seq.rank_at(t) for t in range(1, depth + 1))
    maps = []
    for i, k in enumerate(ratios[1:], start=1):
        a = seq.map_at(i)
        maps.append(NonMixingMap(a.source_rank, a.parent, tuple(m * k for m in a.mult)))
    unit = tuple(ratios[0] * u for u in seq.base_unit)
    return BratteliSequence(ranks, tuple(maps), unit, None)
