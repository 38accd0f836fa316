"""States on simplicial groups, kept exact with Fraction arithmetic.

A state on (Z^r, u) is a positive functional normalized at the unit; it
is the tuple of its values on the standard basis.  A unital map
carries states backwards by (dual s)(x) = s(alpha x), and pulling the
extreme points of deeper and deeper levels back to a fixed level traces
out the nested images whose intersection is the trace simplex of the
limit.  Every coordinate of a non-mixing map reads one parent, so an
extreme state pulls back to the extreme state e_i / u_i of its
ancestor i: the pulled-back vertices of a deep level are the vertices
of the chosen level, repeated in the runs BratteliSequence.ancestor_runs
gives.  No matrix is formed and no deep level is listed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat

from .diagram import BratteliSequence, _refuse_unwritable

# 1 / u rounds to the float 0.0 from u = 2**1075 on: that quotient is
# half the smallest subnormal 2**-1074, a tie that rounds to even
_FLOAT_CAP = 2**1075


def float_image_runs(seq: BratteliSequence, level: int, depth: int) -> tuple:
    """(unit, runs): the unit at `level`, every entry cut down to
    2**1075 for writing each vertex value 1 / u_i as a float, and
    seq.ancestor_runs(level, depth), the (i, count) pairs saying that the
    next count coordinates of `depth`, in order, pull back to vertex i.

    The float 1 / min(u_i, 2**1075) is the float 1 / u_i, since both
    round to 0.0 once u_i reaches 2**1075.  A product of positive
    integers never shrinks, so composing the unit with every product cut
    down to 2**1075 gives min(u_i, 2**1075) exactly, and no number of
    more than about 2,150 bits is formed however deep `level` is.
    """
    start = [min(v, _FLOAT_CAP) for v in seq.base_unit]
    return seq._push(start, 1, level, cap=_FLOAT_CAP), seq.ancestor_runs(level, depth)


def exact_image_runs(seq: BratteliSequence, level: int, depth: int) -> tuple:
    """(unit, runs) as float_image_runs gives them, with the unit exact
    at every vertex the runs name, refusing first a vertex whose value
    1 / u_i is too long to write.

    The unit is composed once, with every product cut at the least
    number str() refuses (BratteliSequence._written), so each entry
    below the cut is exact.  TooLarge is raised, before any vertex is
    written, when the unit entry of a vertex the runs name reaches the
    cut, and before the unit is composed when every entry will.  A bad
    span is reported first, in the order the unit and the runs read it.
    """
    seq._check_span(1, level)
    runs = seq.ancestor_runs(level, depth)
    u = seq._written(seq.base_unit, 1, level, "state value")[1]
    _refuse_unwritable((u[i] for i, _ in runs), "state value")
    return u, runs


def _vertices(u) -> tuple:
    # the value tuple of e_i / u_i for every i
    zero = Fraction(0)
    vertices = []
    for i, ui in enumerate(u):
        values = [zero] * len(u)
        values[i] = Fraction(1, ui)
        vertices.append(tuple(values))
    return tuple(vertices)


def depth_image_vertices(seq: BratteliSequence, level: int, depth: int) -> tuple:
    """Extreme states of level `depth`, pulled back to `level`.

    Returns the value tuples, one per level-`depth` coordinate in order;
    their convex hull is the stage-`depth` approximation of the limit
    trace simplex, drawn inside the state simplex of the chosen level.

    Vertex i of `level` is e_i / u_i, u the unit there.  Coordinate j of
    `depth` reads the single ancestor i, and its unit entry is
    v_j = mult_j * u_i, so the extreme state e_j / v_j pulls back to
    exactly e_i / u_i; seq.ancestor_runs(level, depth) says which i each
    coordinate of `depth` reads, in runs.
    """
    vertices = _vertices(seq.unit_at(level))
    runs = seq.ancestor_runs(level, depth)
    return tuple(chain.from_iterable(repeat(vertices[i], n) for i, n in runs))


def verify_state_invariance(seq: BratteliSequence, n, depth: int) -> bool:
    """Check that tensoring by Q_n only rescales the level maps.

    Each tensored map must have the original parents and the original
    multiplicities times n_{i+1}/n_i, exactly.  Since a state on the
    tensored level i is n_i times a state on the original level i, this
    is what makes the two limit simplices literally equal.
    """
    from .tensor import tensor_qn

    scaled = tensor_qn(seq, n, depth)
    ratios = n.associated_ratios(depth)
    for i in range(1, depth):
        plain = seq.map_at(i)
        tensored = scaled.map_at(i)
        if (tensored.source_rank, tensored.parent) != (plain.source_rank, plain.parent):
            return False
        if any(a != b * ratios[i] for a, b in zip(tensored.mult, plain.mult)):
            return False
    return True
