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

from .diagram import BratteliSequence
from .errors import Frozen, NotNormalized, NotOrderUnit, NotPositive, RankMismatch
from .simplicial import is_order_unit


class StateVector(Frozen):
    """Values of a state on the basis, normalized against its unit."""

    __slots__ = ("values", "unit")

    def __init__(self, values, unit):
        values = tuple(Fraction(v) for v in values)
        unit = tuple(unit)
        if not is_order_unit(unit):
            raise NotOrderUnit(f"unit {unit} is not strictly positive")
        if len(values) != len(unit):
            raise RankMismatch(
                f"{len(values)} values against a rank-{len(unit)} unit"
            )
        for v in values:
            if v < 0:
                raise NotPositive(f"state value {v} is negative")
        total = sum(v * w for v, w in zip(values, unit))
        if total != 1:
            raise NotNormalized(f"state gives the unit {total}, not 1")
        self._freeze(values, unit)

    @property
    def rank(self) -> int:
        return len(self.values)

    def evaluate(self, x) -> Fraction:
        x = tuple(x)
        if len(x) != self.rank:
            raise RankMismatch(f"vector has length {len(x)}, state rank {self.rank}")
        return sum((v * xi for v, xi in zip(self.values, x)), Fraction(0))


def depth_image_runs(seq: BratteliSequence, level: int, depth: int) -> tuple:
    """(vertices, runs): the vertices of `level`, and which of them the
    vertices of `depth` pull back to.

    vertices[i] is the value tuple of e_i / u_i, with u the unit at
    `level`; runs are seq.ancestor_runs(level, depth), (i, count) pairs
    saying that the next count coordinates of `depth`, in order, pull
    back to vertices[i].  Coordinate j of `depth` reads the single
    ancestor i, and its unit entry is v_j = mult_j * u_i, so the extreme
    state e_j / v_j pulls back to exactly e_i / u_i.
    """
    u = seq.unit_at(level)
    runs = seq.ancestor_runs(level, depth)
    zero = Fraction(0)
    vertices = []
    for i, ui in enumerate(u):
        values = [zero] * len(u)
        values[i] = Fraction(1, ui)
        vertices.append(tuple(values))
    return tuple(vertices), runs


def depth_image_vertices(seq: BratteliSequence, level: int, depth: int) -> tuple:
    """Extreme states of level `depth`, pulled back to `level`.

    Returns the value tuples, one per level-`depth` coordinate in order;
    their convex hull is the stage-`depth` approximation of the limit
    trace simplex, drawn inside the state simplex of the chosen level.
    """
    vertices, runs = depth_image_runs(seq, level, depth)
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
