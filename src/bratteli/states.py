"""States on simplicial groups, kept exact with Fraction arithmetic.

A state on (Z^r, u) is a positive functional normalized at the unit; it
is the tuple of its values on the standard basis.  A unital map
carries states backwards by (dual s)(x) = s(alpha x), and pulling the
extreme points of deeper and deeper levels back to a fixed level traces
out the nested images whose intersection is the trace simplex of the
limit.  Every coordinate of a non-mixing map reads one parent, so an
extreme state pulls back to the extreme state of its ancestor and no
matrix is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagram import BratteliSequence
from .errors import NotNormalized, NotOrderUnit, NotPositive, RankMismatch
from .simplicial import is_order_unit


def _check_unit(u, what: str = "unit") -> tuple:
    u = tuple(u)
    if not is_order_unit(u):
        raise NotOrderUnit(f"{what} {u} is not strictly positive")
    return u


@dataclass(frozen=True)
class StateVector:
    """Values of a state on the basis, normalized against its unit."""

    values: tuple
    unit: tuple

    def __post_init__(self):
        values = tuple(Fraction(v) for v in self.values)
        unit = _check_unit(self.unit)
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
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "unit", unit)

    @property
    def rank(self) -> int:
        return len(self.values)

    def evaluate(self, x) -> Fraction:
        x = tuple(x)
        if len(x) != self.rank:
            raise RankMismatch(f"vector has length {len(x)}, state rank {self.rank}")
        return sum((v * xi for v, xi in zip(self.values, x)), Fraction(0))


def simplex_vertices(rank: int, u) -> tuple:
    """Extreme states of (Z^rank, u): coordinate evaluations over u_i."""
    u = _check_unit(u)
    if len(u) != rank:
        raise RankMismatch(f"unit has length {len(u)}, expected {rank}")
    out = []
    for i in range(rank):
        values = tuple(
            Fraction(1, u[i]) if j == i else Fraction(0) for j in range(rank)
        )
        out.append(StateVector(values, u))
    return tuple(out)


def depth_image_vertices(seq: BratteliSequence, level: int, depth: int) -> tuple:
    """Extreme states of level `depth`, pulled back to `level`.

    Returns the value tuples, one per level-`depth` coordinate in order;
    their convex hull is the stage-`depth` approximation of the limit
    trace simplex, drawn inside the state simplex of the chosen level.
    Coordinate j reads the single ancestor i = parent(j) at `level`, and
    its unit entry is v_j = mult_j * u_i, so the extreme state e_j / v_j
    pulls back to exactly the vertex e_i / u_i.
    """
    vertices = simplex_vertices(seq.rank_at(level), seq.unit_at(level))
    return tuple(vertices[i].values for i in seq.map_between(level, depth).parent)


def restate_unit(state: StateVector, new_unit) -> StateVector:
    """The same functional renormalized against another order unit."""
    new_unit = _check_unit(new_unit, "new unit")
    if len(new_unit) != state.rank:
        raise RankMismatch(
            f"new unit has length {len(new_unit)}, state rank {state.rank}"
        )
    total = sum((v * w for v, w in zip(state.values, new_unit)), Fraction(0))
    return StateVector(tuple(v / total for v in state.values), new_unit)


def verify_state_invariance(seq: BratteliSequence, n, depth: int) -> bool:
    """Check that tensoring by Q_n only rescales the level maps.

    Each tensored map must have the original parents and the original
    multiplicities times n_{i+1}/n_i, exactly.  Since a state on the
    tensored level i is n_i times a state on the original level i, this
    is what makes the two limit simplices literally equal.
    """
    from .tensor import tensor_qn

    scaled = tensor_qn(seq, n, depth)
    ns = n.associated_sequence(depth)
    for i in range(1, depth):
        plain = seq.map_at(i)
        tensored = scaled.map_at(i)
        if (tensored.source_rank, tensored.parent) != (plain.source_rank, plain.parent):
            return False
        if any(a * ns[i - 1] != b * ns[i] for a, b in zip(tensored.mult, plain.mult)):
            return False
    return True
