"""Ordered groups Z^r with the coordinatewise cone, and non-mixing maps.

A positive homomorphism Z^r -> Z^s is non-mixing when its matrix has
exactly one nonzero entry in every row, i.e. every target coordinate is
a positive multiple of a single source coordinate.  Such a map is
recorded by two length-s tuples: parent (which source coordinate feeds
each target, 0-based) and mult (positive multipliers).
"""

from __future__ import annotations

from .errors import Frozen, NotNonMixing, NotOrderUnit, NotPositive, RankMismatch

IntVector = tuple  # tuple[int, ...]


def _check_vec(x, rank: int, what: str = "vector") -> tuple:
    x = tuple(x)
    if len(x) != rank:
        raise RankMismatch(f"{what} has length {len(x)}, expected {rank}")
    for v in x:
        if not isinstance(v, int):
            raise TypeError(f"{what} entries must be ints, got {v!r}")
    return x


def is_positive(x) -> bool:
    """Membership in the cone: every entry >= 0."""
    return all(v >= 0 for v in x)


def is_order_unit(x) -> bool:
    """Strict positivity; equivalent to being an order unit for Z^r."""
    return len(tuple(x)) > 0 and all(v >= 1 for v in x)


def forall_n_leq(x, y) -> bool:
    """Decide whether n*x <= y holds for every n >= 1.

    Coordinatewise: possible iff x_i < 0 (then some multiple dips under
    any bound, and monotone decrease keeps it there once n*x_i <= y_i,
    so we need x_i <= y_i at n = 1), or x_i = 0 with y_i >= 0.
    """
    x, y = tuple(x), tuple(y)
    if len(x) != len(y):
        raise RankMismatch(f"lengths {len(x)} and {len(y)} differ")
    for xi, yi in zip(x, y):
        if xi > 0:
            return False
        if xi == 0:
            if yi < 0:
                return False
        else:
            if xi > yi:
                return False
    return True


class NonMixingMap(Frozen):
    """Positive map Z^source_rank -> Z^len(parent), one source per row."""

    __slots__ = ("source_rank", "parent", "mult")

    def __init__(self, source_rank: int, parent, mult):
        if not isinstance(source_rank, int) or source_rank < 1:
            raise NotPositive(f"source rank must be >= 1, got {source_rank}")
        parent = tuple(parent)
        mult = tuple(mult)
        if len(parent) != len(mult):
            raise RankMismatch(
                f"parent has length {len(parent)}, mult has length {len(mult)}"
            )
        if not parent:
            raise NotPositive("target rank must be >= 1")
        for j, i in enumerate(parent):
            if not isinstance(i, int) or not 0 <= i < source_rank:
                raise RankMismatch(
                    f"parent[{j}] = {i!r} outside range(0, {source_rank})"
                )
        for j, k in enumerate(mult):
            if not isinstance(k, int) or k < 1:
                raise NotPositive(f"mult[{j}] = {k!r} must be a positive integer")
        self._freeze(source_rank, parent, mult)

    @property
    def target_rank(self) -> int:
        return len(self.parent)

    @classmethod
    def identity(cls, rank: int) -> "NonMixingMap":
        return cls(rank, tuple(range(rank)), (1,) * rank)

    @classmethod
    def scalar(cls, rank: int, k: int) -> "NonMixingMap":
        return cls(rank, tuple(range(rank)), (k,) * rank)

    @classmethod
    def from_matrix(cls, rows) -> "NonMixingMap":
        """Build from an s x r integer matrix, one nonzero per row."""
        rows = [tuple(row) for row in rows]
        if not rows:
            raise NotPositive("matrix must have at least one row")
        r = len(rows[0])
        parent, mult = [], []
        for j, row in enumerate(rows):
            if len(row) != r:
                raise RankMismatch(f"row {j} has length {len(row)}, expected {r}")
            hits = [(i, v) for i, v in enumerate(row) if v != 0]
            if len(hits) != 1:
                raise NotNonMixing(f"row {j} has {len(hits)} nonzero entries")
            i, v = hits[0]
            if v < 0:
                raise NotPositive(f"row {j} has negative entry {v}")
            parent.append(i)
            mult.append(v)
        return cls(r, tuple(parent), tuple(mult))

    def matrix(self):
        rows = []
        for i, k in zip(self.parent, self.mult):
            row = [0] * self.source_rank
            row[i] = k
            rows.append(tuple(row))
        return tuple(rows)

    def apply(self, x) -> tuple:
        x = _check_vec(x, self.source_rank)
        return tuple(k * x[i] for i, k in zip(self.parent, self.mult))

    def compose(self, inner: "NonMixingMap") -> "NonMixingMap":
        """self after inner (function composition order)."""
        if inner.target_rank != self.source_rank:
            raise RankMismatch(
                f"inner target rank {inner.target_rank} != source rank {self.source_rank}"
            )
        parent = tuple(inner.parent[i] for i in self.parent)
        mult = tuple(k * inner.mult[i] for i, k in zip(self.parent, self.mult))
        return NonMixingMap(inner.source_rank, parent, mult)

    def push_unit(self, u) -> tuple:
        """Image of an order unit; stays an order unit by positivity."""
        u = _check_vec(u, self.source_rank, "unit")
        if not is_order_unit(u):
            raise NotOrderUnit(f"{u} is not strictly positive")
        return self.apply(u)

    def is_injective(self) -> bool:
        """Injective iff every source coordinate feeds some target."""
        return len(set(self.parent)) == self.source_rank
