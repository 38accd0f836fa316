"""Ordered groups Z^r with the coordinatewise cone, and non-mixing maps.

A positive homomorphism Z^r -> Z^s is non-mixing when its matrix has
exactly one nonzero entry in every row, i.e. every target coordinate is
a positive multiple of a single source coordinate.  Such a map is
recorded by two length-s tuples: parent (which source coordinate feeds
each target, 0-based) and mult (positive multipliers).
"""

from __future__ import annotations

from .errors import Frozen, NotPositive, RankMismatch, _set


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

    @classmethod
    def _of(cls, source_rank: int, parent: tuple, mult: tuple) -> "NonMixingMap":
        """Unchecked: the caller has already made the checks of __init__."""
        self = cls.__new__(cls)
        _set(self, "source_rank", source_rank)
        _set(self, "parent", parent)
        _set(self, "mult", mult)
        return self

    @property
    def target_rank(self) -> int:
        return len(self.parent)

    def apply(self, x) -> tuple:
        x = tuple(x)
        if len(x) != self.source_rank:
            raise RankMismatch(f"vector has length {len(x)}, expected {self.source_rank}")
        for v in x:
            if not isinstance(v, int):
                raise TypeError(f"vector entries must be ints, got {v!r}")
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

    def is_injective(self) -> bool:
        """Injective iff every source coordinate feeds some target."""
        return len(set(self.parent)) == self.source_rank
