"""Expected outputs computed from the generated presentation data alone.

Nothing here calls into the package under test.  A presentation is the
plain data the generators produced: ranks, per-map parent and
multiplicity tuples, the base unit and the tail start.  Levels past the
presented ones are unrolled by the rules the diagram format documents:
a cyclic tail repeats the maps from the tail start on, a self-similar
tail restarts the block below every last-level node.
"""

from __future__ import annotations

from fractions import Fraction


class Presentation:
    def __init__(self, ranks, maps, unit, tail=None):
        self.ranks = tuple(ranks)
        self.maps = tuple((tuple(p), tuple(m)) for p, m in maps)
        self.unit = tuple(unit)
        self.tail = tail
        self._classes = {}

    @classmethod
    def of(cls, seq):
        """Copy the data fields of a generated sequence object."""
        return cls(
            seq.ranks,
            [(a.parent, a.mult) for a in seq.maps],
            seq.base_unit,
            seq.periodic_tail,
        )

    @property
    def length(self):
        return len(self.ranks)

    @property
    def cyclic(self):
        return self.tail is not None and self.ranks[self.tail - 1] == self.ranks[-1]

    def has_level(self, t):
        return 1 <= t and (self.tail is not None or t <= self.length)

    def _block(self, t):
        p = self.tail
        return p + (t - p) % (self.length - p)

    def _level_classes(self, t):
        # block coordinate played by each level-t node, t >= length
        L = self.length
        top = max(self._classes, default=L)
        if L not in self._classes:
            self._classes[L] = (0,) * self.ranks[-1]
        while top < t:
            b = self._block(top)
            parent = self.maps[b - 1][0]
            restart = b + 1 == L
            kids = [[] for _ in range(self.ranks[b - 1])]
            for j, i in enumerate(parent):
                kids[i].append(j)
            self._classes[top + 1] = tuple(
                0 if restart else c2 for c in self._classes[top] for c2 in kids[c]
            )
            top += 1
        return self._classes[t]

    def map_at(self, t):
        """(parent, mult) of the map from level t to level t + 1."""
        if t < self.length:
            return self.maps[t - 1]
        b = self._block(t)
        if self.cyclic:
            return self.maps[b - 1]
        parent_b, mult_b = self.maps[b - 1]
        kids = [[] for _ in range(self.ranks[b - 1])]
        for j, i in enumerate(parent_b):
            kids[i].append(j)
        parent, mult = [], []
        for j, c in enumerate(self._level_classes(t)):
            for c2 in kids[c]:
                parent.append(j)
                mult.append(mult_b[c2])
        return tuple(parent), tuple(mult)

    def rank_at(self, t):
        if t <= self.length:
            return self.ranks[t - 1]
        return len(self.map_at(t - 1)[0])

    def units(self, upto):
        """Unit images at levels 1..upto, pushed one level at a time."""
        out = [self.unit]
        for t in range(1, upto):
            parent, mult = self.map_at(t)
            u = out[-1]
            out.append(tuple(k * u[i] for i, k in zip(parent, mult)))
        return out

    def composite(self, lo, hi):
        """(parent, mult) of the composite map from level lo to level hi."""
        n = self.rank_at(lo)
        parent, mult = tuple(range(n)), (1,) * n
        for t in range(lo, hi):
            p, m = self.map_at(t)
            parent, mult = (
                tuple(parent[i] for i in p),
                tuple(k * mult[i] for i, k in zip(p, m)),
            )
        return parent, mult

    def keep_untailed(self, t):
        """Level-t coordinates with a descendant at the last level."""
        return sorted(set(self.composite(t, self.length)[0]))


def serialized(ranks, maps, unit):
    """Diagram lines the format writes for this data, repeat line left out."""
    lines = ["bratteli v1", "sizes: " + " ".join(map(str, ranks))]
    lines.append("unit: " + " ".join(map(str, unit)))
    for i, (parent, mult) in enumerate(maps, start=1):
        cells = " ".join(f"{p + 1}*{k}" for p, k in zip(parent, mult))
        lines.append(f"map {i}: {cells}")
    return lines


def diagram_lines(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith(("#", "repeat:"))]


def validate_lines(pres):
    tail = "none"
    if pres.tail is not None:
        kind = "cyclic" if pres.cyclic else "substitution"
        tail = f"{kind} from level {pres.tail}"
    injective = all(
        len(set(parent)) == src for (parent, _), src in zip(pres.maps, pres.ranks)
    )
    return [
        f"levels: {pres.length}",
        "ranks: " + " ".join(map(str, pres.ranks)),
        f"tail: {tail}",
        f"injective: {'yes' if injective else 'no'}",
    ]


def state_lines(pres, level, depth):
    """Extreme states of `depth` pulled back to `level`.

    The vertex e_j / v_j of level `depth` pulls back to e_i / u_i with i
    the level-`level` ancestor of j, because v_j is a positive multiple
    of u_i along the single path from i to j.
    """
    u = pres.units(level)[-1]
    ancestors, _ = pres.composite(level, depth)
    out = []
    for i in ancestors:
        values = [Fraction(0)] * len(u)
        values[i] = Fraction(1, u[i])
        out.append(" ".join(str(v) for v in values))
    return out


def canon_diagonals(pres):
    return [[str(Fraction(1, v)) for v in u] for u in pres.units(pres.length)]


def telescope_lines(pres, keep):
    maps = [pres.composite(a, b) for a, b in zip(keep, keep[1:])]
    return serialized([pres.rank_at(t) for t in keep], maps, pres.unit)


def associated_sequence(factors, length):
    """n_1 | n_2 | ... for a supernatural number given as (prime, exponent)
    pairs sorted by prime, exponent None meaning infinite."""
    out = []
    for i in range(1, length + 1):
        n = 1
        for p, e in factors[:i]:
            n *= p ** (i if e is None else min(i, e))
        out.append(n)
    return out


def tensorq_lines(pres, factors, depth):
    ns = associated_sequence(factors, depth)
    maps = []
    for i in range(1, depth):
        parent, mult = pres.map_at(i)
        k = ns[i] // ns[i - 1]
        maps.append((parent, tuple(m * k for m in mult)))
    unit = tuple(ns[0] * v for v in pres.unit)
    return serialized([pres.rank_at(t) for t in range(1, depth + 1)], maps, unit)


def tensor_lines(a, b, length):
    """Levelwise Kronecker product over `length` levels, row-major pairs."""
    maps = []
    for t in range(1, length):
        (pa, ma), (pb, mb) = a.map_at(t), b.map_at(t)
        src_b = b.rank_at(t)
        maps.append(
            (
                tuple(i * src_b + k for i in pa for k in pb),
                tuple(x * y for x in ma for y in mb),
            )
        )
    unit = tuple(x * y for x in a.unit for y in b.unit)
    ranks = [a.rank_at(t) * b.rank_at(t) for t in range(1, length + 1)]
    return serialized(ranks, maps, unit)
