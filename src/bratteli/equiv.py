"""Equivalence of presented sequences up to rational scaling.

Forgetting multiplicities (they dissolve into diagonal rescalings over
the rationals) leaves only the shape of a sequence: level sizes and
parent functions.  What remains of the limit is its space of infinite
paths.  Cardinality separates inequivalent limits; two finite limits of
the same size are equivalent; and two infinite limits without isolated
paths are both Cantor sets, hence equivalent, with an explicit zigzag
of surjections serving as the checkable certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .diagram import BratteliSequence, injectivize
from .simplicial import NonMixingMap


@dataclass(frozen=True)
class IndexSystem:
    """The shape of a sequence: sizes and parent functions only.

    parents[i][j] names the level-(i+1) coordinate that level-(i+2)
    coordinate j descends from (everything 0-based).  A periodic tail
    means the same as for a full sequence.
    """

    sizes: tuple
    parents: tuple
    periodic_tail: int | None = None
    _seq: BratteliSequence = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(self.sizes)
        parents = tuple(tuple(p) for p in self.parents)
        maps = tuple(
            NonMixingMap(sizes[i], parents[i], (1,) * len(parents[i]))
            for i in range(len(parents))
        )
        seq = BratteliSequence(sizes, maps, (1,) * sizes[0], self.periodic_tail)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "_seq", seq)

    @classmethod
    def from_sequence(cls, seq: BratteliSequence) -> "IndexSystem":
        return cls(seq.ranks, tuple(a.parent for a in seq.maps), seq.periodic_tail)

    @property
    def length(self) -> int:
        return len(self.sizes)

    @property
    def is_tailed(self) -> bool:
        return self.periodic_tail is not None

    @property
    def tail_kind(self):
        return self._seq.tail_kind

    def has_level(self, t) -> bool:
        return self._seq.has_level(t)

    def size_at(self, t: int) -> int:
        return self._seq.rank_at(t)

    def sigma_at(self, t: int) -> tuple:
        """Parent function from level t+1 coordinates down to level t."""
        return self._seq.map_at(t).parent

    def proj(self, lo: int, hi: int) -> tuple:
        """Ancestor function from level hi coordinates down to level lo."""
        return self._seq.map_between(lo, hi).parent


def canonicalize_q(seq: BratteliSequence):
    """Split a sequence into its shape and the rational rescaling.

    Conjugating level t by the diagonal with entries 1/u_t[i] makes
    every connecting map a pure parent map and every unit the all-ones
    vector.  Returns (IndexSystem, diagonals), where diagonals[t-1] is
    that conjugating tuple of Fractions for each presented level.  The
    units u_t are pushed up one level at a time from the base unit.
    """
    u = seq.base_unit
    diagonals = [tuple(Fraction(1, v) for v in u)]
    for a in seq.maps:
        u = a.apply(u)
        diagonals.append(tuple(Fraction(1, v) for v in u))
    return IndexSystem.from_sequence(seq), tuple(diagonals)


def surjectivize(sys: IndexSystem):
    """Prune coordinates with no deep descendants.

    Afterwards every parent function is onto.  Returns the pruned system
    and, per level, the ascending tuple of surviving old coordinates.
    """
    pruned, inclusions = injectivize(sys._seq)
    return IndexSystem.from_sequence(pruned), inclusions


@dataclass(frozen=True)
class Cardinality:
    """Path count of a limit: an exact number, infinite, or a lower bound."""

    kind: str
    count: int | None = None

    def __post_init__(self):
        if self.kind not in ("finite", "infinite", "lower_bound"):
            raise ValueError(f"bad cardinality kind {self.kind!r}")
        if (self.count is None) != (self.kind == "infinite"):
            raise ValueError("count goes with finite and lower_bound kinds only")

    @classmethod
    def finite(cls, count: int) -> "Cardinality":
        return cls("finite", count)

    @classmethod
    def infinite(cls) -> "Cardinality":
        return cls("infinite", None)

    @classmethod
    def lower_bound(cls, count: int) -> "Cardinality":
        return cls("lower_bound", count)

    def __str__(self):
        if self.kind == "finite":
            return str(self.count)
        if self.kind == "infinite":
            return "infinite"
        return f">={self.count}"


def limit_cardinality(sys: IndexSystem) -> Cardinality:
    """How many infinite paths the pruned diagram carries.

    Without a tail only finitely many levels are known, so the path
    count of the presented part is just a lower bound.  With a tail the
    pruned sizes never shrink, so the limit is finite exactly when one
    full period adds no size, and then the size has already stabilized.
    """
    pruned, _ = surjectivize(sys)
    if not pruned.is_tailed:
        return Cardinality.lower_bound(pruned.sizes[-1])
    if pruned.size_at(pruned.periodic_tail) == pruned.size_at(pruned.length):
        return Cardinality.finite(pruned.size_at(pruned.length))
    return Cardinality.infinite()


def limit_is_perfect(sys: IndexSystem):
    """Whether the path space has no isolated point; None without a tail."""
    if not sys.is_tailed:
        return None
    return not sys._seq._single_chain_positions()


def _stable_level(pruned: IndexSystem, count: int) -> int:
    # first level where the pruned sizes reach their final value; from
    # there on every parent function is a bijection
    for t in range(1, pruned.length + 1):
        if pruned.size_at(t) == count:
            return t
    raise AssertionError("finite cardinality without a stable level")


@dataclass(frozen=True)
class Intertwining:
    """A zigzag of surjections between the pruned coordinate systems.

    f_maps[t] sends right-side coordinates at right_levels[t] to
    left-side coordinates at left_levels[t]; g_maps[t] sends left-side
    coordinates at left_levels[t+1] back to right-side coordinates at
    right_levels[t].  Every triangle composes to the ancestor function
    of its side.  closure says how the zigzag certifies the limits
    match: "stable-bijection" ends in a bijection past both stable
    levels, "perfect" relies on both limits being perfect.
    """

    left_levels: tuple
    right_levels: tuple
    f_maps: tuple
    g_maps: tuple
    closure: str


# Largest level, in coordinates, the zigzag may build on: a pair whose
# zigzag needs more comes back None (an Unknown verdict) instead of
# allocating without bound.
_SIZE_CAP = 50_000


def _inverse_lists(f, n_targets):
    inv = [[] for _ in range(n_targets)]
    for x, a in enumerate(f):
        inv[a].append(x)
    return [tuple(v) for v in inv]


def _deal(proj, fibers):
    """Deal the coordinates over each node onto the node's fiber.

    proj[x] is the node coordinate x lies over and fibers[a] the
    ascending points node a must cover.  The i-th coordinate over a, in
    index order, goes to fibers[a][i mod |fibers[a]|].  That is onto
    exactly when every node has at least |fibers[a]| coordinates over
    it; otherwise returns None.
    """
    dealt = [0] * len(fibers)
    out = []
    for a in proj:
        fiber = fibers[a]
        out.append(fiber[dealt[a] % len(fiber)])
        dealt[a] += 1
    if any(n < len(fiber) for n, fiber in zip(dealt, fibers)):
        return None
    return tuple(out)


def _candidate_levels(sys, level_cap):
    out = []
    for t in range(1, level_cap + 1):
        if not sys.has_level(t):
            break
        if sys.size_at(t) <= _SIZE_CAP:
            out.append(t)
    return out


def _level_cap(sys, depth):
    # The window must be generous: when the other side grows faster,
    # this side needs many extra levels before its per-node descendant
    # counts catch up with the fiber sizes forced on it, so the size
    # cap is what really limits a fast-growing side and the level cap
    # is only a sanity bound on slow-growing tails.
    if not sys.is_tailed:
        return sys.length
    period = max(1, sys.length - sys.periodic_tail)
    return sys.length + 8 * (depth + 2) * period


def _perfect_zigzag(sysA, sysB, depth):
    # Levels come in the order k_1, l_1, k_2, l_2, ...  Each is the first
    # candidate above its side's last level where every node of that
    # last level has as many descendants as the newest map has points
    # over it; the next map deals those descendants onto the points.
    # Before k_1 a single point stands for the right side, so k_1 is the
    # first candidate and f_1 deals level l_1 round-robin onto level k_1.
    sides = [
        (sysX, _candidate_levels(sysX, _level_cap(sysX, depth)), [])
        for sysX in (sysA, sysB)
    ]
    fibers = [(0,)]
    maps = []
    for step in range(2 * max(depth, 1)):
        sysX, candidates, levels = sides[step % 2]
        prev = levels[-1] if levels else 0
        for t in candidates:
            if t <= prev:
                continue
            proj = sysX.proj(prev, t) if prev else (0,) * sysX.size_at(t)
            m = _deal(proj, fibers)
            if m is not None:
                break
        else:
            return None
        levels.append(t)
        maps.append(m)
        fibers = _inverse_lists(m, sum(len(fiber) for fiber in fibers))
    left, right = (tuple(levels) for _, _, levels in sides)
    return Intertwining(left, right, tuple(maps[1::2]), tuple(maps[2::2]), "perfect")


def find_intertwining(sysA: IndexSystem, sysB: IndexSystem, depth: int = 5):
    """Build a zigzag of surjections between two systems.

    Both systems are pruned first; the returned maps use the pruned
    coordinates.  Two finite limits of equal size n close with the
    identity between the two stable levels.  Otherwise the zigzag gets
    `depth` forward maps, built one level at a time with no search:
    each new level is the first one deep enough for its nodes to cover
    the fibers of the last map, and its coordinates are dealt
    round-robin onto those fibers.  For two perfect limits such a level always
    exists.  Returns None if the finite sizes differ, or if a level
    the zigzag needs has more than 50 000 coordinates or lies past
    the level window.
    """
    prunedA, _ = surjectivize(sysA)
    prunedB, _ = surjectivize(sysB)
    cardA = limit_cardinality(sysA)
    cardB = limit_cardinality(sysB)
    if cardA.kind == "finite" and cardB.kind == "finite":
        n = cardA.count
        if n != cardB.count or n > _SIZE_CAP:
            return None
        return Intertwining(
            (_stable_level(prunedA, n),),
            (_stable_level(prunedB, n),),
            (tuple(range(n)),),
            (),
            "stable-bijection",
        )
    return _perfect_zigzag(prunedA, prunedB, depth)


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Everything needed to recheck an equivalence verdict from scratch."""

    left: BratteliSequence
    right: BratteliSequence
    left_diagonals: tuple
    right_diagonals: tuple
    left_cardinality: Cardinality
    right_cardinality: Cardinality
    intertwining: Intertwining


@dataclass(frozen=True)
class Equivalent:
    certificate: EquivalenceCertificate


@dataclass(frozen=True)
class NotEquivalent:
    left_cardinality: Cardinality
    right_cardinality: Cardinality
    reason: str


@dataclass(frozen=True)
class Unknown:
    depth: int


EquivVerdict = Equivalent | NotEquivalent | Unknown


def equivalent_q(left: BratteliSequence, right: BratteliSequence, depth: int = 5):
    """Decide equivalence up to rational scaling, as far as honesty allows.

    NotEquivalent is only reported on one of the two sound witnesses:
    finite limits of different sizes, or a finite against an infinite
    limit.  Equivalent always comes with a certificate.  Everything
    else, in particular any untailed presentation (whose cardinality is
    only a lower bound) and any infinite limit with an isolated path,
    comes back Unknown.
    """
    sysA, diagA = canonicalize_q(left)
    sysB, diagB = canonicalize_q(right)
    cardA = limit_cardinality(sysA)
    cardB = limit_cardinality(sysB)

    kinds = (cardA.kind, cardB.kind)
    if kinds == ("finite", "finite"):
        if cardA.count != cardB.count:
            return NotEquivalent(cardA, cardB, "cardinality")
    elif kinds in (("finite", "infinite"), ("infinite", "finite")):
        return NotEquivalent(cardA, cardB, "finiteness")
    elif kinds == ("infinite", "infinite"):
        if not (limit_is_perfect(sysA) and limit_is_perfect(sysB)):
            return Unknown(depth)
    else:
        return Unknown(depth)

    tw = find_intertwining(sysA, sysB, depth)
    if tw is None:
        return Unknown(depth)
    cert = EquivalenceCertificate(left, right, diagA, diagB, cardA, cardB, tw)
    return Equivalent(cert)


def equivalence_certificate_failures(cert: EquivalenceCertificate) -> list:
    """Recheck every claim of an equivalence certificate; list failures.

    Nothing is trusted: the canonical forms, cardinalities, prunings,
    stable levels, and every triangle of the zigzag are recomputed from
    the two sequences embedded in the certificate.
    """
    failures = []
    sysA, diagA = canonicalize_q(cert.left)
    sysB, diagB = canonicalize_q(cert.right)
    if tuple(cert.left_diagonals) != diagA:
        failures.append("left diagonals do not match the left sequence")
    if tuple(cert.right_diagonals) != diagB:
        failures.append("right diagonals do not match the right sequence")
    cardA = limit_cardinality(sysA)
    cardB = limit_cardinality(sysB)
    if cert.left_cardinality != cardA:
        failures.append(
            f"left cardinality recomputes to {cardA}, not {cert.left_cardinality}"
        )
    if cert.right_cardinality != cardB:
        failures.append(
            f"right cardinality recomputes to {cardB}, not {cert.right_cardinality}"
        )

    kinds = (cardA.kind, cardB.kind)
    if kinds == ("finite", "finite"):
        mode = "finite"
        if cardA.count != cardB.count:
            failures.append(f"cardinalities {cardA} and {cardB} differ")
            return failures
    elif kinds == ("infinite", "infinite"):
        mode = "perfect"
        if not (limit_is_perfect(sysA) and limit_is_perfect(sysB)):
            failures.append("an infinite limit has an isolated path")
            return failures
    else:
        failures.append(f"cardinalities {cardA} and {cardB} cannot be equivalent")
        return failures

    tw = cert.intertwining
    want_closure = "stable-bijection" if mode == "finite" else "perfect"
    if tw.closure != want_closure:
        failures.append(f"closure is {tw.closure!r}, expected {want_closure!r}")

    T = len(tw.f_maps)
    if T < 1:
        failures.append("intertwining has no maps")
        return failures
    if len(tw.left_levels) != T or len(tw.right_levels) != T:
        failures.append("level lists do not match the number of maps")
        return failures
    if len(tw.g_maps) != T - 1:
        failures.append(f"{T} forward maps need {T - 1} return maps")
        return failures
    for levels, sysX, side in (
        (tw.left_levels, sysA, "left"),
        (tw.right_levels, sysB, "right"),
    ):
        for a, b in zip(levels, levels[1:]):
            if b <= a:
                failures.append(f"{side} levels are not strictly increasing")
                return failures
        for t in levels:
            if not sysX.has_level(t):
                failures.append(f"{side} level {t} is not available")
                return failures

    prunedA, _ = surjectivize(sysA)
    prunedB, _ = surjectivize(sysB)

    def check_map(f, n_from, n_to, what):
        if len(f) != n_from:
            failures.append(f"{what} has {len(f)} entries, expected {n_from}")
            return False
        if any(not isinstance(v, int) or not 0 <= v < n_to for v in f):
            failures.append(f"{what} has entries outside range({n_to})")
            return False
        if len(set(f)) != n_to:
            failures.append(f"{what} is not surjective")
            return False
        return True

    ok = True
    for t in range(T):
        ka, lb = tw.left_levels[t], tw.right_levels[t]
        ok &= check_map(
            tw.f_maps[t],
            prunedB.size_at(lb),
            prunedA.size_at(ka),
            f"f_{t + 1}",
        )
        if t + 1 < T:
            ok &= check_map(
                tw.g_maps[t],
                prunedA.size_at(tw.left_levels[t + 1]),
                prunedB.size_at(lb),
                f"g_{t + 1}",
            )
    if not ok:
        return failures

    for t in range(T - 1):
        ka, ka2 = tw.left_levels[t], tw.left_levels[t + 1]
        lb, lb2 = tw.right_levels[t], tw.right_levels[t + 1]
        projA = prunedA.proj(ka, ka2)
        for x in range(prunedA.size_at(ka2)):
            if tw.f_maps[t][tw.g_maps[t][x]] != projA[x]:
                failures.append(
                    f"triangle f_{t + 1} . g_{t + 1} breaks at left coordinate {x}"
                )
                break
        projB = prunedB.proj(lb, lb2)
        for y in range(prunedB.size_at(lb2)):
            if tw.g_maps[t][tw.f_maps[t + 1][y]] != projB[y]:
                failures.append(
                    f"triangle g_{t + 1} . f_{t + 2} breaks at right coordinate {y}"
                )
                break

    if mode == "finite":
        stableA = _stable_level(prunedA, cardA.count)
        stableB = _stable_level(prunedB, cardB.count)
        last_f = tw.f_maps[-1]
        if tw.left_levels[-1] < stableA or tw.right_levels[-1] < stableB:
            failures.append("zigzag ends before both sides stabilize")
        elif len(set(last_f)) != len(last_f):
            failures.append("final map is not a bijection")
    return failures


def not_equivalent_failures(verdict: NotEquivalent, left, right) -> list:
    """Recheck a NotEquivalent verdict against its two sequences; list failures.

    Both cardinalities are recomputed, and the named witness must hold
    for them: finite limits of different sizes for "cardinality", a
    finite against an infinite limit for "finiteness".
    """
    sysA, _ = canonicalize_q(left)
    sysB, _ = canonicalize_q(right)
    cardA = limit_cardinality(sysA)
    cardB = limit_cardinality(sysB)
    failures = []
    if cardA != verdict.left_cardinality:
        failures.append(f"left cardinality recomputes to {cardA}")
    if cardB != verdict.right_cardinality:
        failures.append(f"right cardinality recomputes to {cardB}")
    kinds = (cardA.kind, cardB.kind)
    if verdict.reason == "cardinality":
        if not (kinds == ("finite", "finite") and cardA.count != cardB.count):
            failures.append("cardinality witness does not hold")
    elif verdict.reason == "finiteness":
        if kinds not in (("finite", "infinite"), ("infinite", "finite")):
            failures.append("finiteness witness does not hold")
    else:
        failures.append(f"unsupported reason {verdict.reason!r}")
    return failures


def verify_equivalence_certificate(cert: EquivalenceCertificate) -> bool:
    return not equivalence_certificate_failures(cert)
