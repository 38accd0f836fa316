"""Equivalence of presented sequences up to rational scaling.

Forgetting multiplicities (they dissolve into diagonal rescalings over
the rationals) leaves only the shape of a sequence: level sizes and
parent functions.  What remains of the limit is its space of infinite
paths, and with a tail that space is finite or a Cantor set:

* a cyclic tail has constant rank, so the limit has at most that many
  paths;
* a substitution tail has rank 1 at its start p.  Once pruned, every
  level-L node restarts the block below the one node at p, so the limit
  is one path, or a Cantor set when level L keeps N >= 2 nodes.

So path counts decide every tailed pair.  Two finite limits of one size
are matched by a bijection between their stable levels, and two Cantor
limits by the restart cut (see Intertwining), which the verifier checks
in full from the tail starts alone.

The decider and both verifiers read each side's path space off its kept
counts: how many coordinates keep_at keeps at each presented level,
from the one memoized walk of parents in diagram.  The path count and
the stable level come from those counts, and the tail start is the
sequence's own, since pruning never moves it; no pruned sequence or map
is built.  The rescaling (the units pushed up level by level)
plays no part in the verdict, so a certificate carries none of it: only
the two sequences, their path counts, the closure and the levels it
names.  IndexSystem, the shape on its own, and the units, whose
reciprocals are the rescaling diagonals, are only what canonicalize_q
returns for `canon` to print; it refuses a level whose units are too
long to write as it forms that level (diagram._refuse_unwritable).
"""

from __future__ import annotations

from operator import mul

from .diagram import BratteliSequence, _keeps, _refuse_unwritable
from .errors import Frozen, _set
from .simplicial import NonMixingMap


class IndexSystem(Frozen):
    """The shape of a sequence: sizes and parent functions only.

    parents[i][j] names the level-(i+1) coordinate that level-(i+2)
    coordinate j descends from (everything 0-based).  A periodic tail
    means the same as for a full sequence.  This is what `canon` prints.
    The constructor checks the shape as a sequence of all-ones maps and
    unit; proj composes on that sequence.
    """

    __slots__ = ("sizes", "parents", "periodic_tail", "_seq")

    def __init__(self, sizes, parents, periodic_tail: int | None = None):
        sizes = tuple(sizes)
        parents = tuple(tuple(p) for p in parents)
        self._freeze(sizes, parents, periodic_tail, _ones(sizes, parents, periodic_tail))

    def proj(self, lo: int, hi: int) -> tuple:
        """Ancestor function from level hi coordinates down to level lo."""
        if self._seq is None:
            _set(self, "_seq", _ones(self.sizes, self.parents, self.periodic_tail))
        return self._seq.map_between(lo, hi).parent


def _ones(sizes: tuple, parents: tuple, periodic_tail) -> BratteliSequence:
    # the shape as a sequence whose multiplicities and unit are all ones
    maps = tuple(NonMixingMap(src, p, (1,) * len(p)) for src, p in zip(sizes, parents))
    return BratteliSequence(sizes, maps, (1,) * sizes[0], periodic_tail)


def canonicalize_q(seq: BratteliSequence):
    """Split a sequence into its shape and the rational rescaling.

    Conjugating level t by the diagonal with entries 1/u_t[i], u_t the
    base unit pushed up to level t, makes every connecting map a pure
    parent map and every unit the all-ones vector.  Returns (IndexSystem,
    units), where units[t-1] is u_t for each presented level, pushed up
    one level at a time; `canon` writes each diagonal entry from it as
    the text "1/u" (or "1"), and no Fraction is formed.  TooLarge stops
    the push at the first level with an entry too long to write.
    equivalent_q and its verifiers read the shape off the sequence
    itself and build neither.
    """
    # seq's shape, unchecked since seq is; proj builds its _seq when asked
    parents = tuple(a.parent for a in seq.maps)
    shape = IndexSystem._of(seq.ranks, parents, seq.periodic_tail, None)
    u = seq.base_unit
    units = [u]
    for a in seq.maps:
        # a.apply(u), without its checks: u is a unit of seq itself
        u = tuple(map(mul, a.mult, map(u.__getitem__, a.parent)))
        _refuse_unwritable(u, "diagonal entry")
        units.append(u)
    return shape, tuple(units)


class Cardinality(Frozen):
    """Path count of a limit: an exact number, infinite, or a lower bound."""

    __slots__ = ("kind", "count")

    def __init__(self, kind: str, count: int | None = None):
        if kind not in ("finite", "infinite", "lower_bound"):
            raise ValueError(f"bad cardinality kind {kind!r}")
        if (count is None) != (kind == "infinite"):
            raise ValueError("count goes with finite and lower_bound kinds only")
        self._freeze(kind, count)

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


def _path_space(seq: BratteliSequence):
    """(sizes, Cardinality of the path space), where sizes[t-1] is the
    number of level-t coordinates the limit sees, len(keep_at(seq, t)),
    at each presented level: the level sizes of the pruned sequence,
    which is not built.

    Without a tail only finitely many levels are known, so the path
    count of the presented part is just a lower bound.  With a tail the
    kept sizes never shrink, so the limit is finite exactly when one
    full period adds no size, and then the size has already stabilized.
    Multiplicities play no part: the walk reads only parents and the tail.
    """
    sizes = tuple(map(len, _keeps(seq)))
    if not seq.is_tailed:
        return sizes, Cardinality.lower_bound(sizes[-1])
    if sizes[seq.periodic_tail - 1] == sizes[-1]:
        return sizes, Cardinality.finite(sizes[-1])
    return sizes, Cardinality.infinite()


def _verdict(cardA: Cardinality, cardB: Cardinality) -> str:
    # the rule every pair is decided by: "unknown" when a side only bounds
    # its path count, "finiteness" for a finite against an infinite limit,
    # "cardinality" for finite limits of different sizes, else "equivalent"
    if "lower_bound" in (cardA.kind, cardB.kind):
        return "unknown"
    if cardA.kind != cardB.kind:
        return "finiteness"
    if cardA != cardB:
        return "cardinality"
    return "equivalent"


def _stable_level(sizes: tuple, count: int) -> int:
    # first level where the kept sizes reach their final value; from
    # there on every pruned parent function is a bijection
    return sizes.index(count) + 1


class Intertwining(Frozen):
    """How two pruned path spaces are matched, by closure kind.

    "stable-bijection" (two finite limits of size n): left_levels and
    right_levels each name one level at or past the level where its
    side's pruned size reaches n, and f_maps holds one bijection from
    the right level's coordinates onto the left level's.  From those
    levels on every parent function is a bijection, so the one map
    matches the two limits.

    "restart-cut" (two infinite limits): left_levels and right_levels
    name the two tail starts p, where each pruned side has one node,
    its root, and there are no maps.  Below the root sit N >= 2 nodes
    at level L, N the pruned size there, and each restarts the root.
    So cutting one root copy at its next restart turns it into N root
    copies, and a root can be cut into 1 + k(N - 1) copies for every
    k >= 1.  Cutting both roots into s = 1 + lcm(N_A - 1, N_B - 1)
    copies and matching them in order pairs roots with roots again;
    repeating the rule refines both sides without end and defines a
    homeomorphism of the two path spaces.  Every piece has the one type
    of the root, so the cut and the matching are canonical and the
    certificate needs nothing beyond the two levels.

    g_maps is empty for both closures; it keeps the document schema.
    """

    __slots__ = ("left_levels", "right_levels", "f_maps", "g_maps", "closure")


class EquivalenceCertificate(Frozen):
    """Everything needed to recheck an equivalence verdict from scratch:
    the two sequences, the path count of each, and how the two path
    spaces are matched.  The rescaling diagonals are left out; the
    verdict never reads them, and canonicalize_q recomputes them from
    either sequence."""

    __slots__ = ("left", "right", "left_cardinality", "right_cardinality", "intertwining")


class Equivalent(Frozen):
    __slots__ = ("certificate",)


class NotEquivalent(Frozen):
    __slots__ = ("left_cardinality", "right_cardinality", "reason")


class Unknown(Frozen):
    """An untailed side bounds its path count only from below; depth is
    the caller's, echoed and not used."""

    __slots__ = ("depth",)


def equivalent_q(left: BratteliSequence, right: BratteliSequence, depth: int = 5):
    """Decide equivalence up to rational scaling.

    Every tailed pair is decided, by path counts alone: finite limits of
    different sizes, or a finite against an infinite limit, are
    NotEquivalent with that witness; equal finite sizes and two infinite
    limits are Equivalent with a certificate.  An untailed side has only
    a lower bound on its path count, and the answer is Unknown.  depth
    does not affect the verdict; it is only echoed in Unknown.

    Each side's kept counts are read once.  Two finite limits of size n
    are matched by the identity between their stable levels, in pruned
    coordinates; two infinite limits by the restart cut at their tail
    starts.
    """
    sizesA, cardA = _path_space(left)
    sizesB, cardB = _path_space(right)
    verdict = _verdict(cardA, cardB)
    if verdict == "unknown":
        return Unknown(depth)
    if verdict != "equivalent":
        return NotEquivalent(cardA, cardB, verdict)
    if cardA.kind == "infinite":
        levels = (left.periodic_tail,), (right.periodic_tail,)
        tw = Intertwining(*levels, (), (), "restart-cut")
    else:
        n = cardA.count
        levels = (_stable_level(sizesA, n),), (_stable_level(sizesB, n),)
        tw = Intertwining(*levels, (tuple(range(n)),), (), "stable-bijection")
    return Equivalent(EquivalenceCertificate(left, right, cardA, cardB, tw))


def equivalence_certificate_failures(cert: EquivalenceCertificate) -> list:
    """Recheck every claim of an equivalence certificate; list failures.

    Nothing is trusted: the cardinalities, kept counts, stable levels
    and tail starts are recomputed from the two sequences embedded in
    the certificate.  Multiplicities and units are never read, so no
    rescaling is formed.
    """
    failures = []
    sizesA, cardA = _path_space(cert.left)
    sizesB, cardB = _path_space(cert.right)
    if cert.left_cardinality != cardA:
        failures.append(
            f"left cardinality recomputes to {cardA}, not {cert.left_cardinality}"
        )
    if cert.right_cardinality != cardB:
        failures.append(
            f"right cardinality recomputes to {cardB}, not {cert.right_cardinality}"
        )

    verdict = _verdict(cardA, cardB)
    if verdict != "equivalent":
        why = "differ" if verdict == "cardinality" else "cannot be equivalent"
        failures.append(f"cardinalities {cardA} and {cardB} {why}")
        return failures
    want_closure = "restart-cut" if cardA.kind == "infinite" else "stable-bijection"

    tw = cert.intertwining
    if tw.closure != want_closure:
        failures.append(f"closure is {tw.closure!r}, expected {want_closure!r}")
        return failures
    if len(tw.left_levels) != 1 or len(tw.right_levels) != 1 or tw.g_maps:
        failures.append(f"{tw.closure} names one level per side and no return maps")
        return failures
    (ka,), (lb,) = tw.left_levels, tw.right_levels

    if want_closure == "restart-cut":
        if tw.f_maps:
            failures.append("restart-cut takes no maps")
        for t, seq, side in ((ka, cert.left, "left"), (lb, cert.right, "right")):
            p = seq.periodic_tail
            if t != p:
                failures.append(f"{side} level {t} is not the tail start {p}")
        return failures

    # both sizes are n from the stable levels on, so onto means bijective
    n = cardA.count
    if len(tw.f_maps) != 1:
        failures.append(f"stable-bijection takes one map, got {len(tw.f_maps)}")
    elif ka < _stable_level(sizesA, n) or lb < _stable_level(sizesB, n):
        failures.append("zigzag ends before both sides stabilize")
    elif len(tw.f_maps[0]) != n:
        failures.append(f"f_1 has {len(tw.f_maps[0])} entries, expected {n}")
    elif any(not isinstance(v, int) or not 0 <= v < n for v in tw.f_maps[0]):
        failures.append(f"f_1 has entries outside range({n})")
    elif len(set(tw.f_maps[0])) != n:
        failures.append("f_1 is not surjective")
    return failures


def not_equivalent_failures(verdict: NotEquivalent, left, right) -> list:
    """Recheck a NotEquivalent verdict against its two sequences; list failures.

    Both cardinalities are recomputed, and the named witness must hold
    for them: finite limits of different sizes for "cardinality", a
    finite against an infinite limit for "finiteness".
    """
    _, cardA = _path_space(left)
    _, cardB = _path_space(right)
    failures = []
    if cardA != verdict.left_cardinality:
        failures.append(f"left cardinality recomputes to {cardA}")
    if cardB != verdict.right_cardinality:
        failures.append(f"right cardinality recomputes to {cardB}")
    if verdict.reason not in ("cardinality", "finiteness"):
        failures.append(f"unsupported reason {verdict.reason!r}")
    elif _verdict(cardA, cardB) != verdict.reason:
        failures.append(f"{verdict.reason} witness does not hold")
    return failures
