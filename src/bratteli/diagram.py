"""Bratteli sequences of simplicial groups with non-mixing connecting maps.

A sequence presents finitely many levels 1..L.  An optional periodic
tail (a level p < L) declares that the diagram continues forever past
level L, in one of two ways:

* cyclic, when rank_L == rank_p: the maps from level p on repeat
  literally, so rank and map at level t >= p depend only on
  (t - p) mod (L - p);
* self-similar, when rank_p == 1: every level-L node restarts the block
  below itself, so the level sizes grow by a factor of rank_L each
  period.  This is how infinite trees (full binary, full ternary) are
  presented with finite data.

The two readings agree when rank_p == rank_L == 1.

Every node has one parent, so the block p..L describes the whole tail
and both kinds unroll by one closed form.  For t >= L let b be the
block level p + (t - p) % (L - p) and k = (t - p) // (L - p): level t
lists copies(t) = (rank_L // rank_p) ** k copies of level b side by
side, node n being place n % rank_b of copy n // rank_b.  Each copy
lists level b in one fixed order: the presented one on a cyclic tail,
the root's kids expanded level by level on a self-similar one.  The
map out of level t is the block map, relabelled once into those
orders, repeated once per copy, and the kept coordinates are the kept
places of level b, once per copy.  Only the block and the kept places
are memoized; nothing is kept per unrolled level.

Composites and ancestors follow the same form.  On a cyclic tail every
period composes to the same map, so whole periods are that map raised
to a power by repeated squaring.  On a self-similar tail node n of an
unrolled level t descends from node n // rank_b of its period's start
level, and a period start's node m from node m // rank_L of the one
before, so the ancestors of a deep level at a shallow one come in
contiguous runs that ancestor_runs gives without listing level t.
The listing budget is one check, _check_listing, run on the levels a
caller will list before any is built.  It refuses a level of more than
_COORD_BUDGET coordinates and, for a command, more than _COORD_BUDGET
levels or _LIST_BUDGET coordinates together.  Every other check, of one
level (level t+1 for map_at(t)) or of a walk's span, is one rule,
_check_span, run once on entry: it counts only the levels a self-similar
tail unrolls past L, the only ones that outgrow a presented level.
Walks then read each map by _map, unchecked.

The units u_t and the units `states` writes are pushed up by _push,
which composes the maps onto them as above; a limit comparison cuts its
composite at one past its largest |entry| (_pushed_pair).  A number too
long to write is refused by one rule, _refuse_unwritable: it reaches
the least number str() refuses (_write_cut).  telescope and exact
`states` compose through _written, every product cut there.  One bound
pass, _bound, multiplies each map's smallest or largest multiplicity,
whole periods in closed form: a span whose smallest ones multiply to
the cut is refused before it is composed, and one whose largest ones
stay below it is composed without the cut.  A product of positive
integers never shrinks, so every number below the cut is exact.
`states --decimal` cuts at 2**1075 instead.

keep_at lists the coordinates the limit sees.  Each coordinate has one
parent, so they are found by one memoized walk of parents down to
level 1, from all of level L without a tail.  On the block, level-L
coordinate c restarts it at coordinate c % rank_p of level p, so with a
tail the walk from L to p is taken again from the set it found at p
until that set stops shrinking (at once on a self-similar tail, whose
single root always survives), and then goes on down from p.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import cycle, islice
from math import lcm

from .errors import (
    BadRepeat,
    Frozen,
    LevelOutOfRange,
    NonAscending,
    NotOrderUnit,
    RankMismatch,
    TooLarge,
)
from .simplicial import NonMixingMap, forall_n_leq, is_order_unit

# the most coordinates one listed level may have, and the most levels
# a command may list
_COORD_BUDGET = 2**20

# the most coordinates a command may list over all its levels together;
# four times the budget above, so the deepest listing of the binary tree
# that budget admits, levels 1..21, still runs
_LIST_BUDGET = 4 * _COORD_BUDGET


class BratteliSequence(Frozen):
    """Levels 1..L with maps level t -> t+1 and an order unit at level 1."""

    __slots__ = ("ranks", "maps", "base_unit", "periodic_tail", "_cache")

    def __init__(self, ranks, maps, base_unit, periodic_tail: int | None = None):
        ranks = tuple(ranks)
        maps = tuple(maps)
        base_unit = tuple(base_unit)
        if not ranks:
            raise RankMismatch("need at least one level")
        for r in ranks:
            if not isinstance(r, int) or r < 1:
                raise RankMismatch(f"ranks must be positive ints, got {r!r}")
        if len(maps) != len(ranks) - 1:
            raise RankMismatch(
                f"{len(ranks)} levels need {len(ranks) - 1} maps, got {len(maps)}"
            )
        for t, a in enumerate(maps, start=1):
            if not isinstance(a, NonMixingMap):
                raise TypeError(f"map {t} is not a NonMixingMap")
            if a.source_rank != ranks[t - 1] or a.target_rank != ranks[t]:
                raise RankMismatch(
                    f"map {t} goes {a.source_rank}->{a.target_rank} but the "
                    f"ranks there are {ranks[t - 1]} and {ranks[t]}"
                )
        if len(base_unit) != ranks[0]:
            raise RankMismatch(
                f"unit has length {len(base_unit)}, level 1 has rank {ranks[0]}"
            )
        if not is_order_unit(base_unit):
            raise NotOrderUnit(f"{base_unit} is not strictly positive")
        p = periodic_tail
        if p is not None:
            if not isinstance(p, int) or not 1 <= p < len(ranks):
                raise BadRepeat(
                    f"tail start must be a level in 1..{len(ranks) - 1}, got {p!r}"
                )
            if ranks[p - 1] != ranks[-1] and ranks[p - 1] != 1:
                raise BadRepeat(
                    f"tail from level {p} needs rank {ranks[-1]} there (cyclic) "
                    f"or rank 1 (self-similar), got {ranks[p - 1]}"
                )
        self._freeze(ranks, maps, base_unit, p, {})

    @property
    def length(self) -> int:
        return len(self.ranks)

    @property
    def is_tailed(self) -> bool:
        return self.periodic_tail is not None

    @property
    def tail_kind(self):
        """None, "cyclic", or "substitution"."""
        if self.periodic_tail is None:
            return None
        if self.ranks[self.periodic_tail - 1] == self.ranks[-1]:
            return "cyclic"
        return "substitution"

    def has_level(self, t) -> bool:
        return isinstance(t, int) and t >= 1 and (self.is_tailed or t <= self.length)

    def _require_level(self, t):
        if not self.has_level(t):
            raise LevelOutOfRange(
                f"level {t!r} not available (presented 1..{self.length}"
                + (", with tail)" if self.is_tailed else ", no tail)")
            )

    def _memo(self, key, build):
        try:
            return self._cache[key]
        except KeyError:
            value = build()
            self._cache[key] = value
            return value

    def _block_position(self, t: int) -> int:
        # for t >= periodic_tail: the presented level in [p, L-1] that
        # plays the role of level t in the repeating block
        p = self.periodic_tail
        return p + (t - p) % (self.length - p)

    def _copies(self, t: int) -> int:
        # how many copies of its block level an unrolled level t lists
        p = self.periodic_tail
        return (self.ranks[-1] // self.ranks[p - 1]) ** ((t - p) // (self.length - p))

    def _block(self) -> tuple:
        # (orders, maps): orders[b - p] lists block level b, p <= b <= L,
        # in the order every unrolled copy of it follows, and maps[b - p]
        # is maps[b - 1] relabelled into those orders
        def build():
            p = self.periodic_tail
            orders = [tuple(range(r)) for r in self.ranks[p - 1 :]]
            if self.tail_kind == "cyclic":
                return tuple(orders), self.maps[p - 1 :]
            # the root's kids expanded level by level: by the parent's
            # place, and in presented order under one parent
            maps = []
            for i, a in enumerate(self.maps[p - 1 :]):
                place = {c: k for k, c in enumerate(orders[i])}
                order = sorted(orders[i + 1], key=lambda j: place[a.parent[j]])
                orders[i + 1] = tuple(order)
                maps.append(
                    NonMixingMap(
                        a.source_rank,
                        tuple(place[a.parent[j]] for j in order),
                        tuple(a.mult[j] for j in order),
                    )
                )
            return tuple(orders), tuple(maps)

        return self._memo(("block",), build)

    def _repeat(self, t: int, block: tuple) -> tuple:
        # block, places in the block level of t, once per copy level t
        # lists, shifted to that copy's coordinates
        copies = self._copies(t)
        if copies == 1:
            return block
        width = self.ranks[self._block_position(t) - 1]
        return tuple(s + i for s in range(0, copies * width, width) for i in block)

    def _check_span(self, lo: int, hi: int, listed: bool = True):
        # levels lo..hi exist, and the ones that will be listed, lo..hi
        # or lo..hi-1 when level hi is not, are held to the budget
        self._require_level(lo)
        self._require_level(hi)
        if lo > hi:
            raise LevelOutOfRange(f"need lo <= hi, got {lo} > {hi}")
        # only a self-similar tail's levels past L outgrow the presented ones
        if self.tail_kind == "substitution":
            _check_listing((self,), range(max(lo, self.length + 1), hi + listed))

    def _compose(self, x, lo: int, hi: int, cap: int | None = None) -> tuple:
        # (parent, mult): x, a vector at level lo or None, followed by the
        # maps of levels lo..hi-1; mult None is carried as None.  With cap
        # each product stops growing at cap, so a composite mult is exact
        # below cap and cap from there on; a span whose largest entries
        # multiply to less than cap (_bound) cuts nothing and drops it
        if cap is not None and x is not None:
            cap = None if max(x) * self._bound(lo, hi, cap, max) < cap else cap
        return self._steps((range(self.rank_at(lo)), x), lo, hi, cap)

    def _steps(self, f: tuple, lo: int, hi: int, cap: int | None) -> tuple:
        # _compose on a (parent, mult) pair f ending at level lo (_then).
        # On a cyclic tail the maps from any level s >= p on repeat every
        # period, so the whole periods from max(lo, p) are one period's
        # composite raised to a power, by repeated squaring
        if self.tail_kind == "cyclic":
            p, period = self.periodic_tail, self.length - self.periodic_tail
            start = max(lo, p)
            k = (hi - start) // period
            if k > 1:
                f = self._steps(f, lo, start, cap)
                one = None if f[1] is None else (1,) * self.rank_at(start)
                power = self._compose(one, start, start + period, cap)
                f = _repeated(f, power, k, lambda a, b: _then(a, b, cap))
                lo = hi - (hi - start) % period
        for t in range(lo, hi):
            a = self._map(t)
            f = _then(f, (a.parent, a.mult), cap)
        return f

    def _bound(self, lo: int, hi: int, cap: int, end) -> int:
        # with end min (max), a lower (upper) bound on every multiplicity
        # of the composite from level lo to level hi: the product of each
        # map's end multiplicity, cut down to cap, read once per presented
        # map, since _map(t) relabels and repeats one.  They repeat every
        # period from the tail start, of either kind, so whole periods
        # are one period's product raised to a power (_repeated)
        bound, t = 1, lo
        if self.is_tailed:
            p, period = self.periodic_tail, self.length - self.periodic_tail
            start = max(lo, p)
            k = (hi - start) // period
            if k > 1:
                bound = self._bound(lo, start, cap, end)
                power = self._bound(start, start + period, cap, end)
                bound = _repeated(bound, power, k, lambda a, b: min(a * b, cap))
                t = hi - (hi - start) % period
        for t in range(t, hi):
            if bound >= cap:
                break
            b = t if t < self.length else self._block_position(t)
            m = self._memo((end, b), lambda: end(self.maps[b - 1].mult))
            bound = min(bound * m, cap)
        return bound

    def _push(self, x, lo: int, hi: int, cap: int | None = None):
        # x, a vector at level lo, pushed up to level hi along parents;
        # with cap, each entry is cut down to cap
        self._check_span(lo, hi)
        return self._compose(x, lo, hi, cap)[1]

    def _written(self, x, lo: int, hi: int, what: str) -> tuple:
        # (parent, mult): x pushed up as _push does, cut at _write_cut().
        # Every entry is at least min(x) times _bound(..., min), so when
        # that reaches the cut every entry does: `what` is refused at once
        self._check_span(lo, hi)
        cut = _write_cut()
        if cut is not None:
            _refuse_unwritable((min(x) * self._bound(lo, hi, cut, min),), what)
        return self._compose(x, lo, hi, cut)

    # -- levels, maps, units ---------------------------------------------

    def rank_at(self, t: int) -> int:
        if isinstance(t, int) and 0 < t <= len(self.ranks):
            return self.ranks[t - 1]
        self._require_level(t)
        return self._copies(t) * self.ranks[self._block_position(t) - 1]

    def map_at(self, t: int) -> NonMixingMap:
        """The map from level t to level t+1."""
        if not isinstance(t, int) or t < 1:
            raise LevelOutOfRange(f"level {t!r} not available")
        self._check_span(t + 1, t + 1)
        return self._map(t)

    def _map(self, t: int) -> NonMixingMap:
        # map_at(t) past its check, for the walks whose span is checked
        if t < self.length:
            return self.maps[t - 1]
        a = self._block()[1][self._block_position(t) - self.periodic_tail]
        parent = self._repeat(t, a.parent)
        copies = len(parent) // len(a.parent)
        if copies == 1:
            return a
        return NonMixingMap._of(copies * a.source_rank, parent, a.mult * copies)

    def _maps_to(self, n: int) -> tuple:
        # map_at(t) for t in 1..n-1.  A cyclic tail's block repeats as it
        # stands, so past L they are the block's maps, cycled
        p = self.periodic_tail
        if n <= self.length:
            return self.maps[: n - 1]
        if self.tail_kind != "cyclic":
            return tuple(map(self._map, range(1, n)))
        return self.maps[: p - 1] + tuple(islice(cycle(self.maps[p - 1 :]), n - p))

    def map_between(self, lo: int, hi: int) -> NonMixingMap:
        """Composite map from level lo to level hi (identity when equal)."""
        self._check_span(lo, hi)
        # every map_at(t) is already valid, so compose the parent and
        # mult lists directly and validate only the finished composite
        rank = self.rank_at(lo)
        parent, mult = self._compose((1,) * rank, lo, hi)
        return NonMixingMap(rank, tuple(parent), tuple(mult))

    def ancestor_runs(self, lo: int, hi: int) -> tuple:
        """The level-lo ancestor of every level-hi node, in runs.

        Returns (ancestor, count) pairs, adjacent ones with different
        ancestors: the first count nodes of level hi descend from the
        first ancestor, the next from the second, and so on.  Only
        parents are read, composed as map_between composes them, except
        past L on a self-similar tail, where the runs come from the
        closed form without listing level hi.  Levels lo..hi-1 are held
        to the coordinate budget, level hi is not: it is never listed.
        """
        self._check_span(lo, hi, listed=False)
        if self.tail_kind == "substitution" and hi > self.length:
            pieces = self._tail_ancestors(lo, hi)
        else:
            parent = self._compose(None, lo, hi)[0]
            pieces = ((a, 1) for a in parent)
        runs = []
        for a, n in pieces:
            if runs and runs[-1][0] == a:
                runs[-1] = (a, runs[-1][1] + n)
            else:
                runs.append((a, n))
        return tuple(runs)

    def _tail_ancestors(self, lo: int, hi: int):
        # (ancestor, count) pieces for a level hi past L on a self-similar
        # tail.  Node n of level hi is place n % rank_b of copy n // rank_b
        # of its block level b, and copy c descends from node c of its
        # period's start level.  When lo is in hi's period, copy c of hi
        # reads copy c of lo place by place: g composes the block maps
        # between them.  Otherwise g gives the ancestor in lo's copy c of
        # each of the rank_L places of the next period's start (of each
        # node of level L when lo <= L), and each such place lies above
        # `under` nodes of level hi.
        p, L = self.periodic_tail, self.length
        period, n_copies = L - p, self.ranks[-1]
        b, k = self._block_position(hi), (hi - p) // period
        if lo <= L:
            k_lo, w = 0, 0
            g = self._compose(None, lo, L)[0]
        else:
            b_lo, k_lo = self._block_position(lo), (lo - p) // period
            w = self.ranks[b_lo - 1]
            g = range(w)
            for a in self._block()[1][b_lo - p : (b if k_lo == k else L) - p]:
                g = [g[i] for i in a.parent]
        under = 1 if k_lo == k else self.ranks[b - 1] * n_copies ** (k - k_lo - 1)
        return ((c * w + a, under) for c in range(n_copies**k_lo) for a in g)

    def unit_at(self, t: int) -> tuple:
        """Image of the base unit at level t."""
        return tuple(self._push(self.base_unit, 1, t))

    def is_injective_presentation(self) -> bool:
        """True when every presented map is injective.

        For tailed sequences this settles the whole diagram: the
        unrolled maps past level L repeat (or restart) presented blocks
        and inherit injectivity from them.
        """
        return all(a.is_injective() for a in self.maps)


def _repeated(x, power, k: int, then):
    # x then k copies of power by repeated squaring: then(a, b) is a then b
    while k:
        if k & 1:
            x = then(x, power)
        k >>= 1
        if k:
            power = then(power, power)
    return x


def _then(f: tuple, g: tuple, cap: int | None = None) -> tuple:
    # the composite of (parent, mult) pairs f then g; mult may be None.
    # With cap each product is cut down to cap, and an entry already at
    # cap is kept without a multiplication
    (fp, fm), (gp, gm) = f, g
    parent = [fp[i] for i in gp]
    if fm is None:
        return parent, None
    if cap is None:
        return parent, [k * fm[i] for i, k in zip(gp, gm)]
    return parent, [cap if fm[i] == cap else min(k * fm[i], cap) for i, k in zip(gp, gm)]


def _write_cut() -> int | None:
    # the least number str() refuses to write, 10**limit for the limit
    # sys.get_int_max_str_digits(), or None when that is 0 and str()
    # writes every int; formed once per limit
    return _cut_for(sys.get_int_max_str_digits())


@lru_cache(maxsize=1)
def _cut_for(limit: int) -> int | None:
    return 10**limit if limit else None


def _refuse_unwritable(values, what: str):
    # the one rule for a number too long to write: raise TooLarge when
    # one of the values, exact or cut at _write_cut(), reaches the cut,
    # since str() refuses exactly the numbers that do
    cut = _write_cut()
    if cut is not None and max(values) >= cut:
        raise TooLarge(
            f"{what} is too long to write in decimal "
            f"(more than {sys.get_int_max_str_digits()} digits)"
        )


def _check_listing(seqs, levels, what: str = "level", listing: str | None = None):
    # the ranks of the levelwise product of seqs at levels, or TooLarge
    # when they are too many to list: one has more than _COORD_BUDGET
    # coordinates, or, when a command names its listing, there are more
    # than _COORD_BUDGET levels or _LIST_BUDGET coordinates.  A
    # self-similar level past L with copy exponent k has at least 2**k
    # coordinates, so a level whose exponent is past the budget is
    # refused before the power is formed
    if listing is not None and levels[_COORD_BUDGET:]:  # len() overflows past maxsize
        raise TooLarge(f"{listing} is more than {_COORD_BUDGET} levels to list")
    grows = [s for s in seqs if s.tail_kind == "substitution"]
    total, ranks = 0, []
    for t in levels:
        for s in grows:
            p = s.periodic_tail
            if (t - p) // (s.length - p) > _COORD_BUDGET.bit_length():
                raise TooLarge(
                    f"{what} {t} has more than {_COORD_BUDGET} coordinates to list"
                )
        rank = 1
        for s in seqs:
            rank *= s.rank_at(t)
        if rank > _COORD_BUDGET:
            raise TooLarge(
                f"{what} {t} has {rank} coordinates, more than {_COORD_BUDGET} to list"
            )
        total += rank
        if listing is not None and total > _LIST_BUDGET:
            raise TooLarge(f"{listing} lists more than {_LIST_BUDGET} coordinates")
        ranks.append(rank)
    return ranks


def _tail_start(seqs, keep, ranks, lo: int = 1) -> int | None:
    # the one rule for which level of an output starts a tail, when level
    # i reads level keep[i - 1] of every seq and has rank ranks[i - 1]:
    # the least i from which the kept levels are at or past lo and every
    # tail start, step evenly by h, span whole periods of every seq, and
    # ranks[i - 1] is 1 or ranks[-1], so that the output repeats below
    # every node of level i + k * (m - i).  Only those i, E apart, are read
    m = len(keep)
    if m < 2 or not all(s.is_tailed for s in seqs):
        return None
    h, first = keep[-1] - keep[-2], 1 if isinstance(keep, range) else m - 1
    while first > 1 and keep[first - 1] - keep[first - 2] == h:
        first -= 1
    floor = max(lo, *(s.periodic_tail for s in seqs))
    start = first + max(0, -((keep[first - 1] - floor) // h))
    E = lcm(h, *(s.length - s.periodic_tail for s in seqs)) // h
    for i in range(start + (m - start) % E, m, E):
        if ranks[i - 1] in (1, ranks[-1]):
            return i


def keep_at(seq: BratteliSequence, t: int) -> tuple:
    """The level-t coordinates the limit actually sees, ascending.

    Without a tail these are the coordinates with a descendant at the
    last presented level; with a tail, those with descendants at every
    depth.
    """
    seq._check_span(t, t)
    if t <= seq.length:
        return _keeps(seq)[t - 1]
    b = seq._block_position(t)

    def places():
        # the places in block level b's order of its kept coordinates
        alive = set(_keeps(seq)[b - 1])
        order = seq._block()[0][b - seq.periodic_tail]
        return tuple(k for k, c in enumerate(order) if c in alive)

    return seq._repeat(t, seq._memo(("kept places", b), places))


def _keeps_below(seq: BratteliSequence, keep: tuple, top: int, lo: int) -> list:
    # the kept coordinates of levels lo..top, given those of top: a
    # coordinate is kept when one of its children is
    keeps = [keep]
    for s in range(top - 1, lo - 1, -1):
        parent = seq.maps[s - 1].parent
        keep = tuple(sorted({parent[j] for j in keep}))
        keeps.append(keep)
    return keeps[::-1]


def _keeps(seq: BratteliSequence) -> tuple:
    # keeps[t - 1], the kept coordinates of presented level t, by the
    # one walk the module describes, memoized for the sequence
    def build():
        p, L = seq.periodic_tail, seq.length
        if p is None:
            return tuple(_keeps_below(seq, tuple(range(seq.ranks[-1])), L, 1))
        rank_p = seq.ranks[p - 1]
        root = tuple(range(rank_p))
        while True:
            alive = set(root)
            top = tuple(c for c in range(seq.ranks[-1]) if c % rank_p in alive)
            block = _keeps_below(seq, top, L, p)
            if block[0] == root:
                return (*_keeps_below(seq, root, p, 1)[:-1], *block)
            root = block[0]

    return seq._memo(("keeps",), build)


def injectivize(seq: BratteliSequence):
    """Prune coordinates the limit never sees; return (sequence, inclusions).

    inclusions[t-1] lists the kept old coordinates of level t, ascending.
    Every map of the pruned sequence is injective, unrolled levels
    included, and the pruned limit is the same group with the same order
    and unit.  A tail survives pruning with its start level unchanged.
    """
    L = seq.length
    keeps = _keeps(seq)
    if all(len(k) == r for k, r in zip(keeps, seq.ranks)):
        return seq, keeps
    new_maps = []
    for t in range(1, L):
        old = seq.maps[t - 1]
        src = {c: i for i, c in enumerate(keeps[t - 1])}
        parent = tuple(src[old.parent[j]] for j in keeps[t])
        mult = tuple(old.mult[j] for j in keeps[t])
        # a kept coordinate's parent is kept, so the pruned map is valid
        new_maps.append(NonMixingMap._of(len(keeps[t - 1]), parent, mult))
    unit = tuple(seq.base_unit[c] for c in keeps[0])
    pruned = BratteliSequence(
        tuple(len(k) for k in keeps), tuple(new_maps), unit, seq.periodic_tail
    )
    return pruned, keeps


def telescope(seq: BratteliSequence, keep) -> BratteliSequence:
    """Restrict the presentation to the listed levels (1-based, from 1).

    Maps of the result are the composites between consecutive kept
    levels.  The tail, of either kind, survives when the kept levels
    end in an even run inside it that spans whole periods and meets a
    level of rank 1 or of the last kept rank (_tail_start).

    Kept levels past the listing budget are refused before anything is
    composed (_check_listing).  Each map is composed once, with every
    product cut at the least number str() refuses (_written), and a
    multiplicity that reaches the cut is refused as too long to write
    (_refuse_unwritable); below the cut every multiplicity is exact.
    A map whose smallest multiplicities multiply to the cut
    (_bound(..., min)) is refused before it is composed: every
    multiplicity it has reaches it.
    """
    keep = tuple(keep)
    if not keep or keep[0] != 1:
        raise NonAscending("kept levels must start at 1")
    for a, b in zip(keep, keep[1:]):
        if b <= a:
            raise NonAscending(f"kept levels not ascending at {a}, {b}")
    ranks = _check_listing((seq,), keep, "kept level", f"keeping {len(keep)} levels")
    if keep == tuple(range(1, seq.length + 1)):
        return seq
    maps = []
    for i, (a, b, rank) in enumerate(zip(keep, keep[1:], ranks), start=1):
        what = f"a multiplicity of map {i}"
        parent, mult = seq._written((1,) * rank, a, b, what)
        _refuse_unwritable(mult, what)
        # a composite of valid maps is valid: no entry needs checking again
        maps.append(NonMixingMap._of(rank, tuple(parent), tuple(mult)))
    return BratteliSequence(ranks, maps, seq.base_unit, _tail_start((seq,), keep, ranks))


class LimitElement(Frozen):
    """A group element given at some level; later levels see its image."""

    __slots__ = ("level", "vec")

    def __init__(self, level: int, vec):
        if not isinstance(level, int) or level < 1:
            raise LevelOutOfRange(f"level must be a positive int, got {level!r}")
        vec = tuple(vec)
        for v in vec:
            if not isinstance(v, int):
                raise TypeError(f"entries must be ints, got {v!r}")
        self._freeze(level, vec)


def _check_elements(seq, a, b):
    for el in (a, b):
        # a level past the budget is refused before its rank is formed
        seq._check_span(el.level, el.level)
        want = seq.rank_at(el.level)
        if len(el.vec) != want:
            raise RankMismatch(
                f"element at level {el.level} has length {len(el.vec)}, expected {want}"
            )


def _pushed_pair(seq, a, b):
    # a and b at their common level, on the coordinates the limit sees.
    # The lower one's entry u reaches it as u * M, M a composite
    # multiplicity, and once M >= c, one past every |entry| of a and b,
    # u * M and u * c have the same sign and lie on the same side of
    # every entry of the other: so every product is cut at c
    low, m = (a, b.level) if a.level <= b.level else (b, a.level)
    seq._check_span(low.level, m)
    one = (1,) * len(low.vec)
    c = 1 + max(map(abs, a.vec + b.vec))
    parent, mult = seq._steps((range(len(one)), one), low.level, m, c)
    pushed = [low.vec[i] * k for i, k in zip(parent, mult)]
    x, y = (pushed, b.vec) if low is a else (a.vec, pushed)
    kept = keep_at(seq, m)
    return tuple(x[j] for j in kept), tuple(y[j] for j in kept)


def limit_leq(seq, a: LimitElement, b: LimitElement) -> bool:
    """Whether a <= b in the limit order.

    Both elements are pushed to a common level and compared on the
    coordinates the limit sees.  Coordinates without deep descendants
    never influence any later level, so ignoring them is exact, not an
    approximation.
    """
    _check_elements(seq, a, b)
    x, y = _pushed_pair(seq, a, b)
    return all(xi <= yi for xi, yi in zip(x, y))


def forall_n_leq_limit(seq, a, b) -> bool:
    """Whether n*a <= b in the limit for every n >= 1.

    Pushing multiplies each surviving coordinate by a positive integer,
    which changes no sign, so the coordinatewise test at the common
    level settles the question for all n at once.  A kept coordinate of
    a.level has a kept descendant at every deeper level, so a positive
    entry there already answers False, before anything is pushed.
    """
    _check_elements(seq, a, b)
    if any(a.vec[c] > 0 for c in keep_at(seq, a.level)):
        return False
    x, y = _pushed_pair(seq, a, b)
    return forall_n_leq(x, y)
