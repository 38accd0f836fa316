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
A level is listed, by map_at or keep_at, only while it has at most
_COORD_BUDGET coordinates; the first level past it is found from the
copy counts before anything is built.  A command that lists a run of
levels lists at most _LIST_BUDGET coordinates over all of them, counted
from rank_at before the first is built.

Every vector is pushed up by _push, which composes the maps onto it
as above: the units u_t, both sides of a limit comparison, the log2
bounds telescope and states refuse by, and the cut unit `states
--decimal` writes.

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
from itertools import accumulate

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

# the most coordinates an unrolled self-similar level may list, and
# the most levels a command may list down to
_COORD_BUDGET = 2**20

# the most coordinates a command may list over all its levels together;
# four times the budget above, so the deepest listing of the binary tree
# that budget admits, levels 1..21, still runs
_LIST_BUDGET = 4 * _COORD_BUDGET

# composites whose numbers have more bits than this together, one of
# them too many digits to write, are refused before they are composed
_MULT_BITS = 2**20


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
        self._check_listable(t, t + 1)
        copies = self._copies(t)
        if copies == 1:
            return block
        width = self.ranks[self._block_position(t) - 1]
        return tuple(s + i for s in range(0, copies * width, width) for i in block)

    def _check_listable(self, lo: int, hi: int):
        # refuse the first level t in [lo, hi) that unrolls to more than
        # _COORD_BUDGET coordinates.  Only a self-similar tail grows, by
        # rank_L >= 2 each period, so from L the walk stops within about
        # 20 periods; a level whose copy count alone is past the budget
        # is refused by its exponent, before the power is computed
        if hi <= self.length or self.tail_kind != "substitution":
            return
        p, L = self.periodic_tail, self.length
        for t in range(max(lo, L), hi):
            if (t - p) // (L - p) > _COORD_BUDGET.bit_length():
                raise TooLarge(
                    f"level {t} has more than {_COORD_BUDGET} coordinates to list"
                )
            rank = self.rank_at(t)
            if rank > _COORD_BUDGET:
                raise TooLarge(
                    f"level {t} has {rank} coordinates, more than {_COORD_BUDGET} to list"
                )

    def _check_span(self, lo: int, hi: int):
        self._require_level(lo)
        self._require_level(hi)
        if lo > hi:
            raise LevelOutOfRange(f"need lo <= hi, got {lo} > {hi}")
        self._check_listable(lo, hi)

    def _compose(
        self, f: tuple, lo: int, hi: int, log: bool = False, cap: int | None = None
    ) -> tuple:
        # f, a (parent, mult) composite ending at level lo, followed by
        # the maps of levels lo..hi-1; mult None is carried as None, and
        # with log each multiplicity k adds floor(log2 k) to it instead.
        # With cap each product stops growing at cap, so a composite mult
        # is exact below cap and cap from there on.
        # On a cyclic tail the maps from any level s >= p on repeat every
        # period, so the whole periods from max(lo, p) are one period's
        # composite raised to a power, by repeated squaring
        if self.tail_kind == "cyclic":
            p, period = self.periodic_tail, self.length - self.periodic_tail
            start = max(lo, p)
            k = (hi - start) // period
            if k > 1:
                f = self._compose(f, lo, start, log, cap)
                rank = self.rank_at(start)
                one = (range(rank), None if f[1] is None else (int(not log),) * rank)
                power = self._compose(one, start, start + period, log, cap)
                while k:
                    if k & 1:
                        f = _then(f, power, log, cap)
                    k >>= 1
                    if k:
                        power = _then(power, power, log, cap)
                lo = hi - (hi - start) % period
        logs = {}
        for t in range(lo, hi):
            a = self.map_at(t)
            mult = a.mult
            if log and t < self.length:
                mult = [k.bit_length() - 1 for k in mult]
            elif log:
                # past L, map_at(t) repeats one block map's mults once per
                # copy; take that block's bounds once and repeat them too
                b = self._block_position(t)
                if b not in logs:
                    block = self._block()[1][b - self.periodic_tail]
                    logs[b] = [k.bit_length() - 1 for k in block.mult]
                mult = logs[b] * self._copies(t)
            f = _then(f, (a.parent, mult), log, cap)
        return f

    def _push(self, x, lo: int, hi: int, log: bool = False, cap: int | None = None):
        # x, a vector at level lo, pushed up to level hi along parents.
        # With log, x and the result hold lower bounds on log2 of entries:
        # from floor(log2) ones, each is at least log2 of its entry over
        # log2 3, as floor(log2 k) >= log2(k) / log2(3).  With cap, each
        # entry is cut down to cap
        self._check_span(lo, hi)
        return self._compose((range(self.rank_at(lo)), x), lo, hi, log, cap)[1]

    # -- levels, maps, units ---------------------------------------------

    def rank_at(self, t: int) -> int:
        self._require_level(t)
        if t <= self.length:
            return self.ranks[t - 1]
        return self._copies(t) * self.ranks[self._block_position(t) - 1]

    def map_at(self, t: int) -> NonMixingMap:
        """The map from level t to level t+1."""
        if not isinstance(t, int) or t < 1:
            raise LevelOutOfRange(f"level {t!r} not available")
        if t < self.length:
            return self.maps[t - 1]
        self._require_level(t + 1)
        a = self._block()[1][self._block_position(t) - self.periodic_tail]
        parent = self._repeat(t, a.parent)
        copies = len(parent) // len(a.parent)
        if copies == 1:
            return a
        return NonMixingMap._of(copies * a.source_rank, parent, a.mult * copies)

    def map_between(self, lo: int, hi: int) -> NonMixingMap:
        """Composite map from level lo to level hi (identity when equal)."""
        self._check_span(lo, hi)
        # every map_at(t) is already valid, so compose the parent and
        # mult lists directly and validate only the finished composite
        rank = self.rank_at(lo)
        parent, mult = self._compose((range(rank), (1,) * rank), lo, hi)
        return NonMixingMap(rank, tuple(parent), tuple(mult))

    def ancestor_runs(self, lo: int, hi: int) -> tuple:
        """The level-lo ancestor of every level-hi node, in runs.

        Returns (ancestor, count) pairs, adjacent ones with different
        ancestors: the first count nodes of level hi descend from the
        first ancestor, the next from the second, and so on.  Only
        parents are read, composed as map_between composes them, except
        past L on a self-similar tail, where the runs come from the
        closed form without listing level hi.  Level hi is refused by
        the same coordinate budget as map_between(lo, hi).
        """
        self._check_span(lo, hi)
        if self.tail_kind == "substitution" and hi > self.length:
            pieces = self._tail_ancestors(lo, hi)
        else:
            parent = self._compose((range(self.rank_at(lo)), None), lo, hi)[0]
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
            g = self._compose((range(self.rank_at(lo)), None), lo, L)[0]
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


def _then(f: tuple, g: tuple, log: bool = False, cap: int | None = None) -> tuple:
    # the composite of (parent, mult) pairs f then g; mult may be None,
    # with log it holds log2 bounds, which add where mults multiply, and
    # with cap each product is cut down to cap
    (fp, fm), (gp, gm) = f, g
    parent = [fp[i] for i in gp]
    if fm is None:
        return parent, None
    if log:
        return parent, [k + fm[i] for i, k in zip(gp, gm)]
    if cap is not None:
        return parent, [min(k * fm[i], cap) for i, k in zip(gp, gm)]
    return parent, [k * fm[i] for i, k in zip(gp, gm)]


def _refuse_unwritable(bits, written, what: str):
    # raise TooLarge, before a composite is formed, when composing it is
    # costly (its log2 bounds `bits` add up to more than _MULT_BITS) and
    # one of the numbers at the indices `written` could never be written
    # (its bound means more digits than sys.get_int_max_str_digits())
    limit = sys.get_int_max_str_digits()
    if not limit or sum(bits) <= _MULT_BITS:
        return
    most = max(bits[i] for i in written)
    # 2**most >= 10**limit, with 3.3220 > log2(10)
    if most * 10000 >= limit * 33220:
        raise TooLarge(
            f"{what} is too long to write in decimal (at least {most + 1} bits)"
        )


def _refuse_deep(depth: int):
    # a command that lists every level down to `depth` is refused, before
    # any is built, past _COORD_BUDGET levels
    if depth > _COORD_BUDGET:
        raise TooLarge(f"depth {depth} is more than {_COORD_BUDGET} levels to list")


def _refuse_listing(ranks):
    # a command that lists levels of these ranks, read one at a time, is
    # refused past _LIST_BUDGET coordinates in total, before any is built
    total = 0
    for rank in ranks:
        total += rank
        if total > _LIST_BUDGET:
            raise TooLarge(f"the levels to list have more than {_LIST_BUDGET} coordinates")


def _most_bits_below(seq: BratteliSequence, t: int) -> int:
    # the sum over levels 1..t-1 of the largest floor(log2 k) over the
    # multiplicities k of map_at(s).  Past L, map_at(s) repeats the map
    # of its block position, so every period adds the same sum, that of
    # levels p..L-1
    sums = seq._memo(
        ("most bits",),
        lambda: (0, *accumulate(max(a.mult).bit_length() - 1 for a in seq.maps)),
    )
    L = seq.length
    if t <= L:
        return sums[t - 1]
    p = seq.periodic_tail
    k, r = divmod(t - L, L - p)
    return sums[L - 1] + k * (sums[L - 1] - sums[p - 1]) + sums[p - 1 + r] - sums[p - 1]


def keep_at(seq: BratteliSequence, t: int) -> tuple:
    """The level-t coordinates the limit actually sees, ascending.

    Without a tail these are the coordinates with a descendant at the
    last presented level; with a tail, those with descendants at every
    depth.
    """
    seq._require_level(t)
    if t <= seq.length:
        return _keeps(seq)[t - 1]
    b = seq._block_position(t)
    alive = set(_keeps(seq)[b - 1])
    order = seq._block()[0][b - seq.periodic_tail]
    return seq._repeat(t, tuple(k for k, c in enumerate(order) if c in alive))


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
        new_maps.append(NonMixingMap(len(keeps[t - 1]), parent, mult))
    unit = tuple(seq.base_unit[c] for c in keeps[0])
    pruned = BratteliSequence(
        tuple(len(k) for k in keeps), tuple(new_maps), unit, seq.periodic_tail
    )
    return pruned, keeps


def telescope(seq: BratteliSequence, keep) -> BratteliSequence:
    """Restrict the presentation to the listed levels (1-based, from 1).

    Maps of the result are the composites between consecutive kept
    levels.  A cyclic tail survives when the kept levels end in an
    arithmetic progression lying inside the tail whose step is a
    multiple of the period; a self-similar tail is dropped, since the
    telescoped level sizes no longer follow a fixed block.

    Three results are refused before anything is composed: one with a
    level past the coordinate budget, one whose levels have more than
    _LIST_BUDGET coordinates together, and one with a multiplicity that
    a lower bound on its bits shows too long to write (_refuse_unwritable).
    """
    keep = tuple(keep)
    if not keep or keep[0] != 1:
        raise NonAscending("kept levels must start at 1")
    for a, b in zip(keep, keep[1:]):
        if b <= a:
            raise NonAscending(f"kept levels not ascending at {a}, {b}")
    for t in keep:
        seq._require_level(t)
    if keep == tuple(range(1, seq.length + 1)):
        return seq
    seq._check_listable(1, keep[-1])
    _refuse_listing(map(seq.rank_at, keep))
    for i, (a, b) in enumerate(zip(keep, keep[1:]), start=1):
        # the log2 bounds of map i's multiplicities add up to at most
        # rank_at(b) times the sum, over its levels, of each level's
        # largest bound; when that is at most _MULT_BITS there is nothing
        # _refuse_unwritable could refuse, and no bound is composed
        most = _most_bits_below(seq, b) - _most_bits_below(seq, a)
        if seq.rank_at(b) * most <= _MULT_BITS:
            continue
        bits = seq._push((0,) * seq.rank_at(a), a, b, log=True)
        _refuse_unwritable(bits, range(len(bits)), f"a multiplicity of map {i}")
    ranks = tuple(seq.rank_at(t) for t in keep)
    maps = tuple(seq.map_between(a, b) for a, b in zip(keep, keep[1:]))
    tail = None
    if seq.tail_kind == "cyclic" and len(keep) >= 2:
        period = seq.length - seq.periodic_tail
        gaps = [b - a for a, b in zip(keep, keep[1:])]
        h = gaps[-1]
        if h % period == 0:
            t0 = len(gaps)
            while t0 > 0 and gaps[t0 - 1] == h and keep[t0 - 1] >= seq.periodic_tail:
                t0 -= 1
            if t0 <= len(gaps) - 1:
                tail = t0 + 1
    return BratteliSequence(ranks, maps, tuple(seq.base_unit), tail)


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
        seq._require_level(el.level)
        want = seq.rank_at(el.level)
        if len(el.vec) != want:
            raise RankMismatch(
                f"element at level {el.level} has length {len(el.vec)}, expected {want}"
            )


def _pushed_pair(seq, a, b):
    m = max(a.level, b.level)
    x = seq._push(a.vec, a.level, m)
    y = seq._push(b.vec, b.level, m)
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
