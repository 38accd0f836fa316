import random
import sys

import pytest

from bratteli import diagram
from bratteli.intertwine import unit_change
from bratteli.states import exact_image_runs
from bratteli import (
    BadRepeat,
    BratteliSequence,
    LevelOutOfRange,
    LimitElement,
    NonAscending,
    NonMixingMap,
    NotOrderUnit,
    RankMismatch,
    TooLarge,
    forall_n_leq,
    forall_n_leq_limit,
    injectivize,
    is_order_unit,
    keep_at,
    limit_leq,
    telescope,
)

from genseq import (
    full_tree,
    long_chain,
    max_usable_level,
    random_element,
    random_map,
    random_sequence,
    scalar_chain,
    two_path,
)


def _limit_eq(seq, a, b):
    # equality in the limit group is the order in both directions
    return limit_leq(seq, a, b) and limit_leq(seq, b, a)


def _behind_a_chain(rng, kind):
    # a random sequence with a tail of that kind behind a rank-1 chain
    # of 300 to 600 levels, multiplicities up to 99 throughout
    body = random_sequence(rng, max_mult=99, tail=kind)
    n = rng.randint(300, 600)
    maps = [NonMixingMap(1, (0,), (rng.randint(1, 99),)) for _ in range(n)]
    maps.append(random_map(rng, 1, body.ranks[0], 99))
    return BratteliSequence(
        (1,) * (n + 1) + body.ranks,
        (*maps, *body.maps),
        (rng.randint(1, 3),),
        n + 1 + body.periodic_tail,
    )


def _stepped(seq, lo, hi):
    # the oracle: (parent, mult) of the composite from level lo to level
    # hi, exact, from map_at level by level
    parent = list(range(seq.rank_at(lo)))
    mult = [1] * len(parent)
    for t in range(lo, hi):
        a = seq.map_at(t)
        parent = [parent[i] for i in a.parent]
        mult = [k * mult[i] for i, k in zip(a.parent, a.mult)]
    return parent, mult


def _writable(numbers) -> bool:
    # whether str() writes every one of the numbers
    try:
        for v in numbers:
            str(v)
    except ValueError:
        return False
    return True


class TestConstruction:
    def test_rank_map_consistency_enforced(self):
        good = NonMixingMap(1, (0, 0), (1, 1))
        with pytest.raises(RankMismatch):
            BratteliSequence((1, 3), (good,), (1,))
        with pytest.raises(RankMismatch):
            BratteliSequence((1, 2), (good,), (1, 1))

    def test_unit_must_be_order_unit(self):
        with pytest.raises(NotOrderUnit):
            BratteliSequence((2, 2), (NonMixingMap(2, (0, 1), (1, 1)),), (1, 0))

    def test_tail_needs_matching_rank_or_rank_one(self):
        m = NonMixingMap(2, (0, 1), (1, 1))
        grow = NonMixingMap(2, (0, 0, 1), (1, 1, 1))
        with pytest.raises(BadRepeat):
            BratteliSequence((2, 3), (grow,), (1, 1), periodic_tail=1)
        seq = BratteliSequence((2, 2), (m,), (1, 1), periodic_tail=1)
        assert seq.tail_kind == "cyclic"

    def test_tail_index_range_checked(self):
        m = NonMixingMap(1, (0,), (2,))
        with pytest.raises(BadRepeat):
            BratteliSequence((1, 1), (m,), (1,), periodic_tail=2)
        with pytest.raises(BadRepeat):
            BratteliSequence((1, 1), (m,), (1,), periodic_tail=0)


class TestTails:
    def test_cyclic_repetition(self):
        a1 = NonMixingMap(1, (0, 0), (1, 2))
        a2 = NonMixingMap(2, (0, 1), (2, 1))
        seq = BratteliSequence((1, 2, 2), (a1, a2), (1,), periodic_tail=2)
        assert seq.tail_kind == "cyclic"
        for t in range(2, 9):
            assert seq.map_at(t) == a2
            assert seq.rank_at(t) == 2

    def test_rank_one_restart(self):
        tree = full_tree(2, 2)
        assert tree.tail_kind == "substitution"
        assert [tree.rank_at(t) for t in range(1, 6)] == [1, 2, 4, 8, 16]
        m3 = tree.map_at(3)
        assert m3.source_rank == 4
        assert m3.parent == (0, 0, 1, 1, 2, 2, 3, 3)

    def test_restart_with_longer_block(self):
        # block of two maps restarting at every deep node
        m1 = NonMixingMap(1, (0, 0), (1, 1))
        m2 = NonMixingMap(2, (0, 0, 1), (1, 1, 1))
        seq = BratteliSequence((1, 2, 3), (m1, m2), (1,), periodic_tail=1)
        assert seq.tail_kind == "substitution"
        assert [seq.rank_at(t) for t in range(1, 6)] == [1, 2, 3, 6, 9]
        # every level-3 node restarts the block, so level 4 splits in twos
        assert seq.map_at(3).parent == (0, 0, 1, 1, 2, 2)

    def test_deep_self_similar_level(self):
        # unrolling a tail takes a loop per level, not a recursion
        assert full_tree(2, 3).rank_at(5000) == 2**4999
        m1 = NonMixingMap(1, (0, 0), (1, 1))
        m2 = NonMixingMap(2, (0, 0, 1), (1, 1, 1))
        seq = BratteliSequence((1, 2, 3), (m1, m2), (1,), periodic_tail=1)
        assert seq.map_at(9).source_rank == seq.rank_at(9) == 3**4
        assert [seq.rank_at(t) for t in range(3, 8)] == [3, 6, 9, 18, 27]

    def test_unrolled_level_past_the_coordinate_budget(self):
        # level 21 of the binary tree lists 2^20 coordinates, the most
        # an unrolled level may; level 22 has twice as many, and map_at(21)
        # lists them in its parent tuple
        tree = full_tree(2, 3)
        assert len(keep_at(tree, 21)) == 2**20
        too_many = "level 22 has 2097152 coordinates"
        with pytest.raises(TooLarge, match=too_many):
            tree.map_at(21)
        with pytest.raises(TooLarge, match=too_many):
            keep_at(tree, 22)
        with pytest.raises(TooLarge, match=too_many):
            tree.ancestor_runs(1, 23)
        # a level whose copy count alone is past the budget is refused
        # before its rank is computed
        with pytest.raises(TooLarge, match="level 1000000000 has more than"):
            tree.map_between(10**9, 10**9 + 1)

    def test_pushed_level_budgeted_before_composing(self, count_calls):
        # a pushed vector lists level hi, so level 22 of the binary tree
        # is refused before any map is composed; `states --level 22
        # --depth 22` built levels 1..21 first, 0.72 s and 106 MB
        tree = full_tree(2, 2)
        maps = count_calls(BratteliSequence, "_map")
        too_many = "^level 22 has 2097152 coordinates, more than 1048576 to list$"
        with pytest.raises(TooLarge, match=too_many):
            exact_image_runs(tree, 22, 22)
        with pytest.raises(TooLarge, match=too_many):
            tree.unit_at(22)
        assert maps[0] == 0

    def test_listing_budget_edges(self):
        # levels 1..21 of the binary tree, 2^21 - 1 coordinates, are the
        # deepest a command lists; each rule refuses one step past its edge
        tree = full_tree(2, 3)
        check = diagram._check_listing
        check((tree,), range(1, 22), "level", "depth 21")
        with pytest.raises(TooLarge, match="^level 22 has 2097152 coordinates"):
            check((tree,), range(1, 23), "level", "depth 22")
        with pytest.raises(TooLarge, match="^level 1000000000 has more than 1048576"):
            check((tree,), (1, 10**9))
        with pytest.raises(TooLarge, match="^all is more than 1048576 levels to list$"):
            check((scalar_chain(1),), range(1, 2**20 + 2), "level", "all")
        # a product level of 2^10 times 2^11 coordinates
        check((tree, tree), (11,), "product level")
        with pytest.raises(TooLarge, match="^product level 12 has 4194304 coordinates"):
            check((tree, tree), (12,), "product level")
        # 1024 levels of 4096 parallel chains are 2^22 coordinates
        ones = NonMixingMap(4096, tuple(range(4096)), (1,) * 4096)
        chains = BratteliSequence((4096, 4096), (ones,), (1,) * 4096, 1)
        check((chains,), range(1, 1025), "level", "all")
        with pytest.raises(TooLarge, match="^all lists more than 4194304 coordinates$"):
            check((chains,), range(1, 1026), "level", "all")

    def test_walks_check_their_span_once(self, count_calls):
        # a walk checks its span where it enters and reads each map by
        # _map, so the listing check runs as often for 2,000 levels past
        # L as for 20: a ladder up a cyclic chain, and a limit comparison
        # up a self-similar tail of 400-level periods that doubles the
        # copies each period
        checks = count_calls(diagram, "_check_listing")
        chain = scalar_chain(3, levels=5)
        one, split = NonMixingMap(1, (0,), (1,)), NonMixingMap(1, (0, 0), (1, 1))
        grows = BratteliSequence((1,) * 400 + (2,), (one,) * 399 + (split,), (1,), 1)
        counts = []
        for span in (20, 2000):
            checks[0] = 0
            unit_change(chain, (2,), 5 + span)
            ladder = checks[0]
            top = 401 + span
            low = LimitElement(401, (1, 0))
            high = LimitElement(top, (1,) * grows.rank_at(top))
            assert limit_leq(grows, low, high) and not limit_leq(grows, high, low)
            counts.append((ladder, checks[0] - ladder))
        assert counts[0] == counts[1]
        assert counts[0][1] <= 8  # four checks a comparison

    def test_cyclic_tail_checked_as_its_presented_levels(self, monkeypatch):
        # a cyclic tail lists no level larger than a presented one, so no
        # level of it is counted: with a budget of 20 coordinates every
        # level 1..13 of sizes 4 40 4 answers as under the real budget,
        # though levels 2, 5, 8, ... have 40 coordinates
        columns = range(40)
        up = NonMixingMap(4, tuple(j % 4 for j in columns), tuple(1 + j % 3 for j in columns))
        down = NonMixingMap(40, tuple(range(0, 40, 10)), (2, 1, 1, 3))
        seq = BratteliSequence((4, 40, 4), (up, down), (1, 2, 1, 1), 1)

        def answers():
            out = []
            for t in range(1, 14):
                low = LimitElement(1, (1, 0, 0, -1))
                high = LimitElement(t, tuple(range(-3, seq.rank_at(t) - 3)))
                leq = limit_leq(seq, low, high), limit_leq(seq, high, low)
                out.append((seq.unit_at(t), seq.map_at(t), keep_at(seq, t), leq))
            return out

        expected = answers()
        monkeypatch.setattr(diagram, "_COORD_BUDGET", 20)
        assert answers() == expected

    def test_range_past_maxsize_refused_by_its_count(self):
        # len() of such a range overflows; its count is refused
        too_many = "^depth 10\\*\\*30 is more than 1048576 levels to list$"
        with pytest.raises(TooLarge, match=too_many):
            diagram._check_listing(
                (scalar_chain(2),), range(1, 10**30), listing="depth 10**30"
            )

    def test_deep_ancestors_in_runs(self):
        # node n of level 22 descends from node n // 2^20 of level 2
        tree = full_tree(2, 3)
        assert tree.ancestor_runs(2, 22) == ((0, 2**20), (1, 2**20))
        assert tree.ancestor_runs(1, 22) == ((0, 2**21),)
        assert tree.ancestor_runs(11, 12) == tuple((c, 2) for c in range(2**10))

    def test_cyclic_preferred_when_both_fit(self):
        seq = scalar_chain(2, levels=2)
        assert seq.tail_kind == "cyclic"

    def test_no_level_beyond_untailed_end(self):
        seq = scalar_chain(2, levels=3, tailed=False)
        assert seq.has_level(3)
        assert not seq.has_level(4)
        with pytest.raises(LevelOutOfRange):
            seq.rank_at(4)


class TestUnitAt:
    def test_doubling_chain(self):
        seq = scalar_chain(2, levels=4)
        assert seq.unit_at(3) == (4,)

    def test_level_one_is_base(self):
        rng = random.Random(31)
        for _ in range(20):
            seq = random_sequence(rng)
            assert seq.unit_at(1) == seq.base_unit

    def test_one_application(self):
        m = NonMixingMap(1, (0, 0), (2, 3))
        seq = BratteliSequence((1, 2), (m,), (1,))
        assert seq.unit_at(2) == (2, 3)

    def test_always_an_order_unit(self):
        rng = random.Random(32)
        for _ in range(60):
            seq = random_sequence(rng)
            for t in range(1, max_usable_level(seq) + 1):
                assert is_order_unit(seq.unit_at(t))


class TestMapBetween:
    def test_composes_run_of_maps(self):
        seq = scalar_chain(3, levels=5, tailed=False)
        assert seq.map_between(1, 4).mult == (27,)
        assert seq.map_between(2, 2).mult == (1,)

    def test_order_checked(self):
        seq = scalar_chain(3, levels=5, tailed=False)
        with pytest.raises(LevelOutOfRange):
            seq.map_between(4, 2)


class TestTelescope:
    def test_full_range_is_identity(self):
        rng = random.Random(33)
        for _ in range(20):
            seq = random_sequence(rng)
            assert telescope(seq, range(1, seq.length + 1)) == seq

    def test_doubling_chain_every_other_level(self):
        seq = scalar_chain(2, levels=5, tailed=False)
        out = telescope(seq, (1, 3, 5))
        assert [m.mult for m in out.maps] == [(4,), (4,)]

    def test_two_level_tree_composite(self):
        tree = full_tree(2, 3)
        out = telescope(tree, (1, 3))
        composite = tree.map_between(1, 3)
        assert out.maps == (composite,)
        for x in ((1,), (5,)):
            assert out.maps[0].apply(x) == composite.apply(x)

    def test_keep_must_start_at_one_and_ascend(self):
        seq = scalar_chain(2, levels=4, tailed=False)
        with pytest.raises(NonAscending):
            telescope(seq, (2, 3))
        with pytest.raises(NonAscending):
            telescope(seq, (1, 3, 3))
        with pytest.raises(LevelOutOfRange):
            telescope(seq, (1, 9))

    def test_cyclic_tail_kept_when_gaps_match_period(self):
        a1 = NonMixingMap(1, (0, 0), (1, 2))
        a2 = NonMixingMap(2, (0, 1), (2, 1))
        a3 = NonMixingMap(2, (1, 0), (1, 3))
        seq = BratteliSequence((1, 2, 2, 2), (a1, a2, a3), (1,), periodic_tail=2)
        kept = telescope(seq, (1, 2, 4))
        assert kept.periodic_tail == 2
        assert kept.maps[-1] == seq.map_between(2, 4)
        dropped = telescope(seq, (1, 3, 4))
        assert dropped.periodic_tail is None

    def test_write_cut_follows_the_digit_limit(self, digit_limit):
        # the cut is formed once per limit, and read again when it changes
        default = sys.get_int_max_str_digits()
        digit_limit(640)
        assert diagram._write_cut() == 10**640
        digit_limit(default)
        assert diagram._write_cut() == 10**default
        digit_limit(0)
        assert diagram._write_cut() is None

    @pytest.mark.parametrize("kind", ["cyclic", "sub"])
    def test_refused_exactly_when_str_refuses(self, kind, digit_limit):
        # telescope and exact_image_runs against the oracle below: each
        # refuses exactly when str() refuses a number it writes, and
        # otherwise returns the exact numbers.  The chain in front of the
        # tail brings them to about 640 digits, the least digit limit
        rng = random.Random(38 if kind == "cyclic" else 39)
        for k in range(300):
            seq = _behind_a_chain(rng, kind)
            if kind == "cyclic":
                top = seq.length + rng.randint(0, 300)
            else:
                top = max_usable_level(seq, extra_periods=3)
            # one case in four with no limit, where nothing is refused
            limit = 640 if k % 4 else 0
            digit_limit(limit)
            too_long = rf"is too long to write in decimal \(more than {limit} digits\)$"

            size = rng.randint(1, 2)
            keep = (1, *sorted(rng.sample(range(top // 2, top + 1), size)))
            maps = [_stepped(seq, a, b) for a, b in zip(keep, keep[1:])]
            bad = [i for i, (_, mult) in enumerate(maps, 1) if not _writable(mult)]
            if bad:
                refused = f"^a multiplicity of map {bad[0]} {too_long}"
                with pytest.raises(TooLarge, match=refused):
                    telescope(seq, keep)
            else:
                out = telescope(seq, keep)
                assert [(list(a.parent), list(a.mult)) for a in out.maps] == maps

            level = rng.randint(top // 2, top)
            depth = rng.randint(level, top)
            parent, mult = _stepped(seq, 1, level)
            unit = [seq.base_unit[i] * m for i, m in zip(parent, mult)]
            written = sorted(set(_stepped(seq, level, depth)[0]))
            if not _writable(unit[i] for i in written):
                with pytest.raises(TooLarge, match=f"^state value {too_long}"):
                    exact_image_runs(seq, level, depth)
            else:
                got, _ = exact_image_runs(seq, level, depth)
                assert [got[i] for i in written] == [unit[i] for i in written]

    def test_least_bound_refuses_as_composing_does(self, digit_limit):
        # the bounds _bound takes against the oracle: the product of each
        # map's smallest (largest) multiplicity, cut at 10**640, so never
        # more (less) than the smallest (largest) composed one, cut alike.
        # telescope refuses a map on the lower bound before composing it,
        # and it refuses the same map that composing every map in full
        # refuses first.  exact_image_runs,
        # which refuses on the same bound times the least unit entry,
        # refuses exactly when the uncapped unit reaches the cut at a
        # vertex the runs name, and otherwise returns those entries
        digit_limit(640)
        cut = 10**640
        rng, pick = random.Random(40), random.Random(41)
        bounded = composed = 0
        states = {"bounded": 0, "composed": 0, "written": 0}
        for _ in range(240):
            kind = rng.choice(("cyclic", "sub"))
            if kind == "sub" or rng.random() < 0.3:
                seq = _behind_a_chain(rng, kind)
                top = max_usable_level(seq, extra_periods=3)
            else:
                seq = rng.choice(
                    (
                        scalar_chain(rng.randint(2, 9), levels=rng.randint(2, 4)),
                        two_path(rng.randint(1, 9), rng.randint(2, 9)),
                        long_chain(rng, rng.randint(2, 4), rank=3, max_mult=9),
                        random_sequence(rng, max_mult=9, tail="cyclic"),
                    )
                )
                top = rng.randint(seq.length, 3000)
            size = rng.randint(1, min(3, top - 1))
            keep = (1, *sorted(rng.sample(range(2, top + 1), size)))
            spans = list(zip(keep, keep[1:]))
            maps = [_stepped(seq, a, b) for a, b in spans]
            for (a, b), (_, mult) in zip(spans, maps):
                least = most = 1
                for t in range(a, b):
                    least = min(least * min(seq.map_at(t).mult), cut)
                    most = min(most * max(seq.map_at(t).mult), cut)
                assert seq._bound(a, b, cut, min) == least <= min(mult)
                assert seq._bound(a, b, cut, max) == most >= min(max(mult), cut)
            bad = [i for i, (_, mult) in enumerate(maps, 1) if not _writable(mult)]
            if bad:
                refused = f"^a multiplicity of map {bad[0]} is too long to write"
                with pytest.raises(TooLarge, match=refused):
                    telescope(seq, keep)
                if seq._bound(*spans[bad[0] - 1], cut, min) == cut:
                    bounded += 1
                else:
                    composed += 1
            else:
                out = telescope(seq, keep)
                assert [(list(a.parent), list(a.mult)) for a in out.maps] == maps

            level = pick.randint(1, top)
            depth = pick.randint(level, top)
            parent, mult = _stepped(seq, 1, level)
            unit = [seq.base_unit[i] * m for i, m in zip(parent, mult)]
            named = sorted(set(_stepped(seq, level, depth)[0]))
            if any(unit[i] >= cut for i in named):
                with pytest.raises(TooLarge, match="^state value is too long to write"):
                    exact_image_runs(seq, level, depth)
                bound = min(seq.base_unit) * seq._bound(1, level, cut, min)
                states["bounded" if bound >= cut else "composed"] += 1
            else:
                got, _ = exact_image_runs(seq, level, depth)
                assert [got[i] for i in named] == [unit[i] for i in named]
                states["written"] += 1
        assert bounded > 20 and composed > 5
        assert min(states.values()) > 5, states

    def test_unit_bound_reads_the_least_entry(self, digit_limit, monkeypatch):
        # exact_image_runs refuses on the least base unit entry times
        # _bound(..., min) before composing anything under the cut: the
        # largest entry would refuse a writable unit, and the bound alone
        # would compose a unit that is refused.  A unit composes under the
        # cut only when its largest entry times _bound(..., max) may reach it
        digit_limit(640)
        cut, big = 10**640, 10**630
        caps = []
        steps = BratteliSequence._steps

        def record(self, f, lo, hi, cap):
            caps.append(cap)
            return steps(self, f, lo, hi, cap)

        monkeypatch.setattr(BratteliSequence, "_steps", record)
        # vertex 2 of level 1 has no descendants, so no unit entry past
        # level 1 reads its 631 digits
        first = NonMixingMap(2, (0, 0), (2, 2))
        dropped = BratteliSequence((2, 2, 2), (first, NonMixingMap(2, (0, 1), (2, 2))), (1, big), 2)
        assert tuple(exact_image_runs(dropped, 40, 40)[0]) == (2**39, 2**39)
        assert cut in caps
        # every unit entry of this chain is 2**39, far below the cut
        small = BratteliSequence((1, 1), (NonMixingMap(1, (0,), (2,)),), (1,), 1)
        caps.clear()
        assert tuple(exact_image_runs(small, 40, 40)[0]) == (2**39,)
        assert set(caps) == {None}
        # every unit entry of this chain is at least 10**630 * 2**39
        chain = BratteliSequence((1, 1), (NonMixingMap(1, (0,), (2,)),), (big,), 1)
        caps.clear()
        with pytest.raises(TooLarge, match="^state value is too long to write"):
            exact_image_runs(chain, 40, 40)
        assert cut not in caps

    def test_soundness_for_limit_verdicts(self):
        # comparisons at kept levels agree before and after telescoping,
        # provided the last presented level stays (dropping it would
        # change the limit itself)
        rng = random.Random(34)
        for _ in range(60):
            seq = random_sequence(rng, tail="none")
            if seq.length < 2:
                continue
            middle = sorted(
                rng.sample(range(2, seq.length), rng.randint(0, seq.length - 2))
            )
            keep = [1] + middle + [seq.length]
            tel = telescope(seq, keep)
            for _ in range(5):
                ia = rng.randrange(len(keep))
                ib = rng.randrange(len(keep))
                a = random_element(rng, seq, keep[ia])
                b = random_element(rng, seq, keep[ib])
                ta = LimitElement(ia + 1, a.vec)
                tb = LimitElement(ib + 1, b.vec)
                assert _limit_eq(seq, a, b) == _limit_eq(tel, ta, tb)
                assert limit_leq(seq, a, b) == limit_leq(tel, ta, tb)

    def test_same_tail_wherever_the_progression_rule_kept_one(self):
        # telescope used to keep only a cyclic tail, from the least kept
        # level past the tail start where the kept levels step by one
        # multiple of the period to the end; the one tail rule keeps that
        # same tail wherever it did, and more
        def progression(seq, keep):
            if seq.tail_kind != "cyclic" or len(keep) < 2:
                return None
            period = seq.length - seq.periodic_tail
            gaps = [b - a for a, b in zip(keep, keep[1:])]
            h = gaps[-1]
            if h % period:
                return None
            t0 = len(gaps)
            while t0 > 0 and gaps[t0 - 1] == h and keep[t0 - 1] >= seq.periodic_tail:
                t0 -= 1
            return t0 + 1 if t0 <= len(gaps) - 1 else None

        rng = random.Random(35)
        same = more = 0
        for _ in range(1500):
            seq = random_sequence(rng, tail=rng.choice(("cyclic", "sub")))
            period = seq.length - seq.periodic_tail
            top = max_usable_level(seq, extra_periods=4)
            start = rng.randint(2, max(2, top - 1))
            step = rng.randint(1, 2 * period)
            run = range(start, top + 1, step)[: rng.randint(1, 4)]
            head = rng.sample(range(2, start), min(start - 2, rng.randint(0, 2)))
            keep = (1, *sorted(head), *run)
            out = telescope(seq, keep)
            old = progression(seq, keep)
            if old is not None:
                assert out.periodic_tail == old, (seq, keep)
                same += 1
            else:
                more += out.is_tailed
        assert same > 500 and more > 200

    def test_self_similar_tail_kept(self):
        # every other level of the binary tree is the branching-4 tree
        assert telescope(full_tree(2, 2), (1, 3, 5)) == full_tree(4, 3)
        # from level 2, which has rank 2, no later tree level repeats
        assert telescope(full_tree(2, 2), (1, 2, 4)).periodic_tail is None

    def test_cyclic_tail_kept_across_part_periods(self):
        # steps of one level on a period-2 cycle: whole periods from level 2
        seq = two_path(2, 3, levels=3)
        out = telescope(seq, (1, 2, 3, 4))
        assert out.periodic_tail == 2
        assert out.map_at(9) == seq.map_at(9)

    @pytest.mark.parametrize(
        "seq, keep",
        [
            (full_tree(2, 2), (1,)),  # one kept level: nothing to repeat
            (scalar_chain(2, levels=5, tailed=False), (1, 3, 5)),  # no tail
        ],
    )
    def test_no_tail(self, seq, keep):
        assert telescope(seq, keep).periodic_tail is None


class TestInjectivize:
    def test_injective_input_unchanged(self):
        seq = two_path(2, 3)
        pruned, incl = injectivize(seq)
        assert pruned == seq
        assert incl == ((0, 1), (0, 1), (0, 1))

    def test_unused_coordinate_dropped(self):
        m = NonMixingMap(2, (0,), (1,))
        seq = BratteliSequence((2, 1), (m,), (1, 1))
        pruned, incl = injectivize(seq)
        assert pruned.ranks == (1, 1)
        assert incl == ((0,), (0,))

    def test_backward_reachability(self):
        m1 = NonMixingMap(3, (0, 0), (1, 1))
        m2 = NonMixingMap(2, (0, 1), (1, 1))
        seq = BratteliSequence((3, 2, 2), (m1, m2), (1, 1, 1))
        pruned, incl = injectivize(seq)
        assert pruned.ranks == (1, 2, 2)
        assert incl[0] == (0,)

    def test_result_is_injective(self):
        rng = random.Random(35)
        for _ in range(80):
            seq = random_sequence(rng)
            pruned, _ = injectivize(seq)
            assert pruned.is_injective_presentation()

    def test_cyclic_tail_dead_branch(self):
        # parent cycle {0}; coordinate 1 has no children and dies
        m = NonMixingMap(2, (0, 0), (1, 2))
        seq = BratteliSequence((2, 2), (m,), (1, 1), periodic_tail=1)
        pruned, incl = injectivize(seq)
        assert pruned.ranks == (1, 1)
        assert pruned.periodic_tail == 1
        assert all(k == (0,) for k in incl)

    def test_soundness_through_inclusions(self):
        # embed pruned elements on the kept coordinates; verdicts agree
        rng = random.Random(36)
        for _ in range(60):
            seq = random_sequence(rng, tail="none")
            pruned, incl = injectivize(seq)
            for _ in range(5):
                ta = rng.randint(1, pruned.length)
                tb = rng.randint(1, pruned.length)
                a = random_element(rng, pruned, ta)
                b = random_element(rng, pruned, tb)
                ea = _embed(seq, ta, a.vec, incl[ta - 1])
                eb = _embed(seq, tb, b.vec, incl[tb - 1])
                assert _limit_eq(pruned, a, b) == _limit_eq(seq, ea, eb)
                assert limit_leq(pruned, a, b) == limit_leq(seq, ea, eb)


def _embed(seq, level, vec, kept):
    full = [0] * seq.rank_at(level)
    for value, coord in zip(vec, kept):
        full[coord] = value
    return LimitElement(level, tuple(full))


def _kept_oracle(seq, t, horizon=None):
    """The level-t coordinates with a descendant at `horizon`, found by
    carrying each coordinate's label up with map_at alone.

    By default the horizon is the last level of an untailed sequence;
    with a tail it lies past the tail start and t by every block position
    plus one period, deeper than any dying position's descendants reach."""
    if horizon is None:
        horizon = seq.length
        if seq.is_tailed:
            p = seq.periodic_tail
            positions = sum(seq.ranks[b - 1] for b in range(p, seq.length))
            horizon = max(t, p) + positions + seq.length - p
    labels = range(seq.rank_at(t))
    for s in range(t, horizon):
        labels = [labels[i] for i in seq.map_at(s).parent]
    return tuple(sorted(set(labels)))


class TestKeepAt:
    def test_untailed_is_backward_reachability(self):
        m1 = NonMixingMap(3, (0, 0), (1, 1))
        m2 = NonMixingMap(2, (0, 1), (1, 1))
        seq = BratteliSequence((3, 2, 2), (m1, m2), (1, 1, 1))
        assert keep_at(seq, 1) == (0,)
        assert keep_at(seq, 2) == (0, 1)
        assert keep_at(seq, 3) == (0, 1)

    def test_untailed_levels_see_the_last_level(self):
        rng = random.Random(45)
        for _ in range(100):
            seq = random_sequence(rng, tail="none")
            L = seq.length
            for t in range(1, L + 1):
                want = tuple(sorted(set(seq.map_between(t, L).parent)))
                assert keep_at(seq, t) == want

    def test_injectivize_keeps_what_keep_at_keeps(self):
        rng = random.Random(46)
        for i in range(150):
            seq = random_sequence(rng, tail=("none", "cyclic", "sub")[i % 3])
            _, incl = injectivize(seq)
            assert all(incl)
            assert incl == tuple(keep_at(seq, t) for t in range(1, seq.length + 1))

    def test_injectivize_walks_down_once(self, count_calls):
        # no composite down from the last level, per level or at all
        rng = random.Random(47)
        maps = tuple(random_map(rng, 8, 8) for _ in range(399))
        seq = BratteliSequence((8,) * 400, maps, (1,) * 8)
        between = count_calls(BratteliSequence, "map_between")
        pruned, incl = injectivize(seq)
        assert between[0] == 0
        assert pruned.is_injective_presentation() and incl[-1] == tuple(range(8))

    def test_tailed_keeps_alive_coordinates(self):
        m = NonMixingMap(2, (0, 0), (1, 2))
        seq = BratteliSequence((2, 2), (m,), (1, 1), periodic_tail=1)
        for t in range(1, 6):
            assert keep_at(seq, t) == (0,)

    def test_matches_pushed_oracle(self):
        rng = random.Random(50)
        checked = {"none": 0, "cyclic": 0, "sub": 0}
        for i in range(900):
            tail = ("none", "cyclic", "sub")[i % 3]
            seq = random_sequence(rng, tail=tail)
            period = seq.length - (seq.periodic_tail or seq.length)
            for t in range(1, seq.length + 3 * period + 1):
                assert keep_at(seq, t) == _kept_oracle(seq, t), (seq, t)
                checked[tail] += 1
        assert min(checked.values()) > 1000

    @pytest.mark.parametrize("rank, period", [(4, 1), (5, 1), (6, 2), (7, 3)])
    def test_deaths_after_several_wraps(self, rank, period):
        # coordinate k's only child is k + 1 once per period (and 0 feeds
        # 0 and 1), so coordinate 1 dies rank - 2 periods later: the
        # downward sweep has to wrap the period that often
        entry = random_map(random.Random(rank), 2, rank)
        shift = NonMixingMap(rank, (0, 0) + tuple(range(1, rank - 1)), (1,) * rank)
        same = NonMixingMap(rank, tuple(range(rank)), (2,) * rank)
        maps = (entry, shift) + (same,) * (period - 1)
        seq = BratteliSequence((2,) + (rank,) * (period + 1), maps, (1, 1), 2)
        for t in range(2, seq.length + (rank + 1) * period):
            assert keep_at(seq, t) == (0,) == _kept_oracle(seq, t)
        # yet coordinate 1 still has descendants rank - 3 periods on
        assert 1 in _kept_oracle(seq, 2, horizon=2 + (rank - 3) * period)


class TestLimitComparisons:
    def test_pushed_image_is_equal(self):
        seq = scalar_chain(2)
        assert _limit_eq(seq, LimitElement(1, (1,)), LimitElement(2, (2,)))

    def test_unchecked_element_is_the_same_value(self):
        a, b = LimitElement._of(3, (1, -2, 0)), LimitElement(3, (1, -2, 0))
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)

    @pytest.mark.parametrize("level", [22, 10**8, 10**10])
    @pytest.mark.parametrize("compare", ["limit_leq", "forall_n_leq_limit"])
    def test_deep_element_refused_before_its_rank(self, compare, level, in_child):
        # the binary tree's level 22 is one past the listing budget; its
        # rank at level 10**8 has 30 million digits, too many to name in a
        # message, and at 10**10 it outgrows 1 GB; all are refused at once,
        # in a child under 1,000,000 KiB
        code = (
            "import time\n"
            "from bratteli import *\n"
            "tree = BratteliSequence((1, 2), (NonMixingMap(1, (0, 0), (1, 1)),), (1,), 1)\n"
            "start = time.perf_counter()\n"
            "try:\n"
            f"    {compare}(tree, LimitElement({level}, (0,)), LimitElement(1, (1,)))\n"
            "except TooLarge as e:\n"
            "    print(e, time.perf_counter() - start, sep='\\n')\n"
        )
        code, out, err, _ = in_child([], 1000000 * 1024, code=code)
        assert (code, err) == (0, "")
        message, secs = out.splitlines()
        if level == 22:
            assert message == "level 22 has 2097152 coordinates, more than 1048576 to list"
        else:
            assert message == f"level {level} has more than 1048576 coordinates to list"
        assert float(secs) < 1

    @pytest.mark.parametrize("compare", ["limit_leq", "forall_n_leq_limit"])
    def test_deep_cycle_compared_at_once(self, compare, in_child):
        # every coordinate of the rank-4 cycle triples each level, so the
        # composite to level 10**8 has multiplicities of 47 million digits;
        # cut at one past the largest |entry|, it is formed in a moment
        code = (
            "import time\n"
            "from bratteli import *\n"
            "m = NonMixingMap(4, (0, 1, 2, 3), (3, 3, 3, 3))\n"
            "seq = BratteliSequence((4, 4), (m,), (1, 1, 1, 1), 1)\n"
            "start = time.perf_counter()\n"
            f"got = {compare}(seq, LimitElement(1, (-1, 0, 0, 0)),\n"
            "                LimitElement(10**8, (1, 0, 0, -1)))\n"
            "print(got, time.perf_counter() - start, sep='\\n')\n"
        )
        code, out, err, _ = in_child([], 1000000 * 1024, code=code)
        assert (code, err) == (0, "")
        got, secs = out.splitlines()
        assert got == "False"
        assert float(secs) < 1

    def test_same_level_distinct(self):
        seq = scalar_chain(2)
        assert not _limit_eq(seq, LimitElement(1, (1,)), LimitElement(1, (2,)))

    def test_tree_pushforward(self):
        tree = full_tree(2, 3)
        a = LimitElement(2, (1, 1))
        b = LimitElement(3, tree.map_at(2).apply((1, 1)))
        assert _limit_eq(tree, a, b)

    def test_leq_reflexive_and_signed(self):
        seq = scalar_chain(2)
        x = LimitElement(1, (1,))
        assert limit_leq(seq, x, x)
        assert limit_leq(seq, LimitElement(1, (-1,)), LimitElement(1, (0,)))

    def test_mixed_signs_incomparable(self):
        seq = two_path(1, 1)
        a = LimitElement(1, (1, -1))
        b = LimitElement(1, (0, 0))
        assert not limit_leq(seq, a, b)
        assert not limit_leq(seq, b, a)

    def test_dead_coordinates_ignored(self):
        m = NonMixingMap(2, (0, 0), (1, 2))
        seq = BratteliSequence((2, 2), (m,), (1, 1), periodic_tail=1)
        # coordinate 1 never reaches deep levels, so it cannot separate
        assert _limit_eq(seq, LimitElement(1, (1, 5)), LimitElement(1, (1, -7)))

    def test_forall_n_pairs(self):
        seq = scalar_chain(2)
        assert forall_n_leq_limit(seq, LimitElement(1, (0,)), LimitElement(1, (0,)))
        assert not forall_n_leq_limit(seq, LimitElement(1, (1,)), LimitElement(1, (1000,)))
        pair = two_path(1, 1)
        assert forall_n_leq_limit(pair, LimitElement(1, (-2, 0)), LimitElement(1, (-2, 5)))

    def test_archimedean_on_injectivized(self):
        rng = random.Random(37)
        hits = 0
        for _ in range(50):
            seq, _ = injectivize(random_sequence(rng))
            top = max_usable_level(seq)
            for _ in range(20):
                x = random_element(rng, seq, rng.randint(1, top))
                if rng.random() < 0.5:
                    x = LimitElement(x.level, tuple(min(v, 0) for v in x.vec))
                y = random_element(rng, seq, rng.randint(1, top), lo=0)
                if forall_n_leq_limit(seq, x, y):
                    hits += 1
                    zero = LimitElement(x.level, (0,) * len(x.vec))
                    assert limit_leq(seq, x, zero)
        assert hits > 100


def _pushed_oracle(seq, el, m):
    # el pushed to level m one presented or unrolled map at a time
    vec = el.vec
    for t in range(el.level, m):
        vec = seq.map_at(t).apply(vec)
    return vec


class TestForallNSigns:
    def test_matches_pushed_oracle(self):
        # the sign shortcut agrees with the coordinatewise test on the
        # fully pushed pair, both verdicts common
        rng = random.Random(48)
        verdicts = {True: 0, False: 0}
        for i in range(1500):
            seq = random_sequence(rng, tail=("none", "cyclic", "sub")[i % 3])
            top = seq.length + (4 if seq.is_tailed else 0)
            for _ in range(4):
                a = random_element(rng, seq, rng.randint(1, top), lo=-3, hi=1)
                b = random_element(rng, seq, rng.randint(1, top), lo=-3, hi=3)
                m = max(a.level, b.level)
                x = _pushed_oracle(seq, a, m)
                y = _pushed_oracle(seq, b, m)
                kept = keep_at(seq, m)
                want = forall_n_leq([x[j] for j in kept], [y[j] for j in kept])
                assert forall_n_leq_limit(seq, a, b) == want
                verdicts[want] += 1
        assert min(verdicts.values()) > 1500

    def test_positive_kept_entry_pushes_nothing(self, count_calls):
        seq = long_chain(random.Random(49), 400)
        a = LimitElement(3, (-1,) * 7 + (1,))
        b = LimitElement(400, (5,) * 8)
        assert keep_at(seq, 3)[-1] == 7
        pushes = count_calls(BratteliSequence, "_push")
        assert not forall_n_leq_limit(seq, a, b)
        assert not forall_n_leq_limit(seq, b, a)
        assert pushes[0] == 0

    def test_checks_come_before_the_signs(self):
        # a has a positive kept entry, so the sign test alone would
        # answer False; the element checks still win
        m = NonMixingMap(2, (0, 0), (1, 2))
        seq = BratteliSequence((2, 2), (m,), (1, 1), periodic_tail=1)
        a = LimitElement(1, (1, 0))
        assert not forall_n_leq_limit(seq, a, a)
        with pytest.raises(RankMismatch):
            forall_n_leq_limit(seq, a, LimitElement(1, (0, 0, 0)))
        with pytest.raises(RankMismatch):
            forall_n_leq_limit(seq, LimitElement(2, (1, 0, 0)), a)
        untailed = scalar_chain(2, levels=3, tailed=False)
        with pytest.raises(LevelOutOfRange):
            forall_n_leq_limit(untailed, LimitElement(1, (1,)), LimitElement(4, (0,)))
