import random
from collections import Counter
from math import lcm

import pytest

from bratteli import (
    BadRepeat,
    BratteliSequence,
    LevelOutOfRange,
    NonMixingMap,
    SupernaturalNumber,
    tensor_map,
    tensor_qn,
    tensor_seq,
    tensor_vec,
)
from bratteli.fileformat import serialize_diagram

from genseq import full_tree, random_map, random_sequence, scalar_chain, two_path


def dense(f):
    """f's matrix: row j holds mult[j] in column parent[j], zeros elsewhere."""
    r = f.source_rank
    return tuple(tuple(k * (c == i) for c in range(r)) for i, k in zip(f.parent, f.mult))


def kron(F, G):
    out = []
    for frow in F:
        for grow in G:
            out.append(tuple(a * b for a in frow for b in grow))
    return tuple(out)


class TestTensorVec:
    def test_row_major_oracle(self):
        assert tensor_vec((1, 2), (3, 4, 5)) == (3, 4, 5, 6, 8, 10)

    def test_scalar_factor(self):
        assert tensor_vec((7,), (2, 3)) == (14, 21)


class TestTensorMap:
    def test_oracle(self):
        f = NonMixingMap(1, (0, 0), (2, 3))
        g = NonMixingMap(2, (0, 1), (5, 7))
        fg = tensor_map(f, g)
        assert fg.source_rank == 2
        assert fg.parent == (0, 1, 0, 1)
        assert fg.mult == (10, 14, 15, 21)

    def test_matches_matrix_kronecker(self):
        rng = random.Random(41)
        for _ in range(500):
            f = random_map(rng, rng.randint(1, 3), rng.randint(1, 4))
            g = random_map(rng, rng.randint(1, 3), rng.randint(1, 4))
            assert dense(tensor_map(f, g)) == kron(dense(f), dense(g))

    def test_elementary_tensors(self):
        rng = random.Random(42)
        for _ in range(500):
            sf, sg = rng.randint(1, 3), rng.randint(1, 3)
            f = random_map(rng, sf, rng.randint(1, 4))
            g = random_map(rng, sg, rng.randint(1, 4))
            u = tuple(rng.randint(-5, 5) for _ in range(sf))
            v = tuple(rng.randint(-5, 5) for _ in range(sg))
            assert tensor_map(f, g).apply(tensor_vec(u, v)) == tensor_vec(
                f.apply(u), g.apply(v)
            )

    def test_identity_factors(self):
        g = NonMixingMap(2, (0, 1, 1), (4, 5, 6))
        one = NonMixingMap(1, (0,), (1,))
        assert tensor_map(one, g) == g
        gi = tensor_map(g, one)
        assert gi == g


class TestTensorSeq:
    def test_doubling_squared(self):
        out = tensor_seq(scalar_chain(2), scalar_chain(2))
        assert out.ranks == (1, 1)
        assert out.maps[0].mult == (4,)
        assert out.periodic_tail == 1

    def test_unit_sequence_is_neutral(self):
        one = BratteliSequence((1, 1), (NonMixingMap(1, (0,), (1,)),), (1,), 1)
        a = two_path(2, 3)
        assert tensor_seq(one, a) == a

    def test_untailed_oracle(self):
        a = BratteliSequence((1, 2), (NonMixingMap(1, (0, 0), (2, 3)),), (1,))
        b = scalar_chain(5, levels=2, tailed=False)
        out = tensor_seq(a, b)
        assert out.ranks == (1, 2)
        assert out.maps[0].parent == (0, 0)
        assert out.maps[0].mult == (10, 15)
        assert out.periodic_tail is None

    def test_mixed_truncates_to_untailed_factor(self):
        a = BratteliSequence((1, 2), (NonMixingMap(1, (0, 0), (2, 3)),), (1,))
        out = tensor_seq(a, scalar_chain(3))
        assert out.length == 2
        assert out.periodic_tail is None
        assert out.maps[0].mult == (6, 9)

    def test_trees_tensor_to_wider_tree(self):
        out = tensor_seq(full_tree(2, 2), full_tree(2, 2))
        assert out == full_tree(4, 2)
        assert out.tail_kind == "substitution"
        assert out.rank_at(3) == 16

    def test_combined_period_is_lcm(self):
        # period 1 times period 2 presents levels 1..3 and keeps the tail
        out = tensor_seq(scalar_chain(2), two_path(2, 3))
        assert out.length == 3
        assert out.periodic_tail == 1
        assert out.ranks == (2, 2, 2)
        assert all(m.mult == (4, 6) for m in out.maps)

    def test_tail_dropped_when_pattern_cannot_close(self):
        # cyclic rank 2 against a growing tree: neither reading fits
        out = tensor_seq(two_path(1, 1), full_tree(2, 2))
        assert out.periodic_tail is None
        assert out.ranks == (2, 4, 8)

    def test_tail_dropped_when_restart_level_is_wide(self):
        a1 = NonMixingMap(1, (0, 0), (1, 2))
        a2 = NonMixingMap(2, (0, 1), (2, 1))
        late = BratteliSequence((1, 2, 2), (a1, a2), (1,), periodic_tail=2)
        out = tensor_seq(full_tree(2, 2), late)
        assert out.periodic_tail is None
        assert out.ranks == (1, 4, 8)

    def test_units_multiply_levelwise(self):
        pairs = [
            (scalar_chain(2), two_path(2, 3)),
            (two_path(3, 1), two_path(1, 4)),
            (scalar_chain(3, levels=3, tailed=False), two_path(2, 2)),
        ]
        for a, b in pairs:
            out = tensor_seq(a, b)
            for t in range(1, out.length + 1):
                assert out.unit_at(t) == tensor_vec(a.unit_at(t), b.unit_at(t))
                assert out.rank_at(t) == a.rank_at(t) * b.rank_at(t)

    def test_kept_tails_past_the_presented_levels(self):
        # three periods past the presented levels, every kept tail has
        # the product ranks, and a cyclic-by-cyclic one the row-major
        # product maps; with a substitution factor the rows may come out
        # permuted, so only ranks are checked there
        rng = random.Random(11)
        seen = {"cyclic": 0, "substitution": 0}
        for _ in range(1500):
            a = random_sequence(rng, tail=rng.choice(("cyclic", "sub")))
            b = random_sequence(rng, tail=rng.choice(("cyclic", "sub")))
            out = tensor_seq(a, b)
            if not out.is_tailed:
                continue
            cyclic = a.tail_kind == b.tail_kind == "cyclic"
            seen["cyclic" if cyclic else "substitution"] += 1
            horizon = out.length + 3 * (out.length - out.periodic_tail)
            for t in range(1, horizon):
                assert out.rank_at(t) == a.rank_at(t) * b.rank_at(t)
                if cyclic:
                    assert out.map_at(t) == tensor_map(a.map_at(t), b.map_at(t))
        assert seen["cyclic"] > 600 and seen["substitution"] > 250

    def test_tail_kept_only_when_both_factors_repeat(self):
        # with P and M as tensor_seq takes them, a factor's diagram from
        # P on repeats below every node of P, P + M, P + 2M, ... when its
        # rank at P is 1 or stays the same over M levels.  A kept tail
        # needs both factors to repeat, and then also one tail shape of
        # the product: both factors of rank 1 at P, or both keeping it
        rng = random.Random(12)
        seen = Counter()
        for _ in range(1500):
            a, b = (random_sequence(rng, tail=rng.choice(("cyclic", "sub"))) for _ in "ab")
            P = max(a.periodic_tail, b.periodic_tail)
            M = lcm(a.length - a.periodic_tail, b.length - b.periodic_tail)
            ranks = [(s.rank_at(P), s.rank_at(P + M)) for s in (a, b)]
            repeats = all(r in (1, later) for r, later in ranks)
            shape = all(r == 1 for r, _ in ranks) or all(r == later for r, later in ranks)
            tailed = tensor_seq(a, b).is_tailed
            assert tailed == shape, (a, b)
            assert repeats or not tailed, (a, b)
            seen[repeats, tailed] += 1
        assert min(seen[True, True], seen[True, False], seen[False, False]) > 200


    def test_same_bytes_as_the_rule_tried_by_construction(self):
        # tensor_seq used to give the product the tail start max(p_A, p_B)
        # whenever BratteliSequence accepted it there; the one tail rule
        # must keep every product byte for byte
        def tried(a, b, out):
            if not (a.is_tailed and b.is_tailed):
                return out
            P = max(a.periodic_tail, b.periodic_tail)
            try:
                return BratteliSequence(out.ranks, out.maps, out.base_unit, P)
            except BadRepeat:
                return BratteliSequence(out.ranks, out.maps, out.base_unit)

        rng = random.Random(13)
        kept = 0
        for _ in range(1500):
            a, b = random_sequence(rng), random_sequence(rng)
            out = tensor_seq(a, b)
            want = tried(a, b, BratteliSequence(out.ranks, out.maps, out.base_unit))
            assert serialize_diagram(out) == serialize_diagram(want), (a, b)
            kept += out.is_tailed
        assert kept > 500


class TestTensorQn:
    def test_tail_kept_from_the_steady_step(self):
        # 12 = 2^2*3 gives the maps the factors 6, 1, 1, ...: constant
        # from the map out of level 2 on, so the tail starts there
        out = tensor_qn(scalar_chain(5), SupernaturalNumber.from_natural(12), 4)
        assert out.periodic_tail == 2
        assert out.map_at(7).mult == (5,)
        # 2^inf*3 settles at step 2 too, on a period-2 cycle whose tail
        # starts at level 1: the least start past both with whole periods
        # to level 7 is level 3
        seq = BratteliSequence(
            (2, 2, 2),
            (NonMixingMap(2, (1, 0), (1, 2)), NonMixingMap(2, (0, 1), (3, 1))),
            (1, 1),
            periodic_tail=1,
        )
        out = tensor_qn(seq, SupernaturalNumber.parse("2^inf*3"), 7)
        assert out.periodic_tail == 3
        assert out.map_at(9) == NonMixingMap(2, (1, 0), (2, 4))

    def test_self_similar_tail_kept_at_its_start(self):
        out = tensor_qn(full_tree(2, 2), SupernaturalNumber.parse("3^inf"), 5)
        assert out.periodic_tail == 1
        assert out.ranks == (1, 2, 4, 8, 16)
        assert out.map_at(6).mult == (3,) * 64

    @pytest.mark.parametrize(
        "seq, depth",
        [
            (two_path(2, 3), 1),  # one level: nothing to repeat
            (scalar_chain(3, levels=4, tailed=False), 4),  # no tail to keep
            # 2^inf*3 settles at step 2, past the tree's one rank-1 level
            (full_tree(2, 2), 5),
        ],
    )
    def test_no_tail(self, seq, depth):
        out = tensor_qn(seq, SupernaturalNumber.parse("2^inf*3"), depth)
        assert out.periodic_tail is None

    def test_one_changes_nothing(self):
        seq = scalar_chain(3, levels=4, tailed=False)
        out = tensor_qn(seq, SupernaturalNumber.one(), 4)
        assert out.ranks == seq.ranks
        assert out.maps == seq.maps
        assert out.base_unit == seq.base_unit
        assert out.periodic_tail is None

    def test_dyadic_times_triadic(self):
        out = tensor_qn(scalar_chain(2), SupernaturalNumber.parse("3^inf"), 4)
        assert out.base_unit == (3,)
        assert [m.mult for m in out.maps] == [(6,), (6,), (6,)]
        assert out.ranks == (1, 1, 1, 1)

    def test_dyadic_squared(self):
        out = tensor_qn(scalar_chain(2), SupernaturalNumber.parse("2^inf"), 3)
        assert out.base_unit == (2,)
        assert [m.mult for m in out.maps] == [(4,), (4,)]

    def test_finite_factor_exhausts(self):
        # 12 = 2^2*3 enters as the chain 2 | 12 | 12 | ...
        out = tensor_qn(scalar_chain(5), SupernaturalNumber.from_natural(12), 4)
        assert out.base_unit == (2,)
        assert [m.mult for m in out.maps] == [(30,), (5,), (5,)]

    def test_parents_and_ranks_preserved(self):
        tree = full_tree(2, 2)
        n = SupernaturalNumber.parse("3^inf")
        out = tensor_qn(tree, n, 3)
        ratios = n.associated_ratios(3)
        assert out.ranks == tuple(tree.rank_at(t) for t in (1, 2, 3))
        for i in range(1, 3):
            a, b = tree.map_at(i), out.map_at(i)
            k = ratios[i]
            assert b.parent == a.parent
            assert b.mult == tuple(m * k for m in a.mult)

    def test_depth_checked_on_untailed(self):
        seq = scalar_chain(2, levels=2, tailed=False)
        with pytest.raises(LevelOutOfRange):
            tensor_qn(seq, SupernaturalNumber.one(), 3)

    def test_depth_one_only_scales_unit(self):
        out = tensor_qn(two_path(2, 3), SupernaturalNumber.from_natural(6), 1)
        assert out.ranks == (2,)
        assert out.maps == ()
        assert out.base_unit == (2, 2)
