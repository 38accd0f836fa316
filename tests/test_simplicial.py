import random

import pytest

from bratteli import (
    NonMixingMap,
    NotPositive,
    RankMismatch,
    forall_n_leq,
    is_order_unit,
)

from genseq import random_map


def matrix(f):
    """The rows of f's matrix: column i is f applied to the basis vector e_i."""
    r = f.source_rank
    return tuple(zip(*(f.apply([int(k == i) for k in range(r)]) for i in range(r))))


class TestFromMatrix:
    """A matrix with one nonzero entry per row, written as the map's
    literal parents and multiplicities."""

    def test_reads_single_entry_rows(self):
        # the rows (2, 0), (3, 0), (0, 1)
        f = NonMixingMap(2, (0, 0, 1), (2, 3, 1))
        assert matrix(f) == ((2, 0), (3, 0), (0, 1))
        assert f.source_rank == 2
        assert f.target_rank == 3

    def test_rejects_two_entries_in_a_row(self):
        # the row (1, 1) would need two parents
        with pytest.raises(RankMismatch):
            NonMixingMap(2, ((0, 1),), (1,))

    def test_rejects_negative_entry(self):
        # the row (0, -1)
        with pytest.raises(NotPositive):
            NonMixingMap(2, (1,), (-1,))

    def test_rejects_zero_row(self):
        # the rows (0, 0), (1, 0)
        with pytest.raises(NotPositive):
            NonMixingMap(2, (0, 0), (0, 1))

    def test_matrix_round_trip(self):
        # each row of the matrix reads back as its one parent and multiplicity
        rng = random.Random(21)
        for _ in range(50):
            f = random_map(rng, rng.randint(1, 5), rng.randint(1, 5), max_mult=9)
            rows = [[(i, v) for i, v in enumerate(row) if v] for row in matrix(f)]
            assert rows == [[(i, k)] for i, k in zip(f.parent, f.mult)]


class TestApply:
    def test_multiplies_along_parents(self):
        f = NonMixingMap(2, (0, 0, 1), (2, 3, 1))
        assert f.apply((1, 1)) == (2, 3, 1)

    def test_identity(self):
        f = NonMixingMap(4, range(4), (1,) * 4)
        x = (5, -2, 0, 9)
        assert f.apply(x) == x

    def test_projection_with_scaling(self):
        f = NonMixingMap(2, (1,), (5,))
        assert f.apply((7, 4)) == (20,)

    def test_rank_checked(self):
        f = NonMixingMap(2, (0,), (1,))
        with pytest.raises(RankMismatch):
            f.apply((1, 2, 3))


class TestCompose:
    def test_identities(self):
        e = NonMixingMap(2, range(2), (1, 1))
        assert e.compose(e) == e

    def test_scalars_multiply(self):
        f = NonMixingMap(1, (0,), (2,))
        g = NonMixingMap(1, (0,), (3,))
        assert g.compose(f) == NonMixingMap(1, (0,), (6,))

    def test_split_then_project(self):
        f = NonMixingMap(1, (0, 0), (2, 3))
        g = NonMixingMap(2, (1,), (5,))
        gf = g.compose(f)
        assert gf.parent == (0,)
        assert gf.mult == (15,)
        assert gf.apply((1,)) == (15,)

    def test_rank_mismatch_rejected(self):
        f = NonMixingMap(1, (0, 0), (1, 1))
        with pytest.raises(RankMismatch):
            f.compose(f)

    def test_associative(self):
        rng = random.Random(22)
        for _ in range(500):
            r = [rng.randint(1, 5) for _ in range(4)]
            f = random_map(rng, r[0], r[1])
            g = random_map(rng, r[1], r[2])
            h = random_map(rng, r[2], r[3])
            assert h.compose(g).compose(f) == h.compose(g.compose(f))

    def test_agrees_with_pointwise_application(self):
        rng = random.Random(23)
        for _ in range(1000):
            a, b, c = (rng.randint(1, 5) for _ in range(3))
            f = random_map(rng, a, b)
            g = random_map(rng, b, c)
            x = tuple(rng.randint(-9, 9) for _ in range(a))
            assert g.compose(f).apply(x) == g.apply(f.apply(x))


class TestUnits:
    def test_push_unit_examples(self):
        f = NonMixingMap(2, (0, 0, 1), (2, 3, 1))
        assert f.apply((1, 1)) == (2, 3, 1)
        e = NonMixingMap(3, range(3), (1,) * 3)
        assert e.apply((4, 1, 2)) == (4, 1, 2)
        g = NonMixingMap(2, (0,), (4,))
        assert g.apply((3, 5)) == (12,)

    def test_pushed_units_stay_units(self):
        rng = random.Random(24)
        for _ in range(300):
            a, b = rng.randint(1, 5), rng.randint(1, 5)
            f = random_map(rng, a, b)
            u = tuple(rng.randint(1, 6) for _ in range(a))
            assert is_order_unit(f.apply(u))


class TestInjectivity:
    def test_surjective_parents(self):
        assert NonMixingMap(2, (0, 0, 1), (2, 3, 1)).is_injective()

    def test_unused_source_coordinate(self):
        assert not NonMixingMap(2, (0, 0), (1, 1)).is_injective()

    def test_identity_injective(self):
        assert NonMixingMap(3, range(3), (1,) * 3).is_injective()


class TestOrderPredicates:
    def test_order_unit_is_strict_positivity(self):
        assert is_order_unit((1, 2))
        assert not is_order_unit((1, 0))
        assert not is_order_unit(())

    def test_forall_n_leq_zero_pair(self):
        assert forall_n_leq((0, 0), (0, 0))

    def test_forall_n_leq_positive_coordinate_escapes(self):
        assert not forall_n_leq((1, 0), (10**6, 0))

    def test_forall_n_leq_negative_coordinates(self):
        assert forall_n_leq((-1, 0), (-1, 3))
        assert not forall_n_leq((-1, 0), (0, -1))

    def test_archimedean_law(self):
        # (for all n: nx <= y) forces x <= 0 coordinatewise
        rng = random.Random(25)
        hits = 0
        for _ in range(1000):
            r = rng.randint(1, 5)
            x = tuple(rng.randint(-3, 3) for _ in range(r))
            y = tuple(rng.randint(-3, 3) for _ in range(r))
            if forall_n_leq(x, y):
                hits += 1
                assert all(v <= 0 for v in x)
        assert hits > 50
