import random
from fractions import Fraction

import pytest

from bratteli import (
    BratteliSequence,
    INF,
    NonMixingMap,
    NotNormalized,
    NotPositive,
    RankMismatch,
    StateVector,
    SupernaturalNumber,
    depth_image_vertices,
    restate_unit,
    simplex_vertices,
    verify_state_invariance,
)

from genseq import (
    full_tree,
    max_usable_level,
    random_map,
    random_sequence,
    random_unit,
    scalar_chain,
    two_path,
)


def random_state(rng, unit):
    raw = [rng.randint(0, 5) for _ in unit]
    if not any(raw):
        raw[rng.randrange(len(raw))] = 1
    total = sum(r * u for r, u in zip(raw, unit))
    return StateVector(tuple(Fraction(r, total) for r in raw), unit)


def random_supernat(rng):
    fac = {}
    for p in (2, 3, 5):
        pick = rng.randrange(4)
        if pick == 1:
            fac[p] = rng.randint(1, 3)
        elif pick == 2:
            fac[p] = INF
    return SupernaturalNumber(fac)


def pulled_back_vertices(seq, level, depth):
    """Oracle for depth_image_vertices from the defining identity
    (dual s)(x) = s(alpha x), with alpha the composite level -> depth.

    Pushes the unit and each basis vector e_i one level at a time; the
    pull-back of the extreme state e_j / v_j then takes the value
    (alpha e_i)_j / v_j on e_i.
    """

    def push(x, lo, hi):
        for t in range(lo, hi):
            x = seq.map_at(t).apply(x)
        return x

    rank = seq.rank_at(level)
    v = push(push(seq.base_unit, 1, level), level, depth)
    images = [
        push(tuple(int(k == i) for k in range(rank)), level, depth)
        for i in range(rank)
    ]
    return tuple(
        tuple(Fraction(image[j], v[j]) for image in images) for j in range(len(v))
    )


def pull_back(state, alpha, unit):
    """The state x -> state(alpha x) on the source of alpha, normalized
    against `unit`, the unit alpha carries to state.unit."""
    basis = [tuple(int(k == i) for k in range(len(unit))) for i in range(len(unit))]
    return StateVector(tuple(state.evaluate(alpha.apply(e)) for e in basis), unit)


def one_step(alpha, unit):
    """Two-level sequence presenting alpha from `unit`."""
    return BratteliSequence((alpha.source_rank, alpha.target_rank), (alpha,), unit)


class TestStateVector:
    def test_normalization_checked(self):
        StateVector((Fraction(1, 3), Fraction(1, 3)), (1, 2))
        with pytest.raises(NotNormalized):
            StateVector((Fraction(1, 2), Fraction(1, 2)), (1, 2))
        with pytest.raises(NotPositive):
            StateVector((Fraction(3, 2), Fraction(-1, 4)), (1, 2))
        with pytest.raises(RankMismatch):
            StateVector((Fraction(1),), (1, 1))

    def test_evaluate(self):
        s = StateVector((Fraction(1, 2), Fraction(0)), (2, 3))
        assert s.evaluate((4, 6)) == 2
        assert s.evaluate(s.unit) == 1


class TestDualMap:
    """Pulling extreme states back along the dual of a map."""

    def test_oracle(self):
        alpha = NonMixingMap.from_matrix(((2, 0), (3, 0), (0, 1)))
        assert alpha.push_unit((1, 1)) == (2, 3, 1)
        got = depth_image_vertices(one_step(alpha, (1, 1)), 1, 2)
        assert got == ((1, 0), (1, 0), (0, 1))

    def test_identity_dual(self):
        u = (2, 5)
        seq = one_step(NonMixingMap.identity(2), u)
        assert depth_image_vertices(seq, 1, 2) == tuple(
            v.values for v in simplex_vertices(2, u)
        )

    def test_scalar_dual(self):
        seq = one_step(NonMixingMap.scalar(1, 4), (1,))
        assert depth_image_vertices(seq, 1, 2) == ((1,),)

    def test_transport_identity(self):
        # each pulled-back vertex s' satisfies s'(x) == s(alpha x)
        rng = random.Random(62)
        for _ in range(500):
            src = rng.randint(1, 4)
            alpha = random_map(rng, src, rng.randint(1, 4))
            u = random_unit(rng, src)
            v = alpha.push_unit(u)
            got = depth_image_vertices(one_step(alpha, u), 1, 2)
            x = tuple(rng.randint(-6, 6) for _ in range(src))
            for s, values in zip(simplex_vertices(len(v), v), got):
                assert StateVector(values, u).evaluate(x) == s.evaluate(alpha.apply(x))

    def test_functoriality(self):
        # pulling back in two steps through a middle level is one step
        rng = random.Random(63)
        for _ in range(200):
            seq = random_sequence(rng)
            top = max_usable_level(seq)
            level = rng.randint(1, top)
            mid = rng.randint(level, top)
            depth = rng.randint(mid, top)
            u = seq.unit_at(level)
            alpha = seq.map_between(level, mid)
            w = seq.unit_at(mid)
            two_steps = tuple(
                pull_back(StateVector(values, w), alpha, u).values
                for values in depth_image_vertices(seq, mid, depth)
            )
            assert two_steps == depth_image_vertices(seq, level, depth)

    def test_matches_pushforward_oracle(self):
        rng = random.Random(68)
        for k in range(300):
            seq = random_sequence(rng, tail=("none", "cyclic", "sub")[k % 3])
            top = max_usable_level(seq)
            level = rng.randint(1, top)
            depth = rng.randint(level, top)
            want = pulled_back_vertices(seq, level, depth)
            assert depth_image_vertices(seq, level, depth) == want
            u = seq.unit_at(level)
            for values in want:
                StateVector(values, u)


class TestSimplex:
    def test_vertices_oracle(self):
        vs = simplex_vertices(2, (2, 3))
        assert [v.values for v in vs] == [
            (Fraction(1, 2), Fraction(0)),
            (Fraction(0), Fraction(1, 3)),
        ]

    def test_point_simplex_of_a_chain(self):
        pulled = depth_image_vertices(scalar_chain(2), 1, 5)
        assert pulled == ((Fraction(1),),)

    def test_two_path_keeps_both_traces(self):
        seq = two_path(2, 3)
        for depth in (2, 3, 5):
            got = set(depth_image_vertices(seq, 1, depth))
            assert got == {(1, 0), (0, 1)}

    def test_tree_keeps_every_trace(self):
        tree = full_tree(2, 3)
        got = set(depth_image_vertices(tree, 2, 4))
        assert got == {(1, 0), (0, 1)}

    def test_dead_branch_loses_its_vertex(self):
        m = NonMixingMap(2, (0, 0), (1, 2))
        seq = BratteliSequence((2, 2), (m,), (1, 1), periodic_tail=1)
        assert set(depth_image_vertices(seq, 1, 1)) == {(1, 0), (0, 1)}
        assert set(depth_image_vertices(seq, 1, 4)) == {(1, 0)}

    def test_images_are_parent_vertices(self):
        # a vertex at depth d pulls back to the vertex of its ancestor
        rng = random.Random(64)
        for _ in range(40):
            seq = random_sequence(rng)
            top = max_usable_level(seq)
            level = rng.randint(1, top)
            depth = rng.randint(level, top)
            u = seq.unit_at(level)
            vs = simplex_vertices(seq.rank_at(level), u)
            want = {
                vs[i].values for i in set(seq.map_between(level, depth).parent)
            }
            assert set(depth_image_vertices(seq, level, depth)) == want

    def test_nested_images(self):
        # the vertices of each stage are vertices of every shallower one
        rng = random.Random(65)
        for _ in range(25):
            seq = random_sequence(rng, max_rank=4)
            top = max_usable_level(seq)
            level = rng.randint(1, top)
            stages = [
                set(depth_image_vertices(seq, level, d)) for d in range(level, top + 1)
            ]
            for shallow, deep in zip(stages, stages[1:]):
                assert deep <= shallow


class TestRestate:
    def test_oracle(self):
        s = StateVector((Fraction(1, 2), Fraction(0)), (2, 3))
        r = restate_unit(s, (1, 1))
        assert r.values == (1, 0)
        assert r.unit == (1, 1)

    def test_involution(self):
        rng = random.Random(66)
        for _ in range(200):
            rank = rng.randint(1, 4)
            u = random_unit(rng, rank)
            w = random_unit(rng, rank)
            s = random_state(rng, u)
            assert restate_unit(restate_unit(s, w), u) == s

    def test_rank_checked(self):
        s = StateVector((Fraction(1),), (1,))
        with pytest.raises(RankMismatch):
            restate_unit(s, (1, 1))


class TestStateInvariance:
    def test_chain_against_triadic(self):
        n = SupernaturalNumber.parse("3^inf")
        assert verify_state_invariance(scalar_chain(2), n, 5)

    def test_wrong_rescaling_detected(self, monkeypatch):
        import bratteli.tensor as tensor

        real = tensor.tensor_qn
        chain = scalar_chain(2)
        five = SupernaturalNumber.parse("5^inf")
        three = SupernaturalNumber.parse("3^inf")
        monkeypatch.setattr(tensor, "tensor_qn", lambda seq, n, d: real(seq, five, d))
        assert not verify_state_invariance(chain, three, 4)
        monkeypatch.setattr(
            tensor, "tensor_qn", lambda seq, n, d: real(two_path(2, 2), n, d)
        )
        assert not verify_state_invariance(chain, three, 4)

    def test_random_sequences(self):
        rng = random.Random(67)
        for _ in range(30):
            seq = random_sequence(rng)
            depth = min(max_usable_level(seq), rng.randint(2, 6))
            n = random_supernat(rng)
            assert verify_state_invariance(seq, n, depth)
