import random
import time

import pytest

from bratteli import (
    BratteliSequence,
    Cardinality,
    Equivalent,
    IndexSystem,
    Intertwining,
    NonMixingMap,
    NotEquivalent,
    Unknown,
    canonicalize_q,
    equivalence_certificate_failures,
    equivalent_q,
    injectivize,
    not_equivalent_failures,
)
from bratteli import certio, diagram, equiv

from genseq import (
    full_tree,
    long_chain,
    random_sequence,
    replace,
    scalar_chain,
    two_path,
)


def _cardinality(seq):
    return equiv._path_space(seq)[1]


def shape(sizes, parents, tail=None, mult=1):
    """A sequence with the given parent functions and one multiplicity."""
    maps = tuple(
        NonMixingMap(sizes[i], tuple(ps), (mult,) * len(ps))
        for i, ps in enumerate(parents)
    )
    return BratteliSequence(tuple(sizes), maps, (1,) * sizes[0], tail)


class TestCanonicalize:
    def test_chain_oracle(self):
        sys, units = canonicalize_q(scalar_chain(2, levels=3, tailed=False))
        assert sys == IndexSystem((1, 1, 1), ((0,), (0,)))
        assert units == ((1,), (2,), (4,))

    def test_multiplicity_dissolves(self):
        left, _ = canonicalize_q(scalar_chain(2))
        right, _ = canonicalize_q(scalar_chain(3))
        assert left == right
        assert left.periodic_tail == 1

    def test_two_path_oracle(self):
        sys, units = canonicalize_q(two_path(2, 7, levels=3))
        assert sys.sizes == (2, 2, 2)
        assert sys.parents == ((0, 1), (0, 1))
        assert units[2] == (4, 49)

    def test_shape_of_a_tree(self):
        sys, _ = canonicalize_q(full_tree(2, 2))
        assert sys.sizes == (1, 2)
        assert sys.parents == ((0, 0),)
        assert sys.periodic_tail == 1
        assert sys.proj(2, 3) == (0, 0, 1, 1)
        assert sys.proj(1, 3) == (0, 0, 0, 0)

    def test_diagonals_are_inverse_unit_images(self):
        # the units u_t behind the diagonals 1/u_t, at every presented
        # level, against unit_at's push from level 1
        rng = random.Random(41)
        for i in range(300):
            seq = random_sequence(rng, tail=("none", "cyclic", "sub")[i % 3])
            _, units = canonicalize_q(seq)
            assert len(units) == seq.length
            for t in range(1, seq.length + 1):
                assert units[t - 1] == seq.unit_at(t)

    def test_linear_in_the_levels(self, count_calls):
        # rebuilding the level-1 composite for every level would take
        # L * (L - 1) / 2 = 79 800 map_at calls here
        L = 400
        seq = long_chain(random.Random(42), L)
        calls = count_calls(BratteliSequence, "map_at")
        canonicalize_q(seq)
        assert calls[0] <= 2 * L


class TestSurjectivize:
    """The onto part of a tailed presentation, whose level sizes the
    equivalence decision reads off each side's kept counts."""

    def test_dead_branch(self):
        seq = shape((2, 2), ((0, 0),), 1)
        pruned, incl = injectivize(seq)
        assert pruned.ranks == (1, 1)
        assert incl == ((0,), (0,))

    def test_image_settles_into_cycle(self):
        seq = shape((3, 3), ((0, 0, 1),), 1)
        pruned, incl = injectivize(seq)
        assert pruned.ranks == (1, 1)
        assert incl == ((0,), (0,))

    def test_already_onto(self):
        seq = shape((2, 2), ((1, 0),), 1)
        pruned, incl = injectivize(seq)
        assert pruned == seq
        assert incl == ((0, 1), (0, 1))


class TestCardinality:
    def test_str_forms(self):
        assert str(Cardinality.finite(3)) == "3"
        assert str(Cardinality.infinite()) == "infinite"
        assert str(Cardinality.lower_bound(2)) == ">=2"

    def test_validation(self):
        with pytest.raises(ValueError):
            Cardinality("huge")
        with pytest.raises(ValueError):
            Cardinality("finite")
        with pytest.raises(ValueError):
            Cardinality("infinite", 3)

    def test_untailed_is_a_lower_bound(self):
        assert _cardinality(shape((1, 2), ((0, 0),))) == Cardinality.lower_bound(2)

    def test_single_chain(self):
        assert _cardinality(shape((1, 1), ((0,),), 1)) == Cardinality.finite(1)

    def test_two_paths(self):
        assert _cardinality(shape((2, 2), ((0, 1),), 1)) == Cardinality.finite(2)

    def test_dead_branch_collapses(self):
        assert _cardinality(shape((2, 2), ((0, 0),), 1)) == Cardinality.finite(1)

    def test_tree_is_infinite(self):
        for mult in (1, 5):
            tree = shape((1, 2), ((0, 0),), 1, mult)
            assert _cardinality(tree) == Cardinality.infinite()

    def test_cyclic_tails_are_always_finite(self):
        rng = random.Random(71)
        for _ in range(60):
            seq = random_sequence(rng, tail="cyclic")
            assert _cardinality(seq).kind == "finite"


class TestDichotomy:
    def test_tailed_limits_are_finite_or_one_rooted(self):
        # a cyclic tail keeps its rank, so its limit is finite; an
        # infinite limit prunes to one root at the tail start p and
        # N >= 2 nodes at L, each restarting that root: a Cantor set
        rng = random.Random(7)
        seen = {"finite": 0, "infinite": 0}
        for _ in range(3000):
            tail = rng.choice(("cyclic", "sub"))
            seq = random_sequence(rng, max_levels=6, tail=tail)
            kind = _cardinality(seq).kind
            seen[kind] += 1
            if kind == "finite":
                continue
            pruned, _ = injectivize(seq)
            p, L = pruned.periodic_tail, pruned.length
            n = pruned.rank_at(L)
            assert seq.tail_kind == "substitution"
            assert pruned.rank_at(p) == 1 and n >= 2
            assert pruned.rank_at(L + (L - p)) == n * n
        assert seen["finite"] > 1000 and seen["infinite"] > 500


class TestFindIntertwining:
    """The Intertwining that equivalent_q puts in its certificates."""

    def _tw(self, left, right):
        verdict = equivalent_q(left, right)
        assert isinstance(verdict, Equivalent)
        assert equivalence_certificate_failures(verdict.certificate) == []
        return verdict.certificate.intertwining

    def test_single_chains(self):
        chain = shape((1, 1), ((0,),), 1)
        tw = self._tw(chain, chain)
        assert tw.closure == "stable-bijection"
        assert tw.left_levels == (1,)
        assert tw.right_levels == (1,)
        assert tw.f_maps == ((0,),)
        assert tw.g_maps == ()

    def test_two_points_against_swap(self):
        a = shape((2, 2), ((0, 1),), 1)
        b = shape((2, 2), ((1, 0),), 1, mult=3)
        tw = self._tw(a, b)
        assert tw.f_maps == ((0, 1),)

    def test_different_finite_counts(self):
        a = shape((1, 1), ((0,),), 1)
        b = shape((2, 2), ((0, 1),), 1)
        verdict = equivalent_q(a, b)
        assert isinstance(verdict, NotEquivalent)
        assert verdict.reason == "cardinality"

    def test_trees_restart_cut(self):
        tw = self._tw(full_tree(2, 2), full_tree(3, 2))
        assert tw == Intertwining((1,), (1,), (), (), "restart-cut")

    def test_trees_restart_cut_reversed(self):
        # the cut sits at the tail starts, whichever side grows faster
        tw = self._tw(full_tree(4, 2), full_tree(2, 3))
        assert tw == Intertwining((1,), (1,), (), (), "restart-cut")

    @pytest.mark.parametrize(
        "left, right",
        [
            (full_tree(3, 2), full_tree(2, 2)),
            (full_tree(3, 5), full_tree(2, 6)),
        ],
        ids=["ternary-binary", "ternary5-binary6"],
    )
    def test_former_size_cap_pairs_are_equivalent(self, left, right):
        # a depth-limited zigzag needs levels past 50 000 coordinates
        # here; the restart cut needs none
        start = time.perf_counter()
        verdict = equivalent_q(left, right, 7)
        assert isinstance(verdict, Equivalent)
        assert equivalence_certificate_failures(verdict.certificate) == []
        assert time.perf_counter() - start < 10


class TestEquivalentQ:
    def test_chains_with_different_scaling(self):
        verdict = equivalent_q(scalar_chain(2), scalar_chain(3))
        assert isinstance(verdict, Equivalent)
        cert = verdict.certificate
        assert (cert.left_cardinality, cert.right_cardinality) == (
            Cardinality.finite(1),
            Cardinality.finite(1),
        )
        tw = cert.intertwining
        assert (tw.left_levels, tw.right_levels, tw.f_maps, tw.g_maps, tw.closure) == (
            (1,), (1,), ((0,),), (), "stable-bijection"
        )
        # the scalings are what `canon` prints; the certificate has none
        assert not any("diagonals" in name for name in type(cert).__slots__)
        assert canonicalize_q(scalar_chain(2))[1][1] == (2,)
        assert canonicalize_q(scalar_chain(3))[1][1] == (3,)
        assert equivalence_certificate_failures(cert) == []

    def test_path_count_separates(self):
        verdict = equivalent_q(scalar_chain(2), two_path(1, 2))
        assert isinstance(verdict, NotEquivalent)
        assert verdict.reason == "cardinality"
        assert (verdict.left_cardinality, verdict.right_cardinality) == (
            Cardinality.finite(1),
            Cardinality.finite(2),
        )

    def test_two_paths_with_unrelated_scalings(self):
        verdict = equivalent_q(two_path(2, 7), two_path(3, 5))
        assert isinstance(verdict, Equivalent)
        assert not equivalence_certificate_failures(verdict.certificate)

    def test_finiteness_separates(self):
        verdict = equivalent_q(scalar_chain(2), full_tree(2, 2))
        assert isinstance(verdict, NotEquivalent)
        assert verdict.reason == "finiteness"

    def test_trees_are_equivalent(self):
        verdict = equivalent_q(full_tree(2, 2), full_tree(3, 2))
        assert isinstance(verdict, Equivalent)
        cert = verdict.certificate
        assert cert.intertwining.closure == "restart-cut"
        assert equivalence_certificate_failures(cert) == []

    def test_untailed_stays_unknown(self):
        verdict = equivalent_q(scalar_chain(2, tailed=False), scalar_chain(2))
        assert isinstance(verdict, Unknown)
        assert verdict.depth == 5
        both = equivalent_q(
            scalar_chain(2, tailed=False), scalar_chain(2, tailed=False)
        )
        assert isinstance(both, Unknown)

    def test_deterministic(self):
        a, b = full_tree(2, 2), full_tree(3, 2)
        first = equivalent_q(a, b)
        second = equivalent_q(a, b)
        assert first == second

    def test_reflexive_on_tailed(self):
        rng = random.Random(73)
        for _ in range(40):
            seq = random_sequence(rng, tail="cyclic" if rng.random() < 0.7 else "sub")
            verdict = equivalent_q(seq, seq)
            assert isinstance(verdict, Equivalent)
            assert equivalence_certificate_failures(verdict.certificate) == []

    def test_symmetric(self):
        rng = random.Random(74)
        for _ in range(30):
            a = random_sequence(rng, tail="cyclic")
            b = random_sequence(rng, tail="cyclic")
            fwd = equivalent_q(a, b)
            back = equivalent_q(b, a)
            assert type(fwd) is type(back)
            if isinstance(fwd, Equivalent):
                assert not equivalence_certificate_failures(fwd.certificate)
                assert not equivalence_certificate_failures(back.certificate)
            elif isinstance(fwd, NotEquivalent):
                assert fwd.reason == back.reason
                assert fwd.left_cardinality == back.right_cardinality

    def test_random_cantor_pairs_cut_at_tail_starts(self):
        # cyclic tails are always finite, so Cantor limits come from
        # substitution tails
        rng = random.Random(76)
        pool = []
        while len(pool) < 40:
            seq = random_sequence(rng, tail="sub")
            if _cardinality(seq).kind == "infinite":
                pool.append((seq, injectivize(seq)[0].periodic_tail))
        for _ in range(200):
            (a, p_a), (b, p_b) = rng.choice(pool), rng.choice(pool)
            verdict = equivalent_q(a, b)
            assert isinstance(verdict, Equivalent)
            cert = verdict.certificate
            assert equivalence_certificate_failures(cert) == []
            tw = cert.intertwining
            assert (tw.left_levels, tw.right_levels) == ((p_a,), (p_b,))
            assert tw.f_maps == tw.g_maps == ()

    def test_trees_both_directions(self):
        fwd = equivalent_q(full_tree(2, 2), full_tree(3, 2))
        back = equivalent_q(full_tree(3, 2), full_tree(2, 2))
        assert isinstance(fwd, Equivalent) and isinstance(back, Equivalent)
        assert not equivalence_certificate_failures(back.certificate)


class TestOnePruning:
    """Deciding and verifying read each side's one kept walk: they prune
    nothing (no injectivize call), walk each sequence object at most
    once, and build no IndexSystem."""

    @pytest.mark.parametrize(
        "left, right, kind",
        [
            (full_tree(2, 2), full_tree(3, 2), Equivalent),
            (two_path(2, 7), two_path(3, 5), Equivalent),
            (
                long_chain(random.Random(3), 40),
                long_chain(random.Random(4), 9),
                Equivalent,
            ),
            (scalar_chain(2), two_path(1, 2), NotEquivalent),
            (scalar_chain(2), full_tree(2, 2), NotEquivalent),
        ],
        ids=["tree", "two-path", "chain", "cardinality", "finiteness"],
    )
    def test_two_prunings_each(self, left, right, kind, count_calls, monkeypatch):
        prunings = count_calls(diagram, "injectivize")
        shapes = count_calls(IndexSystem, "__init__")
        walked = []
        memo = BratteliSequence._memo

        def recording(seq, key, build):
            if key == ("keeps",) and key not in seq._cache:
                walked.append(seq)
            return memo(seq, key, build)

        monkeypatch.setattr(BratteliSequence, "_memo", recording)
        verdict = equivalent_q(left, right)
        assert isinstance(verdict, kind)
        if kind is Equivalent:
            assert equivalence_certificate_failures(verdict.certificate) == []
        else:
            assert not_equivalent_failures(verdict, left, right) == []
        assert prunings[0] == 0
        assert len(walked) <= 2 and len({id(s) for s in walked}) == len(walked)
        assert all(s is left or s is right for s in walked)
        assert shapes[0] == 0
        canonicalize_q(left)
        assert shapes[0] == 1


class TestCertificateTampering:
    def _cert(self):
        verdict = equivalent_q(two_path(2, 7), two_path(3, 5))
        assert isinstance(verdict, Equivalent)
        return verdict.certificate

    def test_wrong_cardinality(self):
        bad = replace(self._cert(), left_cardinality=Cardinality.finite(3))
        failures = equivalence_certificate_failures(bad)
        assert any("left cardinality" in f for f in failures)

    def test_wrong_diagonals(self):
        # diagonals are no part of a certificate: a document that carries
        # them, even the ones canonicalize_q computes, is refused
        cert = self._cert()
        doc = certio.verdict_to_doc(Equivalent(cert), None, None)
        assert certio.equivalence_certificate_from_doc(doc) == cert
        diagonals = [[f"1/{v}" for v in u] for u in canonicalize_q(cert.left)[1]]
        for key in ("left_diagonals", "right_diagonals"):
            with pytest.raises(ValueError, match=f"^{key} must not appear"):
                certio.equivalence_certificate_from_doc({**doc, key: diagonals})

    def test_non_surjective_map(self):
        cert = self._cert()
        tw = cert.intertwining
        squashed = (tuple(0 for _ in tw.f_maps[0]),) + tw.f_maps[1:]
        bad = replace(
            cert, intertwining=replace(tw, f_maps=squashed)
        )
        failures = equivalence_certificate_failures(bad)
        assert any("not surjective" in f for f in failures)

    def test_wrong_closure(self):
        cert = self._cert()
        bad = replace(
            cert, intertwining=replace(cert.intertwining, closure="perfect")
        )
        failures = equivalence_certificate_failures(bad)
        assert any("closure" in f for f in failures)

    def _cantor(self):
        verdict = equivalent_q(full_tree(2, 2), full_tree(3, 2))
        assert isinstance(verdict, Equivalent)
        return verdict.certificate

    def _failures(self, cert, **changes):
        tw = replace(cert.intertwining, **changes)
        bad = replace(cert, intertwining=tw)
        return equivalence_certificate_failures(bad)

    def test_wrong_root_level(self):
        failures = self._failures(self._cantor(), left_levels=(2,))
        assert failures == ["left level 2 is not the tail start 1"]

    def test_restart_cut_on_a_finite_pair(self):
        failures = self._failures(self._cert(), f_maps=(), closure="restart-cut")
        assert failures == ["closure is 'restart-cut', expected 'stable-bijection'"]

    def test_stable_bijection_on_a_cantor_pair(self):
        failures = self._failures(
            self._cantor(), f_maps=((0,),), closure="stable-bijection"
        )
        assert failures == ["closure is 'stable-bijection', expected 'restart-cut'"]

    def test_restart_cut_with_maps(self):
        failures = self._failures(self._cantor(), f_maps=((0, 0, 1),))
        assert failures == ["restart-cut takes no maps"]

    def test_level_before_stabilizing(self):
        # the left side keeps one coordinate at level 1 and two from
        # level 2 on, so its bijection must sit at level 2 or deeper
        split = BratteliSequence(
            (1, 2, 2),
            (NonMixingMap(1, (0, 0), (1, 2)), NonMixingMap(2, (0, 1), (3, 5))),
            (1,),
            periodic_tail=2,
        )
        verdict = equivalent_q(split, two_path(2, 7))
        assert isinstance(verdict, Equivalent)
        cert = verdict.certificate
        assert cert.intertwining.left_levels == (2,)
        assert equivalence_certificate_failures(cert) == []
        failures = self._failures(cert, left_levels=(1,))
        assert failures == ["zigzag ends before both sides stabilize"]


class TestNotEquivalentFailures:
    def _verdict(self):
        left, right = scalar_chain(2), two_path(1, 2)
        verdict = equivalent_q(left, right)
        assert isinstance(verdict, NotEquivalent)
        return verdict, left, right

    def test_sound_witness(self):
        assert not_equivalent_failures(*self._verdict()) == []

    def test_wrong_witness(self):
        verdict, left, right = self._verdict()
        bad = replace(verdict, reason="finiteness")
        failures = not_equivalent_failures(bad, left, right)
        assert failures == ["finiteness witness does not hold"]

    def test_wrong_cardinality(self):
        verdict, left, right = self._verdict()
        bad = replace(verdict, left_cardinality=Cardinality.finite(3))
        failures = not_equivalent_failures(bad, left, right)
        assert failures == ["left cardinality recomputes to 1"]
