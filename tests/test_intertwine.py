import dataclasses
import random

import pytest

from bratteli import (
    BratteliSequence,
    DiagonalMap,
    NonMixingMap,
    NotOrderUnit,
    NotPositive,
    RankMismatch,
    SupernaturalNumber,
    ONE,
    certificate_failures,
    rescale_lemma,
    unit_change,
    verify_certificate,
)

from genseq import (
    full_tree,
    long_chain,
    max_usable_level,
    random_sequence,
    random_unit,
    scalar_chain,
    two_path,
)


class TestDiagonalMap:
    def test_apply(self):
        assert DiagonalMap((2, 5)).apply((3, -1)) == (6, -5)

    def test_rejects_bad_entries(self):
        with pytest.raises(NotPositive):
            DiagonalMap((1, 0))
        with pytest.raises(NotPositive):
            DiagonalMap(())

    def test_rank_checked(self):
        with pytest.raises(RankMismatch):
            DiagonalMap((2,)).apply((1, 2))


class TestRescale:
    def test_scalar_oracle(self):
        alpha = NonMixingMap(1, (0,), (2,))
        n, eta = rescale_lemma(alpha, DiagonalMap((3,)))
        assert (n, eta.entries) == (3, (1,))
        n, eta = rescale_lemma(alpha, DiagonalMap((3,)), strategy="paper")
        assert (n, eta.entries) == (6, (2,))

    def test_rank_two_oracle(self):
        alpha = NonMixingMap(2, (0, 0, 1), (1, 2, 3))
        gamma = DiagonalMap((4, 6))
        n, eta = rescale_lemma(alpha, gamma)
        assert n == 12
        assert eta.entries == (3, 3, 2)
        n, eta = rescale_lemma(alpha, gamma, strategy="paper")
        assert n == 576
        assert eta.entries == (144, 144, 96)

    def test_identity_diagonal_is_free(self):
        alpha = NonMixingMap(2, (0, 1, 1), (7, 1, 9))
        n, eta = rescale_lemma(alpha, DiagonalMap((1, 1)))
        assert n == 1
        assert eta.entries == (1, 1, 1)

    def test_bad_inputs(self):
        alpha = NonMixingMap(2, (0, 1), (1, 1))
        with pytest.raises(RankMismatch):
            rescale_lemma(alpha, DiagonalMap((2,)))
        with pytest.raises(ValueError):
            rescale_lemma(alpha, DiagonalMap((2, 2)), strategy="greedy")

    def test_postcondition_exact(self):
        # eta . alpha . gamma == n . alpha, entrywise on random vectors
        rng = random.Random(51)
        for _ in range(1000):
            src = rng.randint(1, 4)
            tgt = rng.randint(1, 5)
            parent = tuple(rng.randrange(src) for _ in range(tgt))
            mult = tuple(rng.randint(1, 6) for _ in range(tgt))
            alpha = NonMixingMap(src, parent, mult)
            gamma = DiagonalMap(tuple(rng.randint(1, 9) for _ in range(src)))
            strategy = rng.choice(("minimal", "paper"))
            n, eta = rescale_lemma(alpha, gamma, strategy)
            x = tuple(rng.randint(-9, 9) for _ in range(src))
            lhs = eta.apply(alpha.apply(gamma.apply(x)))
            rhs = tuple(n * v for v in alpha.apply(x))
            assert lhs == rhs

    def test_minimal_divides_paper(self):
        rng = random.Random(52)
        for _ in range(300):
            src = rng.randint(1, 4)
            tgt = rng.randint(1, 5)
            alpha = NonMixingMap(
                src,
                tuple(rng.randrange(src) for _ in range(tgt)),
                tuple(rng.randint(1, 6) for _ in range(tgt)),
            )
            gamma = DiagonalMap(tuple(rng.randint(1, 9) for _ in range(src)))
            n_min, _ = rescale_lemma(alpha, gamma, "minimal")
            n_pap, _ = rescale_lemma(alpha, gamma, "paper")
            assert n_pap % n_min == 0


class TestUnitChange:
    def test_dyadic_oracle_minimal(self):
        cert = unit_change(scalar_chain(2), (3,), 4)
        got = [(r.level, r.direction, r.scalar, r.diag.entries) for r in cert.rungs]
        assert got == [
            (1, "down", 1, (3,)),
            (2, "up", 3, (1,)),
            (3, "down", 1, (1,)),
            (4, "up", 1, (1,)),
        ]
        assert cert.partial_n == SupernaturalNumber.from_natural(3)
        assert cert.partial_m == ONE
        assert cert.exact_n == SupernaturalNumber.from_natural(3)
        assert cert.exact_m == ONE
        assert certificate_failures(cert) == []

    def test_dyadic_oracle_paper(self):
        cert = unit_change(scalar_chain(2), (3,), 6, strategy="paper")
        assert [r.scalar for r in cert.rungs] == [1, 6, 4, 4, 4, 4]
        assert cert.partial_n == SupernaturalNumber.from_natural(96)
        assert cert.partial_m == SupernaturalNumber.from_natural(16)
        assert cert.exact_n == SupernaturalNumber.parse("2^inf*3")
        assert cert.exact_m == SupernaturalNumber.parse("2^inf")
        assert certificate_failures(cert) == []

    def test_same_unit_is_free(self):
        seq = two_path(2, 3)
        cert = unit_change(seq, seq.base_unit, 5)
        assert all(r.scalar == 1 for r in cert.rungs)
        assert cert.partial_n == ONE and cert.partial_m == ONE
        assert cert.exact_n == ONE and cert.exact_m == ONE
        assert certificate_failures(cert) == []

    def test_rank_two_cycle(self):
        cert = unit_change(two_path(2, 3), (2, 1), 4)
        got = [(r.direction, r.scalar, r.diag.entries) for r in cert.rungs]
        assert got == [
            ("down", 1, (2, 1)),
            ("up", 2, (1, 2)),
            ("down", 2, (2, 1)),
            ("up", 2, (1, 2)),
        ]
        assert cert.partial_n == SupernaturalNumber.from_natural(4)
        assert cert.partial_m == SupernaturalNumber.from_natural(2)
        assert cert.exact_n == SupernaturalNumber.parse("2^inf")
        assert cert.exact_m == SupernaturalNumber.parse("2^inf")
        assert certificate_failures(cert) == []

    def test_tree_has_no_exact_scaling(self):
        cert = unit_change(full_tree(2, 2), (2,), 5)
        assert cert.partial_n == SupernaturalNumber.from_natural(2)
        assert cert.partial_m == ONE
        assert cert.exact_n is None and cert.exact_m is None
        assert certificate_failures(cert) == []

    def test_depth_zero_is_vacuous(self):
        cert = unit_change(scalar_chain(2), (5,), 0)
        assert cert.rungs == ()
        assert cert.partial_n == ONE and cert.partial_m == ONE
        assert cert.exact_n is None and cert.exact_m is None
        assert verify_certificate(cert)

    def test_input_validation(self):
        seq = scalar_chain(2, levels=3, tailed=False)
        with pytest.raises(RankMismatch):
            unit_change(seq, (1, 1), 2)
        with pytest.raises(NotOrderUnit):
            unit_change(seq, (0,), 2)
        with pytest.raises(ValueError):
            unit_change(seq, (2,), -1)
        with pytest.raises(Exception):
            unit_change(seq, (2,), 9)

    def test_random_certificates_verify(self):
        rng = random.Random(53)
        for _ in range(60):
            seq = random_sequence(rng)
            depth = min(rng.randint(0, 8), max_usable_level(seq))
            w = random_unit(rng, seq.ranks[0])
            strategy = rng.choice(("minimal", "paper"))
            cert = unit_change(seq, w, depth, strategy)
            assert certificate_failures(cert) == []
            assert len(cert.rungs) == depth

    def test_unit_chain_composes(self):
        # change u -> w, then w -> v on the rebased tower, then u -> v
        seq = two_path(2, 3)
        w, v = (2, 1), (3, 4)
        first = unit_change(seq, w, 6)
        rebased = BratteliSequence(seq.ranks, seq.maps, w, seq.periodic_tail)
        second = unit_change(rebased, v, 6)
        direct = unit_change(seq, v, 6)
        for cert in (first, second, direct):
            assert certificate_failures(cert) == []


class TestVerifierWork:
    def test_linear_in_the_rungs(self, count_calls):
        # recomputing both unit images from level 1 for every rung would
        # take about L * L = 160 000 map_at calls here
        L = 400
        cert = unit_change(long_chain(random.Random(44), L), (3,) * 8, L)
        calls = count_calls(BratteliSequence, "map_at")
        assert certificate_failures(cert) == []
        assert calls[0] <= 3 * L


class TestMutationRejected:
    def test_wrong_scalar_names_the_rung(self):
        cert = unit_change(scalar_chain(2), (3,), 4)
        bad_rung = dataclasses.replace(cert.rungs[1], scalar=5)
        bad = dataclasses.replace(
            cert, rungs=(cert.rungs[0], bad_rung) + cert.rungs[2:]
        )
        failures = certificate_failures(bad)
        assert failures
        assert any("rung 2" in f for f in failures)
        assert not verify_certificate(bad)

    def test_wrong_diagonal_caught(self):
        cert = unit_change(two_path(2, 3), (2, 1), 4)
        bad_rung = dataclasses.replace(
            cert.rungs[2], diag=DiagonalMap((1, 1))
        )
        bad = dataclasses.replace(
            cert, rungs=cert.rungs[:2] + (bad_rung,) + cert.rungs[3:]
        )
        assert not verify_certificate(bad)

    @pytest.mark.parametrize("level", [20, 40])
    def test_tampered_rung_of_a_long_ladder_is_named(self, level):
        seq = long_chain(random.Random(43), 40)
        cert = unit_change(seq, (1, 2, 3, 1, 2, 3, 1, 2), 40)
        assert certificate_failures(cert) == []
        rung = cert.rungs[level - 1]
        entries = (2 * rung.diag.entries[0],) + rung.diag.entries[1:]
        bad_rung = dataclasses.replace(rung, diag=DiagonalMap(entries))
        rungs = cert.rungs[: level - 1] + (bad_rung,) + cert.rungs[level:]
        failures = certificate_failures(dataclasses.replace(cert, rungs=rungs))
        assert any(f.startswith(f"rung {level}: carries the unit") for f in failures)
        assert all(f.startswith((f"rung {level}:", f"rung {level + 1}:")) for f in failures)

    def test_wrong_partial_caught(self):
        cert = unit_change(scalar_chain(2), (3,), 4)
        bad = dataclasses.replace(cert, partial_n=SupernaturalNumber.from_natural(7))
        failures = certificate_failures(bad)
        assert any("partial_n" in f for f in failures)

    def test_wrong_exact_caught(self):
        cert = unit_change(scalar_chain(2), (3,), 4)
        bad = dataclasses.replace(cert, exact_n=SupernaturalNumber.parse("5^inf"))
        failures = certificate_failures(bad)
        assert any("exact_n" in f for f in failures)

    def test_bad_alt_unit_caught(self):
        cert = unit_change(scalar_chain(2), (3,), 2)
        bad = dataclasses.replace(cert, alt_unit=(0,))
        failures = certificate_failures(bad)
        assert failures and "order unit" in failures[0]

    def test_scalars_stay_positive(self):
        with pytest.raises(NotPositive):
            dataclasses.replace(
                unit_change(scalar_chain(2), (3,), 2).rungs[0], scalar=0
            )
