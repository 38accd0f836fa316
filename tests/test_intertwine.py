import random
from math import prod

import pytest

from bratteli import (
    INF,
    BratteliSequence,
    DiagonalMap,
    NonMixingMap,
    NotOrderUnit,
    NotPositive,
    RankMismatch,
    SupernaturalNumber,
    TooLarge,
    certificate_failures,
    is_order_unit,
    rescale_lemma,
    unit_change,
)
from bratteli.intertwine import _diagonals
from bratteli.supernat import _split_power

from genseq import (
    full_tree,
    long_chain,
    max_usable_level,
    random_sequence,
    random_unit,
    replace,
    scalar_chain,
    two_path,
)


def _derived(cert):
    diagonals, failure = _diagonals(cert.seq, cert.alt_unit, cert.rungs)
    assert failure is None
    return diagonals


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
        assert cert.rungs == (1, 3, 1, 1)
        assert _derived(cert) == [(3,), (1,), (1,), (1,)]
        assert cert.partial_n == SupernaturalNumber.from_natural(3)
        assert cert.partial_m == SupernaturalNumber.one()
        assert cert.exact_n == SupernaturalNumber.from_natural(3)
        assert cert.exact_m == SupernaturalNumber.one()
        assert certificate_failures(cert) == []

    def test_dyadic_oracle_paper(self):
        cert = unit_change(scalar_chain(2), (3,), 6, strategy="paper")
        assert cert.rungs == (1, 6, 4, 4, 4, 4)
        assert cert.partial_n == SupernaturalNumber.from_natural(96)
        assert cert.partial_m == SupernaturalNumber.from_natural(16)
        assert cert.exact_n == SupernaturalNumber.parse("2^inf*3")
        assert cert.exact_m == SupernaturalNumber.parse("2^inf")
        assert certificate_failures(cert) == []

    def test_same_unit_is_free(self):
        seq = two_path(2, 3)
        cert = unit_change(seq, seq.base_unit, 5)
        assert cert.rungs == (1,) * 5
        assert cert.partial_n == SupernaturalNumber.one() and cert.partial_m == SupernaturalNumber.one()
        assert cert.exact_n == SupernaturalNumber.one() and cert.exact_m == SupernaturalNumber.one()
        assert certificate_failures(cert) == []

    def test_rank_two_cycle(self):
        cert = unit_change(two_path(2, 3), (2, 1), 4)
        assert cert.rungs == (1, 2, 2, 2)
        assert _derived(cert) == [(2, 1), (1, 2), (2, 1), (1, 2)]
        assert cert.partial_n == SupernaturalNumber.from_natural(4)
        assert cert.partial_m == SupernaturalNumber.from_natural(2)
        assert cert.exact_n == SupernaturalNumber.parse("2^inf")
        assert cert.exact_m == SupernaturalNumber.parse("2^inf")
        assert certificate_failures(cert) == []

    def test_tree_has_no_exact_scaling(self):
        cert = unit_change(full_tree(2, 2), (2,), 5)
        assert cert.partial_n == SupernaturalNumber.from_natural(2)
        assert cert.partial_m == SupernaturalNumber.one()
        assert cert.exact_n is None and cert.exact_m is None
        assert certificate_failures(cert) == []

    def test_depth_zero_is_vacuous(self):
        cert = unit_change(scalar_chain(2), (5,), 0)
        assert cert.rungs == ()
        assert cert.partial_n == SupernaturalNumber.one() and cert.partial_m == SupernaturalNumber.one()
        assert cert.exact_n is None and cert.exact_m is None
        assert not certificate_failures(cert)

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

    def test_random_certificates_verify(self, digit_limit):
        # the certificates are checked, never written, so no scalar is
        # refused as too long to write
        digit_limit(0)
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
        # take about L * L = 160 000 _map calls here
        L = 400
        cert = unit_change(long_chain(random.Random(44), L), (3,) * 8, L)
        calls = count_calls(BratteliSequence, "_map")
        assert certificate_failures(cert) == []
        assert calls[0] <= 3 * L


class TestMutationRejected:
    def test_wrong_scalar_names_the_rung(self):
        # rung 2's diagonal would be 5 / 3; the claimed cycle needs the
        # rungs after it
        cert = unit_change(scalar_chain(2), (3,), 4)
        bad = replace(cert, rungs=(cert.rungs[0], 5) + cert.rungs[2:])
        assert certificate_failures(bad) == [
            "rung 2: the scalar is not a multiple of rung 1's entry at coordinate 1",
            "partial_n is 3, not the product of its scalars",
            "exact_n is 3, rung data does not cycle",
            "exact_m is 1, rung data does not cycle",
        ]

    def test_wrong_diagonal_caught(self):
        # doubling rung 3's scalar doubles its diagonal to (4, 2), which
        # rung 4's scalar 2 no longer clears
        cert = unit_change(two_path(2, 3), (2, 1), 4)
        assert cert.rungs == (1, 2, 2, 2)
        bad = replace(cert, rungs=(1, 2, 4, 2))
        assert certificate_failures(bad) == [
            "rung 4: the scalar is not a multiple of rung 3's entry at coordinate 1",
            "partial_m is 2, not the product of its scalars",
            "exact_n is 2^inf, rung data does not cycle",
            "exact_m is 2^inf, rung data does not cycle",
        ]

    @pytest.mark.parametrize("level", [20, 40])
    def test_tampered_rung_of_a_long_ladder_is_named(self, level):
        seq = long_chain(random.Random(43), 40)
        cert = unit_change(seq, (1, 2, 3, 1, 2, 3, 1, 2), 40)
        assert certificate_failures(cert) == []
        # the minimal scalar is the lcm of entries above 1, so one more
        # is a multiple of none of them
        rungs = list(cert.rungs)
        rungs[level - 1] += 1
        failures = certificate_failures(replace(cert, rungs=rungs))
        assert failures[0] == (
            f"rung {level}: the scalar is not a multiple of rung {level - 1}'s "
            "entry at coordinate 1"
        )
        assert [f.split(" ")[0] for f in failures[1:]] == ["partial_n"]

    def test_swapped_scalars_caught(self):
        # two up rungs trade scalars: partial_n, partial_m and the other
        # claims still match, so only the derived diagonals can tell
        cert = unit_change(long_chain(random.Random(43), 40), (1, 2, 3, 1, 2, 3, 1, 2), 40)
        a, b = next(
            (a, b)
            for a in range(1, 40, 2)
            for b in range(a + 2, 40, 2)
            if cert.rungs[a] != cert.rungs[b]
        )
        rungs = list(cert.rungs)
        rungs[a], rungs[b] = rungs[b], rungs[a]
        failures = certificate_failures(replace(cert, rungs=rungs))
        assert failures and failures[0].startswith("rung ")

    def test_wrong_partial_caught(self):
        cert = unit_change(scalar_chain(2), (3,), 4)
        bad = replace(cert, partial_n=SupernaturalNumber.from_natural(7))
        failures = certificate_failures(bad)
        assert any("partial_n" in f for f in failures)

    def test_wrong_exact_caught(self):
        cert = unit_change(scalar_chain(2), (3,), 4)
        bad = replace(cert, exact_n=SupernaturalNumber.parse("5^inf"))
        failures = certificate_failures(bad)
        assert any("exact_n" in f for f in failures)

    def test_bad_alt_unit_caught(self):
        cert = unit_change(scalar_chain(2), (3,), 2)
        bad = replace(cert, alt_unit=(0,))
        failures = certificate_failures(bad)
        assert failures and "order unit" in failures[0]

    def test_scalars_stay_positive(self):
        cert = unit_change(scalar_chain(2), (3,), 2)
        for bad in (0, -3, "3"):
            with pytest.raises(NotPositive):
                replace(cert, rungs=(bad,) + cert.rungs[1:])


class OldRung:
    """A rung as unit-change documents used to carry it."""

    def __init__(self, level, direction, scalar, diag):
        self.level, self.direction = level, direction
        self.scalar, self.diag = scalar, diag


def _old_rungs(seq, alt_unit, depth, strategy):
    # the ladder with every rung's level, direction and diagonal, built
    # by pushing each diagonal through the next map with rescale_lemma
    rungs = []
    if depth >= 1:
        u1 = seq.base_unit
        m1 = prod(u1)
        gamma1 = DiagonalMap(tuple((m1 // u1[i]) * alt_unit[i] for i in range(len(u1))))
        rungs.append(OldRung(1, "down", m1, gamma1))
    for t in range(2, depth + 1):
        s, eta = rescale_lemma(seq.map_at(t - 1), rungs[-1].diag, strategy)
        rungs.append(OldRung(t, "up" if t % 2 == 0 else "down", s, eta))
    return rungs


def _old_scalars(rungs, direction):
    return prod((r.scalar for r in rungs if r.direction == direction), start=1)


def _old_detect_cycle(seq, rungs):
    if seq.tail_kind != "cyclic":
        return None, None
    p = seq.periodic_tail
    seen = {}
    for idx, rung in enumerate(rungs):
        if rung.level < p:
            continue
        state = (seq._block_position(rung.level), rung.direction, rung.diag.entries)
        if state in seen:
            before, over = rungs[: seen[state] + 1], rungs[seen[state] + 1 : idx + 1]
            return tuple(
                (_old_scalars(before, d), _old_scalars(over, d)) for d in ("up", "down")
            )
        seen[state] = idx
    return None, None


def _old_failures(cert, rungs):
    """The verifier of the documents that carried every rung's diagonal:
    it pushes both units up a level per rung, and checks each rung against
    them and each pair of rungs against the map between their levels."""
    seq = cert.seq
    failures = []
    w1 = tuple(cert.alt_unit)
    if len(w1) != seq.ranks[0] or not is_order_unit(w1):
        return [f"alternative unit {w1} is not an order unit at level 1"]
    n_cum = m_cum = 1
    u_t, w_t = seq.base_unit, w1
    for idx, rung in enumerate(rungs):
        t = idx + 1
        if t > 1 and seq.has_level(t):
            alpha = seq.map_at(t - 1)
            u_t, w_t = alpha.apply(u_t), alpha.apply(w_t)
        want_dir = "down" if t % 2 == 1 else "up"
        if rung.level != t or rung.direction != want_dir or not seq.has_level(t):
            failures.append(f"rung {t}: misplaced")
            continue
        if rung.diag.rank != seq.rank_at(t):
            failures.append(f"rung {t}: diagonal rank")
            continue
        if rung.direction == "up":
            n_cum *= rung.scalar
        else:
            m_cum *= rung.scalar
        if rung.direction == "down":
            got = rung.diag.apply(tuple(n_cum * v for v in u_t))
            want = tuple(m_cum * v for v in w_t)
        else:
            got = rung.diag.apply(tuple(m_cum * v for v in w_t))
            want = tuple(n_cum * v for v in u_t)
        if got != want:
            failures.append(f"rung {t}: carries the unit wrongly")
        if idx + 1 < len(rungs):
            nxt = rungs[idx + 1]
            alpha = seq.map_at(t)
            if nxt.diag.rank == alpha.target_rank and rung.diag.rank == alpha.source_rank:
                for j in range(alpha.target_rank):
                    d, e = nxt.diag.entries[j], rung.diag.entries[alpha.parent[j]]
                    if d * alpha.mult[j] * e != nxt.scalar * alpha.mult[j]:
                        failures.append(f"rung {t + 1}: square fails at {j}")
                        break
    claims = (("partial_n", cert.partial_n), ("partial_m", cert.partial_m))
    for (name, claim), d in zip(claims, ("up", "down")):
        if claim is None or not claim.matches((_old_scalars(rungs, d),)):
            failures.append(f"{name} does not match")
    claims = (("exact_n", cert.exact_n), ("exact_m", cert.exact_m))
    for (name, claim), cycle in zip(claims, _old_detect_cycle(seq, rungs)):
        if claim is not None and (
            cycle is None or not claim.matches((cycle[0],), (cycle[1],))
        ):
            failures.append(f"{name} does not match")
    return failures


class TestAgainstTheOldVerifier:
    """The scalar-only verifier against the one that read every rung's
    diagonal: both accept every emitted certificate, and both reject
    every change of one scalar that leaves the claims as they were."""

    @staticmethod
    def _mutated(rng, s):
        p = rng.choice((2, 3, 5, 7))
        kind = rng.choice(("times", "over", "plus"))
        if kind == "over" and s % p == 0:
            return s // p
        if kind == "plus":
            return s + 1
        return s * p

    def test_both_accept_and_both_reject(self, digit_limit):
        # 500 ladders, four mutations each, checked and never written, so
        # no scalar is refused as too long to write
        digit_limit(0)
        rng = random.Random(61)
        for _ in range(500):
            seq = random_sequence(rng, tail=rng.choice(("none", "cyclic", "sub")))
            strategy = rng.choice(("minimal", "paper"))
            # the paper strategy's scalars grow doubly exponentially
            reach = 12 if strategy == "minimal" else 6
            depth = min(rng.randint(1, reach), max_usable_level(seq, 12, size_cap=50))
            alt = random_unit(rng, seq.ranks[0])
            cert = unit_change(seq, alt, depth, strategy)
            old = _old_rungs(seq, alt, depth, strategy)
            assert cert.rungs == tuple(r.scalar for r in old)
            assert certificate_failures(cert) == []
            assert _old_failures(cert, old) == []
            for _ in range(4):
                k = rng.randrange(depth)
                s = self._mutated(rng, cert.rungs[k])
                rungs = cert.rungs[:k] + (s,) + cert.rungs[k + 1 :]
                bad_old = list(old)
                bad_old[k] = OldRung(k + 1, old[k].direction, s, old[k].diag)
                assert certificate_failures(replace(cert, rungs=rungs)), (cert, k, s)
                assert _old_failures(cert, bad_old), (cert, k, s)


def _old_exact(before, over):
    # the exact scaling from the cycle's products: the primes of before,
    # and every prime of over to infinite exponent
    fac = dict(SupernaturalNumber.from_natural(before).factors)
    fac.update(dict.fromkeys(SupernaturalNumber.from_natural(over).primes(), INF))
    return SupernaturalNumber(fac)


def _old_matches(claim, n, over=1):
    # the claim check on one product n and one cycle product over
    for p, e in claim.factors:
        got, n = _split_power(n, p)
        k, over = _split_power(over, p)
        if e != (INF if k else got):
            return False
    return n == 1 and over == 1


def _old_verdict(cert, rungs):
    # whether the verifier that matched each claim against the product of
    # its scalars accepted cert, whose rungs are those given
    if _diagonals(cert.seq, cert.alt_unit, cert.rungs)[1] is not None:
        return False
    partials = (
        (cert.partial_n, _old_scalars(rungs, "up")),
        (cert.partial_m, _old_scalars(rungs, "down")),
    )
    if any(claim is None or not _old_matches(claim, n) for claim, n in partials):
        return False
    cycles = _old_detect_cycle(cert.seq, rungs)
    return all(
        claim is None or (cycle is not None and _old_matches(claim, *cycle))
        for claim, cycle in zip((cert.exact_n, cert.exact_m), cycles)
    )


class TestAgainstTheRungProducts:
    """The claims summed from the distinct rung scalars against those
    factored from the product of all up and of all down scalars, and
    the verifier that divides each scalar against the one that divided
    those products."""

    CLAIMS = ("partial_n", "partial_m", "exact_n", "exact_m")

    @staticmethod
    def _mutated(rng, claim):
        fac = dict(() if claim is None else claim.factors)
        p = rng.choice((2, 3, 5, 7))
        kind = rng.choice(("raise", "inf", "drop"))
        if kind == "drop" and fac:
            del fac[rng.choice(list(fac))]
        else:
            fac[p] = INF if kind == "inf" else fac.get(p, 0) + 1
        return SupernaturalNumber(fac)

    @pytest.mark.parametrize("seed, tail", [(62, "none"), (63, "cyclic"), (64, "sub")])
    def test_same_claims_and_verdicts(self, seed, tail, digit_limit):
        # checked and never written, so no scalar is refused as too long
        digit_limit(0)
        rng = random.Random(seed)
        counts = {"exact": 0, "rejected": 0}
        for _ in range(600):
            seq = random_sequence(rng, tail=tail)
            strategy = rng.choice(("minimal", "paper"))
            # the paper strategy's scalars grow doubly exponentially
            reach = 20 if strategy == "minimal" else 6
            depth = min(rng.randint(1, reach), max_usable_level(seq, 12, size_cap=50))
            alt = random_unit(rng, seq.ranks[0])
            cert = unit_change(seq, alt, depth, strategy)
            old = _old_rungs(seq, alt, depth, strategy)
            assert cert.rungs == tuple(r.scalar for r in old)
            want = (
                SupernaturalNumber.from_natural(_old_scalars(old, "up")),
                SupernaturalNumber.from_natural(_old_scalars(old, "down")),
                *(None if c is None else _old_exact(*c) for c in _old_detect_cycle(seq, old)),
            )
            assert tuple(getattr(cert, name) for name in self.CLAIMS) == want, cert
            counts["exact"] += cert.exact_n is not None
            assert certificate_failures(cert) == [] and _old_verdict(cert, old)
            name = rng.choice(self.CLAIMS)
            bad = replace(cert, **{name: self._mutated(rng, getattr(cert, name))})
            rejected = certificate_failures(bad) != []
            assert rejected == (not _old_verdict(bad, old)), (bad, name)
            counts["rejected"] += rejected
        # a substitution tail whose copies have rank 1 is cyclic too
        assert (counts["exact"] > 50) == (tail != "none"), counts
        assert counts["rejected"] > 550, counts


class TestNoRungProduct:
    """Claims come from the distinct rung scalars: no product of them is
    factored, by the builder or by the verifier."""

    @pytest.fixture
    def factored(self, monkeypatch):
        # the bit length of every number given to from_natural, and a
        # 4096-rung ladder on the rank-4 tripling cycle: every rung after
        # the first has scalar 12, and the product of the 2048 up scalars
        # has about 7300 bits
        bits = []
        factor = SupernaturalNumber.from_natural.__func__

        def recorded(cls, n):
            bits.append(n.bit_length())
            return factor(cls, n)

        monkeypatch.setattr(SupernaturalNumber, "from_natural", classmethod(recorded))
        tripling = NonMixingMap(4, (0, 1, 2, 3), (3, 3, 3, 3))
        seq = BratteliSequence((4, 4), (tripling,), (1, 1, 1, 1), 1)
        return bits, unit_change(seq, (1, 2, 3, 4), 4096)

    def test_builder_factors_no_number_longer_than_a_scalar(self, factored):
        bits, cert = factored
        assert cert.exact_n is not None and cert.exact_m is not None
        assert bits and max(bits) <= max(s.bit_length() for s in cert.rungs)

    def test_verifier_never_factors(self, factored):
        bits, cert = factored
        bits.clear()
        assert certificate_failures(cert) == []
        assert bits == []

    def test_scalar_settled_where_the_product_is_too_large(self):
        # 2097169 is a prime past the trial bound 2**20, below its square,
        # so trial division settles it; the product of two down scalars,
        # its square, is refused as too large to call prime
        seq = BratteliSequence((2, 2), (NonMixingMap(2, (0, 1), (1, 1)),), (1, 1), 1)
        cert = unit_change(seq, (1, 2097169), 5)
        assert cert.rungs == (1,) + (2097169,) * 4
        assert str(cert.partial_m) == "2097169^2"
        assert str(cert.exact_m) == "2097169^inf"
        assert certificate_failures(cert) == []
        with pytest.raises(TooLarge):
            SupernaturalNumber.from_natural(2097169**2)
