import random

import pytest

from bratteli import INF, ONE, SupernaturalNumber, TooLarge, is_prime


def sn(*pairs):
    return SupernaturalNumber(dict(pairs))


class TestInfinity:
    def test_orders_above_every_int(self):
        assert INF > 10**18
        assert INF >= INF
        assert not (INF < 5)
        assert 3 < INF

    def test_absorbs_addition(self):
        assert INF + 7 is INF
        assert 7 + INF is INF
        assert INF + INF is INF


def test_is_prime_small_values():
    primes = [p for p in range(30) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_matches_a_sieve():
    n = 20000
    sieve = [True] * n
    sieve[0] = sieve[1] = False
    for p in range(2, n):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(range(p * p, n, p))
    assert [p for p in range(n) if is_prime(p)] == [p for p in range(n) if sieve[p]]


class TestTrialBound:
    """Trial division stops at a fixed bound; a number it cannot settle
    is TooLarge, not a search of sqrt(n) steps."""

    def test_primes_past_the_bound_are_too_large(self):
        with pytest.raises(TooLarge):
            is_prime(2**61 - 1)
        with pytest.raises(TooLarge):
            SupernaturalNumber.from_natural(3 * (2**61 - 1))
        with pytest.raises(TooLarge):
            SupernaturalNumber.parse("2305843009213693951")

    def test_cofactors_below_the_square_are_settled(self):
        assert is_prime(2**31 - 1)
        assert not is_prime(1000003 * 1000033)
        got = SupernaturalNumber.from_natural(2**5 * 1000003 * 1000033)
        assert got == sn((2, 5), (1000003, 1), (1000033, 1))

    def test_huge_smooth_numbers_factor_quickly(self):
        n = 2**40000 * 3**12345 * 5**3
        assert SupernaturalNumber.from_natural(n) == sn((2, 40000), (3, 12345), (5, 3))


class TestConstruction:
    def test_rejects_composite_base(self):
        with pytest.raises(ValueError):
            sn((4, 1))

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            sn((2, 0))
        with pytest.raises(ValueError):
            sn((2, -1))

    def test_from_natural_one_is_empty(self):
        assert SupernaturalNumber.from_natural(1) == ONE
        assert ONE.factors == ()

    def test_from_natural_twelve(self):
        assert SupernaturalNumber.from_natural(12) == sn((2, 2), (3, 1))

    def test_from_natural_primorial(self):
        # 2310 = 2*3*5*7*11
        got = SupernaturalNumber.from_natural(2310)
        assert got == sn((2, 1), (3, 1), (5, 1), (7, 1), (11, 1))

    def test_from_natural_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SupernaturalNumber.from_natural(0)


class TestMultiply:
    def test_infinity_absorbs(self):
        assert sn((2, INF)) * sn((2, 1), (3, 1)) == sn((2, INF), (3, 1))

    def test_one_is_identity(self):
        x = sn((2, 3), (7, INF))
        assert ONE * x == x
        assert x * ONE == x

    def test_mixed_infinite_exponents(self):
        assert sn((2, 3), (5, INF)) * sn((2, INF), (5, 2)) == sn((2, INF), (5, INF))

    def test_homomorphism_from_naturals(self):
        rng = random.Random(11)
        for _ in range(200):
            a = rng.randint(1, 10**6)
            b = rng.randint(1, 10**6)
            lhs = SupernaturalNumber.from_natural(a * b)
            rhs = SupernaturalNumber.from_natural(a) * SupernaturalNumber.from_natural(b)
            assert lhs == rhs

    def test_commutative_associative(self):
        rng = random.Random(12)
        pool = [2, 3, 5, 7]
        def draw():
            fac = {}
            for p in rng.sample(pool, rng.randint(0, 3)):
                fac[p] = rng.choice([1, 2, 3, INF])
            return SupernaturalNumber(fac)
        for _ in range(300):
            x, y, z = draw(), draw(), draw()
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)


class TestMatches:
    def test_agrees_with_factoring(self):
        rng = random.Random(12)
        verdicts = {True: 0, False: 0}
        for _ in range(600):
            n = 1
            for p in rng.sample((2, 3, 5, 7, 11), rng.randint(0, 3)):
                n *= p ** rng.randint(1, 4)
            over = rng.choice((1, 1, 2, 6, 10, 35, 4))
            exact = SupernaturalNumber.from_natural(n) * SupernaturalNumber(
                {p: INF for p in SupernaturalNumber.from_natural(over).primes()}
            )
            fac = dict(exact.factors)
            if rng.random() < 0.5:
                p = rng.choice((2, 3, 5, 7, 13))
                fac[p] = rng.choice((1, 2, INF))
            claim = SupernaturalNumber(fac)
            want = claim == exact
            assert claim.matches(n, over) == want, (claim, n, over)
            verdicts[want] += 1
        assert min(verdicts.values()) > 150

    def test_huge_exponent_is_compared_not_raised(self):
        # 2**(10**4000) would not fit in memory
        claim = sn((2, 10**4000))
        assert not claim.matches(2**64)
        assert not claim.matches(1, 2)
        assert not sn((2, INF), (3, 10**4000)).matches(2 * 3**5, 2)


class TestDivides:
    def test_finite_into_infinite(self):
        assert sn((2, 1)).divides(sn((2, INF)))

    def test_missing_prime(self):
        assert not sn((3, 1)).divides(sn((2, INF)))

    def test_reflexive(self):
        x = sn((2, 2), (3, 1))
        assert x.divides(x)

    def test_partial_order_on_random_triples(self):
        rng = random.Random(13)
        pool = [2, 3, 5]
        def draw():
            fac = {}
            for p in rng.sample(pool, rng.randint(0, 3)):
                fac[p] = rng.choice([1, 2, INF])
            return SupernaturalNumber(fac)
        for _ in range(1000):
            x, y, z = draw(), draw(), draw()
            assert x.divides(x)
            if x.divides(y) and y.divides(x):
                assert x == y
            if x.divides(y) and y.divides(z):
                assert x.divides(z)


class TestAssociatedSequence:
    def test_two_to_infinity(self):
        assert sn((2, INF)).associated_sequence(3) == (2, 4, 8)

    def test_one_gives_constant_ones(self):
        assert ONE.associated_sequence(3) == (1, 1, 1)

    def test_six(self):
        assert SupernaturalNumber.from_natural(6).associated_sequence(2) == (2, 6)

    def test_capped_exponents(self):
        # 2^inf*3^2*5: exponents of 3 and 5 saturate at 2 and 1
        n = SupernaturalNumber.parse("2^inf*3^2*5")
        assert n.associated_sequence(4) == (2, 36, 360, 720)

    def test_divisibility_chain(self):
        rng = random.Random(14)
        pool = [2, 3, 5, 7, 11]
        for _ in range(200):
            fac = {}
            for p in rng.sample(pool, rng.randint(0, 4)):
                fac[p] = rng.choice([1, 2, 3, INF])
            n = SupernaturalNumber(fac)
            length = rng.randint(1, 7)
            chain = n.associated_sequence(length)
            assert len(chain) == length
            for a, b in zip(chain, chain[1:]):
                assert b % a == 0
                assert b // a >= 1


class TestText:
    def test_parse_round_trip(self):
        for text in ("1", "2", "2^inf", "2^inf*3^2*5", "3^4*7^inf"):
            n = SupernaturalNumber.parse(text)
            assert str(n) == text
            assert SupernaturalNumber.parse(str(n)) == n

    def test_parse_rejects_garbage(self):
        for text in ("", "4", "2^0", "2*2", "2^", "x", "2^-1", "6^inf"):
            with pytest.raises(ValueError):
                SupernaturalNumber.parse(text)

    def test_parse_rejects_non_ascii_digits(self):
        for text in (" 2^\u0663 * 5 ", "\u0663", "2^\u00b2"):
            with pytest.raises(ValueError):
                SupernaturalNumber.parse(text)

    def test_finite_round_trip_to_int(self):
        n = SupernaturalNumber.from_natural(360)
        assert n.is_finite()
        assert n.to_int() == 360
        assert not sn((2, INF)).is_finite()
