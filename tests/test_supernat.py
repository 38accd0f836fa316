import random

import pytest

from bratteli import INF, SupernaturalNumber, TooLarge, is_prime


def sn(*pairs):
    return SupernaturalNumber(dict(pairs))


class TestInfinity:
    """INF as an exponent, read through the operations that take
    exponents: it is math.inf, above every int and absorbing addition."""

    def test_orders_above_every_int(self):
        # the chain of 2^inf outgrows every finite power of 2
        assert sn((2, INF)).associated_ratios(200) == (2,) * 200
        assert sn((2, 10**18)) != sn((2, INF))
        assert not sn((2, INF)).matches(2**64)
        assert sn((2, INF)).matches(1, 2)

    def test_absorbs_addition(self):
        # multiplying adds exponents
        assert sn((2, INF)) * sn((2, 7)) == sn((2, INF))
        assert sn((2, 7)) * sn((2, INF)) == sn((2, INF))
        assert sn((2, INF)) * sn((2, INF)) == sn((2, INF))


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

    def test_rejects_repeated_prime(self):
        # sorted by prime alone, so an infinite exponent is never compared
        for pairs in ([(2, INF), (2, 3)], [(3, 1), (2, INF), (3, INF)]):
            with pytest.raises(ValueError, match="repeated"):
                SupernaturalNumber(pairs)

    def test_from_natural_one_is_empty(self):
        assert SupernaturalNumber.from_natural(1) == SupernaturalNumber.one()
        assert SupernaturalNumber.one().factors == ()

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
        one = SupernaturalNumber.one()
        assert one * x == x
        assert x * one == x

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


class TestAssociatedSequence:
    """The associated sequence n_1 | n_2 | ..., read through its ratios:
    ratio 0 is n_1 and ratio i is n_(i+1) / n_i."""

    def test_two_to_infinity(self):
        assert sn((2, INF)).associated_ratios(3) == (2, 2, 2)

    def test_matches_the_definition(self):
        # n_i is the product of the first i primes p, each to the power
        # min(i, e_p)
        rng = random.Random(15)
        pool = [2, 3, 5, 7, 11]
        for _ in range(300):
            picked = rng.sample(pool, rng.randint(0, 5))
            n = SupernaturalNumber({p: rng.choice([1, 2, 3, 5, INF]) for p in picked})
            length = rng.randint(1, 9)
            chain = [1]
            for i in range(1, length + 1):
                n_i = 1
                for p, e in n.factors[:i]:
                    n_i *= p ** (i if e is INF else min(i, e))
                chain.append(n_i)
            want = tuple(b // a for a, b in zip(chain, chain[1:]))
            assert n.associated_ratios(length) == want, (n, length)

    def test_one_gives_constant_ones(self):
        assert SupernaturalNumber.one().associated_ratios(3) == (1, 1, 1)

    def test_six(self):
        # the chain 2 | 6
        assert SupernaturalNumber.from_natural(6).associated_ratios(2) == (2, 3)

    def test_capped_exponents(self):
        # 2^inf*3^2*5: the chain 2 | 36 | 360 | 720, where the exponents
        # of 3 and 5 saturate at 2 and 1
        n = SupernaturalNumber.parse("2^inf*3^2*5")
        assert n.associated_ratios(4) == (2, 18, 10, 2)

    def test_divisibility_chain(self):
        # every n_i divides n: its running product never takes a prime
        # outside n, nor past n's exponent
        rng = random.Random(14)
        pool = [2, 3, 5, 7, 11]
        for _ in range(200):
            fac = {}
            for p in rng.sample(pool, rng.randint(0, 4)):
                fac[p] = rng.choice([1, 2, 3, INF])
            n = SupernaturalNumber(fac)
            length = rng.randint(1, 7)
            ratios = n.associated_ratios(length)
            assert len(ratios) == length
            exps = dict.fromkeys(pool, 0)
            for r in ratios:
                assert r >= 1
                for p in pool:
                    while r % p == 0:
                        r //= p
                        exps[p] += 1
                assert r == 1
                for p, k in exps.items():
                    assert k == 0 or fac[p] is INF or k <= fac[p], (n, ratios)


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
