"""Each fact in one form, against the code that computed it twice.

equiv reads a side's path space off its kept counts, len(keep_at(seq,
t)) at each presented level, where it used to build the pruned sequence
with injectivize and read its ranks and tail start.  unit_change hands
the diagonals rescale_lemma built to the cycle search, where it used to
derive them all again with the verifier's _diagonals.  A supernatural
exponent INF is math.inf, where it used to be a token with no order or
arithmetic, special-cased by every method that read an exponent.  Local
copies of the old code are kept here, the way test_push_keeps.py keeps
the old walks, and compared with the package on seeded random inputs.
"""

import random

from bratteli import (
    INF,
    Cardinality,
    Equivalent,
    Intertwining,
    NotEquivalent,
    SupernaturalNumber,
    Unknown,
    equivalent_q,
    injectivize,
    intertwine,
    unit_change,
)
from bratteli.equiv import EquivalenceCertificate, _path_space
from bratteli.intertwine import _diagonals
from genseq import max_usable_level, random_sequence

TAILS = ("none", "cyclic", "sub")


def _sequences(seed, count=500):
    rng = random.Random(seed)
    for i in range(count):
        yield rng, random_sequence(rng, tail=TAILS[i % 3])


# -- path spaces: the old readings off the pruned sequence ----------------


def _old_path_space(seq):
    pruned, _ = injectivize(seq)
    if not pruned.is_tailed:
        return pruned, Cardinality.lower_bound(pruned.ranks[-1])
    if pruned.ranks[pruned.periodic_tail - 1] == pruned.ranks[-1]:
        return pruned, Cardinality.finite(pruned.ranks[-1])
    return pruned, Cardinality.infinite()


def _old_equivalent_q(left, right, depth=5):
    prunedA, cardA = _old_path_space(left)
    prunedB, cardB = _old_path_space(right)
    if "lower_bound" in (cardA.kind, cardB.kind):
        return Unknown(depth)
    if cardA.kind != cardB.kind:
        return NotEquivalent(cardA, cardB, "finiteness")
    if cardA != cardB:
        return NotEquivalent(cardA, cardB, "cardinality")
    if cardA.kind == "infinite":
        levels = (prunedA.periodic_tail,), (prunedB.periodic_tail,)
        tw = Intertwining(*levels, (), (), "restart-cut")
    else:
        n = cardA.count
        levels = (prunedA.ranks.index(n) + 1,), (prunedB.ranks.index(n) + 1,)
        tw = Intertwining(*levels, (tuple(range(n)),), (), "stable-bijection")
    return Equivalent(EquivalenceCertificate(left, right, cardA, cardB, tw))


def test_kept_counts_are_the_pruned_sizes():
    kinds = {"lower_bound": 0, "finite": 0, "infinite": 0}
    for _, seq in _sequences(2001):
        sizes, card = _path_space(seq)
        pruned, old_card = _old_path_space(seq)
        assert sizes == pruned.ranks, seq
        assert pruned.periodic_tail == seq.periodic_tail, seq
        assert card == old_card, seq
        kinds[card.kind] += 1
    assert min(kinds.values()) > 50


def test_verdicts_match_the_pruned_reading():
    verdicts = {Equivalent: 0, NotEquivalent: 0, Unknown: 0}
    closures = {"restart-cut": 0, "stable-bijection": 0}
    rng = random.Random(2002)
    pool = [seq for _, seq in _sequences(2003, count=100)]
    for _ in range(500):
        left, right = rng.choice(pool), rng.choice(pool)
        got = equivalent_q(left, right)
        assert got == _old_equivalent_q(left, right), (left, right)
        verdicts[type(got)] += 1
        if isinstance(got, Equivalent):
            closures[got.certificate.intertwining.closure] += 1
    assert min(verdicts.values()) > 20 and min(closures.values()) > 5


# -- ladder diagonals: built once, equal to the verifier's derivation -----


def test_ladder_diagonals_are_the_derived_ones():
    # the diagonals unit_change passes to the cycle search, captured on
    # their way in, against those _diagonals derives from the scalars
    seen = []
    search = intertwine._detect_cycle

    def capture(seq, scalars, diagonals):
        seen.append(tuple(diagonals))
        return search(seq, scalars, diagonals)

    cycled = 0
    intertwine._detect_cycle = capture
    try:
        for i, (rng, seq) in enumerate(_sequences(2004)):
            strategy = "paper" if i % 4 == 0 else "minimal"
            top = min(max_usable_level(seq), 5 if strategy == "paper" else 12)
            alt = tuple(rng.randint(1, 6) for _ in range(seq.ranks[0]))
            cert = unit_change(seq, alt, rng.randint(0, top), strategy)
            want, failure = _diagonals(seq, alt, cert.rungs)
            assert failure is None
            assert seen.pop() == tuple(want), (seq, alt, strategy)
            cycled += cert.exact_n is not None
    finally:
        intertwine._detect_cycle = search
    assert cycled > 50


# -- supernatural exponents: the old token and its special cases -----------


class _Infinity:
    __slots__ = ()

    def __repr__(self):
        return "inf"


_OLD_INF = _Infinity()


def _old(n):
    # n's factors with the old token for each infinite exponent
    return tuple((p, _OLD_INF if e == INF else e) for p, e in n.factors)


def _split_power(n, d):
    e = 0
    while n % d == 0:
        n //= d
        e += 1
    return e, n


def _old_matches(factors, n, over):
    for p, e in factors:
        if e is _OLD_INF:
            if over % p:
                return False
            over = _split_power(over, p)[1]
            n = _split_power(n, p)[1]
        else:
            got, n = _split_power(n, p)
            if got != e or over % p == 0:
                return False
    return n == 1 and over == 1


def _old_multiply(a, b):
    fac = dict(a)
    for p, e in b:
        old = fac.get(p, 0)
        fac[p] = _OLD_INF if (e is _OLD_INF or old is _OLD_INF) else old + e
    return tuple(sorted(fac.items(), key=lambda pe: pe[0]))


def _old_ratios(factors, length):
    out = []
    for i in range(length):
        r = 1
        for p, e in factors[:i]:
            if e is _OLD_INF or e > i:
                r *= p
        if i < len(factors):
            p, e = factors[i]
            r *= p ** (i + 1 if e is _OLD_INF else min(i + 1, e))
        out.append(r)
    return tuple(out)


def _old_str(factors):
    if not factors:
        return "1"
    parts = []
    for p, e in factors:
        if e == 1:
            parts.append(str(p))
        elif e is _OLD_INF:
            parts.append(f"{p}^inf")
        else:
            parts.append(f"{p}^{e}")
    return "*".join(parts)


PRIMES = (2, 3, 5, 7, 11)


def _random_supernatural(rng):
    picked = rng.sample(PRIMES, rng.randint(0, len(PRIMES)))
    return SupernaturalNumber({p: rng.choice((1, 2, 3, 5, INF)) for p in picked})


def _claim(rng, x):
    # (n, over) that x matches, then perturbed half of the time
    n = over = 1
    for p, e in x.factors:
        if e == INF:
            over *= p ** rng.randint(1, 2)
            n *= p ** rng.randint(0, 3)
        else:
            n *= p**e
    if rng.random() < 0.5:
        p = rng.choice(PRIMES)
        if rng.random() < 0.5:
            n *= p
        else:
            over *= p
    return n, over


def test_exponent_arithmetic_matches_the_token():
    rng = random.Random(2005)
    matched = {True: 0, False: 0}
    for _ in range(500):
        a, b = _random_supernatural(rng), _random_supernatural(rng)
        assert _old(a * b) == _old_multiply(_old(a), _old(b)), (a, b)
        length = rng.randint(1, 8)
        assert a.associated_ratios(length) == _old_ratios(_old(a), length), a
        assert str(a) == _old_str(_old(a))
        assert repr(a) == f"SupernaturalNumber(factors={_old(a)!r})"
        assert SupernaturalNumber.parse(str(a)) == a
        n, over = _claim(rng, a)
        got = a.matches(n, over)
        assert got == _old_matches(_old(a), n, over), (a, n, over)
        matched[got] += 1
    assert min(matched.values()) > 100


def test_a_float_infinity_is_inf():
    assert SupernaturalNumber({2: float("inf")}) == SupernaturalNumber({2: INF})
    assert str(SupernaturalNumber({2: float("inf"), 3: 2})) == "2^inf*3^2"
