"""Supernatural numbers: formal products of primes with exponents in N or inf.

A supernatural number n determines the subgroup Q_n of the rationals
generated by 1/d for every natural d dividing n.  The associated
sequence n_1 | n_2 | ... realizes Q_n as an increasing union of cyclic
subgroups; the tensoring code consumes its ratios n_{i+1}/n_i, which
have closed forms.

An exponent is a positive int or INF, which is math.inf: it orders
above every int and absorbs addition, so a ladder's scalars sum their
exponents and the associated sequence caps them, the infinite ones alike.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import compress
from math import gcd, inf, isqrt, prod
from operator import itemgetter

from .errors import DIGITS, Frozen, TooLarge

_NATURAL = re.compile(DIGITS)


# the infinite exponent; its repr and str, "inf", are its text form
INF = inf


# Trial division stops at this bound: a cofactor below its square with
# no divisor up to the bound is prime, and anything larger is TooLarge
# rather than a search of up to sqrt(n) steps.
_TRIAL_BOUND = 1 << 20

# Odd numbers up to this bound are tried one division at a time; the
# primes past it, up to _TRIAL_BOUND, a chunk of _CHUNK at a time, by
# one gcd with their product, so a number of thousands of digits with
# no small factor costs about 300 gcds, not 500,000 divisions.
_SHORT_BOUND = 1 << 12
_CHUNK = 256


def _too_large(n: int) -> TooLarge:
    return TooLarge(
        f"a {n.bit_length()}-bit number has no divisor up to {_TRIAL_BOUND} "
        "and is too large to call prime"
    )


def _split_power(n: int, d: int):
    """(e, n // d**e) for the largest e with d**e dividing n.

    Tries d^2, d^4, d^8, ... and then divides by them from the largest
    down, so a huge n costs about 2 log2(e) big divisions, not e.
    """
    powers = [d]
    while n % (powers[-1] * powers[-1]) == 0:
        powers.append(powers[-1] * powers[-1])
    e = 0
    for k in range(len(powers) - 1, -1, -1):
        if n % powers[k] == 0:
            n //= powers[k]
            e += 1 << k
    return e, n


def _weights(ns, over=()) -> dict:
    # each distinct number of ns and over -> the factor on its primes'
    # exponents: how often ns holds it, or INF if over holds it
    weights = {}
    for n in ns:
        weights[n] = weights.get(n, 0) + 1
    weights.update(dict.fromkeys(over, INF))
    return weights


def _least_factor(n: int, d: int = 2) -> int:
    # the least factor of n > 1 from d on, n having none below d; TooLarge
    # when n has none up to the trial bound and is not below its square.
    # A prime below d divides no chunk's gcd with n, so the first chunk
    # whose gcd is past 1 holds the least factor: the least number of the
    # chunk's range that divides the gcd, a product of distinct primes of
    # the chunk.  One past the square root divides only a prime n
    if n % 2 == 0:
        return 2
    root = isqrt(n)
    top = min(root, _TRIAL_BOUND)
    for k in range(d | 1, min(top, _SHORT_BOUND) + 1, 2):
        if n % k == 0:
            return k
    if top > _SHORT_BOUND:
        for first, last, product in _prime_chunks():
            if first > top:
                break
            if last < d:
                continue
            g = gcd(n, product)
            if g > 1:
                return next(k for k in range(first, last + 1, 2) if g % k == 0)
    if root > _TRIAL_BOUND:
        raise _too_large(n)
    return n


@lru_cache(maxsize=1)
def _prime_chunks() -> tuple:
    # (first, last, product) for each run of _CHUNK primes past
    # _SHORT_BOUND up to _TRIAL_BOUND, ascending, by one sieve
    sieve = bytearray([1]) * (_TRIAL_BOUND + 1)
    for i in range(2, isqrt(_TRIAL_BOUND) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, _TRIAL_BOUND + 1, i)))
    primes = list(compress(range(_SHORT_BOUND + 1, _TRIAL_BOUND + 1), sieve[_SHORT_BOUND + 1 :]))
    chunks = (primes[i : i + _CHUNK] for i in range(0, len(primes), _CHUNK))
    return tuple((chunk[0], chunk[-1], prod(chunk)) for chunk in chunks)


def is_prime(p: int) -> bool:
    """Primality by trial division; TooLarge when p has no divisor up to
    the trial bound and is not below its square."""
    return p >= 2 and _least_factor(p) == p


class SupernaturalNumber(Frozen):
    """Finite association prime -> exponent, exponents positive ints or INF.

    The empty product is the number 1.  Stored as a tuple of pairs sorted
    by prime, so equality and hashing are structural.
    """

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        if isinstance(factors, dict):
            factors = factors.items()
        # by prime alone: a repeated prime is refused below
        pairs = sorted((tuple(it) for it in factors), key=itemgetter(0))
        seen = set()
        for p, e in pairs:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if p in seen:
                raise ValueError(f"prime {p} repeated")
            seen.add(p)
            if e != INF and (not isinstance(e, int) or e < 1):
                raise ValueError(f"exponent of {p} must be a positive integer or INF")
        self._freeze(tuple(pairs))

    @classmethod
    def one(cls) -> "SupernaturalNumber":
        return cls()

    @classmethod
    def from_natural(cls, n: int) -> "SupernaturalNumber":
        if not isinstance(n, int) or n < 1:
            raise ValueError("from_natural needs a natural number >= 1")
        # each prime is found by trial division, so needs no check
        factors, p = [], 2
        while n > 1:
            p = _least_factor(n, p)
            e, n = _split_power(n, p)
            factors.append((p, e))
        return cls._of(tuple(factors))

    def matches(self, ns, over=()) -> bool:
        """Whether self == from_natural(prod(ns)) * (every prime of prod(over))^inf.

        Divides each distinct number of ns and over by the primes listed
        here, so no product is formed, no trial division runs, and the
        cost does not grow with a listed exponent.
        """
        rest = list(_weights(ns, over).items())
        for p, e in self.factors:
            got = 0
            for i, (n, k) in enumerate(rest):
                g, n = _split_power(n, p)
                rest[i] = n, k
                got += g and g * k  # not 0 * INF, which is nan
            if got != e:
                return False
        return all(n == 1 for n, _ in rest)

    def primes(self) -> tuple:
        return tuple(p for p, _ in self.factors)

    def associated_ratios(self, length: int) -> tuple:
        """n_1, n_2 / n_1, ..., n_length / n_(length-1) of the associated
        sequence, each in closed form.

        The associated sequence n_1 | n_2 | ... takes, at step i, the
        first i primes in ascending order, each capped at exponent
        min(i, e_p); its supremum recovers every exponent, including the
        infinite ones.  Prime p_j (0-based) enters at step j with
        exponent min(j + 1, e), and at each later step i gains one more
        while e > i, so no n_i, which has about i bits, is ever formed.
        """
        if not isinstance(length, int) or length < 1:
            raise ValueError("length must be >= 1")
        out = []
        for i in range(length):
            r = 1
            for p, e in self.factors[:i]:
                if e > i:
                    r *= p
            if i < len(self.factors):
                p, e = self.factors[i]
                r *= p ** min(i + 1, e)
            out.append(r)
        return tuple(out)

    def _steady_step(self) -> int:
        # the least step i from which ratio i is the infinite primes' product
        return max([len(self.factors), *(e for _, e in self.factors if e != INF)])

    @classmethod
    def parse(cls, text: str) -> "SupernaturalNumber":
        """Read the textual form, e.g. ``2^inf*3^2*5`` or ``1``."""
        text = text.strip()
        if text == "1":
            return cls()
        fac = {}
        for token in text.split("*"):
            token = token.strip()
            if "^" in token:
                base, _, exp = token.partition("^")
                p = _parse_nat(base, token)
                e = INF if exp.strip() == "inf" else _parse_nat(exp, token)
            else:
                p = _parse_nat(token, token)
                e = 1
            if p in fac:
                raise ValueError(f"prime {p} repeated in {text!r}")
            fac[p] = e
        return cls(fac)

    def __str__(self):
        if not self.factors:
            return "1"
        parts = []
        for p, e in self.factors:
            parts.append(str(p) if e == 1 else f"{p}^{e}")
        return "*".join(parts)


def _parse_nat(text: str, token: str) -> int:
    text = text.strip()
    if not _NATURAL.fullmatch(text):
        raise ValueError(f"bad supernatural token {token!r}")
    try:
        return int(text)
    except ValueError:  # past int()'s limit of sys.get_int_max_str_digits()
        raise ValueError(f"a numeral of {len(text)} digits is too long") from None
