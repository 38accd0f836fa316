"""Supernatural numbers: formal products of primes with exponents in N or inf.

A supernatural number n determines the subgroup Q_n of the rationals
generated by 1/d for every natural d dividing n.  The associated
sequence n_1 | n_2 | ... realizes Q_n as an increasing union of cyclic
subgroups; the tensoring code consumes its ratios n_{i+1}/n_i, which
have closed forms.

An exponent is a positive int or INF, which is math.inf: it orders
above every int and absorbs addition, so products add exponents and
the associated sequence caps them with min, the infinite ones alike.
"""

from __future__ import annotations

import re
from math import inf, isqrt
from operator import itemgetter

from .errors import DIGITS, Frozen, TooLarge

_NATURAL = re.compile(DIGITS)


# the infinite exponent; its repr and str, "inf", are its text form
INF = inf


# Trial division stops at this bound: a cofactor below its square with
# no divisor up to the bound is prime, and anything larger is TooLarge
# rather than a search of up to sqrt(n) steps.
_TRIAL_BOUND = 1 << 20


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


def is_prime(p: int) -> bool:
    """Primality by trial division; TooLarge when p has no divisor up to
    the trial bound and is not below its square."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    root = isqrt(p)
    for d in range(3, min(root, _TRIAL_BOUND) + 1, 2):
        if p % d == 0:
            return False
    if root > _TRIAL_BOUND:
        raise _too_large(p)
    return True


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
        fac = {}
        d = 2
        while d * d <= n:
            if d > _TRIAL_BOUND:
                raise _too_large(n)
            if n % d == 0:
                fac[d], n = _split_power(n, d)
            d += 1 if d == 2 else 2
        if n > 1:
            fac[n] = 1
        return cls(fac)

    def matches(self, n: int, over: int = 1) -> bool:
        """Whether self == from_natural(n) * (every prime of over)^inf.

        Divides n and over by the primes listed here rather than
        factoring either, so the cost does not grow with a listed
        exponent, and no trial division runs.
        """
        for p, e in self.factors:
            got, n = _split_power(n, p)
            k, over = _split_power(over, p)
            if e != (INF if k else got):
                return False
        return n == 1 and over == 1

    def primes(self) -> tuple:
        return tuple(p for p, _ in self.factors)

    def multiply(self, other: "SupernaturalNumber") -> "SupernaturalNumber":
        fac = dict(self.factors)
        for p, e in other.factors:
            fac[p] = fac.get(p, 0) + e
        return SupernaturalNumber(fac)

    __mul__ = multiply

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
    return int(text)
