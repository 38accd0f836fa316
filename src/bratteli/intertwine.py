"""Absorbing a change of order unit into rational scaling.

Two copies of the same sequence, one started at the base unit u and one
at an alternative unit w, are intertwined by a ladder of positive
diagonal maps.  Rung 1 sends u to an integer multiple of w; every later
rung is produced from the previous one by clearing denominators against
the next connecting map, which costs one more integer scalar per rung.
The scalars of the up rungs and of the down rungs give two natural
numbers N and M (partial products of two supernatural numbers) such
that the towers scaled by N and by M agree down to the explored depth;
each distinct scalar is factored once, and neither product is formed.
On a cyclic tail the rung data eventually cycles, and then the full
supernatural numbers are known exactly.  A certificate keeps only the
rung scalars; its verifier derives every diagonal from them.
"""

from __future__ import annotations

from math import lcm, prod

from .diagram import BratteliSequence, _check_listing, _refuse_unwritable, _write_cut
from .errors import Frozen, NotOrderUnit, NotPositive, RankMismatch, TooLarge, _set
from .simplicial import NonMixingMap, is_order_unit
from .supernat import SupernaturalNumber, _weights

# a rung scalar past this many bits stops the ladder: factoring one with
# no small factor takes minutes (8 s at 2**16 bits on a 2-vCPU VM)
_SCALAR_BITS = 2**20


class DiagonalMap(Frozen):
    """Multiplication by a strictly positive integer vector, entrywise."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise NotPositive("diagonal needs at least one entry")
        for v in entries:
            if not isinstance(v, int) or v < 1:
                raise NotPositive(f"diagonal entry {v!r} must be a positive integer")
        self._freeze(entries)

    @classmethod
    def _of(cls, entries: tuple) -> "DiagonalMap":
        # Frozen._of in one store, for the diagonal of every rung
        self = cls.__new__(cls)
        _set(self, "entries", entries)
        return self

    @property
    def rank(self) -> int:
        return len(self.entries)

    def apply(self, x) -> tuple:
        x = tuple(x)
        if len(x) != self.rank:
            raise RankMismatch(f"vector has length {len(x)}, diagonal rank {self.rank}")
        return tuple(d * v for d, v in zip(self.entries, x))


def rescale_lemma(alpha: NonMixingMap, gamma: DiagonalMap, strategy: str = "minimal"):
    """Push a diagonal past a non-mixing map at the cost of a scalar.

    Returns (n, eta) with eta . alpha . gamma == n . alpha, where eta is
    again a positive diagonal.  Writing alpha row j as multiplication by
    k_j out of source coordinate i_j, and gamma as the diagonal (l_i),
    the choice eta_j = n / l_{i_j} works for any n divisible by every
    l_{i_j}.  Strategy "minimal" takes n as the lcm of those entries;
    "paper" takes the product of all k_j and all l_{i_j}, which is the
    same rescaling up to a redundant common factor.  A scalar of more
    than 2**20 bits raises TooLarge.
    """
    entries = gamma.entries
    if len(entries) != alpha.source_rank:
        raise RankMismatch(
            f"diagonal rank {gamma.rank} != map source rank {alpha.source_rank}"
        )
    used = [entries[i] for i in alpha.parent]
    if strategy == "minimal":
        n = lcm(*used)
    elif strategy == "paper":
        n = prod(alpha.mult) * prod(used)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    if n.bit_length() > _SCALAR_BITS:
        raise TooLarge(f"rung scalar of {n.bit_length()} bits exceeds {_SCALAR_BITS} bits")
    # n is a multiple of every l, so every entry is at least 1
    return n, DiagonalMap._of(tuple([n // l for l in used]))


class UnitChangeCertificate(Frozen):
    """A checkable witness that two units differ by rational scaling.

    rungs holds the scalar of each rung, rung 1 first.  Rung t lives at
    level t; odd rungs are down rungs, which map the u tower to the w
    tower, and even rungs are up rungs, which map back.  Each rung's
    diagonal follows from the scalars (see certificate_failures), so it
    is not stored.  partial_n and partial_m multiply the scalars seen so
    far on up and down rungs, prime by prime; they only ever grow as the
    depth increases.  exact_n and exact_m are filled in when the rung
    data is seen to cycle (possible on cyclic tails), and then describe
    the full supernatural scalings; otherwise they stay None.
    """

    __slots__ = (
        "seq",
        "alt_unit",
        "strategy",
        "rungs",
        "partial_n",
        "partial_m",
        "exact_n",
        "exact_m",
    )

    def __init__(
        self,
        seq: BratteliSequence,
        alt_unit: tuple,
        strategy: str,
        rungs: tuple,
        partial_n: SupernaturalNumber,
        partial_m: SupernaturalNumber,
        exact_n: SupernaturalNumber | None = None,
        exact_m: SupernaturalNumber | None = None,
    ):
        rungs = tuple(rungs)
        # one pass over the types and one min; the loop names a bad rung
        if not {int}.issuperset(map(type, rungs)) or min(rungs, default=1) < 1:
            for t, s in enumerate(rungs, start=1):
                if not isinstance(s, int) or s < 1:
                    raise NotPositive(f"rung {t} scalar {s!r} must be a positive integer")
        self._freeze(
            seq, alt_unit, strategy, rungs, partial_n, partial_m, exact_n, exact_m
        )


# the index parity of the up and of the down rungs' scalars: rung t,
# at index t - 1, is up when t is even
_UP, _DOWN = 1, 0


def _of_parity(scalars, parity: int, lo: int = 0, hi: int | None = None) -> tuple:
    # scalars[lo:hi] at the indices of the given parity
    return scalars[lo + (lo + parity) % 2 : hi : 2]


def _scaling(factored: dict, ns, over=()) -> SupernaturalNumber:
    # the number SupernaturalNumber.matches(ns, over) accepts, each distinct
    # scalar factored once into factored; no product is formed
    exponents = {}
    for s, k in _weights(ns, over).items():
        if s not in factored:
            factored[s] = SupernaturalNumber.from_natural(s)
        for p, e in factored[s].factors:
            exponents[p] = exponents.get(p, 0) + e * k
    return SupernaturalNumber._of(tuple(sorted(exponents.items())))


def _diagonals(seq, alt_unit, scalars) -> tuple:
    """(diagonals, failure): every rung's diagonal, derived from the
    scalars alone.

    Rung 1's diagonal is D_1 = s_1 * w_1 / u_1 entrywise, and rung t's
    is D_t[j] = s_t / D_{t-1}[parent(j)], with parent that of the map
    from level t - 1.  Every division must be exact.  diagonals lists
    D_1, D_2, ... as tuples up to the first rung whose derivation fails;
    failure is then a line naming that rung and coordinate (1-based),
    and otherwise None.
    """
    diagonals = []
    if not scalars:
        return diagonals, None
    s = scalars[0]
    d = []
    for i, (u, w) in enumerate(zip(seq.base_unit, alt_unit), start=1):
        q, r = divmod(s * w, u)
        if r:
            return diagonals, (
                "rung 1: the scalar times the alt_unit entry is not a "
                f"multiple of the unit entry at coordinate {i}"
            )
        d.append(q)
    prev = tuple(d)
    diagonals.append(prev)
    # a rung past the last level fails, once every rung below it divides
    top = len(scalars) if seq.has_level(len(scalars)) else seq.length
    for t, s, a in zip(range(2, top + 1), scalars[1:], seq._maps_to(top)):
        used = [prev[i] for i in a.parent]
        rests = [s % l for l in used]
        if any(rests):
            j = next(j for j, r in enumerate(rests, start=1) if r)
            return diagonals, (
                f"rung {t}: the scalar is not a multiple of rung {t - 1}'s "
                f"entry at coordinate {j}"
            )
        prev = tuple([s // l for l in used])
        diagonals.append(prev)
    if top < len(scalars):
        return diagonals, f"rung {top + 1}: level {top + 1} not available"
    return diagonals, None


def _detect_cycle(seq, scalars, diagonals):
    """Look for a repeated rung state on a cyclic tail.

    The state (block position, direction, diagonal entries) of a rung at
    level >= the tail start determines every later rung, so the first
    repeat pins down the infinite scalings exactly.  diagonals are the
    rungs' diagonals, as unit_change builds them or _diagonals derives
    them from the scalars.  Returns the up and the down scalars as
    (scalars before the cycle, scalars of one cycle) pairs, or
    (None, None) when no state repeats.
    """
    if seq.tail_kind != "cyclic":
        return None, None
    seen = {}
    for idx in range(seq.periodic_tail - 1, len(diagonals)):
        t = idx + 1
        state = (seq._block_position(t), t % 2, diagonals[idx])
        if state in seen:
            first = seen[state] + 1
            return tuple(
                (_of_parity(scalars, d, 0, first), _of_parity(scalars, d, first, idx + 1))
                for d in (_UP, _DOWN)
            )
        seen[state] = idx
    return None, None


def unit_change(
    seq: BratteliSequence, alt_unit, depth: int, strategy: str = "minimal"
) -> UnitChangeCertificate:
    """Build the ladder between the base unit and alt_unit, depth rungs
    deep; levels 1..depth past the listing budget
    (diagram._check_listing) raise TooLarge before any rung is built, and
    a rung scalar too long to write (diagram._refuse_unwritable) as it
    is formed, before a longer one is built on it."""
    alt_unit = tuple(alt_unit)
    if len(alt_unit) != seq.ranks[0]:
        raise RankMismatch(
            f"alternative unit has length {len(alt_unit)}, level 1 has rank {seq.ranks[0]}"
        )
    if not is_order_unit(alt_unit):
        raise NotOrderUnit(f"{alt_unit} is not strictly positive")
    if not isinstance(depth, int) or depth < 0:
        raise ValueError(f"depth must be a nonnegative integer, got {depth!r}")
    # rank_at refuses the first level that is not there
    _check_listing((seq,), range(1, depth + 1), listing=f"depth {depth}")

    scalars, diagonals = [], []
    if depth >= 1:
        u1 = seq.base_unit
        m1 = prod(u1)
        _refuse_unwritable((m1,), "rung 1 scalar")
        diag = DiagonalMap(tuple((m1 // u) * w for u, w in zip(u1, alt_unit)))
        scalars.append(m1)
        diagonals.append(diag.entries)
        # rung t reads the map out of level t - 1, in order
        cut = _write_cut()
        for t, a in enumerate(seq._maps_to(depth), start=2):
            s, diag = rescale_lemma(a, diag, strategy)
            if cut is not None and s >= cut:
                _refuse_unwritable((s,), f"rung {t} scalar")
            scalars.append(s)
            diagonals.append(diag.entries)
    scalars = tuple(scalars)

    memo = {}
    partial_n, partial_m = (_scaling(memo, _of_parity(scalars, d)) for d in (_UP, _DOWN))
    cycles = _detect_cycle(seq, scalars, diagonals)
    exact_n, exact_m = (None if c is None else _scaling(memo, *c) for c in cycles)
    return UnitChangeCertificate(
        seq, alt_unit, strategy, scalars, partial_n, partial_m, exact_n, exact_m
    )


def certificate_failures(cert: UnitChangeCertificate) -> list:
    """Re-derive every claim of the certificate; list what fails, if anything.

    The certificate carries only the rung scalars s_1, s_2, ....  The
    checks do not re-run the construction: _diagonals derives each
    rung's diagonal from the scalars, D_1 = s_1 * w_1 / u_1 and D_t[j] =
    s_t / D_{t-1}[parent(j)], and a division that is not exact fails the
    certificate at that rung and coordinate.  This takes O(depth * rank)
    steps on numbers no longer than the scalars; rung levels past the
    listing budget (diagram._check_listing) raise TooLarge before any
    diagonal is derived.

    Why no more is needed.  Write u_t and w_t for the two units pushed
    to level t, and N_t and M_t for the products of the up and of the
    down scalars through rung t.  The ladder claims that a down rung's
    diagonal carries N_t u_t to M_t w_t, and an up rung's carries M_t w_t
    to N_t u_t.  Rung 1 is down with N_1 = 1 and M_1 = s_1, so its claim
    D_1 u_1 = s_1 w_1 holds by the definition of D_1.  Suppose a down
    rung t holds, D_t[i] N_t u_t[i] = M_t w_t[i].  Rung t + 1 is up, with
    N_{t+1} = s_{t+1} N_t and M_{t+1} = M_t, and a coordinate j of level
    t + 1 with parent i and multiplicity k has u_{t+1}[j] = k u_t[i] and
    w_{t+1}[j] = k w_t[i].  Then
        D_{t+1}[j] M_{t+1} w_{t+1}[j] = (s_{t+1} / D_t[i]) M_t k w_t[i]
                                      = s_{t+1} k N_t u_t[i]
                                      = N_{t+1} u_{t+1}[j],
    which is rung t + 1's claim; an up rung followed by a down one is
    the same with u and w, N and M swapped.  By induction every rung
    holds, so neither unit is pushed up and no running product is formed.
    The square between rungs t and t + 1, D_{t+1}[j] D_t[parent(j)] =
    s_{t+1}, holds by construction of D_{t+1}, and every D_t is a vector
    of positive integers because the scalars are.
    """
    seq = cert.seq
    w1 = tuple(cert.alt_unit)
    if len(w1) != seq.ranks[0] or not is_order_unit(w1):
        return [f"alternative unit {w1} is not an order unit at level 1"]
    scalars = cert.rungs
    top = len(scalars) if seq.is_tailed else min(len(scalars), seq.length)
    ladder = f"a ladder of {len(scalars)} rungs"
    _check_listing((seq,), range(1, top + 1), "rung", ladder)
    diagonals, failure = _diagonals(seq, w1, scalars)
    failures = [] if failure is None else [failure]

    # each claim divides the scalars it covers; none is factored or multiplied
    claims = (("partial_n", cert.partial_n, _UP), ("partial_m", cert.partial_m, _DOWN))
    for name, claim, parity in claims:
        if claim is None or not claim.matches(_of_parity(scalars, parity)):
            failures.append(f"{name} is {claim}, not the product of its scalars")

    claims = (("exact_n", cert.exact_n), ("exact_m", cert.exact_m))
    for (name, claim), cycle in zip(claims, _detect_cycle(seq, scalars, diagonals)):
        if claim is None:
            continue
        if cycle is None:
            failures.append(f"{name} is {claim}, rung data does not cycle")
        elif not claim.matches(*cycle):
            failures.append(f"{name} is {claim}, not what the rung data's cycle gives")
    return failures
