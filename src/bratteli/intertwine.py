"""Absorbing a change of order unit into rational scaling.

Two copies of the same sequence, one started at the base unit u and one
at an alternative unit w, are intertwined by a ladder of positive
diagonal maps.  Rung 1 sends u to an integer multiple of w; every later
rung is produced from the previous one by clearing denominators against
the next connecting map, which costs one more integer scalar per rung.
Collecting the scalars of the up rungs and of the down rungs gives two
natural numbers N and M (partial products of two supernatural numbers)
such that the towers scaled by N and by M agree down to the explored
depth.  On a cyclic tail the rung data eventually cycles, and then the
full supernatural numbers are known exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm, prod

from .diagram import BratteliSequence
from .errors import NotOrderUnit, NotPositive, RankMismatch, TooLarge
from .simplicial import NonMixingMap, is_order_unit
from .supernat import INF, SupernaturalNumber

# a rung scalar past this many bits stops the ladder: dividing it out
# and factoring the partial products would take minutes
_SCALAR_BITS = 2**20


@dataclass(frozen=True)
class DiagonalMap:
    """Multiplication by a strictly positive integer vector, entrywise."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise NotPositive("diagonal needs at least one entry")
        for v in entries:
            if not isinstance(v, int) or v < 1:
                raise NotPositive(f"diagonal entry {v!r} must be a positive integer")
        object.__setattr__(self, "entries", entries)

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
    if gamma.rank != alpha.source_rank:
        raise RankMismatch(
            f"diagonal rank {gamma.rank} != map source rank {alpha.source_rank}"
        )
    used = [gamma.entries[i] for i in alpha.parent]
    if strategy == "minimal":
        n = lcm(*used)
    elif strategy == "paper":
        n = prod(alpha.mult) * prod(used)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    if n.bit_length() > _SCALAR_BITS:
        raise TooLarge(f"rung scalar of {n.bit_length()} bits exceeds {_SCALAR_BITS} bits")
    eta = DiagonalMap(tuple(n // l for l in used))
    return n, eta


@dataclass(frozen=True)
class LadderRung:
    """One diagonal of the ladder, with the scalar it introduced.

    Down rungs map the u tower to the w tower at their level, up rungs
    map back.  Rung t lives at level t; rung 1 is down and directions
    alternate from there.
    """

    level: int
    direction: str
    scalar: int
    diag: DiagonalMap

    def __post_init__(self):
        if self.direction not in ("down", "up"):
            raise ValueError(f"direction must be 'down' or 'up', got {self.direction!r}")
        if not isinstance(self.scalar, int) or self.scalar < 1:
            raise NotPositive(f"scalar {self.scalar!r} must be a positive integer")


@dataclass(frozen=True)
class UnitChangeCertificate:
    """A checkable witness that two units differ by rational scaling.

    partial_n and partial_m are the products of the scalars seen so far
    on up and down rungs; they only ever grow as the depth increases.
    exact_n and exact_m are filled in when the rung data is seen to
    cycle (possible on cyclic tails), and then describe the full
    supernatural scalings; otherwise they stay None.
    """

    seq: BratteliSequence
    alt_unit: tuple
    strategy: str
    rungs: tuple
    partial_n: SupernaturalNumber
    partial_m: SupernaturalNumber
    exact_n: SupernaturalNumber | None = None
    exact_m: SupernaturalNumber | None = None


def _scalars(rungs, direction: str) -> int:
    return prod((r.scalar for r in rungs if r.direction == direction), start=1)


def _exact(before: int, over: int) -> SupernaturalNumber:
    # the primes of before, times every prime of over to infinite exponent
    cycle = SupernaturalNumber.from_natural(over)
    return SupernaturalNumber.from_natural(before) * SupernaturalNumber(
        {p: INF for p in cycle.primes()}
    )


def _detect_cycle(seq, rungs):
    """Look for a repeated rung state on a cyclic tail.

    The state (block position, direction, diagonal entries) of a rung at
    level >= the tail start determines every later rung, so the first
    repeat pins down the infinite products exactly.  Returns the up and
    the down scalars as (product before the cycle, product over one
    cycle) pairs, or (None, None) when no state repeats.
    """
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
                (_scalars(before, d), _scalars(over, d)) for d in ("up", "down")
            )
        seen[state] = idx
    return None, None


def _shown(value) -> str:
    # str() refuses integers past sys.get_int_max_str_digits() digits
    try:
        return str(value)
    except ValueError:
        if isinstance(value, tuple):
            return f"a vector with a {max(v.bit_length() for v in value)}-bit entry"
        return f"a {value.bit_length()}-bit number"


def unit_change(
    seq: BratteliSequence, alt_unit, depth: int, strategy: str = "minimal"
) -> UnitChangeCertificate:
    """Build the ladder between the base unit and alt_unit, depth rungs deep."""
    alt_unit = tuple(alt_unit)
    if len(alt_unit) != seq.ranks[0]:
        raise RankMismatch(
            f"alternative unit has length {len(alt_unit)}, level 1 has rank {seq.ranks[0]}"
        )
    if not is_order_unit(alt_unit):
        raise NotOrderUnit(f"{alt_unit} is not strictly positive")
    if not isinstance(depth, int) or depth < 0:
        raise ValueError(f"depth must be a nonnegative integer, got {depth!r}")
    for t in range(1, depth + 1):
        seq._require_level(t)

    rungs = []
    if depth >= 1:
        u1 = seq.base_unit
        m1 = prod(u1)
        gamma1 = DiagonalMap(tuple((m1 // u1[i]) * alt_unit[i] for i in range(len(u1))))
        rungs.append(LadderRung(1, "down", m1, gamma1))
    for t in range(2, depth + 1):
        s, eta = rescale_lemma(seq.map_at(t - 1), rungs[-1].diag, strategy)
        direction = "up" if t % 2 == 0 else "down"
        rungs.append(LadderRung(t, direction, s, eta))
    rungs = tuple(rungs)

    partial_n = SupernaturalNumber.from_natural(_scalars(rungs, "up"))
    partial_m = SupernaturalNumber.from_natural(_scalars(rungs, "down"))
    cycles = _detect_cycle(seq, rungs)
    exact_n, exact_m = (None if c is None else _exact(*c) for c in cycles)
    return UnitChangeCertificate(
        seq, alt_unit, strategy, rungs, partial_n, partial_m, exact_n, exact_m
    )


def certificate_failures(cert: UnitChangeCertificate) -> list:
    """Re-derive every claim of the certificate; list what fails, if anything.

    The checks do not re-run the construction: each rung is tested
    directly against the unit images it claims to connect, and
    consecutive rungs are tested against the connecting map between
    their levels, so a hand-edited certificate cannot sneak through.
    """
    seq = cert.seq
    failures = []
    w1 = tuple(cert.alt_unit)
    if len(w1) != seq.ranks[0] or not is_order_unit(w1):
        return [f"alternative unit {w1} is not an order unit at level 1"]

    n_cum = 1
    m_cum = 1
    # u_t and w_t, the images of the two units at level t, pushed up one
    # level per rung from the sequence's own maps
    u_t, w_t = seq.base_unit, w1
    for idx, rung in enumerate(cert.rungs):
        t = idx + 1
        where = f"rung {t}"
        if t > 1 and seq.has_level(t):
            alpha = seq.map_at(t - 1)
            u_t, w_t = alpha.apply(u_t), alpha.apply(w_t)
        if rung.level != t:
            failures.append(f"{where}: level {rung.level}, expected {t}")
            continue
        want_dir = "down" if t % 2 == 1 else "up"
        if rung.direction != want_dir:
            failures.append(f"{where}: direction {rung.direction}, expected {want_dir}")
            continue
        if not seq.has_level(t):
            failures.append(f"{where}: level {t} not available")
            continue
        if rung.diag.rank != seq.rank_at(t):
            failures.append(
                f"{where}: diagonal rank {rung.diag.rank}, level rank {seq.rank_at(t)}"
            )
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
            failures.append(
                f"{where}: carries the unit to {_shown(got)}, expected {_shown(want)}"
            )
        if idx + 1 < len(cert.rungs):
            nxt = cert.rungs[idx + 1]
            alpha = seq.map_at(t)
            if nxt.diag.rank == alpha.target_rank and rung.diag.rank == alpha.source_rank:
                for j in range(alpha.target_rank):
                    lhs = nxt.diag.entries[j] * alpha.mult[j] * rung.diag.entries[alpha.parent[j]]
                    rhs = nxt.scalar * alpha.mult[j]
                    if lhs != rhs:
                        failures.append(
                            f"rung {t + 1}: square against the level-{t} map "
                            f"fails at coordinate {j}"
                        )
                        break

    # the claims are matched against the scalar products, never factored
    claims = (("partial_n", cert.partial_n), ("partial_m", cert.partial_m))
    for (name, claim), d in zip(claims, ("up", "down")):
        product = _scalars(cert.rungs, d)
        if claim is None or not claim.matches(product):
            failures.append(f"{name} is {claim}, scalars give {_shown(product)}")

    claims = (("exact_n", cert.exact_n), ("exact_m", cert.exact_m))
    for (name, claim), cycle in zip(claims, _detect_cycle(seq, cert.rungs)):
        if claim is None:
            continue
        if cycle is None:
            failures.append(f"{name} is {claim}, rung data does not cycle")
        elif not claim.matches(*cycle):
            before, over = map(_shown, cycle)
            failures.append(
                f"{name} is {claim}, rung data gives {before} times "
                f"every prime of {over} to inf"
            )
    return failures


def verify_certificate(cert: UnitChangeCertificate) -> bool:
    return not certificate_failures(cert)
