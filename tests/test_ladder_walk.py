"""The ladder's walk and the listing check, against the loops they replaced.

unit_change reads each map once, in order (BratteliSequence._maps_to),
where it called _map(t) per rung, and builds each rung's diagonal
unchecked; _check_listing reads the ranks of a range of levels off the
presented ranks and the cyclic block, where it formed rank_at(t) for
every level.  Local copies of the old code are kept here as oracles,
the way test_bulk.py keeps the old readers, and compared with the
package on seeded sequences of every tail kind.
"""

import random
from math import prod

import pytest

from bratteli import (
    DiagonalMap,
    LevelOutOfRange,
    TooLarge,
    certio,
    diagram,
    intertwine,
    rescale_lemma,
    unit_change,
)
from bratteli.intertwine import _diagonals
from genseq import (
    full_tree,
    long_chain,
    max_usable_level,
    random_sequence,
    random_unit,
    replace,
    scalar_chain,
)

TAILS = ("none", "cyclic", "sub")


def _sequences(seed, count, **kwargs):
    rng = random.Random(seed)
    return [random_sequence(rng, tail=TAILS[i % 3], **kwargs) for i in range(count)]


# -- the ladder -------------------------------------------------------------


def _plain_ladder(seq, alt, depth, strategy):
    # (scalars, diagonals) of a plain loop of rescale_lemma over map_at,
    # each diagonal checked again by DiagonalMap's constructor
    u = seq.base_unit
    m1 = prod(u)
    diag = DiagonalMap(tuple((m1 // a) * w for a, w in zip(u, alt)))
    scalars, diagonals = [m1], [diag.entries]
    for t in range(2, depth + 1):
        s, diag = rescale_lemma(seq.map_at(t - 1), diag, strategy)
        assert DiagonalMap(diag.entries) == diag and type(diag.entries) is tuple
        scalars.append(s)
        diagonals.append(diag.entries)
    return tuple(scalars), diagonals


def test_ladder_is_the_plain_rescale_loop(monkeypatch, digit_limit):
    # the diagonals unit_change hands the cycle search, and those the
    # verifier derives, are the plain loop's, on every tail kind and
    # both strategies, down to several periods past L.  No scalar is
    # written, so none is refused as too long to write
    digit_limit(0)
    seen = []
    search = intertwine._detect_cycle

    def capture(seq, scalars, diagonals):
        seen.append(list(diagonals))
        return search(seq, scalars, diagonals)

    monkeypatch.setattr(intertwine, "_detect_cycle", capture)
    rng = random.Random(71)
    cases = set()
    for i, seq in enumerate(_sequences(70, 600)):
        strategy = ("minimal", "paper")[i % 2]
        top = max_usable_level(seq, extra_periods=4, size_cap=200)
        depth = rng.randint(1, min(top, 30 if strategy == "minimal" else 6))
        alt = random_unit(rng, seq.ranks[0])
        cert = unit_change(seq, alt, depth, strategy)
        scalars, diagonals = _plain_ladder(seq, alt, depth, strategy)
        assert cert.rungs == scalars, (seq, alt, strategy)
        assert seen.pop() == diagonals, (seq, alt, strategy)
        assert _diagonals(seq, alt, cert.rungs) == (diagonals, None)
        cases.add((seq.tail_kind, strategy, depth > seq.length))
    assert len(cases) == 10  # a tail unrolled by each strategy, and none


def test_failed_division_wins_over_a_missing_level():
    # rungs past an untailed sequence's last level fail at the first of
    # them, unless a rung below it does not divide
    rng = random.Random(72)
    earlier = 0
    for seq in _sequences(73, 90):
        if seq.is_tailed:
            continue
        alt = random_unit(rng, seq.ranks[0])
        L = seq.length
        rungs = unit_change(seq, alt, L).rungs
        missing = f"rung {L + 1}: level {L + 1} not available"
        assert _diagonals(seq, alt, rungs + (1, 1))[1] == missing
        below = _diagonals(seq, alt, rungs)[0][L - 2]
        if any(below[i] > 1 for i in seq.maps[L - 2].parent):
            # rung L's scalar 1 is no multiple of an entry above 1
            failure = _diagonals(seq, alt, rungs[:-1] + (1, 1))[1]
            assert failure.startswith(f"rung {L}: the scalar is not a multiple"), seq
            earlier += 1
    assert earlier > 5


def test_writer_names_the_first_unwritable_rung():
    # the one pass over the scalars refuses what the check of each rung
    # in turn refused, naming the same rung
    cert = unit_change(scalar_chain(2), (3,), 6)
    cases = [((1, 10**4300, 3, 10**5000), 2), ((10**4301,), 1), ((1, 10**4299), None)]
    for rungs, first in cases:
        got = _outcome(certio.unit_change_to_doc, replace(cert, rungs=rungs))
        if first is None:
            assert got[0] == "ok"
        else:
            why = f"rung {first} scalar is too long to write in decimal (more than 4300 digits)"
            assert got == (TooLarge, why)


# -- the listing check -----------------------------------------------------


def _old_check_listing(seqs, levels, what="level", listing=None):
    # the check as it formed rank_at(t) for every level
    budget, list_budget = diagram._COORD_BUDGET, diagram._LIST_BUDGET
    if listing is not None and levels[budget:]:
        raise TooLarge(f"{listing} is more than {budget} levels to list")
    grows = [s for s in seqs if s.tail_kind == "substitution"]
    total, ranks = 0, []
    for t in levels:
        for s in grows:
            p = s.periodic_tail
            if (t - p) // (s.length - p) > budget.bit_length():
                raise TooLarge(f"{what} {t} has more than {budget} coordinates to list")
        rank = 1
        for s in seqs:
            rank *= s.rank_at(t)
        if rank > budget:
            raise TooLarge(f"{what} {t} has {rank} coordinates, more than {budget} to list")
        total += rank
        if listing is not None and total > list_budget:
            raise TooLarge(f"{listing} lists more than {list_budget} coordinates")
        ranks.append(rank)
    return ranks


def _outcome(check, *args):
    try:
        return "ok", check(*args)
    except Exception as e:  # the type and the message are compared
        return type(e), str(e)


def _spans(seq, budget):
    # range ends before L, at L, a period past L, at and past the budget
    L = seq.length
    period = L - seq.periodic_tail if seq.is_tailed else 1
    ends = {1, L - 1, L, L + 1, L + period, L + period + 1, 3 * L, budget, budget + 1}
    return [e for e in sorted(ends) if e >= 1] + [10**9]


def _same(seqs, levels, what="level", listing=None):
    # the outcome of both checks, which must agree, by its kind
    new = _outcome(diagram._check_listing, seqs, levels, what, listing)
    assert new == _outcome(_old_check_listing, seqs, levels, what, listing), (seqs, levels)
    kind, value = new
    if kind == "ok" or kind is LevelOutOfRange:
        return kind
    if "levels to list" in value:
        return "levels"
    return "listing" if "lists more than" in value else "level"


# (coordinates a level, coordinates a listing) in place of the real
# budgets: seeded ranks of up to 6 reach each refusal of the first pair
# within a few levels, and of the second within a few hundred
BUDGETS = ((5, 12), (64, 256))


def test_listing_is_the_per_level_loop(monkeypatch):
    outcomes = set()
    seqs = _sequences(74, 150, max_rank=6)
    for budget, list_budget in BUDGETS:
        monkeypatch.setattr(diagram, "_COORD_BUDGET", budget)
        monkeypatch.setattr(diagram, "_LIST_BUDGET", list_budget)
        for seq in seqs:
            for end in _spans(seq, budget):
                for lo in (1, 2, seq.length + 1):
                    for listing in (None, f"depth {end}"):
                        if listing is None and end > 10**6:
                            continue  # the old loop would list 10**9 levels
                        got = _same((seq,), range(lo, end + 1), "level", listing)
                        outcomes.add((seq.tail_kind, got))
    every = {"ok", "level", "listing", "levels"}
    assert {(k, got) for k in (None, "cyclic") for got in every} <= outcomes
    assert {("substitution", got) for got in every} <= outcomes
    assert (None, LevelOutOfRange) in outcomes


def test_product_listing_is_the_per_level_loop(monkeypatch):
    # the levels tensor lists of a pair of sequences, and past them
    seqs = _sequences(75, 90)
    outcomes = set()
    for budget, list_budget in BUDGETS:
        monkeypatch.setattr(diagram, "_COORD_BUDGET", budget)
        monkeypatch.setattr(diagram, "_LIST_BUDGET", list_budget)
        for a, b in zip(seqs, seqs[1:] + seqs[:1]):
            for end in (*_spans(a, budget), b.length, a.length * b.length + 1):
                listing = f"a product of length {end}"
                outcomes.add(_same((a, b), range(1, end + 1), "product level", listing))
    assert outcomes == {"ok", "level", "listing", "levels", LevelOutOfRange}


def test_listing_at_the_real_budget():
    # 2**20 levels of a rank-1 chain, of a rank-5 cycle (past the
    # 2**22-coordinate listing budget) and of the binary tree, and one
    # level more than the budget allows
    chain = long_chain(random.Random(76), 5, rank=1)
    cycle = long_chain(random.Random(77), 3, rank=5)
    verdicts = []
    for seq in (chain, cycle, full_tree(2, 3)):
        for end in (2**20, 2**20 + 1):
            verdicts.append(_same((seq,), range(1, end + 1), "level", f"depth {end}"))
    assert verdicts == ["ok", "levels", "listing", "levels", "level", "levels"]
