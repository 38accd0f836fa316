"""The bulk paths of the surgery commands, against the code they replaced.

The parser reads a document's numerals with one json.loads, where it
read them through one str per numeral and one int() each; tensor_map
forms a Kronecker product with two comprehensions, where it ran a
nested index loop; tensor_seq and tensor_qn read a factor's maps off
its cyclic block (BratteliSequence._maps_to), where they called map_at
once per level, and take the ranks the listing check formed
(diagram._check_listing); arch-check reads the ranks it draws
from off the tail's block, where it called rank_at once per level past
L; and keep_at memoizes the kept places of each block level.  Local
copies of the old code are kept here, the way test_one_form.py keeps
the old readings, and compared with the package on seeded inputs.
"""

import random
from collections import Counter

import pytest

from bratteli import (
    BratteliSequence,
    NonMixingMap,
    ParseError,
    SupernaturalNumber,
    injectivize,
    keep_at,
    parse_diagram,
    serialize_diagram,
    telescope,
    tensor_qn,
)
from bratteli import cli, diagram, fileformat
from bratteli.cli import run
from bratteli.tensor import tensor_map
from corpus import error_documents, valid_documents
from genseq import full_tree, long_chain, random_map, random_sequence

TAILS = ("none", "cyclic", "sub")
LONG = "7" * 4301


# -- the old readers --------------------------------------------------------

_DIGITS = b"0123456789"


def _old_bulk(joined, seps):
    try:
        if joined.encode("ascii").translate(None, _DIGITS) != seps:
            return None
        nums = [*map(int, joined.replace("*", " ").split(" "))]
    except ValueError:
        return None
    return nums if min(nums) >= 1 else None


def _old_bulk_maps(block, sizes):
    if len(block) < len(sizes) - 1:
        return None
    rows = []
    for i, (_, body) in enumerate(block, start=1):
        head = body.split(None, 2)
        if head[:2] != ["map", f"{i}:"] or len(head) < 3:
            return None
        row = head[2].rstrip()
        if row.count(" ") != sizes[i] - 1:
            row = " ".join(row.split())
            if row.count(" ") != sizes[i] - 1:
                return None
        rows.append(row)
    nums = _old_bulk(" ".join(rows), (b"* " * sum(sizes[1:]))[:-1])
    if not nums:
        return None
    maps, at, parent, mult = [], 0, tuple([p - 1 for p in nums[0::2]]), tuple(nums[1::2])
    for src, n in zip(sizes, sizes[1:]):
        row = parent[at : at + n]
        if max(row) >= src:
            return None
        maps.append(NonMixingMap._of(src, row, mult[at : at + n]))
        at += n
    return maps


def _old_tensor_map(f, g):
    parent, mult = [], []
    for j in range(f.target_rank):
        for k in range(g.target_rank):
            parent.append(f.parent[j] * g.source_rank + g.parent[k])
            mult.append(f.mult[j] * g.mult[k])
    return NonMixingMap(f.source_rank * g.source_rank, tuple(parent), tuple(mult))


def _old_horizon(seq):
    # the deepest level arch-check drew from, one rank_at per level
    max_level = seq.length
    if seq.is_tailed:
        horizon = seq.length + 2 * max(1, seq.length - seq.periodic_tail)
        while max_level < horizon and seq.rank_at(max_level + 1) <= 1000:
            max_level += 1
    return max_level


def _old_keep_at(seq, t):
    seq._require_level(t)
    if t <= seq.length:
        return diagram._keeps(seq)[t - 1]
    b = seq._block_position(t)
    alive = set(diagram._keeps(seq)[b - 1])
    order = seq._block()[0][b - seq.periodic_tail]
    return seq._repeat(t, tuple(k for k, c in enumerate(order) if c in alive))


# -- inputs -----------------------------------------------------------------

_PIECES = (
    LONG, "1*" + LONG, LONG + "*1", "01*1", "1*01", "0*1", "1*0", "00", "01",
    "²", "1*²", "٣*1", "*1", "1*", "1**1", " ", "\t", "  ", "#",
    "2*1", "3*2",
)


def _sequences(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        yield random_sequence(rng, max_levels=6, tail=TAILS[i % 3])


def _documents():
    """Seeded sequences, the corpus, and seeded edits of both that put
    one of _PIECES in a cell, a size or between tokens."""
    docs = [serialize_diagram(seq) for seq in _sequences(31, 300)]
    docs.append(serialize_diagram(long_chain(random.Random(4), 60, rank=8, max_mult=4)))
    docs += [text for _, text in valid_documents()]
    docs += [text for _, text, _, _ in error_documents()]
    rng = random.Random(32)
    edits = []
    for _ in range(1500):
        lines = rng.choice(docs).split("\n")
        i = rng.randrange(len(lines))
        toks = lines[i].split(" ")
        if rng.random() < 0.8 and len(toks) > 1:
            toks[rng.randrange(1, len(toks))] = rng.choice(_PIECES)
        else:
            toks.insert(rng.randrange(len(toks) + 1), rng.choice(_PIECES))
        lines[i] = " ".join(toks)
        edits.append("\n".join(lines))
    return docs + edits


def _bulk_inputs(text):
    """What parse_diagram hands _bulk for the sizes line, and the block
    and sizes it hands _bulk_maps, or None where it never gets there."""
    lines = fileformat._logical_lines(text)
    if len(lines) < 2:
        return None
    head, *nums = lines[1][1].split()
    if head != "sizes:" or not nums:
        return None
    sizes_args = (" ".join(nums), b" " * (len(nums) - 1))
    sizes = None
    if all(t.isascii() and t.isdigit() and len(t) < 50 and int(t) >= 1 for t in nums):
        sizes = [int(t) for t in nums]
    if sizes is None or sum(sizes) > 10**6:
        return sizes_args, None
    return sizes_args, (lines[3 : 3 + len(sizes) - 1], sizes)


def _starts_with_zero(joined):
    # a numeral that is 0 or has a leading zero: the one input the new
    # reader leaves to the token scan while the old one read it
    return joined.startswith("0") or " 0" in joined or "*0" in joined


class TestBulkAgainstOldReader:
    """Equal numerals and maps, or None from the new reader exactly
    where the old one returned None, or where a numeral starts with 0
    (the token scan then reads it, as test_leading_zeros pins)."""

    def test_sizes_and_map_sections(self):
        seen = {"equal": 0, "none": 0, "zero": 0}
        for text in _documents():
            inputs = _bulk_inputs(text)
            if inputs is None:
                continue
            (joined, seps), maps_args = inputs
            old, new = _old_bulk(joined, seps), fileformat._bulk(joined, seps)
            cases = [(old, new, joined)]
            if maps_args is not None:
                block, sizes = maps_args
                old_maps = _old_bulk_maps(block, sizes)
                new_maps = fileformat._bulk_maps(block, sizes)
                section = " ".join(body for _, body in block)
                cases.append((old_maps, new_maps, section))
            for old, new, where in cases:
                if old == new:
                    seen["none" if new is None else "equal"] += 1
                else:
                    assert new is None and _starts_with_zero(where), text
                    seen["zero"] += 1
        assert min(seen.values()) > 20, seen

    def test_same_outcomes_as_the_old_reader(self, monkeypatch):
        # where the readers differ, parse_diagram still gives the same
        # sequence or the same error, line and column
        def outcome(text):
            try:
                return parse_diagram(text)
            except ParseError as e:
                return e.line, e.column, e.message

        docs = _documents()[::3]
        new = [outcome(text) for text in docs]
        monkeypatch.setattr(fileformat, "_bulk", _old_bulk)
        for text, got in zip(docs, new):
            assert outcome(text) == got, text


class TestParseEdges:
    HEAD = "bratteli v1\nsizes: 1 1\nunit: 1\n"

    def test_leading_zeros(self):
        # the token scan reads both, as the old reader did
        assert fileformat._bulk("01*1", b"*") is None
        assert _old_bulk("01*1", b"*") == [1, 1]
        assert parse_diagram(self.HEAD + "map 1: 01*1\n") == parse_diagram(
            self.HEAD + "map 1: 1*1\n"
        )
        assert fileformat._bulk("01", b"") is None
        assert parse_diagram("bratteli v1\nsizes: 01\nunit: 1\n").ranks == (1,)

    @pytest.mark.parametrize(
        "text, where",
        [
            (HEAD + f"map 1: 1*{LONG}\n", (4, 8, "a numeral of 4301 digits is too long")),
            (
                f"bratteli v1\nsizes: 1 {LONG}\nunit: 1\n",
                (2, 10, "a numeral of 4301 digits is too long"),
            ),
            ("bratteli v1\nsizes: 1 ²\nunit: 1\n", (2, 10, "expected a size, got '²'")),
            (HEAD + "map 1: 1*²\n", (4, 8, "expected 'parent*mult', got '1*²'")),
        ],
    )
    def test_refused_numerals(self, text, where):
        with pytest.raises(ParseError) as info:
            parse_diagram(text)
        assert (info.value.line, info.value.column, info.value.message) == where

    @pytest.mark.parametrize(
        "joined, seps", [(f"1*{LONG}", b"*"), (f"1 {LONG}", b" "), ("1 ²", b" ")]
    )
    def test_refused_numerals_leave_the_bulk_path(self, joined, seps):
        assert fileformat._bulk(joined, seps) is None
        assert _old_bulk(joined, seps) is None

    def test_one_level_document(self):
        # no map section: the bulk reader declines an empty one, as the
        # old one did, and the scan finds no map to read
        assert fileformat._bulk("", b"") is None
        assert fileformat._bulk_maps([], [1]) is None
        assert _old_bulk_maps([], [1]) is None
        seq = parse_diagram("bratteli v1\nsizes: 1\nunit: 1\n")
        assert (seq.ranks, seq.maps) == ((1,), ())


# -- maps built from valid maps ---------------------------------------------


def _checked(a):
    # a map whose parents and multiplicities the checking constructor takes
    return NonMixingMap(a.source_rank, a.parent, a.mult) == a and all(
        type(v) is tuple for v in (a.parent, a.mult)
    )


class TestDerivedMaps:
    def test_tensor_map_is_the_old_loop(self):
        rng = random.Random(41)
        for _ in range(400):
            f = random_map(rng, rng.randint(1, 6), rng.randint(1, 6))
            g = random_map(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert tensor_map(f, g) == _old_tensor_map(f, g)

    def test_maps_to_reads_each_level(self):
        for seq in _sequences(42, 300):
            for n in range(1, 3 * seq.length + 1):
                if not seq.has_level(n):
                    break
                ranks = diagram._check_listing((seq,), range(1, n + 1))
                assert ranks == [seq.rank_at(t) for t in range(1, n + 1)], seq
                assert tuple(seq._maps_to(n)) == tuple(seq.map_at(t) for t in range(1, n)), seq

    def test_unchecked_maps_pass_the_checks(self):
        n = SupernaturalNumber.parse("2^inf*3")
        rng = random.Random(43)
        for seq in _sequences(44, 150):
            deep = seq.length + 3 if seq.is_tailed else seq.length
            keep = sorted({1, *rng.sample(range(2, deep + 1), min(3, deep - 1))})
            results = telescope(seq, keep), injectivize(seq)[0], tensor_qn(seq, n, deep)
            for result in results:
                assert all(_checked(a) for a in result.maps), seq


# -- arch-check -------------------------------------------------------------


def _wide_blocks():
    # block ranks on both sides of 1000, and at it
    def seq(ranks, tail):
        rng = random.Random(sum(ranks))
        maps = [random_map(rng, a, b, max_mult=2) for a, b in zip(ranks, ranks[1:])]
        return BratteliSequence(ranks, maps, (1,) * ranks[0], tail)

    return [
        seq((3, 999, 3), 1),
        seq((3, 1000, 3), 1),
        seq((3, 1001, 3), 1),
        seq((2, 2, 5, 1500, 2), 2),
        seq((2, 7, 2, 1001), None),
        seq((1, 10, 10), 1),  # levels past L reach 100 and 1000
        seq((1, 10, 11), 1),  # and 110 and 1210
        seq((1, 30, 40), 1),
        seq((1, 2, 3, 4, 5), 1),
    ]


class TestArchCheckHorizon:
    def test_draw_ranks_are_the_old_horizon(self):
        seqs = [*_sequences(45, 600), *_wide_blocks(), full_tree(2, 6), full_tree(3, 5)]
        seen = set()
        for seq in seqs:
            ranks = cli._draw_ranks(seq)
            top = _old_horizon(seq)
            assert len(ranks) == top, seq
            assert ranks == tuple(seq.rank_at(t) for t in range(1, top + 1)), seq
            if seq.is_tailed:
                full = 3 * seq.length - 2 * seq.periodic_tail
                cut = "none" if top == full else "at once" if top == seq.length else "later"
                seen.add((seq.tail_kind, cut))
        kinds = {"cyclic", "substitution"}
        assert seen == {(k, cut) for k in kinds for cut in ("none", "at once", "later")}

    def test_drawn_entries_are_each_of_minus_4_to_4_alike(self):
        # each byte drawn again past 251 keeps the nine values alike: a
        # plain b % 9 would make -4..-1 about 3.5% likelier than the rest
        rng = random.Random(47)
        counts = Counter()
        for k in (*range(1, 40), *[1000] * 900):
            drawn = cli._draw_entries(rng, k)
            assert len(drawn) == k and all(type(v) is int for v in drawn)
            counts.update(drawn)
        assert set(counts) == set(range(-4, 5))
        assert max(counts.values()) < 1.015 * min(counts.values())

    @pytest.mark.parametrize(
        "text",
        [
            "bratteli v1\nsizes: 1 1\nunit: 1\nmap 1: 1*2\nrepeat: 1\n",
            "bratteli v1\nsizes: 1 2\nunit: 1\nmap 1: 1*1 1*1\nrepeat: 1\n",
        ],
    )
    def test_stdout(self, tmp_path, capsys, text):
        path = tmp_path / "d.brat"
        path.write_text(text, encoding="utf-8")
        assert run(["arch-check", str(path), "--samples", "60", "--seed", "7"]) == 0
        assert capsys.readouterr() == ("ok: 60 samples, property held\n", "")


class TestKeepAt:
    def test_memoized_places_are_the_old_walk(self):
        for seq in _sequences(46, 300):
            if not seq.is_tailed:
                continue
            period = seq.length - seq.periodic_tail
            for t in [*range(1, seq.length + 3 * period + 1), seq.length + 1]:
                if seq.rank_at(t) > 4096:
                    break
                assert keep_at(seq, t) == _old_keep_at(seq, t), (seq, t)
