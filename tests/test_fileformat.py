"""Parsing and canonical serialization of diagram documents."""

import random
import re

import pytest

from bratteli import (
    BratteliError,
    BratteliSequence,
    NonMixingMap,
    ParseError,
    parse_diagram,
    serialize_diagram,
)
from bratteli.cli import run
from corpus import error_documents, valid_documents
from genseq import full_tree, long_chain, random_map, scalar_chain, two_path


class TestParse:
    def test_doubling_chain(self):
        seq = parse_diagram(
            "bratteli v1\nsizes: 1 1\nunit: 1\nmap 1: 1*2\nrepeat: 1\n"
        )
        assert seq == scalar_chain(2)
        assert seq.periodic_tail == 1
        for t in range(1, 6):
            assert seq.rank_at(t) == 1
        assert seq.map_at(3).mult == (2,)

    def test_binary_tree_document(self):
        name, text = next(d for d in valid_documents() if d[0] == "binary-tree")
        assert parse_diagram(text) == full_tree(2, 3)

    def test_two_path_document(self):
        name, text = next(d for d in valid_documents() if d[0] == "two-path-2-7")
        assert parse_diagram(text) == two_path(2, 7, levels=2)

    def test_comments_and_spacing_ignored(self):
        name, text = next(d for d in valid_documents() if d[0] == "commented")
        assert parse_diagram(text) == scalar_chain(2)

    def test_untailed_document(self):
        name, text = next(d for d in valid_documents() if d[0] == "untailed-chain")
        seq = parse_diagram(text)
        assert seq.periodic_tail is None
        assert seq.ranks == (1, 1, 1)
        assert seq.base_unit == (2,)
        assert not seq.has_level(4)

    def test_parent_out_of_range_location(self):
        bad = "bratteli v1\nsizes: 2 2\nunit: 1 1\nmap 1: 1*1 3*2\n"
        with pytest.raises(ParseError) as info:
            parse_diagram(bad)
        err = info.value
        assert (err.line, err.column) == (4, 12)
        assert "parent 3" in err.message
        assert str(err) == "line 4, column 12: " + err.message

    def test_error_locations(self):
        for name, text, line, column in error_documents():
            with pytest.raises(ParseError) as info:
                parse_diagram(text)
            got = (info.value.line, info.value.column)
            assert got == (line, column), f"{name}: reported {got}"

    def test_repeat_closure_message(self):
        doc = next(d for d in error_documents() if d[0] == "repeat-does-not-close")
        with pytest.raises(ParseError) as info:
            parse_diagram(doc[1])
        assert "tail from level" in info.value.message


class TestLineBreaks:
    """A line ends at "\\n", "\\r\\n" or a lone "\\r" only; the other
    characters str.splitlines() breaks at stay inside their line."""

    DOC = "bratteli v1\nsizes: 1 1\nunit: 1\nmap 1: 1*2\nrepeat: 1\n"

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_crlf_and_cr(self, end):
        assert parse_diagram(self.DOC.replace("\n", end)) == scalar_chain(2)
        bad = self.DOC.replace("1*2", "1*0").replace("\n", end)
        with pytest.raises(ParseError) as info:
            parse_diagram(bad)
        assert (info.value.line, info.value.column) == (4, 8)

    @pytest.mark.parametrize(
        "mark", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_comment_holds_a_splitlines_break(self, mark):
        # before, the text after the mark was a line of its own:
        # "line 5, column 2: expected 'map 1:'" for U+2028
        text = self.DOC.replace("unit: 1\n", f"unit: 1\n# a note{mark} x\n")
        assert parse_diagram(text) == scalar_chain(2)

    def test_form_feed_inside_a_line(self):
        # whitespace between tokens, and no line number after it moves
        assert parse_diagram(self.DOC.replace("sizes: 1 1", "sizes:\f1 1")) == scalar_chain(2)
        bad = self.DOC.replace("sizes: 1 1", "sizes: 1\f1").replace("1*2", "1*0")
        with pytest.raises(ParseError) as info:
            parse_diagram(bad)
        got = (info.value.line, info.value.column, info.value.message)
        assert got == (4, 8, "multiplicity must be >= 1, got 0")

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_undecodable_byte_location(self, end, tmp_path, capsys):
        # the byte's line and column count line ends as the parser does
        path = tmp_path / "bad.brat"
        path.write_bytes(end.join(["bratteli v1", "sizes: 1", "unit: 1", "# "]).encode() + b"\xff")
        assert run(["validate", str(path)]) == 65
        assert "line 4, column 3: byte 0xff is not UTF-8" in capsys.readouterr().err

    def test_through_the_cli(self, tmp_path, capsys):
        path = tmp_path / "note.brat"
        path.write_text(self.DOC.replace("unit: 1\n", "unit: 1\n# a\u2028 x\n"), encoding="utf-8")
        assert run(["validate", str(path)]) == 0
        assert capsys.readouterr().out.startswith("levels: 2\n")


class TestCellLocations:
    """Map cells that int() would take, or that only a digit test of
    the whole cell can tell apart, each pinned to line and column."""

    LONG = "7" * 5000

    @pytest.mark.parametrize(
        "cell, message",
        [
            ("+1*2", "expected 'parent*mult', got '+1*2'"),
            ("1_0*1", "expected 'parent*mult', got '1_0*1'"),
            ("1*\u00b2", "expected 'parent*mult', got '1*\u00b2'"),
            ("\u0661*1", "expected 'parent*mult', got '\u0661*1'"),
            ("1*2*3", "expected 'parent*mult', got '1*2*3'"),
            ("*2", "expected 'parent*mult', got '*2'"),
            ("1*", "expected 'parent*mult', got '1*'"),
            ("12", "expected 'parent*mult', got '12'"),
            (LONG + "*1", "a numeral of 5000 digits is too long"),
            ("1*" + LONG, "a numeral of 5000 digits is too long"),
            ("3*1", "parent 3 outside 1..2"),
            ("0*1", "parent 0 outside 1..2"),
            ("1*0", "multiplicity must be >= 1, got 0"),
        ],
    )
    def test_cell_location(self, cell, message):
        head = "bratteli v1\nsizes: 2 2 2\nunit: 1 1\nmap 1: 1*1 2*1\n"
        text = f"{head}map 2: 2*1  {cell}\n"
        with pytest.raises(ParseError) as info:
            parse_diagram(text)
        assert (info.value.line, info.value.column, info.value.message) == (5, 13, message)

    def test_map_line_locations(self):
        head = "bratteli v1\nsizes: 2 2\nunit: 1 1\n"
        for line, want in [
            ("  map 2: 1*1 1*1", (4, 3, "expected 'map 1:'")),
            ("\tmap 1: 1*1", (4, 2, "map 1 needs 2 entries, got 1")),
            ("map 1: 1*1 1*1 1*1 # three", (4, 1, "map 1 needs 2 entries, got 3")),
            ("map 1:\u00a01*1 \u20031*1x", (4, 13, "expected 'parent*mult', got '1*1x'")),
        ]:
            with pytest.raises(ParseError) as info:
                parse_diagram(head + line + "\n")
            got = (info.value.line, info.value.column, info.value.message)
            assert got == want, line


_PIECES = (
    "+1*2", "1_0*1", "1*\u00b2", "\u0661*1", "1*2*3", "*2", "1*", "*", "0*1", "1*0",
    "2*1", "7" * 4400, "\u00a0", "\u2003", " ", "\t", "\n", "#", "map", "1:", "x",
)


def _mutants(rng, count, docs=None, pieces=_PIECES):
    """Seeded edits of valid documents: most touch one map cell."""
    docs = docs or [text for _, text in valid_documents()]
    for _ in range(count):
        text = rng.choice(docs)
        lines = text.split("\n")
        maps = [i for i, line in enumerate(lines) if line.startswith("map")]
        for _ in range(rng.randint(1, 2)):
            if maps and rng.random() < 0.7:
                i = rng.choice(maps)
                toks = lines[i].split(" ")
                toks[rng.randrange(len(toks))] = rng.choice(pieces)
                lines[i] = " ".join(toks)
            else:
                i = rng.randrange(len(lines))
                at = rng.randrange(len(lines[i]) + 1)
                piece = rng.choice(pieces) if rng.random() < 0.5 else ""
                lines[i] = lines[i][:at] + piece + lines[i][at + rng.randint(0, 2) :]
        yield "\n".join(lines)


class TestMutants:
    def test_columns_start_tokens_and_parses_round_trip(self):
        outcomes = {"error": 0, "parsed": 0}
        for text in _mutants(random.Random(8), 3000):
            try:
                seq = parse_diagram(text)
            except ParseError as e:
                outcomes["error"] += 1
                body = text.splitlines()[e.line - 1] if text.strip() else ""
                col = e.column
                starts_token = (
                    col <= len(body)
                    and not body[col - 1].isspace()
                    and (col == 1 or body[col - 2].isspace())
                )
                assert col == 1 or starts_token, (text, e)
                continue
            outcomes["parsed"] += 1
            canon = serialize_diagram(seq)
            assert parse_diagram(canon) == seq
            assert serialize_diagram(parse_diagram(canon)) == canon
        assert outcomes["error"] > 1000 and outcomes["parsed"] > 100


# The token-by-token reader that parse_diagram replaced, copied as the
# reference for TestAgainstTokenReader: it calls nothing of fileformat.
_OLD_NATURAL = re.compile("[0-9]+")
_OLD_TOKEN = re.compile(r"\S+")


def _old_logical_lines(text: str):
    # lines end at "\n", "\r\n" or a lone "\r", as parse_diagram's do
    out = []
    for lineno, raw in enumerate(re.split("\r\n|\r|\n", text), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            out.append((lineno, body))
    return out


def _old_tokens(body: str):
    return [(m.start() + 1, m.group()) for m in _OLD_TOKEN.finditer(body)]


def _old_column(body: str, k: int) -> int:
    # 1-based column where the k-th token of the line starts
    return _old_tokens(body)[k][0]


def _old_too_long(numeral: str, lineno: int, col: int) -> ParseError:
    # int() refuses numerals longer than sys.get_int_max_str_digits()
    # (4300 digits by default)
    return ParseError(f"a numeral of {len(numeral)} digits is too long", lineno, col)


def _old_int(tok: str, lineno: int, col: int, what: str, minimum: int = 1) -> int:
    if not _OLD_NATURAL.fullmatch(tok):
        raise ParseError(f"expected {what}, got {tok!r}", lineno, col)
    try:
        value = int(tok)
    except ValueError:
        raise _old_too_long(tok, lineno, col) from None
    if value < minimum:
        raise ParseError(f"{what} must be >= {minimum}, got {value}", lineno, col)
    return value


def _old_parse_diagram(text: str) -> BratteliSequence:
    """parse_diagram as it read documents token by token."""
    lines = _old_logical_lines(text)
    pos = 0

    def need_line(what: str):
        nonlocal pos
        if pos >= len(lines):
            after = lines[-1][0] if lines else 1
            raise ParseError(f"missing {what}", after, 1)
        item = lines[pos]
        pos += 1
        return item

    lineno, body = need_line("header 'bratteli v1'")
    toks = _old_tokens(body)
    if [t for _, t in toks] != ["bratteli", "v1"]:
        raise ParseError("expected header 'bratteli v1'", lineno, toks[0][0])

    lineno, body = need_line("'sizes:' line")
    toks = _old_tokens(body)
    if toks[0][1] != "sizes:":
        raise ParseError(f"expected 'sizes:', got {toks[0][1]!r}", lineno, toks[0][0])
    if len(toks) < 2:
        raise ParseError("need at least one size", lineno, toks[0][0])
    sizes = tuple(_old_int(t, lineno, c, "a size") for c, t in toks[1:])

    lineno, body = need_line("'unit:' line")
    toks = _old_tokens(body)
    if toks[0][1] != "unit:":
        raise ParseError(f"expected 'unit:', got {toks[0][1]!r}", lineno, toks[0][0])
    unit = tuple(_old_int(t, lineno, c, "a unit entry") for c, t in toks[1:])
    if len(unit) != sizes[0]:
        raise ParseError(
            f"unit needs {sizes[0]} entries, got {len(unit)}", lineno, toks[0][0]
        )

    maps = []
    for i in range(1, len(sizes)):
        lineno, body = need_line(f"'map {i}:' line")
        toks = body.split()
        if toks[:2] != ["map", f"{i}:"]:
            raise ParseError(f"expected 'map {i}:'", lineno, _old_column(body, 0))
        if len(toks) - 2 != sizes[i]:
            raise ParseError(
                f"map {i} needs {sizes[i]} entries, got {len(toks) - 2}",
                lineno,
                _old_column(body, 0),
            )
        # one split per cell; isascii() because isdigit() also takes "²"
        src = sizes[i - 1]
        parent, mult = [], []
        for n, tok in enumerate(toks[2:], start=2):
            a, star, b = tok.partition("*")
            if not (star and tok.isascii() and a.isdigit() and b.isdigit()):
                raise ParseError(
                    f"expected 'parent*mult', got {tok!r}", lineno, _old_column(body, n)
                )
            try:
                p, k = int(a), int(b)
            except ValueError:
                raise _old_too_long(max(a, b, key=len), lineno, _old_column(body, n)) from None
            if not 1 <= p <= src:
                raise ParseError(f"parent {p} outside 1..{src}", lineno, _old_column(body, n))
            if k < 1:
                raise ParseError(
                    f"multiplicity must be >= 1, got {k}", lineno, _old_column(body, n)
                )
            parent.append(p - 1)
            mult.append(k)
        maps.append(NonMixingMap(src, tuple(parent), tuple(mult)))

    tail = None
    tail_line = 1
    if pos < len(lines):
        lineno, body = need_line("'repeat:' line")
        toks = _old_tokens(body)
        if toks[0][1] != "repeat:":
            raise ParseError(
                f"unexpected directive {toks[0][1]!r}", lineno, toks[0][0]
            )
        if len(toks) != 2:
            raise ParseError("repeat takes exactly one level", lineno, toks[0][0])
        tail = _old_int(toks[1][1], lineno, toks[1][0], "a level")
        tail_line = lineno
    if pos < len(lines):
        lineno, body = lines[pos]
        toks = _old_tokens(body)
        raise ParseError("unexpected extra line", lineno, toks[0][0])

    try:
        return BratteliSequence(sizes, tuple(maps), unit, tail)
    except BratteliError as e:
        raise ParseError(str(e), tail_line, 1) from e


def _outcome(parse, text):
    try:
        return "parsed", parse(text)
    except BratteliError as e:
        return "error", (type(e), e.line, e.column, e.message)


# numerals at and past int()'s 4300-digit limit, leading zeros, zero
# parents and multiplicities, a non-ASCII digit, non-ASCII blanks, and a
# comment that cuts a line short
_EDGE_PIECES = (
    "7" * 4300, "7" * 4301, "1*" + "7" * 4300, "7" * 4301 + "*1", "7" * 4300 + "*1",
    "1*" + "7" * 4301, "01*1", "1*01", "1*0", "0*1", "\u0663*1", "\u00a0", "\u2003",
    "#", "2*1", " ",
)


def _large_documents():
    rng = random.Random(5)
    wide = BratteliSequence((64, 64), (random_map(rng, 64, 64, onto=True),), (1,) * 64, 1)
    chain = long_chain(rng, 400, rank=8, max_mult=4)
    return [serialize_diagram(wide), serialize_diagram(chain)]


class TestAgainstTokenReader:
    """parse_diagram against the token-by-token reader: equal sequences,
    or the same error type, line, column and message."""

    def test_corpus_and_its_mutants(self):
        texts = [text for _, text in valid_documents()]
        texts += [text for _, text, _, _ in error_documents()]
        for text in [*texts, *_mutants(random.Random(8), 3000)]:
            assert _outcome(parse_diagram, text) == _outcome(_old_parse_diagram, text), text

    def test_large_document_mutants(self):
        docs = _large_documents()
        kinds = {"parsed": 0, "error": 0}
        for text in [*docs, *_mutants(random.Random(9), 400, docs, _EDGE_PIECES)]:
            got = _outcome(parse_diagram, text)
            assert got == _outcome(_old_parse_diagram, text), got
            kinds[got[0]] += 1
        assert kinds["parsed"] > 40 and kinds["error"] > 200, kinds


class TestSerialize:
    def test_canonical_bytes(self):
        want = (
            "bratteli v1\n"
            "sizes: 2 2 2\n"
            "unit: 1 1\n"
            "map 1: 1*2 2*7\n"
            "map 2: 1*2 2*7\n"
            "repeat: 1\n"
        )
        assert serialize_diagram(two_path(2, 7)) == want

    def test_untailed_has_no_repeat_line(self):
        text = serialize_diagram(scalar_chain(2, tailed=False))
        assert "repeat" not in text
        assert text.endswith("\n")

    def test_round_trip_identity(self):
        for name, text in valid_documents():
            seq = parse_diagram(text)
            canon = serialize_diagram(seq)
            again = parse_diagram(canon)
            assert again == seq, name
            assert serialize_diagram(again) == canon, name

    def test_tail_kind_survives(self):
        for name, text in valid_documents():
            seq = parse_diagram(text)
            again = parse_diagram(serialize_diagram(seq))
            assert again.periodic_tail == seq.periodic_tail, name

    def test_same_sequence_same_bytes(self):
        built = serialize_diagram(two_path(3, 5, levels=2))
        name, text = next(d for d in valid_documents() if d[0] == "two-path-3-5")
        assert serialize_diagram(parse_diagram(text)) == built

    def test_corpus_is_large_enough(self):
        docs = valid_documents()
        assert len(docs) >= 20
        assert len({name for name, _ in docs}) == len(docs)
        tails = {parse_diagram(text).periodic_tail is None for _, text in docs}
        assert tails == {True, False}
