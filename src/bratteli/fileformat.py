"""The plain-text diagram format.

    bratteli v1
    sizes: 1 2 2
    unit: 3
    map 1: 1*2 1*3
    map 2: 1*2 2*1
    repeat: 1

One directive per line, in that order; `repeat` is optional.  A map
line carries one `parent*mult` token per coordinate of its target
level, parents 1-based.  `#` starts a comment, full-line or trailing,
and blank lines are ignored.  A line ends at "\n", "\r\n" or a lone
"\r", and nowhere else: a form feed, "\x85" or "\u2028", where
str.splitlines() would also end one, is whitespace inside its line.
serialize_diagram writes the canonical form (this exact line order,
single spaces, no comments, trailing newline), and parsing it back
returns an equal sequence.

Numerals are ASCII digits only.  The sizes, the unit, and all map
cells are checked in one pass that deletes their digits and compares
the separators left with the one sequence they may form.  A section
that passes is split into its numerals, and each is one lookup in a
table of the canonical numerals "1".."1023" (a parent reads straight
as its 0-based index).  A section with a numeral the table lacks, or
one longer than 1 MiB, so that no document forms millions of token
strings, is read by one json.loads of the same text with every
separator made a comma, which forms each int straight from the text.
A section that fails the check, holds a numeral that starts with 0 (a
0, or a leading zero JSON refuses) or one past int()'s digit limit, is
scanned token by token instead: that scan reads "01" as 1 and names
the first fault.  certio reads its lists of decimal strings through
the same reader.  serialize_diagram writes a cell whose parent and
multiplicity are below 64 as one entry of a table of cells, and a line
that holds a larger one by one % over its numbers.
"""

from __future__ import annotations

import re
from operator import getitem

from .diagram import BratteliSequence, _refuse_unwritable
from .errors import DIGITS, BratteliError, ParseError
from .simplicial import NonMixingMap

INTEGER = re.compile(f"-?{DIGITS}")
_TOKEN = re.compile(r"\S+")
_DIGITS = b"0123456789"

# The canonical numerals below _BOUND: str(n) is _NUMERALS[n], and a
# numeral of the table reads as its int (_VALUES) or, for a parent, as
# its 0-based index (_PARENTS).  A section longer than _CAP is not split
# into token strings; it goes to json.loads, as one that misses does.
# The writer's cells take parents and multiplicities below _CELL_BOUND.
_BOUND = 1024
_CAP = 1 << 20
_CELL_BOUND = 64
_NUMERALS = [*map(str, range(_BOUND))]
_VALUES = dict(zip(_NUMERALS[1:], range(1, _BOUND)))
_PARENTS = dict(zip(_NUMERALS[1:], range(_BOUND - 1)))
_ONE_BASED = _NUMERALS[1:]


class _Cells(dict):
    # _CELLS[p][m] is the cell "p+1*m" of parent index p and
    # multiplicity m, both below _CELL_BOUND; a row is formed when a
    # parent first asks for it, and a parent past the bound, or a
    # multiplicity past its row, is a LookupError
    def __missing__(self, p):
        if not 0 <= p < _CELL_BOUND:
            raise KeyError(p)
        head = _NUMERALS[p + 1] + "*"
        row = self[p] = [head + m for m in _NUMERALS[:_CELL_BOUND]]
        return row


_CELLS = _Cells()


def _one_based(indexes) -> list:
    # str(p + 1) for each index p >= 0, by table while p + 1 < _BOUND
    try:
        return [*map(_ONE_BASED.__getitem__, indexes)]
    except IndexError:
        return [str(p + 1) for p in indexes]


def _logical_lines(text: str):
    # lines end at "\n", "\r\n" or "\r" alone: str.splitlines() also
    # ends one at "\v", "\f", "\x1c".."\x1e", "\x85", "\u2028" and
    # "\u2029", which a comment may hold.  The comment split runs only
    # on a text that holds a "#"
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    raws = text.split("\n")
    if "#" in text:
        raws = [raw.split("#", 1)[0] for raw in raws]
    return [(lineno, body) for lineno, body in enumerate(raws, start=1) if body.strip()]


def _tokens(body: str):
    return [(m.start() + 1, m.group()) for m in _TOKEN.finditer(body)]


def _column(body: str, k: int) -> int:
    # 1-based column where the k-th token of the line starts
    return _tokens(body)[k][0]


def _too_long(numeral: str, lineno: int, col: int) -> ParseError:
    # int() refuses numerals longer than sys.get_int_max_str_digits()
    # (4300 digits by default)
    return ParseError(f"a numeral of {len(numeral)} digits is too long", lineno, col)


def _int(tok: str, lineno: int, col: int, what: str, minimum: int = 1) -> int:
    if not (tok.isascii() and tok.isdigit()):  # isdigit() alone also takes "²"
        raise ParseError(f"expected {what}, got {tok!r}", lineno, col)
    try:
        value = int(tok)
    except ValueError:
        raise _too_long(tok, lineno, col) from None
    if value < minimum:
        raise ParseError(f"{what} must be >= {minimum}, got {value}", lineno, col)
    return value


def _separated(joined: str, seps: bytes) -> bool:
    # deleting joined's digits leaves exactly seps, the separators in the
    # one order they may come in
    try:
        return joined.encode("ascii").translate(None, _DIGITS) == seps
    except ValueError:  # not ASCII
        return False


def _loaded(joined: str):
    # the numerals of a separated section by one json.loads, or None when
    # one starts with 0 (so is 0 or has a leading zero), is empty or is
    # past int()'s digit limit.  Nothing is kept per numeral but its int,
    # where a pattern with a repeated group keeps backtracking state per
    # repeat
    import json

    if joined.startswith("0") or " 0" in joined or "*0" in joined:
        return None
    try:
        return json.loads("[" + joined.replace("*", ",").replace(" ", ",") + "]") or None
    except ValueError:
        return None


def _bulk(joined: str, seps: bytes):
    # the numerals of joined, when it is separated by seps and no numeral
    # starts with 0; else None.  Each numeral of the table is one lookup
    if not _separated(joined, seps):
        return None
    if len(joined) <= _CAP:
        try:
            return [*map(_VALUES.__getitem__, joined.split(" "))]
        except KeyError:  # past the table, or not canonical
            pass
    return _loaded(joined)


def _cells(joined: str):
    # the 0-based parents and the multiplicities of a separated map
    # section, each a lookup, or None past the cap or off the table
    if len(joined) <= _CAP:
        toks = joined.replace("*", " ").split(" ")
        try:
            return (
                tuple(map(_PARENTS.__getitem__, toks[0::2])),
                tuple(map(_VALUES.__getitem__, toks[1::2])),
            )
        except KeyError:  # past the table, or not canonical
            pass
    return None


def _numbers(body: str, lineno: int, directive: str, what: str) -> list:
    # the numerals after the directive that starts the line, read in bulk;
    # a line the bulk read refuses is scanned token by token to name its
    # first fault
    head, *nums = body.split()
    if head != directive:
        raise ParseError(f"expected {directive!r}, got {head!r}", lineno, _column(body, 0))
    got = _bulk(" ".join(nums), b" " * (len(nums) - 1))
    if got is None:
        got = [_int(t, lineno, c, what) for c, t in _tokens(body)[1:]]
    return got


def _cell_text(block: list, sizes: list):
    # a map section's cells as one string, single spaces between them (a
    # line's whitespace is remade only when its count of spaces is off),
    # or None when a line is not the map line it should be
    rows = []
    for i, (_, body) in enumerate(block, start=1):
        prefix = f"map {i}: "
        if body.startswith(prefix):  # as serialize_diagram writes it
            row = body[len(prefix) :].rstrip()
        else:
            head = body.split(None, 2)
            if head[:2] != ["map", f"{i}:"] or len(head) < 3:
                return None
            row = head[2].rstrip()
        if row.count(" ") != sizes[i] - 1:
            row = " ".join(row.split())
            if row.count(" ") != sizes[i] - 1:
                return None
        rows.append(row)
    return " ".join(rows)


def _bulk_maps(block: list, sizes: list):
    # the maps of a well-formed map section, else None.  Its cells are
    # read as _bulk reads numerals, each parent by the 0-based table
    if len(block) < len(sizes) - 1:
        return None
    joined = _cell_text(block, sizes)
    if joined is None or not _separated(joined, (b"* " * sum(sizes[1:]))[:-1]):
        return None
    cells = _cells(joined)
    if cells is None:
        nums = _loaded(joined)
        if nums is None:
            return None
        cells = tuple([p - 1 for p in nums[0::2]]), tuple(nums[1::2])
    parent, mult = cells
    # one max settles every map when no parent reaches the least source
    # rank; else each map's parents are checked against its own
    checked = max(parent) < min(sizes[:-1])
    maps, at = [], 0
    for src, n in zip(sizes, sizes[1:]):
        row = parent[at : at + n]
        if not checked and max(row) >= src:
            return None
        maps.append(NonMixingMap._of(src, row, mult[at : at + n]))
        at += n
    return maps


def parse_diagram(text: str) -> BratteliSequence:
    """Parse a diagram document; ParseError carries line and column."""
    lines = _logical_lines(text)
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
    toks = _tokens(body)
    if [t for _, t in toks] != ["bratteli", "v1"]:
        raise ParseError("expected header 'bratteli v1'", lineno, toks[0][0])

    lineno, body = need_line("'sizes:' line")
    sizes = _numbers(body, lineno, "sizes:", "a size")
    if not sizes:
        raise ParseError("need at least one size", lineno, _column(body, 0))

    lineno, body = need_line("'unit:' line")
    unit = tuple(_numbers(body, lineno, "unit:", "a unit entry"))
    if len(unit) != sizes[0]:
        raise ParseError(
            f"unit needs {sizes[0]} entries, got {len(unit)}", lineno, _column(body, 0)
        )

    maps = _bulk_maps(lines[pos : pos + len(sizes) - 1], sizes)
    if maps is not None:
        pos += len(maps)
    else:  # scan the section cell by cell to name its first fault
        maps = []
        for i in range(1, len(sizes)):
            lineno, body = need_line(f"'map {i}:' line")
            toks = body.split()
            if toks[:2] != ["map", f"{i}:"]:
                raise ParseError(f"expected 'map {i}:'", lineno, _column(body, 0))
            if len(toks) - 2 != sizes[i]:
                raise ParseError(
                    f"map {i} needs {sizes[i]} entries, got {len(toks) - 2}",
                    lineno,
                    _column(body, 0),
                )
            # one split per cell; isascii() because isdigit() also takes "²"
            src = sizes[i - 1]
            parent, mult = [], []
            for n, tok in enumerate(toks[2:], start=2):
                a, star, b = tok.partition("*")
                if not (star and tok.isascii() and a.isdigit() and b.isdigit()):
                    raise ParseError(
                        f"expected 'parent*mult', got {tok!r}", lineno, _column(body, n)
                    )
                try:
                    p, k = int(a), int(b)
                except ValueError:
                    raise _too_long(max(a, b, key=len), lineno, _column(body, n)) from None
                if not 1 <= p <= src:
                    raise ParseError(f"parent {p} outside 1..{src}", lineno, _column(body, n))
                if k < 1:
                    raise ParseError(
                        f"multiplicity must be >= 1, got {k}", lineno, _column(body, n)
                    )
                parent.append(p - 1)
                mult.append(k)
            maps.append(NonMixingMap._of(src, tuple(parent), tuple(mult)))

    tail = None
    tail_line = 1
    if pos < len(lines):
        lineno, body = need_line("'repeat:' line")
        toks = _tokens(body)
        if toks[0][1] != "repeat:":
            raise ParseError(
                f"unexpected directive {toks[0][1]!r}", lineno, toks[0][0]
            )
        if len(toks) != 2:
            raise ParseError("repeat takes exactly one level", lineno, toks[0][0])
        tail = _int(toks[1][1], lineno, toks[1][0], "a level")
        tail_line = lineno
    if pos < len(lines):
        lineno, body = lines[pos]
        toks = _tokens(body)
        raise ParseError("unexpected extra line", lineno, toks[0][0])

    try:
        return BratteliSequence(sizes, tuple(maps), unit, tail)
    except BratteliError as e:
        raise ParseError(str(e), tail_line, 1) from e


def serialize_diagram(seq: BratteliSequence) -> str:
    """Canonical text form; parsing it back gives an equal sequence.
    TooLarge when a unit entry or multiplicity is too long to write."""
    out = ["bratteli v1"]
    out.append("sizes: " + " ".join(map(str, seq.ranks)))
    try:
        out.append("unit: " + " ".join(map(str, seq.base_unit)))
    except ValueError:  # str() refuses what _refuse_unwritable refuses
        _refuse_unwritable(seq.base_unit, "a unit entry")
    for i, a in enumerate(seq.maps, start=1):
        # each cell is one lookup in the cell table; a line that leaves
        # it is formatted by one % over its numbers
        try:
            cells = " ".join(map(getitem, map(_CELLS.__getitem__, a.parent), a.mult))
        except LookupError:
            nums = [*a.parent, *a.mult]
            nums[0::2], nums[1::2] = [p + 1 for p in a.parent], a.mult
            try:
                cells = " ".join(["%d*%d"] * len(a.parent)) % tuple(nums)
            except ValueError:
                _refuse_unwritable(a.mult, f"a multiplicity of map {i}")
        out.append(f"map {i}: {cells}")
    if seq.periodic_tail is not None:
        out.append(f"repeat: {seq.periodic_tail}")
    return "\n".join(out) + "\n"
