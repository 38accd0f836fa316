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
and blank lines are ignored.  serialize_diagram writes the canonical
form (this exact line order, single spaces, no comments, trailing
newline), and parsing it back returns an equal sequence.  Numerals are
ASCII digits only.  The sizes, the unit, and all map cells are checked
in one pass that deletes their digits and compares the separators left
with the one sequence they may form, and read by one json.loads of the
same text with every separator made a comma, which forms each int
straight from the text, never a str per numeral.  A part that fails
the check, holds a numeral that starts with 0 (a 0, or a leading zero
JSON refuses) or one past int()'s digit limit, is scanned token by
token instead: that scan reads "01" as 1 and names the first fault.
"""

from __future__ import annotations

import re

from .diagram import BratteliSequence, _refuse_unwritable
from .errors import DIGITS, BratteliError, ParseError
from .simplicial import NonMixingMap

INTEGER = re.compile(f"-?{DIGITS}")
_TOKEN = re.compile(r"\S+")
_DIGITS = b"0123456789"


def _logical_lines(text: str):
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            out.append((lineno, body))
    return out


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


def _bulk(joined: str, seps: bytes):
    # the numerals of joined, when deleting its digits leaves exactly
    # seps, the separators in the one order they may come in, and no
    # numeral starts with 0 (so is 0 or has a leading zero); else None.
    # Nothing is kept per numeral but its int, where a pattern with a
    # repeated group keeps backtracking state per repeat
    import json

    try:
        if joined.encode("ascii").translate(None, _DIGITS) != seps:
            return None
    except ValueError:  # not ASCII
        return None
    if joined.startswith("0") or " 0" in joined or "*0" in joined:
        return None
    try:
        return json.loads("[" + joined.replace("*", ",").replace(" ", ",") + "]") or None
    except ValueError:  # an empty numeral, or one past int()'s digit limit
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


def _bulk_maps(block: list, sizes: list):
    # the maps of a well-formed map section, else None.  Each line's
    # cells are taken as one string, its whitespace made single spaces
    # only when the count of spaces is off, so no token is formed
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
    nums = _bulk(" ".join(rows), (b"* " * sum(sizes[1:]))[:-1])
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
    out.append("sizes: " + " ".join(str(r) for r in seq.ranks))
    try:
        out.append("unit: " + " ".join(str(v) for v in seq.base_unit))
    except ValueError:  # str() refuses what _refuse_unwritable refuses
        _refuse_unwritable(seq.base_unit, "a unit entry")
    for i, a in enumerate(seq.maps, start=1):
        # each line's cells are formatted by one % over its numbers
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
