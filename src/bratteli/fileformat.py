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
newline), and parsing it back returns an equal sequence.
"""

from __future__ import annotations

import re

from .diagram import BratteliSequence
from .errors import DIGITS, BratteliError, ParseError, TooLarge
from .simplicial import NonMixingMap

_NATURAL = re.compile(DIGITS)
INTEGER = re.compile(f"-?{DIGITS}")
_TOKEN = re.compile(r"\S+")


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
    if not _NATURAL.fullmatch(tok):
        raise ParseError(f"expected {what}, got {tok!r}", lineno, col)
    try:
        value = int(tok)
    except ValueError:
        raise _too_long(tok, lineno, col) from None
    if value < minimum:
        raise ParseError(f"{what} must be >= {minimum}, got {value}", lineno, col)
    return value


def _decimal(value, what: str) -> str:
    # str() refuses ints, and Fractions with a numerator or denominator,
    # longer than sys.get_int_max_str_digits() digits
    try:
        return str(value)
    except ValueError:
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        raise TooLarge(
            f"{what} is too long to write in decimal ({bits} bits)"
        ) from None


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
    toks = _tokens(body)
    if toks[0][1] != "sizes:":
        raise ParseError(f"expected 'sizes:', got {toks[0][1]!r}", lineno, toks[0][0])
    if len(toks) < 2:
        raise ParseError("need at least one size", lineno, toks[0][0])
    sizes = tuple(_int(t, lineno, c, "a size") for c, t in toks[1:])

    lineno, body = need_line("'unit:' line")
    toks = _tokens(body)
    if toks[0][1] != "unit:":
        raise ParseError(f"expected 'unit:', got {toks[0][1]!r}", lineno, toks[0][0])
    unit = tuple(_int(t, lineno, c, "a unit entry") for c, t in toks[1:])
    if len(unit) != sizes[0]:
        raise ParseError(
            f"unit needs {sizes[0]} entries, got {len(unit)}", lineno, toks[0][0]
        )

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
        maps.append(NonMixingMap(src, tuple(parent), tuple(mult)))

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
    except ValueError:  # so the largest entry is too long: TooLarge names it
        _decimal(max(seq.base_unit), "a unit entry")
    for i, a in enumerate(seq.maps, start=1):
        try:
            cells = " ".join(f"{p + 1}*{k}" for p, k in zip(a.parent, a.mult))
        except ValueError:
            _decimal(max(a.mult), f"a multiplicity of map {i}")
        out.append(f"map {i}: {cells}")
    if seq.periodic_tail is not None:
        out.append(f"repeat: {seq.periodic_tail}")
    return "\n".join(out) + "\n"
