"""Certificates and verdicts as JSON documents.

Integers travel as decimal strings so that arbitrarily large scalars
survive any JSON implementation unchanged; supernatural numbers in their
text form; sequences embedded as diagram documents.  Encoding is
deterministic: sorted keys, two-space indent, trailing newline, the
bytes of json.dumps(doc, indent=2, sort_keys=True) + "\n".

dump writes those bytes itself, piece by piece through a write
function, because with an indent json.dumps runs its encoder in pure
Python and returns the whole document as one string.  Each string is
quoted by json's C quoting function, and each list of strings, the
bulk of every document, and each dict of strings, such as a rung, is
put together by one join and written as one piece.  Any list of a
document may be a lazy iterable instead, such as a generator of rows:
it is written row by row as it is drawn, so a command that streams its
rows never holds them all, nor the document's text.  dumps is dump
into one string.
"""

from __future__ import annotations

from collections.abc import Iterator
from json import dumps as _json_dumps
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING

from .diagram import _refuse_unwritable, _write_cut
from .fileformat import INTEGER, _bulk, parse_diagram, serialize_diagram

# Each codec imports the types it builds or tests when it runs, so
# `canon`, which takes only dumps, loads none of equiv, intertwine or
# supernat through this module.
if TYPE_CHECKING:
    from .equiv import Cardinality, EquivalenceCertificate
    from .intertwine import UnitChangeCertificate


def dump(doc, write) -> None:
    """write(piece) for each piece of json.dumps(doc, indent=2,
    sort_keys=True) + "\n", in order; a list may be any iterator."""
    _dump(doc, "\n", write)
    write("\n")


def dumps(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True) + "\n", byte for byte."""
    pieces = []
    dump(doc, pieces.append)
    return "".join(pieces)


def _dump(value, newline: str, write):
    # value as json.dumps(indent=2, sort_keys=True) writes it on a line
    # that `newline` ("\n" and the line's indent) starts.  A scalar goes
    # to json.dumps, which writes a number or bool (no document holds
    # one, since its numbers are decimal strings) and refuses a type
    # JSON has no form for
    if isinstance(value, str):
        write(_quote(value))
        return
    text = _flat(value, newline)
    if text is not None:
        write(text)
    elif isinstance(value, dict):
        inner = newline + "  "
        sep = "{" + inner
        for k in sorted(value):
            write(sep + _key(k) + ": ")
            _dump(value[k], inner, write)
            sep = "," + inner
        write(newline + "}")
    elif value is None:
        write("null")
    elif isinstance(value, (list, tuple, Iterator)):
        inner = newline + "  "
        sep = "[" + inner
        for v in value:
            text = _quote(v) if isinstance(v, str) else _flat(v, inner)
            if text is None:
                write(sep)
                _dump(v, inner, write)
            else:
                write(sep + text)
            sep = "," + inner
        write("[]" if sep[0] == "[" else newline + "]")
    else:
        write(_json_dumps(value))


def _flat(value, newline: str) -> str | None:
    # a list or tuple of strings, or a dict of strings, as one piece, by
    # one join; None for anything else
    inner = newline + "  "
    if isinstance(value, dict):
        try:
            items = [_key(k) + ": " + _quote(value[k]) for k in sorted(value)]
        except TypeError:  # not only strings, or keys json.dumps refuses
            return None
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if not isinstance(value, (list, tuple)):
        return None
    if not value:
        return "[]"
    try:
        return "[" + inner + ("," + inner).join(map(_quote, value)) + newline + "]"
    except TypeError:  # not only strings
        return None


def _key(k) -> str:
    # a dict key as json.dumps writes it: a str quoted, a number, bool
    # or None as its JSON text, quoted; sorted() has already refused
    # keys that do not compare
    if isinstance(k, str):
        return _quote(k)
    if isinstance(k, (int, float)) or k is None:
        return _quote(_json_dumps(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _need(doc, key, kind=object):
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"certificate document lacks {key!r}")
    return _typed(doc[key], kind, key)


def _typed(value, kind, what: str):
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _int(value, what: str) -> int:
    if not isinstance(value, str) or not INTEGER.fullmatch(value):
        raise ValueError(f"{what} must be a decimal string, got {value!r}")
    try:
        return int(value)
    except ValueError:  # past int()'s limit of sys.get_int_max_str_digits()
        raise ValueError(f"{what} of {len(value)} digits is too long") from None


def _ints(values, what: str) -> tuple:
    # the values joined by spaces, read in one pass as the diagram parser
    # reads its sizes.  The per-value loop reads a list that pass refuses
    # (None: a sign, a 0, a leading zero, ...) and names its first fault
    values = _typed(values, list, what)
    try:
        return tuple(_bulk(" ".join(values), b" " * (len(values) - 1)))
    except TypeError:  # a value not a str, or tuple(None)
        return tuple(_int(v, what) for v in values)


def _supernatural(value, what: str):
    from .supernat import SupernaturalNumber

    if value is None:
        return None
    try:
        return SupernaturalNumber.parse(value)
    except (ValueError, AttributeError) as e:
        raise ValueError(f"{what}: {e}") from e


def unit_change_to_doc(cert: UnitChangeCertificate) -> dict:
    # one pass finds whether a scalar is too long to write; the first
    # such rung is then named
    cut = _write_cut()
    if cut is not None and max(cert.rungs, default=0) >= cut:
        t = next(t for t, s in enumerate(cert.rungs, start=1) if s >= cut)
        _refuse_unwritable((cert.rungs[t - 1],), f"rung {t} scalar")
    return {
        "kind": "unit-change",
        "sequence": serialize_diagram(cert.seq),
        "alt_unit": [str(v) for v in cert.alt_unit],
        "strategy": cert.strategy,
        "rungs": ({"scalar": str(s)} for s in cert.rungs),
        "partial_n": str(cert.partial_n),
        "partial_m": str(cert.partial_m),
        "exact_n": None if cert.exact_n is None else str(cert.exact_n),
        "exact_m": None if cert.exact_m is None else str(cert.exact_m),
    }


def unit_change_from_doc(doc: dict) -> UnitChangeCertificate:
    from .intertwine import UnitChangeCertificate

    if _need(doc, "kind") != "unit-change":
        raise ValueError(f"not a unit-change document: kind {doc.get('kind')!r}")
    rungs = _need(doc, "rungs", list)
    # a rung's level, direction and diagonal follow from the scalars, so
    # the first rung that holds one of them is refused
    retired = ("level", "direction", "diag")
    for t, r in enumerate(rungs, start=1):
        if isinstance(r, dict) and not r.keys().isdisjoint(retired):
            _refuse(r, retired, f" in rung {t}: unit-change rungs carry only their scalar")
    seq = parse_diagram(_need(doc, "sequence", str))
    strategy = _need(doc, "strategy")
    if strategy not in ("minimal", "paper"):
        raise ValueError(f"strategy must be 'minimal' or 'paper', got {strategy!r}")
    alt_unit = _ints(_need(doc, "alt_unit"), "unit entry")
    try:  # _need names the first rung that is not a dict with a scalar
        scalars = [r["scalar"] for r in rungs]
    except (KeyError, TypeError):
        scalars = [_need(r, "scalar") for r in rungs]
    return UnitChangeCertificate(
        seq,
        alt_unit,
        strategy,
        _ints(scalars, "rung scalar"),
        _supernatural(_need(doc, "partial_n"), "partial_n"),
        _supernatural(_need(doc, "partial_m"), "partial_m"),
        _supernatural(doc.get("exact_n"), "exact_n"),
        _supernatural(doc.get("exact_m"), "exact_m"),
    )


def _refuse(doc, keys, why: str):
    # a key that is no part of the document is refused rather than
    # verified with it unread, where a tampered value (a diagonal entry
    # "1/0") would pass as ok
    for key in keys:
        if isinstance(doc, dict) and key in doc:
            raise ValueError(f"{key} must not appear{why}")


def _cardinalities_to_doc(v) -> dict:
    # the left and right cardinalities of a verdict or certificate
    cards = {"left": v.left_cardinality, "right": v.right_cardinality}
    return {
        f"{side}_cardinality": {
            "kind": c.kind,
            "count": None if c.count is None else str(c.count),
        }
        for side, c in cards.items()
    }


def _cardinality_from_doc(doc) -> Cardinality:
    from .equiv import Cardinality

    kind = _need(doc, "kind")
    count = _need(doc, "count")
    return Cardinality(kind, None if count is None else _int(count, "count"))


def _coords_to_doc(f) -> list:
    # coordinates are 1-based on disk, like the diagram format
    return [str(v + 1) for v in f]


def _coords_from_doc(values, what: str) -> tuple:
    return tuple(v - 1 for v in _ints(values, what))


def verdict_to_doc(verdict, left, right) -> dict:
    """Encode an equivalence verdict; embeds both sequences so the
    document can be rechecked on its own.  For Equivalent the sequences
    come out of the certificate, and left and right go unused."""
    from .equiv import Equivalent, NotEquivalent, Unknown

    if isinstance(verdict, Equivalent):
        cert = verdict.certificate
        left, right, tw = cert.left, cert.right, cert.intertwining
        own = {
            "verdict": "equivalent",
            **_cardinalities_to_doc(cert),
            "intertwining": {
                "left_levels": [str(v) for v in tw.left_levels],
                "right_levels": [str(v) for v in tw.right_levels],
                "f_maps": [_coords_to_doc(f) for f in tw.f_maps],
                "g_maps": [_coords_to_doc(g) for g in tw.g_maps],
                "closure": tw.closure,
            },
        }
    elif isinstance(verdict, NotEquivalent):
        cards = _cardinalities_to_doc(verdict)
        own = {"verdict": "not-equivalent", "reason": verdict.reason, **cards}
    elif isinstance(verdict, Unknown):
        own = {"verdict": "unknown", "depth": str(verdict.depth)}
    else:
        raise ValueError(f"not a verdict: {verdict!r}")
    return {
        "kind": "equivalence",
        "left": serialize_diagram(left),
        "right": serialize_diagram(right),
        **own,
    }


# the rescaling diagonals are no part of an equivalence document
_DIAGONALS = ("left_diagonals", "right_diagonals")
_NO_DIAGONALS = ": equivalence documents carry no diagonals"


def equivalence_certificate_from_doc(doc: dict) -> EquivalenceCertificate:
    from .equiv import EquivalenceCertificate, Intertwining

    if _need(doc, "kind") != "equivalence" or _need(doc, "verdict") != "equivalent":
        raise ValueError("not an equivalent-verdict document")
    _refuse(doc, _DIAGONALS, _NO_DIAGONALS)
    tw_doc = _need(doc, "intertwining")
    tw = Intertwining(
        _ints(_need(tw_doc, "left_levels"), "level"),
        _ints(_need(tw_doc, "right_levels"), "level"),
        tuple(_coords_from_doc(f, "f entry") for f in _need(tw_doc, "f_maps", list)),
        tuple(_coords_from_doc(g, "g entry") for g in _need(tw_doc, "g_maps", list)),
        _need(tw_doc, "closure", str),
    )
    return EquivalenceCertificate(
        parse_diagram(_need(doc, "left", str)),
        parse_diagram(_need(doc, "right", str)),
        _cardinality_from_doc(_need(doc, "left_cardinality")),
        _cardinality_from_doc(_need(doc, "right_cardinality")),
        tw,
    )


def not_equivalent_from_doc(doc: dict):
    """Returns (NotEquivalent, left sequence, right sequence)."""
    from .equiv import NotEquivalent

    if _need(doc, "kind") != "equivalence" or _need(doc, "verdict") != "not-equivalent":
        raise ValueError("not a not-equivalent-verdict document")
    _refuse(doc, _DIAGONALS, _NO_DIAGONALS)
    verdict = NotEquivalent(
        _cardinality_from_doc(_need(doc, "left_cardinality")),
        _cardinality_from_doc(_need(doc, "right_cardinality")),
        _need(doc, "reason"),
    )
    left, right = (parse_diagram(_need(doc, key, str)) for key in ("left", "right"))
    return verdict, left, right
