"""Certificates and verdicts as JSON documents.

Integers travel as decimal strings so that arbitrarily large scalars
survive any JSON implementation unchanged; supernatural numbers in their
text form; sequences embedded as diagram documents.  Encoding is
deterministic: sorted keys, two-space indent, trailing newline, the
bytes of json.dumps(doc, indent=2, sort_keys=True) + "\n".  dumps
writes them itself, because with an indent json.dumps runs its encoder
in pure Python; each string is quoted by json's C quoting function, and
each list of strings, the bulk of every document, is put together by
one join.
"""

from __future__ import annotations

import re
from json import dumps as _json_dumps
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING

from .errors import DIGITS
from .fileformat import INTEGER, _decimal, parse_diagram, serialize_diagram

# Each codec imports the types it builds or tests when it runs, so
# `canon`, which takes only dumps, loads none of equiv, intertwine or
# supernat through this module.
if TYPE_CHECKING:
    from .equiv import Cardinality, EquivalenceCertificate
    from .intertwine import UnitChangeCertificate

_INTEGERS = re.compile(f"-?{DIGITS}(?: -?{DIGITS})*")


def dumps(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True) + "\n", byte for byte."""
    return _write(doc, "\n") + "\n"


def _write(value, newline: str) -> str:
    # value as json.dumps(indent=2, sort_keys=True) writes it on a line
    # that `newline` ("\n" and the line's indent) starts.  What this does
    # not take apart (a float, a key that is not a str, a type JSON has
    # no form for) json.dumps writes or refuses, its line breaks indented
    # to match: it breaks lines nowhere else, since it escapes "\n" in
    # every string.  An empty list or dict takes that way too
    if isinstance(value, str):
        return _quote(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)) and value:
        try:
            body = ("," + inner).join(map(_quote, value))
        except TypeError:  # not only strings
            body = ("," + inner).join([_write(v, inner) for v in value])
        return "[" + inner + body + newline + "]"
    if isinstance(value, dict) and value:
        try:
            body = ("," + inner).join(
                [_quote(k) + ": " + _write(value[k], inner) for k in sorted(value)]
            )
            return "{" + inner + body + newline + "}"
        except TypeError:  # a key not a str, or a value JSON has no form for
            pass
    elif value is None:
        return "null"
    elif value is True:
        return "true"
    elif value is False:
        return "false"
    elif isinstance(value, int):
        return int.__repr__(value)
    return _json_dumps(value, indent=2, sort_keys=True).replace("\n", newline)


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
    # one pattern over the values joined by spaces and one int() pass;
    # the per-value loop runs only to name the first fault
    values = _typed(values, list, what)
    try:
        joined = " ".join(values)
        parts = joined.split(" ")
        if _INTEGERS.fullmatch(joined) and len(parts) == len(values):
            return tuple(map(int, parts))
    except (TypeError, ValueError):  # a value not a str, or past int()'s limit
        pass
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
    return {
        "kind": "unit-change",
        "sequence": serialize_diagram(cert.seq),
        "alt_unit": [str(v) for v in cert.alt_unit],
        "strategy": cert.strategy,
        "rungs": [
            {"scalar": _decimal(s, f"rung {t} scalar")}
            for t, s in enumerate(cert.rungs, start=1)
        ],
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
    _refuse_rung_keys(rungs)
    seq = parse_diagram(_need(doc, "sequence", str))
    strategy = _need(doc, "strategy")
    if strategy not in ("minimal", "paper"):
        raise ValueError(f"strategy must be 'minimal' or 'paper', got {strategy!r}")
    return UnitChangeCertificate(
        seq,
        _ints(_need(doc, "alt_unit"), "unit entry"),
        strategy,
        _ints([_need(r, "scalar") for r in rungs], "rung scalar"),
        _supernatural(_need(doc, "partial_n"), "partial_n"),
        _supernatural(_need(doc, "partial_m"), "partial_m"),
        _supernatural(doc.get("exact_n"), "exact_n"),
        _supernatural(doc.get("exact_m"), "exact_m"),
    )


def _refuse_rung_keys(rungs: list):
    # a rung's level, direction and diagonal follow from the scalars; a
    # rung that still carries them is refused rather than verified with
    # them unread, where a tampered diagonal would pass as ok
    for t, r in enumerate(rungs, start=1):
        if isinstance(r, dict):
            for key in ("level", "direction", "diag"):
                if key in r:
                    raise ValueError(
                        f"{key} must not appear in rung {t}: "
                        "unit-change rungs carry only their scalar"
                    )


def _cardinality_to_doc(card: Cardinality) -> dict:
    return {
        "kind": card.kind,
        "count": None if card.count is None else str(card.count),
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
        tw = cert.intertwining
        return {
            "kind": "equivalence",
            "verdict": "equivalent",
            "left": serialize_diagram(cert.left),
            "right": serialize_diagram(cert.right),
            "left_cardinality": _cardinality_to_doc(cert.left_cardinality),
            "right_cardinality": _cardinality_to_doc(cert.right_cardinality),
            "intertwining": {
                "left_levels": [str(v) for v in tw.left_levels],
                "right_levels": [str(v) for v in tw.right_levels],
                "f_maps": [_coords_to_doc(f) for f in tw.f_maps],
                "g_maps": [_coords_to_doc(g) for g in tw.g_maps],
                "closure": tw.closure,
            },
        }
    if isinstance(verdict, NotEquivalent):
        return {
            "kind": "equivalence",
            "verdict": "not-equivalent",
            "reason": verdict.reason,
            "left": serialize_diagram(left),
            "right": serialize_diagram(right),
            "left_cardinality": _cardinality_to_doc(verdict.left_cardinality),
            "right_cardinality": _cardinality_to_doc(verdict.right_cardinality),
        }
    if isinstance(verdict, Unknown):
        return {
            "kind": "equivalence",
            "verdict": "unknown",
            "depth": str(verdict.depth),
            "left": serialize_diagram(left),
            "right": serialize_diagram(right),
        }
    raise ValueError(f"not a verdict: {verdict!r}")


def _refuse_diagonals(doc: dict):
    # the rescaling diagonals are no part of an equivalence document; one
    # that carries them is refused rather than verified with them unread,
    # where a tampered "1/0" entry would pass as ok
    for key in ("left_diagonals", "right_diagonals"):
        if key in doc:
            raise ValueError(
                f"{key} must not appear: equivalence documents carry no diagonals"
            )


def equivalence_certificate_from_doc(doc: dict) -> EquivalenceCertificate:
    from .equiv import EquivalenceCertificate, Intertwining

    if _need(doc, "kind") != "equivalence" or _need(doc, "verdict") != "equivalent":
        raise ValueError("not an equivalent-verdict document")
    _refuse_diagonals(doc)
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
    _refuse_diagonals(doc)
    verdict = NotEquivalent(
        _cardinality_from_doc(_need(doc, "left_cardinality")),
        _cardinality_from_doc(_need(doc, "right_cardinality")),
        _need(doc, "reason"),
    )
    left, right = (parse_diagram(_need(doc, key, str)) for key in ("left", "right"))
    return verdict, left, right
