"""The JSON writer and the commands that write without Fractions, each
against the standard-library code it replaced.

* certio.dumps against json.dumps(doc, indent=2, sort_keys=True) + "\\n",
  on seeded random documents and on every document that `canon`,
  `equiv` and `unit-change` print for the corpus;
* `canon` against the Fraction diagonals it used to write;
* `states --decimal` against the floats of the exact units.

Stdlib only, so any interpreter runs it without pytest:

    PYTHONPATH=src python tests/test_dumps.py
"""

import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from bratteli import TooLarge, certio, parse_diagram, serialize_diagram
from bratteli.cli import run
from bratteli.fileformat import _decimal
from corpus import valid_documents
from genseq import max_usable_level, random_sequence

# quotes, backslashes, control characters, DEL, non-ASCII text, a
# character past the BMP, a line separator and a lone surrogate
_CHARS = 'aZ09 /"\\\b\f\n\r\t\x00\x1f\x7f\xe9\u20ac\U0001d11e\u2028\ud800'


def _text(rng):
    return "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, 6)))


def _value(rng, depth=0):
    kind = rng.randrange(10 if depth < 4 else 5)
    if kind == 0:
        return _text(rng)
    if kind == 1:
        return rng.choice((None, True, False))
    if kind == 2:
        return rng.choice((0, 1, -1, 2**70, -(3**50), rng.randint(-(10**6), 10**6)))
    if kind == 3:
        return rng.choice(([], (), {}))
    if kind == 4:
        return rng.choice((0.5, -0.0, 1e300, float("inf"), float("nan")))
    if kind == 5:  # strings only: the one-join case
        return [_text(rng) for _ in range(rng.randint(1, 5))]
    items = [_value(rng, depth + 1) for _ in range(rng.randint(1, 4))]
    if kind == 6:
        return tuple(items)
    if kind == 7:
        return items
    if kind == 8:  # keys json.dumps converts to text
        return {rng.randint(-5, 5): v for v in items}
    return {_text(rng): v for v in items}


def _json(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_dumps_matches_json_on_random_documents():
    rng = random.Random(18)
    for _ in range(3000):
        doc = _value(rng)
        assert certio.dumps(doc) == _json(doc), doc


def test_dumps_refuses_what_json_refuses():
    for doc in ({"a": [1, {"b": object()}]}, [object()], {"k": {1, 2}}):
        for write in (certio.dumps, _json):
            try:
                write(doc)
            except TypeError:
                continue
            raise AssertionError(f"{write.__name__} wrote {doc!r}")


def _cli(argv):
    # (exit code, stdout, stderr) of one in-process command
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_printed_documents_are_json_dumps():
    # every document the three writing commands print for the corpus is
    # what json.dumps writes for it, and what dumps writes again
    docs = valid_documents()
    printed = 0
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, text in docs:
            path = Path(tmp, f"{name}.brat")
            path.write_text(text, encoding="utf-8")
            paths.append((str(path), parse_diagram(text)))
        for k, (path, seq) in enumerate(paths):
            unit = ",".join(str(1 + j % 3) for j in range(seq.ranks[0]))
            other = paths[(k + 1) % len(paths)][0]
            for argv in (
                ["canon", path],
                ["equiv", path, path],
                ["equiv", path, other],
                ["unit-change", path, "--unit", unit, "--depth", str(seq.length)],
            ):
                code, out, err = _cli(argv)
                if code == 1 and not out:  # a refusal, on stderr
                    assert err.startswith("error: "), (argv, err)
                    continue
                doc = json.loads(out)
                assert out == _json(doc) == certio.dumps(doc), argv
                printed += 1
    assert printed >= 3 * len(docs)


def _old_canon(seq):
    # `canon` as it wrote before: Fraction diagonals, each written by
    # fileformat._decimal, and json.dumps
    u = seq.base_unit
    diagonals = [tuple(Fraction(1, v) for v in u)]
    for a in seq.maps:
        u = a.apply(u)
        diagonals.append(tuple(Fraction(1, v) for v in u))
    doc = {
        "kind": "canonical-form",
        "sizes": [str(v) for v in seq.ranks],
        "parents": [[str(p + 1) for p in a.parent] for a in seq.maps],
        "repeat": None if seq.periodic_tail is None else str(seq.periodic_tail),
        "diagonals": [[_decimal(v, "diagonal entry") for v in d] for d in diagonals],
    }
    return _json(doc)


def _canon_cases():
    rng = random.Random(1802)
    for i in range(300):
        yield random_sequence(
            rng,
            max_levels=rng.choice((5, 40)),
            max_mult=rng.choice((1, 4, 1000, 10**30)),
            tail=("none", "cyclic", "sub")[i % 3],
        )


def test_canon_matches_the_fraction_path():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "d.brat")
        for seq in _canon_cases():
            path.write_text(serialize_diagram(seq), encoding="utf-8")
            assert _cli(["canon", str(path)]) == (0, _old_canon(seq), "")


def test_canon_refuses_as_the_fraction_path():
    # the level-3 unit has about 6 000 digits, past str()'s limit
    big = "9" * 3000
    text = f"bratteli v1\nsizes: 1 1 1\nunit: 1\nmap 1: 1*{big}\nmap 2: 1*{big}\n"
    try:
        _old_canon(parse_diagram(text))
    except TooLarge as e:
        want = f"error: {e}\n"
    else:
        raise AssertionError("the Fraction path wrote the document")
    assert want == "error: diagonal entry is too long to write in decimal (19932 bits)\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "d.brat")
        path.write_text(text, encoding="utf-8")
        assert _cli(["canon", str(path)]) == (1, "", want)


def _old_decimal_states(seq, level, depth):
    # `states --decimal` as it wrote before, from the exact unit
    u = seq.unit_at(level)
    out = []
    for i, n in seq.ancestor_runs(level, depth):
        values = ["0.0"] * len(u)
        values[i] = str(1 / u[i])
        out.append((" ".join(values) + "\n") * n)
    return "".join(out)


def _decimal_cases():
    rng = random.Random(1803)
    for i in range(300):
        tail = ("none", "cyclic", "sub")[i % 3]
        seq = random_sequence(rng, max_mult=rng.choice((2, 4, 2**40)), tail=tail)
        top = max_usable_level(seq, extra_periods=4, size_cap=64)
        if seq.tail_kind == "cyclic":
            top = rng.choice((top, 700, 3000))
        level = rng.randint(1, top)
        yield seq, level, rng.randint(level, max(level, top))
    # the last levels whose value is not 0.0, and the first that are:
    # 3**678 and 2**1074 are below 2**1075, 3**679 and 2**1075 are not
    for k, last in ((3, 679), (2, 1075)):
        seq = parse_diagram(
            f"bratteli v1\nsizes: 2 2\nunit: 1 1\nmap 1: 1*1 2*{k}\nrepeat: 1\n"
        )
        for level in range(last - 1, last + 3):
            yield seq, level, level + 1
    # base unit entries on both sides of the cap
    for v in (2**1075 - 1, 2**1075, 2**1075 + 1, 3**700):
        seq = parse_diagram(f"bratteli v1\nsizes: 2\nunit: 1 {v}\n")
        yield seq, 1, 1


def test_decimal_states_match_the_exact_units():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "d.brat")
        for seq, level, depth in _decimal_cases():
            path.write_text(serialize_diagram(seq), encoding="utf-8")
            argv = ["states", str(path), "--level", str(level), "--depth", str(depth)]
            want = _old_decimal_states(seq, level, depth)
            assert _cli([*argv, "--decimal"]) == (0, want, ""), (seq, level, depth)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok: {name}")
