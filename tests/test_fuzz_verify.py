"""Seeded mutation fuzz of `bratteli verify`.

Documents emitted by `equiv` and `unit-change` get one field replaced by
a hostile value, or deleted, or, in an equivalence document, one of the
retired diagonal keys put back, and are then verified.  Every call must
end within a second in a documented exit code, with no exception
escaping cli.run: 0, 1 or 2, and 65 only when the mutated field is an
embedded diagram text that no longer parses.  Every field of the path
counts and the matching, and both retired keys, also meet every hostile
value in turn.
"""

import json
import random
import time

import pytest

from bratteli.cli import run

DYADIC = "bratteli v1\nsizes: 1 1\nunit: 1\nmap 1: 1*2\nrepeat: 1\n"
TWO_PATH = "bratteli v1\nsizes: 2 2\nunit: 1 1\nmap 1: 1*2 2*3\nrepeat: 1\n"
TWO_PATH_B = "bratteli v1\nsizes: 2 2\nunit: 2 1\nmap 1: 2*5 1*7\nrepeat: 1\n"
TREE = (
    "bratteli v1\nsizes: 1 2 4\nunit: 1\n"
    "map 1: 1*1 1*1\nmap 2: 1*1 1*1 2*1 2*1\nrepeat: 1\n"
)
TERNARY_TREE = "bratteli v1\nsizes: 1 3\nunit: 1\nmap 1: 1*1 1*1 1*1\nrepeat: 1\n"
UNTAILED = "bratteli v1\nsizes: 1 1 1\nunit: 1\nmap 1: 1*2\nmap 2: 1*3\n"

# (command, diagram texts, options, exit code)
EMITTERS = (
    ("equiv", (TWO_PATH, TWO_PATH_B), (), 0),
    ("equiv", (TREE, TERNARY_TREE), (), 0),
    ("equiv", (DYADIC, TWO_PATH), (), 1),
    ("equiv", (DYADIC, TREE), (), 1),
    ("equiv", (UNTAILED, DYADIC), (), 2),
    ("unit-change", (DYADIC,), ("--unit", "3", "--depth", "6"), 0),
    ("unit-change", (TWO_PATH,), ("--unit", "2,5", "--depth", "4"), 0),
)

DIAGRAM_FIELDS = ("left", "right", "sequence")

# what an equivalence verdict claims besides its two sequences
CLAIM_FIELDS = ("left_cardinality", "right_cardinality", "intertwining")

# keys an equivalence document no longer carries; verify refuses them
RETIRED = ("left_diagonals", "right_diagonals")


class _Bare:
    """A JSON number too long for int(), written as raw digits."""

    digits = "7" * 5000


HOSTILE = (
    None,
    -1,
    0,
    1.5,
    True,
    [],
    {},
    [None],
    {"kind": None},
    "",
    "x",
    "-1",
    "0",
    "1/0",
    "1/",
    "2^-1",
    "7" * 5000,
    "1/" + "7" * 5000,
    "2^" + "7" * 5000,
    # just inside int()'s 4300-digit limit: rung scalars, levels and
    # diagonal entries that parse, and a claimed exponent nobody raises
    "1" * 4000,
    "7" * 4000,
    "1/" + "7" * 4000,
    "2^" + "7" * 4000,
    _Bare(),
)


def _dumps(doc) -> str:
    marker = "\x00bare\x00"
    text = json.dumps(doc, default=lambda value: marker)
    return text.replace(json.dumps(marker), _Bare.digits)


def _paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


DELETED = "<deleted>"


def _set(doc, path, value):
    """A copy of doc with the field at path set to value, or deleted when
    value is DELETED."""
    doc = json.loads(json.dumps(doc))
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    if value is DELETED:
        del holder[path[-1]]
    else:
        holder[path[-1]] = value
    return doc


def _mutate(doc, rng):
    """A copy of doc with one field replaced, deleted or put back, and
    that field's path."""
    if doc["kind"] == "equivalence" and rng.random() < 0.1:
        path = (rng.choice(RETIRED),)
        value = rng.choice(HOSTILE)
    else:
        path = rng.choice(list(_paths(doc)))
        value = DELETED if rng.random() < 0.25 else rng.choice(HOSTILE)
    return _set(doc, path, value), path, value


def _emitted(tmp_path, capsys):
    docs = []
    for i, (command, texts, options, code) in enumerate(EMITTERS):
        files = []
        for j, text in enumerate(texts):
            path = tmp_path / f"d{i}-{j}.brat"
            path.write_text(text, encoding="utf-8")
            files.append(str(path))
        assert run([command, *files, *options]) == code
        docs.append(json.loads(capsys.readouterr().out))
    return docs


def test_mutated_documents_end_in_documented_codes(tmp_path, capsys):
    start = time.perf_counter()
    docs = _emitted(tmp_path, capsys)
    rng = random.Random(20)
    target = tmp_path / "mutated.json"
    seen = set()
    for _ in range(600):
        doc, path, value = _mutate(rng.choice(docs), rng)
        target.write_text(_dumps(doc), encoding="utf-8")
        what = f"{path} <- {repr(value)[:40]}"
        called = time.perf_counter()
        try:
            code = run(["verify", str(target)])
        except Exception as e:  # noqa: BLE001 - the test is that none escapes
            pytest.fail(f"{what}: {type(e).__name__}: {e}")
        assert time.perf_counter() - called < 1, what
        capsys.readouterr()
        allowed = {0, 1, 2}
        if path[0] in DIAGRAM_FIELDS and isinstance(value, str):
            allowed.add(65)
        if path[0] in RETIRED and doc["verdict"] != "unknown":
            allowed = {1}
        assert code in allowed, what
        seen.add(code)
    assert {0, 1, 2} <= seen
    assert time.perf_counter() - start < 10


def test_every_numeral_near_the_digit_limit(tmp_path, capsys):
    # each decimal field of each emitted document, in turn, becomes a
    # 4000-digit numeral; a product of rung scalars is never factored
    docs = _emitted(tmp_path, capsys)
    target = tmp_path / "long.json"
    calls = 0
    for doc in docs:
        for path in _paths(doc):
            holder = doc
            for key in path[:-1]:
                holder = holder[key]
            old = holder[path[-1]]
            if not (isinstance(old, str) and old.isascii() and old.isdigit()):
                continue
            holder[path[-1]] = "1" * 4000
            target.write_text(json.dumps(doc), encoding="utf-8")
            holder[path[-1]] = old
            called = time.perf_counter()
            code = run(["verify", str(target)])
            assert time.perf_counter() - called < 1, path
            assert code in (0, 1, 2), path
            assert "Traceback" not in capsys.readouterr().err
            calls += 1
    assert calls > 50


def _claims(tmp_path, capsys):
    # the documents emitted by `equiv` that claim a verdict
    return [
        doc
        for doc in _emitted(tmp_path, capsys)
        if doc["kind"] == "equivalence" and doc["verdict"] != "unknown"
    ]


def _verified(target, doc, capsys):
    target.write_text(_dumps(doc), encoding="utf-8")
    called = time.perf_counter()
    code = run(["verify", str(target)])
    assert time.perf_counter() - called < 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, out, err


def test_every_claim_field_meets_every_hostile_value(tmp_path, capsys):
    # each field of the path counts and of the matching, replaced by each
    # hostile value or deleted; a refusal names itself on one line
    target = tmp_path / "claim.json"
    calls = 0
    for doc in _claims(tmp_path, capsys):
        for path in _paths(doc):
            if path[0] not in CLAIM_FIELDS:
                continue
            for value in (*HOSTILE, DELETED):
                what = f"{doc['verdict']} {path} <- {repr(value)[:40]}"
                code, out, err = _verified(target, _set(doc, path, value), capsys)
                assert code in (0, 1), what
                if code == 1:
                    assert err.startswith("error: ") or out.startswith("fail: "), what
                calls += 1
    assert calls > 1000


def test_retired_keys_are_refused_whatever_their_value(tmp_path, capsys):
    target = tmp_path / "retired.json"
    old_rows = [["1"], ["1/2"]]
    for doc in _claims(tmp_path, capsys):
        for key in RETIRED:
            want = (
                f"error: {key} must not appear: "
                "equivalence documents carry no diagonals\n"
            )
            for value in (*HOSTILE, old_rows):
                code, out, err = _verified(target, {**doc, key: value}, capsys)
                what = (doc["verdict"], key, value)
                assert (code, out) == (1, ""), what
                # a bare number too long for int() stops the JSON reader
                assert err == want or isinstance(value, _Bare), what
