"""Seeded mutation fuzz of every subcommand but `verify`.

Each corpus document gets one mutation inside its diagram text: a token
dropped, duplicated or swapped with the next one, a numeral replaced by
0, -1, a 5,000-digit numeral or a superscript two, or a line removed.
Each of the ten other subcommands then runs on it, in process, the
two-file ones against an unmutated corpus document; a text that no
longer parses goes to one of them, since all read their files alike.
Every call must end within a second in a documented exit code (0, 1,
2, 64 or 65), with no exception escaping cli.run and at most one
diagnostic line.  Option
numerals just past each listing budget, a --depth of 2^20 + 1 levels and
a kept level of more than 2^20 coordinates, run in a child process under
1 GB, so a refusal that stopped working fails the test instead of
exhausting memory.
"""

import random
import re
import time

import pytest

from bratteli import parse_diagram
from bratteli.cli import run
from bratteli.errors import ParseError
from corpus import valid_documents

DOCS = valid_documents()

NUMERALS = ("0", "-1", "7" * 5000, "²")

DIAGNOSTICS = ("error: ", "parse error: ", "usage error: ")


def _mutate(text, rng):
    """text with one token dropped, duplicated or swapped, one numeral
    replaced, or one line removed, and what was done."""
    lines = text.splitlines()
    kind = rng.choice(("drop", "duplicate", "swap", "numeral", "line"))
    if kind == "numeral":
        found = list(re.finditer(r"\d+", text))
        if found:
            m, value = rng.choice(found), rng.choice(NUMERALS)
            return text[: m.start()] + value + text[m.end() :], f"numeral {m[0]}"
        kind = "line"
    i = rng.randrange(len(lines))
    if kind == "line":
        del lines[i]
    else:
        tokens = lines[i].split()
        if not tokens:
            return text, "nothing"
        k = rng.randrange(len(tokens))
        if kind == "drop":
            del tokens[k]
        elif kind == "duplicate":
            tokens.insert(k, tokens[k])
        else:
            j = (k + 1) % len(tokens)
            tokens[k], tokens[j] = tokens[j], tokens[k]
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n", f"{kind} on line {i + 1}"


def _commands(path, other, rank):
    # the ten subcommands but verify, on small options
    unit = ",".join(["2"] * rank)
    return (
        ["validate", path],
        ["telescope", path, "--keep", "1,3"],
        ["injectivize", path],
        ["tensor", path, other],
        ["tensorq", path, "--n", "2^inf*3", "--depth", "4"],
        ["unit-change", path, "--unit", unit, "--depth", "4"],
        ["states", path, "--level", "1", "--depth", "4"],
        ["canon", path],
        ["equiv", other, path],
        ["arch-check", path, "--samples", "5", "--seed", "0"],
    )


def _one_diagnostic(err):
    return err == "" or (err.count("\n") == 1 and err.startswith(DIAGNOSTICS))


def test_mutated_diagrams_end_in_documented_codes(tmp_path, capsys):
    start = time.perf_counter()
    rng = random.Random(21)
    target = tmp_path / "mutated.brat"
    partners = []
    for i, (_, text) in enumerate(DOCS):
        partners.append(tmp_path / f"doc{i}.brat")
        partners[-1].write_text(text, encoding="utf-8")
    seen = set()
    for _ in range(200):
        name, text = rng.choice(DOCS)
        mutated, how = _mutate(text, rng)
        target.write_text(mutated, encoding="utf-8")
        rank = len(parse_diagram(text).base_unit)
        other = str(rng.choice(partners))
        commands = _commands(str(target), other, rank)
        try:
            parse_diagram(mutated)
        except ParseError:
            # every command reads its file the same way first
            commands = [rng.choice(commands)]
        for argv in commands:
            what = f"{name}, {how}: {argv[0]}"
            called = time.perf_counter()
            try:
                code = run(argv)
            except Exception as e:  # noqa: BLE001 - the test is that none escapes
                pytest.fail(f"{what}: {type(e).__name__}: {e}")
            assert time.perf_counter() - called < 1, what
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 64, 65), what
            assert _one_diagnostic(err), what
            seen.add(code)
    assert {0, 1, 65} <= seen
    assert time.perf_counter() - start < 10


def _first_past_the_budget(seq):
    # the first level of more than 2^20 coordinates, on a self-similar tail
    t = seq.length
    while seq.rank_at(t) <= 2**20:
        t += 1
    return t


@pytest.mark.parametrize(
    "name", ["doubling", "binary-tree", "ternary-tree", "untailed-chain"]
)
def test_numerals_just_past_the_budget(name, tmp_path, in_child):
    text = dict(DOCS)[name]
    seq = parse_diagram(text)
    path = tmp_path / "d.brat"
    path.write_text(text, encoding="utf-8")
    path = str(path)
    unit = ",".join(["2"] * seq.ranks[0])
    deep = "--depth", str(2**20 + 1)
    calls = [
        (["tensorq", path, "--n", "2", *deep], {1}),
        (["unit-change", path, "--unit", unit, *deep], {1}),
        (["states", path, "--level", "1", *deep], {0, 1}),
        (["equiv", path, path, *deep], {0, 2}),
    ]
    if seq.tail_kind == "substitution":
        t = _first_past_the_budget(seq)
        calls.append((["telescope", path, "--keep", f"1,{t}"], {1}))
    for argv, codes in calls:
        code, out, err, secs = in_child(argv)
        assert secs < 1, argv
        assert code in codes, (argv, err)
        assert _one_diagnostic(err), argv
        if argv[0] == "telescope":
            rank = seq.rank_at(t)
            assert err == (
                f"error: kept level {t} has {rank} coordinates, "
                "more than 1048576 to list\n"
            )
        elif argv[0] != "equiv" and seq.is_tailed and code == 1:
            assert err.startswith(
                ("error: depth 1048577 is more than 1048576 levels", "error: level ")
            ), argv
