"""Metamorphic checks of `equiv` certificates, through the command line.

Seeded random tailed sequences go through cli.run in process.  An
equivalence document carries the two sequences, their path counts and
the matching, and no rescaling, so three relations must hold:

* every Equivalent document passes `verify`;
* changing one embedded sequence so that its path count changes makes
  `verify` exit 1 with `fail:` lines;
* a sequence is Equivalent to its own pruning (`injectivize`).

The classification, T(A) = T(B) iff A x Q ~ B x Q, adds the relations
the diagram commands must keep whenever their output keeps a tail:

* A is Equivalent to `tensorq A` and to `telescope A`;
* if A ~ B then `tensor A C` ~ `tensor B C`;
* the `unit:` line never changes a verdict;
* a unit w whose ladder from A's unit closes gives an A with unit w
  Equivalent to A.

Each test counts the cases whose output keeps a tail, so none passes
on outputs that all drop it.
"""

import json
import random

import pytest

from bratteli import BratteliSequence, NonMixingMap, serialize_diagram
from bratteli.cli import run
from genseq import max_usable_level, random_sequence, random_unit
from test_acceptance import SUPERNATURALS

SEED = 16
COUNT = 60


def _tailed(rng):
    return [random_sequence(rng, tail=("cyclic", "sub")[i % 2]) for i in range(COUNT)]


@pytest.fixture
def cli(tmp_path, capsys):
    """cli(argv, **texts) writes each text to a file, puts its path in
    argv where {name} stands, runs the command, and returns (code, out)."""

    def call(argv, **texts):
        paths = {}
        for name, text in texts.items():
            path = tmp_path / f"{name}.txt"
            path.write_text(text, encoding="utf-8")
            paths[name] = str(path)
        code = run([arg.format(**paths) for arg in argv])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        return code, captured.out

    return call


def _verify(cli, doc):
    return cli(["verify", "{cert}"], cert=json.dumps(doc))


def _widened(seq):
    # one more coordinate on every level, each the lone child of the one
    # before: a cyclic tail stays cyclic, and the limit gains one path
    maps = [
        NonMixingMap(a.source_rank + 1, a.parent + (a.source_rank,), a.mult + (1,))
        for a in seq.maps
    ]
    ranks = [r + 1 for r in seq.ranks]
    return BratteliSequence(ranks, maps, seq.base_unit + (1,), seq.periodic_tail)


def _cut(seq):
    # the levels up to the tail start p, where a substitution tail has one
    # node, then that node repeated: a Cantor limit becomes one path
    p = seq.periodic_tail
    one = NonMixingMap(1, (0,), (1,))
    ranks, maps = seq.ranks[:p] + (1,), seq.maps[: p - 1] + (one,)
    return BratteliSequence(ranks, maps, seq.base_unit, p)


def test_every_equivalent_document_verifies(cli):
    texts = [serialize_diagram(seq) for seq in _tailed(random.Random(SEED))]
    verdicts = []
    # neighbours differ in tail kind, and every other pair shares it
    for a, b in [*zip(texts, texts[1:]), *zip(texts, texts[2:])]:
        code, out = cli(["equiv", "{a}", "{b}"], a=a, b=b)
        doc = json.loads(out)
        verdicts.append(doc["verdict"])
        assert code == {"equivalent": 0, "not-equivalent": 1}[doc["verdict"]]
        assert "left_diagonals" not in doc and "right_diagonals" not in doc
        assert _verify(cli, doc) == (0, "ok: certificate verified\n")
    assert verdicts.count("equivalent") >= COUNT // 2
    assert verdicts.count("not-equivalent") >= COUNT // 2


def test_changed_path_count_fails_verify(cli):
    rng = random.Random(SEED + 1)
    changed = 0
    for seq in _tailed(rng):
        text = serialize_diagram(seq)
        code, out = cli(["equiv", "{a}", "{a}"], a=text)
        assert code == 0
        doc = json.loads(out)
        count = doc["left_cardinality"]
        if seq.tail_kind == "cyclic":
            edited = _widened(seq)
        elif count["kind"] == "infinite":
            edited = _cut(seq)
        else:
            continue  # a one-path substitution tail: cutting keeps one path
        side = rng.choice(("left", "right"))
        code, out = _verify(cli, {**doc, side: serialize_diagram(edited)})
        assert code == 1, (text, side)
        lines = out.splitlines()
        assert lines and all(line.startswith("fail: ") for line in lines)
        assert f"fail: {side} cardinality recomputes to" in out
        changed += 1
    assert changed >= COUNT // 2


def test_sequence_is_equivalent_to_its_pruning(cli):
    for seq in _tailed(random.Random(SEED + 2)):
        text = serialize_diagram(seq)
        code, pruned = cli(["injectivize", "{a}"], a=text)
        assert code == 0
        code, out = cli(["equiv", "{a}", "{b}"], a=text, b=pruned)
        assert code == 0, text
        assert _verify(cli, json.loads(out)) == (0, "ok: certificate verified\n")


def _equivalent_if_tailed(cli, a, b):
    # equiv a b exits 0 with a verified document when b keeps a tail, and
    # 2 (Unknown) when it does not; True when b keeps one
    tailed = "repeat:" in b
    code, out = cli(["equiv", "{a}", "{b}"], a=a, b=b)
    assert code == (0 if tailed else 2), (a, b)
    if tailed:
        assert _verify(cli, json.loads(out)) == (0, "ok: certificate verified\n")
    return tailed


def test_tensorq_is_equivalent_to_its_input(cli):
    rng = random.Random(SEED + 3)
    kept = 0
    for seq in _tailed(rng):
        text = serialize_diagram(seq)
        n = rng.choice(SUPERNATURALS)
        depth = rng.randint(seq.length, max_usable_level(seq, extra_periods=2))
        code, out = cli(["tensorq", "{a}", "--n", n, "--depth", str(depth)], a=text)
        assert code == 0
        kept += _equivalent_if_tailed(cli, text, out)
    assert kept >= COUNT * 2 // 3
    # and a two-path cycle, whose output keeps the tail
    text = "bratteli v1\nsizes: 2 2\nunit: 1 1\nmap 1: 1*1 2*3\nrepeat: 1\n"
    code, out = cli(["tensorq", "{a}", "--n", "2^inf*3", "--depth", "6"], a=text)
    assert code == 0 and _equivalent_if_tailed(cli, text, out)


def test_telescope_is_equivalent_to_its_input(cli):
    rng = random.Random(SEED + 4)
    kept = 0
    for seq in _tailed(rng):
        text = serialize_diagram(seq)
        period = seq.length - seq.periodic_tail
        step = rng.randint(1, 2 * period)
        start = rng.randint(2, seq.length + period)
        run = range(start, max_usable_level(seq, extra_periods=3) + 1, step)
        keep = ",".join(map(str, (1, *run[: rng.randint(1, 4)])))
        code, out = cli(["telescope", "{a}", "--keep", keep], a=text)
        assert code == 0
        kept += _equivalent_if_tailed(cli, text, out)
    assert kept >= COUNT // 2
    # and the binary tree, whose output keeps the tail
    text = "bratteli v1\nsizes: 1 2\nunit: 1\nmap 1: 1*1 1*1\nrepeat: 1\n"
    code, out = cli(["telescope", "{a}", "--keep", "1,3,5"], a=text)
    assert code == 0 and _equivalent_if_tailed(cli, text, out)


def test_tensor_keeps_equivalence(cli):
    # pairs of neighbours found Equivalent, and each sequence with its own
    # pruning, each tensored on the right with a third sequence
    seqs = _tailed(random.Random(SEED + 5))
    texts = [serialize_diagram(seq) for seq in seqs]
    pairs = [(a, cli(["injectivize", "{a}"], a=a)[1]) for a in texts]
    for a, b in zip(texts, texts[1:]):
        if cli(["equiv", "{a}", "{b}"], a=a, b=b)[0] == 0:
            pairs.append((a, b))
    both = 0
    for (a, b), c in zip(pairs, texts[7:] + texts):
        ac = cli(["tensor", "{a}", "{c}"], a=a, c=c)[1]
        bc = cli(["tensor", "{b}", "{c}"], b=b, c=c)[1]
        if "repeat:" in ac and "repeat:" in bc:
            code, out = cli(["equiv", "{a}", "{b}"], a=ac, b=bc)
            assert code == 0, (a, b, c)
            assert _verify(cli, json.loads(out)) == (0, "ok: certificate verified\n")
            both += 1
    assert both >= COUNT // 2


def test_unit_never_changes_the_verdict(cli):
    rng = random.Random(SEED + 6)
    texts = [serialize_diagram(seq) for seq in _tailed(rng)]
    codes = []
    for a, b in [*zip(texts, texts[1:]), *zip(texts, texts[2:])]:
        lines = a.splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("unit:"))
        rank = len(lines[at].split()) - 1
        unit = " ".join(str(rng.randint(1, 9)) for _ in range(rank))
        edited = "".join(lines[:at] + [f"unit: {unit}\n"] + lines[at + 1 :])
        code = cli(["equiv", "{a}", "{b}"], a=a, b=b)[0]
        assert cli(["equiv", "{a}", "{b}"], a=edited, b=b)[0] == code, (a, b, unit)
        codes.append(code)
    assert min(codes.count(0), codes.count(1)) >= COUNT // 2


def test_closed_ladder_unit_is_equivalent(cli):
    # a ladder whose rung data cycles knows exact_n and exact_m, the full
    # supernatural scalings between the units; A written again with the
    # other unit is then Equivalent to A, and both documents verify
    rng = random.Random(SEED + 7)
    closed = 0
    for _ in range(COUNT):
        seq = random_sequence(rng, tail="cyclic")
        w = random_unit(rng, seq.ranks[0])
        depth = str(max_usable_level(seq, extra_periods=4))
        text = serialize_diagram(seq)
        argv = ["unit-change", "{a}", "--unit", ",".join(map(str, w)), "--depth", depth]
        code, out = cli(argv, a=text)
        assert code == 0
        ladder = json.loads(out)
        if ladder["exact_n"] is None or ladder["exact_m"] is None:
            continue
        rebased = BratteliSequence(seq.ranks, seq.maps, w, seq.periodic_tail)
        code, out = cli(["equiv", "{a}", "{b}"], a=text, b=serialize_diagram(rebased))
        assert code == 0, (text, w)
        for doc in (ladder, json.loads(out)):
            assert _verify(cli, doc) == (0, "ok: certificate verified\n")
        closed += 1
    assert closed >= COUNT * 2 // 3
