"""The workloads: documents written at set-up and a fixed batch of CLI
commands, each with the check its output must pass.

Every workload runs every subcommand, so every command family has work
on every workload; the workloads differ in where the weight sits.

* chain-tree: few large inputs.  Its chain part, long rank-8 cyclic
  chains, is dominated by composites rebuilt from level 1 (map_between,
  unit_at); its tree part, infinite trees, by the equivalence search,
  its verifier, big certificate documents and dense state duals.
* corpus-mix: many tiny documents, where per-call costs (argparse, file
  I/O, parsing, validation, JSON) dominate.

The chain and tree parts share one workload, not one each, because
the speed of a shared machine drifts by 20% and more within seconds:
two workloads leave each run long enough to repeat its batch several
times.  For the same reason no command of chain-tree takes much over a
second, so a run of 50 s holds about seven samples of each.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from math import lcm
from pathlib import Path
from typing import Callable

import oracle
from oracle import Presentation

# the supernatural number every tensorq command uses, as --n and as
# (prime, exponent) pairs with None for an infinite exponent
QN = "2^inf*3"
QN_FACTORS = [(2, None), (3, 1)]

CHAIN_SIZES = (100, 200, 400)
FAMILIES = ("equiv", "verify", "states", "canon", "unit_change", "surgery")


@dataclass
class Step:
    family: str
    argv: list
    check: Callable  # (exit code, stdout, stderr) -> problem text or None
    save: str | None = None  # file that receives stdout
    cert: bool = False  # stdout is a certificate document
    curve: str | None = None  # size->time curve this command is a point of
    size: int = 0
    known_defect: str | None = None  # why this input fails today


def _problem(cond, text):
    return None if cond else text


def expect_lines(code, lines):
    """Exit code `code` and stdout equal to `lines`, computed lazily."""
    want = functools.cache(lines)

    def check(rc, out, err):
        if rc != code:
            return f"exit {rc}, expected {code}: {err.strip()[:200]}"
        return _problem(out.splitlines() == want(), "stdout differs from the closed form")

    return check


def expect_diagram(lines, extra=None):
    """A diagram on stdout whose lines, repeat line aside, equal `lines`
    (computed lazily from the stdout).  `extra` checks the '#' lines."""

    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}, expected 0: {err.strip()[:200]}"
        if oracle.diagram_lines(out) != lines(out):
            return "diagram differs from the closed form"
        if extra is not None:
            return extra(out)
        return None

    return check


def expect_text(code, text):
    def check(rc, out, err):
        if rc != code:
            return f"exit {rc}, expected {code}: {err.strip()[:200]}"
        return _problem(out == text, f"stdout {out[:80]!r}, expected {text!r}")

    return check


def expect_codes(codes):
    def check(rc, out, err):
        return _problem(rc in codes, f"exit {rc}, expected one of {sorted(codes)}")

    return check


def expect_canon(pres):
    want = functools.cache(lambda: oracle.canon_diagonals(pres))

    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}, expected 0: {err.strip()[:200]}"
        doc = json.loads(out)
        return _problem(
            doc["kind"] == "canonical-form"
            and doc["sizes"] == [str(r) for r in pres.ranks]
            and doc["diagonals"] == want(),
            "canonical diagonals are not 1/u_t",
        )

    return check


def expect_unit_change(depth):
    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}, expected 0: {err.strip()[:200]}"
        doc = json.loads(out)
        return _problem(
            doc["kind"] == "unit-change" and len(doc["rungs"]) == depth,
            f"certificate does not hold {depth} rungs",
        )

    return check


VERDICT_EXIT = {"equivalent": 0, "not-equivalent": 1, "unknown": 2}


def expect_verdict(verdict):
    """`verdict` is what the pair was built to be; None when the pair
    was not built to a verdict, then only exit code and consistency
    with the inputs' tails are checked."""

    def check(rc, out, err):
        doc = json.loads(out)
        got = doc.get("verdict")
        if VERDICT_EXIT.get(got) != rc:
            return f"verdict {got!r} with exit {rc}"
        if verdict is not None and got != verdict:
            return f"verdict {got!r}, pair was built to be {verdict!r}"
        return None

    return check


def expect_verified(cert_path):
    """verify must accept every document that records a claim, and say
    that an Unknown verdict leaves nothing to verify."""

    def check(rc, out, err):
        if json.loads(Path(cert_path).read_text()).get("verdict") == "unknown":
            return expect_text(2, "verdict is unknown; nothing to verify\n")(rc, out, err)
        return expect_text(0, "ok: certificate verified\n")(rc, out, err)

    return check


def document(pres):
    lines = oracle.serialized(pres.ranks, pres.maps, pres.unit)
    if pres.tail is not None:
        lines.append(f"repeat: {pres.tail}")
    return "\n".join(lines) + "\n"


def with_random_weights(rng, seq, lib):
    """The same shape with multiplicities 1-4 and a unit with entries 1-3."""
    maps = [
        lib.NonMixingMap(a.source_rank, a.parent, [rng.randint(1, 4) for _ in a.mult])
        for a in seq.maps
    ]
    unit = [rng.randint(1, 3) for _ in seq.base_unit]
    return lib.BratteliSequence(seq.ranks, maps, unit, seq.periodic_tail)


def cyclic_chain(rng, genseq, lib, levels, rank=8):
    """A rank-`rank` chain of `levels` levels, random onto maps with
    multiplicities 1-4, repeating from level 1."""
    maps = [
        genseq.random_map(rng, rank, rank, max_mult=4, onto=True)
        for _ in range(levels - 1)
    ]
    unit = genseq.random_unit(rng, rank, hi=3)
    return lib.BratteliSequence((rank,) * levels, maps, unit, periodic_tail=1)


def tensor_length(a, b):
    """Levels tensor writes: one combined period when both factors have
    tails, else the shortest untailed presentation."""
    if a.tail is not None and b.tail is not None:
        return max(a.tail, b.tail) + lcm(a.length - a.tail, b.length - b.tail)
    return min(p.length for p in (a, b) if p.tail is None)


def odd_levels(length):
    return [1] + list(range(3, length + 1, 2))


def injectivize_check(pres):
    """Untailed: the coordinates with a descendant at the last level
    survive.  Tailed with onto maps: every coordinate has descendants
    at every depth, so nothing is pruned.  Otherwise only the shape of
    the output is checked."""
    onto = all(len(set(p)) == r for (p, _), r in zip(pres.maps, pres.ranks))
    if pres.tail is None:
        keeps = [pres.keep_untailed(t) for t in range(1, pres.length + 1)]
    elif onto:
        keeps = [list(range(r)) for r in pres.ranks]
    else:
        keeps = None

    def lines(out):
        if keeps is None:
            return oracle.diagram_lines(out)
        maps = []
        for t in range(1, pres.length):
            parent, mult = pres.maps[t - 1]
            src = {c: i for i, c in enumerate(keeps[t - 1])}
            maps.append(
                (tuple(src[parent[j]] for j in keeps[t]), tuple(mult[j] for j in keeps[t]))
            )
        unit = [pres.unit[c] for c in keeps[0]]
        return oracle.serialized([len(k) for k in keeps], maps, unit)

    def kept(out):
        got = [ln for ln in out.splitlines() if ln.startswith("# kept")]
        if len(got) != pres.length:
            return f"{len(got)} kept lines for {pres.length} levels"
        if keeps is None:
            return None
        want = [
            f"# kept at level {t}: " + " ".join(str(c + 1) for c in k)
            for t, k in enumerate(keeps, start=1)
        ]
        return _problem(got == want, "kept coordinates differ")

    return expect_diagram(lines, kept)


class Builder:
    """Collects documents and steps for one workload."""

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.seed = seed
        self.steps = []
        self._n = 0

    def write(self, name, text):
        path = self.dir / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        return str(path)

    def doc(self, name, pres):
        return self.write(f"{name}.brat", document(pres))

    def out_path(self, name):
        self._n += 1
        return str(self.dir / f"out{self._n:04d}-{name}.json")

    def add(self, family, argv, check, **kw):
        self.steps.append(Step(family, argv, check, **kw))

    # -- per-document command groups ----------------------------------

    def validate(self, path, pres):
        self.add("surgery", ["validate", path], expect_lines(0, lambda: oracle.validate_lines(pres)))

    def canon(self, path, pres, curve=None):
        self.add(
            "canon",
            ["canon", path],
            expect_canon(pres),
            cert=True,
            curve=curve,
            size=pres.length,
        )

    def telescope(self, path, pres):
        keep = odd_levels(pres.length)
        self.add(
            "surgery",
            ["telescope", path, "--keep", ",".join(map(str, keep))],
            expect_diagram(lambda out: oracle.telescope_lines(pres, keep)),
        )

    def injectivize(self, path, pres):
        self.add("surgery", ["injectivize", path], injectivize_check(pres))

    def tensorq(self, path, pres, depth):
        self.add(
            "surgery",
            ["tensorq", path, "--n", QN, "--depth", str(depth)],
            expect_diagram(lambda out: oracle.tensorq_lines(pres, QN_FACTORS, depth)),
        )

    def tensor(self, path_a, a, path_b, b):
        length = tensor_length(a, b)
        self.add(
            "surgery",
            ["tensor", path_a, path_b],
            expect_diagram(lambda out: oracle.tensor_lines(a, b, length)),
        )

    def arch_check(self, path, samples, curve=None, size=0):
        self.add(
            "surgery",
            ["arch-check", path, "--samples", str(samples), "--seed", str(self.seed)],
            expect_text(0, f"ok: {samples} samples, property held\n"),
            curve=curve,
            size=size,
        )

    def unit_change(self, path, unit, depth, strategy="minimal", curve=None):
        cert = self.out_path("unit-change")
        self.add(
            "unit_change",
            ["unit-change", path, "--unit", ",".join(map(str, unit)),
             "--depth", str(depth), "--strategy", strategy],
            expect_unit_change(depth),
            save=cert,
            cert=True,
        )
        self.verify(cert, curve=curve, size=depth)

    def verify(self, cert, curve=None, size=0):
        self.add(
            "verify",
            ["verify", cert],
            expect_verified(cert),
            curve=curve,
            size=size,
        )

    def states(self, path, pres, level, depth):
        def lines():
            return oracle.state_lines(pres, level, depth)

        if pres.has_level(depth):
            check = expect_lines(0, lines)
            size = pres.rank_at(level) * pres.rank_at(depth)
        else:
            check = expect_codes({1})
            size = 0
        self.add(
            "states",
            ["states", path, "--level", str(level), "--depth", str(depth)],
            check,
            curve="states" if size else None,
            size=size,
        )

    def equiv(self, path_a, path_b, depth, verdict):
        cert = self.out_path("equiv")
        self.add(
            "equiv",
            ["equiv", path_a, path_b, "--depth", str(depth)],
            expect_verdict(verdict),
            save=cert,
            cert=True,
        )
        self.verify(cert)

    def every_command(self, path, pres, rng, partner_path, partner):
        """Every subcommand on one document, at its presented depth."""
        L = pres.length
        self.validate(path, pres)
        self.canon(path, pres)
        self.injectivize(path, pres)
        self.telescope(path, pres)
        self.tensorq(path, pres, L)
        self.tensor(path, pres, partner_path, partner)
        self.arch_check(path, 20)
        self.unit_change(path, [rng.randint(1, 5) for _ in range(pres.ranks[0])], L)


def chain_tree(b: Builder, rng, lib, genseq, corpus):
    # the largest commands (canon and unit-change verify at L = 400, states
    # 6 -> 7 on the binary tree) take 0.6-1.5 s; at L = 800 canon and verify
    # take 3-6 s and one batch would fill half a run
    chain_part(b, rng, lib, genseq)
    tree_part(b, rng, lib, genseq)


def chain_part(b: Builder, rng, lib, genseq):
    ref = Presentation.of(cyclic_chain(rng, genseq, lib, 2))
    ref_path = b.doc("ref8", ref)
    pair = Presentation.of(genseq.two_path(2, 3, levels=2))
    pair_path = b.doc("two-path", pair)
    chains = []
    for L in CHAIN_SIZES:
        pres = Presentation.of(cyclic_chain(rng, genseq, lib, L))
        chains.append((L, b.doc(f"chain{L}", pres), pres))
    for L, path, pres in chains:
        b.validate(path, pres)
        b.canon(path, pres, curve="canon")
        b.injectivize(path, pres)
        b.telescope(path, pres)
        b.tensorq(path, pres, L)
        b.tensor(path, pres, pair_path, pair)
        b.arch_check(path, 100, curve="arch_check", size=L)
        b.unit_change(path, genseq.random_unit(rng, 8), L, curve="verify_unit_change")
        b.states(path, pres, 1, L)
    L, path, pres = chains[0]
    b.equiv(path, ref_path, 5, "equivalent")
    b.states(pair_path, pair, 1, 3)


def tree_part(b: Builder, rng, lib, genseq):
    def weighted(seq):
        return Presentation.of(with_random_weights(rng, seq, lib))

    trees = {}
    for branch, levels in ((2, 6), (3, 5), (4, 4), (2, 4), (3, 3)):
        pres = weighted(genseq.full_tree(branch, levels))
        trees[branch, levels] = (b.doc(f"tree{branch}-{levels}", pres), pres)
    m0, m1, m2, m3 = rng.sample(range(2, 10), 4)
    two_a = Presentation.of(genseq.two_path(m0, m1, unit=genseq.random_unit(rng, 2)))
    two_b = Presentation.of(genseq.two_path(m2, m3, unit=genseq.random_unit(rng, 2)))
    doubling = Presentation.of(genseq.scalar_chain(2, unit=rng.randint(1, 5)))
    tripling = Presentation.of(genseq.scalar_chain(3, unit=rng.randint(1, 5)))
    two_a_path, two_b_path = b.doc("two-path-a", two_a), b.doc("two-path-b", two_b)
    dbl_path, tpl_path = b.doc("doubling", doubling), b.doc("tripling", tripling)

    binary, ternary, quaternary = trees[2, 6], trees[3, 5], trees[4, 4]
    pairs = [(binary, ternary, d) for d in (3, 4, 5, 6)]
    pairs += [(binary, quaternary, d) for d in (4, 5, 6)]
    pairs += [(ternary, quaternary, d) for d in (4, 5)]
    pairs += [(trees[2, 4], trees[3, 3], 5)]
    for (pa, _), (pb, _), d in pairs:
        b.equiv(pa, pb, d, "equivalent")
    b.equiv(two_a_path, two_b_path, 5, "equivalent")
    b.equiv(dbl_path, tpl_path, 5, "equivalent")
    b.equiv(dbl_path, two_a_path, 5, "not-equivalent")

    # unweighted trees, so the Fraction sizes in the duals, and with
    # them the cost, do not depend on the seed
    plain2 = Presentation.of(genseq.full_tree(2, 6))
    plain3 = Presentation.of(genseq.full_tree(3, 5))
    plain2_path, plain3_path = b.doc("plain-tree2", plain2), b.doc("plain-tree3", plain3)
    # dense duals up to 32 x 64; 7 -> 8 (64 x 128) takes 5 s, 1 -> 9 1 s
    b.states(plain2_path, plain2, 1, 8)
    b.states(plain2_path, plain2, 6, 7)
    b.states(plain3_path, plain3, 1, 5)
    docs = list(trees.values()) + [
        (two_a_path, two_a),
        (two_b_path, two_b),
        (dbl_path, doubling),
        (tpl_path, tripling),
    ]
    for path, pres in docs:
        b.every_command(path, pres, rng, dbl_path, doubling)


def _tampered_equivalence():
    doc = {
        "kind": "equivalence",
        "verdict": "equivalent",
        "left": "bratteli v1\nsizes: 1 1\nunit: 1\nmap 1: 1*2\nrepeat: 1\n",
        "right": "bratteli v1\nsizes: 1 1\nunit: 1\nmap 1: 1*3\nrepeat: 1\n",
        "left_diagonals": [["1/0"], ["1/2"]],
        "right_diagonals": [["1"], ["1/3"]],
        "left_cardinality": {"kind": "finite", "count": "1"},
        "right_cardinality": {"kind": "finite", "count": "1"},
        "intertwining": {
            "left_levels": ["1"],
            "right_levels": ["1"],
            "f_maps": [["1"]],
            "g_maps": [],
            "closure": "stable-bijection",
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _sizes_line(text):
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].split()
        if body and body[0] == "sizes:":
            return body[1:]
    return None


def corpus_mix(b: Builder, rng, lib, genseq, corpus, n_random=150):
    for name, text in corpus.valid_documents():
        ranks = "ranks: " + " ".join(_sizes_line(text))

        def shape(rc, out, err, ranks=ranks):
            if rc != 0:
                return f"exit {rc}, expected 0"
            return _problem(ranks in out.splitlines(), "ranks differ")

        b.add("surgery", ["validate", b.write(f"valid-{name}.brat", text)], shape)
    for name, text, line, col in corpus.error_documents():
        where = f"line {line}, column {col}"

        def located(rc, out, err, where=where):
            if rc != 65:
                return f"exit {rc}, expected 65"
            return _problem(where in err, f"error not located at {where}")

        b.add("surgery", ["validate", b.write(f"error-{name}.brat", text)], located)

    kinds = ("none", "cyclic", "sub")
    docs = []
    for i in range(n_random):
        pres = Presentation.of(genseq.random_sequence(rng, tail=kinds[i % 3]))
        docs.append((b.doc(f"random{i:03d}", pres), pres))
    for i, (path, pres) in enumerate(docs):
        partner_path, partner = docs[(i + 1) % len(docs)]
        L = pres.length
        reach = 4 if pres.tail is not None else L
        # the paper strategy's scalars grow doubly exponentially with depth
        depth = min(reach, rng.randint(2, 3))
        unit = [rng.randint(1, 5) for _ in range(pres.ranks[0])]
        b.validate(path, pres)
        b.telescope(path, pres)
        b.injectivize(path, pres)
        b.tensorq(path, pres, min(reach, 3))
        b.tensor(path, pres, partner_path, partner)
        b.unit_change(path, unit, depth, "minimal")
        b.unit_change(path, unit, depth, "paper")
        b.states(path, pres, 1, 4)
        b.canon(path, pres)
        untailed = pres.tail is None or partner.tail is None
        b.equiv(path, partner_path, 3, "unknown" if untailed else None)
        b.arch_check(path, 20)

    # Inputs that end in a traceback today (ROADMAP item 4).  They stay in
    # the batch and count as failed commands until the defects are fixed.
    b.add(
        "surgery",
        ["validate", b.write("hostile-superscript.brat", "bratteli v1\nsizes: 1 ²\nunit: 1\n")],
        expect_codes({65}),
        known_defect="non-ASCII digit in sizes raises ValueError",
    )
    b.add(
        "surgery",
        ["validate", b.write("hostile-bytes.brat", b"bratteli v1\nsizes: 1\nunit: \xff\n")],
        expect_codes({65}),
        known_defect="non-UTF-8 file raises UnicodeDecodeError",
    )
    b.add(
        "verify",
        ["verify", b.write("hostile-zero-denominator.json", _tampered_equivalence())],
        expect_codes({1, 65}),
        known_defect='"1/0" diagonal raises ZeroDivisionError',
    )
    # a fixed chain, so this input costs the same on every seed
    fixed = random.Random(0)
    maps = [genseq.random_map(fixed, 8, 8, max_mult=3, onto=True) for _ in range(7)]
    chain = Presentation.of(lib.BratteliSequence((8,) * 8, maps, (1,) * 8, 1))
    b.add(
        "unit_change",
        ["unit-change", b.doc("hostile-chain8", chain), "--unit", "1,2,3,4,5,1,2,3",
         "--depth", "6", "--strategy", "paper"],
        expect_codes({0, 1}),
        known_defect="paper strategy at depth 6: a rung scalar passes the int->str digit limit",
    )


WORKLOADS = {
    "chain-tree": chain_tree,
    "corpus-mix": corpus_mix,
}
