"""Search for the next hang: every subcommand on worst-case shapes, with
option values just inside and just past each budget.

Shapes: the binary and the ternary tree, a rank-65,536 cycle that
triples every coordinate, 3,000-level rank-1 chains of multiplicity 3
with and without a tail, and the rank-8 chain the paper strategy's
ladder is refused on.  Each option value of VALUES goes to telescope's
last kept level, tensorq's and unit-change's --depth (both strategies
on the rank-8 chain), states' --level and --depth together, and
arch-check's --samples; validate, injectivize, canon, tensor and equiv
run once a shape, and every certificate a call writes is verified.  The
tailed chain's ladder to depth 2^20 is left out: it is ROADMAP item
1(b)'s known O(depth) ladder, 9 to 11 s alone, not a hang to search
for, and 2^20 + 1 still tests its refusal.  Its scalars are all 1, so
its time is the O(depth) walk itself, which only stopping a ladder at
its first repeated rung shortens.

Each call runs the command line in a child process under 1.5 GB of
address space, 64 MiB of written file and a 15 s timeout, through
tests/child.py, the runner the tier-1 tests use.  A call fails the
sweep on an exit code outside {0, 1, 2, 64, 65}, a traceback on stderr,
or a timeout.

    python3 tests/sweep_budgets.py

Two children run at a time.  It prints one line per failure and a
summary with the slowest calls, and exits 1 when any call failed.  The
standard library is all it needs; pytest does not collect it.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import child

EXITS = {0, 1, 2, 64, 65}
ADDRESS_SPACE = 3 * 2**29
FILE_SIZE = 64 * 2**20
TIMEOUT = 15
JOBS = 2
VALUES = (1, 21, 22, 23, 1000, 2**20, 2**20 + 1, 2**22, 10**9, 10**31)
# (shape, depth) of the known O(depth) ladders, left out until a ladder
# stops at its first repeated rung (ROADMAP item 1(b))
LINEAR_LADDERS = {("chain", 2**20)}


def _diagram(sizes, unit, maps, repeat=None) -> str:
    lines = ["bratteli v1", "sizes: " + " ".join(map(str, sizes))]
    lines.append("unit: " + " ".join(map(str, unit)))
    for t, row in enumerate(maps, start=1):
        lines.append(f"map {t}: " + " ".join(f"{p + 1}*{m}" for p, m in row))
    if repeat is not None:
        lines.append(f"repeat: {repeat}")
    return "\n".join(lines) + "\n"


def _tree(branch) -> str:
    return _diagram((1, branch), (1,), [[(0, 1)] * branch], 1)


def _chain(levels, tailed) -> str:
    maps = [[(0, 3)]] * (levels - 1)
    return _diagram((1,) * levels, (1,), maps, 1 if tailed else None)


def _paper_chain() -> str:
    # eight levels of onto rank-8 maps of multiplicities 1..3, cyclic from
    # level 1: the paper strategy's rung 6 scalar is too long to write
    rng, maps = random.Random(0), []
    for _ in range(7):
        parent = list(range(8))
        rng.shuffle(parent)
        maps.append([(p, rng.randint(1, 3)) for p in parent])
    return _diagram((8,) * 8, (1,) * 8, maps, 1)


def shapes() -> dict:
    """name -> (diagram text, rank of level 1, strategies to ladder)."""
    n = 2**16
    triple = _diagram((n, n), (1,) * n, [[(i, 3) for i in range(n)]], 1)
    return {
        "tree2": (_tree(2), 1, ("minimal",)),
        "tree3": (_tree(3), 1, ("minimal",)),
        "triple": (triple, n, ("minimal",)),
        "chain": (_chain(3000, True), 1, ("minimal",)),
        "chain-untailed": (_chain(3000, False), 1, ("minimal",)),
        "paper": (_paper_chain(), 8, ("minimal", "paper")),
    }


def calls(name, path, rank, strategies):
    """(argv, writes a certificate) for every call on one shape."""
    unit = ",".join(str(1 + i % 3) for i in range(rank))
    yield ["validate", path], False
    yield ["injectivize", path], False
    yield ["canon", path], False
    yield ["tensor", path, path], False
    yield ["equiv", path, path], True
    for v in VALUES:
        yield ["telescope", path, "--keep", f"1,{v}"], False
        yield ["tensorq", path, "--n", "2^inf*3", "--depth", str(v)], False
        ladders = () if (name, v) in LINEAR_LADDERS else strategies
        for strategy in ladders:
            argv = ["unit-change", path, "--unit", unit, "--depth", str(v)]
            yield argv + ["--strategy", strategy], True
        yield ["states", path, "--level", str(v), "--depth", str(v)], False
        yield ["arch-check", path, "--samples", str(v), "--seed", "0"], False


def run_one(argv, out: Path) -> dict:
    """One child call with its stdout in out: its exit code, the last
    line of its stderr, its seconds, and what fails the sweep, if any."""
    with open(out, "wb") as stdout:
        code, _, err, seconds = child.run(
            argv, ADDRESS_SPACE, file_size=FILE_SIZE, timeout=TIMEOUT, stdout=stdout
        )
    problem = None
    if code is None:
        problem = f"timed out after {TIMEOUT} s"
    elif code not in EXITS:
        problem = f"exit {code}"
    elif "Traceback" in err:
        problem = "traceback"
    last = err.splitlines()[-1] if err.strip() else ""
    return {"argv": argv, "code": code, "stderr": last, "seconds": seconds,
            "problem": problem}


def run_with_verify(argv, certificate, out: Path) -> list:
    # the call, then verify of the certificate it wrote, if it wrote one
    results = [run_one(argv, out)]
    if certificate and results[0]["code"] in (0, 1, 2) and out.stat().st_size:
        results.append(run_one(["verify", str(out)], out.with_suffix(".verify")))
    for path in (out, out.with_suffix(".verify")):
        path.unlink(missing_ok=True)
    return results


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        work = []
        for name, (text, rank, strategies) in shapes().items():
            path = os.path.join(tmp, f"{name}.brat")
            Path(path).write_text(text)
            for argv, certificate in calls(name, path, rank, strategies):
                work.append((argv, certificate, Path(tmp, f"out{len(work)}")))
        with ThreadPoolExecutor(JOBS) as pool:
            done = pool.map(lambda w: run_with_verify(*w), work)
            results = [r for rs in done for r in rs]
        for r in results:
            r["argv"] = [a.replace(tmp, "$TMP") for a in r["argv"]]
    failed = [r for r in results if r["problem"]]
    for r in failed:
        print(f"FAIL {r['problem']}: {' '.join(r['argv'])} {r['stderr']}")
    seconds = time.perf_counter() - start
    print(f"{len(results)} calls, {len(failed)} failed, {seconds:.1f} s")
    for r in sorted(results, key=lambda r: -r["seconds"])[:5]:
        print(f"  {r['seconds']:6.2f} s  exit {r['code']}  {' '.join(r['argv'])}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
