"""Size->time curves of the diagram text layer, timed in process.

    python3 bench/curves.py --out BENCH_<n>.json [--src CHECKOUT]

Times parse_diagram and serialize_diagram of the package under
CHECKOUT/src (default: the checkout this script is in) on seeded rank-8
chains of 100, 200, ..., 12,800 levels: every map a permutation with
multiplicities 1..4, cyclic from level 1, the shape of the benchmark's
chains.  Each point is the best of ROUNDS timings, the rounds taken
in turn over every size and both functions, so a slow spell of a
shared machine lands on all points alike; each row's slope is the
least-squares fit of log(seconds) on log(levels): 1 is linear.  The
run (git SHA of CHECKOUT and whether its tracked files differ from it,
Python version, machine, rows) is appended to the "runs" of --out,
which is created when missing, so one file can hold a parent and its
change side by side.  Standard library only.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import platform
import random
import subprocess
import sys
import timeit
from pathlib import Path

LEVELS = (100, 200, 400, 800, 1600, 3200, 6400, 12800)
RANK = 8
ROUNDS = 15
TARGET_S = 0.05  # seconds of calls in one timing


def chain_text(levels: int, seed: int = 1) -> str:
    """The canonical document of a seeded rank-8 chain, written without
    the package."""
    rng = random.Random(seed * 1_000_003 + levels)
    lines = [
        "bratteli v1",
        "sizes:" + f" {RANK}" * levels,
        "unit: " + " ".join(str(rng.randint(1, 3)) for _ in range(RANK)),
    ]
    for i in range(1, levels):
        parents = list(range(1, RANK + 1))
        rng.shuffle(parents)
        lines.append(f"map {i}: " + " ".join(f"{p}*{rng.randint(1, 4)}" for p in parents))
    lines.append("repeat: 1")
    return "\n".join(lines) + "\n"


def best_seconds(fns) -> list:
    """Best per-call seconds of each fn over ROUNDS rounds, each round
    timing every fn once for about TARGET_S."""
    numbers = [max(1, int(TARGET_S / max(timeit.timeit(fn, number=1), 1e-9))) for fn in fns]
    best = [math.inf] * len(fns)
    for _ in range(ROUNDS):
        for k, (fn, number) in enumerate(zip(fns, numbers)):
            best[k] = min(best[k], timeit.timeit(fn, number=number) / number)
    return best


def slope(xs, ys) -> float:
    """Least-squares slope of log(ys) on log(xs)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def git(checkout: Path, *args) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def measure(checkout: Path) -> dict:
    sys.path.insert(0, str(checkout / "src"))
    from bratteli.fileformat import parse_diagram, serialize_diagram

    fns = []
    for levels in LEVELS:
        text = chain_text(levels)
        seq = parse_diagram(text)
        if serialize_diagram(seq) != text:
            raise SystemExit(f"the {levels}-level chain does not write back to its text")
        fns += [functools.partial(parse_diagram, text), functools.partial(serialize_diagram, seq)]
    secs = best_seconds(fns)
    parse, serialize = secs[0::2], secs[1::2]
    status = git(checkout, "status", "--porcelain", "--untracked-files=no")
    return {
        "sha": git(checkout, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.system()}",
        "rows": [
            {"name": name, "levels": list(LEVELS), "seconds": secs, "slope": slope(LEVELS, secs)}
            for name, secs in (
                ("fileformat.parse_diagram", parse),
                ("fileformat.serialize_diagram", serialize),
            )
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="JSON file to append the run to")
    parser.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parents[1], help="checkout to time"
    )
    args = parser.parse_args(argv)
    run = measure(args.src.resolve())
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    doc["runs"].append(run)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for row in run["rows"]:
        points = ", ".join(f"{n}: {s * 1e3:.3f} ms" for n, s in zip(row["levels"], row["seconds"]))
        print(f"{row['name']}: slope {row['slope']:.2f} ({points})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
