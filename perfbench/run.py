"""Benchmark of the bratteli CLI, run in-process through bratteli.cli.run.

    python3 perfbench/run.py --workload chain-tree --seed 1 --seconds 50 --trace 0

Run from the repository root.  Set-up writes the workload's documents
under .perfbench/ and imports the package; then the workload's fixed
batch of commands runs again and again, one call at a time in one
process, until --seconds is spent.  Times are medians over the run:
each command's latency over its batches, set-up over one repeat after
each batch.  Every command's exit code and output are checked against
closed forms computed by the benchmark itself; a wrong exit code, a
failed check or an exception escaping cli.run counts as a failed
command.

The end-to-end times are reported at a reference speed.  The speed of
a shared machine drifts by 20% and more for minutes at a time, and all
timings drift with it.  So between commands, every REF_EVERY_S, the
benchmark times reference(), a fixed pure-Python computation that does
not use the package, and scales every end-to-end time by REF_NOMINAL_S
over the run's typical sample (ReferenceSamples.typical): a run on a
machine running at half speed reports the times the same work would
take where reference() takes REF_NOMINAL_S.
The unscaled times and the factor are printed before the result line
and kept in the result file.  Per-layer times and the size->time
curves are not scaled.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced
and one traced batch and prints per-layer metrics from spans recorded
around the package's public functions; the spans are written to
.perfbench/spans-<workload>.bin.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; "correct" is
false when a command fails other than the hostile inputs that are known
to fail today (workloads.corpus_mix).  Lines before it name each metric
with its unit and sample count, failed_frac, every failure, and the
size->time curves; .perfbench/result-*.json keeps the same report.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import workloads
from tracer import Tracer, growth

ROOT = Path.cwd()
OUT = ROOT / ".perfbench"
PROBE_EVERY_S = 2.0  # cli_startup_ms samples one subprocess call this often
REF_EVERY_S = 0.02  # a reference() sample follows a command this often
REF_GROUP = 50  # consecutive samples averaged into one speed reading, ~1 s of run
# typical seconds of reference() on the machine the benchmark was
# written on: 2 vCPUs of a shared x86-64 host, CPython 3.11
REF_NOMINAL_S = 1.16e-3
# end-to-end metrics that are times, so are scaled to the reference speed
TIMES = ("setup_s", "wall_s", "cmd_ms.p50", "cmd_ms.p90", "cli_startup_ms") + tuple(
    f"{family}_s" for family in workloads.FAMILIES
)

# per-layer metric -> (span name, field): self_s, calls or size (the
# summed per-span size: bytes, steps, entries, ...)
LAYER_SPANS = {
    "fileformat.parse.self_s": ("fileformat.parse", "self_s"),
    "fileformat.parse.calls": ("fileformat.parse", "calls"),
    "fileformat.parse.bytes": ("fileformat.parse", "size"),
    "fileformat.serialize.self_s": ("fileformat.serialize", "self_s"),
    "certio.dumps.self_s": ("certio.dumps", "self_s"),
    "certio.dumps.bytes": ("certio.dumps", "size"),
    "certio.from_doc.self_s": ("certio.from_doc", "self_s"),
    "diagram.map_between.self_s": ("diagram.map_between", "self_s"),
    "diagram.map_between.calls": ("diagram.map_between", "calls"),
    "diagram.map_between.steps": ("diagram.map_between", "size"),
    "diagram.unit_at.calls": ("diagram.unit_at", "calls"),
    "diagram.keep_at.self_s": ("diagram.keep_at", "self_s"),
    "diagram.injectivize.self_s": ("diagram.injectivize", "self_s"),
    "diagram.telescope.self_s": ("diagram.telescope", "self_s"),
    "simplicial.compose.self_s": ("simplicial.compose", "self_s"),
    "simplicial.compose.calls": ("simplicial.compose", "calls"),
    "simplicial.compose.entries": ("simplicial.compose", "size"),
    "equiv.canonicalize_q.self_s": ("equiv.canonicalize_q", "self_s"),
    "equiv.limit_cardinality.self_s": ("equiv.limit_cardinality", "self_s"),
    "equiv.find_intertwining.self_s": ("equiv.find_intertwining", "self_s"),
    "equiv.find_intertwining.calls": ("equiv.find_intertwining", "calls"),
    "equiv.proj.calls": ("equiv.proj", "calls"),
    "equiv.proj.entries": ("equiv.proj", "size"),
    "equiv.verify.self_s": ("equiv.verify", "self_s"),
    "intertwine.unit_change.self_s": ("intertwine.unit_change", "self_s"),
    "intertwine.rungs": ("intertwine.unit_change", "size"),
    "intertwine.verify.self_s": ("intertwine.verify", "self_s"),
    "states.depth_image_vertices.self_s": ("states.depth_image_vertices", "self_s"),
    "states.depth_image_vertices.calls": ("states.depth_image_vertices", "calls"),
    "states.dual_map.self_s": ("states.dual_map", "self_s"),
    "states.dual_entries": ("states.dual_map", "size"),
    "tensor.tensor_seq.self_s": ("tensor.tensor_seq", "self_s"),
    "tensor.tensor_qn.self_s": ("tensor.tensor_qn", "self_s"),
    "supernat.from_natural.self_s": ("supernat.from_natural", "self_s"),
    "supernat.from_natural.calls": ("supernat.from_natural", "calls"),
    "cli.run.self_s": ("cli.run", "self_s"),
}
GROWTH_SPANS = {
    "equiv.canonicalize_q.growth": "equiv.canonicalize_q",
    "intertwine.verify.growth": "intertwine.verify",
    "states.depth_image_vertices.growth": "states.depth_image_vertices",
}


class Outcome(NamedTuple):
    seconds: float
    code: int | None  # None when an exception escaped cli.run
    out: str
    err: str
    exc: str | None


class Batch:
    """One pass over the workload's steps."""

    def __init__(self, steps, outcomes, wall):
        self.steps = steps
        self.outcomes = outcomes
        self.wall = wall
        self.cert_bytes = sum(
            len(o.out.encode()) for s, o in zip(steps, outcomes) if s.cert
        )

    def failures(self):
        """(step, problem) for every failed step; a step fails on an
        escaped exception or a failed output check."""
        out = []
        for step, o in zip(self.steps, self.outcomes):
            if o.exc is not None:
                problem = f"exception escaped cli.run: {o.exc}"
            else:
                try:
                    problem = step.check(o.code, o.out, o.err)
                except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
                    problem = f"unreadable output: {type(e).__name__}: {e}"
            if problem:
                out.append((step, problem))
        return out

    def drop_output(self):
        """Forget stdout and stderr once checked, so memory does not
        grow with the number of batches a run fits."""
        self.outcomes = [o._replace(out="", err="") for o in self.outcomes]


def reference():
    """Fixed work of the kinds the package does (big integers, fractions,
    dicts), written without it: its time measures the machine's speed."""
    x = 3**300
    f = Fraction(0)
    d = {}
    for i in range(1, 230):
        x = x * (i + 7) // (i + 1)
        f += Fraction(i, i + 3)
        d[i % 17] = d.get(i % 17, 0) + x % 1000
    return sorted(d.items()), f


class ReferenceSamples(list):
    """Times of reference(), one per REF_EVERY_S of the run: called
    between commands, it takes as many samples as are due since its
    last call, so a long command weighs as much as the short ones that
    fill the same time.  The collector is off while they run, so the
    size of the package's heap does not enter them."""

    def __init__(self):
        super().__init__()
        self.last = None

    def __call__(self):
        now = time.perf_counter()
        due = 1 if self.last is None else int((now - self.last) / REF_EVERY_S)
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(min(due, 100)):
                t0 = time.perf_counter()
                reference()
                self.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.last = time.perf_counter()

    def typical(self):
        """Median over the run of the mean sample in each REF_GROUP
        consecutive samples.  The machine's speed swings by half within
        a second; a group, like a long command, averages over the swings,
        where the median of single samples jumps between the fast and
        the slow speed as the time spent in each crosses one half."""
        k = min(REF_GROUP, len(self))
        return statistics.median(
            statistics.fmean(self[i : i + k]) for i in range(0, len(self) - k + 1, k)
        )


def run_batch(cli, steps, hooks=()):
    """Run the steps; each (interval, fn) of `hooks` is called between
    steps once every `interval` seconds, and its time is left out of
    the batch's."""
    outcomes = []
    start = time.perf_counter()
    last = [start - interval for interval, _ in hooks]
    paused = 0.0
    for step in steps:
        for k, (interval, fn) in enumerate(hooks):
            t = time.perf_counter()
            if t - last[k] >= interval:
                fn()
                last[k] = time.perf_counter()
                paused += last[k] - t
        out, err = io.StringIO(), io.StringIO()
        exc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(step.argv)
        except Exception as e:  # an escaped exception is a failed command
            code, exc = None, f"{type(e).__name__}: {str(e)[:200]}"
        secs = time.perf_counter() - t0
        text = out.getvalue()
        if step.save:
            Path(step.save).write_text(text, encoding="utf-8")
        outcomes.append(Outcome(secs, code, text, err.getvalue(), exc))
    return Batch(steps, outcomes, time.perf_counter() - start - paused)


def _ours(name):
    return name == "bratteli" or name.startswith("bratteli.") or name in ("genseq", "corpus")


def fresh_import():
    """Import the package and the test generators from scratch."""
    for name in list(sys.modules):
        if _ours(name):
            del sys.modules[name]
    lib = importlib.import_module("bratteli")
    importlib.import_module("bratteli.cli")
    return lib, importlib.import_module("genseq"), importlib.import_module("corpus")


def setup(workload, seed, workdir):
    """Import, write the documents, warm the CLI once; returns (seconds,
    batch steps, package, path of a one-level document)."""
    t0 = time.perf_counter()
    lib, genseq, corpus = fresh_import()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    b = workloads.Builder(workdir, seed)
    workloads.WORKLOADS[workload](b, random.Random(seed), lib, genseq, corpus)
    tiny = b.write("tiny.brat", "bratteli v1\nsizes: 1\nunit: 1\n")
    with contextlib.redirect_stdout(io.StringIO()):
        lib.cli.run(["validate", tiny])
    return time.perf_counter() - t0, b.steps, lib, tiny


def settle():
    """Collect, then move every object alive into the collector's
    permanent generation.  The benchmark's own objects (documents,
    closed forms, outcomes) would otherwise be traversed by the
    collections that run inside the measured commands, which a CLI
    process never holds.  How many of them a collection meets depends
    on where in its cycle it falls, which moves the latency of the
    allocation-heavy commands (states, equiv) from run to run."""
    gc.collect()
    gc.freeze()


def setup_again(workload, seed, workdir):
    """Seconds of one more set-up, into `workdir`; the modules the run
    imported stay the ones in sys.modules."""
    imported = {name: mod for name, mod in sys.modules.items() if _ours(name)}
    try:
        return setup(workload, seed, workdir)[0]
    finally:
        for name in [n for n in sys.modules if _ours(n)]:
            del sys.modules[name]
        sys.modules.update(imported)


def cli_startup_probe(tiny, times):
    """Time one `python -m bratteli.cli validate` subprocess into `times`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "bratteli.cli", "validate", tiny],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        check=True,
    )
    times.append((time.perf_counter() - t0) * 1000)


def curves(batches):
    """Median seconds per (curve, size) over the batches."""
    points = {}
    for batch in batches:
        for step, o in zip(batch.steps, batch.outcomes):
            if step.curve:
                points.setdefault(step.curve, {}).setdefault(step.size, []).append(o.seconds)
    return {
        curve: {str(size): statistics.median(v) for size, v in sorted(by_size.items())}
        for curve, by_size in points.items()
    }


def end_to_end(setup_times, batches, startup_ms):
    # A command's latency is its median over the run's batches, and a
    # family's busy time sums its commands' latencies: on a shared
    # machine the speed of the same work drifts by +-20% within seconds,
    # and a median over the whole run is what moves least between runs.
    steps = batches[0].steps
    latency = [
        statistics.median(b.outcomes[i].seconds for b in batches) for i in range(len(steps))
    ]
    n = len(batches)
    m = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "wall_s": (statistics.median(b.wall for b in batches), n),
    }
    for family in workloads.FAMILIES:
        busy = sum(t for s, t in zip(steps, latency) if s.family == family)
        m[f"{family}_s"] = (busy, n)
    # over every call of the run, interpolated, so two commands of similar
    # latency trading places move a percentile only by their difference
    calls = [o.seconds * 1000 for b in batches for o in b.outcomes]
    pct = statistics.quantiles(calls, n=100, method="inclusive")
    m["cmd_ms.p50"] = (pct[49], len(calls))
    m["cmd_ms.p90"] = (pct[89], len(calls))
    m["cert_bytes"] = (batches[0].cert_bytes, 1)
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    m["cli_startup_ms"] = (statistics.median(startup_ms), len(startup_ms))
    return m


def emitted(batch, command):
    """Documents printed by the successful calls of `command`."""
    for step, o in zip(batch.steps, batch.outcomes):
        if step.argv[0] == command and o.code == 0:
            yield json.loads(o.out)


def per_layer(tracer, traced, untraced_wall):
    summary = tracer.summary(GROWTH_SPANS.values())
    empty = {"calls": 0, "self_s": 0.0, "size": 0, "points": []}
    m = {}
    for metric, (span, field) in LAYER_SPANS.items():
        m[metric] = summary.get(span, empty)[field]
    for metric, span in GROWTH_SPANS.items():
        m[metric] = growth(summary.get(span, empty)["points"])
    searches = summary.get("equiv.find_intertwining", empty)
    m["equiv.found_frac"] = searches["size"] / searches["calls"] if searches["calls"] else 0.0
    tws = [doc["intertwining"] for doc in emitted(traced, "equiv")]
    m["equiv.cert_levels_max"] = max(
        (int(v) for tw in tws for v in tw["left_levels"] + tw["right_levels"]), default=0
    )
    m["equiv.cert_map_entries"] = sum(
        len(f) for tw in tws for f in tw["f_maps"] + tw["g_maps"]
    )
    m["intertwine.scalar_bits_max"] = max(
        (int(r["scalar"]).bit_length() for doc in emitted(traced, "unit-change")
         for r in doc["rungs"]),
        default=0,
    )
    m["trace.overhead_frac"] = (traced.wall - untraced_wall) / untraced_wall
    return {k: (v, 1) for k, v in m.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bratteli" / "cli.py").is_file() or not (
        ROOT / "tests" / "genseq.py"
    ).is_file():
        print("run from the repository root: src/bratteli and tests/ are missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    workdir = OUT / f"work-{args.workload}"
    secs, steps, lib, tiny = setup(args.workload, args.seed, workdir)
    setup_times = [secs]
    spare = OUT / f"setup-{args.workload}"
    settle()

    # startup probes and reference samples are spread over the whole run,
    # between commands, so they sample the run rather than one moment of it
    t_start = time.perf_counter()
    startup = []
    ref = ReferenceSamples()
    hooks = ((PROBE_EVERY_S, lambda: cli_startup_probe(tiny, startup)), (REF_EVERY_S, ref))
    batches = []
    failures = []
    while True:
        batches.append(run_batch(lib.cli, steps, hooks))
        failures += batches[-1].failures()
        batches[-1].drop_output()
        # set-up is repeated between batches, so its samples too are
        # spread over the run
        setup_times.append(setup_again(args.workload, args.seed, spare))
        settle()
        elapsed = time.perf_counter() - t_start
        if args.trace or elapsed * (len(batches) + 1) / len(batches) > args.seconds:
            break

    traced = None
    if args.trace:
        tracer = Tracer()
        tracer.install(lib)
        try:
            traced = run_batch(lib.cli, steps)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"spans-{args.workload}.bin")
        failures += traced.failures()

    attempted = len(steps) * (len(batches) + (traced is not None))
    unexpected = [(s, p) for s, p in failures if not s.known_defect]

    # BENCHMARK.json names every metric and its unit; a metric computed
    # here but not named there, or named there but not computed, is a
    # KeyError rather than a silently different result line
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if traced:
        computed = per_layer(tracer, traced, batches[0].wall)
    else:
        computed = end_to_end(setup_times, batches, startup)
    metrics = {name: computed.pop(name) for name in units}
    if computed:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(computed)}")
    unscaled = {}
    scale = None
    if not traced:
        scale = REF_NOMINAL_S / ref.typical()
        unscaled = {k: metrics[k][0] for k in TIMES}
        metrics.update({k: (v * scale, metrics[k][1]) for k, v in unscaled.items()})

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "batches": len(batches),
        "commands_per_batch": len(steps),
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": sorted({f"{s.argv[0]} {Path(s.argv[1]).name}: {p}" for s, p in failures}),
        "curves_s": curves(batches),
        "reference": {"typical_s": ref.typical(), "samples": len(ref), "scale": scale},
        "unscaled": unscaled,
        "metrics": {k: {"value": v, "unit": units[k], "n": n} for k, (v, n) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    print(f"{args.workload} seed {args.seed}: {len(batches)} batch(es) of {len(steps)} commands")
    if scale is not None:
        print(f"  reference() typical {ref.typical() * 1000:.4g} ms over {len(ref)} "
              f"samples: times scaled by {scale:.4g}")
    for name, (value, n) in metrics.items():
        raw = f"  unscaled {unscaled[name]:.6g}" if name in unscaled else ""
        print(f"  {name:<40} {value:>14.6g} {units[name]:<6} n={n}{raw}")
    print(f"  {'failed_frac':<40} {report['failed_frac']:>14.6g} ratio  "
          f"failed={len(failures)} attempted={attempted}")
    for line in report["failures"]:
        print(f"  failed: {line}")
    print("curves_s " + json.dumps(report["curves_s"], sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not unexpected,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
