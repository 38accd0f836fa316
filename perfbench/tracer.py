"""Spans around the package's public functions, installed from outside.

Tracer.install wraps every public function of every package module and
a fixed list of methods, patching each module that bound the function
by name (cli binds parse_diagram, equiv binds injectivize, ...), since
patching only the defining module would miss those calls.  A span
records name, start, end and parent span in flat arrays that stay in
memory; uninstall restores every original object.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import time
from array import array
from pathlib import Path

LAYERS = (
    "supernat",
    "simplicial",
    "diagram",
    "tensor",
    "intertwine",
    "states",
    "equiv",
    "certio",
    "fileformat",
    "cli",
)

# span names that differ from "<module>.<function>"
RENAMES = {
    "fileformat.parse_diagram": "fileformat.parse",
    "fileformat.serialize_diagram": "fileformat.serialize",
    "certio.unit_change_from_doc": "certio.from_doc",
    "certio.equivalence_certificate_from_doc": "certio.from_doc",
    "certio.not_equivalent_from_doc": "certio.from_doc",
    "equiv.equivalence_certificate_failures": "equiv.verify",
    "intertwine.certificate_failures": "intertwine.verify",
}

# (module, class, method, span name)
METHODS = (
    ("diagram", "BratteliSequence", "map_between", "diagram.map_between"),
    ("diagram", "BratteliSequence", "unit_at", "diagram.unit_at"),
    ("simplicial", "NonMixingMap", "compose", "simplicial.compose"),
    ("equiv", "IndexSystem", "proj", "equiv.proj"),
    ("supernat", "SupernaturalNumber", "from_natural", "supernat.from_natural"),
)


# per-span size, read from arguments and result: input size for growth
# fits, or the unit a count metric sums
SIZES = {
    "fileformat.parse": lambda args, out: len(args[0]),
    "certio.dumps": lambda args, out: len(out),
    "diagram.map_between": lambda args, out: args[2] - args[1],
    "simplicial.compose": lambda args, out: len(args[0].parent),
    "equiv.proj": lambda args, out: len(out),
    "equiv.canonicalize_q": lambda args, out: args[0].length,
    "equiv.find_intertwining": lambda args, out: int(out is not None),
    "intertwine.verify": lambda args, out: len(args[0].rungs),
    "intertwine.unit_change": lambda args, out: len(out.rungs),
    "states.dual_map": lambda args, out: args[0].source_rank * args[0].target_rank,
    "states.depth_image_vertices": lambda args, out: len(out) * len(out[0]),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.size = array("q")
        self._stack = [-1]
        self._undo = []

    def _wrap(self, name, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        size = SIZES.get(name)
        tr = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tr.name)
            tr.name.append(nid)
            tr.parent.append(tr._stack[-1])
            tr.start.append(0)
            tr.end.append(0)
            tr.size.append(0)
            tr._stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tr._stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
            if size is not None:
                tr.size[idx] = size(args, out)
            return out

        return traced

    def install(self, package):
        """Wrap the public functions of `package`'s modules in place."""
        modules = {m: getattr(package, m) for m in LAYERS}
        bindings = [package, *modules.values()]
        wrapped = {}
        for mod_name, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                name = f"{mod_name}.{attr}"
                wrapped[fn] = self._wrap(RENAMES.get(name, name), fn)
        for mod in bindings:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            orig = cls.__dict__[meth]
            if isinstance(orig, classmethod):
                new = classmethod(self._wrap(name, orig.__func__))
            else:
                new = self._wrap(name, orig)
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, new)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- reading the spans -------------------------------------------------

    def summary(self, growth_spans=()):
        """Per span name: calls, self seconds and summed size, plus the
        (size, seconds) pair of every call for the spans in
        `growth_spans`."""
        n = len(self.name)
        dur = array("q", (e - s for s, e in zip(self.start, self.end)))
        self_ns = array("q", dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                self_ns[p] -= dur[i]
        k = len(self.names)
        calls, total_self, total_size = [0] * k, [0] * k, [0] * k
        points = {self._ids[g]: [] for g in growth_spans if g in self._ids}
        for i in range(n):
            nid = self.name[i]
            calls[nid] += 1
            total_self[nid] += self_ns[i]
            total_size[nid] += self.size[i]
            if nid in points:
                points[nid].append((self.size[i], dur[i] / 1e9))
        return {
            name: {
                "calls": calls[nid],
                "self_s": total_self[nid] / 1e9,
                "size": total_size[nid],
                "points": points.get(nid, []),
            }
            for nid, name in enumerate(self.names)
        }

    def write(self, path: Path):
        """Spans as a JSON header line followed by the raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.name),
            "arrays": [
                [key, getattr(self, key).typecode]
                for key in ("name", "parent", "start", "end", "size")
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for key, _ in header["arrays"]:
                getattr(self, key).tofile(fh)


def growth(points):
    """Log-log slope of per-call seconds against input size.

    Fitted through the median time at each of the three largest distinct
    sizes, so fixed per-call costs at tiny sizes do not bend the slope.
    Returns 0.0 when fewer than two sizes were seen.
    """
    by_size = {}
    for size, secs in points:
        if size > 0 and secs > 0:
            by_size.setdefault(size, []).append(secs)
    sizes = sorted(by_size)[-3:]
    if len(sizes) < 2:
        return 0.0
    xs = [math.log(s) for s in sizes]
    ys = [math.log(statistics.median(by_size[s])) for s in sizes]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
