"""Run the command line in a bounded child process.

run(argv) starts `python -S -c CHILD`.  The child sets its own limits,
each clamped to the hard limit, so run is safe to call from threads,
where a preexec_fn is not.  It reads its argument list from stdin,
since Linux refuses a single argument past 128 KiB, and runs
`bratteli.cli` as `__main__` through runpy, as `python -m bratteli.cli
argv` does; with `code` it runs that Python code instead, with argv in
sys.argv[1:].  The standard library is all it needs.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the child, after a first line that binds LIMITS to (resource name, cap)
# pairs
CHILD = """
import resource, sys
for name, cap in LIMITS:
    which = getattr(resource, name)
    hard = resource.getrlimit(which)[1]
    soft = cap if hard == resource.RLIM_INFINITY else min(cap, hard)
    resource.setrlimit(which, (soft, hard))
code, *argv = sys.stdin.read().split("\\0")
sys.argv[1:] = argv
if code:
    exec(code, {"__name__": "__main__"})
else:
    import runpy
    runpy.run_module("bratteli.cli", run_name="__main__", alter_sys=True)
"""


def run(argv, address_space=2**30, *, code=None, file_size=None, timeout=60, stdout=None):
    """Run `bratteli argv`, or `code`, in a child under address_space bytes
    of address space, file_size bytes of written file (no limit when None)
    and timeout seconds, with stdout to the file object stdout when one is
    given.  Returns (exit code, stdout, stderr, seconds); the exit code is
    None after a timeout."""
    limits = [("RLIMIT_AS", address_space)]
    if file_size is not None:
        limits.append(("RLIMIT_FSIZE", file_size))
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-S", "-c", f"LIMITS = {limits!r}\n{CHILD}"],
            input="\0".join([code or "", *argv]),
            stdout=stdout or subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=timeout,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            text=True,
            errors="replace",
        )
    except subprocess.TimeoutExpired:
        return None, "", "", time.perf_counter() - start
    return done.returncode, done.stdout, done.stderr, time.perf_counter() - start
