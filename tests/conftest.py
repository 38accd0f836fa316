import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rlimits import clamp


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(cls, name) patches cls.name to count its calls and
    returns the one-entry list that holds the count."""

    def patch(cls, name):
        calls = [0]
        original = getattr(cls, name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
        return calls

    return patch


@pytest.fixture
def digit_limit():
    """sys.set_int_max_str_digits, with the limit restored after the test."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


@pytest.fixture
def in_child():
    """in_child(argv) runs `bratteli argv` in a child process under 1 GB
    of address space (or `address_space` bytes) and with a timeout, since
    building what a refusal stops would take seconds to minutes and
    gigabytes, and returns (exit code, stdout, stderr, seconds).  With
    command=("-c", code) the child runs that Python code instead."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))

    def run(argv, address_space=2**30, command=("-m", "bratteli.cli")):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *command, *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=lambda: clamp((resource.RLIMIT_AS, address_space)),
        )
        return done.returncode, done.stdout, done.stderr, time.perf_counter() - start

    return run
