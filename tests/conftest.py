import sys

import pytest

import child


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
    """in_child(argv) is child.run: `bratteli argv`, or `code=...`, in a
    child process under 1 GB of address space (or `address_space` bytes)
    and a timeout, since building what a refusal stops would take seconds
    to minutes and gigabytes; it returns (exit code, stdout, stderr,
    seconds)."""
    return child.run
