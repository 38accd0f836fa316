import pytest


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
