"""Exception types shared across the package, its numeral grammar, and
the base of its immutable value classes.

Every validation failure raises a subclass of BratteliError, so callers
can catch one type at the boundary.  ParseError additionally carries a
source location for diagnostics on diagram files.
"""

from operator import attrgetter

# The numerals of diagrams, certificates, command-line options and
# supernatural numbers: ASCII digits only, since str.isdigit, int() and
# \d also take "²" or "٣".  Every module imports this one, so every
# reader takes the grammar from here at no cost.
DIGITS = "[0-9]+"

# stores a field of a Frozen value past its __setattr__
_set = object.__setattr__


class Frozen:
    """An immutable value: equality, hash and repr over its public fields.

    A subclass names its fields in __slots__, in its __init__'s order,
    and stores them once with _freeze; a slot named "_..." is a memo and
    counts for none of the three.  This is @dataclass(frozen=True) without
    its import: dataclasses imports inspect, about 13 ms of every start.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(s for s in cls.__slots__ if not s.startswith("_"))
        cls._key = attrgetter(*cls._fields)

    def _freeze(self, *values):
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not through setattr
        return self.__class__, tuple(getattr(self, f) for f in self._fields)


class BratteliError(Exception):
    pass


class RankMismatch(BratteliError):
    """Vector, map, or index dimensions do not line up."""


class NotPositive(BratteliError):
    """A multiplicity or scaling entry is zero or negative."""


class NotOrderUnit(BratteliError):
    """A vector required to be strictly positive is not."""


class LevelOutOfRange(BratteliError):
    """A level index falls outside the presented (or unrolled) range."""


class NonAscending(BratteliError):
    """A level list is not a strictly ascending chain starting at 1."""


class BadRepeat(BratteliError):
    """A periodic tail whose rank pattern does not close up."""


class TooLarge(BratteliError):
    """A number has more digits than int() and str() convert, a factor
    larger than trial division settles, a ladder scalar too many bits,
    or an unrolled level too many coordinates to list."""


class ParseError(BratteliError):
    """Syntax or validation failure in a diagram document."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def __str__(self):
        return f"line {self.line}, column {self.column}: {self.message}"
