"""Exception types shared across the package, and its numeral grammar.

Every validation failure raises a subclass of BratteliError, so callers
can catch one type at the boundary.  ParseError additionally carries a
source location for diagnostics on diagram files.
"""

# The numerals of diagrams, certificates, command-line options and
# supernatural numbers: ASCII digits only, since str.isdigit, int() and
# \d also take "²" or "٣".  Every module imports this one, so every
# reader takes the grammar from here at no cost.
DIGITS = "[0-9]+"


class BratteliError(Exception):
    pass


class RankMismatch(BratteliError):
    """Vector, map, or index dimensions do not line up."""


class NotPositive(BratteliError):
    """A multiplicity or scaling entry is zero or negative."""


class NotNonMixing(BratteliError):
    """A matrix row has zero or several nonzero entries."""


class NotOrderUnit(BratteliError):
    """A vector required to be strictly positive is not."""


class NotNormalized(BratteliError):
    """A map does not carry the declared source unit to the target unit."""


class LevelOutOfRange(BratteliError):
    """A level index falls outside the presented (or unrolled) range."""


class NonAscending(BratteliError):
    """A level list is not a strictly ascending chain starting at 1."""


class EmptyLevel(BratteliError):
    """Pruning removed every coordinate of some level."""


class BadRepeat(BratteliError):
    """A periodic tail whose rank pattern does not close up."""


class NotInjective(BratteliError):
    """Strict mode rejected a presentation with non-injective maps."""


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
