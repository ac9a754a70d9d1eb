"""Exception types shared across the package.

The CLI maps these onto exit codes: DataError -> 3, DegenerateInputError -> 4.
"""

__all__ = ["DataError", "ExtrapolationError", "DegenerateInputError"]


class DataError(Exception):
    """Malformed or unusable input data (files, columns, ranges)."""


class ExtrapolationError(DataError):
    """A prediction was requested outside the observed data range."""


class DegenerateInputError(Exception):
    """Input is syntactically fine but numerically degenerate (e.g. n < 2)."""
