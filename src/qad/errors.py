"""Exception types shared across the package, and the checks of integer counts
and real arrays.

The CLI maps these onto exit codes: DataError -> 3, DegenerateInputError -> 4.
"""

import math

import numpy as np

__all__ = ["DataError", "ExtrapolationError", "DegenerateInputError"]


class DataError(Exception):
    """Malformed or unusable input data (files, columns, ranges)."""


class ExtrapolationError(DataError):
    """A prediction was requested outside the observed data range."""


class DegenerateInputError(Exception):
    """Input is syntactically fine but numerically degenerate (e.g. n < 2)."""


def _check_count(name: str, value, low=1, high=math.inf) -> int:
    """``int(value)``; TypeError unless ``value`` is an int or numpy integer (not
    a bool), ValueError outside [low, high]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}")
    if not low <= value <= high:
        raise ValueError(f"{name} must be " + (f">= {low}" if value < low else f"<= {high}"))
    return int(value)


def _real_array(values, name: str) -> np.ndarray:
    """``values`` as a float array; TypeError if complex, since a float cast
    would drop the imaginary part."""
    if np.iscomplexobj(values):
        raise TypeError(f"{name} must be real, not complex")
    return np.asarray(values, dtype=float)
