"""Exception types shared across the package, and the checks of integer counts,
real arrays and bounded parameters.

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


#: the least positive float: a low bound of _ABOVE_0 excludes 0 and nothing else
_ABOVE_0 = math.nextafter(0.0, 1.0)

#: (low, high) of the library's threshold parameters, bounds included; the
#: CLI's --alpha, --q-threshold and --filter-ties take the same ranges
_THRESHOLDS = {
    "alpha": (_ABOVE_0, 1),
    "q_threshold": (0, 1),
    "max_single_value_prop": (_ABOVE_0, 1),
    "min_unique_prop": (0, 1),
}


def _check_range(name: str, value, low, high=math.inf):
    """``_check_number``, then ValueError unless low <= value <= high, which NaN fails."""
    _check_number(name, value)
    if not low <= value <= high:
        left = "(0" if low == _ABOVE_0 else f"[{low}"
        valid = f"in {left}, {high}]" if high <= 1 else f">= {low}"
        if 1 < high < math.inf:
            valid += f" and <= {high}"
        raise ValueError(f"{name} must be {valid}")


def _check_count(name: str, value, low=1, high=math.inf) -> int:
    """``int(value)``; TypeError unless ``value`` is an int or numpy integer (not
    a bool), ValueError outside [low, high]."""
    _check_integer(name, value)
    if not low <= value <= high:
        raise ValueError(f"{name} must be " + (f">= {low}" if value < low else f"<= {high}"))
    return int(value)


def _check_integer(name: str, value):
    """TypeError naming ``name`` unless ``value`` is an int or numpy integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}")


def _check_number(name: str, value):
    """TypeError naming ``name`` if ``value`` is complex, or else unless it is an
    int, a float or a numpy real scalar (not a bool); nothing is converted."""
    if isinstance(value, (complex, np.complexfloating)):
        raise TypeError(f"{name} must be real, not complex")
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{name} must be a real number, not {type(value).__name__}")


def _real_array(values, name: str) -> np.ndarray:
    """``values`` as a float array, read once; TypeError if complex (a float cast
    would drop the imaginary part), or if numpy cannot read them as numbers
    (strings, ragged nests, an object array holding complex numbers);
    ValueError if an int is too large for a float."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind != "c":
            return arr.astype(float, copy=False)
    except OverflowError:
        raise ValueError(f"{name} must be within the float range") from None
    except (TypeError, ValueError):
        raise TypeError(f"{name} must be real numbers") from None
    raise TypeError(f"{name} must be real, not complex")
