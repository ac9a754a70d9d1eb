"""Conditional prediction tables on the copula scale and the data scale.

A fitted checkerboard gives, per conditioning strip, a discrete distribution
over the other variable's strips.  Retransformation to the data scale uses
empirical order-statistic quantiles, so every interval endpoint is an
observed value and prediction is only possible inside the observed range.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .copula import BivariateSample, _fit_boards
from .errors import ExtrapolationError, _check_number, _real_array
from .estimator import _prepare

__all__ = ["PredictionTable", "prediction_table", "predict"]


@dataclass(frozen=True)
class PredictionTable:
    """Conditional probabilities plus data-scale interval endpoints.

    ``cond`` has one row per conditioning strip (x-strips for direction "xy",
    y-strips for "yx"); each row sums to 1.  ``x_breaks`` and ``y_breaks`` are
    the empirical quantiles of the respective margins at levels j/N.
    """

    direction: str
    resolution: int
    cond: np.ndarray
    x_breaks: np.ndarray
    y_breaks: np.ndarray

    @property
    def conditioning_breaks(self) -> np.ndarray:
        return self.x_breaks if self.direction == "xy" else self.y_breaks

    @property
    def predicted_breaks(self) -> np.ndarray:
        return self.y_breaks if self.direction == "xy" else self.x_breaks

    def merged_row(self, strip: int):
        """Display form of one cond row: zero-width predicted intervals are
        folded into the preceding interval (or the following one at the start).
        """
        breaks = self.predicted_breaks
        probs = self.cond[strip]
        out = []
        for j in range(self.resolution):
            lo, hi = float(breaks[j]), float(breaks[j + 1])
            p = float(probs[j])
            if lo == hi and out:
                prev = out[-1]
                out[-1] = (prev[0], prev[1], prev[2] + p)
            elif out and out[-1][0] == out[-1][1]:
                # leading zero-width entries fold forward
                out[-1] = (out[-1][0], hi, out[-1][2] + p)
            else:
                out.append((lo, hi, p))
        return out

    def to_json_dict(self) -> dict:
        """The fields in declaration order, arrays as (nested) lists of floats."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in out.items()}


def _quantile_breaks(values: np.ndarray, resolution: int) -> np.ndarray:
    """Empirical quantiles at levels j/N using the ceiling order-statistic rule."""
    s = np.sort(values)
    n = s.size
    idx = (np.arange(resolution + 1) * n + resolution - 1) // resolution
    breaks = s[idx - 1]
    breaks[0] = s[0]
    return breaks


def prediction_table(
    sample: BivariateSample, direction: str = "xy", resolution: int | None = None
) -> PredictionTable:
    """Build a prediction table for one direction of a fitted sample.

    ``cond[i][j] = N * mass[i][j]`` of the direction's checkerboard, which
    makes every row a probability distribution over the predicted strips.
    """
    if direction not in ("xy", "yx"):
        raise ValueError("direction must be 'xy' or 'yx'")
    pobs, resolution = _prepare(sample, resolution)
    board = _fit_boards(pobs, resolution)[0 if direction == "xy" else 1]
    cond = board.mass * resolution
    return PredictionTable(
        direction=direction,
        resolution=resolution,
        cond=cond,
        x_breaks=_quantile_breaks(sample.xs, resolution),
        y_breaks=_quantile_breaks(sample.ys, resolution),
    )


def locate_strip(breaks: np.ndarray, value: float) -> int:
    """Index of the half-open interval [b_i, b_{i+1}) containing value (last closed).

    NaN lies in no interval and is rejected like any value outside the range.
    """
    if not breaks[0] <= value <= breaks[-1]:
        raise ExtrapolationError(
            f"extrapolation not supported: {value!r} outside observed range "
            f"[{float(breaks[0])!r}, {float(breaks[-1])!r}]"
        )
    i = int(np.searchsorted(breaks, value, side="right")) - 1
    return min(i, breaks.size - 2)


def predict(table: PredictionTable, value: float):
    """Conditional distribution over predicted data-scale intervals at ``value``.

    Locates the conditioning strip containing ``value`` and returns the list
    of ((interval_low, interval_high), probability) pairs for that strip.
    A ``value`` that is not a real number is refused with TypeError, and an int
    too large for a float with ValueError.
    """
    _check_number("value", value)
    strip = locate_strip(table.conditioning_breaks, float(_real_array(value, "value")))
    breaks = table.predicted_breaks
    return [
        ((float(breaks[j]), float(breaks[j + 1])), float(table.cond[strip, j]))
        for j in range(table.resolution)
    ]
