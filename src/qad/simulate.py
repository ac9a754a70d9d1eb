"""Samplers for validation copula families, shape generators, and the
convergence-experiment runner.

The parametric families come with closed-form dependence targets so that the
estimator can be validated end to end: Marshall-Olkin (asymmetric, with an
explicit zeta1 formula), Farlie-Gumbel-Morgenstern (zeta1 = |theta|/4), the
completely dependent copula y = a*x mod 1 (zeta1 = 1 forward, no closed form
for the transpose), and independence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .copula import MAX_RESOLUTION, BivariateSample, CheckerboardCopula
from .errors import _check_count, _check_integer, _check_number
from .estimator import QadOptions, qad_compute

__all__ = [
    "MarshallOlkin",
    "FGM",
    "CompletelyDependent",
    "Independence",
    "CopulaModel",
    "ShapeGenerator",
    "SHAPE_NAMES",
    "sample_model",
    "zeta1_closed_form",
    "generate_shape",
    "analytic_checkerboard",
    "ExperimentRow",
    "ExperimentResult",
    "convergence_experiment",
]


class CopulaModel:
    """Base of the validation copula families.

    Each family is a frozen dataclass of its range-checked parameters with a
    ``label``, a sampler ``_sample(rng, n)``, its closed-form zeta1 pair
    ``_zeta1_pair()`` and, where one exists, its CDF ``_cdf(u, v)``.
    """

    def params(self) -> str:
        """The parameters as ``name=value`` joined by ';', floats in ``g`` format."""
        return ";".join(
            f"{f.name}={getattr(self, f.name):{'g' if f.type == 'float' else ''}}"
            for f in fields(self)
        )

    def _cdf(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise TypeError("no analytic CDF for this model")


@dataclass(frozen=True)
class MarshallOlkin(CopulaModel):
    alpha: float
    beta: float
    label = "mo"

    def __post_init__(self):
        _check_number("alpha", self.alpha)
        _check_number("beta", self.beta)
        if not (0 <= self.alpha <= 1 and 0 <= self.beta <= 1):
            raise ValueError("Marshall-Olkin parameters must lie in [0, 1]")

    def _sample(self, rng, n):
        """X = max(U1^(1/(1-alpha)), U3^(1/alpha)), Y = max(U2^(1/(1-beta)),
        U3^(1/beta)), with the alpha, beta in {0, 1} limits taken analytically."""
        u1, u2, u3 = rng.random((3, n))

        def margin(u, c):
            return u if c == 0 else u3 if c == 1 else np.maximum(u ** (1 / (1 - c)), u3 ** (1 / c))

        return BivariateSample(margin(u1, self.alpha), margin(u2, self.beta))

    def _zeta1_pair(self):
        """The transpose swaps (alpha, beta)."""
        return _mo_zeta1(self.alpha, self.beta), _mo_zeta1(self.beta, self.alpha)

    def _cdf(self, u, v):
        return np.minimum(u ** (1.0 - self.alpha) * v, u * v ** (1.0 - self.beta))


@dataclass(frozen=True)
class FGM(CopulaModel):
    theta: float
    label = "fgm"

    def __post_init__(self):
        _check_number("theta", self.theta)
        if not -1 <= self.theta <= 1:
            raise ValueError("FGM parameter must lie in [-1, 1]")

    def _sample(self, rng, n):
        """Inverts the conditional CDF in closed form (quadratic in v)."""
        u = rng.random(n)
        p = rng.random(n)
        coeff = self.theta * (1.0 - 2.0 * u)
        disc = np.sqrt((1.0 + coeff) ** 2 - 4.0 * coeff * p)
        denom = (1.0 + coeff) + disc
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(denom > 0, 2.0 * p / np.where(denom > 0, denom, 1.0), 0.0)
        v = np.where(coeff == 0, p, v)
        return BivariateSample(u, v)

    def _zeta1_pair(self):
        """Symmetric: zeta1 = |theta| / 4 both ways."""
        return abs(self.theta) / 4.0, abs(self.theta) / 4.0

    def _cdf(self, u, v):
        return u * v + self.theta * u * v * (1.0 - u) * (1.0 - v)


@dataclass(frozen=True)
class CompletelyDependent(CopulaModel):
    slope: int
    label = "cd"
    # (slope * x) % 1.0 keeps 53 - log2(slope) of x's 53 bits: at least 32
    MAX_SLOPE = 2**21

    def __post_init__(self):
        _check_integer("slope", self.slope)
        if not 1 <= self.slope <= self.MAX_SLOPE:
            raise ValueError(f"slope must be a positive integer <= {self.MAX_SLOPE}")

    def _sample(self, rng, n):
        x = rng.random(n)
        return BivariateSample(x, (self.slope * x) % 1.0)

    def _zeta1_pair(self):
        """zeta1 = 1 forward; the transpose has no closed form."""
        return 1.0, None


@dataclass(frozen=True)
class Independence(CopulaModel):
    label = "independence"

    def _sample(self, rng, n):
        return BivariateSample(rng.random(n), rng.random(n))

    def _zeta1_pair(self):
        return 0.0, 0.0

    def _cdf(self, u, v):
        return u * v


def _rng(seed) -> np.random.Generator:
    """The generator of ``seed``: a SeedSequence, a Generator, or an integer >= 0."""
    if not isinstance(seed, (np.random.SeedSequence, np.random.Generator)):
        _check_count("seed", seed, 0)
    return np.random.default_rng(seed)


def sample_model(model: CopulaModel, n: int, seed) -> BivariateSample:
    """Draw n i.i.d. pairs from the model's copula; ``seed``: int, SeedSequence or Generator."""
    _check_count("n", n)
    return model._sample(_rng(seed), n)


def _replicate_sample(model: CopulaModel, n: int, seed: int, size_index: int, rep: int):
    """Replicate ``rep`` at size index ``size_index`` of a convergence experiment."""
    return sample_model(model, n, np.random.SeedSequence(seed, spawn_key=(size_index, rep)))


def _mo_zeta1(alpha: float, beta: float) -> float:
    """Closed-form zeta1 of the Marshall-Olkin copula."""
    if alpha == 0 or beta == 0:
        return 0.0
    z = 1.0 / alpha + 2.0 / beta - 1.0
    base = 1.0 - alpha
    return (
        3.0 * alpha * base**z
        + (6.0 / beta) * (1.0 - base**z) / z
        - (6.0 / beta) * (1.0 - base ** (z + 1.0)) / (z + 1.0)
    )


def zeta1_closed_form(model: CopulaModel):
    """(zeta1 of the model, zeta1 of its transpose), None where no closed form."""
    return model._zeta1_pair()


def analytic_checkerboard(model: CopulaModel, resolution: int) -> CheckerboardCopula:
    """Checkerboard of the model's true copula via corner inclusion-exclusion.

    Serves as a transcription guard for the closed-form formulas: zeta1 of
    this board converges to the closed-form value as the resolution grows.
    """
    resolution = _check_count("resolution", resolution, 1, MAX_RESOLUTION)
    grid = np.arange(resolution + 1) / resolution
    uu, vv = np.meshgrid(grid, grid, indexing="ij")
    cdf = model._cdf(uu, vv)
    mass = cdf[1:, 1:] - cdf[:-1, 1:] - cdf[1:, :-1] + cdf[:-1, :-1]
    return CheckerboardCopula(np.maximum(mass, 0.0), validate=False)


# ---------------------------------------------------------------------------
# Shape generators
# ---------------------------------------------------------------------------

SHAPE_NAMES = (
    "linear",
    "x_cross",
    "two_parallel_lines",
    "two_rotated_lines",
    "non_coexistence",
    "quadratic",
    "sinus",
    "torus",
    "periodic_pattern",
)

_PATTERN_X = np.arange(16) / 15.0
_PATTERN_Y = np.array(
    [4, 0, 6, 2, 4, 2, 0, 6, 4, 2, 0, 6, 4, 2, 6, 0], dtype=float
) / 6.0


@dataclass(frozen=True)
class ShapeGenerator:
    """One of the nine benchmark dependence shapes plus a noise amplitude.

    Noise is uniform on [-noise, noise]; most shapes add it vertically, see
    each branch for the exceptions.  The output is min-max rescaled to the
    unit square per coordinate.  ``non_coexistence`` subsets a uniform cloud,
    so fewer than n points may be returned; ``periodic_pattern`` tiles a
    16-point motif, so the count is rounded to a multiple of 16.
    """

    shape: str
    n: int
    noise: float = 0.0

    def __post_init__(self):
        if self.shape not in SHAPE_NAMES:
            raise ValueError(f"unknown shape {self.shape!r}; options: {SHAPE_NAMES}")
        _check_count("n", self.n, 2)
        _check_number("noise", self.noise)
        # NaN fails; uniform() needs 2 * noise finite, as a float64 (a float16 overflows)
        if not 0 <= 2 * float(self.noise) < math.inf:
            raise ValueError("noise must be >= 0, and 2 * noise finite")
        if self.shape == "non_coexistence" and self.noise == 0:
            raise ValueError("non_coexistence needs a positive noise band")
        if self.shape == "torus" and self.noise > 1:  # the squared radius is >= 1 - noise
            raise ValueError("torus noise must be <= 1")


def _rescale(values: np.ndarray) -> np.ndarray:
    span = values.max() - values.min()
    if span == 0:
        return np.zeros_like(values)
    return (values - values.min()) / span


def generate_shape(gen: ShapeGenerator, seed) -> BivariateSample:
    """Draw one sample of the requested shape; ``seed``: int, SeedSequence or Generator."""
    rng = _rng(seed)
    n, a = gen.n, gen.noise

    def noise(size):
        return rng.uniform(-a, a, size) if a > 0 else np.zeros(size)

    if gen.shape == "linear":
        x = np.linspace(0.0, 1.0, n)
        y = x + noise(n)
    elif gen.shape == "x_cross":
        h = n // 2
        x1 = np.linspace(0.0, 1.0, h)
        x2 = np.linspace(0.0, 1.0, n - h)
        x = np.concatenate([x1, x2])
        y = np.concatenate([x1 + noise(h), 1.0 - x2 + noise(n - h)])
    elif gen.shape == "two_parallel_lines":
        h = n // 2
        x = np.linspace(0.0, 1.0, n) + noise(n)
        y = np.concatenate(
            [np.linspace(0.0, 1.0, h), np.linspace(0.0, 1.0, n - h)]
        ) + noise(n)
    elif gen.shape == "two_rotated_lines":
        x0 = rng.uniform(0.0, 1.0, n)
        y0 = noise(n)
        steep = rng.integers(0, 2, n).astype(bool)
        phi = np.where(steep, np.pi / 4.0, np.pi / 20.0)
        x = x0 * np.cos(phi) - y0 * np.sin(phi)
        y = x0 * np.sin(phi) + y0 * np.cos(phi)
    elif gen.shape == "non_coexistence":
        x0 = rng.uniform(0.0, 1.0, n)
        y0 = rng.uniform(0.0, 1.0, n)
        keep = (x0 <= a) | (y0 <= a)
        if keep.sum() < 2:
            raise ValueError("noise band too small: fewer than 2 points kept")
        x, y = x0[keep], y0[keep]
    elif gen.shape == "quadratic":
        x = np.linspace(-1.0, 1.0, n)
        y = x**2 + noise(n)
    elif gen.shape == "sinus":
        x = np.linspace(-8.0, 8.0, n)
        y = np.sin(x) + noise(n)
    elif gen.shape == "torus":
        r = np.sqrt(rng.uniform(1.0 - a, 1.0 + a, n))
        phi = rng.uniform(0.0, 2.0 * np.pi, n)
        x = r * np.cos(phi)
        y = r * np.sin(phi)
    else:  # periodic_pattern
        reps = max(1, round(n / 16))
        x = np.tile(_PATTERN_X, reps) + noise(16 * reps)
        y = np.tile(_PATTERN_Y, reps) + noise(16 * reps)
    return BivariateSample(_rescale(x), _rescale(y))


# ---------------------------------------------------------------------------
# Convergence experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentRow:
    model: str
    params: str
    n: int
    replicate: int
    q_xy: float
    q_yx: float
    ref_xy: Optional[float]
    ref_yx: Optional[float]


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[ExperimentRow, ...]

    def summaries(self):
        """Per-size quartiles of both estimates plus the reference values."""
        sizes = sorted({row.n for row in self.rows})
        out = []
        for n in sizes:
            rows = [r for r in self.rows if r.n == n]
            q_xy = np.array([r.q_xy for r in rows])
            q_yx = np.array([r.q_yx for r in rows])
            out.append(
                {
                    "n": n,
                    "q_xy_quartiles": tuple(np.percentile(q_xy, [25, 50, 75])),
                    "q_yx_quartiles": tuple(np.percentile(q_yx, [25, 50, 75])),
                    "ref_xy": rows[0].ref_xy,
                    "ref_yx": rows[0].ref_yx,
                }
            )
        return out


def convergence_experiment(
    model: CopulaModel,
    sizes,
    replicates: int,
    seed: int,
    threads: int = 1,
) -> ExperimentResult:
    """Estimate the dependence of the model repeatedly across sample sizes.

    Replicate r at size index s draws its sample from
    ``SeedSequence(entropy=seed, spawn_key=(s, r))`` (``_replicate_sample``), so
    rows are reproducible and independent of evaluation order.  Tasks run
    serially; ``threads`` is checked but starts no thread.
    """
    _check_count("replicates", replicates)
    _check_count("seed", seed, 0)
    _check_count("threads", threads)
    ref_xy, ref_yx = zeta1_closed_form(model)

    def one(si, n, rep):
        result = qad_compute(_replicate_sample(model, n, seed, si, rep), QadOptions())
        q = (result.q_xy, result.q_yx)
        return ExperimentRow(model.label, model.params(), n, rep, *q, ref_xy, ref_yx)

    rows = (one(si, n, rep) for si, n in enumerate(sizes) for rep in range(replicates))
    return ExperimentResult(tuple(rows))
