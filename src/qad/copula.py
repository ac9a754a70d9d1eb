"""Empirical copulas, checkerboard aggregation, and conditional-distribution metrics.

A bivariate sample is mapped to the copula scale through normalized max-ranks
(ties are carried as rectangle widths, never broken), aggregated onto an N x N
grid, and scored with metrics built from conditional distribution functions.
All metric values are computed in closed form: the conditional CDFs of a
checkerboard are piecewise linear, so integrals of absolute differences reduce
to per-cell trapezoid/root formulas and suprema to finite candidate sets.

The two kernels every estimate and replicate runs skip only work whose result
is known exactly: the two-strip aggregation leaves out bincount entries of
weight +0.0 (a cell starts at +0.0 and gains no negative weight, so adding
+0.0 changes no bit), and the zeta1 cell integral evaluates the root formula
only on cells whose ends change sign, the cells where it would be chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import _check_count, _real_array

__all__ = [
    "BivariateSample",
    "PseudoObservations",
    "EmpiricalCopula",
    "CheckerboardCopula",
    "pseudo_observations",
    "empirical_copula",
    "ecop_cdf",
    "checkerboard_aggregate",
    "conditional_cdf",
    "d1_pi",
    "zeta1",
    "transpose",
    "d_infty",
    "d1",
    "d_infty_markov",
    "extremal_metric_pair",
]

#: Tolerance for mass-balance invariants (total mass 1, uniform margins).
MASS_TOL = 1e-12

#: The most cells in an (m, N) overlap matrix of a dense board's dgemm; a larger
#: board, and its swap's, takes ``_group_board``.  Set by speed: on 40 %-zero
#: pairs at B = 199 (BLAS on one thread) the dgemm led at 14k cells, the two tied
#: at 23k, and the group product led from 39k on (1.4x; 1.7x at 68k, 2.4x at
#: 138k).  70 000 is the lowest bound that keeps the pinned replicate statistics
#: and the dense-path tests (n = 2000, N = 34: 68 000 cells) on the dgemm, whose
#: sums the group product matches only to rounding.
DGEMM_MAX_CELLS = 70_000

#: The largest N of any board built: 2^26 float64 cells (512 MiB).  A fit's other
#: arrays hold O(n) cells, or no more than the board or DGEMM_MAX_CELLS.
MAX_RESOLUTION = 1 << 13


def _as_float_vector(values, name):
    arr = _real_array(values, name)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


def _max_ranks(values):
    """Max-rank representation of a vector.

    Returns (R, t) where R[i] = #{j : v_j <= v_i} and t[i] = #{j : v_j == v_i}.
    R/n is the empirical CDF evaluated at the data points.

    One argsort orders the values; neighbours that compare unequal start a
    new tie group.  With no ties (the common case of continuous data) the
    ranks are the sorted positions 1..n and every t is 1, so the group
    bookkeeping is skipped.  Both branches give the integers ``np.unique``
    would: R and t depend only on the groups, not on the order of the tied
    elements within the sort.
    """
    n = values.size
    perm = values.argsort()
    ordered = values[perm]
    new = np.empty(n, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    ranks = np.empty(n, dtype=np.intp)
    if new.all():
        ranks[perm] = np.arange(1, n + 1)
        return ranks, np.ones(n, dtype=np.intp)
    starts = np.flatnonzero(new)
    counts = np.diff(starts, append=n)
    group = np.cumsum(new) - 1
    ranks[perm] = (starts + counts)[group]
    ties = np.empty(n, dtype=np.intp)
    ties[perm] = counts[group]
    return ranks, ties


@dataclass(frozen=True)
class BivariateSample:
    """Paired real observations, the raw input of the estimation pipeline."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = _as_float_vector(self.xs, "xs")
        ys = _as_float_vector(self.ys, "ys")
        if xs.size != ys.size:
            raise ValueError("xs and ys must have equal length")
        if xs.size == 0:
            raise ValueError("empty input")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("sample values must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return self.xs.size

    def swapped(self) -> "BivariateSample":
        """The sample with coordinates exchanged."""
        return BivariateSample(self.ys, self.xs)


@dataclass(frozen=True)
class PseudoObservations:
    """Normalized max-ranks (u_i, v_i) of a sample, each a multiple of 1/n.

    ``ranks_u``/``ranks_v`` hold the integer max-ranks, ``ties_u``/``ties_v``
    the per-element multiplicity of the value in its own margin.  These carry
    tie information exactly; ``us``/``vs`` are the float views ranks/n.
    """

    us: np.ndarray
    vs: np.ndarray
    n: int
    n_unique_u: int
    n_unique_v: int
    ranks_u: np.ndarray = field(repr=False)
    ranks_v: np.ndarray = field(repr=False)
    ties_u: np.ndarray = field(repr=False)
    ties_v: np.ndarray = field(repr=False)


def pseudo_observations(sample: BivariateSample | PseudoObservations) -> PseudoObservations:
    """Transform a sample to the copula scale via empirical CDFs.

    u_i = F_n(x_i) = (number of x_j <= x_i) / n, and likewise for v_i.
    Ties are not broken; tied values share the same (maximal) rank.
    Pseudo-observations are checked and ranked as the sample (us, vs).
    """
    if isinstance(sample, PseudoObservations):
        sample = BivariateSample(sample.us, sample.vs)
    return _ranked(*_max_ranks(sample.xs), *_max_ranks(sample.ys))


def _ranked(ru, tu, rv, tv) -> PseudoObservations:
    """The pseudo-observations of the rows whose margins ``_max_ranks`` ranked
    as (ru, tu) and (rv, tv); distinct values and max-ranks match one to one."""
    n, nu, nv = ru.size, np.count_nonzero(np.bincount(ru)), np.count_nonzero(np.bincount(rv))
    return PseudoObservations(ru / n, rv / n, n, int(nu), int(nv), ru, rv, tu, tv)


@dataclass(frozen=True)
class EmpiricalCopula:
    """Rectangle-mass representation of the empirical copula of a sample.

    One rectangle per distinct pseudo-observation pair (u'_i, v'_i): mass
    t_i/n is spread uniformly on [u'_i - r_i/n, u'_i] x [v'_i - s_i/n, v'_i],
    where t_i is the multiplicity of the pair and r_i, s_i the multiplicities
    of u'_i and v'_i in their margins.  Integer arrays are kept so that strip
    overlaps can later be computed without rounding.
    """

    n: int
    ranks_u: np.ndarray  # (m,) integer max-ranks of the distinct pairs
    ranks_v: np.ndarray
    ties_u: np.ndarray  # (m,) r_i
    ties_v: np.ndarray  # (m,) s_i
    counts: np.ndarray  # (m,) t_i

    @property
    def m(self) -> int:
        """Number of distinct pseudo-observation pairs."""
        return self.counts.size


def _sample_is_its_copula(pobs: PseudoObservations) -> bool:
    """True when a margin is tie-free: every pair is then distinct, and the
    empirical copula is the sample itself, in its own order, with masses 1/n."""
    return pobs.n in (pobs.n_unique_u, pobs.n_unique_v)


def empirical_copula(pobs: PseudoObservations) -> EmpiricalCopula:
    """Build the empirical copula (rectangle masses) from pseudo-observations.

    When either margin is tie-free, every pair is distinct: the copula is the
    sample itself, in its own order with counts of 1, and ``first`` takes views
    of the pseudo-observation arrays.  That is exactly what deduplicating the
    pairs would give, so the dedup sort is skipped.
    """
    n = pobs.n
    if _sample_is_its_copula(pobs):
        first, counts = slice(None), np.ones(n, dtype=np.intp)
    else:
        codes = pobs.ranks_u * (n + 1) + pobs.ranks_v
        _, first, counts = np.unique(codes, return_index=True, return_counts=True)
        order = np.argsort(first)  # keep first-appearance order of the pairs
        first, counts = first[order], counts[order]
    arrays = (pobs.ranks_u, pobs.ranks_v, pobs.ties_u, pobs.ties_v)
    return EmpiricalCopula(n, *(a[first] for a in arrays), counts)


def _unit_coordinates(values, name):
    """``_real_array(values)``, ValueError unless every entry lies in [0, 1];
    NaN fails both comparisons."""
    a = _real_array(values, name)
    if not ((0 <= a) & (a <= 1)).all():
        raise ValueError(f"{name} must lie in [0, 1]")
    return a


def ecop_cdf(ecop: EmpiricalCopula, u, v):
    """Exact CDF of the empirical copula at (u, v) in [0, 1]^2.

    Sums, over the mass rectangles, the fraction of each rectangle covered by
    [0, u] x [0, v].  Scalars in, scalar out; arrays broadcast elementwise.
    """
    u_arr, v_arr = _unit_coordinates(u, "u"), _unit_coordinates(v, "v")
    try:
        np.broadcast_shapes(u_arr.shape, v_arr.shape)
    except ValueError:
        raise ValueError(f"u and v must broadcast, not {u_arr.shape} and {v_arr.shape}") from None
    n = ecop.n
    lo_u = (ecop.ranks_u - ecop.ties_u) / n
    lo_v = (ecop.ranks_v - ecop.ties_v) / n
    wu = ecop.ties_u / n
    wv = ecop.ties_v / n
    mass = ecop.counts / n
    fx = np.clip((u_arr[..., None] - lo_u) / wu, 0.0, 1.0)
    fy = np.clip((v_arr[..., None] - lo_v) / wv, 0.0, 1.0)
    out = np.sum(mass * fx * fy, axis=-1)
    return float(out) if out.ndim == 0 else out


def _square(mass, validate: bool = True) -> np.ndarray:
    """``_real_array(mass)``, ValueError unless it is a non-empty square matrix
    and, with ``validate``, finite: NaN would pass every tolerance check of a board."""
    mass = _real_array(mass, "mass")
    if mass.ndim != 2 or mass.shape[0] != mass.shape[1] or not mass.size:
        raise ValueError("mass must be a non-empty square matrix")
    if validate and not np.isfinite(mass).all():
        raise ValueError("mass entries must be finite")
    return mass


class CheckerboardCopula:
    """An N x N checkerboard copula given by its cell-mass matrix.

    ``mass[i][j]`` is the probability of the cell with first coordinate in
    strip i and second coordinate in strip j (half-open strips, last closed).
    Rows and columns each sum to 1/N (doubly stochastic up to scaling).
    """

    __slots__ = ("resolution", "mass")

    def __init__(self, mass, validate: bool = True):
        mass = _square(mass, validate)
        n = mass.shape[0]
        if validate:
            if np.any(mass < -MASS_TOL):
                raise ValueError("mass entries must be nonnegative")
            target = 1.0 / n
            if abs(mass.sum() - 1.0) > MASS_TOL:
                raise ValueError("total mass must equal 1")
            if np.max(np.abs(mass.sum(axis=1) - target)) > MASS_TOL:
                raise ValueError("row sums must equal 1/N")
            if np.max(np.abs(mass.sum(axis=0) - target)) > MASS_TOL:
                raise ValueError("column sums must equal 1/N")
        self.resolution = n
        self.mass = np.maximum(mass, 0.0)
        self.mass.setflags(write=False)

    @classmethod
    def independence(cls, resolution: int) -> "CheckerboardCopula":
        """The product copula: all cells carry 1/N^2."""
        n = _check_count("resolution", resolution, 1, MAX_RESOLUTION)
        return cls(np.full((n, n), 1.0 / (n * n)), validate=False)

    @classmethod
    def comonotone(cls, resolution: int) -> "CheckerboardCopula":
        """The N-checkerboard of the minimum copula: mass 1/N on the diagonal."""
        n = _check_count("resolution", resolution, 1, MAX_RESOLUTION)
        return cls(np.eye(n) / n, validate=False)

    def to_json_dict(self) -> dict:
        return {
            "resolution": self.resolution,
            "mass": [float(x) for x in self.mass.ravel()],
        }

    def __eq__(self, other):
        return (
            isinstance(other, CheckerboardCopula)
            and self.resolution == other.resolution
            and np.array_equal(self.mass, other.mass)
        )

    def __repr__(self):
        return f"CheckerboardCopula(resolution={self.resolution})"


# ---------------------------------------------------------------------------
# Aggregation onto the checkerboard grid
# ---------------------------------------------------------------------------


def _delta_overlap_matrix(lo, hi, strip_width, resolution):
    """Dense per-rectangle strip-overlap fractions, integer coordinates.

    Rectangle k spans [lo[k], hi[k]] on an axis where strip i covers
    [i*strip_width, (i+1)*strip_width].  Entry (k, i) is the fraction of the
    rectangle's extent falling into strip i.
    """
    bounds = np.arange(resolution + 1, dtype=float) * strip_width
    span = (hi - lo).astype(float)[:, None]
    frac = np.clip((bounds[None, :] - lo[:, None]) / span, 0.0, 1.0)
    return np.diff(frac, axis=1)


def _two_strip_split(lo, hi, strip_width):
    """Strip indices and first-strip weight when every span fits in <= 2 strips;
    the weight is divided out only for spans that cross a boundary
    (i1 == i0 + 1) and is exactly 1.0 for the rest (i1 == i0)."""
    i0 = lo // strip_width
    i1 = (hi - 1) // strip_width
    w0 = np.ones(i0.shape)
    k = np.flatnonzero(i1 > i0)
    lo_k = lo.ravel()[k]
    w0.flat[k] = ((i0.ravel()[k] + 1) * strip_width - lo_k) / (hi.ravel()[k] - lo_k)
    return i0, i1, w0


def _two_strip_boards(u_split, v_split, masses, resolution):
    """Cell masses (C, N, N) of a stack of rectangle measures, one bincount.

    ``u_split``/``v_split`` are ``_two_strip_split`` results whose arrays
    broadcast to (C, m): a side shared by every measure may be passed once as
    (1, m).  Each rectangle adds ``(masses * wu) * wv`` to its (i0, j0) cell
    and, only where it crosses a boundary, the 1 - w shares to the next row,
    column or both.  An entry left out would weigh +0.0: a cell starts at +0.0
    and gains no negative weight, so it never holds -0.0 and adding +0.0
    changes no bit.  Entries go block by block, the (i0, j0) block of the
    whole stack first, so each board, owning its cells, gets their
    contributions in the order it would get them alone.
    """
    i0, i1, wu = u_split
    j0, j1, wv = v_split
    N = resolution
    C, m = np.broadcast_shapes(np.shape(i0), np.shape(j0))

    def pick(a, k):  # entries k of ``a`` broadcast to (C, m) and flattened
        return a.ravel()[k] if a.shape[0] == C else a.ravel()[k % m]

    v_cross = j1 > j0
    ku = np.flatnonzero(np.broadcast_to(i1 > i0, (C, m)))
    kv = np.flatnonzero(np.broadcast_to(v_cross, (C, m)))
    both = pick(v_cross, ku)
    cell = i0 * N + j0
    if C > 1:
        cell += np.arange(C)[:, None] * (N * N)  # board c owns cells c*N*N onward
    cell = cell.ravel()
    mu = masses * wu
    mu1, wv1 = masses[ku % m] * (1.0 - pick(wu, ku)), pick(wv, ku)
    w00, w01 = (mu * wv).ravel(), pick(mu, kv) * (1.0 - pick(wv, kv))
    w10, w11 = mu1 * wv1, mu1[both] * (1.0 - wv1[both])
    idx = np.concatenate([cell, cell[kv] + 1, cell[ku] + N, cell[ku[both]] + (N + 1)])
    flat = np.bincount(idx, weights=np.concatenate([w00, w01, w10, w11]), minlength=C * N * N)
    return flat.reshape(C, N, N)


def _axes(ranks_u, ties_u, ranks_v, ties_v, strip_width, resolution, split_only=False):
    """(u, v): a rectangle measure's two margins, prepared for ``_boards`` by
    ``_tie_groups``, or with ``split_only`` just their ``_two_strip_split``s,
    which also take (C, m) stacks.

    The one place rectangle bounds are built: rectangle k spans
    [(R_k − t_k)·N, R_k·N] on each axis, on the integer scale where strip
    boundaries sit at multiples of ``strip_width``, so that overlap fractions
    are exact up to one rounding each.
    """
    N = resolution
    bounds = [((r - t) * N, r * N) for r, t in ((ranks_u, ties_u), (ranks_v, ties_v))]
    if split_only:
        return tuple(_two_strip_split(lo, hi, strip_width) for lo, hi in bounds)
    return tuple(_tie_groups(lo, hi, strip_width, N) for lo, hi in bounds)


def _tie_groups(lo, hi, strip_width, resolution):
    """(split, group, rows): one axis of a rectangle measure, prepared for ``_boards``.

    ``split`` is the ``_two_strip_split`` of every rectangle, read only for
    those no wider than a strip.  A wider one has a tie group, named by hi // N,
    an integer up to ``strip_width`` (the group's max-rank), so a scatter into
    an array indexed by it finds the groups without a sort.  ``group[k]`` is the
    row of k's group in ``rows``, their (G, N) overlap fractions, or -1.
    """
    split = _two_strip_split(lo, hi, strip_width)
    wide = np.flatnonzero(hi - lo > strip_width)
    group = np.full(lo.size, -1, dtype=np.intp)
    if not wide.size:  # the common tie-free axis: no group, no overlap row
        return split, group, np.zeros((0, resolution))
    key = hi[wide] // resolution
    width = np.zeros(strip_width + 1, dtype=lo.dtype)
    width[key] = hi[wide] - lo[wide]
    upper = np.flatnonzero(width)
    group[wide] = np.searchsorted(upper, key)
    top = upper * resolution
    return split, group, _delta_overlap_matrix(top - width[upper], top, strip_width, resolution)


def _group_board(u, v, masses, resolution):
    """The (N, N) board of a rectangle measure from its axes' ``_tie_groups``.

    Rectangle k adds masses[k]·outer(a_k, b_k), a_k and b_k its overlap rows.
    Those narrow on both axes take the two-strip bincount.  A wide u group g
    adds outer(u_rows[g], V[g]), V[g] = Σ_{k∈g} masses[k]·b_k, and a wide v
    group h adds outer(U[h], v_rows[h]), U[h] summing over its u-narrow members:
    one bincount over two strips per member gives every V and U, and members
    wide on both axes add (G_u, G_v) summed masses times v_rows to V.  The
    floats differ from the dgemm's.
    """
    N, (u_split, u_group, u_rows), (v_split, v_group, v_rows) = resolution, u, v
    Gu, Gv = len(u_rows), len(v_rows)
    u_wide, v_wide = u_group >= 0, v_group >= 0
    a, b = np.flatnonzero(u_wide & ~v_wide), np.flatnonzero(v_wide & ~u_wide)
    i0, i1, w0 = (np.concatenate([sv[a], su[b]]) for sv, su in zip(v_split, u_split))
    key, w = np.concatenate([u_group[a], Gu + v_group[b]]) * N, masses[np.concatenate([a, b])]
    sums = np.bincount(
        np.concatenate([key + i0, key + i1]),
        weights=np.concatenate([w * w0, w * (1.0 - w0)]),
        minlength=(Gu + Gv) * N,
    ).reshape(Gu + Gv, N)
    k = np.flatnonzero(u_wide & v_wide)
    cross = np.bincount(u_group[k] * Gv + v_group[k], weights=masses[k], minlength=Gu * Gv)
    v_sums = sums[:Gu] + cross.reshape(Gu, Gv) @ v_rows
    board = np.concatenate([u_rows, sums[Gu:]]).T @ np.concatenate([v_sums, v_rows])
    # a bincount over no entries gives integer zeros, hence float + bincount
    k = np.flatnonzero(~(u_wide | v_wide))
    narrow = [[x[k][None] for x in split] for split in (u_split, v_split)]
    board += _two_strip_boards(*narrow, masses[k], N)[0]
    return board


def _weights(axis, resolution, masses):
    """The (m, N) overlap matrix of an axis from ``_tie_groups``, row k scaled
    by masses[k]: ``_delta_overlap_matrix`` times the masses, bit for bit, built
    sparsely.

    A rectangle no wider than a strip meets at most two strips, so its row
    holds the split weights w0 and 1 - w0, the same floats the clip/diff
    formula gives, scattered into zeros; a wider one takes its group's row.
    Masses of ones give the unscaled matrix (x * 1.0 is x).
    """
    (i0, i1, w0), group, rows = axis
    out = np.zeros((group.size, resolution))
    k, wide = np.arange(group.size), np.flatnonzero(group >= 0)
    # i1 first: a rectangle inside one strip has i1 == i0, w0 = 1 and w1 = 0;
    # the rows of wide rectangles are then overwritten with their group's row
    out[k, i1] = (1.0 - w0) * masses
    out[k, i0] = w0 * masses
    out[wide] = rows[group[wide]] * masses[wide, None]
    return out


_AS_IS = (slice(None),)  # ``_boards`` indices of one row, v as it is: no gather, no copy


def _boards(u, v, masses, resolution):
    """``boards(perms)``: the (C, N, N) boards of the rectangle measure that
    pairs axis u with axis v's rectangles gathered through each row of a (C, m)
    index stack, or ``_AS_IS``; ``u`` and ``v`` are ``_tie_groups`` of the two
    margins.

    The one place a kernel is chosen, once per pair of axes: the two-strip
    bincount when no rectangle of either axis is wider than a strip; above
    ``DGEMM_MAX_CELLS`` overlap cells, ``_group_board`` per row; otherwise the
    dgemm of u's overlap matrix, scaled by the masses, with v's.  What the
    kernel needs is prepared here once, and a row gathers v's splits, group
    ids or matrix rows, which changes neither the kernel nor v's tie groups.
    """
    N, (u_split, _, u_rows), (split, group, rows) = resolution, u, v
    if not (len(u_rows) or len(rows)):
        u_split = [a[None] for a in u_split]
        return lambda perms: _two_strip_boards(u_split, [a[perms] for a in split], masses, N)
    if masses.size * N > DGEMM_MAX_CELLS:
        return lambda perms: np.stack(
            [_group_board(u, ([a[p] for a in split], group[p], rows), masses, N) for p in perms]
        )
    gu, gv = _weights(u, N, masses).T, _weights(v, N, np.ones(masses.size))
    return lambda perms: np.stack([gu @ gv[p] for p in perms])


def _boards_from_ranks(ranks_u, ties_u, ranks_v, ties_v, n, resolution):
    """Checkerboard mass matrices (C, N, N) straight from per-element max-ranks.

    Row c of the (C, n) rank and tie arrays is one sample; a margin shared by
    every sample may be passed once as (1, n).  Element i spreads mass 1/n
    uniformly on [(R_u - t_u)/n, R_u/n] x [(R_v - t_v)/n, R_v/n]; summing
    elements of a tied pair reproduces the rectangle masses of the empirical
    copula.  A stack whose rectangles are all no wider than a strip (t·N <= n)
    takes one bincount; any other stack sends each row to ``_boards`` with its
    own ``_axes``.
    """
    N, ranks, masses = resolution, (ranks_u, ties_u, ranks_v, ties_v), np.full(n, 1.0 / n)
    if max(ties_u.max(), ties_v.max()) * N <= n:
        return _two_strip_boards(*_axes(*ranks, n, N, split_only=True), masses, N)
    rows = zip(*np.broadcast_arrays(*ranks))
    return np.stack([_boards(*_axes(*row, n, N), masses, N)(_AS_IS)[0] for row in rows])


def checkerboard_aggregate(copula, resolution: int) -> CheckerboardCopula:
    """Aggregate a copula's mass onto the N x N checkerboard grid.

    Accepts an EmpiricalCopula or a CheckerboardCopula (any resolution);
    each source rectangle contributes mass times the exact area-overlap
    fraction.  Aggregating a checkerboard to its own resolution returns an
    equal copula (the operation is a projection).  Both go through ``_axes``
    and ``_boards`` as the fit does; cell (i, j) of an M-board is a rectangle
    of ranks i + 1 and j + 1, ties 1, on a scale of M strips.
    """
    N = _check_count("resolution", resolution, 1, MAX_RESOLUTION)
    if isinstance(copula, EmpiricalCopula):
        ranks = (copula.ranks_u, copula.ties_u, copula.ranks_v, copula.ties_v)
        strip_width, masses = copula.n, copula.counts / copula.n
    elif isinstance(copula, CheckerboardCopula):
        M = copula.resolution
        rank_u, rank_v = np.divmod(np.arange(M * M), M)
        ones = np.ones(M * M, dtype=np.intp)
        ranks, strip_width, masses = (rank_u + 1, ones, rank_v + 1, ones), M, copula.mass.ravel()
    else:
        raise TypeError("expected EmpiricalCopula or CheckerboardCopula")
    boards = _boards(*_axes(*ranks, strip_width, N), masses, N)
    return CheckerboardCopula(boards(_AS_IS)[0], validate=False)


def _fit_boards(pobs: PseudoObservations, resolution: int):
    """The fitted checkerboards (board_xy, board_yx) of a sample at resolution N.

    One empirical copula serves both directions: exchanging its u and v fields
    gives exactly the empirical copula of the swapped sample (same distinct
    pairs, same first-appearance order, same counts).  So its ``_axes`` are
    prepared once, board_xy is ``_boards(u, v)`` and board_yx ``_boards(v, u)``,
    bit-identical to fitting the swapped sample, though not bitwise board_xy.T.
    """
    ecop, N = empirical_copula(pobs), resolution
    u, v = _axes(ecop.ranks_u, ecop.ties_u, ecop.ranks_v, ecop.ties_v, ecop.n, N)
    w = ecop.counts / ecop.n
    boards = [_boards(a, b, w, N)(_AS_IS)[0] for a, b in ((u, v), (v, u))]
    return tuple(CheckerboardCopula(b, validate=False) for b in boards)


def _permuted_boards(pobs: PseudoObservations, resolution: int):
    """``boards(perms)``: the (C, N, N) boards of the sample with its y side
    re-paired through each row of a (C, n) stack of permutations, as
    ``_boards_from_ranks`` builds them, from the sample's ``_axes`` prepared
    once; ``_AS_IS`` gives the observed permutation statistic's board.
    """
    N, n = resolution, pobs.n
    u, v = _axes(pobs.ranks_u, pobs.ties_u, pobs.ranks_v, pobs.ties_v, n, N)
    return _boards(u, v, np.full(n, 1.0 / n), N)


# ---------------------------------------------------------------------------
# Conditional CDFs and metrics
# ---------------------------------------------------------------------------


def _strip_cdfs(mass: np.ndarray) -> np.ndarray:
    """Conditional CDF values K(strip i, [0, (j + 1)/N]) = N * sum_{l <= j}
    mass[i, l] at the right cell boundaries, for a board or a stack of them;
    at the left boundary, 0, every K is +0.0."""
    return np.cumsum(mass, axis=-1) * mass.shape[-1]


def _boundary_cdfs(mass: np.ndarray) -> np.ndarray:
    """``_strip_cdfs`` with the left boundary as column 0, (..., N, N + 1)."""
    out = np.zeros(mass.shape[:-1] + (mass.shape[-1] + 1,))
    out[..., 1:] = _strip_cdfs(mass)
    return out


def _mass_of(cb) -> np.ndarray:
    """The mass matrix of a CheckerboardCopula, or ``cb`` checked by ``_square``:
    the one way the board functions read a board."""
    return cb.mass if isinstance(cb, CheckerboardCopula) else _square(cb)


def _check_same_resolution(a, b):
    if a.shape != b.shape:
        raise ValueError("checkerboards must have equal resolution")


def _cells_integral(d: np.ndarray) -> np.ndarray:
    """Integral of |K| over the unit square for each board of a (C, N, N) stack
    of conditional-CDF differences at the right cell boundaries.

    On cell (i, j), K is linear from d0, the flat array's previous value or
    +0.0 at j = 0, to d1.  Every cell takes the trapezoid (|d0| + |d1|) / 2;
    only cells with d0 * d1 < 0.0 then take the split at the root,
    (d0^2 + d1^2) / (2 (|d0| + |d1|)), the floats of choosing per cell.  A
    board's N * N cells are summed as one contiguous row, whatever the stack.
    """
    C, N = d.shape[:2]
    d = d.reshape(-1)
    a = np.abs(d)
    s = np.empty_like(a)  # |d0| + |d1|
    np.add(a[:-1], a[1:], out=s[1:])
    s[::N] = a[::N]  # +0.0 + |d1| at each row start
    k = np.flatnonzero(d[:-1] * d[1:] < 0.0) + 1
    k = k[k % N != 0]  # a row start has d0 = +0.0, so no sign change
    d0, d1 = d[k - 1], d[k]
    root = (d0 * d0 + d1 * d1) / (2.0 * np.maximum(s[k], 1e-300))
    s /= 2.0
    s[k] = root
    return s.reshape(C, N * N).sum(axis=1) / (N * N)


def d1(cb_a, cb_b) -> float:
    """The conditional-distribution L1 metric between two same-resolution boards.

    Integrates, strip by strip, the absolute difference of the piecewise-linear
    conditional CDFs in closed form.
    """
    ma, mb = _mass_of(cb_a), _mass_of(cb_b)
    _check_same_resolution(ma, mb)
    return float(_cells_integral((_strip_cdfs(ma) - _strip_cdfs(mb))[None])[0])


def _d1_pi_stack(mass: np.ndarray) -> np.ndarray:
    """D1 distance from the product copula of each board in a (C, N, N) stack.

    The product's conditional CDF is the same in every strip, so its row is
    broadcast rather than materialized as a full board; the result is
    bit-identical to d1(board, independence board).
    """
    N = mass.shape[-1]
    d = _strip_cdfs(mass)
    d -= _strip_cdfs(np.full(N, 1.0 / (N * N)))  # a row of the product's board
    return _cells_integral(d)


def _zeta1_stack(mass: np.ndarray) -> np.ndarray:
    """zeta1 of each board in a (C, N, N) stack."""
    return np.minimum(1.0, np.maximum(0.0, 3.0 * _d1_pi_stack(mass)))


def d1_pi(cb) -> float:
    """D1 distance from the product copula; attains values in [0, 1/3]."""
    return float(_d1_pi_stack(_mass_of(cb)[None])[0])


def zeta1(cb) -> float:
    """The dependence measure 3 * D1(A, product); 0 iff independence."""
    return float(_zeta1_stack(_mass_of(cb)[None])[0])


def transpose(cb) -> CheckerboardCopula:
    """The copula with coordinates exchanged (mass matrix transposed); an array is
    checked as ``CheckerboardCopula`` checks it, a board is not checked again."""
    board = cb if isinstance(cb, CheckerboardCopula) else CheckerboardCopula(cb)
    return CheckerboardCopula(_mass_of(board).T.copy(), validate=False)


def d_infty(cb_a, cb_b) -> float:
    """Uniform (sup) metric between the CDFs of two same-resolution boards.

    The CDF difference is bilinear on each cell, so the supremum over the unit
    square is attained at a cell corner; both CDFs are 0 on the lower and left edges.
    """
    ma, mb = _mass_of(cb_a), _mass_of(cb_b)
    _check_same_resolution(ma, mb)
    corners = [np.cumsum(np.cumsum(m, axis=0), axis=1) for m in (ma, mb)]
    return float(np.max(np.abs(corners[0] - corners[1])))


def _interpolate(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The piecewise-linear CDFs with values c[..., j] at j/N, j = 0..N, at each
    y in [0, 1]: c[..., j]·(1 − s) + c[..., j + 1]·s, j = ⌊yN⌋ (N − 1 at y = 1)."""
    N = c.shape[-1] - 1
    pos = y * N
    j = np.clip(pos.astype(int), 0, N - 1)
    s = pos - j
    return c[..., j] * (1.0 - s) + c[..., j + 1] * s


def d_infty_markov(cb_a, cb_b) -> float:
    """Sup over y of the x-averaged absolute conditional-CDF difference.

    The map y -> integral_x |K_A - K_B| is piecewise linear with kinks at the
    cell boundaries and at interior sign changes of each strip difference, so
    the supremum is the maximum over that finite candidate set.
    """
    ma, mb = _mass_of(cb_a), _mass_of(cb_b)
    _check_same_resolution(ma, mb)
    N = ma.shape[0]
    e = _boundary_cdfs(ma) - _boundary_cdfs(mb)  # (N, N+1)
    e0, e1 = e[:, :-1], e[:, 1:]
    strip_idx, cell_idx = np.nonzero(e0 * e1 < 0.0)
    a, b = e0[strip_idx, cell_idx], e1[strip_idx, cell_idx]
    roots = (cell_idx + a / (a - b)) / N
    candidates = np.concatenate([np.arange(N + 1) / N, roots])
    vals = _interpolate(e, candidates)  # (N, n_candidates)
    phi = np.abs(vals).sum(axis=0) / N
    return float(phi.max())


def conditional_cdf(cb, strip: int, y):
    """Conditional CDF of the second coordinate given the first-strip index.

    ``strip`` is 1-based (1 <= strip <= N).  The CDF is piecewise linear with
    value N * cumulative strip mass at each cell boundary.
    """
    mass = _mass_of(cb)
    strip = _check_count("strip", strip, 1, mass.shape[0])
    out = _interpolate(_boundary_cdfs(mass)[strip - 1], _unit_coordinates(y, "y"))
    return float(out) if out.ndim == 0 else out


def extremal_metric_pair(resolution: int):
    """A pair of N-checkerboards attaining D_infty = 2(N-1) * d_infty.

    Requires even N.  Both boards split each strip's mass uniformly over the
    lower or upper half of the cells; the strip-wise below-mass alternates so
    that the CDF difference oscillates with amplitude 1/(2N) while the
    conditional CDFs disagree fully on the interior strips, giving
    d_infty = 1/(2N) and D_infty = (N-1)/N.
    """
    N = _check_count("resolution", resolution, 2, MAX_RESOLUTION)
    if N % 2:
        raise ValueError("resolution must be an even integer >= 2")
    full = 1.0 / N
    half = 1.0 / (2 * N)
    below_a = np.zeros(N)
    below_b = np.zeros(N)
    below_a[0] = below_a[-1] = half
    below_a[1:-1:2] = full  # interior strips alternate, offset by one
    below_b[0] = full
    below_b[2:-1:2] = full

    def build(below):
        mass = np.empty((N, N))
        mass[:, : N // 2] = (below / (N / 2))[:, None]
        mass[:, N // 2 :] = ((full - below) / (N / 2))[:, None]
        return CheckerboardCopula(mass)

    return build(below_a), build(below_b)
