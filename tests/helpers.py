"""Shared test utilities: independent oracles, reference kernels and
random-board generation.

The oracles here deliberately avoid the library's closed-form code paths:
metric values are recomputed by brute-force Riemann summation and cell masses
by direct rectangle-intersection arithmetic, so agreement is evidence rather
than tautology.  The reference kernels at the end are the straightforward
forms of two optimized library kernels, which must match them bit for bit,
and the last builds a replicate generator with numpy's own seeding, which the
estimator's batched seeding must reproduce draw for draw.
"""

import numpy as np


def sinkhorn_board(rng, resolution, iterations=4000):
    """Random doubly-stochastic mass matrix (scaled), via Sinkhorn balancing."""
    m = rng.random((resolution, resolution)) + 0.05
    for _ in range(iterations):
        m /= m.sum(axis=1, keepdims=True) * resolution
        m /= m.sum(axis=0, keepdims=True) * resolution
        if (
            np.abs(m.sum(axis=1) - 1.0 / resolution).max() < 1e-14
            and np.abs(m.sum(axis=0) - 1.0 / resolution).max() < 1e-14
        ):
            break
    return m


def boundary_cdf_rows(mass):
    """Conditional CDF values at cell boundaries (independent reimplementation)."""
    n = mass.shape[0]
    out = np.zeros((n, n + 1))
    out[:, 1:] = np.cumsum(mass, axis=1) * n
    return out


def _kernel_values(mass, ys):
    """K(strip i, [0, y]) for every strip at the given y values, by interpolation."""
    n = mass.shape[0]
    c = boundary_cdf_rows(mass)
    pos = ys * n
    j = np.minimum(pos.astype(int), n - 1)
    s = pos - j
    return c[:, j] * (1.0 - s) + c[:, j + 1] * s  # (n, len(ys))


def riemann_d1_pi(mass, steps=2000):
    """Brute-force double Riemann sum of D1(board, product) on a steps^2 grid."""
    n = mass.shape[0]
    ys = (np.arange(steps) + 0.5) / steps
    xs = (np.arange(steps) + 0.5) / steps
    strips = np.minimum((xs * n).astype(int), n - 1)
    f = _kernel_values(mass, ys)
    fx = f[strips]  # (steps, steps)
    return float(np.mean(np.abs(fx - ys[None, :])))


def riemann_d1(mass_a, mass_b, steps=2000):
    n = mass_a.shape[0]
    ys = (np.arange(steps) + 0.5) / steps
    xs = (np.arange(steps) + 0.5) / steps
    strips = np.minimum((xs * n).astype(int), n - 1)
    fa = _kernel_values(mass_a, ys)[strips]
    fb = _kernel_values(mass_b, ys)[strips]
    return float(np.mean(np.abs(fa - fb)))


def riemann_d_infty_markov(mass_a, mass_b, steps=4000):
    """Grid approximation of sup_y of the x-averaged kernel difference."""
    n = mass_a.shape[0]
    ys = np.linspace(0.0, 1.0, steps)
    fa = _kernel_values(mass_a, ys)
    fb = _kernel_values(mass_b, ys)
    return float(np.max(np.mean(np.abs(fa - fb), axis=0)))


def overlap_cell_masses(rects, resolution):
    """Cell masses by direct interval intersection, one rectangle at a time.

    ``rects`` holds (u_lo, u_hi, v_lo, v_hi, mass) tuples in [0, 1] floats.
    """
    out = np.zeros((resolution, resolution))
    bounds = np.arange(resolution + 1) / resolution
    for u_lo, u_hi, v_lo, v_hi, mass in rects:
        for i in range(resolution):
            du = min(u_hi, bounds[i + 1]) - max(u_lo, bounds[i])
            if du <= 0:
                continue
            fx = du / (u_hi - u_lo)
            for j in range(resolution):
                dv = min(v_hi, bounds[j + 1]) - max(v_lo, bounds[j])
                if dv <= 0:
                    continue
                out[i, j] += mass * fx * dv / (v_hi - v_lo)
    return out


def ecop_rect_tuples(ecop):
    """(u_lo, u_hi, v_lo, v_hi, mass) tuples of an empirical copula's rectangles."""
    n = ecop.n
    return [
        ((ru - r) / n, ru / n, (rv - s) / n, rv / n, t / n)
        for ru, rv, r, s, t in zip(
            ecop.ranks_u, ecop.ranks_v, ecop.ties_u, ecop.ties_v, ecop.counts
        )
    ]


def strip_conditional_counts(xs, ys, resolution):
    """Direct counting oracle: conditional strip frequencies from rank strips.

    Valid for tie-free samples whose size is a multiple of the resolution,
    where every observation falls in exactly one rank strip per axis.
    """
    n = len(xs)
    per = n // resolution
    rx = np.argsort(np.argsort(xs))  # 0-based ranks, no ties assumed
    ry = np.argsort(np.argsort(ys))
    counts = np.zeros((resolution, resolution))
    for i in range(n):
        counts[rx[i] // per, ry[i] // per] += 1
    return counts / per


def unique_max_ranks(values):
    """Max-ranks (R, t) by ``np.unique``: R[i] = #{v_j <= v_i}, t[i] = #{v_j == v_i}."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return np.cumsum(counts)[inverse], counts[inverse]


def dedup_empirical_copula(pobs):
    """Empirical copula fields (ranks_u, ranks_v, ties_u, ties_v, counts) by
    deduplicating the pseudo-observation pairs, in first-appearance order."""
    codes = pobs.ranks_u * (pobs.n + 1) + pobs.ranks_v
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    order = np.argsort(first)
    first = first[order]
    return (
        pobs.ranks_u[first],
        pobs.ranks_v[first],
        pobs.ties_u[first],
        pobs.ties_v[first],
        counts[order],
    )


def ecop_rects(ecop):
    """The (u', v', r, s, t) records of an empirical copula, one per distinct pair."""
    n = ecop.n
    return [
        (ru / n, rv / n, int(r), int(s), int(t))
        for ru, rv, r, s, t in zip(
            ecop.ranks_u, ecop.ranks_v, ecop.ties_u, ecop.ties_v, ecop.counts
        )
    ]


def margin_masses(ecop, axis):
    """Total mass of an empirical copula per 1/n-slab along ``axis`` (0 = first
    coordinate), one rectangle at a time; uniform margins give 1/n everywhere."""
    if axis == 0:
        ranks, ties = ecop.ranks_u, ecop.ties_u
    elif axis == 1:
        ranks, ties = ecop.ranks_v, ecop.ties_v
    else:
        raise ValueError("axis must be 0 or 1")
    out = np.zeros(ecop.n)
    masses = ecop.counts / (ecop.n * ties)  # mass per covered slab
    for rank, tie, m in zip(ranks, ties, masses):
        out[rank - tie : rank] += m
    return out


def _dense(pobs, resolution):
    """Whether a fit at resolution N is dense: some tie rectangle, t/n wide, is
    wider than a strip, 1/N, so that ``copula._boards`` takes the dgemm or the
    tie-group product rather than the two-strip bincount."""
    return max(int(pobs.ties_u.max()), int(pobs.ties_v.max())) * resolution > pobs.n


# Reference kernels: the two-strip aggregation and the zeta1 cell integral as
# they were before the library skipped their exactly-zero work.  They evaluate
# every entry and both branches everywhere; the library must equal them bit
# for bit.


def four_block_two_strip_split(lo, hi, strip_width):
    """Strip indices and first-strip weight, the weight evaluated for every span."""
    i0 = lo // strip_width
    i1 = (hi - 1) // strip_width
    boundary = (i0 + 1) * strip_width
    span = (hi - lo).astype(float)
    w0 = np.where(i1 > i0, (boundary - lo) / span, 1.0)
    return i0, i1, w0


def four_block_two_strip_boards(u_split, v_split, masses, resolution):
    """Cell masses (C, N, N): all four (strip, strip) entries of every rectangle,
    zero weights included, board by board in one bincount."""
    i0, i1, wu = u_split
    j0, j1, wv = v_split
    N = resolution
    C = np.broadcast_shapes(np.shape(i0), np.shape(j0))[0]
    idx = np.concatenate([ii * N + jj for ii in (i0, i1) for jj in (j0, j1)], axis=1)
    if C > 1:
        idx += np.arange(C)[:, None] * (N * N)
    w = np.concatenate(
        [masses * wi * wj for wi in (wu, 1.0 - wu) for wj in (wv, 1.0 - wv)], axis=1
    )
    flat = np.bincount(idx.ravel(), weights=w.ravel(), minlength=C * N * N)
    return flat.reshape(C, N, N)


def where_abs_linear_cell_base(d0, d1):
    """Integral of |linear segment from d0 to d1| over a unit-width cell, both
    the trapezoid and the root split evaluated everywhere."""
    a0 = np.abs(d0)
    a1 = np.abs(d1)
    denom = np.maximum(a0 + a1, 1e-300)
    return np.where(d0 * d1 >= 0.0, (a0 + a1) / 2.0, (d0 * d0 + d1 * d1) / (2.0 * denom))


def where_cells_integral(e):
    """Integral of |K| over the unit square for each (N, N + 1) boundary-value
    grid of a (C, N, N + 1) stack, the N * N cells summed as one row."""
    C, N = e.shape[:2]
    base = where_abs_linear_cell_base(e[..., :-1], e[..., 1:])
    return base.reshape(C, N * N).sum(axis=1) / (N * N)


def where_d1_pi_stack(mass):
    """D1 distance from the product copula of each board of a (C, N, N) stack,
    on the (N, N + 1) boundary grids."""
    N = mass.shape[-1]
    e = np.zeros(mass.shape[:-1] + (N + 1,))
    e[..., 1:] = np.cumsum(mass, axis=-1) * N
    row = np.zeros(N + 1)
    row[1:] = np.cumsum(np.full(N, 1.0 / (N * N))) * N
    e -= row
    return where_cells_integral(e)


def reference_replicate_rng(seed, stream, replicate):
    """The generator of permutation replicate ``replicate`` of test ``stream``,
    built the documented way: numpy's own SeedSequence and PCG64 seeding."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, replicate)))
