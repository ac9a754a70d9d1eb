"""Shared test utilities: independent oracles and random-board generation.

The oracles here deliberately avoid the library's closed-form code paths:
metric values are recomputed by brute-force Riemann summation and cell masses
by direct rectangle-intersection arithmetic, so agreement is evidence rather
than tautology.
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
