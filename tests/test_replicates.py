"""Pinned permutation replicates: the chunked replicate engine must reproduce,
bit for bit, the p-values and null statistics of the one-replicate-at-a-time
implementation it replaced.

The PINNED values were recorded from that implementation.  A null statistic
hash is the SHA-256 of the little-endian float64 bytes of the (B, 2) array
of replicate (q_xy, q_yx) pairs, in replicate order.
"""

import hashlib
import os
import sys

import numpy as np
import pytest

from qad import (
    BivariateSample,
    QadOptions,
    permutation_test_asymmetry,
    permutation_test_dependence,
    qad_compute,
    resolution_rule,
)
from qad import copula
from qad._workers import usable_cpus
from qad.copula import (
    CheckerboardCopula,
    _boards_from_ranks,
    _max_ranks,
    _zeta1_stack,
    zeta1,
)
from qad.estimator import (
    _asymmetry_null,
    _dependence_null,
    _observed_pairs,
    _prepare,
    _replicate_chunks,
    _stack_max_ranks,
)


def _dependence_replicates(sample, B, seed, resolution):
    """Observed (q_xy, q_yx) and the (B, 2) replicate pairs of the dependence test."""
    pobs, N = _prepare(sample, resolution)
    return _observed_pairs(pobs, N), _dependence_null(pobs, N, B, seed)


def _asymmetry_replicates(sample, B, seed, resolution):
    """Observed (q_xy, q_yx) and the (B, 2) replicate pairs of the asymmetry test."""
    pobs, N = _prepare(sample, resolution)
    return _observed_pairs(pobs, N), _asymmetry_null(pobs, N, B, seed)


def _board_from_ranks(ranks_u, ties_u, ranks_v, ties_v, n, resolution):
    """One sample's board, a stack of one through ``_boards_from_ranks``."""
    ranks = (ranks_u, ties_u, ranks_v, ties_v)
    return _boards_from_ranks(*(a[None] for a in ranks), n, resolution)[0]


def _tie_free(n=1000):
    rng = np.random.default_rng(101)
    xs = rng.uniform(-1.0, 1.0, n)
    return BivariateSample(xs, xs**2 + rng.normal(0.0, 0.1, n))


def _rounded():
    rng = np.random.default_rng(102)
    xs = rng.normal(size=500)
    return BivariateSample(np.round(xs, 1), np.round(np.sin(2 * xs) + rng.normal(0, 0.3, 500), 1))


def _zero_inflated(n):
    rng = np.random.default_rng(103)
    xs = rng.random(n)
    ys = xs + rng.normal(0.0, 0.2, n)
    return BivariateSample(np.where(rng.random(n) < 0.4, 0.0, xs), ys)


def _constant_margin():
    rng = np.random.default_rng(104)
    return BivariateSample(np.full(30, 2.5), rng.random(30))


def _uniform(n):
    rng = np.random.default_rng(105)
    return BivariateSample(rng.random(n), rng.random(n))


#: name -> (sample factory, B, seed)
CASES = {
    "tie_free_n1000_b999": (_tie_free, 999, 7),
    "rounded_ties": (_rounded, 199, 8),
    "zero_inflated_dense": (lambda: _zero_inflated(300), 199, 9),
    "zero_inflated_mixed": (lambda: _zero_inflated(40), 199, 10),
    "n2": (lambda: BivariateSample([1.0, 2.0], [2.0, 1.0]), 9, 11),
    "constant_margin": (_constant_margin, 19, 12),
    "independent_n500": (lambda: _uniform(500), 299, 15),
    "b1": (lambda: _uniform(200), 1, 13),
    "b17_n1000": (lambda: _tie_free(1000), 17, 14),
}

#: name -> dependence (p_xy, p_yx) and null hash, asymmetry p and null hash
PINNED = {
    "b1": (
        (0.5, 1.0),
        "c720b694139448e85856011be60f6a8a8cea636aac2751ce9bd0dba13db01ef8",
        0.5,
        "7a9bfc770b9ffa48bba07fa5357832de457d298d70fa59045ccb65452a402ba9",
    ),
    "b17_n1000": (
        (0.05555555555555555, 0.05555555555555555),
        "538940fb7f4eb188c8317dabddb5fb149405fded74f515267ddd4b6170c8d2f5",
        0.05555555555555555,
        "dfe7cd6c78d2ae6e4da6158a0d07a48516ef24b63bf32c9915a65af7d71c189f",
    ),
    "constant_margin": (
        (1.0, 1.0),
        "8adf539c8a0360cb765004fe684d4c83977d26ecfca77dfee7a9d6a1474f7ba0",
        1.0,
        "8adf539c8a0360cb765004fe684d4c83977d26ecfca77dfee7a9d6a1474f7ba0",
    ),
    "independent_n500": (
        (0.10333333333333333, 0.42),
        "bb0a1ac43f6fbdce711eadf5061198f69547c2d301994fdb8b1ce4e263076249",
        0.49333333333333335,
        "5dad206bf59a2c2c1697e0c1710f91319e25826c23af6bd785e7c1654346908e",
    ),
    "n2": (
        (1.0, 1.0),
        "81c611f35bff79491538b2f7cf201c7597a661a5c549633541c62bdc8af1613f",
        1.0,
        "81c611f35bff79491538b2f7cf201c7597a661a5c549633541c62bdc8af1613f",
    ),
    "rounded_ties": (
        (0.005, 0.005),
        "64044706da1d4c85e7c52afd7134765ee5df9bc7c29a590deeba68f909c1f482",
        0.005,
        "37a3e469b5d9623433f4bd072b8977d3221de2641f5616099134fbcec1227ed9",
    ),
    "tie_free_n1000_b999": (
        (0.001, 0.001),
        "5de7dad9c8488c977072c072ef2779ed5c37767b2e5d2bf8eece0418f0ec69bb",
        0.001,
        "98df95bbc8e3b303b8cca078df549782d1d3bc9587812ebaf674433f1efc922f",
    ),
    "zero_inflated_dense": (
        (0.005, 0.005),
        "0c6a49492c7a262588e07ddcd6b8f2a3350986f00bf992b57e4362e3398ea586",
        0.005,
        "bc9d229a7421e270689918174808a6081ce4ec79efe9c2e690cddc48c3eb0110",
    ),
    "zero_inflated_mixed": (
        (0.005, 0.02),
        "ca1cf4f7386ae588f58088dd92caa13b0d28c3c25db3d44625a842a7f8715745",
        0.135,
        "b34686574438f47cffedd561a8c7abcba869db360e8affa4bd2988fc28dcb803",
    ),
}


def _sha(null):
    return hashlib.sha256(np.ascontiguousarray(null, dtype="<f8").tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_dependence_pinned(name):
    make, B, seed = CASES[name]
    p, null_sha, _, _ = PINNED[name]
    sample = make()
    _, null = _dependence_replicates(sample, B, seed, None)
    assert _sha(null) == null_sha
    assert permutation_test_dependence(sample, B, seed) == p


@pytest.mark.parametrize("name", sorted(CASES))
def test_asymmetry_pinned(name):
    make, B, seed = CASES[name]
    _, _, p, null_sha = PINNED[name]
    sample = make()
    _, null = _asymmetry_replicates(sample, B, seed, None)
    assert _sha(null) == null_sha
    assert permutation_test_asymmetry(sample, B, seed) == p


@pytest.mark.skipif(
    sys.platform != "linux" or usable_cpus() < 2, reason="forks only on Linux with 2 or more CPUs"
)
@pytest.mark.parametrize(
    "name", ["tie_free_n1000_b999", "rounded_ties", "zero_inflated_dense", "independent_n500"]
)
def test_pinned_at_two_workers(name, monkeypatch):
    """The cases with at least two full chunks split their replicates over two
    worker processes and still give the pinned nulls."""
    make, B, seed = CASES[name]
    _, dependence_sha, _, asymmetry_sha = PINNED[name]
    pobs, N = _prepare(make())
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(fork()) or forks[-1])
    assert _sha(_dependence_null(pobs, N, B, seed, threads=2)) == dependence_sha
    assert _sha(_asymmetry_null(pobs, N, B, seed, threads=2)) == asymmetry_sha
    assert len(forks) == 2


def test_chunks_cover_every_replicate_once():
    for B, n, N in ((999, 1000, 31), (1, 1000, 31), (17, 1000, 31), (50, 2, 1), (5, 100, 500)):
        chunks = _replicate_chunks(B, n, N)
        assert [b for chunk in chunks for b in chunk] == list(range(B))
    # a board larger than the sample bounds the chunk by its cells
    assert len(_replicate_chunks(5, 100, 500)[0]) == 1
    assert len(_replicate_chunks(999, 1000, 31)[0]) == 16


def _reference_zeta1(mass):
    """The single-board zeta1 as a flat sum over the N x N cells."""
    N = mass.shape[0]
    e = np.zeros((N, N + 1))
    e[:, 1:] = np.cumsum(mass, axis=1) * N
    e -= _product_row(N)
    a0, a1 = np.abs(e[:, :-1]), np.abs(e[:, 1:])
    d0, d1 = e[:, :-1], e[:, 1:]
    base = np.where(
        d0 * d1 >= 0.0, (a0 + a1) / 2.0, (d0 * d0 + d1 * d1) / (2.0 * np.maximum(a0 + a1, 1e-300))
    )
    return min(1.0, max(0.0, 3.0 * float(base.sum() / (N * N))))


def _product_row(N):
    row = np.zeros(N + 1)
    row[1:] = np.cumsum(np.full(N, 1.0 / (N * N))) * N
    return row


def _resolution(sample):
    return resolution_rule(sample.n, np.unique(sample.xs).size, np.unique(sample.ys).size)


def _swapped_rank_stack(sample, C, seed):
    """(R_u, t_u, R_v, t_v) stacks after C random coordinate swaps, ranked one by one."""
    ru, _ = _max_ranks(sample.xs)
    rv, _ = _max_ranks(sample.ys)
    swap = np.random.default_rng(seed).random((C, sample.n)) < 0.5
    rows = [
        (*_max_ranks(x), *_max_ranks(y))
        for x, y in zip(np.where(swap, rv, ru), np.where(swap, ru, rv))
    ]
    return [np.stack(parts) for parts in zip(*rows)]


def test_counting_ranks_equal_sorting_ranks():
    sample = CASES["zero_inflated_mixed"][0]()
    ru, _ = _max_ranks(sample.xs)
    rv, _ = _max_ranks(sample.ys)
    swap = np.random.default_rng(4).random((24, sample.n)) < 0.5
    rub, tub, rvb, tvb = _swapped_rank_stack(sample, 24, 4)
    for values, ranks, ties in ((np.where(swap, rv, ru), rub, tub), (np.where(swap, ru, rv), rvb, tvb)):
        counted_ranks, counted_ties = _stack_max_ranks(values, sample.n)
        assert np.array_equal(counted_ranks, ranks)
        assert np.array_equal(counted_ties, ties)


@pytest.mark.parametrize("name", ["zero_inflated_mixed", "rounded_ties", "tie_free_n1000_b999"])
def test_stacked_boards_equal_single_boards(name):
    sample = CASES[name][0]()
    n, N = sample.n, _resolution(sample)
    rub, tub, rvb, tvb = _swapped_rank_stack(sample, 24, 3)
    stack = _boards_from_ranks(rub, tub, rvb, tvb, n, N)
    for c in range(stack.shape[0]):
        single = _board_from_ranks(rub[c], tub[c], rvb[c], tvb[c], n, N)
        assert np.array_equal(stack[c], single)
    # shared x margin passed once, permuted y margins stacked
    ru, tu = _max_ranks(sample.xs)
    rv, tv = _max_ranks(sample.ys)
    perms = np.stack([np.random.default_rng(b).permutation(n) for b in range(8)])
    shared = _boards_from_ranks(ru[None], tu[None], rv[perms], tv[perms], n, N)
    for c, perm in enumerate(perms):
        assert np.array_equal(shared[c], _board_from_ranks(ru, tu, rv[perm], tv[perm], n, N))


def test_mixed_swaps_build_rows_of_both_kinds():
    sample = CASES["zero_inflated_mixed"][0]()
    n, N = sample.n, _resolution(sample)
    _, tub, _, tvb = _swapped_rank_stack(sample, 24, 3)
    fits = (tub.max(axis=1) * N <= n) & (tvb.max(axis=1) * N <= n)
    assert fits.any() and not fits.all()


def test_dense_boards_overlap_only_wide_tie_groups(monkeypatch):
    """The dense path runs the clip/diff overlap formula once per distinct tie
    group wider than a strip, and the dependence test builds its overlap
    matrices once rather than once per replicate."""
    sample = _zero_inflated(2000)
    calls = []
    reference = copula._delta_overlap_matrix

    def recording(lo, hi, strip_width, resolution):
        calls.append((lo.copy(), hi.copy(), strip_width))
        return reference(lo, hi, strip_width, resolution)

    monkeypatch.setattr(copula, "_delta_overlap_matrix", recording)
    qad_compute(sample, QadOptions(permutations=9, seed=1))
    assert calls
    for lo, hi, strip_width in calls:
        assert np.unique(lo).size == lo.size
        assert (hi - lo > strip_width).all()
    per_b = []
    for B in (1, 9):
        calls.clear()
        permutation_test_dependence(sample, B, seed=1)
        per_b.append(len(calls))
    assert per_b[0] == per_b[1]


@pytest.mark.parametrize("N", [1, 2, 31, 95, 316])
def test_stacked_zeta1_equals_single_zeta1(N):
    rng = np.random.default_rng(N)
    stack = rng.random((3, N, N)) / (N * N)
    values = _zeta1_stack(stack)
    transposed = _zeta1_stack(stack.transpose(0, 2, 1))
    for c in range(3):
        assert values[c] == zeta1(CheckerboardCopula(stack[c], validate=False))
        assert values[c] == _reference_zeta1(stack[c])
        assert transposed[c] == _reference_zeta1(stack[c].T)
