"""The tie-group product of dense boards against the dgemm it replaces above
``copula.DGEMM_MAX_CELLS``.

Setting the threshold to 0 sends every dense board through ``_group_board``;
setting it above any input keeps every one on the dgemm of the (m, N) overlap
matrices.  The two sum in different orders, so they agree to rounding, not
bitwise.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qad import BivariateSample, QadOptions, copula, qad_compute
from qad.copula import (
    MASS_TOL,
    CheckerboardCopula,
    _boards_from_ranks,
    _fit_boards,
    _permuted_boards,
    checkerboard_aggregate,
    pseudo_observations,
)
from qad.estimator import _asymmetry_null, _dependence_null, _observed_pairs, _prepare

from helpers import _dense

GROUP, DGEMM = 0, 1 << 62


def _boards(sample, resolution, threshold):
    """Every board the library builds for ``sample`` at ``resolution``, with
    ``copula.DGEMM_MAX_CELLS`` at ``threshold``: the fit's two, the per-element
    board of the observed statistic, and three dependence replicates."""
    pobs = pseudo_observations(sample)
    ranks = (pobs.ranks_u, pobs.ties_u, pobs.ranks_v, pobs.ties_v)
    perms = np.stack([np.random.default_rng(b).permutation(sample.n) for b in range(3)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(copula, "DGEMM_MAX_CELLS", threshold)
        fit = [b.mass for b in _fit_boards(pobs, resolution)]
        element = _boards_from_ranks(*(a[None] for a in ranks), sample.n, resolution)
        replicates = _permuted_boards(pobs, resolution)(perms)
    return np.concatenate([np.stack(fit), element, replicates])


def _check_group_product(xs, ys, resolution):
    sample = BivariateSample(xs, ys)
    group, dgemm = _boards(sample, resolution, GROUP), _boards(sample, resolution, DGEMM)
    assert np.abs(group - dgemm).max() <= 1e-15
    for margin in (group.sum(axis=1), group.sum(axis=2)):
        assert np.abs(margin - 1.0 / resolution).max() <= MASS_TOL
    return _dense(pseudo_observations(sample), resolution)


def _ties(values, n):
    return np.repeat(np.asarray(values, dtype=float), n // len(values))


class TestAgreesWithDgemm:
    @pytest.mark.parametrize(
        "xs, ys, resolution",
        [
            pytest.param(np.r_[np.zeros(30), np.arange(1.0, 71.0)], np.sin(np.arange(100.0)), 8,
                         id="one_wide_group"),
            pytest.param(np.r_[_ties([0, 1, 2], 60), np.arange(3.0, 43.0)],
                         np.cos(np.arange(100.0)), 9, id="several_wide_groups"),
            pytest.param(np.r_[np.zeros(40), np.arange(1.0, 61.0)],
                         np.r_[np.arange(50.0), np.full(50, 99.0)], 7, id="wide_on_both_margins"),
            pytest.param(np.r_[np.zeros(40), np.sin(np.arange(60.0))],
                         np.r_[np.zeros(20), np.ones(30), np.cos(np.arange(50.0))], 6,
                         id="wide_by_wide_elements"),
            pytest.param(np.full(50, 2.5), np.arange(50.0), 5, id="all_wide_margin"),
            pytest.param(_ties([1, 2], 50), _ties([3, 4, 5, 6, 7], 50), 4, id="all_wide_both"),
            pytest.param(np.r_[np.zeros(30), np.arange(1.0, 71.0)], np.arange(100.0), 1, id="N1"),
            pytest.param(np.r_[np.zeros(5), np.arange(1.0, 6.0)], np.arange(10.0), 13,
                         id="override_above_n"),
        ],
    )
    def test_tie_patterns(self, xs, ys, resolution):
        dense = _check_group_product(xs, ys, resolution)
        assert dense == (resolution > 1)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        st.integers(2, 150).flatmap(
            lambda n: st.tuples(
                *(
                    st.tuples(
                        st.sampled_from([1, 2, 3, 6, 10**6]),
                        st.lists(st.integers(0, 10**6), min_size=n, max_size=n),
                        st.lists(st.integers(0, 3), min_size=n, max_size=n),
                    )
                    for _ in range(2)
                )
            )
        ),
        st.integers(1, 14),
    )
    def test_random_tie_patterns(self, margins, resolution):
        # each margin takes `levels` distinct values, and about a quarter of
        # its elements are set to 0: a zero-inflated column
        xs, ys = (
            np.where(np.array(zero) == 0, 0.0, np.array(values) % levels)
            for levels, values, zero in margins
        )
        _check_group_product(xs, ys, resolution)

    @pytest.mark.parametrize("M, N", [(3, 7), (4, 10), (2, 5)])
    def test_refining_a_checkerboard(self, M, N, monkeypatch):
        # every cell of an M-board is wider than a strip of a finer N-board
        mass = np.random.default_rng(M).dirichlet(np.ones(M * M)).reshape(M, M)
        source = CheckerboardCopula(mass, validate=False)
        monkeypatch.setattr(copula, "DGEMM_MAX_CELLS", DGEMM)
        dgemm = checkerboard_aggregate(source, N).mass
        monkeypatch.setattr(copula, "DGEMM_MAX_CELLS", GROUP)
        assert np.abs(checkerboard_aggregate(source, N).mass - dgemm).max() <= 1e-15


def _zero_inflated(n, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=n)
    x[rng.random(n) < 0.4] = 0.0
    return BivariateSample(x, x + rng.normal(0.0, 0.2, n))


class TestAboveThreshold:
    """n = 10k, N = 77: the (n, N) matrices would hold 770k cells, more than
    ``DGEMM_MAX_CELLS``, so every board takes the tie-group product."""

    sample = _zero_inflated(10_000)

    def test_takes_the_group_product(self, monkeypatch):
        calls = []
        original = copula._group_board

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(copula, "_group_board", counting)
        qad_compute(self.sample, QadOptions(permutations=2, seed=1))
        pobs, N = _prepare(self.sample)
        assert _dense(pobs, N) and self.sample.n * N > copula.DGEMM_MAX_CELLS
        # the fit's two boards and two replicates of each test; y is tie-free,
        # so the fit's board_xy also scores the observed statistic
        assert len(calls) == 6

    @pytest.mark.parametrize("kernel", ["group_product", "dgemm", "two_strip"])
    def test_replicates_are_the_permuted_samples_boards(self, kernel, monkeypatch):
        # the dependence test prepares both sides once and gathers the y side
        # per replicate; whichever kernel ``copula._boards`` chooses, that gives
        # the boards of the permuted samples exactly
        if kernel == "dgemm":
            monkeypatch.setattr(copula, "DGEMM_MAX_CELLS", DGEMM)
        sample = self.sample
        if kernel == "two_strip":
            x = np.random.default_rng(4).uniform(size=sample.n)
            sample = BivariateSample(x, x + np.random.default_rng(5).normal(0.0, 0.2, sample.n))
        pobs, N = _prepare(sample)
        assert _dense(pobs, N) == (kernel != "two_strip")
        perms = np.stack([np.random.default_rng(b).permutation(sample.n) for b in range(2)])
        ru, tu, rv, tv = pobs.ranks_u, pobs.ties_u, pobs.ranks_v, pobs.ties_v
        direct = _boards_from_ranks(ru[None], tu[None], rv[perms], tv[perms], sample.n, N)
        ran = []
        for name in ("_group_board", "_weights"):
            original = getattr(copula, name)
            monkeypatch.setattr(copula, name, lambda *a, f=original, k=name: ran.append(k) or f(*a))
        assert np.array_equal(_permuted_boards(pobs, N)(perms), direct)
        expected = {"group_product": {"_group_board"}, "dgemm": {"_weights"}, "two_strip": set()}
        assert set(ran) == expected[kernel]

    def test_swap_antisymmetry_is_exact(self):
        direct = qad_compute(self.sample)
        swapped = qad_compute(self.sample.swapped())
        assert swapped.q_xy == direct.q_yx
        assert swapped.q_yx == direct.q_xy
        assert swapped.asymmetry == -direct.asymmetry

    def test_replicates_do_not_depend_on_threads(self):
        opts = [QadOptions(permutations=6, seed=5, threads=t) for t in (1, 2)]
        assert qad_compute(self.sample, opts[0]) == qad_compute(self.sample, opts[1])


def test_boards_above_the_crossover_take_the_group_product(monkeypatch):
    # n = 3000, N = 42: 126 000 cells per overlap matrix, above the crossover
    # where the serial group product overtakes the dgemm; every board of the
    # fit, the observed statistic and both tests' replicates takes it
    sample = _zero_inflated(3000)
    pobs, N = _prepare(sample)
    assert N == 42 and _dense(pobs, N) and sample.n * N > copula.DGEMM_MAX_CELLS
    calls = []
    original = copula._group_board
    monkeypatch.setattr(copula, "_group_board", lambda *a: calls.append(1) or original(*a))

    def group_boards(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    assert group_boards(_fit_boards, pobs, N) == 2
    assert group_boards(_observed_pairs, pobs, N) == 1
    assert group_boards(_dependence_null, pobs, N, 3, 1) == 3
    assert group_boards(_asymmetry_null, pobs, N, 3, 1) == 3
    direct, swapped = qad_compute(sample), qad_compute(sample.swapped())
    assert swapped.q_xy == direct.q_yx
    assert swapped.q_yx == direct.q_xy
    assert swapped.asymmetry == -direct.asymmetry


@pytest.mark.parametrize("margin", [0, 1])
def test_sample_and_swap_choose_the_same_path(margin, monkeypatch):
    # at the threshold the dgemm serves, one cell below it the group product;
    # the tie groups sit in either margin
    rng = np.random.default_rng(9)
    tied = np.where(rng.random(600) < 0.4, 0.0, rng.random(600))
    xs, ys = (tied, rng.random(600)) if margin == 0 else (rng.random(600), tied)
    sample = BivariateSample(xs, ys)
    pobs, N = _prepare(sample)
    assert _dense(pobs, N)
    paths = []
    original = copula._group_board
    monkeypatch.setattr(copula, "_group_board", lambda *a: paths.append(1) or original(*a))
    for threshold, group in ((sample.n * N, False), (sample.n * N - 1, True)):
        monkeypatch.setattr(copula, "DGEMM_MAX_CELLS", threshold)
        for s in (sample, sample.swapped()):
            paths.clear()
            qad_compute(s)
            assert bool(paths) == group


def test_large_heavy_tie_fit_memory():
    # a 200k-row, 40 %-zero pair (N = 346): its (n, N) overlap matrices would
    # hold 69M cells (554 MB) each; the group product needs O(n) memory
    sample = _zero_inflated(200_000, seed=0)
    tracemalloc.start()
    try:
        result = qad_compute(sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.resolution == 346
    assert peak <= 64e6, peak
