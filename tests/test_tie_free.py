"""The tie-free shortcuts of ranking and of the empirical copula, the dense
fit's overlap matrices, and column-wise CSV conversion.

``_max_ranks`` and ``empirical_copula`` skip their group bookkeeping when the
sample has no ties; every result must equal the ``np.unique`` references in
helpers.py, integer dtypes included, whichever branch is taken.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qad.copula
from qad import BivariateSample, QadOptions, empirical_copula, ingest_csv, pseudo_observations
from qad import qad_compute
from qad import permutation_test_dependence
from qad.copula import _fit_boards, _max_ranks
from qad.estimator import _observed_pairs, _prepare, _q_pairs

from helpers import _dense, dedup_empirical_copula, unique_max_ranks

SPECIAL = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, 2.5, 1e-300, -1e300]


def _assert_same_ints(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _check_max_ranks(values):
    for got, want in zip(_max_ranks(values), unique_max_ranks(values)):
        _assert_same_ints(got, want)


class TestMaxRanks:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(SPECIAL),
                st.floats(allow_nan=False),
                st.integers(-3, 3).map(float),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_equals_unique_reference(self, values):
        values = np.array(values, dtype=float)
        _check_max_ranks(values)
        _check_max_ranks(np.sort(values))
        _check_max_ranks(np.sort(values)[::-1].copy())

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param([7.0], id="n1"),
            pytest.param([-0.0, 0.0, 0.0, -0.0], id="signed_zeros"),
            pytest.param([math.inf, -math.inf, math.inf, 0.0], id="infinities"),
            pytest.param(np.arange(50.0), id="sorted"),
            pytest.param(np.arange(50.0)[::-1], id="reversed"),
            pytest.param(np.full(9, 3.0), id="constant"),
        ],
    )
    def test_named_cases(self, values):
        _check_max_ranks(np.asarray(values, dtype=float))

    def test_signed_zeros_tie(self):
        ranks, ties = _max_ranks(np.array([0.0, -0.0, 1.0]))
        assert ranks.tolist() == [2, 2, 3]
        assert ties.tolist() == [2, 2, 1]


def _margin(kind, rng, n):
    if kind == "free":
        return rng.permutation(n) + rng.random(n) / 2
    if kind == "rounded":
        return np.round(rng.normal(size=n), 1)
    return np.where(rng.random(n) < 0.4, 0.0, rng.normal(size=n))  # zero-inflated


class TestEmpiricalCopula:
    @pytest.mark.parametrize(
        "kind_x, kind_y",
        [("free", "free"), ("free", "rounded"), ("zero", "free"), ("rounded", "zero"),
         ("rounded", "rounded")],
    )
    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_equals_dedup_reference(self, kind_x, kind_y, n):
        rng = np.random.default_rng(n)
        pobs = pseudo_observations(
            BivariateSample(_margin(kind_x, rng, n), _margin(kind_y, rng, n))
        )
        ecop = empirical_copula(pobs)
        got = (ecop.ranks_u, ecop.ranks_v, ecop.ties_u, ecop.ties_v, ecop.counts)
        for g, w in zip(got, dedup_empirical_copula(pobs)):
            _assert_same_ints(g, w)
        assert ecop.n == n

    def test_tie_free_sample_is_its_own_copula(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(size=200)
        pobs = pseudo_observations(BivariateSample(xs, np.round(xs, 1)))
        assert pobs.n_unique_u == pobs.n and pobs.n_unique_v < pobs.n
        ecop = empirical_copula(pobs)
        assert np.shares_memory(ecop.ranks_u, pobs.ranks_u)
        assert np.shares_memory(ecop.ties_v, pobs.ties_v)

    def test_tied_sample_is_deduplicated(self):
        pobs = pseudo_observations(BivariateSample([1, 1, 2, 3], [5, 5, 6, 6]))
        ecop = empirical_copula(pobs)
        assert ecop.counts.tolist() == [2, 1, 1]
        assert not np.shares_memory(ecop.ranks_u, pobs.ranks_u)


def test_dense_boards_build_their_overlap_matrices_once(monkeypatch):
    calls = []
    original = qad.copula._weights

    def counting(axis, resolution, masses):
        calls.append(bool((masses == 1.0).all()))
        return original(axis, resolution, masses)

    monkeypatch.setattr(qad.copula, "_weights", counting)
    rng = np.random.default_rng(8)
    xs = rng.normal(size=2000)
    sample = BivariateSample(np.where(rng.random(2000) < 0.4, 0.0, xs), xs + rng.normal(size=2000))
    pobs, N = _prepare(sample)
    assert _dense(pobs, N) and sample.n * N <= qad.copula.DGEMM_MAX_CELLS
    _fit_boards(pobs, 20)
    # per board, u scaled by the masses and v unscaled: board_xy, then board_yx
    assert calls == [False, True, False, True]
    calls.clear()
    qad_compute(sample)
    assert calls == [False, True, False, True]
    # the dependence null builds its two matrices once for every replicate,
    # and the observed statistic's board two more
    built = []
    for B in (1, 9):
        calls.clear()
        permutation_test_dependence(sample, B, seed=1)
        built.append(len(calls))
    assert built == [4, 4]


class TestObservedBoardReuse:
    """With a tie-free margin every pair is distinct, so the fitted board_xy is
    the per-element board that scores the observed permutation statistic."""

    @pytest.mark.parametrize("other", ["free", "zero", "rounded", "constant"])
    @pytest.mark.parametrize("n", [2, 7, 40, 2000])
    @pytest.mark.parametrize("free_side", ["x", "y"])
    def test_fitted_board_scores_as_the_observed_board(self, other, n, free_side):
        rng = np.random.default_rng(n)
        free = _margin("free", rng, n)
        tied = np.full(n, 3.0) if other == "constant" else _margin(other, rng, n)
        sample = BivariateSample(free, tied) if free_side == "x" else BivariateSample(tied, free)
        pobs = pseudo_observations(sample)
        if n <= 40:
            resolutions = range(1, 2 * n + 2)
        else:  # the rule's resolution (dense when zero-inflated) and overrides around it
            rule = math.isqrt(min(pobs.n_unique_u, pobs.n_unique_v))
            resolutions = [1, 2, rule, 3 * rule]
        for N in resolutions:
            fitted = _q_pairs(_fit_boards(pobs, N)[0].mass[None])[0]
            assert fitted.tobytes() == _observed_pairs(pobs, N).tobytes(), N

    @pytest.mark.parametrize(
        "kind_x, kind_y, rebuilds",
        [("free", "zero", 0), ("rounded", "free", 0), ("free", "free", 0), ("rounded", "zero", 1)],
    )
    def test_qad_compute_rebuilds_the_observed_board_only_with_ties_in_both_margins(
        self, monkeypatch, kind_x, kind_y, rebuilds
    ):
        import qad.estimator

        calls = []
        original = qad.estimator._observed_pairs

        def counting(pobs, resolution):
            calls.append(resolution)
            return original(pobs, resolution)

        monkeypatch.setattr(qad.estimator, "_observed_pairs", counting)
        rng = np.random.default_rng(12)
        sample = BivariateSample(_margin(kind_x, rng, 600), _margin(kind_y, rng, 600))
        result = qad_compute(sample, QadOptions(permutations=9, seed=2))
        assert len(calls) == rebuilds
        # the standalone tests rebuild it and reach the same p-values
        assert qad.estimator.permutation_test_dependence(sample, 9, seed=2) == (
            result.p_q_xy,
            result.p_q_yx,
        )
        assert qad.estimator.permutation_test_asymmetry(sample, 9, seed=2) == result.p_asymmetry


def _tie_pattern(draw, kind, n):
    """A margin of n values on a 0.01 grid: tie-free, with small tie groups,
    or with at least half its values at 0 (a tie group wider than a strip)."""
    if kind == "tied":
        values = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        values[-1] = values[0]  # at least one tie
    else:
        values = draw(st.lists(st.integers(-500, 500), min_size=n, max_size=n, unique=True))
        if kind == "zero":
            values[: (n + 1) // 2] = [0] * ((n + 1) // 2)
    return np.array(values, dtype=float) / 100


@st.composite
def mixed_samples(draw):
    n = draw(st.integers(2, 120))
    kinds = st.sampled_from(["free", "tied", "zero"])
    return BivariateSample(_tie_pattern(draw, draw(kinds), n), _tie_pattern(draw, draw(kinds), n))


class TestInvariantsOnBothBranches:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(mixed_samples(), st.sampled_from([0, 9]))
    def test_swap_antisymmetry_and_rank_invariance(self, sample, permutations):
        opts = QadOptions(permutations=permutations, seed=4)
        fwd = qad_compute(sample, opts)
        rev = qad_compute(sample.swapped(), opts)
        assert rev.q_yx == fwd.q_xy and rev.q_xy == fwd.q_yx
        assert rev.asymmetry == -fwd.asymmetry
        assert 0.0 <= fwd.q_xy <= 1.0 and 0.0 <= fwd.q_yx <= 1.0
        # a strictly increasing transform of either margin leaves the ranks as they are
        assert qad_compute(BivariateSample(np.exp(sample.xs), sample.ys), opts) == fwd
        assert qad_compute(BivariateSample(sample.xs, np.exp(sample.ys)), opts) == fwd


def _per_cell_reference(rows, missing):
    """Cell-by-cell conversion: (values, non-numeric count per column)."""
    values = np.full((len(rows), len(rows[0])), np.nan)
    bad = [0] * len(rows[0])
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            cell = cell.strip()
            if cell in missing:
                continue
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if math.isfinite(value):
                values[i, j] = value
            else:
                bad[j] += 1
    return values, bad


def test_column_wise_conversion_matches_per_cell(tmp_path):
    rng = np.random.default_rng(9)
    pool = ["1.5", " 2 ", "x", "inf", "-inf", "nan", "-nan", "NA", "", "1e999", "-0.0", "1_0",
            "0x1", "  "]
    rows = [
        [f"{v:.6g}", str(rng.choice(pool)), str(rng.choice(["NA", ""])), str(rng.choice(["a", "3"])),
         f" {rng.integers(5)} "]
        for v in rng.normal(size=400)
    ]
    path = tmp_path / "cells.csv"
    path.write_text("a,b,c,d,e\n" + "\n".join(",".join(r) for r in rows) + "\n")
    table, report = ingest_csv(path)
    values, bad = _per_cell_reference(rows, {"", "NA"})
    assert table.values.tobytes() == values.tobytes()
    assert report.n_rows == 400
    assert report.non_numeric == dict(zip("abcde", bad))
    assert bad[0] == bad[2] == bad[4] == 0 and bad[1] > 0 and bad[3] > 0
