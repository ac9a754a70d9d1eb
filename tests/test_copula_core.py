import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qad import (
    BivariateSample,
    CheckerboardCopula,
    copula,
    checkerboard_aggregate,
    conditional_cdf,
    d1,
    d1_pi,
    d_infty,
    d_infty_markov,
    ecop_cdf,
    empirical_copula,
    extremal_metric_pair,
    pseudo_observations,
    resolution_rule,
    transpose,
    zeta1,
)
from qad.copula import (
    _boards_from_ranks,
    _cells_integral,
    _d1_pi_stack,
    _delta_overlap_matrix,
    _fit_boards,
    _max_ranks,
    _tie_groups,
    _two_strip_boards,
    _two_strip_split,
    _weights,
)
from qad.estimator import _observed_pairs

from helpers import (
    ecop_rect_tuples,
    ecop_rects,
    four_block_two_strip_boards,
    four_block_two_strip_split,
    margin_masses,
    overlap_cell_masses,
    riemann_d1,
    riemann_d1_pi,
    riemann_d_infty_markov,
    sinkhorn_board,
    where_cells_integral,
    where_d1_pi_stack,
)

# the worked count-data sample with ties used throughout
TIED_SAMPLE = BivariateSample([10, 6, 5, 6, 4, 6], [10, 3, 1, 4, 1, 3])


class TestPseudoObservations:
    def test_tied_sample_ranks(self):
        p = pseudo_observations(TIED_SAMPLE)
        assert_allclose(p.us, np.array([6, 5, 2, 5, 1, 5]) / 6)
        assert_allclose(p.vs, np.array([6, 4, 2, 5, 2, 4]) / 6)
        assert p.n == 6
        assert p.n_unique_u == 4
        assert p.n_unique_v == 4

    def test_distinct_increasing_pairs(self):
        n = 17
        p = pseudo_observations(BivariateSample(np.arange(n), np.arange(n)))
        assert_allclose(p.us, np.arange(1, n + 1) / n)
        assert_allclose(p.vs, np.arange(1, n + 1) / n)

    def test_all_tied(self):
        p = pseudo_observations(BivariateSample([1.0, 1.0], [1.0, 1.0]))
        assert_allclose(p.us, [1.0, 1.0])
        assert_allclose(p.vs, [1.0, 1.0])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            BivariateSample([], [])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            BivariateSample([1.0, np.nan], [0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            BivariateSample([1.0, 2.0], [np.inf, 1.0])

    def test_complex_rejected(self):
        # a float cast would warn and drop the imaginary part
        xs = np.arange(10.0)
        with pytest.raises(TypeError, match="^xs must be real, not complex$"):
            BivariateSample(xs + 1j, xs)
        with pytest.raises(TypeError, match="^ys must be real, not complex$"):
            BivariateSample(xs, list(xs + 0j))

    def test_monotone_in_the_data(self):
        rng = np.random.default_rng(0)
        xs = rng.integers(0, 10, 50).astype(float)
        p = pseudo_observations(BivariateSample(xs, rng.random(50)))
        order = np.argsort(xs, kind="stable")
        assert np.all(np.diff(p.us[order]) >= 0)
        # equal inputs share equal pseudo-observations
        for i in range(50):
            same = xs == xs[i]
            assert np.all(p.us[same] == p.us[i])

    def test_multiples_of_one_over_n(self):
        p = pseudo_observations(TIED_SAMPLE)
        assert np.all(np.abs(p.us * 6 - np.round(p.us * 6)) < 1e-12)
        assert p.us.max() == 1.0 and p.vs.max() == 1.0


class TestEmpiricalCopula:
    def test_tied_sample_rect_table(self):
        e = empirical_copula(pseudo_observations(TIED_SAMPLE))
        assert e.m == 5
        recs = ecop_rects(e)
        got = [(t, r, s) for (_, _, r, s, t) in recs]
        assert got == [(1, 1, 1), (2, 3, 2), (1, 1, 2), (1, 3, 1), (1, 1, 2)]
        assert_allclose([u for (u, _, _, _, _) in recs], np.array([6, 5, 2, 5, 1]) / 6)
        assert_allclose([v for (_, v, _, _, _) in recs], np.array([6, 4, 2, 5, 2]) / 6)
        assert sum(t for (_, _, _, _, t) in recs) == e.n

    def test_no_ties_gives_unit_rectangles(self):
        rng = np.random.default_rng(1)
        n = 40
        e = empirical_copula(
            pseudo_observations(BivariateSample(rng.random(n), rng.random(n)))
        )
        assert e.m == n
        assert np.all(e.ties_u == 1) and np.all(e.ties_v == 1)
        assert np.all(e.counts == 1)

    def test_uniform_margins_with_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            xs = rng.integers(0, 6, n).astype(float)
            ys = rng.integers(0, 6, n).astype(float)
            e = empirical_copula(pseudo_observations(BivariateSample(xs, ys)))
            assert_allclose(margin_masses(e, 0), np.full(n, 1 / n), atol=1e-12)
            assert_allclose(margin_masses(e, 1), np.full(n, 1 / n), atol=1e-12)


class TestEcopCdf:
    def test_boundary_conditions(self):
        e = empirical_copula(pseudo_observations(TIED_SAMPLE))
        assert_allclose(ecop_cdf(e, 1.0, 1.0), 1.0, atol=1e-12)
        assert ecop_cdf(e, 0.0, 0.7) == 0.0
        assert ecop_cdf(e, 0.7, 0.0) == 0.0

    def test_tied_sample_value(self):
        e = empirical_copula(pseudo_observations(TIED_SAMPLE))
        assert_allclose(ecop_cdf(e, 5 / 6, 4 / 6), 4 / 6, atol=1e-12)

    def test_matches_subcopula_on_range_grid(self):
        p = pseudo_observations(TIED_SAMPLE)
        e = empirical_copula(p)
        s1 = np.unique(np.concatenate([[0.0], p.us]))
        s2 = np.unique(np.concatenate([[0.0], p.vs]))
        for u in s1:
            for v in s2:
                direct = np.mean((p.us <= u) & (p.vs <= v))
                assert_allclose(ecop_cdf(e, u, v), direct, atol=1e-12)

    def test_no_ties_grid_counts(self):
        rng = np.random.default_rng(3)
        n = 25
        xs, ys = rng.random(n), rng.random(n)
        p = pseudo_observations(BivariateSample(xs, ys))
        e = empirical_copula(p)
        for i in range(n + 1):
            for j in range(0, n + 1, 5):
                expected = np.mean((p.us <= i / n) & (p.vs <= j / n))
                assert_allclose(ecop_cdf(e, i / n, j / n), expected, atol=1e-12)

    def test_out_of_range_rejected(self):
        e = empirical_copula(pseudo_observations(TIED_SAMPLE))
        with pytest.raises(ValueError):
            ecop_cdf(e, -0.1, 0.5)
        with pytest.raises(ValueError):
            ecop_cdf(e, 0.5, 1.1)


class TestCheckerboardAggregate:
    def test_tied_sample_resolution_two(self):
        e = empirical_copula(pseudo_observations(TIED_SAMPLE))
        cb = checkerboard_aggregate(e, 2)
        expected = np.array([[7, 2], [2, 7]]) / 18
        assert_allclose(cb.mass, expected, atol=1e-15)
        # independent rectangle-intersection oracle
        oracle = overlap_cell_masses(ecop_rect_tuples(e), 2)
        assert_allclose(cb.mass, oracle, atol=1e-13)

    def test_oracle_agreement_with_ties(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(3, 30))
            xs = rng.integers(0, 5, n).astype(float)
            ys = rng.integers(0, 5, n).astype(float)
            e = empirical_copula(pseudo_observations(BivariateSample(xs, ys)))
            for resolution in (1, 2, 3, 7):
                cb = checkerboard_aggregate(e, resolution)
                oracle = overlap_cell_masses(ecop_rect_tuples(e), resolution)
                assert_allclose(cb.mass, oracle, atol=1e-12)

    def test_projection_fixed_point(self):
        rng = np.random.default_rng(5)
        board = CheckerboardCopula(sinkhorn_board(rng, 6))
        again = checkerboard_aggregate(board, 6)
        assert_allclose(again.mass, board.mass, atol=1e-15)

    def test_independence_tiling(self):
        rng = np.random.default_rng(6)
        n = 36
        # distinct values laid out on a grid: the product-like case
        e = empirical_copula(
            pseudo_observations(BivariateSample(rng.permutation(n), rng.permutation(n)))
        )
        cb = checkerboard_aggregate(e, 1)
        assert_allclose(cb.mass, [[1.0]], atol=1e-12)
        prod = checkerboard_aggregate(CheckerboardCopula.independence(8), 4)
        assert_allclose(prod.mass, np.full((4, 4), 1 / 16), atol=1e-15)

    def test_doubly_stochastic_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(4, 60))
            xs = rng.integers(0, 8, n).astype(float)
            ys = rng.random(n)
            e = empirical_copula(pseudo_observations(BivariateSample(xs, ys)))
            for resolution in (2, 3, 5):
                cb = checkerboard_aggregate(e, resolution)
                assert_allclose(cb.mass.sum(axis=0), np.full(resolution, 1 / resolution), atol=1e-12)
                assert_allclose(cb.mass.sum(axis=1), np.full(resolution, 1 / resolution), atol=1e-12)

    def test_bad_resolution_rejected(self):
        e = empirical_copula(pseudo_observations(TIED_SAMPLE))
        with pytest.raises(ValueError):
            checkerboard_aggregate(e, 0)

    def test_resolution_beyond_sample_size(self):
        rng = np.random.default_rng(22)
        n = 12
        e = empirical_copula(
            pseudo_observations(BivariateSample(rng.random(n), rng.random(n)))
        )
        cb = checkerboard_aggregate(e, 2 * n)
        assert_allclose(cb.mass.sum(axis=1), np.full(2 * n, 1 / (2 * n)), atol=1e-12)
        assert_allclose(cb.mass.sum(axis=0), np.full(2 * n, 1 / (2 * n)), atol=1e-12)
        oracle = overlap_cell_masses(ecop_rect_tuples(e), 2 * n)
        assert_allclose(cb.mass, oracle, atol=1e-12)

    def test_coarsen_checkerboard_source(self):
        rng = np.random.default_rng(8)
        fine = CheckerboardCopula(sinkhorn_board(rng, 12))
        coarse = checkerboard_aggregate(fine, 4)
        # 3x3 blocks of the fine board sum to the coarse cells
        blocks = fine.mass.reshape(4, 3, 4, 3).sum(axis=(1, 3))
        assert_allclose(coarse.mass, blocks, atol=1e-14)
        # non-divisible target goes through the dense path
        odd = checkerboard_aggregate(fine, 5)
        assert_allclose(odd.mass.sum(), 1.0, atol=1e-12)
        assert_allclose(odd.mass.sum(axis=1), np.full(5, 1 / 5), atol=1e-12)


class TestConditionalCdf:
    def test_product_is_identity(self):
        cb = CheckerboardCopula.independence(5)
        ys = np.linspace(0, 1, 21)
        for strip in (1, 3, 5):
            assert_allclose(conditional_cdf(cb, strip, ys), ys, atol=1e-14)

    def test_comonotone_ramp(self):
        n = 4
        cb = CheckerboardCopula.comonotone(n)
        for strip in range(1, n + 1):
            lo, hi = (strip - 1) / n, strip / n
            assert conditional_cdf(cb, strip, lo) == 0.0
            assert_allclose(conditional_cdf(cb, strip, (lo + hi) / 2), 0.5, atol=1e-14)
            assert_allclose(conditional_cdf(cb, strip, hi), 1.0, atol=1e-14)
        assert conditional_cdf(cb, 2, 0.0) == 0.0
        assert_allclose(conditional_cdf(cb, 2, 1.0), 1.0, atol=1e-14)

    def test_strip_mass_normalization(self):
        rng = np.random.default_rng(9)
        cb = CheckerboardCopula(sinkhorn_board(rng, 7))
        for strip in range(1, 8):
            row = cb.mass[strip - 1] * 7
            assert_allclose(row.sum(), 1.0, atol=1e-12)
            assert_allclose(conditional_cdf(cb, strip, 1.0), 1.0, atol=1e-12)

    def test_bad_strip_rejected(self):
        cb = CheckerboardCopula.independence(3)
        with pytest.raises(ValueError):
            conditional_cdf(cb, 0, 0.5)
        with pytest.raises(ValueError):
            conditional_cdf(cb, 4, 0.5)


class TestD1AndZeta1:
    def test_product_board_is_zero(self):
        for n in (1, 2, 5, 16):
            assert d1_pi(CheckerboardCopula.independence(n)) == 0.0
            assert zeta1(CheckerboardCopula.independence(n)) == 0.0

    def test_comonotone_closed_form(self):
        # frozen from the per-strip integral, confirmed by the Riemann oracle
        for n in (2, 3, 5, 8, 64):
            cb = CheckerboardCopula.comonotone(n)
            assert_allclose(d1_pi(cb), (2 * n - 1) / (6 * n), atol=1e-13)
            assert_allclose(zeta1(cb), 1 - 1 / (2 * n), atol=1e-13)

    def test_riemann_oracle_agreement(self):
        rng = np.random.default_rng(10)
        for n in (2, 3, 5, 9):
            for _ in range(5):
                mass = sinkhorn_board(rng, n)
                closed = d1_pi(CheckerboardCopula(mass))
                assert abs(closed - riemann_d1_pi(mass)) < 1e-3

    def test_comonotone_riemann(self):
        for n in (2, 3, 8):
            mass = np.eye(n) / n
            assert abs(riemann_d1_pi(mass) - (2 * n - 1) / (6 * n)) < 1e-3

    def test_zeta1_range_and_degenerate_resolution(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 6):
            for _ in range(5):
                z = zeta1(CheckerboardCopula(sinkhorn_board(rng, n)))
                assert 0.0 <= z <= 1.0
        assert zeta1(CheckerboardCopula.comonotone(1)) == 0.0

    def test_d1_between_boards_oracle(self):
        rng = np.random.default_rng(12)
        for n in (2, 4, 8):
            a = sinkhorn_board(rng, n)
            b = sinkhorn_board(rng, n)
            closed = d1(CheckerboardCopula(a), CheckerboardCopula(b))
            assert abs(closed - riemann_d1(a, b)) < 1e-3

    def test_d1_identical_boards_zero(self):
        rng = np.random.default_rng(13)
        cb = CheckerboardCopula(sinkhorn_board(rng, 5))
        assert d1(cb, cb) == 0.0

    def test_d1_against_product_equals_d1_pi_exactly(self):
        rng = np.random.default_rng(14)
        for n in (2, 3, 7, 11):
            cb = CheckerboardCopula(sinkhorn_board(rng, n))
            assert d1(cb, CheckerboardCopula.independence(n)) == d1_pi(cb)

    def test_resolution_mismatch_rejected(self):
        with pytest.raises(ValueError, match="resolution"):
            d1(CheckerboardCopula.independence(3), CheckerboardCopula.independence(4))


class TestTranspose:
    def test_involution(self):
        rng = np.random.default_rng(15)
        cb = CheckerboardCopula(sinkhorn_board(rng, 6))
        assert transpose(transpose(cb)) == cb

    def test_symmetric_fixed_point(self):
        mass = np.array([[0.3, 0.2], [0.2, 0.3]])
        cb = CheckerboardCopula(mass)
        assert transpose(cb) == cb

    def test_tied_sample_board_symmetry(self):
        e = empirical_copula(pseudo_observations(TIED_SAMPLE))
        cb = checkerboard_aggregate(e, 2)
        assert_allclose(transpose(cb).mass, cb.mass, atol=1e-15)
        assert_allclose(zeta1(transpose(cb)), zeta1(cb), atol=1e-14)
        assert_allclose(zeta1(cb), 5 / 12, atol=1e-13)

    def test_swapped_sample_board_is_transpose(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            n = int(rng.integers(3, 50))
            xs = rng.integers(0, 7, n).astype(float)
            ys = rng.random(n)
            sample = BivariateSample(xs, ys)
            resolution = int(rng.integers(1, 6))
            fwd = checkerboard_aggregate(
                empirical_copula(pseudo_observations(sample)), resolution
            )
            rev = checkerboard_aggregate(
                empirical_copula(pseudo_observations(sample.swapped())), resolution
            )
            assert_allclose(rev.mass, fwd.mass.T, atol=1e-15)


class TestFitBoards:
    @staticmethod
    def _samples(rng):
        for _ in range(10):
            n = int(rng.integers(2, 120))
            xs, noise = rng.normal(size=n), rng.normal(size=n)
            yield BivariateSample(xs, xs + noise)  # tie-free
            yield BivariateSample(rng.integers(0, 5, n), rng.integers(0, 8, n))
            yield BivariateSample(np.round(xs, 1), np.round(noise, 1))
            yield BivariateSample(np.where(rng.random(n) < 0.4, 0.0, xs), noise)

    def test_one_copula_gives_the_swapped_sample_board(self):
        rng = np.random.default_rng(61)
        for sample in self._samples(rng):
            pobs = pseudo_observations(sample)
            rev = empirical_copula(pseudo_observations(sample.swapped()))
            for resolution in (1, max(1, sample.n // 3), sample.n + 3):
                board_xy, board_yx = _fit_boards(pobs, resolution)
                fwd = checkerboard_aggregate(empirical_copula(pobs), resolution)
                assert np.array_equal(board_xy.mass, fwd.mass)
                assert np.array_equal(
                    board_yx.mass, checkerboard_aggregate(rev, resolution).mass
                )

    def test_unique_counts_match_unique_values(self):
        rng = np.random.default_rng(62)
        for sample in self._samples(rng):
            pobs = pseudo_observations(sample)
            assert pobs.n_unique_u == np.unique(sample.xs).size
            assert pobs.n_unique_v == np.unique(sample.ys).size


def _blas_one_thread(N, m):
    """Whether an (N x m)(m x N) product stays at or below OpenBLAS's threading
    threshold (65536 * 4 multiply-adds): below it every BLAS thread count sums
    alike, so the board pins hold in any environment."""
    return N * N * m <= 1 << 18


def _pin_samples():
    """(sample, extra resolutions): tie-free, rounded, zero-inflated, integer
    and constant-margin samples, and one 600-row zero-inflated sample whose
    override of 150 sends its dense boards past ``DGEMM_MAX_CELLS``."""
    rng = np.random.default_rng(211)
    for n in (2, 9, 60, 150):
        xs, noise = rng.normal(size=n), rng.normal(size=n)
        yield BivariateSample(xs, xs + noise), ()
        yield BivariateSample(np.round(xs, 1), np.round(noise, 1)), ()
        yield BivariateSample(np.where(rng.random(n) < 0.4, 0.0, xs), noise), ()
        yield BivariateSample(rng.integers(0, 5, n), rng.integers(0, 8, n)), ()
        yield BivariateSample(np.where(rng.random(n) < 0.3, 2.5, xs), np.full(n, 1.0)), ()
    xs = rng.random(600)
    zeros = np.where(rng.random(600) < 0.4, 0.0, xs)
    yield BivariateSample(zeros, xs + rng.normal(0.0, 0.2, 600)), (150,)


class TestBoardPins:
    """SHA-256 of the fitted boards, the observed permutation statistics and
    ``checkerboard_aggregate`` of both source types, recorded before these
    paths shared one preparation of the margins.  The fit-versus-aggregate
    equality tests compare two paths that changed together; these pins hold
    each one to its old floats."""

    PINS = {
        "fit": "73d8bab00d380e755925215b191ce373a134f981802c89ac75c37e5523b0a7a9",
        "observed": "0abf6f086387e2acda90806abee5af0778ed90cd31b503142234a31c7c75a2fd",
        "empirical_source": "7b555807bd91634a1fd833b9537e5c44038d82ba041049a5bf8666a3c0e18f1f",
        "checkerboard_source": "76486b62b8619cc08715c8101f6124f6c578bb4bb396dbb76f293abaca522fbd",
    }

    def test_boards_match_their_pins(self, monkeypatch):
        ran = set()
        for name in ("_two_strip_boards", "_weights", "_group_board"):
            original = getattr(copula, name)
            monkeypatch.setattr(copula, name, lambda *a, f=original, k=name: ran.add(k) or f(*a))
        digests = {name: hashlib.sha256() for name in self.PINS}
        for sample, extra in _pin_samples():
            pobs, n = pseudo_observations(sample), sample.n
            rule = resolution_rule(n, pobs.n_unique_u, pobs.n_unique_v)
            ecop = empirical_copula(pobs)
            overrides = sorted({1, rule, max(1, n // 3), 2 * n + 1})
            for N in [N for N in overrides if _blas_one_thread(N, n)] + list(extra):
                boards = _fit_boards(pobs, N)
                digests["fit"].update(b"".join(b.mass.tobytes() for b in boards))
                digests["observed"].update(_observed_pairs(pobs, N).tobytes())
                digests["empirical_source"].update(checkerboard_aggregate(ecop, N).mass.tobytes())
                if N != rule:
                    continue
                for target in sorted({1, 3, N, 2 * N + 1}):
                    if _blas_one_thread(target, N * N):
                        mass = checkerboard_aggregate(boards[0], target).mass
                        digests["checkerboard_source"].update(mass.tobytes())
        assert ran == {"_two_strip_boards", "_weights", "_group_board"}
        assert {name: d.hexdigest() for name, d in digests.items()} == self.PINS


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _check_overlap_weights(xs, ys, resolution=None):
    """Compare ``_weights`` of each margin's ``_tie_groups`` with the clip/diff
    reference on both margins, with per-element masses 1/n (permutation
    statistics) and with distinct-pair masses counts/n (``_fit_boards``), and
    unscaled with masses of ones; returns the number of
    distinct x tie groups wider than a strip."""
    pobs = pseudo_observations(BivariateSample(xs, ys))
    n = pobs.n
    N = resolution or resolution_rule(n, pobs.n_unique_u, pobs.n_unique_v)
    ecop = empirical_copula(pobs)
    per_element = np.full(n, 1.0 / n)
    for ranks, ties, masses in (
        (pobs.ranks_u, pobs.ties_u, per_element),
        (pobs.ranks_v, pobs.ties_v, per_element),
        (ecop.ranks_u, ecop.ties_u, ecop.counts / n),
        (ecop.ranks_v, ecop.ties_v, ecop.counts / n),
    ):
        lo, hi = (ranks - ties) * N, ranks * N
        reference, axis = _delta_overlap_matrix(lo, hi, n, N), _tie_groups(lo, hi, n, N)
        assert _same_bits(_weights(axis, N, np.ones(lo.size)), reference)
        assert _same_bits(_weights(axis, N, masses), reference * masses[:, None])
    wide = pobs.ties_u * N > n
    return np.unique(pobs.ranks_u[wide]).size


class TestOverlapWeights:
    @pytest.mark.parametrize(
        "xs, ys, resolution, wide_groups",
        [
            pytest.param(np.sin(np.arange(50.0)), np.cos(np.arange(50.0)), None, 0, id="tie_free"),
            pytest.param([0.0] * 10 + list(range(1, 31)), list(range(40)), None, 1, id="one_wide"),
            pytest.param([0.0] * 6 + [1.0] * 6 + list(range(2, 10)), list(range(20)), 5, 2,
                         id="several_wide"),
            pytest.param([2.5] * 7, list(range(7)), None, 0, id="constant_margin"),
            pytest.param([1.0, 2.0], [2.0, 1.0], None, 0, id="n2"),
            pytest.param([3.0, 1.0, 4.0, 1.5, 9.0], [2.0, 7.0, 1.0, 8.0, 2.5], 8, 5,
                         id="override_above_n"),
        ],
    )
    def test_equals_reference(self, xs, ys, resolution, wide_groups):
        assert _check_overlap_weights(xs, ys, resolution) == wide_groups

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda k: st.lists(
                st.tuples(st.integers(0, k), st.integers(0, 3 * k)), min_size=2, max_size=80
            )
        ),
        st.one_of(st.none(), st.integers(1, 160)),
    )
    def test_random_ties_and_resolutions(self, pairs, resolution):
        xs, ys = np.array(pairs, dtype=float).T
        _check_overlap_weights(xs, ys, resolution)


def _two_strip_rects(rng, rows, m, N, width, crossing):
    """(rows, m) integer bounds of rectangles no wider than a strip, on N strips
    of ``width``: crossing "none" keeps each inside one strip, "all" puts a
    strip boundary strictly inside each, "mixed" places them anywhere."""
    span = rng.integers(1 if crossing != "all" else 2, width + 1, (rows, m))
    if crossing == "mixed":
        lo = rng.integers(0, N * width - span + 1)
    elif crossing == "none":
        lo = rng.integers(0, N, (rows, m)) * width + rng.integers(0, width - span + 1)
    else:
        lo = rng.integers(1, N, (rows, m)) * width - rng.integers(1, span)
    return lo, lo + span


class TestKernelsMatchReferences:
    """The two-strip boards and the zeta1 cell integral skip work that cannot
    change a float; they must equal the reference kernels byte for byte."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 5),
        st.integers(1, 40),
        st.integers(1, 8),
        st.integers(1, 12),
        st.sampled_from([(1, 1), (1, 0), (0, 1), (0, 0)]),
        st.sampled_from(["mixed", "none", "all"]),
    )
    def test_two_strip_boards(self, seed, C, m, N, width, shared, crossing):
        if crossing == "all" and (N < 2 or width < 2):
            crossing = "mixed"
        rng = np.random.default_rng(seed)
        splits = []
        for side_shared in shared:  # a shared side is one (1, m) row
            lo, hi = _two_strip_rects(rng, 1 if side_shared else C, m, N, width, crossing)
            new, ref = _two_strip_split(lo, hi, width), four_block_two_strip_split(lo, hi, width)
            assert all(_same_bits(a, b) for a, b in zip(new, ref))
            splits.append(new)
        masses = rng.random(m) / m
        assert _same_bits(
            _two_strip_boards(*splits, masses, N), four_block_two_strip_boards(*splits, masses, N)
        )

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.integers(1, 9),
        st.sampled_from([0.0, 0.3, 0.8]),
    )
    def test_cells_integral(self, seed, C, N, zeros):
        # few distinct values, so that ends of both signs, exact zeros of both
        # signs, exact sign changes and constant rows all occur
        rng = np.random.default_rng(seed)
        values = [-2.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.5]
        d = rng.choice(values, (C, N, N))
        d = np.where(rng.random((C, N, N)) < 0.2, rng.normal(size=(C, N, N)), d)
        d[rng.random((C, N)) < zeros] = 0.0
        const = rng.random((C, N)) < 0.2
        d[const] = rng.choice(values, (const.sum(), 1))
        e = np.concatenate([np.zeros((C, N, 1)), d], axis=-1)
        assert _same_bits(_cells_integral(d), where_cells_integral(e))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 9))
    def test_d1_pi_stack(self, seed, C, N):
        # boards with zero rows, rows at the product's 1/N^2, which match it
        # exactly, and rows whose conditional CDF crosses the product's
        rng = np.random.default_rng(seed)
        mass = rng.random((C, N, N)) * (rng.random((C, N, N)) < 0.5) / N**2
        kind = rng.integers(0, 3, (C, N))
        mass[kind == 0] = 0.0
        mass[kind == 1] = 1.0 / (N * N)
        for stack in (mass, mass.transpose(0, 2, 1)):
            got = _d1_pi_stack(np.ascontiguousarray(stack))
            assert _same_bits(got, where_d1_pi_stack(stack))
        a, b = mass[0], mass[-1]
        e = np.zeros((1, N, N + 1))
        e[0, :, 1:] = np.cumsum(a, axis=-1) * N - np.cumsum(b, axis=-1) * N
        assert _same_bits(np.array([d1(a, b)]), where_cells_integral(e))


class TestSupMetrics:
    def test_zero_on_identical(self):
        rng = np.random.default_rng(17)
        cb = CheckerboardCopula(sinkhorn_board(rng, 5))
        assert d_infty(cb, cb) == 0.0
        assert d_infty_markov(cb, cb) == 0.0

    def test_extremal_pair_values(self):
        for n, dinf, dmarkov in ((8, 1 / 16, 7 / 8), (16, 1 / 32, 15 / 16)):
            a, b = extremal_metric_pair(n)
            assert d_infty(a, b) == dinf
            assert d_infty_markov(a, b) == dmarkov

    def test_markov_oracle_agreement(self):
        rng = np.random.default_rng(18)
        for n in (2, 4, 9):
            a = sinkhorn_board(rng, n)
            b = sinkhorn_board(rng, n)
            closed = d_infty_markov(CheckerboardCopula(a), CheckerboardCopula(b))
            approx = riemann_d_infty_markov(a, b)
            assert closed >= approx - 1e-9  # grid can only undershoot a sup
            assert closed - approx < 1e-3

    def test_resolution_mismatch_rejected(self):
        with pytest.raises(ValueError, match="resolution"):
            d_infty(CheckerboardCopula.independence(3), CheckerboardCopula.independence(5))
        with pytest.raises(ValueError, match="resolution"):
            d_infty_markov(
                CheckerboardCopula.independence(3), CheckerboardCopula.independence(5)
            )

    def test_kernel_difference_average_is_lipschitz_two(self):
        # the x-averaged |K_A - K_B| map has slope at most 2 in y
        from helpers import _kernel_values

        rng = np.random.default_rng(23)
        for n in (3, 8):
            a = sinkhorn_board(rng, n)
            b = sinkhorn_board(rng, n)
            ys = np.linspace(0, 1, 2001)
            phi = np.mean(np.abs(_kernel_values(a, ys) - _kernel_values(b, ys)), axis=0)
            slopes = np.abs(np.diff(phi)) / np.diff(ys)
            assert slopes.max() <= 2.0 + 1e-9
            assert abs(phi[0]) < 1e-12 and abs(phi[-1]) < 1e-12

    def test_extremal_pair_needs_even_resolution(self):
        with pytest.raises(ValueError):
            extremal_metric_pair(5)


class TestMetricInequalities:
    def test_bounds_on_random_boards(self):
        rng = np.random.default_rng(19)
        for n in (2, 4, 8, 16):
            for _ in range(25):
                a = CheckerboardCopula(sinkhorn_board(rng, n))
                b = CheckerboardCopula(sinkhorn_board(rng, n))
                v_d1 = d1(a, b)
                v_markov = d_infty_markov(a, b)
                v_sup = d_infty(a, b)
                assert v_d1 >= 0
                assert v_d1 <= ((n - 1) / n) * v_markov + 1e-10
                assert v_markov <= 2 * (n - 1) * v_sup + 1e-10

    def test_aggregation_contracts_d_infty(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            a = CheckerboardCopula(sinkhorn_board(rng, 12))
            b = CheckerboardCopula(sinkhorn_board(rng, 12))
            for target in (2, 3, 4, 6):
                ca = checkerboard_aggregate(a, target)
                cb = checkerboard_aggregate(b, target)
                assert d_infty(ca, cb) <= d_infty(a, b) + 1e-12


class TestUnaggregatedLimit:
    def test_independence_without_aggregation_saturates(self):
        # without smoothing, the raw empirical copula drifts to full dependence
        rng = np.random.default_rng(21)
        n = 2000
        xs, ys = rng.random(n), rng.random(n)
        ru, tu = _max_ranks(xs)
        rv, tv = _max_ranks(ys)
        board = _boards_from_ranks(ru[None], tu[None], rv[None], tv[None], n, n)[0]
        value = 3 * d1_pi(CheckerboardCopula(board, validate=False))
        assert_allclose(value, 1 - 1 / (2 * n), atol=1e-10)


class TestTrueCopulaApproximation:
    def test_grid_sup_distance_shrinks_with_n(self):
        # empirical copula CDF approaches the sampled FGM CDF on a fixed grid
        theta = -1.0
        grid = np.linspace(0, 1, 41)
        uu, vv = np.meshgrid(grid, grid)
        true_cdf = uu * vv + theta * uu * vv * (1 - uu) * (1 - vv)

        def grid_error(n, seed):
            from qad.simulate import FGM, sample_model

            sample = sample_model(FGM(theta), n, seed)
            e = empirical_copula(pseudo_observations(sample))
            est = ecop_cdf(e, uu.ravel(), vv.ravel()).reshape(uu.shape)
            return np.max(np.abs(est - true_cdf))

        for seed in (0, 1, 2):
            small = grid_error(150, seed)
            large = grid_error(6000, seed)
            assert large < small
            assert large < 0.03


class TestCheckerboardValidation:
    def test_constructor_checks(self):
        with pytest.raises(ValueError, match="square"):
            CheckerboardCopula(np.ones((2, 3)) / 6)
        with pytest.raises(ValueError, match="nonnegative"):
            CheckerboardCopula(np.array([[0.75, -0.25], [-0.25, 0.75]]))
        with pytest.raises(ValueError, match="row sums"):
            CheckerboardCopula(np.array([[0.75, 0.0], [0.0, 0.25]]))
        with pytest.raises(ValueError, match="total mass"):
            CheckerboardCopula(np.full((2, 2), 0.4))

    def test_serialization_dict(self):
        cb = CheckerboardCopula.comonotone(2)
        d = cb.to_json_dict()
        assert d["resolution"] == 2
        assert d["mass"] == [0.5, 0.0, 0.0, 0.5]

    def test_repr_names_the_resolution(self):
        assert repr(CheckerboardCopula.independence(3)) == "CheckerboardCopula(resolution=3)"


class TestRangeAndCountChecks:
    """NaN fails every range check, and resolutions and strips are integer counts."""

    def test_non_finite_mass_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="mass entries must be finite"):
                CheckerboardCopula(np.array([[0.5, bad], [0.0, 0.5]]))

    def test_complex_mass_rejected(self):
        with pytest.raises(TypeError, match="real"):
            CheckerboardCopula(np.eye(2, dtype=complex) / 2)

    def test_nan_coordinates_rejected(self):
        e = empirical_copula(pseudo_observations(TIED_SAMPLE))
        with pytest.raises(ValueError, match="u must lie in"):
            ecop_cdf(e, np.nan, 0.5)
        with pytest.raises(ValueError, match="v must lie in"):
            ecop_cdf(e, 0.5, [0.2, np.nan])
        cb = CheckerboardCopula.independence(3)
        with pytest.raises(ValueError, match="y must lie in"):
            conditional_cdf(cb, 1, np.nan)

    def test_strip_is_a_count(self):
        cb = CheckerboardCopula.comonotone(3)
        with pytest.raises(TypeError, match="strip must be an integer"):
            conditional_cdf(cb, 1.5, 0.5)
        with pytest.raises(TypeError, match="strip must be an integer"):
            conditional_cdf(cb, True, 0.5)
        with pytest.raises(ValueError, match="strip must be <= 3"):
            conditional_cdf(cb, 4, 0.5)
        assert conditional_cdf(cb, np.int64(2), 0.5) == conditional_cdf(cb, 2, 0.5) == 0.5

    @pytest.mark.parametrize("resolution", [2.5, 2.0, np.float64(4.0), True, "4"])
    def test_resolution_is_a_count(self, resolution):
        e = empirical_copula(pseudo_observations(TIED_SAMPLE))
        for build in (
            CheckerboardCopula.independence,
            CheckerboardCopula.comonotone,
            extremal_metric_pair,
            lambda N: checkerboard_aggregate(e, N),
        ):
            with pytest.raises(TypeError, match="resolution must be an integer"):
                build(resolution)

    def test_numpy_integer_resolution_accepted(self):
        e = empirical_copula(pseudo_observations(TIED_SAMPLE))
        assert checkerboard_aggregate(e, np.int32(2)) == checkerboard_aggregate(e, 2)
        assert CheckerboardCopula.independence(np.uint8(3)).resolution == 3
        assert extremal_metric_pair(np.int64(4))[0] == extremal_metric_pair(4)[0]
        with pytest.raises(ValueError, match="resolution must be >= 2"):
            extremal_metric_pair(0)
