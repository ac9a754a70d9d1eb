import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

import qad
from qad.simulate import (
    FGM,
    SHAPE_NAMES,
    CompletelyDependent,
    Independence,
    MarshallOlkin,
    ShapeGenerator,
    analytic_checkerboard,
    convergence_experiment,
    generate_shape,
    sample_model,
    zeta1_closed_form,
)


class TestModelValidation:
    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            MarshallOlkin(-0.1, 0.5)
        with pytest.raises(ValueError):
            MarshallOlkin(0.5, 1.2)
        with pytest.raises(ValueError):
            FGM(1.5)
        with pytest.raises(ValueError):
            CompletelyDependent(0)
        with pytest.raises(ValueError):
            sample_model(Independence(), 0, 1)


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: MarshallOlkin(True, False), "alpha must be a real number", id="mo-bool"),
        pytest.param(lambda: MarshallOlkin(0.5, "0.5"), "beta must be a real number", id="mo-str"),
        pytest.param(lambda: FGM("0.5"), "theta must be a real number", id="fgm-str"),
        pytest.param(lambda: FGM(np.array([0.5, 0.2])), "theta must be a real number", id="fgm-array"),
        pytest.param(lambda: CompletelyDependent(True), "slope must be an integer", id="cd-bool"),
        pytest.param(lambda: CompletelyDependent(2.0), "slope must be an integer", id="cd-float"),
        pytest.param(lambda: ShapeGenerator("linear", 10, "0.1"), "noise must be a real number",
                     id="shape-str"),
        pytest.param(lambda: ShapeGenerator("linear", 10, True), "noise must be a real number",
                     id="shape-bool"),
    ],
)
def test_parameters_must_be_numbers(make, message):
    with pytest.raises(TypeError, match=message):
        make()


def test_numpy_parameters_are_taken():
    assert CompletelyDependent(np.int64(5)).params() == "slope=5"
    assert FGM(np.float64(-0.5)).params() == "theta=-0.5"


def test_params_strings():
    assert MarshallOlkin(0.3, 1).params() == "alpha=0.3;beta=1"
    assert MarshallOlkin(0.25, 0.5).params() == "alpha=0.25;beta=0.5"
    assert FGM(-0.5).params() == "theta=-0.5"
    assert CompletelyDependent(5).params() == "slope=5"
    assert CompletelyDependent(1234567).params() == "slope=1234567"
    assert Independence().params() == ""


@pytest.mark.parametrize(
    "shape, n, noise, message",
    [
        ("linear", 1, 0.0, "n must be >= 2"),
        ("linear", 10, -0.1, "noise must be >= 0"),
        ("linear", 10, float("nan"), "noise must be >= 0"),
        ("sinus", 10, float("inf"), "noise must be >= 0, and 2 \\* noise finite"),
        ("quadratic", 10, 1e308, "noise must be >= 0, and 2 \\* noise finite"),
        ("non_coexistence", 10, 0.0, "non_coexistence needs a positive noise band"),
        ("torus", 10, 1.5, "torus noise must be <= 1"),
    ],
)
def test_shape_parameters_checked_on_construction(shape, n, noise, message):
    with pytest.raises(ValueError, match=message):
        ShapeGenerator(shape, n, noise)


def test_torus_noise_1_is_accepted():
    sample = generate_shape(ShapeGenerator("torus", 200, 1.0), 3)
    assert sample.n == 200


class TestSamplers:
    @pytest.mark.parametrize(
        "model",
        [
            Independence(),
            FGM(-1.0),
            FGM(0.5),
            MarshallOlkin(0.5, 0.5),
            MarshallOlkin(0.3, 1.0),
            MarshallOlkin(1.0, 0.0),
            CompletelyDependent(5),
        ],
    )
    def test_uniform_margins(self, model):
        # KS uniformity at alpha = 0.01 across seeds
        for seed in (1, 2, 3):
            sample = sample_model(model, 4000, seed)
            assert stats.kstest(sample.xs, "uniform").pvalue > 0.01
            assert stats.kstest(sample.ys, "uniform").pvalue > 0.01

    def test_reproducible_under_seed(self):
        a = sample_model(FGM(-1.0), 100, 7)
        b = sample_model(FGM(-1.0), 100, 7)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)

    def test_completely_dependent_exact_relation(self):
        sample = sample_model(CompletelyDependent(5), 2000, 11)
        assert_allclose(sample.ys, (5 * sample.xs) % 1.0, atol=1e-15)

    def test_fgm_spearman_matches_theory(self):
        # Spearman's rho of the FGM family is theta / 3
        for theta in (-1.0, 0.6):
            sample = sample_model(FGM(theta), 100000, 13)
            rho = stats.spearmanr(sample.xs, sample.ys).statistic
            assert abs(rho - theta / 3) < 0.02

    def test_fgm_cdf_via_counts(self):
        theta = -0.8
        sample = sample_model(FGM(theta), 200000, 17)
        for u, v in ((0.3, 0.7), (0.5, 0.5), (0.8, 0.2)):
            empirical = np.mean((sample.xs <= u) & (sample.ys <= v))
            exact = u * v + theta * u * v * (1 - u) * (1 - v)
            assert abs(empirical - exact) < 0.005

    def test_mo_cdf_via_counts(self):
        alpha, beta = 0.3, 1.0
        sample = sample_model(MarshallOlkin(alpha, beta), 200000, 19)
        for u, v in ((0.3, 0.7), (0.6, 0.6), (0.9, 0.2)):
            empirical = np.mean((sample.xs <= u) & (sample.ys <= v))
            exact = min(u ** (1 - alpha) * v, u * v ** (1 - beta))
            assert abs(empirical - exact) < 0.005

    def test_mo_degenerate_limits(self):
        m10 = sample_model(MarshallOlkin(1.0, 0.0), 1000, 23)
        assert abs(stats.pearsonr(m10.xs, m10.ys).statistic) < 0.1
        m11 = sample_model(MarshallOlkin(1.0, 1.0), 1000, 23)
        assert np.array_equal(m11.xs, m11.ys)


class TestClosedForms:
    def test_reference_values(self):
        assert zeta1_closed_form(FGM(-1.0)) == (0.25, 0.25)
        assert zeta1_closed_form(FGM(0.5)) == (0.125, 0.125)
        assert zeta1_closed_form(Independence()) == (0.0, 0.0)
        assert zeta1_closed_form(CompletelyDependent(5)) == (1.0, None)
        assert zeta1_closed_form(MarshallOlkin(1.0, 1.0)) == (1.0, 1.0)
        assert zeta1_closed_form(MarshallOlkin(1.0, 0.0)) == (0.0, 0.0)
        assert zeta1_closed_form(MarshallOlkin(0.0, 0.7)) == (0.0, 0.0)

    def test_mo_formula_value(self):
        fwd, rev = zeta1_closed_form(MarshallOlkin(0.3, 1.0))
        assert_allclose(fwd, 0.324186, atol=5e-7)
        assert_allclose(rev, 0.391304, atol=5e-7)
        fwd, rev = zeta1_closed_form(MarshallOlkin(1.0, 0.7))
        assert_allclose(fwd, 3 - 6 / 2.7, atol=1e-12)

    def test_transpose_swaps_parameters(self):
        fwd, rev = zeta1_closed_form(MarshallOlkin(0.5, 0.8))
        fwd2, rev2 = zeta1_closed_form(MarshallOlkin(0.8, 0.5))
        assert fwd == rev2 and rev == fwd2

    def test_formula_against_analytic_board(self):
        # transcription guard: checkerboards of the true copula converge
        for model in (MarshallOlkin(0.3, 1.0), MarshallOlkin(0.5, 0.5), FGM(-1.0)):
            target = zeta1_closed_form(model)[0]
            coarse = qad.zeta1(analytic_checkerboard(model, 128))
            fine = qad.zeta1(analytic_checkerboard(model, 512))
            assert abs(fine - target) < abs(coarse - target) + 1e-9
            assert abs(fine - target) < 5e-3

    @pytest.mark.parametrize("resolution, error", [(2.5, TypeError), (0, ValueError), (True, TypeError)])
    def test_analytic_board_resolution_is_a_count(self, resolution, error):
        # 2.5 built a 3 x 3 board on grid points up to 1.2, 0 divided by zero
        with pytest.raises(error, match="resolution"):
            analytic_checkerboard(FGM(0.5), resolution)

    def test_independence_board_is_the_product(self):
        board = analytic_checkerboard(Independence(), 8)
        assert_allclose(board.mass, qad.CheckerboardCopula.independence(8).mass, atol=1e-15)

    def test_analytic_board_transpose_consistency(self):
        model = MarshallOlkin(0.3, 1.0)
        board = analytic_checkerboard(model, 256)
        swapped = analytic_checkerboard(MarshallOlkin(1.0, 0.3), 256)
        assert_allclose(board.mass.T, swapped.mass, atol=1e-12)


class TestShapes:
    def test_constant_coordinate_rescales_to_zero(self):
        # both halves of a 2-point x_cross sit at x = 0
        sample = generate_shape(ShapeGenerator("x_cross", 2), 0)
        assert np.array_equal(sample.xs, np.zeros(2))

    def test_all_shapes_produce_unit_square_samples(self):
        for name in SHAPE_NAMES:
            gen = ShapeGenerator(name, 256, 0.1)
            sample = generate_shape(gen, 3)
            assert sample.n >= 2
            assert sample.xs.min() >= 0 and sample.xs.max() <= 1
            assert sample.ys.min() >= 0 and sample.ys.max() <= 1

    def test_reproducible(self):
        for name in SHAPE_NAMES:
            a = generate_shape(ShapeGenerator(name, 100, 0.05), 9)
            b = generate_shape(ShapeGenerator(name, 100, 0.05), 9)
            assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)

    def test_noiseless_quadratic_is_exact_parabola(self):
        sample = generate_shape(ShapeGenerator("quadratic", 101, 0.0), 1)
        x = np.linspace(-1, 1, 101)
        expected_x = (x + 1) / 2
        expected_y = x**2  # already spans [0, 1]
        assert_allclose(sample.xs, expected_x, atol=1e-12)
        assert_allclose(sample.ys, expected_y, atol=1e-12)

    def test_torus_radii_band(self):
        a = 0.3
        rng = np.random.default_rng(5)
        r = np.sqrt(rng.uniform(1 - a, 1 + a, 5000))
        assert r.min() >= np.sqrt(1 - a) and r.max() <= np.sqrt(1 + a)
        sample = generate_shape(ShapeGenerator("torus", 5000, a), 5)
        # rescaled ring: center is empty
        d = np.hypot(sample.xs - 0.5, sample.ys - 0.5)
        assert np.min(d) > 0.2

    def test_non_coexistence_band(self):
        rng = np.random.default_rng(7)
        a = 0.25
        x0, y0 = rng.uniform(0, 1, 4000), rng.uniform(0, 1, 4000)
        kept = (x0 <= a) | (y0 <= a)
        expected_count = int(kept.sum())
        sample = generate_shape(ShapeGenerator("non_coexistence", 4000, a), 7)
        assert sample.n == expected_count
        with pytest.raises(ValueError):
            generate_shape(ShapeGenerator("non_coexistence", 100, 0.0), 1)

    def test_periodic_pattern_tiles(self):
        sample = generate_shape(ShapeGenerator("periodic_pattern", 160, 0.0), 2)
        assert sample.n == 160
        assert np.unique(sample.xs).size == 16

    def test_x_cross_two_branches(self):
        sample = generate_shape(ShapeGenerator("x_cross", 200, 0.0), 4)
        on_rising = np.isclose(sample.ys, sample.xs, atol=1e-9)
        on_falling = np.isclose(sample.ys, 1 - sample.xs, atol=1e-9)
        assert np.all(on_rising | on_falling)
        assert on_rising.sum() >= 90 and on_falling.sum() >= 90

    def test_two_rotated_lines_structure(self):
        sample = generate_shape(ShapeGenerator("two_rotated_lines", 2000, 0.0), 6)
        # two distinct lines: no single linear fit explains the cloud,
        # yet y is still strongly predictable from x
        fit = np.polyfit(sample.xs, sample.ys, 1)
        residuals = sample.ys - np.polyval(fit, sample.xs)
        assert np.max(np.abs(residuals)) > 0.05
        result = qad.qad_compute(sample)
        assert max(result.q_xy, result.q_yx) > 0.75

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="unknown shape"):
            ShapeGenerator("spiral", 100, 0.1)

    @pytest.mark.parametrize("n", [10.5, 10.0, float("inf"), float("nan"), np.float64(10), True])
    def test_size_is_a_count(self, n):
        with pytest.raises(TypeError, match="n must be an integer"):
            ShapeGenerator("linear", n)

    def test_numpy_integer_size_accepted(self):
        gen = ShapeGenerator("linear", np.int64(10))
        assert generate_shape(gen, 1).n == 10

    def test_float16_noise_checked_in_float64(self):
        # 2 * noise overflows float16, but not the float64 that uniform() draws in
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gen = ShapeGenerator("linear", 10, np.float16(65504))
            assert generate_shape(gen, 1).n == 10

    @pytest.mark.parametrize(
        "name", ["linear", "quadratic", "sinus", "x_cross", "torus"]
    )
    def test_noise_reduces_dependence(self, name):
        q_clean = qad.qad_compute(
            generate_shape(ShapeGenerator(name, 1000, 0.01), 8)
        ).q_xy
        q_noisy = qad.qad_compute(
            generate_shape(ShapeGenerator(name, 1000, 0.8), 8)
        ).q_xy
        assert q_clean > q_noisy + 0.15

    def test_small_parabola_dependence_values(self):
        # the smaller noisy-parabola configuration lands on 0.90 / 0.45
        q_xy, q_yx = [], []
        for seed in range(30):
            sample = generate_shape(ShapeGenerator("quadratic", 100, 0.01), seed)
            result = qad.qad_compute(sample)
            q_xy.append(result.q_xy)
            q_yx.append(result.q_yx)
        assert abs(np.median(q_xy) - 0.90) < 0.02
        assert abs(np.median(q_yx) - 0.45) < 0.02


class TestConvergenceExperiment:
    def test_row_structure_and_refs(self):
        result = convergence_experiment(FGM(-1.0), [50, 100], 3, seed=1)
        assert len(result.rows) == 6
        ns = sorted({row.n for row in result.rows})
        assert ns == [50, 100]
        for row in result.rows:
            assert row.model == "fgm"
            assert row.ref_xy == 0.25 and row.ref_yx == 0.25
            assert 0 <= row.q_xy <= 1

    def test_summaries_quartiles(self):
        result = convergence_experiment(Independence(), [100], 11, seed=2)
        (summary,) = result.summaries()
        q25, q50, q75 = summary["q_xy_quartiles"]
        assert q25 <= q50 <= q75

    def test_cd_reference_flags_missing_transpose(self):
        result = convergence_experiment(CompletelyDependent(5), [100], 2, seed=3)
        assert result.rows[0].ref_xy == 1.0
        assert result.rows[0].ref_yx is None

    @pytest.mark.parametrize("seed, error", [(1.5, TypeError), (-1, ValueError), (True, TypeError)])
    def test_seed_is_checked(self, seed, error):
        with pytest.raises(error, match="seed"):
            convergence_experiment(FGM(-1.0), [50], 1, seed=seed)

    def test_deterministic_and_thread_invariant(self):
        a = convergence_experiment(FGM(-0.5), [200], 4, seed=9)
        b = convergence_experiment(FGM(-0.5), [200], 4, seed=9)
        c = convergence_experiment(FGM(-0.5), [200], 4, seed=9, threads=3)
        assert a.rows == b.rows == c.rows

    def test_fgm_error_shrinks_with_n(self):
        # median absolute estimation error decreases along the size ladder
        result = convergence_experiment(FGM(-1.0), [100, 1000, 10000], 50, seed=5)
        errors = []
        for n in (100, 1000, 10000):
            qs = [row.q_xy for row in result.rows if row.n == n]
            errors.append(np.median(np.abs(np.array(qs) - 0.25)))
        assert errors[0] > errors[1] > errors[2]

    def test_mo_family_converges_both_directions(self):
        # estimation error shrinks toward the closed form along the size ladder
        for alpha, beta in ((1, 0), (1, 1), (0.3, 1), (1, 0.7), (0.5, 0.5)):
            model = MarshallOlkin(alpha, beta)
            ref_xy, ref_yx = zeta1_closed_form(model)
            result = convergence_experiment(model, [250, 4000], 8, seed=6)
            errs = {}
            for n in (250, 4000):
                rows = [row for row in result.rows if row.n == n]
                errs[n] = (
                    abs(np.median([r.q_xy for r in rows]) - ref_xy)
                    + abs(np.median([r.q_yx for r in rows]) - ref_yx)
                )
            assert errs[4000] < errs[250]
            assert errs[4000] < 0.26  # sum over both directions

    def test_cd_asymmetry_gap_widens(self):
        result = convergence_experiment(CompletelyDependent(5), [1000, 10000], 6, seed=7)
        gaps = {}
        for n in (1000, 10000):
            rows = [row for row in result.rows if row.n == n]
            gaps[n] = np.median([row.q_xy - row.q_yx for row in rows])
        assert gaps[1000] > 0.1
        assert gaps[10000] > gaps[1000]


class TestSeedChecks:
    """A seed that is not a SeedSequence or Generator is a count >= 0."""

    @pytest.mark.parametrize("seed, error", [(1.5, TypeError), (-1, ValueError), (True, TypeError)])
    def test_sample_model_seed_checked(self, seed, error):
        with pytest.raises(error, match="seed"):
            sample_model(FGM(0.5), 5, seed)

    @pytest.mark.parametrize("seed, error", [(1.5, TypeError), (-1, ValueError), (None, TypeError)])
    def test_generate_shape_seed_checked(self, seed, error):
        with pytest.raises(error, match="seed"):
            generate_shape(ShapeGenerator("sinus", 20, 0.1), seed)

    def test_seed_forms_accepted(self):
        gen = ShapeGenerator("torus", 30, 0.2)
        want = generate_shape(gen, 7)
        for seed in (np.int64(7), np.random.SeedSequence(7), np.random.default_rng(7)):
            got = generate_shape(gen, seed)
            assert np.array_equal(got.xs, want.xs) and np.array_equal(got.ys, want.ys)
        drawn = sample_model(FGM(0.5), 5, np.uint32(3))
        assert np.array_equal(drawn.xs, sample_model(FGM(0.5), 5, 3).xs)
