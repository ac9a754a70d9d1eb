import numpy as np
import pytest
from numpy.testing import assert_allclose

from qad import (
    BivariateSample,
    ExtrapolationError,
    predict,
    prediction_table,
)
from qad.simulate import Independence, sample_model

from helpers import strip_conditional_counts


class TestPredictionTable:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(40)
        sample = BivariateSample(rng.random(200), rng.random(200))
        table = prediction_table(sample)
        assert_allclose(table.cond.sum(axis=1), np.ones(table.resolution), atol=1e-12)

    def test_independent_rows_near_uniform(self):
        sample = sample_model(Independence(), 20000, 7)
        table = prediction_table(sample, resolution=5)
        assert_allclose(table.cond, np.full((5, 5), 0.2), atol=0.05)

    def test_comonotone_identity_matrix(self):
        xs = np.arange(100, dtype=float)
        table = prediction_table(BivariateSample(xs, xs))
        assert table.resolution == 10
        assert_allclose(table.cond, np.eye(10), atol=1e-12)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(41)
        n, resolution = 120, 4
        xs = rng.permutation(n).astype(float)
        ys = rng.random(n)
        table = prediction_table(BivariateSample(xs, ys), resolution=resolution)
        oracle = strip_conditional_counts(xs, ys, resolution)
        assert_allclose(table.cond, oracle, atol=1e-12)

    def test_breaks_are_order_statistics(self):
        rng = np.random.default_rng(42)
        xs = rng.normal(0, 3, 60)
        ys = rng.random(60)
        table = prediction_table(BivariateSample(xs, ys), resolution=4)
        s = np.sort(xs)
        assert table.x_breaks[0] == s[0]
        assert table.x_breaks[-1] == s[-1]
        # interior breaks use the ceiling rule on order statistics
        for j in range(1, 4):
            expected = s[int(np.ceil(j * 60 / 4)) - 1]
            assert table.x_breaks[j] == expected
        assert np.all(np.diff(table.x_breaks) >= 0)

    def test_parabola_concentration(self):
        from qad.simulate import ShapeGenerator, generate_shape

        sample = generate_shape(ShapeGenerator("quadratic", 1000, 0.01), 1)
        table = prediction_table(sample, resolution=10)
        # extreme-x strips predict high y, mid-x strips predict low y
        assert table.cond[0, -3:].sum() > 0.9
        assert table.cond[-1, -3:].sum() > 0.9
        assert table.cond[4, :3].sum() > 0.9

    def test_direction_yx(self):
        xs = np.arange(64, dtype=float)
        ys = -xs  # antitone: y-strip i predicts the mirrored x interval
        table = prediction_table(BivariateSample(xs, ys), direction="yx")
        assert table.direction == "yx"
        assert_allclose(table.cond, np.eye(8)[::-1], atol=1e-12)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            prediction_table(BivariateSample([1.0, 2.0], [1.0, 2.0]), direction="zz")


class TestPredict:
    def test_distribution_sums_to_one_everywhere(self):
        rng = np.random.default_rng(43)
        sample = BivariateSample(rng.random(150), rng.random(150))
        table = prediction_table(sample)
        for x0 in np.linspace(sample.xs.min(), sample.xs.max(), 23):
            dist = predict(table, x0)
            assert_allclose(sum(p for _, p in dist), 1.0, atol=1e-12)

    def test_independent_fit_uniform(self):
        sample = sample_model(Independence(), 20000, 8)
        table = prediction_table(sample, resolution=4)
        dist = predict(table, 0.37)
        probs = [p for _, p in dist]
        assert_allclose(probs, [0.25] * 4, atol=0.05)

    def test_comonotone_median_hits_middle_interval(self):
        xs = np.arange(1, 101, dtype=float)
        table = prediction_table(BivariateSample(xs, xs))
        dist = predict(table, float(np.median(xs)))
        top = max(dist, key=lambda item: item[1])
        assert top[1] == pytest.approx(1.0, abs=1e-12)
        lo, hi = top[0]
        assert lo <= np.median(xs) <= hi

    def test_piecewise_constant_in_x0(self):
        rng = np.random.default_rng(44)
        sample = BivariateSample(rng.random(80), rng.random(80))
        table = prediction_table(sample, resolution=4)
        breaks = table.conditioning_breaks
        for i in range(4):
            lo, hi = breaks[i], breaks[i + 1]
            if hi <= lo:
                continue
            inner = np.linspace(lo, hi, 7)[:-1]  # half-open strip
            dists = [tuple(p for _, p in predict(table, v)) for v in inner]
            assert len(set(dists)) == 1

    def test_extrapolation_rejected(self):
        xs = np.arange(50, dtype=float)
        table = prediction_table(BivariateSample(xs, xs))
        with pytest.raises(ExtrapolationError, match="extrapolation"):
            predict(table, -1.0)
        with pytest.raises(ExtrapolationError, match="extrapolation"):
            predict(table, 49.5)

    def test_nan_rejected(self):
        xs = np.arange(50, dtype=float)
        table = prediction_table(BivariateSample(xs, xs))
        with pytest.raises(ExtrapolationError, match="extrapolation"):
            predict(table, float("nan"))

    def test_range_endpoints_included(self):
        xs = np.arange(50, dtype=float)
        table = prediction_table(BivariateSample(xs, xs))
        predict(table, 0.0)
        predict(table, 49.0)

    def test_counting_oracle_probabilities(self):
        rng = np.random.default_rng(45)
        n, resolution = 160, 4
        xs = rng.permutation(n).astype(float)
        ys = rng.random(n)
        table = prediction_table(BivariateSample(xs, ys), resolution=resolution)
        oracle = strip_conditional_counts(xs, ys, resolution)
        mid = 0.5 * (table.x_breaks[1] + table.x_breaks[2])
        dist = predict(table, mid)
        assert_allclose([p for _, p in dist], oracle[1], atol=1e-12)


class TestTiedBreaks:
    def test_zero_width_intervals_kept_in_matrix(self):
        # heavy ties in y collapse adjacent quantile breaks
        xs = np.arange(40, dtype=float)
        ys = np.repeat([1.0, 2.0], 20)
        table = prediction_table(BivariateSample(xs, ys), resolution=4)
        assert np.any(np.diff(table.y_breaks) == 0)
        assert table.cond.shape == (4, 4)
        assert_allclose(table.cond.sum(axis=1), np.ones(4), atol=1e-12)

    def test_merged_row_sums_preserved(self):
        xs = np.arange(40, dtype=float)
        ys = np.repeat([1.0, 2.0], 20)
        table = prediction_table(BivariateSample(xs, ys), resolution=4)
        for strip in range(4):
            merged = table.merged_row(strip)
            assert_allclose(sum(p for _, _, p in merged), 1.0, atol=1e-12)
            widths = [hi - lo for lo, hi, _ in merged]
            assert all(w > 0 for w in widths) or len(merged) == 1


def test_json_dict_keys_and_values():
    # the dataclass fields in declaration order, arrays as lists of Python floats
    xs = np.arange(16, dtype=float)
    table = prediction_table(BivariateSample(xs, xs[::-1]), direction="yx")
    doc = table.to_json_dict()
    assert list(doc) == ["direction", "resolution", "cond", "x_breaks", "y_breaks"]
    assert doc["direction"] == "yx"
    assert doc["resolution"] == 4 and type(doc["resolution"]) is int
    assert doc["cond"] == [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0],
                           [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
    assert doc["x_breaks"] == doc["y_breaks"] == [0.0, 3.0, 7.0, 11.0, 15.0]
    for values in (*doc["cond"], doc["x_breaks"], doc["y_breaks"]):
        assert all(type(v) is float for v in values)
