import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qad import (
    BivariateSample,
    DataError,
    DataTable,
    QadOptions,
    baseline_correlations,
    build_network,
    filter_columns,
    influence_summary,
    pairwise_qad,
    pseudo_observations,
    qad_compute,
)
from qad.pairwise import _sign_test_greater


def make_table(seed=50, n=200, k=3, names=None):
    rng = np.random.default_rng(seed)
    values = rng.random((n, k))
    names = names or tuple(f"v{i}" for i in range(k))
    return DataTable(names, values)


class TestDataTable:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            DataTable(("a", "a"), np.zeros((3, 2)))

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            DataTable(("a", "b", "c"), np.zeros((3, 2)))

    def test_complex_values_rejected(self):
        with pytest.raises(TypeError, match="real, not complex"):
            DataTable(("a", "b"), np.array([[1 + 1j, 2], [3, 4]]))

    @pytest.mark.parametrize("names", [(1, 2), ("a", 1), ("a", None), (b"a", "b")])
    def test_names_must_be_strings(self, names):
        with pytest.raises(TypeError, match="column names must be strings"):
            DataTable(names, np.zeros((3, 2)))

    def test_unknown_column(self):
        table = make_table()
        with pytest.raises(DataError, match="unknown column"):
            table.column("nope")


class TestFilterColumns:
    def test_threshold_boundary_drop(self):
        rng = np.random.default_rng(51)
        col = np.concatenate([np.full(32, 7.0), rng.random(93)])
        rng.shuffle(col)
        assert len(col) == 125 and 32 / 125 == 0.256
        table = DataTable(("ties", "clean"), np.column_stack([col, rng.random(125)]))
        filtered, report = filter_columns(table, 0.25)
        assert filtered.names == ("clean",)
        assert report.dropped == (("ties", 0.256),)

    def test_strictly_increasing_retained(self):
        table = DataTable(("inc",), np.arange(50.0).reshape(-1, 1))
        filtered, report = filter_columns(table, 0.25)
        assert filtered.names == ("inc",)
        assert report.dropped == ()

    def test_constant_dropped(self):
        table = DataTable(
            ("const", "ok"), np.column_stack([np.ones(30), np.arange(30.0)])
        )
        filtered, report = filter_columns(table)
        assert filtered.names == ("ok",)
        assert report.dropped[0] == ("const", 1.0)

    def test_all_dropped_is_error(self):
        table = DataTable(("a", "b"), np.ones((10, 2)))
        with pytest.raises(DataError, match="all columns dropped"):
            filter_columns(table)

    def test_all_missing_column_dropped(self):
        table = DataTable(
            ("nan", "ok"), np.column_stack([np.full(20, np.nan), np.arange(20.0)])
        )
        filtered, report = filter_columns(table)
        assert filtered.names == ("ok",)

    def test_min_unique_prop(self):
        rng = np.random.default_rng(52)
        coarse = rng.integers(0, 5, 100).astype(float)  # 5 distinct values
        fine = rng.random(100)
        table = DataTable(("coarse", "fine"), np.column_stack([coarse, fine]))
        filtered, _ = filter_columns(table, max_single_value_prop=0.9, min_unique_prop=0.5)
        assert filtered.names == ("fine",)


class TestPairwiseQad:
    def test_antisymmetry_exact(self):
        pw = pairwise_qad(make_table(k=4))
        k = pw.k
        for f in range(k):
            for j in range(k):
                if f == j:
                    assert np.isnan(pw.asymmetry[f, j])
                else:
                    assert pw.asymmetry[f, j] == -pw.asymmetry[j, f]
                    assert pw.asymmetry[f, j] == pw.q[f, j] - pw.q[j, f]

    def test_numpy_integer_seed_gives_the_same_screen(self):
        table = make_table(seed=55, n=100, k=3)
        plain = pairwise_qad(table, QadOptions(permutations=19, seed=3))
        typed = pairwise_qad(table, QadOptions(permutations=np.int64(19), seed=np.int64(3)))
        assert_allclose(typed.p_q, plain.p_q, rtol=0, atol=0)
        assert_allclose(typed.p_asymmetry, plain.p_asymmetry, rtol=0, atol=0)

    def test_seed_keeps_every_bit(self):
        """Seeds s and s + 2^64 give different p-values, as they do in qad_compute."""
        table = make_table(seed=56, n=60, k=3)
        low, high = (
            pairwise_qad(table, QadOptions(permutations=19, seed=s)) for s in (5, 5 + (1 << 64))
        )
        assert not np.array_equal(low.p_q, high.p_q, equal_nan=True)
        assert np.array_equal(low.q, high.q, equal_nan=True)

    def test_ranks_each_pair_once(self, monkeypatch):
        """A screened pair is ranked by two _max_ranks calls, one per column, and
        is scored as those pseudo-observations: pseudo_observations never runs."""
        import qad.copula
        import qad.estimator
        import qad.pairwise

        calls = {"_max_ranks": 0, "pseudo_observations": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapped(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapped)

        for module in (qad.copula, qad.pairwise):
            counting(module, "_max_ranks")
        for module in (qad.copula, qad.estimator):
            counting(module, "pseudo_observations")
        table = make_table(seed=57, n=80, k=3)
        table.values[::7, 1] = np.round(table.values[::7, 1], 1)
        pairwise_qad(table, QadOptions(permutations=9, seed=4))
        assert calls == {"_max_ranks": 2 * 3, "pseudo_observations": 0}

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(st.data())
    def test_canonical_pair_is_the_lexsorted_sample_ranked(self, data):
        """_canonical_pair gives, byte for byte, the pseudo-observations of the
        rows in np.lexsort((ys, xs)) order, on tied, untied and constant columns
        that may hold both 0.0 and -0.0."""
        from qad.pairwise import _canonical_pair

        n = data.draw(st.integers(2, 30))

        def column():
            kind = data.draw(st.sampled_from(["tied", "untied", "constant"]))
            if kind == "untied":
                cells = st.lists(st.floats(-5, 5), min_size=n, max_size=n, unique=True)
            else:
                constant = [data.draw(st.sampled_from([0.0, -0.0]))]
                pool = [0.0, -0.0, 1.5, -2.0] if kind == "tied" else constant
                cells = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
            return np.array(data.draw(cells))

        xs, ys = column(), column()
        o = np.lexsort((ys, xs))
        got = _canonical_pair(xs, ys)
        want = pseudo_observations(BivariateSample(xs[o], ys[o]))
        assert got.n_unique_u == np.unique(xs).size and got.n_unique_v == np.unique(ys).size
        for name in ("us", "vs", "n", "n_unique_u", "n_unique_v",
                     "ranks_u", "ranks_v", "ties_u", "ties_v"):
            a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_duplicate_column_closed_form(self):
        z = np.arange(100, dtype=float)
        table = DataTable(("z1", "z2"), np.column_stack([z, z]))
        pw = pairwise_qad(table)
        assert_allclose(pw.q[0, 1], 1 - 1 / 20, atol=1e-13)
        assert_allclose(pw.q[1, 0], 1 - 1 / 20, atol=1e-13)

    def test_independent_columns_small_q(self):
        pw = pairwise_qad(make_table(seed=53, n=5000, k=3))
        off = pw.q[~np.isnan(pw.q)]
        assert np.all(off < 0.15)

    def test_matrix_matches_direct_compute(self):
        from qad.pairwise import _canonical_pair

        table = make_table(seed=54, n=300, k=3)
        pw = pairwise_qad(table)
        for f in range(3):
            for j in range(3):
                if f == j:
                    continue
                raw = qad_compute(
                    BivariateSample(table.values[:, f], table.values[:, j])
                )
                # agreement up to summation-order rounding on the raw ordering
                assert_allclose(pw.q[f, j], raw.q_xy, rtol=0, atol=1e-12)
                assert_allclose(pw.q[j, f], raw.q_yx, rtol=0, atol=1e-12)
                # bit-exact once the rows are in the canonical order used inside
                canon = qad_compute(
                    _canonical_pair(table.values[:, f], table.values[:, j])
                )
                assert pw.q[f, j] == canon.q_xy
                assert pw.q[j, f] == canon.q_yx

    def test_row_order_invariance(self):
        table = make_table(seed=55, n=150, k=3)
        opts = QadOptions(permutations=19, seed=3)
        base = pairwise_qad(table, opts)
        rng = np.random.default_rng(56)
        perm = rng.permutation(table.n_rows)
        shuffled = DataTable(table.names, table.values[perm])
        other = pairwise_qad(shuffled, opts)
        assert np.array_equal(base.q, other.q, equal_nan=True)
        assert np.array_equal(base.p_q, other.p_q, equal_nan=True)
        assert np.array_equal(base.p_asymmetry, other.p_asymmetry, equal_nan=True)

    def test_column_order_conjugation(self):
        table = make_table(seed=57, n=150, k=3)
        opts = QadOptions(permutations=19, seed=5)
        base = pairwise_qad(table, opts)
        order = [2, 0, 1]
        permuted = DataTable(
            tuple(table.names[i] for i in order), table.values[:, order]
        )
        other = pairwise_qad(permuted, opts)
        for a, na in enumerate(order):
            for b, nb in enumerate(order):
                if a == b:
                    continue
                assert other.q[a, b] == base.q[na, nb]
                assert other.p_q[a, b] == base.p_q[na, nb]

    @settings(max_examples=15, derandomize=True, deadline=None, database=None)
    @given(st.data())
    def test_row_and_column_order_invariance(self, data):
        """On tables with tied values and empty cells, a row shuffle leaves every
        matrix bit-identical, and a column permutation permutes its rows and
        columns to match."""
        k, n = data.draw(st.integers(3, 4)), data.draw(st.integers(20, 60))
        columns = []
        for _ in range(k):
            pool = [v / 8 for v in data.draw(st.sets(st.integers(-40, 40), min_size=2, max_size=40))]
            columns.append(data.draw(st.lists(st.sampled_from(pool + [np.nan]), min_size=n, max_size=n)))
        names = tuple(data.draw(st.permutations("abcd"))[:k])
        table = DataTable(names, np.array(columns).T)
        opts = QadOptions(permutations=19, seed=data.draw(st.integers(0, 1 << 64)))
        base = pairwise_qad(table, opts)
        matrices = ("q", "p_q", "asymmetry", "p_asymmetry", "n_used")

        rows = data.draw(st.permutations(range(n)))
        shuffled = pairwise_qad(DataTable(names, table.values[rows]), opts)
        order = data.draw(st.permutations(range(k)))
        permuted = pairwise_qad(
            DataTable(tuple(names[i] for i in order), table.values[:, order]), opts
        )
        assert shuffled.warnings == base.warnings
        for name in matrices:
            want = getattr(base, name)
            assert np.array_equal(getattr(shuffled, name), want, equal_nan=True)
            assert np.array_equal(getattr(permuted, name), want[np.ix_(order, order)], equal_nan=True)

    def test_pairwise_complete_deletion(self):
        rng = np.random.default_rng(58)
        values = rng.random((100, 3))
        values[:40, 0] = np.nan
        table = DataTable(("a", "b", "c"), values)
        pw = pairwise_qad(table)
        assert pw.n_used[0, 1] == 60
        assert pw.n_used[1, 2] == 100

    def test_degenerate_pair_warns(self):
        values = np.column_stack(
            [np.concatenate([[1.0], np.full(9, np.nan)]), np.arange(10.0)]
        )
        pw = pairwise_qad(DataTable(("sparse", "full"), values))
        assert np.isnan(pw.q[0, 1])
        assert pw.warnings and "fewer than 2 complete rows" in pw.warnings[0]

    def test_non_finite_pair_skipped_with_reason(self):
        values = np.random.default_rng(63).random((30, 3))
        values[4, 1] = np.inf
        table = DataTable(("a", "b", "c"), values)
        pw = pairwise_qad(table, QadOptions(permutations=9, seed=2))
        for f, j in ((0, 1), (1, 2)):
            assert np.isnan(pw.q[f, j]) and np.isnan(pw.q[j, f])
            assert np.isnan(pw.p_q[f, j]) and np.isnan(pw.asymmetry[f, j])
        assert pw.warnings == ("pair (a, b): non-finite values", "pair (b, c): non-finite values")
        from qad.pairwise import _canonical_pair

        direct = qad_compute(_canonical_pair(values[:, 0], values[:, 2]))
        assert pw.q[0, 2] == direct.q_xy and pw.n_used[0, 2] == 30

    def test_single_column_rejected(self):
        with pytest.raises(DataError):
            pairwise_qad(DataTable(("only",), np.arange(5.0).reshape(-1, 1)))

    def test_threads_identical(self):
        table = make_table(seed=59, n=120, k=4)
        opts = QadOptions(permutations=19, seed=1)
        a = pairwise_qad(table, opts, threads=1)
        b = pairwise_qad(table, opts, threads=4)
        assert np.array_equal(a.q, b.q, equal_nan=True)
        assert np.array_equal(a.p_q, b.p_q, equal_nan=True)

    def test_threads_identical_on_dense_pairs(self):
        # about 40 % zeros in one column: a tie rectangle wider than a strip,
        # so its pairs take the dense overlap product under the pair pool
        table = make_table(seed=61, n=300, k=4)
        values = table.values.copy()
        values[np.random.default_rng(62).random(300) < 0.4, 0] = 0.0
        table = DataTable(table.names, values)
        opts = QadOptions(permutations=19, seed=3)
        a = pairwise_qad(table, opts, threads=1)
        b = pairwise_qad(table, opts, threads=2)
        for field in ("q", "p_q", "asymmetry", "p_asymmetry", "n_used"):
            assert np.array_equal(getattr(a, field), getattr(b, field), equal_nan=True), field


class TestInfluence:
    def test_two_variable_negation(self):
        z = np.arange(60, dtype=float)
        y = (5 * z) % 7  # asymmetric relation
        pw = pairwise_qad(DataTable(("a", "b"), np.column_stack([z, y])))
        infl = influence_summary(pw)
        assert_allclose(
            infl.median_influence[0], -infl.median_influence[1], atol=1e-14
        )

    def test_driver_has_positive_median(self):
        rng = np.random.default_rng(60)
        n = 400
        x = rng.uniform(-1, 1, n)  # many-to-one toward the targets
        cols = [x] + [x**2 + rng.normal(0, 0.08, n) for _ in range(4)]
        table = DataTable(tuple("dabce"[: len(cols)]), np.column_stack(cols))
        pw = pairwise_qad(table)
        infl = influence_summary(pw)
        assert infl.median_influence[0] > 0
        assert infl.median_influence[0] == max(infl.median_influence)
        assert infl.q25_influence[0] <= infl.median_influence[0] <= infl.q75_influence[0]

    def test_independent_column_not_significant(self):
        rng = np.random.default_rng(61)
        table = DataTable(
            ("i1", "i2", "i3", "i4"), rng.random((500, 4))
        )
        infl = influence_summary(pairwise_qad(table))
        assert np.all(np.abs(infl.median_influence) < 0.06)
        assert np.all(infl.p_median_positive > 0.05)

    def test_sign_vs_signrank(self):
        table = make_table(seed=62, n=100, k=4)
        pw = pairwise_qad(table)
        a = influence_summary(pw, method="sign")
        b = influence_summary(pw, method="signrank")
        assert a.method == "sign" and b.method == "signrank"
        assert np.all((a.p_median_positive > 0) & (a.p_median_positive <= 1))
        assert np.all((b.p_median_positive > 0) & (b.p_median_positive <= 1))
        with pytest.raises(ValueError):
            influence_summary(pw, method="bogus")

    def test_sign_test_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        assert _sign_test_greater(np.zeros(4)) == 1.0
        for n in (1, 2, 3, 10, 57, 199):
            for k in range(n + 1):
                values = np.concatenate([np.ones(k), -np.ones(n - k), np.zeros(2)])
                expected = stats.binom.sf(k - 1, n, 0.5)
                assert _sign_test_greater(values) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_mean_curves(self):
        table = make_table(seed=63, n=80, k=3)
        pw = pairwise_qad(table)
        infl = influence_summary(pw)
        for f in range(3):
            assert_allclose(
                infl.mean_influence_given[f],
                np.nanmean(np.delete(pw.q[f], f)),
                atol=1e-14,
            )
            assert_allclose(
                infl.mean_influence_received[f],
                np.nanmean(np.delete(pw.q[:, f], f)),
                atol=1e-14,
            )


def _pw_result_from_matrices(names, q, p):
    from qad.pairwise import PairwiseResult

    k = len(names)
    return PairwiseResult(
        variables=tuple(names),
        q=q,
        p_q=p,
        asymmetry=q - q.T,
        p_asymmetry=p,
        n_used=np.full((k, k), 100.0),
        permutations=99,
    )


class TestNetwork:
    def test_requires_p_values(self):
        pw = pairwise_qad(make_table(seed=64, n=60, k=3))
        with pytest.raises(DataError, match="permutations"):
            build_network(pw)

    def test_empty_below_threshold(self):
        q = np.full((3, 3), 0.1)
        np.fill_diagonal(q, np.nan)
        p = np.full((3, 3), 0.001)
        net = build_network(_pw_result_from_matrices("abc", q, p), q_threshold=0.325)
        assert net.edges == ()
        assert all(v == 0 for v in net.degree.values())
        assert all(v == 0.0 for v in net.betweenness.values())
        assert all(v == 0.0 for v in net.hub_score.values())

    def test_directed_star_hub(self):
        names = ["hub", "l1", "l2", "l3", "l4"]
        q = np.full((5, 5), np.nan)
        q[0, 1:] = 0.8  # hub drives every leaf
        q[1:, 0] = 0.1
        p = np.full((5, 5), 0.001)
        net = build_network(_pw_result_from_matrices(names, q, p))
        assert len(net.edges) == 4
        assert net.degree["hub"] == 4
        assert net.hub_score["hub"] == 1.0
        for leaf in names[1:]:
            assert net.degree[leaf] == 1
            assert net.hub_score[leaf] == 0.0

    def test_edge_order_is_row_major_and_nan_cells_drop_out(self):
        names = ["a", "b", "c", "d"]
        q = np.full((4, 4), 0.9)
        np.fill_diagonal(q, np.nan)
        q[3, 0] = np.nan  # no estimate
        p = np.full((4, 4), 0.01)
        np.fill_diagonal(p, np.nan)
        p[0, 2] = p[2, 1] = np.nan  # no p-value
        p[1, 3] = 0.5  # not significant
        q[3, 2] = 0.7
        net = build_network(_pw_result_from_matrices(names, q, p), q_threshold=0.5)
        assert net.edges == (
            ("a", "b", 0.9), ("a", "d", 0.9), ("b", "a", 0.9), ("b", "c", 0.9),
            ("c", "a", 0.9), ("c", "d", 0.9), ("d", "b", 0.9), ("d", "c", 0.7),
        )
        assert all(type(w) is float for _, _, w in net.edges)
        assert net.degree == {"a": 4, "b": 4, "c": 4, "d": 4}

    def test_path_betweenness(self):
        names = ["a", "b", "c"]
        q = np.full((3, 3), np.nan)
        q[0, 1] = 0.9
        q[1, 2] = 0.9
        p = np.full((3, 3), 0.001)
        net = build_network(_pw_result_from_matrices(names, q, p))
        assert net.betweenness["b"] == 1.0
        assert net.betweenness["a"] == 0.0
        assert net.betweenness["c"] == 0.0

    def test_significance_filter(self):
        q = np.full((2, 2), 0.9)
        np.fill_diagonal(q, np.nan)
        p = np.array([[np.nan, 0.2], [0.001, np.nan]])
        net = build_network(_pw_result_from_matrices("ab", q, p), alpha=0.05)
        assert net.edges == (("b", "a", 0.9),)


class TestBaselines:
    def test_perfect_line(self):
        table = DataTable(
            ("x", "y"), np.column_stack([np.arange(50.0), np.arange(50.0)])
        )
        corr = baseline_correlations(table)
        assert_allclose(corr.pearson_r[0, 1], 1.0, atol=1e-12)
        assert_allclose(corr.spearman_rho[0, 1], 1.0, atol=1e-12)
        assert_allclose(corr.r_squared[0, 1], 1.0, atol=1e-12)

    def test_antitone(self):
        xs = np.arange(30.0)
        table = DataTable(("x", "y"), np.column_stack([xs, xs[::-1] ** 3]))
        corr = baseline_correlations(table)
        assert corr.pearson_r[0, 1] < -0.9
        assert_allclose(corr.spearman_rho[0, 1], -1.0, atol=1e-12)

    def test_parabola_missed_by_r_caught_by_q(self):
        xs = np.linspace(-1, 1, 400)
        ys = xs**2
        table = DataTable(("x", "y"), np.column_stack([xs, ys]))
        corr = baseline_correlations(table)
        assert abs(corr.pearson_r[0, 1]) < 0.05
        assert abs(corr.spearman_rho[0, 1]) < 0.05
        pw = pairwise_qad(table)
        assert pw.q[0, 1] > 0.8

    def test_zero_variance_missing(self):
        table = DataTable(
            ("c", "x"), np.column_stack([np.ones(20), np.arange(20.0)])
        )
        corr = baseline_correlations(table)
        assert np.isnan(corr.pearson_r[0, 1])
        assert np.isnan(corr.spearman_rho[0, 1])

    @pytest.mark.parametrize(
        "kind", ["tie_free", "integer_tied", "rounded", "n2", "perfectly_negative"]
    )
    def test_matches_scipy(self, kind):
        from scipy import stats

        rng = np.random.default_rng(66)
        for _ in range(40):
            n = 2 if kind == "n2" else int(rng.integers(3, 200))
            xs = rng.standard_normal(n)
            ys = xs + rng.standard_normal(n) * rng.random()
            if kind == "integer_tied":
                xs = rng.integers(0, 5, n).astype(float)
                ys = xs + rng.integers(0, 3, n)
            elif kind == "rounded":
                xs, ys = np.round(xs, 1), np.round(ys, 1)
            elif kind == "perfectly_negative":
                ys = 5.0 - 2.5 * xs
            if np.ptp(xs) == 0 or np.ptp(ys) == 0:
                continue
            corr = baseline_correlations(DataTable(("x", "y"), np.column_stack([xs, ys])))
            r = stats.pearsonr(xs, ys).statistic
            rho = stats.spearmanr(xs, ys).statistic
            assert abs(corr.pearson_r[0, 1] - r) <= 1e-12
            assert abs(corr.r_squared[0, 1] - r * r) <= 1e-12
            assert abs(corr.spearman_rho[0, 1] - rho) <= 1e-12
            if kind == "n2":
                assert corr.pearson_r[0, 1] == r and abs(r) == 1.0

    def test_non_finite_pair_is_nan_without_warning(self):
        import warnings

        values = np.random.default_rng(67).random((30, 3))
        values[4, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            corr = baseline_correlations(DataTable(("a", "b", "c"), values))
        for m in (corr.pearson_r, corr.r_squared, corr.spearman_rho):
            assert np.isnan(m[0, 1]) and np.isnan(m[1, 2])
            assert np.isnan(m[1, 0]) and np.isnan(m[2, 1])
            assert np.isfinite(m[0, 2]) and m[0, 2] == m[2, 0]

    def test_diagonal_is_nan(self):
        corr = baseline_correlations(make_table(seed=65, n=50, k=3))
        assert np.all(np.isnan(np.diag(corr.pearson_r)))
