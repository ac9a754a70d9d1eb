"""Library-API fuzz: every public entry point either returns a result that keeps
its invariants or raises one of qad's own errors.

Inputs come in the forms a caller may hand over: Python lists, int, bool,
float16/32/64, complex and object arrays, read-only and non-contiguous arrays,
0-d and 2-d arrays where 1-d ones are expected, and counts and seeds as Python
or numpy integers, floats and bools.  Warnings are raised as errors, so numpy
may neither cast silently (ComplexWarning) nor compute on bad values.  A
rejection must come from a ``raise`` statement in qad's source: an error that
numpy or Python raises on qad's behalf carries no message of qad's own.
"""

import os
import traceback
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qad
from qad import (
    BivariateSample,
    CheckerboardCopula,
    FGM,
    CompletelyDependent,
    DataError,
    DataTable,
    DegenerateInputError,
    QadOptions,
    ShapeGenerator,
    analytic_checkerboard,
    build_network,
    checkerboard_aggregate,
    conditional_cdf,
    d1,
    d_infty,
    d_infty_markov,
    ecop_cdf,
    empirical_copula,
    extremal_metric_pair,
    filter_columns,
    generate_shape,
    pairwise_qad,
    predict,
    prediction_table,
    pseudo_observations,
    qad_compute,
    resolution_rule,
    transpose,
    zeta1,
)
from qad.copula import MAX_RESOLUTION
from qad.estimator import MAX_PERMUTATIONS
from qad.pairwise import PairwiseResult

FUZZ = settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

QAD_ERRORS = (ValueError, TypeError, DataError, DegenerateInputError)
QAD_SOURCE = os.path.dirname(os.path.abspath(qad.__file__))

FORMS = (
    "list", "int", "bool", "float16", "float32", "float64", "complex", "object",
    "read-only", "non-contiguous", "0-d", "2-d",
)


def _shaped(base: np.ndarray, form: str, want_2d: bool = False):
    """``base`` (float64, 1-d, or 2-d if ``want_2d``) handed over in ``form``."""
    if form == "list":
        return base.tolist()
    if form in ("int", "bool"):
        with np.errstate(invalid="ignore"):  # NaN and inf have no integer value
            return np.nan_to_num(base, nan=0, posinf=7, neginf=-7).astype(form)
    if form in ("float16", "float32", "float64"):
        with np.errstate(over="ignore"):
            return base.astype(form)
    if form == "complex":
        return base.astype(complex)
    if form == "object":
        return base.astype(object)
    if form == "read-only":
        out = base.copy()
        out.setflags(write=False)
        return out
    if form == "non-contiguous":
        wide = np.repeat(base, 2, axis=-1)
        return wide[..., ::2]
    if form == "0-d":
        return np.asarray(base.flat[0] if base.size else 0.0)
    return base[None] if not want_2d else base[..., None]  # one dimension too many


def _values(draw, shape, low=-3.0, high=3.0, specials=(np.nan, np.inf, -np.inf)):
    """A float64 array of ``shape``: few distinct values (ties) and some specials."""
    pool = draw(st.lists(st.floats(low, high), min_size=1, max_size=6))
    pool += draw(st.lists(st.sampled_from(specials), max_size=1))
    idx = draw(st.lists(st.integers(0, len(pool) - 1), min_size=int(np.prod(shape)),
                        max_size=int(np.prod(shape))))
    return np.array([pool[i] for i in idx], dtype=float).reshape(shape)


def _count(low, high, extra=()):
    """A count in any of the types a caller may pass: valid and invalid values of
    Python int, numpy integers, Python and numpy floats, and bools."""
    ints = st.integers(low, high)
    return st.one_of(
        ints,
        st.integers(low, min(high, 1 << 62)).map(np.int64),
        st.integers(max(low, 0), min(high, (1 << 32) - 1)).map(np.uint32),
        ints.map(float),
        ints.map(np.float64),
        st.sampled_from([0.5, float("nan"), float("inf")]),
        st.booleans(),
        st.booleans().map(np.bool_),
        st.sampled_from(list(extra) or [high + 1]),
    )


def _call(fn, *args, **kwargs):
    """(result, None) or (None, error); any warning is an error, and an error must
    be one of QAD_ERRORS raised by a ``raise`` statement in qad's source."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(*args, **kwargs), None
        except QAD_ERRORS as exc:
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            own = frame.filename.startswith(QAD_SOURCE) and frame.line.startswith("raise")
            assert own, f"{type(exc).__name__}: {exc} at {frame.filename}:{frame.lineno}"
            return None, exc


def _in_unit(values, tol=1e-12):
    values = np.asarray(values, dtype=float)
    return bool(np.all((values >= -tol) & (values <= 1 + tol)))


def _check_result(result, B):
    assert 0.0 <= result.q_xy <= 1.0 and 0.0 <= result.q_yx <= 1.0
    assert result.asymmetry == result.q_xy - result.q_yx
    ps = (result.p_q_xy, result.p_q_yx, result.p_asymmetry)
    if B:
        assert all(1 / (B + 1) <= p <= 1 for p in ps)
    else:
        assert ps == (None, None, None)


@st.composite
def _pair_inputs(draw):
    n = draw(st.integers(1, 12))
    xs = _shaped(_values(draw, (n,)), draw(st.sampled_from(FORMS)))
    ys = _shaped(_values(draw, (draw(st.sampled_from([n, n, n + 1])),)), draw(st.sampled_from(FORMS)))
    return xs, ys


@settings(FUZZ)
@given(_pair_inputs())
def test_bivariate_sample(inputs):
    sample, _ = _call(BivariateSample, *inputs)
    if sample is not None:
        for arr in (sample.xs, sample.ys):
            assert arr.dtype == np.float64 and arr.ndim == 1 and np.isfinite(arr).all()
        assert sample.xs.size == sample.ys.size == sample.n >= 1


#: a 40-row sample with ties in both margins
TIED = BivariateSample(np.arange(40) % 7, (np.arange(40) * 3) % 11 + (np.arange(40) > 30))


@settings(FUZZ)
@given(
    _count(-2, 12, [MAX_PERMUTATIONS + 1]),
    _count(-2, 1 << 70),
    st.one_of(st.none(), _count(-2, 30, [1 << 14])),
    _count(-2, 4),
)
def test_qad_options(permutations, seed, resolution, threads):
    opts, _ = _call(QadOptions, permutations, seed, resolution, threads)
    if opts is not None:
        result, _ = _call(qad_compute, TIED, opts)
        if result is not None:
            _check_result(result, int(permutations))


@st.composite
def _tables(draw):
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(1, 4))
    names = draw(st.lists(st.sampled_from("abcde"), min_size=cols, max_size=cols + 1))
    return names, _shaped(_values(draw, (rows, cols)), draw(st.sampled_from(FORMS)), want_2d=True)


@settings(FUZZ)
@given(_tables())
def test_data_table(inputs):
    table, _ = _call(DataTable, *inputs)
    if table is not None:
        assert table.values.dtype == np.float64 and table.values.ndim == 2
        assert table.n_columns == len(table.names) == len(set(table.names))


@st.composite
def _screens(draw):
    rows, cols = draw(st.integers(2, 24)), draw(st.integers(1, 4))
    values = _values(draw, (rows, cols), specials=(np.nan, np.nan, np.inf))
    table = DataTable(tuple("wxyz"[:cols]), values)
    opts = QadOptions(permutations=draw(st.integers(0, 9)), seed=draw(st.integers(0, 1 << 66)))
    return table, opts, draw(_count(-1, 3))


@settings(FUZZ)
@given(_screens())
def test_pairwise_qad(inputs):
    table, opts, threads = inputs
    pw, _ = _call(pairwise_qad, table, opts, threads=threads)
    if pw is None:
        return
    off = ~np.eye(pw.k, dtype=bool)
    estimated = off & ~np.isnan(pw.q)
    assert np.isnan(pw.q[~off]).all() and _in_unit(pw.q[estimated], 0.0)
    q_gap = pw.q - pw.q.T
    assert np.array_equal(pw.asymmetry[estimated], q_gap[estimated])
    assert np.array_equal(np.isnan(pw.asymmetry), np.isnan(pw.q))
    for p in (pw.p_q, pw.p_asymmetry):
        if opts.permutations:
            assert np.array_equal(np.isnan(p), np.isnan(pw.q))
            assert np.all((p[estimated] >= 1 / (opts.permutations + 1)) & (p[estimated] <= 1))
        else:
            assert np.isnan(p).all()


@st.composite
def _boards(draw):
    """A valid board: the mean of one to three N x N permutation boards."""
    N = draw(st.integers(1, 4))
    perms = [draw(st.permutations(range(N))) for _ in range(draw(st.integers(1, 3)))]
    return sum(np.eye(N)[list(p)] for p in perms) / (N * len(perms))


@st.composite
def _masses(draw):
    mass = draw(_boards())
    N = mass.shape[0]
    flaw = draw(st.sampled_from([None, None, np.nan, np.inf, -0.5, 0.25]))
    if flaw is not None:
        mass.flat[draw(st.integers(0, N * N - 1))] = flaw
    return _shaped(mass, draw(st.sampled_from(FORMS)), want_2d=True)


@settings(FUZZ)
@given(_masses())
def test_checkerboard_copula(mass):
    cb, _ = _call(CheckerboardCopula, mass)
    if cb is not None:
        N = cb.resolution
        assert cb.mass.shape == (N, N) and np.isfinite(cb.mass).all() and (cb.mass >= 0).all()
        assert np.allclose(cb.mass.sum(axis=0), 1 / N) and np.allclose(cb.mass.sum(axis=1), 1 / N)


COPULA = empirical_copula(pseudo_observations(TIED))


def _coordinates(n):
    """n coordinates, a few of them outside [0, 1] or NaN, in any form."""
    points = st.sampled_from([0.0, 1.0, 0.25, 0.5, 0.999, -0.1, 1.1, np.nan])
    values = st.lists(points, min_size=n, max_size=n).map(np.array)
    return st.builds(_shaped, values, st.sampled_from(FORMS))


@settings(FUZZ)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(_coordinates(n), _coordinates(n))))
def test_ecop_cdf(coordinates):
    u, v = coordinates
    out, _ = _call(ecop_cdf, COPULA, u, v)
    if out is not None:
        assert np.shape(out) == np.broadcast_shapes(np.shape(u), np.shape(v))
        assert _in_unit(out)


@settings(FUZZ)
@given(_boards(), _count(-1, 5), st.integers(1, 5).flatmap(_coordinates))
def test_conditional_cdf(mass, strip, y):
    cb = CheckerboardCopula(mass)
    out, _ = _call(conditional_cdf, cb, strip, y)
    if out is not None:
        assert np.shape(out) == np.shape(y) and _in_unit(out)


@settings(FUZZ)
@given(
    st.sampled_from(qad.SHAPE_NAMES + ("spiral",)),
    _count(-1, 40, [float("-inf")]),
    st.one_of(st.sampled_from([0.0, 0.05, 0.5, 1.5, -0.1, np.nan, np.inf, 1e308]),
              st.sampled_from([0.1, 0.7, 65504.0]).map(np.float16),
              st.floats(0, 2).map(np.float32), st.integers(0, 2), st.booleans()),
    st.one_of(_count(-1, 1 << 65), st.just(np.random.SeedSequence(3)), st.none()),
)
def test_shape_generator(shape, n, noise, seed):
    gen, _ = _call(ShapeGenerator, shape, n, noise)
    if gen is None:
        return
    sample, _ = _call(generate_shape, gen, seed)
    if sample is not None:
        assert _in_unit(sample.xs, 0.0) and _in_unit(sample.ys, 0.0) and sample.n >= 2


@pytest.mark.parametrize("form", FORMS)
def test_every_form_of_valid_values(form):
    """Valid values in every form are taken, or refused by qad itself: complex
    ones always, 0-d and 2-d ones where 1-d ones are expected."""
    xs = _shaped(np.array([0.5, 1.0, 1.0, 0.0]), form)
    outcomes = [
        _call(BivariateSample, xs, xs),
        _call(ecop_cdf, COPULA, xs, xs),
        _call(DataTable, ["a"], _shaped(np.array([[0.5], [1.0]]), form, want_2d=True)),
        _call(CheckerboardCopula, _shaped(np.ones((1, 1)), form, want_2d=True)),
    ]
    refused = [err is not None for _, err in outcomes]
    if form == "complex":
        assert all(refused)
    elif form in ("0-d", "2-d"):  # ecop_cdf broadcasts any shape
        assert refused == [True, False, True, True]
    else:
        assert not any(refused)


def _network_input():
    q = np.array([[np.nan, 0.5], [0.2, np.nan]])
    p = np.array([[np.nan, 0.01], [0.5, np.nan]])
    return PairwiseResult(("a", "b"), q, p, q - q.T, p, np.full((2, 2), 50.0), 99)


def _prediction_input():
    x = np.linspace(0.0, 1.0, 40)
    return prediction_table(BivariateSample(x, x**2))


@pytest.mark.parametrize(
    "probe, error",
    [
        pytest.param(lambda: filter_columns(DataTable(["a"], np.ones((4, 1))), float("nan")),
                     ValueError, id="filter_columns-nan"),
        pytest.param(lambda: build_network(_network_input(), q_threshold=float("nan")),
                     ValueError, id="build_network-q_threshold-nan"),
        pytest.param(lambda: build_network(_network_input(), alpha=2), ValueError,
                     id="build_network-alpha-2"),
        pytest.param(lambda: zeta1(np.array([0.5, 0.5])), ValueError, id="zeta1-1d"),
        pytest.param(lambda: zeta1(np.array([[0.5, np.nan], [0.0, 0.5]])), ValueError,
                     id="zeta1-nan"),
        pytest.param(lambda: resolution_rule(5, float("nan"), 3), TypeError,
                     id="resolution_rule-nan"),
        pytest.param(lambda: predict(_prediction_input(), 1 + 1j), TypeError, id="predict-complex"),
    ],
)
def test_probes_raise_qads_own_errors(probe, error):
    """Thresholds out of the CLI's ranges, non-square or non-finite boards, a
    non-integer unique count and a complex prediction point: each is refused by
    a ``raise`` in qad's source, with warnings as errors."""
    _, err = _call(probe)
    assert type(err) is error, err


def _tied_columns():
    return DataTable(["a", "b"], np.array([[1.0, 2.0], [1.0, 3.0], [2.0, 3.0], [3.0, 4.0]]))


@pytest.mark.parametrize(
    "probe, error, name",
    [
        pytest.param(lambda: filter_columns(_tied_columns(), 0.9, min_unique_prop=float("nan")),
                     ValueError, "min_unique_prop", id="min_unique_prop-nan"),
        pytest.param(lambda: filter_columns(_tied_columns(), 0.9, min_unique_prop=-3),
                     ValueError, "min_unique_prop", id="min_unique_prop-negative"),
        pytest.param(lambda: filter_columns(_tied_columns(), 0.9, min_unique_prop=2.0),
                     ValueError, "min_unique_prop", id="min_unique_prop-2"),
        pytest.param(lambda: filter_columns(_tied_columns(), 0.9, min_unique_prop=1j),
                     TypeError, "min_unique_prop", id="min_unique_prop-complex"),
        pytest.param(lambda: filter_columns(_tied_columns(), 1j), TypeError,
                     "max_single_value_prop", id="max_single_value_prop-complex"),
        pytest.param(lambda: build_network(_network_input(), alpha=1j), TypeError, "alpha",
                     id="build_network-alpha-complex"),
        pytest.param(lambda: build_network(_network_input(), q_threshold=1j), TypeError,
                     "q_threshold", id="build_network-q_threshold-complex"),
    ],
)
def test_threshold_probes_name_the_parameter(probe, error, name):
    """A NaN, negative or above-1 ``min_unique_prop`` and a complex threshold are
    refused by a ``raise`` in qad's source, with warnings as errors, and the
    message names the parameter."""
    _, err = _call(probe)
    assert type(err) is error, err
    assert str(err).startswith(f"{name} must be"), err


@pytest.mark.parametrize(
    "probe, error, message",
    [
        pytest.param(lambda: filter_columns(_tied_columns(), 0.9, min_unique_prop="0.5"), TypeError,
                     "min_unique_prop must be a real number, not str", id="min_unique_prop-str"),
        pytest.param(lambda: filter_columns(_tied_columns(), np.array([0.5, 0.6])), TypeError,
                     "max_single_value_prop must be a real number, not ndarray",
                     id="max_single_value_prop-array"),
        pytest.param(lambda: build_network(_network_input(), alpha=True), TypeError,
                     "alpha must be a real number, not bool", id="build_network-alpha-bool"),
        pytest.param(lambda: filter_columns(_tied_columns(), 1j), TypeError,
                     "max_single_value_prop must be real, not complex",
                     id="max_single_value_prop-complex"),
        pytest.param(lambda: zeta1("x"), TypeError, "mass must be real numbers", id="zeta1-str"),
        pytest.param(lambda: BivariateSample("ab", "cd"), TypeError, "xs must be real numbers",
                     id="sample-str"),
        pytest.param(lambda: BivariateSample(np.array([1 + 1j, 2], dtype=object), [1.0, 2.0]),
                     TypeError, "xs must be real numbers", id="sample-complex-objects"),
        pytest.param(lambda: predict(_prediction_input(), None), TypeError,
                     "value must be a real number, not NoneType", id="predict-none"),
        pytest.param(lambda: d_infty(np.eye(2) / 2, np.array([0.5, 0.5])), ValueError,
                     "mass must be a non-empty square matrix", id="d_infty-1d"),
        pytest.param(lambda: transpose(np.array([[0.5, 0.0], [0.5, 0.0]])), ValueError,
                     "column sums must equal 1/N", id="transpose-column-sums"),
    ],
)
def test_wrong_types_and_board_arrays_raise_qads_own_errors(probe, error, message):
    """A threshold or prediction point that is not a real number, values numpy
    cannot read as numbers, and a bad mass array given to a board function are
    each refused by a ``raise`` in qad's source, with warnings as errors."""
    _, err = _call(probe)
    assert type(err) is error, err
    assert str(err) == message


#: a board that is not symmetric, and the product board
MASS_A = (np.eye(3) + np.eye(3)[[1, 2, 0]] + np.eye(3)[[1, 0, 2]]) / 9
MASS_B = np.full((3, 3), 1.0 / 9)


@pytest.mark.parametrize(
    "fn, args",
    [
        pytest.param(d_infty, (MASS_A, MASS_B), id="d_infty"),
        pytest.param(d_infty_markov, (MASS_A, MASS_B), id="d_infty_markov"),
        pytest.param(conditional_cdf, (MASS_A, 2, np.array([0.0, 0.3, 0.5, 1.0])),
                     id="conditional_cdf"),
        pytest.param(transpose, (MASS_A,), id="transpose"),
    ],
)
def test_board_functions_take_a_mass_array(fn, args):
    """Each board function gives, on a mass array, the bits it gives on
    ``CheckerboardCopula`` of that array, with warnings as errors."""
    boards = [CheckerboardCopula(a) if isinstance(a, np.ndarray) and a.ndim == 2 else a
              for a in args]
    out, err = _call(fn, *args)
    assert err is None, err
    expected = fn(*boards)
    if isinstance(expected, CheckerboardCopula):
        assert type(out) is CheckerboardCopula
        out, expected = out.mass, expected.mass
    assert np.asarray(out).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize(
    "probe, error, message",
    [
        pytest.param(lambda: CheckerboardCopula(np.array([[0.5, 0.0], [0.5, 0.0]])), ValueError,
                     "column sums must equal 1/N", id="column-sums"),
        pytest.param(lambda: checkerboard_aggregate(np.eye(2), 2), TypeError,
                     "expected EmpiricalCopula or CheckerboardCopula", id="aggregate-array"),
        pytest.param(lambda: analytic_checkerboard(CompletelyDependent(2), 4), TypeError,
                     "no analytic CDF for this model", id="analytic-cd"),
        pytest.param(lambda: generate_shape(ShapeGenerator("non_coexistence", 10, 1e-6), 0),
                     ValueError, "noise band too small: fewer than 2 points kept",
                     id="non_coexistence-band"),
    ],
)
def test_rarely_met_raises(probe, error, message):
    """Column sums off 1/N, a bare array to aggregate, a model without an
    analytic CDF and a noise band that keeps fewer than two points are refused
    by a ``raise`` in qad's source, with its message."""
    _, err = _call(probe)
    assert type(err) is error, err
    assert str(err) == message


#: a nest numpy cannot read as an array: its rows differ in length
RAGGED = [[1.0], [1.0, 2.0]]


@pytest.mark.parametrize(
    "probe, name",
    [
        pytest.param(lambda: zeta1(RAGGED), "mass", id="zeta1"),
        pytest.param(lambda: d1(RAGGED, MASS_B), "mass", id="d1"),
        pytest.param(lambda: transpose(RAGGED), "mass", id="transpose"),
        pytest.param(lambda: BivariateSample(RAGGED, [1.0, 2.0]), "xs", id="BivariateSample"),
        pytest.param(lambda: DataTable(["a"], RAGGED), "values", id="DataTable"),
        pytest.param(lambda: ecop_cdf(COPULA, RAGGED, 0.5), "u", id="ecop_cdf"),
        pytest.param(lambda: conditional_cdf(MASS_B, 1, RAGGED), "y", id="conditional_cdf"),
        pytest.param(lambda: filter_columns(_tied_columns(), RAGGED), "max_single_value_prop",
                     id="filter_columns"),
        pytest.param(lambda: build_network(_network_input(), q_threshold=RAGGED), "q_threshold",
                     id="build_network"),
        pytest.param(lambda: predict(_prediction_input(), RAGGED), "value", id="predict"),
    ],
)
def test_ragged_nests_raise_qads_own_type_error(probe, name):
    """A ragged nest, which numpy cannot read as an array, is refused with a
    TypeError naming the parameter, by a ``raise`` in qad's source, with
    warnings as errors."""
    _, err = _call(probe)
    assert type(err) is TypeError, err
    assert str(err).startswith(f"{name} must be"), err


def test_ecop_cdf_coordinates_that_do_not_broadcast():
    """u and v whose shapes do not broadcast are refused by qad, naming both."""
    _, err = _call(ecop_cdf, COPULA, [0.1, 0.2, 0.3], [0.1, 0.2])
    assert type(err) is ValueError, err
    assert str(err).startswith("u and v must broadcast"), err


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(CheckerboardCopula.independence, id="independence"),
        pytest.param(CheckerboardCopula.comonotone, id="comonotone"),
        pytest.param(lambda N: checkerboard_aggregate(COPULA, N), id="checkerboard_aggregate"),
        pytest.param(extremal_metric_pair, id="extremal_metric_pair"),
        pytest.param(lambda N: analytic_checkerboard(FGM(0.5), N), id="analytic_checkerboard"),
    ],
)
def test_board_builders_refuse_a_resolution_above_the_bound(build):
    """Every builder that takes a resolution refuses one above MAX_RESOLUTION
    before it allocates a board, which at 8193 strips would take 537 MB."""
    tracemalloc.start()
    try:
        _, err = _call(build, MAX_RESOLUTION + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(err) is ValueError, err
    assert str(err) == f"resolution must be <= {MAX_RESOLUTION}"
    assert peak < 1 << 20, f"traced peak {peak} bytes"


#: an int no float can hold: float() and numpy's float cast raise OverflowError on it
HUGE = 2**1100


@pytest.mark.parametrize(
    "probe, name",
    [
        pytest.param(lambda: BivariateSample([HUGE, 1], [1.0, 2.0]), "xs", id="BivariateSample"),
        pytest.param(lambda: zeta1([[HUGE]]), "mass", id="zeta1"),
        pytest.param(lambda: DataTable(("a",), [[HUGE]]), "values", id="DataTable"),
        pytest.param(lambda: predict(_prediction_input(), HUGE), "value", id="predict"),
    ],
)
def test_an_int_too_large_for_a_float_raises_qads_own_value_error(probe, name):
    """An int beyond the float range, where qad converts it to a float, is refused
    with a ValueError naming the parameter, by a ``raise`` in qad's source, with
    warnings as errors."""
    _, err = _call(probe)
    assert type(err) is ValueError, err
    assert str(err) == f"{name} must be within the float range", err
