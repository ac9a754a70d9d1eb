"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values tagged as derived were computed with the independent
oracles in helpers.py (Riemann quadrature, direct rectangle intersection,
Monte-Carlo calibration) and frozen here.
"""

import contextlib
import time

import numpy as np
from numpy.testing import assert_allclose

import qad
from qad import (
    BivariateSample,
    CheckerboardCopula,
    QadOptions,
    checkerboard_aggregate,
    d1,
    d1_pi,
    d_infty,
    d_infty_markov,
    empirical_copula,
    extremal_metric_pair,
    permutation_test_asymmetry,
    permutation_test_dependence,
    pseudo_observations,
    qad_compute,
    zeta1,
)
from qad.copula import _boards_from_ranks, _max_ranks
from qad.simulate import (
    FGM,
    CompletelyDependent,
    Independence,
    MarshallOlkin,
    ShapeGenerator,
    convergence_experiment,
    generate_shape,
    sample_model,
    zeta1_closed_form,
)

from helpers import ecop_rects, riemann_d1_pi, sinkhorn_board


@contextlib.contextmanager
def criterion(number, description):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} {description}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number} {description}: PASS ({time.time() - start:.1f}s)")


def test_criterion_1_exact_math():
    with criterion(1, "exact-math suite"):
        # product board has zero distance to itself
        for n in (1, 2, 7, 32):
            assert d1_pi(CheckerboardCopula.independence(n)) == 0.0

        # aggregated comonotone board: closed form 1 - 1/(2N), confirmed by
        # the independent Riemann oracle (spot checks below)
        for n in range(2, 65):
            value = zeta1(CheckerboardCopula.comonotone(n))
            assert abs(value - (1 - 1 / (2 * n))) < 1e-12
        for n in (2, 5, 16):
            oracle = 3 * riemann_d1_pi(np.eye(n) / n)
            assert abs(oracle - (1 - 1 / (2 * n))) < 2e-3

        # worked tied-sample pipeline
        sample = BivariateSample([10, 6, 5, 6, 4, 6], [10, 3, 1, 4, 1, 3])
        pobs = pseudo_observations(sample)
        assert_allclose(pobs.us, np.array([6, 5, 2, 5, 1, 5]) / 6)
        assert_allclose(pobs.vs, np.array([6, 4, 2, 5, 2, 4]) / 6)
        ecop = empirical_copula(pobs)
        assert ecop.m == 5
        assert [(t, r, s) for (_, _, r, s, t) in ecop_rects(ecop)] == [
            (1, 1, 1), (2, 3, 2), (1, 1, 2), (1, 3, 1), (1, 1, 2),
        ]
        board = checkerboard_aggregate(ecop, 2)
        assert_allclose(board.mass, np.array([[7, 2], [2, 7]]) / 18, atol=1e-15)

        # sharp metric-inequality pairs
        a8, b8 = extremal_metric_pair(8)
        assert d_infty_markov(a8, b8) == 7 / 8
        assert d_infty(a8, b8) == 1 / 16
        a16, b16 = extremal_metric_pair(16)
        assert d_infty_markov(a16, b16) == 15 / 16
        assert d_infty(a16, b16) == 1 / 32


def test_criterion_2_oracle_suite():
    with criterion(2, "oracle suite"):
        rng = np.random.default_rng(2001)
        resolutions = [2, 3, 5, 8, 13, 16]
        for i in range(100):
            n = resolutions[i % len(resolutions)]
            mass = sinkhorn_board(rng, n)
            closed = d1_pi(CheckerboardCopula(mass))
            assert abs(closed - riemann_d1_pi(mass)) < 1e-3

        for n in (2, 4, 8, 16):
            for _ in range(500):
                a = CheckerboardCopula(sinkhorn_board(rng, n), validate=False)
                b = CheckerboardCopula(sinkhorn_board(rng, n), validate=False)
                v_d1 = d1(a, b)
                v_markov = d_infty_markov(a, b)
                v_sup = d_infty(a, b)
                assert v_d1 >= 0.0
                assert v_d1 <= ((n - 1) / n) * v_markov + 1e-10
                assert v_markov <= 2 * (n - 1) * v_sup + 1e-10


def test_criterion_3_closed_form_convergence():
    with criterion(3, "closed-form convergence"):
        def medians(model, seed, reps=50, n=10000):
            result = convergence_experiment(model, [n], reps, seed=seed)
            return (
                float(np.median([r.q_xy for r in result.rows])),
                float(np.median([r.q_yx for r in result.rows])),
            )

        for theta in (-1.0, -0.5):
            med_xy, med_yx = medians(FGM(theta), seed=300 + int(theta * 10))
            assert abs(med_xy - abs(theta) / 4) < 0.03
            assert abs(med_yx - abs(theta) / 4) < 0.03

        for alpha, beta in ((0.3, 1.0), (1.0, 0.7), (0.5, 0.5)):
            ref_xy, ref_yx = zeta1_closed_form(MarshallOlkin(alpha, beta))
            med_xy, med_yx = medians(MarshallOlkin(alpha, beta), seed=310)
            assert abs(med_xy - ref_xy) < 0.04
            assert abs(med_yx - ref_yx) < 0.04

        # independence limit: the estimator floor is ~0.94*sqrt(N/n) = 0.094
        # at this size, so the frozen calibration bound is 0.11
        med_xy, med_yx = medians(MarshallOlkin(1.0, 0.0), seed=320)
        assert med_xy < 0.11 and med_yx < 0.11

        med_xy, _ = medians(MarshallOlkin(1.0, 1.0), seed=330)
        assert med_xy > 0.95


def test_criterion_4_asymmetry_detection():
    with criterion(4, "asymmetry detection"):
        reps = 50
        q_xy_vals, gaps, significant = [], [], 0
        for rep in range(reps):
            seed_seq = np.random.SeedSequence(entropy=400, spawn_key=(0, rep))
            sample = sample_model(CompletelyDependent(5), 10000, seed_seq)
            result = qad_compute(sample)
            q_xy_vals.append(result.q_xy)
            gaps.append(result.q_xy - result.q_yx)
            p = permutation_test_asymmetry(sample, 99, seed=401 + rep)
            significant += p < 0.05
        assert np.median(q_xy_vals) >= 0.9
        assert np.median(gaps) >= 0.3
        assert significant >= 0.9 * reps


def test_criterion_5_parabola_reproduction():
    with criterion(5, "noisy-parabola dependence values"):
        for seed in range(20):
            sample = generate_shape(ShapeGenerator("quadratic", 1000, 0.01), seed)
            result = qad_compute(sample)
            assert 0.93 <= result.q_xy <= 0.99
            assert 0.43 <= result.q_yx <= 0.53


def test_criterion_6_unaggregated_negative_control():
    with criterion(6, "aggregation is mandatory (unaggregated limit)"):
        n = 5000
        for rep in range(20):
            seed_seq = np.random.SeedSequence(entropy=600, spawn_key=(0, rep))
            sample = sample_model(Independence(), n, seed_seq)
            ru, tu = _max_ranks(sample.xs)
            rv, tv = _max_ranks(sample.ys)
            board = _boards_from_ranks(ru[None], tu[None], rv[None], tv[None], n, n)[0]
            value = 3 * d1_pi(CheckerboardCopula(board, validate=False))
            assert value > 0.9


def test_criterion_7_test_calibration():
    with criterion(7, "permutation-test calibration under independence"):
        reps, B, n = 200, 999, 500
        rej_dep = rej_asym = 0
        for rep in range(reps):
            seed_seq = np.random.SeedSequence(entropy=700, spawn_key=(0, rep))
            sample = sample_model(Independence(), n, seed_seq)
            p_xy, _ = permutation_test_dependence(sample, B, seed=7000 + rep)
            p_a = permutation_test_asymmetry(sample, B, seed=7500 + rep)
            rej_dep += p_xy < 0.05
            rej_asym += p_a < 0.05
        assert 0.01 <= rej_dep / reps <= 0.12
        assert 0.01 <= rej_asym / reps <= 0.12


def test_criterion_8_wdi_reproduction():
    with criterion(8, "country birth/death rates"):
        import os

        table, _ = qad.ingest_csv(
            os.path.join(os.path.dirname(__file__), "data", "wdi_countries.csv")
        )
        birth = table.column("birth")
        death = table.column("death")
        keep = ~(np.isnan(birth) | np.isnan(death))
        sample = BivariateSample(birth[keep], death[keep])
        result = qad_compute(sample, QadOptions(permutations=999, seed=8))
        assert abs(result.q_xy - 0.53) <= 0.02
        assert abs(result.q_yx - 0.33) <= 0.02
        assert abs(result.asymmetry - 0.20) <= 0.02
        # B = 999 makes 1/1000 the smallest achievable p-value
        assert result.p_asymmetry <= 0.001


def test_criterion_9_invariance_suite():
    with criterion(9, "invariance and determinism"):
        rng = np.random.default_rng(900)
        xs = rng.integers(0, 40, 300).astype(float)
        ys = xs**2 + rng.normal(0, 30, 300)
        sample = BivariateSample(xs, ys)
        base = qad_compute(sample)

        # rank invariance: strictly increasing marginal transforms
        for fx, fy in (
            (lambda v: np.exp(v / 50.0), lambda v: v**3),
            (lambda v: 2 * v + 5, lambda v: np.exp(v / 2000.0)),
        ):
            other = qad_compute(BivariateSample(fx(xs), fy(ys)))
            assert other.q_xy == base.q_xy
            assert other.q_yx == base.q_yx

        # swap antisymmetry
        rev = qad_compute(sample.swapped())
        assert rev.q_xy == base.q_yx and rev.q_yx == base.q_xy
        assert rev.asymmetry == -base.asymmetry

        # determinism under fixed seed and any thread count
        opts1 = QadOptions(permutations=99, seed=17, threads=1)
        opts4 = QadOptions(permutations=99, seed=17, threads=4)
        r1 = qad_compute(sample, opts1)
        r1b = qad_compute(sample, opts1)
        r4 = qad_compute(sample, opts4)
        assert r1 == r1b == r4
