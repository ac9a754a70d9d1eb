import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qad import (
    BivariateSample,
    DegenerateInputError,
    QadOptions,
    permutation_test_asymmetry,
    permutation_test_dependence,
    prediction_table,
    qad_compute,
    resolution_rule,
)
from qad.simulate import CompletelyDependent, Independence, sample_model


class TestResolutionRule:
    def test_reference_values(self):
        assert resolution_rule(696, 696, 800) == 26
        assert resolution_rule(16, 16, 16) == 4
        assert resolution_rule(100, 100, 100) == 10

    def test_smaller_unique_count_governs(self):
        assert resolution_rule(1000, 1000, 9) == 3
        assert resolution_rule(1000, 9, 1000) == 3

    def test_constant_margin(self):
        assert resolution_rule(50, 1, 50) == 1

    def test_minimum_is_one(self):
        assert resolution_rule(2, 2, 2) == 1

    def test_bad_n(self):
        with pytest.raises(ValueError):
            resolution_rule(0, 1, 1)


class TestQadCompute:
    def test_comonotone_closed_form(self):
        xs = np.arange(100, dtype=float)
        result = qad_compute(BivariateSample(xs, xs))
        assert result.resolution == 10
        assert_allclose(result.q_xy, 1 - 1 / 20, atol=1e-13)
        assert_allclose(result.q_yx, 1 - 1 / 20, atol=1e-13)
        assert result.asymmetry == result.q_xy - result.q_yx
        assert result.mean_dependence == (result.q_xy + result.q_yx) / 2

    def test_independence_is_small(self):
        sample = sample_model(Independence(), 10000, 2024)
        result = qad_compute(sample)
        # estimator bias under independence is about 0.94*sqrt(N/n) ~ 0.094
        assert result.q_xy < 0.11
        assert result.q_yx < 0.11

    def test_parabola_asymmetry(self):
        from qad.simulate import ShapeGenerator, generate_shape

        sample = generate_shape(ShapeGenerator("quadratic", 1000, 0.01), 5)
        result = qad_compute(sample)
        assert 0.93 <= result.q_xy <= 0.99
        assert 0.43 <= result.q_yx <= 0.53
        assert result.asymmetry > 0.4

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(30)
        xs = rng.random(200)
        ys = xs**2 + rng.normal(0, 0.05, 200)
        base = qad_compute(BivariateSample(xs, ys))
        for fx, fy in (
            (np.exp, lambda v: 3.0 * v + 1.0),
            (lambda v: v**3, np.exp),
            (lambda v: 10.0 * v - 4.0, lambda v: v**3),
        ):
            other = qad_compute(BivariateSample(fx(xs), fy(ys)))
            assert other.q_xy == base.q_xy
            assert other.q_yx == base.q_yx

    def test_swap_antisymmetry(self):
        rng = np.random.default_rng(31)
        xs = rng.integers(0, 12, 150).astype(float)
        ys = rng.random(150)
        sample = BivariateSample(xs, ys)
        fwd = qad_compute(sample)
        rev = qad_compute(sample.swapped())
        assert rev.q_xy == fwd.q_yx
        assert rev.q_yx == fwd.q_xy
        assert rev.asymmetry == -fwd.asymmetry

    @pytest.mark.parametrize("permutations", [0, 19])
    def test_ranks_once_and_builds_one_empirical_copula(self, monkeypatch, permutations):
        import qad.copula
        import qad.estimator

        calls = {"pseudo_observations": 0, "empirical_copula": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapped(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapped)

        counting(qad.estimator, "pseudo_observations")
        counting(qad.copula, "empirical_copula")
        rng = np.random.default_rng(34)
        sample = BivariateSample(rng.integers(0, 9, 80), rng.random(80))
        qad_compute(sample, QadOptions(permutations=permutations, seed=3))
        assert calls == {"pseudo_observations": 1, "empirical_copula": 1}

    def test_determinism_bytes(self):
        rng = np.random.default_rng(32)
        sample = BivariateSample(rng.random(120), rng.random(120))
        opts = QadOptions(permutations=49, seed=7)
        a = json.dumps(qad_compute(sample, opts).to_dict())
        b = json.dumps(qad_compute(sample, opts).to_dict())
        assert a == b

    def test_thread_count_does_not_change_results(self):
        rng = np.random.default_rng(33)
        sample = BivariateSample(rng.random(150), rng.random(150))
        r1 = qad_compute(sample, QadOptions(permutations=60, seed=11, threads=1))
        r4 = qad_compute(sample, QadOptions(permutations=60, seed=11, threads=4))
        assert r1 == r4

    def test_too_small_sample_rejected(self):
        with pytest.raises(DegenerateInputError):
            qad_compute(BivariateSample([1.0], [2.0]))

    @pytest.mark.parametrize("entry", [
        lambda s: permutation_test_dependence(s, 9, 0),
        lambda s: permutation_test_asymmetry(s, 9, 0),
        prediction_table,
    ], ids=["dependence_test", "asymmetry_test", "prediction_table"])
    def test_one_row_refused_everywhere(self, entry):
        with pytest.raises(DegenerateInputError, match="need at least 2 observations"):
            entry(BivariateSample([1.0], [2.0]))

    def test_pseudo_observations_are_scored_as_their_sample(self):
        """Given pseudo-observations, the entry points rank (us, vs) again, so
        fields that disagree with us and vs cannot change a result."""
        from dataclasses import replace

        from qad import pseudo_observations

        rng = np.random.default_rng(8)
        sample = BivariateSample(rng.random(60), np.round(rng.random(60), 1))
        pobs = pseudo_observations(sample)
        bad = replace(pobs, n=7, n_unique_v=1, ranks_u=pobs.ranks_u * 90, ties_v=pobs.ties_v[:3])
        opts = QadOptions(permutations=9, seed=2)
        assert qad_compute(bad, opts) == qad_compute(sample, opts)
        assert permutation_test_asymmetry(bad, 9, 2) == permutation_test_asymmetry(sample, 9, 2)
        assert pseudo_observations(bad).ranks_u.tobytes() == pobs.ranks_u.tobytes()
        with pytest.raises(ValueError, match="equal length"):
            qad_compute(replace(pobs, us=pobs.us[:5]))

    def test_constant_inputs_yield_zero_with_warning(self):
        result = qad_compute(BivariateSample([3.0] * 20, [3.0] * 20))
        assert result.q_xy == 0.0
        assert result.q_yx == 0.0
        assert result.resolution == 1
        assert any("constant" in w for w in result.warnings)

    def test_small_sample_warning(self):
        result = qad_compute(BivariateSample(np.arange(10.0), np.arange(10.0)))
        assert any("below recommended minimum" in w for w in result.warnings)

    def test_resolution_override(self):
        xs = np.arange(100, dtype=float)
        result = qad_compute(BivariateSample(xs, xs), QadOptions(resolution_override=4))
        assert result.resolution == 4
        assert_allclose(result.q_xy, 1 - 1 / 8, atol=1e-13)
        assert not any("exceeds the sample size" in w for w in result.warnings)
        finer = qad_compute(BivariateSample(xs, xs), QadOptions(resolution_override=101))
        assert finer.resolution == 101
        assert any("exceeds the sample size 100" in w for w in finer.warnings)

    def test_result_serialization_shape(self):
        xs = np.arange(30, dtype=float)
        plain = qad_compute(BivariateSample(xs, xs)).to_dict()
        head = ["q_xy", "q_yx", "mean_dependence", "asymmetry"]
        tail = ["n", "n_unique_x", "n_unique_y", "resolution", "warnings"]
        assert list(plain) == head + tail
        assert plain["warnings"] == []
        tested = qad_compute(
            BivariateSample(xs, xs), QadOptions(permutations=9, seed=0)
        ).to_dict()
        assert list(tested) == head + ["p_q_xy", "p_q_yx", "p_asymmetry"] + tail

    def test_options_validation(self):
        with pytest.raises(ValueError):
            QadOptions(permutations=-1)
        with pytest.raises(ValueError):
            QadOptions(resolution_override=0)
        with pytest.raises(ValueError):
            QadOptions(threads=0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            QadOptions(seed=-1)

    @pytest.mark.parametrize("field", ["permutations", "seed", "resolution_override", "threads"])
    @pytest.mark.parametrize("value", [1.5, 9.0, True, np.float64(3.0), "3"])
    def test_options_take_only_integers(self, field, value):
        with pytest.raises(TypeError, match=f"^{field.replace('_', ' ')} must be an integer, not"):
            QadOptions(**{field: value})

    def test_permutations_bounded_by_the_spawn_key_word(self):
        assert QadOptions(permutations=2**32 - 1).permutations == 2**32 - 1
        with pytest.raises(ValueError, match="^permutations must be <= 4294967295$"):
            QadOptions(permutations=2**32)

    def test_numpy_integer_seed_and_count_give_the_same_result(self):
        rng = np.random.default_rng(3)
        sample = BivariateSample(rng.random(200), rng.random(200))
        plain = qad_compute(sample, QadOptions(permutations=49, seed=3)).to_dict()
        for seed, B in ((np.int64(3), np.int32(49)), (np.uint8(3), np.uint64(49))):
            assert qad_compute(sample, QadOptions(permutations=B, seed=seed)).to_dict() == plain
        assert permutation_test_dependence(sample, np.int16(49), np.int64(3)) == (
            permutation_test_dependence(sample, 49, 3)
        )


class TestPermutationTests:
    @pytest.mark.parametrize("test", [permutation_test_dependence, permutation_test_asymmetry])
    def test_integral_arguments(self, test):
        sample = BivariateSample(np.arange(20.0), np.arange(20.0) % 7)
        for B, seed in ((9.5, 0), (True, 0), (9, 1.5), (9, False), (9, np.float32(2))):
            with pytest.raises(TypeError, match="must be an integer, not"):
                test(sample, B, seed)
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            test(sample, 9, -1)
        with pytest.raises(ValueError, match="^permutations must be <= 4294967295$"):
            test(sample, 2**32, 0)

    def test_perfect_dependence_minimal_p(self):
        xs = np.arange(1000, dtype=float)
        sample = BivariateSample(xs, xs)
        p_xy, p_yx = permutation_test_dependence(sample, 99, seed=5)
        assert p_xy == 1 / 100
        assert p_yx == 1 / 100

    def test_p_values_on_grid(self):
        rng = np.random.default_rng(34)
        sample = BivariateSample(rng.random(80), rng.random(80))
        B = 37
        p_xy, p_yx = permutation_test_dependence(sample, B, seed=1)
        pa = permutation_test_asymmetry(sample, B, seed=1)
        for p in (p_xy, p_yx, pa):
            assert 0.0 < p <= 1.0
            assert_allclose(round(p * (B + 1)), p * (B + 1), atol=1e-12)

    def test_symmetric_sample_asymmetry_p_is_one(self):
        xs = np.arange(500, dtype=float)
        assert permutation_test_asymmetry(BivariateSample(xs, xs), 99, seed=3) == 1.0

    def test_skip_contract(self):
        xs = np.arange(40, dtype=float)
        result = qad_compute(BivariateSample(xs, xs), QadOptions(permutations=0))
        assert result.p_q_xy is None
        assert result.p_q_yx is None
        assert result.p_asymmetry is None

    def test_highly_asymmetric_sample_detected(self):
        sample = sample_model(CompletelyDependent(5), 10000, 99)
        p = permutation_test_asymmetry(sample, 99, seed=4)
        assert p == 1 / 100

    def test_replicate_seeding_is_stable(self):
        rng = np.random.default_rng(35)
        sample = BivariateSample(rng.random(60), rng.random(60))
        a = permutation_test_dependence(sample, 25, seed=42)
        b = permutation_test_dependence(sample, 25, seed=42)
        c = permutation_test_dependence(sample, 25, seed=43)
        assert a == b
        assert a != c

    def test_bad_permutation_count(self):
        sample = BivariateSample([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(ValueError):
            permutation_test_dependence(sample, 0, seed=0)

    @pytest.mark.parametrize("resolution", [0, -1, -2])
    def test_resolution_override_below_1_is_named(self, resolution):
        # the message of QadOptions, before any array is shaped by the override
        from qad import prediction_table

        xs = np.arange(20, dtype=float)
        sample = BivariateSample(xs, xs**2)
        calls = [
            lambda: permutation_test_dependence(sample, 9, seed=0, resolution=resolution),
            lambda: permutation_test_asymmetry(sample, 9, seed=0, resolution=resolution),
            lambda: prediction_table(sample, resolution=resolution),
            lambda: QadOptions(resolution_override=resolution),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^resolution override must be >= 1$"):
                call()


FAULTS_SCRIPT = """
import resource
import numpy as np
from qad import BivariateSample, QadOptions, qad_compute, permutation_test_asymmetry

rng = np.random.default_rng(41)
big, small = rng.random(10000), rng.random(1000)
big = BivariateSample(big, np.sin(6 * big) + 0.05 * rng.standard_normal(10000))
small = BivariateSample(small, (small - 0.5) ** 2 + 0.1 * rng.standard_normal(1000))
z = rng.standard_normal(9400)
zero = np.where(rng.random(9400) < 0.4, 0.0, np.abs(z + rng.standard_normal(9400)))
dense = BivariateSample(2.0 * z + 0.5 * rng.standard_normal(9400), zero)
calls = [
    lambda: qad_compute(big),
    lambda: qad_compute(small, QadOptions(permutations=199, seed=1)),
    lambda: permutation_test_asymmetry(small, 199, seed=1),
    # last: a dense fit raises the heap hint for the rest of the process
    lambda: qad_compute(dense, QadOptions(permutations=9, seed=1)),
]
faults = []
for call in calls:
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        call()
    faults.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)
print(faults)
"""


@pytest.mark.skipif(
    __import__("platform").libc_ver()[0] != "glibc", reason="glibc malloc thresholds"
)
def test_repeat_calls_do_not_page_fault():
    # the temporaries of a warm call come from the heap, not from fresh pages:
    # with glibc's default thresholds the first three calls take about 1000,
    # 13000 and 7500 minor faults each; the dense one takes 8000-20000 with
    # the 4 MiB hint that suffices for the others
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", FAULTS_SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout)
    assert max(faults) < 100, faults
