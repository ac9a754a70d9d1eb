"""The public thread counts: ``QadOptions.threads``, ``threads=`` on the
permutation tests, ``pairwise_qad`` and ``convergence_experiment``.  Each is
checked like the others and starts no thread; everything runs serially."""

import threading

import numpy as np
import pytest

from qad import (
    FGM,
    BivariateSample,
    DataTable,
    QadOptions,
    convergence_experiment,
    pairwise_qad,
    permutation_test_asymmetry,
    permutation_test_dependence,
    qad_compute,
)
from qad.estimator import _prepare, _replicate_chunks


def _table():
    rng = np.random.default_rng(71)
    values = rng.random((200, 4))
    values[rng.random(200) < 0.4, 0] = 0.0
    return DataTable(("a", "b", "c", "d"), values)


def _sample():
    rng = np.random.default_rng(72)
    xs = rng.random(1000)
    return BivariateSample(xs, xs**2 + rng.normal(0.0, 0.1, 1000))


@pytest.mark.parametrize("threads", [0, -3])
def test_every_thread_count_is_checked(threads):
    sample = _sample()
    calls = [
        lambda: QadOptions(threads=threads),
        lambda: permutation_test_dependence(sample, 9, 1, threads=threads),
        lambda: permutation_test_asymmetry(sample, 9, 1, threads=threads),
        lambda: pairwise_qad(_table(), threads=threads),
        lambda: convergence_experiment(FGM(0.5), [50], 2, seed=1, threads=threads),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="threads must be >= 1"):
            call()


def test_no_thread_starts(monkeypatch):
    def refuse(self):
        raise AssertionError("a thread was started")

    sample, table = _sample(), _table()
    pobs, N = _prepare(sample)
    assert len(_replicate_chunks(99, pobs.n, N)) > 1
    serial = (
        qad_compute(sample, QadOptions(permutations=99, seed=4)),
        pairwise_qad(table, QadOptions(permutations=9, seed=4)),
        convergence_experiment(FGM(0.5), [100, 200], 3, seed=4),
    )
    monkeypatch.setattr(threading.Thread, "start", refuse)
    four = (
        qad_compute(sample, QadOptions(permutations=99, seed=4, threads=4)),
        pairwise_qad(table, QadOptions(permutations=9, seed=4), threads=4),
        convergence_experiment(FGM(0.5), [100, 200], 3, seed=4, threads=4),
    )
    assert four[0] == serial[0]
    for field in ("q", "p_q", "asymmetry", "p_asymmetry", "n_used"):
        assert np.array_equal(getattr(four[1], field), getattr(serial[1], field), equal_nan=True)
    assert four[1].warnings == serial[1].warnings
    assert four[2].rows == serial[2].rows
