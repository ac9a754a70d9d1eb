"""The worker-process runner behind every ``threads`` count: results in task
order, no more forks than the tasks and usable CPUs allow, the exception a
serial run raises, and no child left behind."""

import os
import sys
import time
import traceback

import numpy as np
import pytest

import qad
from qad import (
    FGM,
    BivariateSample,
    DataTable,
    QadOptions,
    convergence_experiment,
    pairwise_qad,
    qad_compute,
)
from qad._workers import _map, usable_cpus

QAD_SOURCE = os.path.dirname(os.path.abspath(qad.__file__))

forking = pytest.mark.skipif(
    sys.platform != "linux" or usable_cpus() < 2, reason="forks only on Linux with 2 or more CPUs"
)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked while the test runs."""
    pids, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forking
def test_results_come_back_in_task_order(forks):
    tasks = list(range(7))  # not a multiple of the two workers
    assert _map(lambda t: (t * t, os.getpid()), tasks, 2) == [
        (t * t, os.getpid() if t % 2 == 0 else forks[0]) for t in tasks
    ]
    _no_child_left()


def test_forks_are_capped_by_tasks_and_cpus(forks):
    sample = BivariateSample(np.arange(1000.0), np.arange(1000.0) % 37)
    table = DataTable(("a", "b", "c"), np.random.default_rng(3).random((100, 3)))
    calls = [  # (call, runner calls, tasks of each): qad_compute runs both tests
        (lambda threads: _map(abs, range(-3, 2), threads), 1, 5),
        (lambda threads: qad_compute(sample, QadOptions(permutations=999, threads=threads)), 2, 62),
        (lambda threads: pairwise_qad(table, QadOptions(permutations=9), threads=threads), 1, 3),
        (lambda threads: convergence_experiment(FGM(0.5), [50], 3, seed=1, threads=threads), 1, 3),
    ]
    for call, runs, tasks in calls:
        for threads in (1, 10**6):
            forks.clear()
            call(threads)
            bound = runs * (min(threads, usable_cpus(), tasks) - 1)
            assert len(forks) <= bound
            if sys.platform == "linux":
                assert len(forks) == bound
    _no_child_left()


def _raise_from_qad(resolution):
    """qad's own ValueError, naming the resolution, past ``MAX_RESOLUTION``."""
    sample = BivariateSample(np.arange(20.0), np.arange(20.0) ** 2)
    return qad_compute(sample, QadOptions(resolution_override=resolution)).q_xy


@pytest.mark.parametrize("lowest", [2, 3], ids=["caller", "child"])
def test_lowest_failing_task_raises(lowest):
    bad = 10**9
    tasks = [1, 2, 3, 4, 5, 6, 7]
    tasks[lowest] = bad + lowest
    tasks[lowest + 3] = bad + lowest + 3
    with pytest.raises(ValueError, match=f"resolution {bad + lowest} is too large") as caught:
        _map(_raise_from_qad, tasks, 2)
    frame = traceback.extract_tb(caught.value.__traceback__)[-1]
    assert frame.filename.startswith(QAD_SOURCE) and frame.line.startswith("raise")
    _no_child_left()
    with pytest.raises(ValueError, match=f"resolution {bad + lowest} is too large"):
        [_raise_from_qad(t) for t in tasks]


@forking
def test_a_child_that_dies_is_an_error():
    parent = os.getpid()

    def task(t):
        if os.getpid() != parent:
            os._exit(3)
        return t

    with pytest.raises(RuntimeError, match="ended without sending its results"):
        _map(task, range(4), 2)
    _no_child_left()


@forking
def test_an_interrupt_kills_the_children():
    parent = os.getpid()

    def task(t):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _map(task, range(4), 2)
    assert time.monotonic() - start < 30
    _no_child_left()
