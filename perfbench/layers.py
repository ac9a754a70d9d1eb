"""The traced run: per-layer metrics of one workload.

Spans are recorded in this file around calls to the public functions of the
``qad`` modules (``tables``, ``copula``, ``estimator``, ``pairwise``,
``prediction`` and ``cli``); each metric is derived from the spans' self
times.  Every traced run reports every per-layer metric:

* a layer the workload runs is measured on the workload's own inputs;
* a layer it does not run is measured on a fixed probe input: a 1,000-row
  table of the ``cli-pairwise`` kind (``tables``, ``pairwise``,
  ``cli.pairwise_ms``) or the WDI fixture (``prediction``,
  ``cli.compute_ms``/``cli.predict_ms``);
* interpreter import, the n = 500/10k/100k sweep, the thread comparison and
  the other rows of the ROADMAP baseline table are the same probes on every
  workload (names with a ``.n500``-style or ``.rows100000``-style suffix).

``trace.overhead_ratio`` compares the workload's own loop, run once untraced
and once traced, each for half of ``--seconds``.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import statistics
import subprocess
import sys

import numpy as np

from qad import (
    BivariateSample,
    QadOptions,
    ShapeGenerator,
    baseline_correlations,
    checkerboard_aggregate,
    cli,
    empirical_copula,
    generate_shape,
    ingest_csv,
    pairwise_qad,
    permutation_test_asymmetry,
    permutation_test_dependence,
    predict,
    prediction_table,
    pseudo_observations,
    qad_compute,
    zeta1,
)
from qad.pairwise import DataTable

import workloads as W
from tracing import Tracer

PROBE_ROWS = 1000
#: replicates for the test replay of a workload that runs no test (B = 0)
REPLAY_B = 9
#: (n, rounds, replicates) of the estimator sweep
SWEEP = ((500, 20, 49), (10_000, 5, 9), (100_000, 2, 3))
BASELINE_ROWS, BASELINE_COLS = 100_000, 10
K30_COLS, K30_ROWS, K30_B = 30, 1000, 9
PREDICT_POINTS = 200
IMPORT_RUNS = 3
STAGES = (
    "copula.pseudo_observations",
    "copula.empirical_copula",
    "copula.checkerboard_aggregate",
    "copula.zeta1",
)
TESTS = ("estimator.permutation_test_dependence", "estimator.permutation_test_asymmetry")


def median_ms(values) -> float:
    return statistics.median(values) * 1e3


def traced_run(wl: W.Workload, seconds: float, trace_out: str | None) -> dict:
    tracer = Tracer()
    calls_a, _, iters_a = W.timed_loop(wl, seconds / 2)
    calls_b, _, iters_b = W.timed_loop(wl, seconds / 2, tracer, start=len(calls_a))
    calls = calls_a + calls_b
    wl.finish(calls)
    metrics = Layers(wl, tracer, calls).measure()
    metrics["trace.overhead_ratio"] = overhead_ratio(wl, calls_a, iters_a, calls_b, iters_b)
    if trace_out:
        tracer.write(trace_out)
    return {
        "attempted": len(calls),
        "failed": sum(1 for c in calls if c.errors),
        "errors": [e for c in calls for e in c.errors][:10],
        "metrics": metrics,
    }


def overhead_ratio(wl, calls_a, iters_a, calls_b, iters_b) -> float:
    """Traced over untraced iteration time: the median, over the kinds of
    call run in both halves, of the ratio of their median iteration times."""
    def by_kind(calls, iters):
        out = {}
        for call, seconds in zip(calls, iters):
            out.setdefault(wl.kind(call.index), []).append(seconds)
        return out

    a, b = by_kind(calls_a, iters_a), by_kind(calls_b, iters_b)
    shared = a.keys() & b.keys()
    if not shared:
        return statistics.median(iters_b) / statistics.median(iters_a)
    return statistics.median(statistics.median(b[k]) / statistics.median(a[k]) for k in shared)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def largest_tie(values: np.ndarray) -> int:
    return int(np.unique(values, return_counts=True)[1].max())


def pair_samples(table: DataTable):
    """Complete-row samples of every column pair, oriented and ordered as
    ``pairwise_qad`` does it."""
    out = []
    k = table.n_columns
    for f in range(k):
        for j in range(f + 1, k):
            a, b = (j, f) if table.names[j] < table.names[f] else (f, j)
            cols = table.values[:, (a, b)]
            cols = cols[~np.isnan(cols).any(axis=1)]
            if cols.shape[0] < 2:
                continue
            order = np.lexsort((cols[:, 1], cols[:, 0]))
            out.append(BivariateSample(cols[order, 0], cols[order, 1]))
    return out


def quadratic_sample(rng: np.random.Generator, n: int) -> BivariateSample:
    """The ROADMAP baseline data: y = x^2 + N(0, 0.1)."""
    x = rng.uniform(-1.0, 1.0, n)
    return BivariateSample(x, x**2 + rng.normal(0.0, 0.1, n))


IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$")


def import_times(report: str) -> dict[str, float]:
    """Microseconds per top-level package from a ``-X importtime`` report.

    A module is logged after its imports, one indent level deeper than its
    importer; a package's time sums the cumulative time of each of its
    modules whose importer belongs to another package."""
    lines = [m.groups() for m in map(IMPORT_LINE.match, report.splitlines()) if m]
    totals: dict[str, float] = {}
    stack: list[tuple[int, str]] = []  # (indent, package) of possible importers
    for _, cumulative, indent, module in reversed(lines):
        depth, package = len(indent), module.split(".")[0]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if not stack or stack[-1][1] != package:
            totals[package] = totals.get(package, 0.0) + int(cumulative)
        stack.append((depth, package))
    return totals


@contextlib.contextmanager
def quiet():
    """Swallow what an in-process ``cli.main`` writes to stdout and stderr."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


class Layers:
    def __init__(self, wl: W.Workload, tracer: Tracer, calls):
        self.wl = wl
        self.tracer = tracer
        self.calls = calls
        self.work = wl.work
        self.metrics: dict[str, float] = {}
        self._probe_csv = None

    def measure(self) -> dict:
        wl = self.wl
        own_csv = isinstance(wl, (W.CliPairwise, W.CliSmall))
        table = self.tables(wl.csv_path if own_csv else self.probe_csv(), rounds=3)
        inputs, rounds = self.estimator_inputs(table)
        facts = self.estimator(inputs, rounds)
        if isinstance(wl, W.CliPairwise):
            self.pairwise(table, "replay", [f[2] for f in facts])
            self.cli_pairwise(wl.args, rounds=1)
        else:
            probe_table = table if not own_csv else ingest_csv(self.probe_csv())[0]
            self.pairwise(probe_table, "pair", self.pair_replay(probe_table))
            self.cli_pairwise(self.probe_pairwise_args(), rounds=3)
        self.cli_small_layers()
        calls = self.calls if isinstance(wl, W.CliWorkload) else self.cli_small_probe_calls()
        in_process = ("cli.pairwise",) if isinstance(wl, W.CliPairwise) else ("cli.compute", "cli.predict")
        self.cli_startup(calls, in_process)
        self.prediction()
        self.imports()
        self.sweep()
        self.threads()
        self.baseline_rows()
        return self.metrics

    def estimator_inputs(self, table: DataTable):
        """The workload's own (sample, B, seed) inputs, and replay rounds."""
        wl = self.wl
        if isinstance(wl, W.Estimate):
            return [(s, 0, 0) for s in wl.samples], 3
        if isinstance(wl, W.PermTest):
            tasks = [wl.task(t) for t in range(len(W.PERMTEST_SHAPES))]  # one per shape
            return [(s, W.PERMTEST_B, seed) for s, seed in tasks], 1
        if isinstance(wl, W.CliPairwise):
            return [(s, W.PAIRWISE_B, wl.pair_seed) for s in pair_samples(table)], 1
        return [(W.wdi_sample(wl.root, x, y), W.SMALL_B, 0) for x, y in W.WDI_PAIRS], 5

    # -- tables -------------------------------------------------------------

    def probe_csv(self) -> str:
        if self._probe_csv is None:
            self._probe_csv = os.path.join(self.work, "probe_mixed.csv")
            W.write_mixed_csv(self._probe_csv, PROBE_ROWS, W.rng_for(self.wl.seed, W.STREAM["probe"], 0))
        return self._probe_csv

    def tables(self, path: str, rounds: int) -> DataTable:
        for _ in range(rounds):
            with self.tracer.operation("tables"):
                with self.tracer.span("tables.ingest_csv"):
                    table, report = ingest_csv(path)
        seconds = self.tracer.self_time_median("tables.ingest_csv", "tables")
        self.metrics.update({
            "tables.ingest_csv_ms": seconds * 1e3,
            "tables.ingest_mb_per_s": os.path.getsize(path) / 1e6 / seconds,
            "tables.rows": report.n_rows,
            "tables.missing_cells": int(np.isnan(table.values).sum()),
        })
        return table

    # -- copula and estimator -------------------------------------------------

    def replay(self, root: str, sample: BivariateSample, B: int, seed: int):
        """One estimator call and its public stages, each under its own span.
        Returns (resolution, distinct pairs / n, dense board)."""
        with self.tracer.operation(root):
            with self.tracer.span("estimator.qad_compute"):
                result = qad_compute(sample, QadOptions(permutations=B, seed=seed))
            if B:
                with self.tracer.span("estimator.qad_compute_b0"):
                    qad_compute(sample)
            N = result.resolution
            with self.tracer.span("estimator.stages"):
                for s in (sample, sample.swapped()):
                    with self.tracer.span("copula.pseudo_observations"):
                        pobs = pseudo_observations(s)
                    with self.tracer.span("copula.empirical_copula"):
                        ecop = empirical_copula(pobs)
                    with self.tracer.span("copula.checkerboard_aggregate"):
                        board = checkerboard_aggregate(ecop, N)
                    with self.tracer.span("copula.zeta1"):
                        zeta1(board)
            with self.tracer.span(TESTS[0]):
                permutation_test_dependence(sample, B or REPLAY_B, seed, N)
            with self.tracer.span(TESTS[1]):
                permutation_test_asymmetry(sample, B or REPLAY_B, seed, N)
        dense = max(largest_tie(sample.xs), largest_tie(sample.ys)) > sample.n / N
        return N, ecop.m / sample.n, dense

    def estimator(self, inputs, rounds: int):
        """Copula stage and estimator metrics on (sample, B, seed) inputs."""
        facts = [self.replay("replay", s, B, seed) for _ in range(rounds) for s, B, seed in inputs]
        B = inputs[0][1]
        names = ("estimator.qad_compute", "estimator.qad_compute_b0", *TESTS)
        per_op = list(self.tracer.per_op(names + STAGES, "replay").values())
        compute = [op["estimator.qad_compute"] for op in per_op]
        compute_b0 = [op.get("estimator.qad_compute_b0", op["estimator.qad_compute"]) for op in per_op]
        stages = [sum(op[name] for name in STAGES) for op in per_op]
        m = self.metrics
        for name in STAGES:
            m[f"{name}_ms"] = self.tracer.self_time_median(name, "replay") * 1e3
        m["copula.resolution"] = statistics.median(f[0] for f in facts)
        m["copula.distinct_pairs_per_n"] = statistics.fmean(f[1] for f in facts)
        m["copula.board_dense_share"] = statistics.fmean(1.0 if f[2] else 0.0 for f in facts)
        m["estimator.qad_compute_ms"] = median_ms(compute)
        m["estimator.stage_sum_ms"] = median_ms(stages)
        m["estimator.overhead_ms"] = median_ms(c - s for c, s in zip(compute_b0, stages))
        m["estimator.dependence_replicate_us"] = median_ms(op[TESTS[0]] for op in per_op) * 1e3 / (B or REPLAY_B)
        m["estimator.asymmetry_replicate_us"] = median_ms(op[TESTS[1]] for op in per_op) * 1e3 / (B or REPLAY_B)
        # the part of the workload's call that the B = 0 pipeline does not explain
        m["estimator.permutation_share"] = statistics.median(
            1.0 - c0 / c for c0, c in zip(compute_b0, compute)
        )
        return facts

    def sweep(self):
        """qad_compute, both-direction stages and replicate costs at fixed n."""
        for n, rounds, B in SWEEP:
            sample = quadratic_sample(W.rng_for(self.wl.seed, W.STREAM["probe"], 1, n), n)
            root = f"sweep.n{n}"
            for _ in range(rounds):
                with self.tracer.operation(root):
                    with self.tracer.span("estimator.qad_compute"):
                        result = qad_compute(sample)
                    for s in (sample, sample.swapped()):
                        with self.tracer.span("estimator.stage"):
                            zeta1(checkerboard_aggregate(empirical_copula(pseudo_observations(s)), result.resolution))
                    with self.tracer.span(TESTS[0]):
                        permutation_test_dependence(sample, B, 0, result.resolution)
                    with self.tracer.span(TESTS[1]):
                        permutation_test_asymmetry(sample, B, 0, result.resolution)
            per_op = self.tracer.per_op(("estimator.qad_compute", "estimator.stage", *TESTS), root).values()
            m = self.metrics
            m[f"estimator.qad_compute_ms.n{n}"] = median_ms(op["estimator.qad_compute"] for op in per_op)
            m[f"estimator.stage_sum_ms.n{n}"] = median_ms(op["estimator.stage"] for op in per_op)
            m[f"estimator.dependence_replicate_us.n{n}"] = median_ms(op[TESTS[0]] for op in per_op) * 1e3 / B
            m[f"estimator.asymmetry_replicate_us.n{n}"] = median_ms(op[TESTS[1]] for op in per_op) * 1e3 / B

    def threads(self):
        """``permtest``'s call at threads=2 against threads=1 (time ratio)."""
        sample = generate_shape(
            ShapeGenerator("quadratic", W.PERMTEST_N, W.PERMTEST_NOISE),
            W.rng_for(self.wl.seed, W.STREAM["probe"], 2),
        )
        for threads in (1, 2):
            with self.tracer.operation(f"threads{threads}"):
                with self.tracer.span("estimator.qad_compute"):
                    qad_compute(sample, QadOptions(permutations=W.PERMTEST_B, seed=1, threads=threads))
        t1 = self.tracer.self_time_median("estimator.qad_compute", "threads1")
        t2 = self.tracer.self_time_median("estimator.qad_compute", "threads2")
        self.metrics["estimator.threads2_speedup"] = t1 / t2

    # -- pairwise -------------------------------------------------------------

    def pair_replay(self, table: DataTable):
        """Each pair's estimator call, as ``pairwise_qad`` makes it; returns
        whether each pair's board takes the dense aggregation path."""
        dense = []
        for sample in pair_samples(table):
            with self.tracer.operation("pair"):
                with self.tracer.span("estimator.qad_compute"):
                    result = qad_compute(sample, QadOptions(permutations=W.PAIRWISE_B, seed=1))
            N = result.resolution
            dense.append(max(largest_tie(sample.xs), largest_tie(sample.ys)) > sample.n / N)
        return dense

    def pairwise(self, table: DataTable, pair_root: str, dense):
        """pairwise_qad on ``table``; per-pair times from the spans under
        ``pair_root``, one operation per pair, in pair order."""
        with self.tracer.operation("pairwise"):
            with self.tracer.span("pairwise.pairwise_qad"):
                result = pairwise_qad(table, QadOptions(permutations=W.PAIRWISE_B, seed=1))
            with self.tracer.span("pairwise.baseline_correlations"):
                baseline_correlations(table)
        per_op = self.tracer.per_op(("estimator.qad_compute",), pair_root).values()
        pair_times = [op["estimator.qad_compute"] for op in per_op]
        k = table.n_columns
        computed = int(np.count_nonzero(~np.isnan(result.q[np.triu_indices(k, 1)])))
        m = self.metrics
        m["pairwise.pairwise_qad_ms"] = self.tracer.self_time_median("pairwise.pairwise_qad", "pairwise") * 1e3
        m["pairwise.baseline_correlations_ms"] = (
            self.tracer.self_time_median("pairwise.baseline_correlations", "pairwise") * 1e3
        )
        m["pairwise.pair_ms"] = median_ms(pair_times)
        m["pairwise.dense_pair_ms"] = median_ms(t for t, d in zip(pair_times, dense) if d)
        m["pairwise.pairs_computed"] = computed
        m["pairwise.pairs_skipped"] = k * (k - 1) // 2 - computed

    # -- prediction -----------------------------------------------------------

    def prediction(self):
        """Prediction tables and point predictions on the WDI pairs."""
        for x, y in W.WDI_PAIRS:
            sample = W.wdi_sample(self.wl.root, x, y)
            for direction in ("xy", "yx"):
                for _ in range(3):
                    with self.tracer.operation("prediction"):
                        with self.tracer.span("prediction.prediction_table"):
                            table = prediction_table(sample, direction)
                breaks = table.conditioning_breaks
                points = np.linspace(breaks[0], breaks[-1], PREDICT_POINTS)
                with self.tracer.operation("predict"):
                    with self.tracer.span("prediction.predict_batch"):
                        for value in points:
                            predict(table, value)
        m = self.metrics
        m["prediction.prediction_table_ms"] = (
            self.tracer.self_time_median("prediction.prediction_table", "prediction") * 1e3
        )
        m["prediction.predict_us"] = (
            self.tracer.self_time_median("prediction.predict_batch", "predict") * 1e6 / PREDICT_POINTS
        )

    # -- cli --------------------------------------------------------------------

    def cli_main(self, name: str, args):
        with self.tracer.operation("cli"):
            with self.tracer.span(name), quiet():
                code = cli.main(list(args))
        if code != 0:
            raise RuntimeError(f"in-process cli {args[0]} exited {code}")

    def probe_pairwise_args(self):
        return ["pairwise", self.probe_csv(), "--permutations", str(W.PAIRWISE_B),
                "--seed", "1", "--out", os.path.join(self.work, "probe_pairwise_out")]

    def cli_pairwise(self, args, rounds: int):
        for _ in range(rounds):
            self.cli_main("cli.pairwise", args)
        self.metrics["cli.pairwise_ms"] = self.tracer.self_time_median("cli.pairwise", "cli") * 1e3

    def cli_small_layers(self):
        """In-process compute and predict: the ``cli-small`` invocations."""
        small = self.small_workload()
        for _ in range(3):
            for spec in range(small.pool_size):
                args, _ = small.command(spec)
                self.cli_main(f"cli.{args[0]}", args)
        self.metrics["cli.compute_ms"] = self.tracer.self_time_median("cli.compute", "cli") * 1e3
        self.metrics["cli.predict_ms"] = self.tracer.self_time_median("cli.predict", "cli") * 1e3

    def small_workload(self) -> W.CliSmall:
        if isinstance(self.wl, W.CliSmall):
            return self.wl
        small = W.CliSmall(self.wl.root, self.work, self.wl.seed)
        small.prepare()
        return small

    def cli_small_probe_calls(self):
        small = self.small_workload()
        calls = [small.run(spec) for spec in range(small.pool_size)]
        small.finish(calls)
        return calls

    def cli_startup(self, calls, in_process_names):
        """Subprocess p50 minus in-process p50 of the same invocations, and
        the bytes each invocation writes."""
        subprocess_p50 = statistics.median(c.seconds for c in calls)
        in_process = [s.duration for s in self.tracer.spans if s.name in in_process_names]
        self.metrics["cli.startup_ms"] = (subprocess_p50 - statistics.median(in_process)) * 1e3
        outputs = [sum(len(text.encode()) for _, text in c.output[1]) for c in calls if c.output]
        self.metrics["cli.output_bytes"] = statistics.median(outputs)

    # -- import -------------------------------------------------------------

    def imports(self):
        """Import times from ``python -X importtime -c "import qad"`` in fresh
        interpreters.  scipy loads ``scipy.stats`` lazily, so that module has
        no line of its own; a package's time is the summed cumulative time of
        its subtrees that hang off another package's import."""
        packages = {"qad": "import.qad_ms", "numpy": "import.numpy_ms", "scipy": "import.scipy_stats_ms"}
        samples = {name: [] for name in packages.values()}
        env = dict(os.environ, PYTHONPATH=os.path.join(self.wl.root, "src"))
        for _ in range(IMPORT_RUNS):
            with self.tracer.operation("import"):
                with self.tracer.span("import.subprocess"):
                    proc = subprocess.run(
                        [sys.executable, "-X", "importtime", "-c", "import qad"],
                        cwd=self.wl.root, env=env, capture_output=True, text=True, timeout=60,
                    )
            if proc.returncode != 0:
                raise RuntimeError(f"import qad failed: {proc.stderr[-300:]}")
            totals = import_times(proc.stderr)
            for package, name in packages.items():
                samples[name].append(totals.get(package, 0.0) / 1e3)
        self.metrics.update({name: statistics.median(v) for name, v in samples.items()})

    # -- ROADMAP baseline rows ----------------------------------------------

    def baseline_rows(self):
        m = self.metrics
        wdi, _ = ingest_csv(os.path.join(self.wl.root, W.WDI_CSV))
        k30 = self.k30_table()
        for root, table, B in (("wdi_b999", wdi, 999), ("k30_b0", k30, 0), (f"k30_b{K30_B}", k30, K30_B)):
            with self.tracer.operation(f"baseline.{root}"):
                with self.tracer.span("pairwise.pairwise_qad"):
                    pairwise_qad(table, QadOptions(permutations=B, seed=1))
            m[f"pairwise.pairwise_qad_ms.{root}"] = (
                self.tracer.self_time_median("pairwise.pairwise_qad", f"baseline.{root}") * 1e3
            )
        path = os.path.join(self.work, "baseline_numeric.csv")
        rng = W.rng_for(self.wl.seed, W.STREAM["probe"], 3)
        values = rng.standard_normal((BASELINE_ROWS, BASELINE_COLS))
        header = ",".join(f"c{j}" for j in range(BASELINE_COLS))
        np.savetxt(path, values, delimiter=",", header=header, comments="", fmt="%.17g")
        with self.tracer.operation(f"baseline.rows{BASELINE_ROWS}"):
            with self.tracer.span("tables.ingest_csv"):
                ingest_csv(path)
            with self.tracer.span("numpy.loadtxt"):
                np.loadtxt(path, delimiter=",", skiprows=1)
        root = f"baseline.rows{BASELINE_ROWS}"
        m[f"tables.ingest_csv_ms.rows{BASELINE_ROWS}"] = self.tracer.self_time_median("tables.ingest_csv", root) * 1e3
        m[f"tables.loadtxt_ms.rows{BASELINE_ROWS}"] = self.tracer.self_time_median("numpy.loadtxt", root) * 1e3
        os.remove(path)

    def k30_table(self) -> DataTable:
        rng = W.rng_for(self.wl.seed, W.STREAM["probe"], 4)
        latent = rng.standard_normal((K30_ROWS, 3))
        weights = rng.standard_normal((3, K30_COLS))
        values = np.tanh(latent @ weights) + 0.5 * rng.standard_normal((K30_ROWS, K30_COLS))
        return DataTable(tuple(f"v{j:02d}" for j in range(K30_COLS)), values)
