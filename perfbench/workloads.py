"""The four benchmark workloads: seeded inputs, one operation each, output checks.

Every workload is a closed loop driven by one caller in one process: the next
call starts when the previous one has returned, and ``qad`` runs with
``threads=1``.  Inputs come only from the seed (and, for ``cli-small``, from
the repository's WDI fixture); the program under test receives nothing else.

A call fails when it raises, exits non-zero, or returns output that fails a
check.  Checks that hold for any seed: q in [0, 1], p in [1/(B+1), 1], and the
CLI's q equal to the library's q on the same rows.  For ``DEFAULT_SEED`` the
outputs are also compared with ``reference.json``, recorded from the library
and the CLI by ``record_reference.py``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from qad import (
    SHAPE_NAMES,
    BivariateSample,
    QadOptions,
    ShapeGenerator,
    generate_shape,
    ingest_csv,
    pairwise_qad,
    qad_compute,
)

DEFAULT_SEED = 1
WDI_CSV = os.path.join("tests", "data", "wdi_countries.csv")
WDI_PAIRS = (("birth", "death"), ("birth", "gdp"), ("death", "gdp"))
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

#: Absolute tolerance for q, asymmetry and other real-valued outputs against
#: the reference; p-values, counts and strings must match exactly.
Q_TOL = 1e-12
EXACT_FIELDS = {"n", "n_unique_x", "n_unique_y", "resolution", "strip", "n_used", "permutations"}
CLI_TIMEOUT_S = 150

ESTIMATE_SHAPES = tuple(s for s in SHAPE_NAMES if s != "non_coexistence")
ESTIMATE_N, ESTIMATE_NOISE = 10_000, 0.05
PERMTEST_SHAPES = ("quadratic", "sinus", "torus", "linear")
PERMTEST_N, PERMTEST_NOISE, PERMTEST_B, PERMTEST_TASKS = 1000, 0.1, 999, 32
PAIRWISE_ROWS, PAIRWISE_B, MISSING_SHARE = 10_000, 9, 0.03
SMALL_B = 99

# spawn keys that keep the streams of the workloads and probes apart
STREAM = {"estimate": 0, "permtest": 1, "cli-pairwise": 2, "cli-small": 3, "probe": 4}


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def seed_for(seed: int, *key: int) -> int:
    """A derived integer seed, as passed to ``qad_compute`` or ``--seed``."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def load_reference(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


# ---------------------------------------------------------------------------
# Output flattening and comparison
# ---------------------------------------------------------------------------


def _number(cell: str):
    if cell == "":
        return None
    try:
        return float(cell)
    except ValueError:
        return cell


def flatten(obj, prefix: str = "") -> dict:
    """Leaf values of nested JSON-like data, keyed by slash-joined paths."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            out.update(flatten(value, f"{prefix}/{key}"))
        return out
    if isinstance(obj, list):
        out = {}
        for i, value in enumerate(obj):
            out.update(flatten(value, f"{prefix}/{i}"))
        return out
    return {prefix: obj}


def parse_csv(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    return [{k: _number(v) for k, v in row.items()} for row in rows]


def parse_outputs(texts: dict) -> dict:
    """Parse each captured CLI output (JSON or CSV) into Python data."""
    parsed = {}
    for name, text in texts.items():
        if name.endswith(".csv"):
            parsed[name] = parse_csv(text)
        else:
            parsed[name] = json.loads(text) if text.strip() else None
    return parsed


def _tolerance(path: str) -> float:
    name = next(
        (part for part in reversed(path.split("/")) if part and not part.isdigit()), ""
    )
    if name.startswith("p_") or name in EXACT_FIELDS:
        return 0.0
    return Q_TOL


def compare_to_reference(got, ref) -> list[str]:
    """Differences between an output and its reference, as messages."""
    got_flat, ref_flat = flatten(got), flatten(ref)
    if got_flat.keys() != ref_flat.keys():
        missing = sorted(ref_flat.keys() - got_flat.keys())[:3]
        extra = sorted(got_flat.keys() - ref_flat.keys())[:3]
        return [f"output fields differ from reference: missing {missing}, extra {extra}"]
    errors = []
    for path, want in ref_flat.items():
        have = got_flat[path]
        numeric = isinstance(want, (int, float)) and isinstance(have, (int, float))
        if numeric and not isinstance(want, bool):
            if not abs(have - want) <= _tolerance(path):
                errors.append(f"{path}: {have!r} != reference {want!r}")
        elif have != want:
            errors.append(f"{path}: {have!r} != reference {want!r}")
    return errors


def check_q(label: str, q) -> list[str]:
    if q is None or not 0.0 <= q <= 1.0:
        return [f"{label}: q = {q!r} outside [0, 1]"]
    return []


def check_p(label: str, p, permutations: int) -> list[str]:
    if p is None or not 1.0 / (permutations + 1) <= p <= 1.0:
        return [f"{label}: p = {p!r} outside [1/(B+1), 1] for B = {permutations}"]
    return []


def result_fields(result) -> dict:
    fields = result.to_dict()
    fields.pop("warnings")
    return fields


def check_result(label: str, result, permutations: int) -> list[str]:
    errors = check_q(f"{label} q_xy", result.q_xy) + check_q(f"{label} q_yx", result.q_yx)
    if result.asymmetry != result.q_xy - result.q_yx:
        errors.append(f"{label}: asymmetry is not q_xy - q_yx")
    if permutations:
        for key in ("p_q_xy", "p_q_yx", "p_asymmetry"):
            errors += check_p(f"{label} {key}", getattr(result, key), permutations)
    elif result.p_q_xy is not None:
        errors.append(f"{label}: p-values present without permutations")
    return errors


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Call:
    """One timed call: wall seconds of the operation, its operation count,
    the errors found, and (for CLI calls) the captured output."""

    index: int
    seconds: float
    ops: int
    errors: list = field(default_factory=list)
    output: object = None


class Workload:
    """Base: subclasses set ``name``, ``op_span`` and implement prepare/run."""

    name = ""
    op_span = ""  # layer span recorded around the operation in a traced run

    def __init__(self, root: str, work: str, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.reference = None  # expected outputs per pool entry; set by make_workload

    def rng(self, *key: int) -> np.random.Generator:
        return rng_for(self.seed, STREAM[self.name], *key)

    def prepare(self):
        raise NotImplementedError

    def run(self, i: int, tracer=None) -> Call:
        raise NotImplementedError

    def warm_up(self):
        self.run(0)

    def kind(self, i: int) -> int:
        """Calls of one kind do the same work (same input shape and size)."""
        return i % self.pool_size

    def finish(self, calls):
        """Checks that need more than one call's output; run after timing."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _span(self, tracer):
        return tracer.span(self.op_span) if tracer is not None else nullcontext()


class LibraryWorkload(Workload):
    """``qad_compute`` on a pool of samples, cycled call by call."""

    op_span = "estimator.qad_compute"
    permutations = 0

    def task(self, i: int):
        """(sample, permutation seed) of call i."""
        raise NotImplementedError

    @property
    def pool_size(self) -> int:
        raise NotImplementedError

    def prepare(self):
        self.first = {}

    def run(self, i, tracer=None):
        k = i % self.pool_size
        sample, seed = self.task(k)
        opts = QadOptions(permutations=self.permutations, seed=seed, threads=1)
        with self._span(tracer):
            t0 = time.perf_counter()
            result = qad_compute(sample, opts)
            seconds = time.perf_counter() - t0
        fields = result_fields(result)
        errors = check_result(f"{self.name} input {k}", result, self.permutations)
        if self.first.setdefault(k, fields) != fields:
            errors.append(f"input {k}: result differs from the first call on it")
        if self.reference is not None:
            errors += compare_to_reference(fields, self.reference[k])
        return Call(i, seconds, max(1, 2 * self.permutations), errors)


class Estimate(LibraryWorkload):
    name = "estimate"

    def prepare(self):
        super().prepare()
        self.samples = [
            generate_shape(ShapeGenerator(shape, ESTIMATE_N, ESTIMATE_NOISE), self.rng(k))
            for k, shape in enumerate(ESTIMATE_SHAPES)
        ]

    @property
    def pool_size(self):
        return len(self.samples)

    def task(self, k):
        return self.samples[k], 0


class PermTest(LibraryWorkload):
    name = "permtest"
    permutations = PERMTEST_B

    def prepare(self):
        super().prepare()
        self.tasks = [
            (
                generate_shape(
                    ShapeGenerator(PERMTEST_SHAPES[t % len(PERMTEST_SHAPES)], PERMTEST_N, PERMTEST_NOISE),
                    self.rng(t),
                ),
                seed_for(self.seed, STREAM[self.name], t, 1),
            )
            for t in range(PERMTEST_TASKS)
        ]

    @property
    def pool_size(self):
        return len(self.tasks)

    def task(self, k):
        return self.tasks[k]

    def kind(self, i):
        return i % len(PERMTEST_SHAPES)


class CliWorkload(Workload):
    """CLI invocations as subprocesses, ``python -m qad.cli`` from the checkout."""

    def prepare(self):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self._verdicts = {}

    def invoke(self, i, args, outputs, tracer=None) -> Call:
        """Run one invocation; ``outputs`` maps output names to file paths."""
        for path in outputs.values():
            if os.path.exists(path):
                os.remove(path)
        cmd = [sys.executable, "-m", "qad.cli", *args]
        with self._span(tracer):
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                    timeout=CLI_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                proc = None
            seconds = time.perf_counter() - t0
        if proc is None:
            return Call(i, seconds, 1, [f"{args[0]}: timed out after {CLI_TIMEOUT_S} s"])
        if proc.returncode != 0:
            return Call(i, seconds, 1, [f"{args[0]}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"])
        texts = {"stdout": proc.stdout}
        for name, path in outputs.items():
            try:
                with open(path, encoding="utf-8") as fh:
                    texts[name] = fh.read()
            except OSError as exc:
                return Call(i, seconds, 1, [f"{args[0]}: output {name} missing: {exc}"])
        return Call(i, seconds, 1, [], (i % self.pool_size, tuple(sorted(texts.items()))))

    def finish(self, calls):
        for call in calls:
            if call.output is None:
                continue
            if call.output not in self._verdicts:
                spec, texts = call.output
                try:
                    self._verdicts[call.output] = self.check_output(spec, dict(texts))
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    self._verdicts[call.output] = [f"unreadable output: {exc!r}"]
            call.errors.extend(self._verdicts[call.output])

    def check_output(self, spec: int, texts: dict) -> list[str]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def write_mixed_csv(path: str, rows: int, rng: np.random.Generator):
    """The ``cli-pairwise`` table: eight columns of different tie structure,
    with ``MISSING_SHARE`` of the cells left empty."""
    z = rng.standard_normal(rows)

    def noise(scale):
        return scale * rng.standard_normal(rows)

    columns = {
        "linear": 2.0 * z + noise(0.5),
        "quadratic": z**2 + noise(0.5),
        "cubic": z**3 + noise(0.5),
        "lognormal": np.exp(z + noise(0.5)),
        "sine_1dp": np.round(np.sin(2.0 * z) + noise(0.3), 1),
        "level10": np.clip(np.floor((z + 2.5) * 2.0), 0, 9),
        "zero_inflated": np.where(rng.random(rows) < 0.4, 0.0, np.abs(z + noise(1.0))),
        "uniform": rng.random(rows),
    }
    names = list(columns)
    values = np.column_stack([columns[name] for name in names])
    missing = rng.random(values.shape) < MISSING_SHARE
    lines = [",".join(names)]
    for row, row_missing in zip(values.tolist(), missing.tolist()):
        lines.append(",".join("" if m else repr(v) for v, m in zip(row, row_missing)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class CliPairwise(CliWorkload):
    name = "cli-pairwise"
    op_span = "cli.pairwise_subprocess"
    pool_size = 1

    def prepare(self):
        super().prepare()
        self.csv_path = os.path.join(self.work, "mixed.csv")
        write_mixed_csv(self.csv_path, PAIRWISE_ROWS, self.rng(0))
        self.out_dir = os.path.join(self.work, "pairwise_out")
        self.pair_seed = seed_for(self.seed, STREAM[self.name], 1)
        self.args = [
            "pairwise", self.csv_path, "--permutations", str(PAIRWISE_B),
            "--seed", str(self.pair_seed), "--out", self.out_dir,
        ]
        self._library = None

    def run(self, i, tracer=None):
        names = ("heatmap.json", "pairwise_long.csv", "filter_report.json")
        return self.invoke(i, self.args, {name: os.path.join(self.out_dir, name) for name in names}, tracer)

    def library(self):
        """Library q matrix on the same table (q does not depend on B)."""
        if self._library is None:
            table, _ = ingest_csv(self.csv_path)
            self._library = pairwise_qad(table, QadOptions(permutations=0, seed=self.pair_seed))
        return self._library

    def check_output(self, spec, texts):
        out = parse_outputs(texts)
        lib = self.library()
        errors = []
        if texts["stdout"]:
            errors.append("pairwise wrote to stdout")
        heat = out["heatmap.json"]
        if heat["variables"] != list(lib.variables):
            errors.append("heatmap variables differ from the CSV header")
        k = lib.k
        for f in range(k):
            for j in range(k):
                if f == j:
                    continue
                label = f"heatmap[{lib.variables[f]}][{lib.variables[j]}]"
                q = heat["q"][f][j]
                errors += check_q(label, q)
                if q != float(lib.q[f, j]) or heat["asymmetry"][f][j] != float(lib.asymmetry[f, j]):
                    errors.append(f"{label}: CLI q/asymmetry differ from the library")
                if heat["n_used"][f][j] != float(lib.n_used[f, j]):
                    errors.append(f"{label}: n_used differs from the library")
                errors += check_p(label + " p_q", heat["p_q"][f][j], PAIRWISE_B)
                errors += check_p(label + " p_asymmetry", heat["p_asymmetry"][f][j], PAIRWISE_B)
        index = {name: i for i, name in enumerate(lib.variables)}
        rows = out["pairwise_long.csv"]
        if len(rows) != k * (k - 1):
            errors.append(f"pairwise_long.csv has {len(rows)} rows, expected {k * (k - 1)}")
        for row in rows:
            f, j = index[row["var1"]], index[row["var2"]]
            label = f"pairwise_long[{row['var1']},{row['var2']}]"
            if row["q"] != float(f"{lib.q[f, j]:.6g}"):
                errors.append(f"{label}: CLI q {row['q']!r} differs from the library")
            errors += check_p(label + " p_q", row["p_q"], PAIRWISE_B)
            errors += check_p(label + " p_a", row["p_a"], PAIRWISE_B)
        if out["filter_report.json"]["filtered"]:
            errors.append("filter report says columns were filtered")
        if self.reference is not None:
            errors += compare_to_reference(reference_view(out), self.reference[spec])
        return errors


def wdi_sample(root: str, x: str, y: str) -> BivariateSample:
    """The complete rows of two WDI fixture columns, as the CLI selects them."""
    table, _ = ingest_csv(os.path.join(root, WDI_CSV))
    xs, ys = table.column(x), table.column(y)
    complete = ~(np.isnan(xs) | np.isnan(ys))
    return BivariateSample(xs[complete], ys[complete])


class CliSmall(CliWorkload):
    name = "cli-small"
    op_span = "cli.small_subprocess"

    def prepare(self):
        super().prepare()
        self.csv_path = os.path.join(self.root, WDI_CSV)
        self.board_path = os.path.join(self.work, "board.json")
        self.table_path = os.path.join(self.work, "table.csv")
        self.specs = []  # (command, x, y, value): --seed for compute, --at for predict
        for k, (x, y) in enumerate(WDI_PAIRS):
            xs = wdi_sample(self.root, x, y).xs
            lo, hi = float(xs.min()), float(xs.max())
            at = min(max(round(float(self.rng(k).uniform(lo, hi)), 3), lo), hi)
            self.specs.append(("compute", x, y, seed_for(self.seed, STREAM[self.name], k, 1)))
            self.specs.append(("predict", x, y, at))
        self._library = {}

    @property
    def pool_size(self):
        return len(self.specs)

    def command(self, spec: int):
        """(argv, output files) of invocation kind ``spec``."""
        command, x, y, value = self.specs[spec]
        args = [command, self.csv_path, "--x", x, "--y", y]
        if command == "compute":
            args += ["--permutations", str(SMALL_B), "--seed", str(value), "--board-out", self.board_path]
            return args, {"board.json": self.board_path}
        args += ["--at", repr(value), "--table-out", self.table_path]
        return args, {"table.csv": self.table_path}

    def run(self, i, tracer=None):
        args, outputs = self.command(i % self.pool_size)
        return self.invoke(i, args, outputs, tracer)

    def library(self, x, y):
        if (x, y) not in self._library:
            self._library[(x, y)] = qad_compute(wdi_sample(self.root, x, y))
        return self._library[(x, y)]

    def check_output(self, spec, texts):
        command, x, y, value = self.specs[spec]
        out = parse_outputs(texts)
        lib = self.library(x, y)
        label = f"{command} {x},{y}"
        doc = out["stdout"]
        errors = []
        if command == "compute":
            errors += check_q(label + " q_xy", doc["q_xy"]) + check_q(label + " q_yx", doc["q_yx"])
            for key in ("q_xy", "q_yx", "asymmetry", "n", "resolution"):
                if doc[key] != getattr(lib, key):
                    errors.append(f"{label}: CLI {key} {doc[key]!r} != library {getattr(lib, key)!r}")
            for key in ("p_q_xy", "p_q_yx", "p_asymmetry"):
                errors += check_p(f"{label} {key}", doc[key], SMALL_B)
            for name in ("board_xy", "board_yx"):
                board = out["board.json"][name]
                mass = np.asarray(board["mass"])
                if board["resolution"] != lib.resolution or mass.size != lib.resolution**2:
                    errors.append(f"{label}: {name} has the wrong resolution")
                elif mass.min() < 0 or abs(mass.sum() - 1.0) > 1e-9:
                    errors.append(f"{label}: {name} masses are not a distribution")
        else:
            total = sum(iv["probability"] for iv in doc["intervals"])
            low, high = doc["conditioning_interval"]
            if abs(total - 1.0) > 1e-9:
                errors.append(f"{label}: predicted probabilities sum to {total!r}")
            if not low <= value <= high:
                errors.append(f"{label}: --at {value!r} outside the conditioning interval")
            if doc["resolution"] != lib.resolution:
                errors.append(f"{label}: resolution differs from the library")
            for r, row in enumerate(out["table.csv"]):
                row_sum = sum(v for key, v in row.items() if key.startswith("p"))
                if abs(row_sum - 1.0) > 1e-4:
                    errors.append(f"{label}: table row {r} sums to {row_sum!r}")
        if self.reference is not None:
            errors += compare_to_reference(reference_view(out), self.reference[spec])
        return errors


def reference_view(parsed: dict) -> dict:
    """The parts of parsed CLI output that are compared with the reference."""
    return {name: value for name, value in parsed.items() if value is not None}


WORKLOADS = {cls.name: cls for cls in (Estimate, PermTest, CliPairwise, CliSmall)}


def make_workload(name: str, root: str, work: str, seed: int) -> Workload:
    wl = WORKLOADS[name](root, work, seed)
    wl.reference = load_reference(name, seed)
    return wl


def percentile_with_tail(values, min_beyond: int = 10):
    """Highest of p90/p99/p99.9 with at least ``min_beyond`` samples beyond it,
    as (label, value), or None when even p90 has too few."""
    best = None
    for label, q in (("p90", 0.90), ("p99", 0.99), ("p99.9", 0.999)):
        if len(values) * (1.0 - q) >= min_beyond:
            best = (label, float(np.quantile(values, q)))
    return best


def timed_loop(wl: Workload, seconds: float, tracer=None, start: int = 0):
    """Closed loop: call after call until ``seconds`` have passed (at least one call).

    Returns the calls, the loop's wall time and each iteration's wall time.
    With a tracer, each iteration is an operation under a root span ``loop``.
    """
    calls, iterations = [], []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    i = start
    while True:
        t0 = time.perf_counter()
        with tracer.operation("loop") if tracer is not None else nullcontext():
            try:
                call = wl.run(i, tracer)
            except Exception as exc:  # a failed operation is counted, not fatal
                call = Call(i, time.perf_counter() - t0, 1, [f"call {i} raised {exc!r}"])
        t1 = time.perf_counter()
        calls.append(call)
        iterations.append(t1 - t0)
        i += 1
        if t1 >= deadline:
            break
    return calls, time.perf_counter() - t_start, iterations
