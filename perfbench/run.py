"""Benchmark entry point for qad.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding ``src/qad``).  The
workload runs in a child process (``worker.py``) so that set-up is timed from
process start; the last line on stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A human-readable
summary, with sample counts and the error rate, goes to stderr.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (median
of three fresh processes), ``ops_per_s``, ``latency_p50_ms`` and
``peak_rss_mb``.  With ``--trace 1`` they are the per-layer metrics of the
traced run (see ``layers.py``); its spans are written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("estimate", "permtest", "cli-pairwise", "cli-small")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170
# one caller, one thread: numpy's BLAS pool would otherwise spin a second core
# in the dense aggregation path and make the figures depend on the neighbours
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load_units(trace: int) -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def start_worker(args, work: str, setup_only: bool, trace_out=None):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=dict(os.environ, **SINGLE_THREAD_ENV))
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    setup_s = float(lines[0].split()[1]) - started
    result = None if setup_only else json.loads(lines[-1])
    return setup_s, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    root = os.getcwd()
    needed = [os.path.join("src", "qad", "__init__.py"), os.path.join("tests", "data", "wdi_countries.csv")]
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"error: run from the root of a qad checkout; missing {missing}", file=sys.stderr)
        return 2

    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    trace_out = None
    if args.trace:
        out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_out = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    try:
        setup_s, result = start_worker(args, work, False, trace_out)
        metrics = dict(result["metrics"])
        if not args.trace:
            setups = [setup_s] + [
                start_worker(args, work, True)[0] for _ in range(SETUP_SAMPLES - 1)
            ]
            metrics["setup_s"] = statistics.median(setups)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    units = load_units(args.trace)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    summarize(args, result, metrics, units)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def summarize(args, result, metrics, units):
    """Every metric by name and unit, the error rate and sample counts, to stderr."""
    err = sys.stderr
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  nproc {os.cpu_count()}  "
          f"calls {attempted}  failed {failed}  error_rate {failed / attempted:.4g}", file=err)
    for error in result.get("errors", []):
        print(f"  check failed: {error}", file=err)
    if not args.trace:
        tail = result.get("tail")
        tail_text = f"{tail[0]} {tail[1]:.4g} ms" if tail else "none with >= 10 calls beyond it"
        print(f"  latency over {result['samples']} calls: tail {tail_text}", file=err)
    for name, unit in units.items():
        print(f"  {name:48s} {metrics[name]:.6g} {unit}", file=err)


if __name__ == "__main__":
    sys.exit(main())
