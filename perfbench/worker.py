"""One benchmark process: set up a workload, then (unless ``--setup-only``)
run it and print its measurements as one JSON line.

Started by ``run.py`` from the root of a checkout.  The first line written to
stdout is ``READY <time.monotonic()>``, taken after import, input generation
and one warm-up call, so the parent can time set-up from process start.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory inside the checkout")
    parser.add_argument("--trace-out", default=None, help="file the traced run writes its spans to")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import qad  # noqa: F401  (the package under test, from this checkout)

    if not os.path.abspath(qad.__file__).startswith(os.path.join(root, "src") + os.sep):
        print(f"qad imported from {qad.__file__}, not from {root}/src", file=sys.stderr)
        return 2

    import workloads

    wl = workloads.make_workload(args.workload, root, args.work, args.seed)
    wl.prepare()
    wl.warm_up()
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        import layers

        result = layers.traced_run(wl, args.seconds, args.trace_out)
    else:
        result = untraced_run(wl, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


def untraced_run(wl, seconds: float) -> dict:
    from workloads import percentile_with_tail, timed_loop

    calls, wall, _ = timed_loop(wl, seconds)
    wl.finish(calls)
    latencies = [c.seconds for c in calls]
    tail = percentile_with_tail(latencies)
    return {
        "attempted": len(calls),
        "failed": sum(1 for c in calls if c.errors),
        "errors": [e for c in calls for e in c.errors][:10],
        "metrics": {
            "ops_per_s": sum(c.ops for c in calls) / wall,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "peak_rss_mb": wl.peak_rss_mb(),
        },
        "samples": len(latencies),
        "tail": None if tail is None else [tail[0], tail[1] * 1e3],
    }


if __name__ == "__main__":
    sys.exit(main())
