"""Record ``reference.json``: the outputs of every workload input for the
default seed, from the library and from the CLI of the checkout it runs in.

    python3 perfbench/record_reference.py

Run from the root of a checkout.  Re-record only when a change to the
program is meant to change its outputs, and say so with the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

from qad import QadOptions, qad_compute  # noqa: E402

import workloads as W  # noqa: E402


def record(work: str) -> dict:
    out = {}
    for name, cls in W.WORKLOADS.items():
        wl = cls(ROOT, work, W.DEFAULT_SEED)
        wl.prepare()
        entries = []
        for k in range(wl.pool_size):
            if isinstance(wl, W.LibraryWorkload):
                sample, seed = wl.task(k)
                result = qad_compute(sample, QadOptions(permutations=wl.permutations, seed=seed))
                errors = W.check_result(f"{name} {k}", result, wl.permutations)
                entries.append(W.result_fields(result))
            else:
                call = wl.run(k)
                if call.errors:
                    raise SystemExit(f"{name} input {k} failed: {call.errors[:3]}")
                spec, texts = call.output
                errors = wl.check_output(spec, dict(texts))
                entries.append(W.reference_view(W.parse_outputs(dict(texts))))
            if errors:
                raise SystemExit(f"{name} input {k} fails its checks: {errors[:3]}")
        out[name] = entries
        print(f"{name}: {len(entries)} reference entries", file=sys.stderr)
    return out


def main():
    work = os.path.join(ROOT, ".perfbench_work", "record")
    os.makedirs(work, exist_ok=True)
    try:
        reference = record(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(W.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": W.DEFAULT_SEED, **reference}, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
