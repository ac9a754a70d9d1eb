"""Tests of the benchmark itself (not of qad).

    python3 -m pytest perfbench/tests -q

Run from the root of a checkout; the end-to-end cases start ``run.py`` for
about a minute in total.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(workload, seed, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture
def work(tmp_path):
    return str(tmp_path)


# -- metric names ---------------------------------------------------------------


def test_metric_names_follow_the_naming_rule():
    s = spec()
    names = [w["name"] for w in s["workloads"]]
    names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in s["end_to_end"] + s["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert {w["name"] for w in s["workloads"]} == set(W.WORKLOADS)


# -- correctness gate -----------------------------------------------------------


def test_corrupted_library_result_counts_as_failed(work, monkeypatch):
    wl = W.make_workload("estimate", ROOT, work, W.DEFAULT_SEED)
    wl.prepare()
    calls, _, _ = W.timed_loop(wl, 0.2)
    assert calls and not any(c.errors for c in calls)

    real = W.qad_compute
    monkeypatch.setattr(W, "qad_compute", lambda *a, **k: replace(real(*a, **k), q_xy=1.5))
    wl = W.make_workload("estimate", ROOT, work, W.DEFAULT_SEED + 1)
    wl.prepare()
    calls, _, _ = W.timed_loop(wl, 0.2)
    assert calls and all(c.errors for c in calls)


def test_last_bit_q_change_is_tolerated_but_not_a_p_value_change(work, monkeypatch):
    real = W.qad_compute

    def altered(q_shift, p_asymmetry=None):
        def fake(*args, **kwargs):
            r = real(*args, **kwargs)
            r = replace(r, q_xy=r.q_xy + q_shift)
            r = replace(r, asymmetry=r.q_xy - r.q_yx)
            return r if p_asymmetry is None else replace(r, p_asymmetry=p_asymmetry)
        return fake

    wl = W.make_workload("permtest", ROOT, work, W.DEFAULT_SEED)
    wl.prepare()
    monkeypatch.setattr(W, "qad_compute", altered(1e-15))
    assert wl.run(0).errors == []
    wl.first.clear()
    monkeypatch.setattr(W, "qad_compute", altered(0.0, p_asymmetry=1.0))
    assert any("p_asymmetry" in e for e in wl.run(0).errors)


def test_corrupted_cli_output_counts_as_failed(work):
    wl = W.make_workload("cli-small", ROOT, work, W.DEFAULT_SEED)
    wl.prepare()
    good = wl.run(0)
    bad = wl.run(0)
    spec_index, texts = bad.output
    texts = dict(texts)
    doc = json.loads(texts["stdout"])
    doc["q_xy"] = doc["q_xy"] * 0.5
    texts["stdout"] = json.dumps(doc)
    bad.output = (spec_index, tuple(sorted(texts.items())))
    wl.finish([good, bad])
    assert good.errors == []
    assert any("q_xy" in e for e in bad.errors)


def test_cli_checks_hold_for_any_seed(work):
    wl = W.make_workload("cli-small", ROOT, work, 12345)
    wl.prepare()
    assert wl.reference is None
    calls = [wl.run(i) for i in range(2)]
    wl.finish(calls)
    assert [c.errors for c in calls] == [[], []]


# -- seeds ------------------------------------------------------------------------


def test_seed_changes_inputs(work):
    a = W.make_workload("estimate", ROOT, work, 3)
    b = W.make_workload("estimate", ROOT, work, 4)
    a.prepare()
    b.prepare()
    assert not np.array_equal(a.samples[0].ys, b.samples[0].ys)
    paths = [os.path.join(work, f"{seed}.csv") for seed in (3, 4)]
    for seed, path in zip((3, 4), paths):
        W.write_mixed_csv(path, 50, W.rng_for(seed, 0))
    texts = [open(p, encoding="utf-8").read() for p in paths]
    assert texts[0] != texts[1]
    assert texts[0].splitlines()[0] == texts[1].splitlines()[0]


@pytest.mark.parametrize("trace", [0, 1])
def test_seed_changes_no_metric_names(trace):
    s = spec()
    expected = {m["name"] for m in s["per_layer" if trace else "end_to_end"]}
    for seed in (3, 4):
        proc = run_bench("estimate", seed, trace)
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == expected
        if trace:
            assert result["metrics"]["copula.board_dense_share"]["value"] == 0


def test_refuses_to_run_without_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    started = time.monotonic()
    proc = run_bench("estimate", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert time.monotonic() - started < 180


# -- tracing --------------------------------------------------------------------


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.operation("root"):
        with tracer.span("parent"):
            time.sleep(0.01)
            with tracer.span("child"):
                time.sleep(0.02)
    parent, child = tracer.spans[1], tracer.spans[2]
    assert child.parent == 1 and parent.parent == 0 and child.op == parent.op == 1
    selfs = tracer.self_times()
    assert selfs[1] == pytest.approx(parent.duration - child.duration)
    assert tracer.self_time_median("child", "root") == pytest.approx(child.duration)


def test_import_times_attribute_subtrees_to_their_package():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        30 |         30 |       scipy._lib",
        "import time:        20 |         50 |     scipy.stats._stats_py",
        "import time:        10 |        220 |   qad.pairwise",
        "import time:         5 |        375 | qad",
    ])
    assert layers.import_times(report) == {"qad": 375, "numpy": 150, "scipy": 50}


def test_design_notes_name_real_workloads_and_metrics():
    with open(os.path.join(BENCH, "design.json"), encoding="utf-8") as fh:
        design = json.load(fh)
    s = spec()
    assert set(design["workloads"]) == {w["name"] for w in s["workloads"]}
    per_layer = {m["name"] for m in s["per_layer"]}
    listed = {name for link in design["layer_links"] for name in link["metrics"]}
    assert listed <= per_layer
    assert design["loop_model"]["nproc"] >= 1
