"""The import path of the package and of the non-network commands stays free
of scipy and networkx: each costs more than a second of start-up that
``compute``, ``predict`` and ``pairwise`` never use.  ``network`` needs
networkx, and scipy only for ``--influence-test signrank``."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WDI = os.path.join(ROOT, "tests", "data", "wdi_countries.csv")
HEAVY = ("scipy", "networkx")

SCRIPT = """
import json, sys
import qad, qad.cli
report = {"import": [m for m in HEAVY if m in sys.modules]}
for name, argv in COMMANDS:
    code = qad.cli.main(argv)
    report[name] = [code] + [m for m in HEAVY if m in sys.modules]
print(json.dumps(report))
"""


def _heavy_modules_after(commands):
    """Run the CLI commands in order in one fresh interpreter; for each, its
    exit code and the heavy modules loaded so far."""
    code = f"HEAVY = {HEAVY!r}\nCOMMANDS = {commands!r}\n" + SCRIPT
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_core_commands_do_not_import_scipy_or_networkx(tmp_path):
    out = str(tmp_path)
    commands = [
        ("compute", ["compute", WDI, "--x", "birth", "--y", "death", "--permutations", "9",
                     "--board-out", os.path.join(out, "board.json"),
                     "--out", os.path.join(out, "compute.json")]),
        ("predict", ["predict", WDI, "--x", "birth", "--y", "gdp", "--at", "30",
                     "--table-out", os.path.join(out, "t.csv"),
                     "--out", os.path.join(out, "predict.json")]),
        ("pairwise", ["pairwise", WDI, "--permutations", "9", "--out", os.path.join(out, "pw")]),
    ]
    report = _heavy_modules_after(commands)
    assert report == {"import": [], "compute": [0], "predict": [0], "pairwise": [0]}


def test_network_sign_test_does_not_import_scipy(tmp_path):
    commands = [
        ("network", ["network", WDI, "--permutations", "9", "--q-threshold", "0.3",
                     "--out", os.path.join(str(tmp_path), "net")]),
    ]
    report = _heavy_modules_after(commands)
    assert report == {"import": [], "network": [0, "networkx"]}


#: the public surface, as each module's ``__all__`` declares it
PUBLIC = {
    "BivariateSample", "PseudoObservations", "EmpiricalCopula", "CheckerboardCopula",
    "pseudo_observations", "empirical_copula", "ecop_cdf", "checkerboard_aggregate",
    "conditional_cdf", "d1_pi", "zeta1", "transpose", "d_infty", "d1", "d_infty_markov",
    "extremal_metric_pair",
    "QadOptions", "QadResult", "resolution_rule", "qad_compute",
    "permutation_test_dependence", "permutation_test_asymmetry",
    "PredictionTable", "prediction_table", "predict",
    "DataTable", "FilterReport", "PairwiseResult", "InfluenceSummary", "DependencyNetwork",
    "Correlations", "filter_columns", "pairwise_qad", "influence_summary", "build_network",
    "baseline_correlations",
    "MarshallOlkin", "FGM", "CompletelyDependent", "Independence", "CopulaModel",
    "ShapeGenerator", "SHAPE_NAMES", "sample_model", "zeta1_closed_form", "generate_shape",
    "analytic_checkerboard", "ExperimentRow", "ExperimentResult", "convergence_experiment",
    "ingest_csv", "IngestReport",
    "DataError", "ExtrapolationError", "DegenerateInputError",
}


def test_public_names_are_the_modules_all_lists():
    import qad

    assert len(PUBLIC) == 55
    assert len(qad.__all__) == len(set(qad.__all__))
    assert set(qad.__all__) == PUBLIC
    for name in qad.__all__:
        assert getattr(qad, name) is not None
