"""The import path of the package and of the non-network commands stays free
of scipy and networkx: each costs more than a second of start-up that
``compute``, ``predict`` and ``pairwise`` never use."""

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
    code = f"HEAVY = {HEAVY!r}\nCOMMANDS = {commands!r}\n" + SCRIPT
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"import": [], "compute": [0], "predict": [0], "pairwise": [0]}
