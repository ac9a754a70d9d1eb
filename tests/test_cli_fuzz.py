"""Random command lines over the real subcommands and flags.

Every run must exit with 0, 2, 3 or 4, leave stdout empty on a non-zero exit
and raise nothing.  Flag values include out-of-range numbers and NaN; inputs
include missing, directory, non-UTF-8 and oversize-cell files; outputs go to
fresh paths, into a missing directory, onto an existing directory or onto an
existing file.  Everything is written under one temporary directory, and no
run asks for more than 19 permutations.
"""

import contextlib
import io
import itertools
import os

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from qad.cli import main
from qad.simulate import SHAPE_NAMES

WDI = os.path.join(os.path.dirname(__file__), "data", "wdi_countries.csv")

def pick(valid, invalid=()):
    """A value from ``valid``, or about one time in eight from ``invalid``: an
    out-of-range, NaN or malformed value, or a path that cannot be used."""
    if not invalid:
        return st.sampled_from(valid)
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(invalid if i == 7 else valid))


COLUMNS = pick(["birth", "death", "gdp"], ["country", "nope"])
INPUTS = pick(["wdi", "ties"], ["tiny", "header_only", "absent", "directory", "latin1", "oversize"])
OUTPUTS = pick(["fresh", "existing_file"], ["in_missing_dir", "existing_dir"])
OUT_DIRS = pick(["fresh", "existing_dir"], ["in_missing_dir", "existing_file"])

IO_FLAGS = [
    ("--missing", pick(["", "NA", "0", "x"]), False),
    ("--delimiter", pick([","], [";", "\t", "", ";;", "\n"]), False),
]
SEED = ("--seed", pick(["0", "7", "18446744073709551617"], ["-1", "nan", "x"]))
THREADS = ("--threads", pick(["1", "2"], ["0", "-1"]))
PRECISION = ("--precision", pick(["0", "3", "17"], ["-1"]))
PERMUTATIONS = ("--permutations", pick(["0", "1", "9", "19"], ["-1", "nan"]))
FILTER_TIES = ("--filter-ties", pick(["0.5", "1"], ["0", "-1", "2", "nan"]))

#: per subcommand, its (flag, values, required) options
COMMANDS = {
    "compute": [
        ("--x", COLUMNS, True), ("--y", COLUMNS, True), (*PERMUTATIONS, False),
        (*SEED, False), (*THREADS, False),
        ("--resolution", pick(["1", "3", "40"], ["-2", "0", "100000", "nan"]), False),
        ("--out", OUTPUTS, False), ("--board-out", OUTPUTS, False),
    ],
    "predict": [
        ("--x", COLUMNS, True), ("--y", COLUMNS, True),
        ("--at", pick(["30", "0", "1.5"], ["1e300", "-inf", "nan", "x"]), True),
        ("--direction", pick(["xy", "yx"], ["zz"]), False),
        ("--out", OUTPUTS, False), ("--table-out", OUTPUTS, False),
    ],
    "pairwise": [
        (*PERMUTATIONS, False), (*SEED, False), (*THREADS, False), (*PRECISION, False),
        (*FILTER_TIES, False), ("--out", OUT_DIRS, True),
    ],
    "network": [
        ("--permutations", pick(["1", "9", "19"], ["0", "-1", "nan"]), True),
        (*SEED, False), (*THREADS, False), (*PRECISION, False), (*FILTER_TIES, False),
        ("--q-threshold", pick(["0", "0.3", "1"], ["-0.1", "1.5", "nan"]), False),
        ("--alpha", pick(["0.05", "1"], ["0", "1.5", "nan"]), False),
        ("--influence-test", pick(["sign", "signrank"], ["other"]), False),
        ("--out", OUT_DIRS, True),
    ],
}

MODELS = {
    "mo": [("--alpha", pick(["0", "0.3", "1"], ["-0.5", "2", "nan"]), True),
           ("--beta", pick(["0", "0.3", "1"], ["-0.5", "2", "nan"]), True)],
    "fgm": [("--theta", pick(["-1", "0", "0.5"], ["-2", "5", "nan", "inf"]), True)],
    "cd": [("--slope", pick(["1", "5"], ["0", "-3", "x"]), True)],
    "independence": [],
    "shape": [("-a", pick(["0", "0.05", "0.5", "1"], ["2", "-1", "nan", "inf", "1e308"]), False)],
}
SIM_FLAGS = [
    ("-n", pick(["2", "17", "40", "10,20"], ["1", "0", "5,-1", "x"]), True),
    ("--reps", pick(["1", "2", "3"], ["0", "-1"]), False),
    (*SEED, False), (*THREADS, False), (*PRECISION, False), ("--out", OUTPUTS, False),
]


def options(draw, specs):
    argv = []
    for flag, values, required in draw(st.permutations(specs)):
        # a required flag is left out now and then, an optional one half the time
        if draw(st.integers(0, 9)) < (9 if required else 5):
            argv += [flag, draw(values)]
    return argv


@st.composite
def command_lines(draw):
    """An argv whose input and output paths are still named by their kind."""
    command = draw(st.sampled_from(["compute", "predict", "pairwise", "network", "simulate"]))
    if command == "simulate":
        model = draw(st.sampled_from(sorted(MODELS)))
        argv = ["simulate", model]
        if model == "shape":
            argv.append(draw(pick(SHAPE_NAMES, ["spiral"])))
        return argv + options(draw, MODELS[model] + SIM_FLAGS)
    return [command, draw(INPUTS)] + options(draw, COMMANDS[command] + IO_FLAGS)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    rows = [f"{i % 3},{'' if i % 7 == 0 else i % 5},{'NA' if i % 11 == 0 else 2},c{i}"
            for i in range(30)]
    inputs = {
        "wdi": WDI,
        "ties": "birth,death,gdp,country\n" + "\n".join(rows) + "\n",
        "tiny": "birth,death,gdp\n1,2,3\n",
        "header_only": "birth,death\n",
        "latin1": b"birth,death\n1,2\n\xff,3\n",
        "oversize": "birth,death\n1,2\n3," + "4" * 200_000 + "\n",
    }
    resolved = {"absent": str(base / "absent.csv"), "directory": str(base)}
    for name, content in inputs.items():
        if name == "wdi":
            resolved[name] = content
            continue
        path = base / f"{name}.csv"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        resolved[name] = str(path)
    (base / "existing_dir").mkdir()
    (base / "existing_file").write_text("")
    return base, resolved


FRESH = itertools.count()


@settings(
    max_examples=200, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argv=command_lines())
def test_random_command_lines_exit_cleanly(paths, argv):
    base, inputs = paths
    outputs = {
        "in_missing_dir": str(base / "missing_dir" / "out"),
        "existing_dir": str(base / "existing_dir"),
        "existing_file": str(base / "existing_file"),
    }
    resolved = []
    for arg in argv:
        if arg == "fresh":
            arg = str(base / f"fresh{next(FRESH)}")
        resolved.append(inputs.get(arg, outputs.get(arg, arg)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    event(f"{argv[0]} exits {code}")
    assert code in (0, 2, 3, 4), (resolved, err.getvalue())
    if code != 0:
        assert out.getvalue() == "", (resolved, err.getvalue())
    assert "Traceback" not in err.getvalue()
