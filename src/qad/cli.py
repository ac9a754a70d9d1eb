"""Command-line surface.

Subcommands: compute, pairwise, predict, network, simulate.  stdout carries
only data (JSON or CSV); diagnostics go to stderr.  Exit codes: 0 success,
2 usage error, 3 data error, 4 numeric/degenerate-input error.  All JSON
documents carry a top-level ``"schema": "qad/1"`` field; floats are written
with Python's shortest round-trip representation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import astuple, fields

import numpy as np

from ._workers import usable_cpus
from .copula import BivariateSample, pseudo_observations
from .errors import _THRESHOLDS, DataError, DegenerateInputError, _check_range
from .estimator import MAX_PERMUTATIONS, QadOptions, _compute_with_boards
from .pairwise import (
    _complete_rows,
    _graph,
    baseline_correlations,
    build_network,
    filter_columns,
    influence_summary,
    pairwise_qad,
)
from .prediction import locate_strip, prediction_table
from .simulate import (
    FGM,
    SHAPE_NAMES,
    CompletelyDependent,
    ExperimentRow,
    Independence,
    MarshallOlkin,
    ShapeGenerator,
    _replicate_sample,
    convergence_experiment,
    generate_shape,
)
from .tables import DEFAULT_MISSING, _check_delimiter, ingest_csv

SCHEMA = "qad/1"
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _log(message: str):
    print(message, file=sys.stderr)


#: a CSV cell holding one of these is quoted; csv.writer with a "\n" line
#: terminator would leave a bare carriage return unquoted
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _fmt(value, precision: int) -> str:
    """``value`` as one CSV cell that csv.reader reads back: "" for None and NaN,
    a float to ``precision`` significant digits, else ``str(value)``, quoted
    with its quotes doubled if it holds a comma, a quote or a line break."""
    if value is None or (isinstance(value, float) and np.isnan(value)):
        return ""
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    text = str(value)
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


@contextmanager
def _writing(path):
    """Turn an OSError raised while writing ``path`` into a DataError."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _emit_lines(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with _writing(out_path), open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj: dict, out_path):
    """``obj`` under the top-level schema field, as indented JSON."""
    _emit_lines([json.dumps({"schema": SCHEMA, **obj}, indent=2)], out_path)


def _emit_csv(header: str, rows, out_path, precision: int = 6):
    """The header line, then one CSV line per row; every cell goes through ``_fmt``."""
    lines = [header]
    lines.extend(",".join(_fmt(v, precision) for v in row) for row in rows)
    _emit_lines(lines, out_path)


def _read_table(args):
    """The table of ``args.file``, read with the input flags; its report goes to stderr."""
    table, report = ingest_csv(args.file, args.missing or DEFAULT_MISSING, args.delimiter)
    for msg in report.messages():
        _log(msg)
    return table


def _load_pair(args):
    """The complete rows of columns ``args.x`` and ``args.y`` as a sample."""
    table = _read_table(args)
    xs, ys = _complete_rows(table.column(args.x), table.column(args.y))
    if xs.size < table.n_rows:
        _log(f"dropped {table.n_rows - xs.size} row(s) with missing values")
    if xs.size < 2:
        raise DegenerateInputError("fewer than 2 complete rows")
    return BivariateSample(xs, ys)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_compute(args) -> int:
    sample = _load_pair(args)
    opts = QadOptions(
        permutations=args.permutations,
        seed=args.seed,
        resolution_override=args.resolution,
        threads=args.threads,
    )
    result, (board_xy, board_yx) = _compute_with_boards(pseudo_observations(sample), opts)
    for w in result.warnings:
        _log(f"warning: {w}")
    if args.board_out:
        boards = {"board_xy": board_xy.to_json_dict(), "board_yx": board_yx.to_json_dict()}
        _emit_json(boards, args.board_out)
    _emit_json({"x": args.x, "y": args.y, **result.to_dict()}, args.out)
    return EXIT_OK


def _pairwise_result(args):
    table = _read_table(args)
    filter_report = None
    if args.filter_ties is not None:
        table, filter_report = filter_columns(table, args.filter_ties)
        for name, prop in filter_report.dropped:
            _log(f"dropped column {name!r} (single-value proportion {prop:.3f})")
    # both commands write into the --out directory: make it before the screen
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)
    opts = QadOptions(permutations=args.permutations, seed=args.seed)
    pw = pairwise_qad(table, opts, threads=args.threads)
    for w in pw.warnings:
        _log(f"warning: {w}")
    return table, pw, filter_report


def _matrix_json(matrix):
    return [[None if np.isnan(v) else float(v) for v in row] for row in matrix]


def _cmd_pairwise(args) -> int:
    table, pw, filter_report = _pairwise_result(args)
    corr = baseline_correlations(table)

    rows = [
        (
            pw.variables[f],
            pw.variables[j],
            float(pw.q[f, j]),
            float(pw.p_q[f, j]),
            float(pw.asymmetry[f, j]),
            float(pw.p_asymmetry[f, j]),
            int(pw.n_used[f, j]),
        )
        for f in range(pw.k)
        for j in range(pw.k)
        if f != j
    ]
    path = os.path.join(args.out, "pairwise_long.csv")
    _emit_csv("var1,var2,q,p_q,a,p_a,n_used", rows, path, args.precision)

    bundle = {
        "variables": list(pw.variables),
        "q": _matrix_json(pw.q),
        "p_q": _matrix_json(pw.p_q),
        "asymmetry": _matrix_json(pw.asymmetry),
        "p_asymmetry": _matrix_json(pw.p_asymmetry),
        "n_used": _matrix_json(pw.n_used),
        "pearson_r": _matrix_json(corr.pearson_r),
        "pearson_r2": _matrix_json(corr.r_squared),
        "spearman_rho": _matrix_json(corr.spearman_rho),
        "permutations": pw.permutations,
    }
    _emit_json(bundle, os.path.join(args.out, "heatmap.json"))

    report_obj = {
        "filtered": filter_report is not None,
        "dropped": [
            {"column": name, "single_value_proportion": prop}
            for name, prop in (filter_report.dropped if filter_report else ())
        ],
    }
    _emit_json(report_obj, os.path.join(args.out, "filter_report.json"))
    _log(f"wrote pairwise outputs to {args.out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    sample = _load_pair(args)
    table = prediction_table(sample, direction=args.direction)
    breaks = table.conditioning_breaks
    if args.table_out and args.table_out.endswith(".json"):
        _emit_json(table.to_json_dict(), args.table_out)
    elif args.table_out:
        # one row per conditioning strip: its bounds, then its probabilities
        header = ",".join(["cond_low", "cond_high"] + [f"p{j}" for j in range(1, len(breaks))])
        _emit_csv(header, zip(breaks[:-1], breaks[1:], *table.cond.T), args.table_out)
    strip = locate_strip(breaks, args.at)
    intervals = [
        {"low": lo, "high": hi, "probability": p}
        for lo, hi, p in table.merged_row(strip)
    ]
    payload = {
        "direction": args.direction,
        "at": args.at,
        "strip": strip + 1,
        "conditioning_interval": [float(breaks[strip]), float(breaks[strip + 1])],
        "resolution": table.resolution,
        "intervals": intervals,
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_network(args) -> int:
    _, pw, _ = _pairwise_result(args)
    net = build_network(pw, q_threshold=args.q_threshold, alpha=args.alpha)
    infl = influence_summary(pw, method=args.influence_test)
    prec = args.precision

    _emit_csv("source,target,weight", net.edges, os.path.join(args.out, "edges.csv"), prec)
    _emit_csv(
        "node,degree,betweenness,hub_score",
        [
            (name, net.degree[name], net.betweenness[name], net.hub_score[name])
            for name in net.nodes
        ],
        os.path.join(args.out, "node_metrics.csv"),
        prec,
    )
    columns = [f.name for f in fields(infl) if f.name not in ("variables", "method")]
    _emit_csv(
        ",".join(["variable", *columns]),
        [(name, *(getattr(infl, c)[i] for c in columns)) for i, name in enumerate(infl.variables)],
        os.path.join(args.out, "influence.csv"),
        prec,
    )

    import networkx as nx

    path = os.path.join(args.out, "network.graphml")
    with _writing(path):
        nx.write_graphml(_graph(net.nodes, net.edges), path)
    _log(f"wrote network outputs to {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.model == "shape":
        sample = generate_shape(args.spec, args.seed)
    elif args.reps == 1 and len(args.n) == 1:
        # single replicate: emit the raw sample so it can feed `compute`
        sample = _replicate_sample(args.spec, args.n[0], args.seed, 0, 0)
    else:
        result = convergence_experiment(args.spec, args.n, args.reps, args.seed, args.threads)
        header = ",".join(f.name for f in fields(ExperimentRow))
        _emit_csv(header, map(astuple, result.rows), args.out, args.precision)
        return EXIT_OK
    _emit_csv("x,y", zip(sample.xs.tolist(), sample.ys.tolist()), args.out, args.precision)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _sizes(text: str):
    try:
        sizes = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("sizes must be integers") from None
    if any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError("sizes must be positive")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qad",
        description="Directional dependence estimation via checkerboard copulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by several subcommands, each declared once
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("file")
    source.add_argument("--missing", action="append", default=None,
                        help="missing-value marker (repeatable; default: empty and NA)")
    source.add_argument("--delimiter", default=None, help="field delimiter (default: sniffed)")
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--x", required=True)
    pair.add_argument("--y", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    seeded.add_argument("--threads", type=int, default=usable_cpus(),
                        help="worker processes (default: the usable CPUs, %(default)s)")
    precise = argparse.ArgumentParser(add_help=False)
    precise.add_argument("--precision", type=int, default=6)
    ties = argparse.ArgumentParser(add_help=False)
    ties.add_argument("--filter-ties", type=float, default=None, metavar="P",
                      help="drop columns whose top value share is >= P")
    sized = argparse.ArgumentParser(add_help=False)
    sized.add_argument("-n", type=_sizes, required=True,
                       help="sample size, or comma-separated sizes for experiments")
    sized.add_argument("--out", default=None)
    repeated = argparse.ArgumentParser(add_help=False)
    repeated.add_argument("--reps", type=int, default=1)

    p = sub.add_parser("compute", parents=[source, pair, seeded], help="dependence of one column pair")
    p.add_argument("--permutations", type=int, default=0)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--board-out", default=None,
                   help="also write the fitted checkerboard mass matrices as JSON")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("pairwise", parents=[source, seeded, precise, ties],
                       help="dependence matrices over all column pairs")
    p.add_argument("--permutations", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_pairwise)

    p = sub.add_parser("predict", parents=[source, pair], help="conditional prediction at a data value")
    p.add_argument("--at", type=float, required=True)
    p.add_argument("--direction", choices=("xy", "yx"), default="xy")
    p.add_argument("--out", default=None)
    p.add_argument("--table-out", default=None,
                   help="also write the full prediction table (.json or CSV)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("network", parents=[source, seeded, precise, ties],
                       help="thresholded dependency network")
    p.add_argument("--q-threshold", type=float, default=0.325)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--permutations", type=int, required=True)
    p.add_argument("--influence-test", choices=("sign", "signrank"), default="sign")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_network)

    p = sub.add_parser("simulate", help="samples and convergence experiments")
    model_sub = p.add_subparsers(dest="model", required=True)

    # each model builds its copula, or shape generator, from its own flags
    simulated = [seeded, precise, sized, repeated]
    sp = model_sub.add_parser("mo", parents=simulated, help="Marshall-Olkin copula")
    # not "alpha": network's --alpha, a significance level, is range-checked
    sp.add_argument("--alpha", dest="mo_alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.set_defaults(model_of=lambda a: MarshallOlkin(a.mo_alpha, a.beta))
    sp = model_sub.add_parser("fgm", parents=simulated, help="Farlie-Gumbel-Morgenstern copula")
    sp.add_argument("--theta", type=float, required=True)
    sp.set_defaults(model_of=lambda a: FGM(a.theta))
    sp = model_sub.add_parser("cd", parents=simulated, help="completely dependent copula y = a*x mod 1")
    sp.add_argument("--slope", type=int, required=True)
    sp.set_defaults(model_of=lambda a: CompletelyDependent(a.slope))
    sp = model_sub.add_parser("independence", parents=simulated, help="independent uniforms")
    sp.set_defaults(model_of=lambda a: Independence())
    sp = model_sub.add_parser("shape", parents=[seeded, precise, sized],
                              help="benchmark dependence shapes")
    sp.add_argument("name", choices=SHAPE_NAMES)
    sp.add_argument("-a", "--noise", type=float, default=0.0)
    sp.set_defaults(reps=1, model_of=lambda a: ShapeGenerator(a.name, a.n[0], a.noise))
    p.set_defaults(func=_cmd_simulate)

    return parser


#: (flag, low, high) of every numeric flag with a valid range, bounds included
_FLAG_RANGES = (
    ("threads", 1, math.inf),
    ("seed", 0, math.inf),
    ("permutations", 0, MAX_PERMUTATIONS),
    ("resolution", 1, math.inf),
    ("reps", 1, math.inf),
    ("precision", 0, math.inf),
    ("alpha", *_THRESHOLDS["alpha"]),
    ("q_threshold", *_THRESHOLDS["q_threshold"]),
    ("filter_ties", *_THRESHOLDS["max_single_value_prop"]),
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # usage checks run before any data is read: command rules, the delimiter,
    # the numeric flags (NaN failing every bound), then the model classes,
    # which check their own parameter ranges
    try:
        if args.command == "network" and args.permutations < 1:
            raise ValueError("the network command requires --permutations > 0")
        if getattr(args, "model", None) == "shape" and len(args.n) > 1:
            raise ValueError("simulate shape draws one sample: give one size to -n")
        _check_delimiter(getattr(args, "delimiter", None), "--delimiter")
        for flag, low, high in _FLAG_RANGES:
            value = getattr(args, flag, None)
            if value is not None:
                _check_range("--" + flag.replace("_", "-"), value, low, high)
        if args.command == "simulate":
            args.spec = args.model_of(args)
    except ValueError as exc:
        _log(f"error: {exc}")
        return EXIT_USAGE
    try:
        return args.func(args)
    except DataError as exc:
        _log(f"error: {exc}")
        return EXIT_DATA
    except (DegenerateInputError, ValueError) as exc:
        _log(f"error: {exc}")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
