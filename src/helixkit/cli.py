"""Command-line front end.

Subcommands: analyze (classification report), indicatrix (unit-tangent image
samples plus the same-axis comparison), axis (curve axis against indicatrix
axis), geodesic (surface scenario verification), plotdata (curve and
indicatrix traces for external plotting).

Exit codes: 0 success, 1 I/O or format problems, 2 any other HelixkitError:
degenerate input or failed verdicts.  Output is deterministic: floats are
printed with 12 significant digits, lines end with LF.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import helix, hypersurf
from .curve import arclength_reparametrize, load_curve, _load_json, _numbers
from .errors import (
    AxisHintError, ClassificationError, CurveFormatError, HelixkitError,
    SurfaceError, UnreliableResultError,
)
from .frenet import MIN_GRID

_CELL = "{:.12g}"       # every float leaves with 12 significant digits


class _Parser(argparse.ArgumentParser):
    # usage mistakes are format problems; keep them on exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _axis_hint(text):
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            "axis hint must be comma-separated numbers") from None
    if len(values) < 2:
        raise argparse.ArgumentTypeError("axis hint needs at least 2 entries")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="helixkit",
                     description="Helix detection and verification toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, run, help_text, fmt=False, hint=False, tols=False,
            grid=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("input", help="curve or scenario file (JSON)")
        if grid:
            p.add_argument("--grid", type=int, default=helix.DEFAULT_GRID,
                           help=f"evaluation grid size (default "
                           f"{helix.DEFAULT_GRID}, minimum {MIN_GRID})")
            p.add_argument("--margin", type=float, default=helix.CHECK_MARGIN,
                           help="fraction trimmed from each end of the domain")
        p.add_argument("--output", help="write to this file instead of stdout")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"),
                           default="json", help="output format")
        if hint:
            p.add_argument("--axis-hint", type=_axis_hint, default=None,
                           metavar="X,Y,Z",
                           help="direction for the constant-angle statistics")
        if tols:
            p.add_argument("--tol-axis", type=float, default=helix.TOL_AXIS,
                           help="max angular wobble of the axis field")
            p.add_argument("--tol-const", type=float, default=helix.TOL_CONST,
                           help="max relative drift of the tested constant")
        return p

    add("analyze", cmd_analyze, "classify a curve as slant/general helix",
        fmt=True, hint=True, tols=True)
    add("indicatrix", cmd_indicatrix, "emit tangent indicatrix samples",
        fmt=True)
    add("axis", cmd_axis, "compare curve axis with indicatrix axis",
        tols=True)
    add("geodesic", cmd_geodesic, "verify a surface geodesic scenario",
        grid=False)
    p = add("plotdata", cmd_plotdata, "emit curve trace data for plotting")
    p.add_argument("--both", action="store_true",
                   help="also write the indicatrix trace (needs --output)")
    return parser


def _g(x) -> str:
    return _CELL.format(float(x))


def _rounded(obj):
    """Copy with every float snapped to 12 significant digits."""
    if isinstance(obj, (int, str)) or obj is None:     # bool is an int
        return obj
    if isinstance(obj, float):
        return float(_g(obj))
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return _rounded(float(obj))


def _write(text, output):
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload, output):
    _write(json.dumps(_rounded(payload), indent=2) + "\n", output)


def _rows_json_text(payload):
    """What `_emit_json` writes for a payload whose "rows" is a 2-d array:
    one json.dumps of the rounded cells, laid out as indent=2 would."""
    rows = payload["rows"]
    cells = json.dumps(list(map(
        float, map(_CELL.format, rows.ravel().tolist()))))[1:-1]
    row = "    [\n" + ",\n".join(["      {}"] * rows.shape[1]) + "\n    ]"
    block = ",\n".join([row] * len(rows)).format(*cells.split(", "))
    text = json.dumps(_rounded(dict(payload, rows=[])), indent=2)
    return text.replace('"rows": []', f'"rows": [\n{block}\n  ]', 1) + "\n"


def _csv_text(columns, rows):
    line = ",".join([_CELL] * rows.shape[1])
    cells = "\n".join([line] * len(rows)).format(*rows.ravel().tolist())
    return ",".join(columns) + "\n" + cells + "\n"


def _trace(curve, m, first_column):
    """Column names and rows of m uniform samples over the curve's domain."""
    svals = np.linspace(curve.domain[0], curve.domain[1], m)
    pts = curve.point_grid(svals)
    columns = [first_column] + [f"x{i + 1}" for i in range(pts.shape[1])]
    return columns, np.column_stack([svals, pts])


def _check_config(parser, args):
    if getattr(args, "grid", MIN_GRID) < MIN_GRID:
        parser.error(f"--grid must be at least {MIN_GRID}")
    if not 0.0 <= getattr(args, "margin", 0.0) < 0.5:
        parser.error("--margin must lie in [0, 0.5)")
    for name in ("tol_axis", "tol_const"):
        if not 0.0 < getattr(args, name, 1.0) < math.inf:
            parser.error(f"--{name.replace('_', '-')} must be positive "
                         "and finite")


def cmd_analyze(args) -> int:
    c = load_curve(args.input)
    report = helix.classify(c, axis_hint=args.axis_hint, grid_size=args.grid,
                            margin=args.margin, tol_axis=args.tol_axis,
                            tol_const=args.tol_const)
    payload = report.to_dict()
    if args.format == "csv":
        pairs = [(key, payload[key]) for key in
                 ("classification", "cos_theta", "C", "constancy_residual",
                  "axis_residual", "masked_fraction", "planar")]
        pairs.extend((f"axis_{i + 1}", x)
                     for i, x in enumerate(payload["axis"] or ()))
        lines = ["key,value"] + [f"{k},{_fmt_cell(v)}" for k, v in pairs]
        _write("\n".join(lines) + "\n", args.output)
    else:
        _emit_json(payload, args.output)

    # both paths refuse the same mask, when it leaves out over half the grid
    if report.slant.error is not None:
        print("degenerate or unreliable input: " + report.slant.error,
              file=sys.stderr)
        return 2
    return 0


def _fmt_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, str):
        return v
    return _g(v)


def cmd_indicatrix(args) -> int:
    # one arc-length table for the samples and the same-axis check
    c = arclength_reparametrize(load_curve(args.input))
    beta = helix.tangent_indicatrix(c, margin=args.margin)
    columns, rows = _trace(beta, args.grid, "s_beta")

    if args.format == "csv":
        _write(_csv_text(columns, rows), args.output)
        return 0

    same_axis = None
    same_axis_error = None
    try:
        same_axis = helix.verify_same_axis(c, grid_size=args.grid,
                                           margin=args.margin,
                                           indicatrix=beta).to_dict()
    except (ClassificationError, UnreliableResultError) as exc:
        same_axis_error = str(exc)
    _write(_rows_json_text({
        "columns": columns,
        "rows": rows,
        "same_axis": same_axis,
        "same_axis_error": same_axis_error,
    }), args.output)
    return 0


def cmd_axis(args) -> int:
    c = load_curve(args.input)
    comparison = helix.verify_same_axis(c, grid_size=args.grid,
                                        margin=args.margin,
                                        tol_axis=args.tol_axis,
                                        tol_const=args.tol_const)
    _emit_json(comparison.to_dict(), args.output)
    return 0


def _scenario_geodesics(h, entries):
    if not isinstance(entries, list) or not entries:
        raise CurveFormatError('"geodesics" must be a non-empty list')
    out = []
    for i, g in enumerate(entries):
        if not isinstance(g, dict):
            raise CurveFormatError(f"geodesic {i} must be an object")
        message = (f'geodesic {i} needs numeric "start" of length '
                   f'{h.dim - 1}, "tangent" of length {h.dim} and "length", '
                   'and a positive integer "steps" if any')
        start = _numbers(g.get("start"), message, (h.dim - 1,))
        tangent = _numbers(g.get("tangent"), message, (h.dim,))
        length = float(_numbers(g.get("length"), message, ()))
        steps = g.get("steps")
        if steps is not None:
            steps = _numbers(steps, message, ())
            # int() alone would truncate 1.7
            if steps % 1 or steps < 1:
                raise CurveFormatError(message)
            steps = int(steps)
        try:
            out.append(hypersurf.geodesic(h, start, tangent, length,
                                          steps=steps))
        except SurfaceError as exc:     # a failed check in the report
            out.append(exc)
    return out


def cmd_geodesic(args) -> int:
    data = _load_json(args.input)
    if not isinstance(data, dict) or "surface" not in data:
        raise CurveFormatError('scenario file needs a "surface" object')
    h = hypersurf.load_surface(data["surface"])
    geodesics = _scenario_geodesics(h, data.get("geodesics"))
    report = hypersurf.verify_geodesic_theorems(h, geodesics)
    _emit_json(report.to_dict(), args.output)
    return 0 if report.passed else 2


def cmd_plotdata(args) -> int:
    if args.both and not args.output:
        raise CurveFormatError("--both needs --output to name the two files")
    c = load_curve(args.input)
    _write(_csv_text(*_trace(c, args.grid, "s")), args.output)

    if args.both:
        beta = helix.tangent_indicatrix(c, margin=args.margin)
        stem, suffix = os.path.splitext(args.output)
        _write(_csv_text(*_trace(beta, args.grid, "s")),
               f"{stem}_indicatrix{suffix}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_config(parser, args)
    try:
        return args.run(args)
    except (CurveFormatError, AxisHintError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HelixkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
