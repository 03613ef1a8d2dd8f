"""Command-line front end: derivative data, figure curves, checks.

Commands
--------
derive       fractional derivative of a built-in function or CSV signal
figure       data behind the four standard curves (CSV or JSON)
uncertainty  position/momentum spread report on the Gaussian state
check        run a named invariant suite (or `all`)

Built-in functions default to the closed-form oracle route (no grid
artifacts); `--engine spectral` switches to the FFT path.  File input
always uses the FFT path.  Every FFT route goes through _engine_curves,
which prints the engine's wrap-around warning on stderr; every closed-form
route goes through _closed_form_curves.  All numbers are emitted with 9
significant digits, lowercase exponent, so identical configurations
produce byte-identical files.

Exit codes: 0 success, 1 check failure, 2 usage/config error (an order
whose values overflow double precision included), 3 I/O error.
"""
import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import checks
from .grid import (CSV_HEADER, DegenerateInterval, NonPowerOfTwo, SampledSignal, make_grid,
                   sample)
from .oracles import gaussian_deriv, x2gaussian_deriv
from .quantum import gaussian_state, high_res_grid, uncertainty_bound, uncertainty_check
from .specfun import MAX_ABS_Z, ArgumentOutOfRange, OrderTooLarge
from .spectral import NegativeAlpha, fractional_derivative, require_order

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

_BUILTINS = {
    "gaussian": (lambda x: np.exp(-x * x), gaussian_deriv),
    "x2gaussian": (lambda x: x * x * np.exp(-x * x), x2gaussian_deriv),
}

#: figure id -> (built-in function, orders); figure 4 is the bound scan
_FIGURES = {
    1: ("gaussian", (0.0, 1.0 / 50, 1.0 / 10, 0.5)),
    2: ("gaussian", (4.5, 4.8, 5.0, 5.2, 5.5)),
    3: ("x2gaussian", (0.0, 1.0 / 50, 1.0 / 10, 0.5)),
}


class CLIConfigError(Exception):
    """Bad flag/config combination; message names the offending field."""


def fmt9(v):
    """9 significant digits, lowercase exponent; -0 normalized to 0."""
    v = float(v)
    if v == 0.0:
        v = 0.0
    return f"{v:.9g}"


def _round9(v):
    return float(fmt9(v))


def _grid(args):
    try:
        return make_grid(args.domain[0], args.domain[1], args.points)
    except NonPowerOfTwo as exc:
        raise CLIConfigError(f"--points: {exc}") from exc
    except DegenerateInterval as exc:
        raise CLIConfigError(f"--domain: {exc}") from exc


def _parse_alphas(text):
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            a = float(part)
        except ValueError as exc:
            raise CLIConfigError(f"--alpha: {part!r} is not a number") from exc
        try:
            require_order(a)
        except NegativeAlpha as exc:
            raise CLIConfigError(f"--alpha: {exc}") from exc
        out.append(a)
    if not out:
        raise CLIConfigError("--alpha: empty list")
    return out


# --- output helpers --------------------------------------------------------

def _emit(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _signal_csv(x, values):
    buf = io.StringIO()
    buf.write(f"{CSV_HEADER}\n")
    for xj, vj in zip(x, values):
        buf.write(f"{fmt9(xj)},{fmt9(vj.real)},{fmt9(vj.imag)}\n")
    return buf.getvalue()


def _curves_json(curve_list):
    payload = []
    for alpha, x, values in curve_list:
        payload.append({
            "alpha": _round9(alpha) if alpha is not None else None,
            "x": [_round9(v) for v in x],
            "re": [_round9(v.real) for v in np.asarray(values, dtype=complex)],
            "im": [_round9(v.imag) for v in np.asarray(values, dtype=complex)],
        })
    return json.dumps(payload, indent=2) + "\n"


def _per_alpha_path(path, alpha):
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return f"{path}_alpha{fmt9(alpha)}"
    return f"{stem}_alpha{fmt9(alpha)}.{ext}"


# --- input path ------------------------------------------------------------

def _read_signal_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != CSV_HEADER.split(","):
        raise CLIConfigError(f"--input {path}: expected header '{CSV_HEADER}'")
    try:
        data = np.array([[float(c) for c in row] for row in rows[1:]], dtype=float)
    except ValueError as exc:
        raise CLIConfigError(f"--input {path}: non-numeric row ({exc})") from exc
    if data.ndim != 2 or data.shape[1] != 3 or data.shape[0] < 8:
        raise CLIConfigError(f"--input {path}: need rows of {CSV_HEADER} (at least 8)")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise CLIConfigError(
            f"--input {path}: non-finite value on line {int(finite.argmin()) + 2}")
    x = data[:, 0]
    n = len(x)
    if n & (n - 1):
        raise CLIConfigError(f"--input {path}: sample count {n} is not a power of two")
    dx = x[1] - x[0]
    if dx <= 0:
        raise CLIConfigError(f"--input {path}: x column must increase")
    ideal = x[0] + dx * np.arange(n)
    if np.max(np.abs(x - ideal)) > 1e-9 * max(1.0, float(np.max(np.abs(x)))):
        raise CLIConfigError(f"--input {path}: x column is not uniformly spaced")
    grid = make_grid(x[0], x[0] + n * dx, n)
    return SampledSignal(grid, data[:, 1] + 1j * data[:, 2])


# --- the two routes ---------------------------------------------------------

def _engine_curves(signal, alphas, window=slice(None)):
    """(order, x, D^a values) per order through the FFT engine, cut to window.

    Prints the engine's wrap-around warning, if any, on stderr.
    """
    curves = []
    for a in alphas:
        d = fractional_derivative(signal, a)
        if d.warning:
            print(f"warning: {d.warning}", file=sys.stderr)
        curves.append((a, signal.grid.x[window], d.values[window]))
    return curves


def _closed_form_curves(oracle, alphas, xs):
    """(order, x, D^a values) per order from the closed form, point by point."""
    try:
        return [(a, xs, np.array([oracle(a, float(x)) for x in xs])) for a in alphas]
    except ArgumentOutOfRange as exc:
        raise CLIConfigError(
            f"--domain: closed-form route limited to |x| <= {math.sqrt(MAX_ABS_Z):g} ({exc}); "
            f"use --engine spectral or a narrower domain") from exc


# --- commands --------------------------------------------------------------

def cmd_derive(args):
    alphas = None if args.alpha is None else _parse_alphas(args.alpha)
    if args.input is not None and args.function is not None:
        raise CLIConfigError("--function and --input are mutually exclusive")
    if alphas is None:
        raise CLIConfigError("--alpha is required for derive")
    if args.input is not None:
        if args.engine == "oracle":
            raise CLIConfigError("--engine oracle has no closed form for --input data")
        curves = _engine_curves(_read_signal_csv(args.input), alphas)
    else:
        builtin, oracle = _BUILTINS[args.function or "gaussian"]
        grid = _grid(args)
        if args.engine == "spectral":
            curves = _engine_curves(sample(builtin, grid), alphas)
        else:
            curves = _closed_form_curves(oracle, alphas, grid.x)

    if args.format == "json":
        _emit(args.output, _curves_json(curves))
        return EXIT_OK
    if len(curves) == 1:
        _emit(args.output, _signal_csv(curves[0][1], curves[0][2]))
        return EXIT_OK
    if args.output is None:
        raise CLIConfigError("--output is required for multiple orders in csv format "
                             "(one file per order)")
    for a, x, vals in curves:
        _emit(_per_alpha_path(args.output, a), _signal_csv(x, vals))
    return EXIT_OK


def cmd_figure(args):
    grid = _grid(args)          # validates --points/--domain on every route
    if args.id == 4:
        scan = np.arange(601) / 100.0
        vals = np.array([uncertainty_bound(a) for a in scan], dtype=complex)
        curves = [(None, scan, vals)]
    else:
        name, alphas = _FIGURES[args.id]
        builtin, oracle = _BUILTINS[name]
        if args.engine == "spectral":
            curves = _engine_curves(sample(builtin, grid), alphas, np.abs(grid.x) <= 4.0)
        else:
            curves = _closed_form_curves(oracle, alphas, np.arange(-400, 401) / 100.0)
    if args.format == "json":
        _emit(args.output, _curves_json(curves))
        return EXIT_OK
    buf = io.StringIO()
    if args.id == 4:
        buf.write("alpha,bound\n")
        _, scan, vals = curves[0]
        for a, v in zip(scan, vals):
            buf.write(f"{fmt9(a)},{fmt9(v.real)}\n")
    else:
        labels = ",".join(f"alpha={fmt9(a)}" for a, _, _ in curves)
        buf.write(f"x,{labels}\n")
        xs = curves[0][1]
        cols = [vals for _, _, vals in curves]
        for j, xj in enumerate(xs):
            row = ",".join(fmt9(col[j].real) for col in cols)
            buf.write(f"{fmt9(xj)},{row}\n")
    _emit(args.output, buf.getvalue())
    return EXIT_OK


def cmd_uncertainty(args):
    alphas = _parse_alphas(args.alpha)
    for a in alphas:
        if a < 1:
            raise CLIConfigError(
                f"--alpha: the uncertainty report needs order >= 1, got {a:g} "
                f"(orders below 1 carry no operator meaning)")
    state = gaussian_state(high_res_grid())
    reports = [uncertainty_check(a, state) for a in alphas]
    if args.format == "json":
        payload = [{
            "alpha": _round9(r.alpha),
            "delta_x": _round9(r.delta_x),
            "delta_p_alpha": _round9(r.delta_p_alpha),
            "product": _round9(r.product),
            "rhs_bound": _round9(r.rhs_bound),
            "satisfied": r.satisfied,
        } for r in reports]
        _emit(args.output, json.dumps(payload, indent=2) + "\n")
        return EXIT_OK
    buf = io.StringIO()
    buf.write("alpha,delta_x,delta_p_alpha,product,rhs_bound,satisfied\n")
    for r in reports:
        buf.write(f"{fmt9(r.alpha)},{fmt9(r.delta_x)},{fmt9(r.delta_p_alpha)},"
                  f"{fmt9(r.product)},{fmt9(r.rhs_bound)},"
                  f"{'true' if r.satisfied else 'false'}\n")
    _emit(args.output, buf.getvalue())
    return EXIT_OK


def cmd_check(args):
    results = checks.run_suite(args.suite)
    failed = 0
    asserted = 0
    for res in results:
        if res.passed is None:
            print(f"INFO {res.name}: value={fmt9(res.measured)}"
                  + (f"  [{res.detail}]" if res.detail else ""))
            continue
        asserted += 1
        status = "PASS" if res.passed else "FAIL"
        if not res.passed:
            failed += 1
        tol = f" tol={fmt9(res.tolerance)}" if res.tolerance is not None else ""
        print(f"{status} {res.name}: measured={fmt9(res.measured)}{tol}")
    print(f"{asserted - failed}/{asserted} assertions passed")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# --- argument parsing ------------------------------------------------------

def _add_shared(p, grid=True, alpha=True):
    if grid:
        p.add_argument("--domain", nargs=2, type=float, metavar=("MIN", "MAX"),
                       default=(-16.0, 16.0), help="grid interval (default -16 16)")
        p.add_argument("--points", type=int, metavar="N", default=4096,
                       help="grid size, power of two (default 4096)")
        p.add_argument("--engine", choices=("oracle", "spectral"),
                       help="closed-form oracle (default for built-ins) or FFT engine")
    if alpha:
        p.add_argument("--alpha", metavar="A[,A...]",
                       help="comma-separated derivative orders, each >= 0")
    p.add_argument("--output", metavar="FILE", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fracspectral",
        description="Fractional derivatives via Fourier multipliers, with "
                    "closed-form oracles and operator checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="compute fractional derivatives")
    p.set_defaults(run=cmd_derive)
    _add_shared(p)
    p.add_argument("--function", choices=sorted(_BUILTINS),
                   help="built-in function (default gaussian)")
    p.add_argument("--input", metavar="FILE",
                   help=f"CSV signal ({CSV_HEADER}) to differentiate instead of a built-in")

    p = sub.add_parser("figure", help="emit the data behind the standard figures")
    p.set_defaults(run=cmd_figure)
    p.add_argument("id", type=int, choices=(1, 2, 3, 4), help="figure number")
    _add_shared(p, alpha=False)

    p = sub.add_parser("uncertainty", help="spread report on the Gaussian state")
    p.set_defaults(run=cmd_uncertainty)
    _add_shared(p, grid=False)
    p.set_defaults(alpha="1,1.5,2,3")

    p = sub.add_parser("check", help="run an invariant suite")
    p.set_defaults(run=cmd_check)
    p.add_argument("suite", choices=checks.SUITE_NAMES + ("all",))
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.run(args)
    except (CLIConfigError, OrderTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
