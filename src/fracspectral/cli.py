"""Command-line front end: derivative data, figure curves, checks.

Commands
--------
derive       fractional derivative of a built-in function or CSV signal
figure       data behind the four standard curves (CSV or JSON), in closed form
uncertainty  position/momentum spread report on the Gaussian state
check        run a named invariant suite (or `all`)

Each command takes only the flags it reads.  Built-in functions default to
the closed-form oracle route (no grid artifacts); `--engine spectral`
switches to the FFT path.  File input always uses the FFT path, on the
grid its x column sets.  Every FFT route goes through _engine_curves,
which prints the engine's wrap-around warning on stderr; every closed-form
route through _closed_form_curves, which makes one closed_form_orders call
for all its orders (one 1F1 series per command at the figures' size).  One
9-digit rule writes every number (9 significant digits, lowercase exponent,
-0 as 0): fmt9_all gives each number's text (a JSON number is float of that
text), _csv writes every CSV table by it (an all-zero column as a literal 0),
and JSON is json.dumps(payload, indent=2)'s layout, of the uncertainty report
by json.dumps itself and of the curves by _curves_json, which encodes each
distinct column once.  `--input` rows are parsed by np.loadtxt and sized by
make_grid.

Exit codes: 0 success, 1 check failure, 2 usage/config error (an order
whose values overflow double precision, or one outside the range a command
is defined for, included), 3 I/O error.
"""
import argparse
import functools
import json
import math
import os
import re
import sys
import warnings

import numpy as np

from . import checks
from .grid import (CSV_HEADER, DegenerateInterval, NonPowerOfTwo, SampledSignal, make_grid,
                   sample)
from .oracles import closed_form_orders, gaussian, gaussian_deriv, x2gaussian, x2gaussian_deriv
from .quantum import gaussian_state, high_res_grid, uncertainty_bound, uncertainty_check
from .specfun import MAX_ABS_Z, ArgumentOutOfRange, OrderTooLarge
from .spectral import AlphaInForbiddenRange, fractional_derivative, require_order

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

_BUILTINS = {
    "gaussian": (gaussian, gaussian_deriv),
    "x2gaussian": (x2gaussian, x2gaussian_deriv),
}

#: figure id -> (closed form, orders); figure 4 is the bound scan
_FIGURES = {
    1: (gaussian_deriv, (0.0, 1.0 / 50, 1.0 / 10, 0.5)),
    2: (gaussian_deriv, (4.5, 4.8, 5.0, 5.2, 5.5)),
    3: (x2gaussian_deriv, (0.0, 1.0 / 50, 1.0 / 10, 0.5)),
}


class CLIConfigError(Exception):
    """Bad flag/config combination; message names the offending field."""


_NINE_DIGITS = "%.9g"      # the 9-digit rule, applied to _unsigned_zero's floats


def _unsigned_zero(values):
    """values as a float array with -0 as 0, which _NINE_DIGITS alone prints as -0."""
    return np.asarray(values, dtype=float) + 0.0


def fmt9_all(values):
    """Each number as text: 9 significant digits, lowercase exponent; -0 prints as 0.

    All numbers go through one % operation; no text it writes holds a comma.
    """
    values = _unsigned_zero(values).ravel().tolist()
    return (",".join([_NINE_DIGITS] * len(values)) % tuple(values)).split(",") if values else []


def fmt9(v):
    """One number as fmt9_all writes it."""
    return fmt9_all([v])[0]


def _grid(args):
    """--domain and --points default to (-16, 16) and 4096 here, so --input can refuse them."""
    x_min, x_max = (-16.0, 16.0) if args.domain is None else args.domain
    try:
        return make_grid(x_min, x_max, 4096 if args.points is None else args.points)
    except NonPowerOfTwo as exc:
        raise CLIConfigError(f"--points: {exc}") from exc
    except DegenerateInterval as exc:
        raise CLIConfigError(f"--domain: {exc}") from exc
    except MemoryError as exc:          # numpy refuses a grid past the memory at once
        raise CLIConfigError(f"--points: {exc}") from exc


def _parse_alphas(text):
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            a = float(part)
        except ValueError as exc:
            raise CLIConfigError(f"--alpha: {part!r} is not a number") from exc
        out.append(require_order(a))
    return out


# --- output helpers --------------------------------------------------------

def _emit(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _csv(header, *numbers, text=()):
    """A CSV table: the header line, then one line per row, the number columns
    by fmt9_all's rule and then the text columns, all rows in one % operation.
    An all-zero number column is a literal 0 in the row template."""
    table = _unsigned_zero(np.column_stack(numbers))
    nonzero = table.any(axis=0)
    line = ",".join([_NINE_DIGITS if k else "0" for k in nonzero] + ["%s"] * len(text)) + "\n"
    table = table[:, nonzero]
    if text:
        table = np.column_stack([table.astype(object), *text])
    return header + "\n" + (line * len(table)) % tuple(table.ravel().tolist())


_CURVE_JSON = '  {\n    "alpha": %s,\n    "x": %s,\n    "re": %s,\n    "im": %s\n  }'


def _curves_json(curve_list):
    """json.dumps(payload, indent=2) + "\n" of one or more curves of non-empty
    columns, each number by fmt9_all's rule: one % operation over a template of
    _CURVE_JSON, one curve's lines, per curve.  Each distinct column, found by its
    values (the shared x; the all-zero ones), is one text: one call of json's C
    encoder, whose item separator carries the line break and the indent."""
    texts = {}

    def column(values):
        key = _unsigned_zero(values).tobytes()
        if key not in texts:
            numbers = json.dumps(list(map(float, fmt9_all(values))), separators=(",\n      ", ": "))
            texts[key] = "[\n      " + numbers[1:-1] + "\n    ]"
        return texts[key]

    fields = [(json.dumps(None if alpha is None else float(fmt9(alpha))),
               column(x), column(values.real), column(values.imag))
              for alpha, x, values in curve_list]
    template = "[\n" + ",\n".join([_CURVE_JSON] * len(fields)) + "\n]\n"
    return template % tuple(text for curve in fields for text in curve)


def _per_alpha_path(path, alpha):
    """The path with _alpha<order> before its file name's extension, if it has one."""
    stem, ext = os.path.splitext(path)
    return f"{stem}_alpha{fmt9(alpha)}{ext}"


# --- input path ------------------------------------------------------------

def _read_signal_csv(path):
    """The signal in a CSV file: the header x,re,im (after a byte-order mark, if
    any), then rows on a uniform grid."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            header, *lines = fh.readlines() or [""]
    except UnicodeDecodeError as exc:
        raise CLIConfigError(f"--input {path}: not a UTF-8 text file ({exc})") from exc
    if [c.strip().strip('"') for c in header.split(",")] != CSV_HEADER.split(","):
        raise CLIConfigError(f"--input {path}: expected header '{CSV_HEADER}'")
    try:
        with warnings.catch_warnings():
            # a file of the header alone: its (0, 1) shape is rejected below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None, quotechar='"')
    except ValueError as exc:
        raise CLIConfigError(f"--input {path}: each row must hold three numbers "
                             f"{CSV_HEADER} ({exc})") from exc
    if data.shape[1] != 3:
        raise CLIConfigError(f"--input {path}: need rows of {CSV_HEADER} (at least 8)")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        # loadtxt skips blank lines, so data row i sits on the i-th non-blank file line
        rows = [number for number, line in enumerate(lines, start=2) if line.strip()]
        raise CLIConfigError(
            f"--input {path}: non-finite value on line {rows[int(finite.argmin())]}")
    x = data[:, 0]
    n = len(x)
    # one row has no step: any interval will do, as make_grid refuses its count
    x0, dx = (float(x[0]), float(x[1] - x[0])) if n > 1 else (0.0, 1.0)
    try:
        grid = make_grid(x0, x0 + n * dx, n)
    except NonPowerOfTwo as exc:
        raise CLIConfigError(f"--input {path}: sample count: {exc}") from exc
    except DegenerateInterval as exc:
        raise CLIConfigError(f"--input {path}: x column must increase") from exc
    if np.max(np.abs(x - grid.x)) > 1e-9 * max(1.0, float(np.max(np.abs(x)))):
        raise CLIConfigError(f"--input {path}: x column is not uniformly spaced")
    return SampledSignal(grid, data[:, 1] + 1j * data[:, 2])


# --- the two routes ---------------------------------------------------------

def _engine_curves(signal, alphas):
    """(order, x, D^a values) per order through the FFT engine.

    Prints the engine's wrap-around warning, if any, on stderr.
    """
    curves = []
    for a in alphas:
        d = fractional_derivative(signal, a)
        if d.warning:
            print(f"warning: {d.warning}", file=sys.stderr)
        curves.append((a, signal.grid.x, d.values))
    return curves


def _closed_form_curves(oracle, alphas, xs):
    """(order, x, D^a values) per order from the closed form, all orders in one call."""
    try:
        return [(a, xs, v) for a, v in zip(alphas, closed_form_orders(oracle, alphas, xs))]
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
        for flag, value in (("--domain", args.domain), ("--points", args.points)):
            if value is not None:
                raise CLIConfigError(f"{flag}: the --input file sets the grid")
        if args.engine == "oracle":
            raise CLIConfigError("--engine oracle has no closed form for --input data")
        signal = _read_signal_csv(args.input)
    else:
        builtin, oracle = _BUILTINS[args.function or "gaussian"]
        grid = _grid(args)
        signal = sample(builtin, grid) if args.engine == "spectral" else None
    paths = [args.output]
    if args.format == "csv" and len(alphas) > 1:
        # refused before any order is computed
        if args.output is None:
            raise CLIConfigError("--output is required for multiple orders in csv format "
                                 "(one file per order)")
        paths = [_per_alpha_path(args.output, a) for a in alphas]
        for i, path in enumerate(paths):
            first = paths.index(path)
            if first < i:   # file names carry an order to 9 significant digits
                raise CLIConfigError(f"--alpha: orders {alphas[first]!r} and {alphas[i]!r} "
                                     f"both write {path}")
    curves = (_closed_form_curves(oracle, alphas, grid.x) if signal is None
              else _engine_curves(signal, alphas))

    if args.format == "json":
        _emit(args.output, _curves_json(curves))
        return EXIT_OK
    for (_, x, vals), path in zip(curves, paths):
        _emit(path, _csv(CSV_HEADER, x, vals.real, vals.imag))
    return EXIT_OK


def cmd_figure(args):
    if args.id == 4:
        scan = np.arange(601) / 100.0
        vals = np.array([uncertainty_bound(a) for a in scan], dtype=complex)
        curves = [(None, scan, vals)]
        header = "alpha,bound"
    else:
        oracle, alphas = _FIGURES[args.id]
        curves = _closed_form_curves(oracle, alphas, np.arange(-400, 401) / 100.0)
        header = "x," + ",".join(f"alpha={t}" for t in fmt9_all(alphas))
    if args.format == "json":
        _emit(args.output, _curves_json(curves))
    else:
        # one column of x (figure 4: of orders), then the real part of each curve
        _emit(args.output, _csv(header, curves[0][1], *(vals.real for _, _, vals in curves)))
    return EXIT_OK


_UNCERTAINTY_FIELDS = ("alpha", "delta_x", "delta_p_alpha", "product", "rhs_bound")


def cmd_uncertainty(args):
    alphas = _parse_alphas(args.alpha)
    state = gaussian_state(high_res_grid())
    reports = [uncertainty_check(a, state) for a in alphas]
    columns = [[getattr(r, f) for r in reports] for f in _UNCERTAINTY_FIELDS]
    if args.format == "json":
        _emit(args.output, json.dumps([
            dict(zip(_UNCERTAINTY_FIELDS, map(float, fmt9_all(row))), satisfied=r.satisfied)
            for row, r in zip(zip(*columns), reports)], indent=2) + "\n")
    else:
        satisfied = ["true" if r.satisfied else "false" for r in reports]
        _emit(args.output, _csv(",".join(_UNCERTAINTY_FIELDS) + ",satisfied",
                                *columns, text=[satisfied]))
    return EXIT_OK


def cmd_check(args):
    results = checks.run_suite(args.suite)
    for res in results:
        if res.passed is None:
            print(f"INFO {res.name}: value={fmt9(res.measured)}"
                  + (f"  [{res.detail}]" if res.detail else ""))
            continue
        tol = f" tol={fmt9(res.tolerance)}" if res.tolerance is not None else ""
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: measured={fmt9(res.measured)}{tol}")
    asserted = [res.passed for res in results if res.passed is not None]
    print(f"{sum(asserted)}/{len(asserted)} assertions passed")
    return EXIT_OK if all(asserted) else EXIT_CHECK_FAILED


# --- argument parsing ------------------------------------------------------

# argparse takes a token that starts with "-" for a value only where it
# matches this pattern; its own misses exponents and infinities (-1e1, -inf)
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
                              re.IGNORECASE)


def _add_shared(p, alpha=True):
    p._negative_number_matcher = _NEGATIVE_NUMBER
    if alpha:
        p.add_argument("--alpha", metavar="A[,A...]",
                       help="comma-separated derivative orders, each >= 0")
    p.add_argument("--output", metavar="FILE", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")


@functools.cache
def build_parser():
    """The argument parser, built once: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="fracspectral",
        description="Fractional derivatives via Fourier multipliers, with "
                    "closed-form oracles and operator checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="compute fractional derivatives")
    p.set_defaults(run=cmd_derive)
    p.add_argument("--domain", nargs=2, type=float, metavar=("MIN", "MAX"),
                   help="grid interval (default -16 16)")
    p.add_argument("--points", type=int, metavar="N",
                   help="grid size, power of two (default 4096)")
    p.add_argument("--engine", choices=("oracle", "spectral"),
                   help="closed-form oracle (default for built-ins) or FFT engine")
    _add_shared(p)
    p.add_argument("--function", choices=sorted(_BUILTINS),
                   help="built-in function (default gaussian)")
    p.add_argument("--input", metavar="FILE",
                   help=f"CSV signal ({CSV_HEADER}) to differentiate instead of a built-in")

    p = sub.add_parser("figure", help="emit the data behind the standard figures",
                       description="Closed-form curves; derive --engine spectral --function F "
                                   "--alpha <the figure's orders> gives the engine's.")
    p.set_defaults(run=cmd_figure)
    p.add_argument("id", type=int, choices=(1, 2, 3, 4), help="figure number")
    _add_shared(p, alpha=False)

    p = sub.add_parser("uncertainty", help="spread report on the Gaussian state")
    p.set_defaults(run=cmd_uncertainty)
    _add_shared(p)
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
    except (CLIConfigError, OrderTooLarge, AlphaInForbiddenRange) as exc:
        # an order outside a command's range (NegativeAlpha included) names its flag
        flag = "--alpha: " if isinstance(exc, AlphaInForbiddenRange) else ""
        print(f"error: {flag}{exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
