"""Command-line front end: derivative data, figure curves, checks.

Commands
--------
derive       fractional derivative of a built-in function or CSV signal
figure       data behind the four standard curves (CSV or JSON)
uncertainty  position/momentum spread report on the Gaussian state
check        run a named invariant suite (or `all`)

Built-in functions default to the closed-form oracle route (no grid
artifacts); `--engine spectral` switches to the FFT path.  File input
always uses the FFT path.  All numbers are emitted with 9 significant
digits, lowercase exponent, so identical configurations produce
byte-identical files.

Exit codes: 0 success, 1 check failure, 2 usage/config error (an order
whose values overflow double precision included), 3 I/O error.
"""
import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import checks
from .grid import (DegenerateInterval, NonPowerOfTwo, SampledSignal, make_grid, sample)
from .oracles import gaussian_deriv, x2gaussian_deriv
from .quantum import gaussian_state, high_res_grid, uncertainty_bound, uncertainty_check
from .specfun import ArgumentOutOfRange, OrderTooLarge
from .spectral import fractional_derivative

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

_BUILTINS = {
    "gaussian": (lambda x: np.exp(-x * x), gaussian_deriv),
    "x2gaussian": (lambda x: x * x * np.exp(-x * x), x2gaussian_deriv),
}

_FIGURE_ALPHAS = {
    1: (0.0, 1.0 / 50, 1.0 / 10, 0.5),
    2: (4.5, 4.8, 5.0, 5.2, 5.5),
    3: (0.0, 1.0 / 50, 1.0 / 10, 0.5),
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


@dataclass
class RunConfig:
    """Validated run parameters shared by the data-producing commands."""
    domain: tuple = (-16.0, 16.0)
    n: int = 4096
    alphas: Optional[list] = None
    function: str = "gaussian"
    input_path: Optional[str] = None
    output_path: Optional[str] = None
    fmt: str = "csv"
    engine: Optional[str] = None   # None: oracle for built-ins, spectral for files

    def grid(self):
        try:
            return make_grid(self.domain[0], self.domain[1], self.n)
        except NonPowerOfTwo as exc:
            raise CLIConfigError(f"--points: {exc}") from exc
        except DegenerateInterval as exc:
            raise CLIConfigError(f"--domain: {exc}") from exc


def _config_from_args(args):
    cfg = RunConfig()
    if getattr(args, "domain", None) is not None:
        cfg.domain = (args.domain[0], args.domain[1])
    if getattr(args, "points", None) is not None:
        cfg.n = args.points
    if getattr(args, "alpha", None) is not None:
        cfg.alphas = _parse_alphas(args.alpha)
    if getattr(args, "function", None) is not None:
        cfg.function = args.function
    cfg.input_path = getattr(args, "input", None)
    cfg.output_path = getattr(args, "output", None)
    if getattr(args, "format", None) is not None:
        cfg.fmt = args.format
    cfg.engine = getattr(args, "engine", None)
    if cfg.input_path is not None and getattr(args, "function", None) is not None:
        raise CLIConfigError("--function and --input are mutually exclusive")
    return cfg


def _parse_alphas(text):
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            a = float(part)
        except ValueError as exc:
            raise CLIConfigError(f"--alpha: {part!r} is not a number") from exc
        if not math.isfinite(a):
            raise CLIConfigError(f"--alpha: order must be finite, got {part!r}")
        if a < 0:
            raise CLIConfigError(f"--alpha: order must be >= 0, got {a:g}")
        out.append(a)
    if not out:
        raise CLIConfigError("--alpha: empty list")
    return out


# --- output helpers --------------------------------------------------------

def _open_out(path):
    if path is None:
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _emit(path, text):
    handle, close = _open_out(path)
    try:
        handle.write(text)
    finally:
        if close:
            handle.close()


def _signal_csv(x, values):
    buf = io.StringIO()
    buf.write("x,re,im\n")
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
    if not rows or [c.strip() for c in rows[0]] != ["x", "re", "im"]:
        raise CLIConfigError(f"--input {path}: expected header 'x,re,im'")
    try:
        data = np.array([[float(c) for c in row] for row in rows[1:]], dtype=float)
    except ValueError as exc:
        raise CLIConfigError(f"--input {path}: non-numeric row ({exc})") from exc
    if data.ndim != 2 or data.shape[1] != 3 or data.shape[0] < 8:
        raise CLIConfigError(f"--input {path}: need rows of x,re,im (at least 8)")
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


# --- commands --------------------------------------------------------------

def cmd_derive(config):
    if config.alphas is None:
        raise CLIConfigError("--alpha is required for derive")
    if config.input_path is not None:
        if config.engine == "oracle":
            raise CLIConfigError("--engine oracle has no closed form for --input data")
        signal = _read_signal_csv(config.input_path)
        curves = []
        for a in config.alphas:
            d = fractional_derivative(signal, a)
            if d.warning:
                print(f"warning: {d.warning}", file=sys.stderr)
            curves.append((a, signal.grid.x, d.values))
    else:
        if config.function not in _BUILTINS:
            raise CLIConfigError(f"--function: unknown function {config.function!r}")
        builtin, oracle = _BUILTINS[config.function]
        grid = config.grid()
        engine = config.engine or "oracle"
        curves = []
        if engine == "oracle":
            try:
                for a in config.alphas:
                    vals = np.array([oracle(a, float(xj)) for xj in grid.x])
                    curves.append((a, grid.x, vals))
            except ArgumentOutOfRange as exc:
                raise CLIConfigError(
                    f"--domain: closed-form route limited to |x| <= 20 ({exc}); "
                    f"use --engine spectral or a narrower domain") from exc
        else:
            signal = sample(builtin, grid)
            for a in config.alphas:
                d = fractional_derivative(signal, a)
                if d.warning:
                    print(f"warning: {d.warning}", file=sys.stderr)
                curves.append((a, grid.x, d.values))

    if config.fmt == "json":
        _emit(config.output_path, _curves_json(curves))
        return EXIT_OK
    if len(curves) == 1:
        _emit(config.output_path, _signal_csv(curves[0][1], curves[0][2]))
        return EXIT_OK
    if config.output_path is None:
        raise CLIConfigError("--output is required for multiple orders in csv format "
                             "(one file per order)")
    for a, x, vals in curves:
        _emit(_per_alpha_path(config.output_path, a), _signal_csv(x, vals))
    return EXIT_OK


def _figure_curves(fig_id, config):
    grid = config.grid()        # validates --points/--domain on every route
    if fig_id == 4:
        scan = np.arange(601) / 100.0
        vals = np.array([uncertainty_bound(a, allow_below_one=True) for a in scan],
                        dtype=complex)
        return [(None, scan, vals)], "alpha"
    oracle = gaussian_deriv if fig_id in (1, 2) else x2gaussian_deriv
    builtin = _BUILTINS["gaussian" if fig_id in (1, 2) else "x2gaussian"][0]
    alphas = _FIGURE_ALPHAS[fig_id]
    if (config.engine or "oracle") == "oracle":
        xs = np.arange(-400, 401) / 100.0
        return [(a, xs, np.array([oracle(a, float(x)) for x in xs])) for a in alphas], "x"
    signal = sample(builtin, grid)
    mask = np.abs(grid.x) <= 4.0
    curves = []
    for a in alphas:
        d = fractional_derivative(signal, a)
        curves.append((a, grid.x[mask], d.values[mask]))
    return curves, "x"


def cmd_figure(fig_id, config):
    curves, abscissa = _figure_curves(fig_id, config)
    if config.fmt == "json":
        _emit(config.output_path, _curves_json(curves))
        return EXIT_OK
    buf = io.StringIO()
    if fig_id == 4:
        buf.write("alpha,bound\n")
        _, scan, vals = curves[0]
        for a, v in zip(scan, vals):
            buf.write(f"{fmt9(a)},{fmt9(v.real)}\n")
    else:
        labels = ",".join(f"alpha={fmt9(a)}" for a, _, _ in curves)
        buf.write(f"{abscissa},{labels}\n")
        xs = curves[0][1]
        cols = [vals for _, _, vals in curves]
        for j, xj in enumerate(xs):
            row = ",".join(fmt9(col[j].real) for col in cols)
            buf.write(f"{fmt9(xj)},{row}\n")
    _emit(config.output_path, buf.getvalue())
    return EXIT_OK


def cmd_uncertainty(config):
    alphas = config.alphas or [1.0, 1.5, 2.0, 3.0]
    for a in alphas:
        if a < 1:
            raise CLIConfigError(
                f"--alpha: the uncertainty report needs order >= 1, got {a:g} "
                f"(orders below 1 carry no operator meaning)")
    state = gaussian_state(high_res_grid())
    reports = [uncertainty_check(a, state) for a in alphas]
    if config.fmt == "json":
        payload = [{
            "alpha": _round9(r.alpha),
            "delta_x": _round9(r.delta_x),
            "delta_p_alpha": _round9(r.delta_p_alpha),
            "product": _round9(r.product),
            "rhs_bound": _round9(r.rhs_bound),
            "satisfied": r.satisfied,
        } for r in reports]
        _emit(config.output_path, json.dumps(payload, indent=2) + "\n")
        return EXIT_OK
    buf = io.StringIO()
    buf.write("alpha,delta_x,delta_p_alpha,product,rhs_bound,satisfied\n")
    for r in reports:
        buf.write(f"{fmt9(r.alpha)},{fmt9(r.delta_x)},{fmt9(r.delta_p_alpha)},"
                  f"{fmt9(r.product)},{fmt9(r.rhs_bound)},"
                  f"{'true' if r.satisfied else 'false'}\n")
    _emit(config.output_path, buf.getvalue())
    return EXIT_OK


def cmd_check(suite):
    results = checks.run_suite(suite)
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
                       help="grid interval (default -16 16)")
        p.add_argument("--points", type=int, metavar="N",
                       help="grid size, power of two (default 4096)")
        p.add_argument("--engine", choices=("oracle", "spectral"),
                       help="closed-form oracle (default for built-ins) or FFT engine")
    if alpha:
        p.add_argument("--alpha", metavar="A[,A...]",
                       help="comma-separated derivative orders, each >= 0")
    p.add_argument("--output", metavar="FILE", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fracspectral",
        description="Fractional derivatives via Fourier multipliers, with "
                    "closed-form oracles and operator checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="compute fractional derivatives")
    _add_shared(p)
    p.add_argument("--function", choices=sorted(_BUILTINS),
                   help="built-in function (default gaussian)")
    p.add_argument("--input", metavar="FILE",
                   help="CSV signal (x,re,im) to differentiate instead of a built-in")

    p = sub.add_parser("figure", help="emit the data behind the standard figures")
    p.add_argument("id", type=int, choices=(1, 2, 3, 4), help="figure number")
    _add_shared(p, alpha=False)

    p = sub.add_parser("uncertainty", help="spread report on the Gaussian state")
    _add_shared(p, grid=False)

    p = sub.add_parser("check", help="run an invariant suite")
    p.add_argument("suite", choices=checks.SUITE_NAMES + ("all",))
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        if args.command == "check":
            return cmd_check(args.suite)
        config = _config_from_args(args)
        if args.command == "derive":
            return cmd_derive(config)
        if args.command == "figure":
            return cmd_figure(args.id, config)
        return cmd_uncertainty(config)
    except (CLIConfigError, OrderTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
