import argparse
import csv
import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fracspectral.cli import _csv, _curves_json, fmt9, fmt9_all, main


def run_cli(capsys, *args):
    """main(args) in process; returns (exit code, stdout, stderr)."""
    rc = main(list(args))
    out, err = capsys.readouterr()
    return rc, out, err


# --- number formatting -----------------------------------------------------

def test_fmt9_basics():
    assert fmt9(1.0) == "1"
    assert fmt9(-0.0) == "0"
    assert fmt9(0.5) == "0.5"
    assert fmt9(math.pi) == "3.14159265"
    assert fmt9(1.25e-17) == "1.25e-17"
    assert fmt9(-1234567890.0) == "-1.23456789e+09"


def test_fmt9_is_idempotent():
    rng = np.random.default_rng(3)
    for v in rng.uniform(-1e6, 1e6, 200):
        once = fmt9(v)
        assert fmt9(float(once)) == once


# --- derive ----------------------------------------------------------------

def test_fmt9_all_is_fmt9_of_each_number():
    values = [0.0, -0.0, 1e-05, -1e-300, 5e-324, 1e16, 1.5e17, -1.7976931348623157e308,
              123456789.0, 1234567890.0, 0.1, 2.0 / 3.0]
    assert fmt9_all(values) == ["%.9g" % (v + 0.0) for v in values]
    assert fmt9_all(np.array(values)) == fmt9_all(values)
    assert fmt9_all([]) == [] and fmt9_all(np.array([])) == []


def test_curves_json_is_json_dumps_of_fmt9_all():
    # one x array shared by the curves, a zero imaginary part, a column of -0.0,
    # and figure 4's single curve: each distinct column is formatted and encoded
    # once, found by its values, so columns equal in value share one text
    x = np.linspace(-4.0, 4.0, 9)
    values = np.exp(-x * x) * np.array([1, -1] * 4 + [1]) + 0j
    cases = [
        [(0.5, x, values), (1.5, x, 2 * values), (2.5, x, 1j * values)],
        [(0.0, x, np.full(9, -0.0) + 1j * values.real), (1e-05, x, np.full(9, -0.0 - 0.0j))],
        [(None, np.arange(601) / 100.0, np.cos(np.arange(601) / 100.0) + 0j)],
        # a real part equal in value to x, in another array
        [(0.5, x, x.copy() + 1j * values.real)],
        # two distinct all-zero arrays, and a -0.0 column beside a 0.0 one
        [(0.5, x, np.zeros(9) + 1j * np.zeros(9)), (1.5, x, np.zeros(9, dtype=complex))],
        [(0.5, x, np.full(9, -0.0) + 0j), (1.5, np.zeros(9), np.full(9, 0.0 - 0.0j))],
        # columns of different lengths that hold the same numbers so far
        [(0.5, x, values), (1.5, x[:4], values[:4])],
    ]
    for curves in cases:
        payload = [{"alpha": None if a is None else float(fmt9(a)),
                    "x": list(map(float, fmt9_all(xs))),
                    "re": list(map(float, fmt9_all(v.real))),
                    "im": list(map(float, fmt9_all(v.imag)))} for a, xs, v in curves]
        assert _curves_json(curves) == json.dumps(payload, indent=2) + "\n"
    # curves from temporaries freed between calls: an array made later may take
    # a freed one's address, yet each call writes its own values
    for k in range(1, 5):
        xs = np.linspace(-k, k, 8)
        assert json.loads(_curves_json([(0.5, xs, np.exp(-xs * xs) * k + 0j)])) == [
            {"alpha": 0.5, "x": list(map(float, fmt9_all(xs))),
             "re": list(map(float, fmt9_all(np.exp(-xs * xs) * k))), "im": [0.0] * 8}]


def test_csv_is_the_nine_digit_table():
    def plain(header, *numbers, text=()):
        rows = zip(*numbers, *text)
        return header + "\n" + "".join(
            ",".join(["%.9g" % (v + 0.0) for v in row[:len(numbers)]]
                     + list(row[len(numbers):])) + "\n" for row in rows)

    x = np.linspace(-2.0, 2.0, 5)
    zero, minus_zero = np.zeros(5), np.full(5, -0.0)
    for columns in ((zero, x, x * x), (x, zero, x * x), (x, x * x, minus_zero),
                    (zero, minus_zero), (zero,), (x,)):
        assert _csv("h", *columns) == plain("h", *columns), columns
    # uncertainty's table: number columns as lists, then a text column
    numbers = ([1.0, 1.5], [0.5, 0.0], [-0.0, 2.0])
    text = [["true", "false"]]
    assert _csv("a,b,c,ok", *numbers, text=text) == plain("a,b,c,ok", *numbers, text=text)


@pytest.mark.parametrize("argv", [
    ("figure", "1"), ("figure", "2"), ("figure", "3"), ("figure", "4"),
    ("derive", "--alpha", "0.5", "--points", "64", "--domain", "-4", "4"),
    ("derive", "--function", "x2gaussian", "--alpha", "0,0.02,1.5,30.7", "--points", "64",
     "--domain", "-20", "20"),
    ("derive", "--engine", "spectral", "--alpha", "0.5,1.3", "--points", "256",
     "--domain", "-8", "8"),
    ("uncertainty",),
    ("uncertainty", "--alpha", "1.5,100.5"),
], ids=["figure1", "figure2", "figure3", "figure4", "derive", "derive-several",
        "derive-spectral", "uncertainty", "uncertainty-two-orders"])
def test_json_output_is_json_dumps_with_indent_2(argv, capsys):
    # every JSON number is the float of its 9-digit text, laid out as
    # json.dumps(payload, indent=2) would write it
    rc, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    numbers = [v for record in payload for key, value in record.items()
               for v in (value if isinstance(value, list) else [value])
               if isinstance(v, float)]
    assert numbers and all(v == float(fmt9(v)) for v in numbers)


def test_derive_csv_to_stdout():
    # the one CLI test that runs `python -m fracspectral` in a subprocess
    proc = subprocess.run([sys.executable, "-m", "fracspectral", "derive",
                           "--function", "gaussian", "--alpha", "0",
                           "--domain", "-8", "8", "--points", "16"],
                          capture_output=True, timeout=120)
    assert proc.returncode == 0
    lines = proc.stdout.decode().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 17
    row = lines[1].split(",")
    assert row[0] == "-8"
    assert float(row[1]) == pytest.approx(math.exp(-64.0), rel=1e-8)
    assert row[2] == "0"


def test_derive_is_deterministic(tmp_path, capsys):
    args = ("derive", "--function", "gaussian", "--alpha", "0.5",
            "--domain", "-8", "8", "--points", "64")
    a = run_cli(capsys, *args, "--output", str(tmp_path / "a.csv"))
    b = run_cli(capsys, *args, "--output", str(tmp_path / "b.csv"))
    assert a[0] == b[0] == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert b"\r" not in (tmp_path / "a.csv").read_bytes()


def test_derive_round_trips_through_file_input(tmp_path, capsys):
    src = tmp_path / "src.csv"
    out = tmp_path / "back.csv"
    assert run_cli(capsys, "derive", "--function", "gaussian", "--alpha", "0.5",
                   "--domain", "-8", "8", "--points", "64",
                   "--output", str(src))[0] == 0
    # order 0 through the file route is the identity on the samples
    assert run_cli(capsys, "derive", "--input", str(src), "--alpha", "0",
                   "--output", str(out))[0] == 0
    assert src.read_bytes() == out.read_bytes()
    assert run_cli(capsys, "derive", "--engine", "spectral", "--alpha", "0", "--domain", "-8",
                   "8", "--points", "64", "--output", str(src))[0] == 0
    assert run_cli(capsys, "derive", "--input", str(src), "--alpha", "0") == (
        0, src.read_text(), "")


def test_file_input_edge_cases_with_warnings_as_errors(tmp_path, capsys):
    src = tmp_path / "src.csv"
    assert run_cli(capsys, "derive", "--engine", "spectral", "--alpha", "0",
                   "--domain", "-8", "8", "--points", "64", "--output", str(src))[0] == 0
    lines = src.read_text().splitlines()
    variants = {
        "quoted": "\n".join([lines[0]] + [",".join(f'"{c}"' for c in row.split(","))
                                          for row in lines[1:]]) + "\n",
        "crlf": "\r\n".join(lines) + "\r\n",
        "blank": "\n".join(lines) + "\n\n",          # a trailing blank line
        # the UTF-8 byte-order mark that spreadsheet exports write
        "bom": "\ufeff" + "\n".join(lines) + "\n",
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = run_cli(capsys, "derive", "--input", str(src), "--alpha", "0.5")
        assert want[0] == 0
        for name, text in variants.items():
            f = tmp_path / f"{name}.csv"
            f.write_bytes(text.encode())
            assert run_cli(capsys, "derive", "--input", str(f), "--alpha", "0.5") == want, name
        # a '#' is not a comment: the row is rejected
        f = tmp_path / "hash.csv"
        f.write_text("\n".join(lines[:5] + [lines[5] + " # note"] + lines[6:]) + "\n")
        assert run_cli(capsys, "derive", "--input", str(f), "--alpha", "0.5")[0] == 2
        for text in ("", "x,re,im\n"):
            f = tmp_path / "short.csv"
            f.write_text(text)
            rc, out, err = run_cli(capsys, "derive", "--input", str(f), "--alpha", "0.5")
            assert (rc, out) == (2, ""), text
            assert err.startswith("error: ") and err.count("\n") == 1, text


def test_file_input_names_the_file_line_of_a_non_finite_row(tmp_path, capsys):
    rows = [f"{fmt9(x)},{fmt9(math.exp(-x * x))},0" for x in -8.0 + 0.25 * np.arange(64)]
    # file lines: 1 header, 2-4 rows, 5 blank, 6-7 rows, 8 nan; the data row
    # count put it on line 7
    rows[5] = "-6.75,nan,0"
    f = tmp_path / "nan.csv"
    f.write_text("\n".join(["x,re,im", *rows[:3], "", *rows[3:]]) + "\n")
    rc, out, err = run_cli(capsys, "derive", "--input", str(f), "--alpha", "0.5")
    assert (rc, out) == (2, "")
    assert err == f"error: --input {f}: non-finite value on line 8\n"


def test_derive_file_input_uses_the_engine(tmp_path, capsys):
    src = tmp_path / "sig.csv"
    rows = ["x,re,im"]
    x = -8.0 + 0.25 * np.arange(64)
    for xj in x:
        rows.append(f"{fmt9(xj)},{fmt9(math.exp(-xj * xj))},0")
    src.write_text("\n".join(rows) + "\n")
    rc, out, _ = run_cli(capsys, "derive", "--input", str(src), "--alpha", "1",
                         "--format", "json")
    assert rc == 0
    curve = json.loads(out)[0]
    j = curve["x"].index(1.0)
    assert curve["re"][j] == pytest.approx(-2 * math.exp(-1.0), abs=1e-6)


def test_a_small_periodic_file_warns_and_stays_periodic(tmp_path, capsys):
    # 1e-12 cos(pi x/4) does not decay at the box edge at any scale: the
    # engine warns and gives the periodic derivative
    x = -16.0 + (32.0 / 1024) * np.arange(1024)
    src = tmp_path / "cos.csv"
    src.write_text("x,re,im\n" + "".join(f"{xj!r},{1e-12 * math.cos(math.pi * xj / 4)!r},0\n"
                                           for xj in x.tolist()))
    rc, out, err = run_cli(capsys, "derive", "--input", str(src), "--alpha", "0.5",
                           "--format", "json")
    assert rc == 0
    assert err.startswith("warning: boundary decay ") and err.count("\n") == 1
    curve = json.loads(out)[0]
    want = 1e-12 * math.sqrt(math.pi / 4) * np.cos(math.pi * x / 4 + math.pi / 4)
    np.testing.assert_allclose(curve["x"], x, rtol=1e-8)
    np.testing.assert_allclose(curve["re"], want, rtol=0, atol=1e-8 * np.max(np.abs(want)))


def test_derive_multiple_orders_one_file_each(tmp_path, capsys):
    out = tmp_path / "d.csv"
    rc, _, _ = run_cli(capsys, "derive", "--function", "gaussian", "--alpha", "0.5,1",
                       "--domain", "-8", "8", "--points", "32",
                       "--output", str(out))
    assert rc == 0
    assert (tmp_path / "d_alpha0.5.csv").exists()
    assert (tmp_path / "d_alpha1.csv").exists()
    assert not out.exists()


def test_derive_multiple_orders_to_an_output_without_extension(tmp_path, capsys):
    out = tmp_path / "out"
    rc, _, _ = run_cli(capsys, "derive", "--alpha", "0.5,1.5", "--domain", "-8", "8",
                       "--points", "32", "--output", str(out))
    assert rc == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out_alpha0.5", "out_alpha1.5"]


def test_derive_multiple_orders_splits_only_the_file_name_extension(tmp_path, capsys, monkeypatch):
    # a dot in a directory name, a leading ./ and a dot file have no extension
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.v2").mkdir()
    for output, stem in (("run.v2/out", "run.v2/out"), ("./out", "out"), (".hidden", ".hidden"),
                         ("d.csv", "d")):
        rc, _, err = run_cli(capsys, "derive", "--alpha", "0.5,1.5", "--domain", "-8", "8",
                             "--points", "32", "--output", output)
        assert (rc, err) == (0, ""), output
        ext = ".csv" if output.endswith(".csv") else ""
        for a in ("0.5", "1.5"):
            assert (tmp_path / f"{stem}_alpha{a}{ext}").is_file(), (output, a)
    assert sorted(p.name for p in (tmp_path / "run.v2").iterdir()) == ["out_alpha0.5",
                                                                       "out_alpha1.5"]


def test_derive_multiple_orders_csv_needs_output_file(capsys):
    # refused before any order is computed: the periodic x2-Gaussian on (-2, 2)
    # prints no wrap-around warning first.  One test, one argv per route
    for argv in (("--function", "gaussian", "--alpha", "0.5,1",
                  "--domain", "-8", "8", "--points", "32"),
                 ("--function", "x2gaussian", "--engine", "spectral", "--points", "64",
                  "--domain", "-2", "2", "--alpha", "0.3,1.5")):
        rc, out, err = run_cli(capsys, "derive", *argv)
        assert rc == 2 and out == ""
        assert err == ("error: --output is required for multiple orders in csv format "
                       "(one file per order)\n"), argv


def test_derive_refuses_orders_that_write_one_file(tmp_path, capsys):
    # file names carry 9 significant digits: 0.5 and 0.5000000001 both write
    # out_alpha0.5.csv, and the second would overwrite the first
    for alphas, orders in (("0.5,0.5000000001", "0.5 and 0.5000000001"),
                           ("0.5,0.5", "0.5 and 0.5"),
                           ("1.5,0.5,0.50000000001", "0.5 and 0.50000000001")):
        rc, out, err = run_cli(capsys, "derive", "--alpha", alphas, "--points", "8",
                               "--domain", "-2", "2", "--output", str(tmp_path / "out.csv"))
        assert (rc, out) == (2, ""), alphas
        assert err == (f"error: --alpha: orders {orders} both write "
                       f"{tmp_path / 'out_alpha0.5.csv'}\n"), alphas
        assert list(tmp_path.iterdir()) == [], alphas
    # one JSON document holds every order
    rc, out, _ = run_cli(capsys, "derive", "--alpha", "0.5,0.5000000001", "--points", "8",
                         "--domain", "-2", "2", "--format", "json")
    assert rc == 0 and [c["alpha"] for c in json.loads(out)] == [0.5, 0.5]


def test_derive_json_schema(capsys):
    rc, out, _ = run_cli(capsys, "derive", "--function", "gaussian", "--alpha", "0.5,1",
                         "--domain", "-8", "8", "--points", "32", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert [c["alpha"] for c in payload] == [0.5, 1.0]
    for curve in payload:
        assert len(curve["x"]) == len(curve["re"]) == len(curve["im"]) == 32
        for key in ("x", "re", "im"):
            for v in curve[key]:
                assert v == float(f"{v:.9g}")     # stored at 9 digits


def test_derive_spectral_engine_close_to_oracle(capsys):
    # wide domain so both the wrap-around and the zero-bin deficit stay
    # below the comparison tolerance
    from fracspectral import gaussian_deriv
    rc, out, _ = run_cli(capsys, "derive", "--function", "gaussian", "--alpha", "0.5",
                         "--domain", "-128", "128", "--points", "8192",
                         "--format", "json", "--engine", "spectral")
    assert rc == 0
    curve = json.loads(out)[0]
    x = np.array(curve["x"])
    re = np.array(curve["re"])
    mask = np.abs(x) <= 2.0
    oracle = np.array([gaussian_deriv(0.5, float(v)).real for v in x[mask]])
    assert np.max(np.abs(re[mask] - oracle)) < 1e-3


# --- figures ---------------------------------------------------------------

def test_figure1_csv_layout(capsys):
    rc, out, _ = run_cli(capsys, "figure", "1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "x,alpha=0,alpha=0.02,alpha=0.1,alpha=0.5"
    assert len(lines) == 802                # 801 sample points
    mid = lines[1 + 400].split(",")
    assert mid[0] == "0"
    assert float(mid[1]) == 1.0             # order 0 at the origin
    assert float(mid[4]) == pytest.approx(0.6913673390362934, rel=1e-8)


def test_figure2_alpha_set(capsys):
    _, out, _ = run_cli(capsys, "figure", "2")
    header = out.splitlines()[0]
    assert header == "x,alpha=4.5,alpha=4.8,alpha=5,alpha=5.2,alpha=5.5"


def test_figure3_uses_the_x2_gaussian(capsys):
    _, out, _ = run_cli(capsys, "figure", "3")
    lines = out.splitlines()
    mid = lines[1 + 400].split(",")
    assert mid[0] == "0"
    assert float(mid[1]) == 0.0             # x^2 e^{-x^2} vanishes at 0


def test_figure4_bound_scan(capsys):
    _, out, _ = run_cli(capsys, "figure", "4")
    lines = out.splitlines()
    assert lines[0] == "alpha,bound"
    assert len(lines) == 602
    table = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
    assert table["0"] == 0.0
    # even orders vanish up to the roundoff of cos(k*pi/2)
    assert abs(table["2"]) < 1e-12 and abs(table["4"]) < 1e-12
    assert abs(table["6"]) < 1e-12
    assert table["1"] == pytest.approx(0.5, abs=1e-9)
    assert table["3"] == pytest.approx(1.5, abs=1e-9)


def test_figure4_json_has_null_alpha(capsys):
    _, out, _ = run_cli(capsys, "figure", "4", "--format", "json")
    payload = json.loads(out)
    assert len(payload) == 1
    assert payload[0]["alpha"] is None
    assert len(payload[0]["x"]) == 601      # the order scan
    assert payload[0]["x"][0] == 0.0 and payload[0]["x"][-1] == 6.0


def test_figure_is_deterministic(tmp_path, capsys):
    a = run_cli(capsys, "figure", "2", "--output", str(tmp_path / "a.csv"))
    b = run_cli(capsys, "figure", "2", "--output", str(tmp_path / "b.csv"))
    assert a[0] == b[0] == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_no_command_takes_a_flag_it_ignores(tmp_path, capsys):
    # figures draw the closed form on their own points: engine and grid flags
    # are usage errors
    for figure in "1234":
        for flags in (["--engine", "spectral"], ["--domain", "-2", "2"], ["--points", "64"]):
            rc, out, err = run_cli(capsys, "figure", figure, *flags)
            assert (rc, out) == (2, ""), (figure, flags)
            assert flags[0] in err
    # the --input file sets the grid
    data = str(tmp_path / "in.csv")
    assert main(["derive", "--engine", "spectral", "--alpha", "0", "--points", "64",
                 "--domain", "-8", "8", "--output", data]) == 0
    for flags in (["--domain", "-1", "1"], ["--points", "8"]):
        rc, out, err = run_cli(capsys, "derive", "--input", data, "--alpha", "0.5", *flags)
        assert (rc, out, err) == (2, "", f"error: {flags[0]}: the --input file sets the grid\n")
    # derive --engine spectral draws the engine's figure curves: where the
    # Gaussian does not decay at the box edge, one warning per non-integer
    # order, each naming its order
    rc, out, err = run_cli(capsys, "derive", "--engine", "spectral", "--alpha", "0,0.02,0.1,0.5",
                           "--domain", "-2", "2", "--points", "64", "--format", "json")
    assert rc == 0 and [c["alpha"] for c in json.loads(out)] == [0.0, 0.02, 0.1, 0.5]
    lines = err.splitlines()
    assert all(line.startswith("warning: ") for line in lines)
    assert [line.rpartition(" ")[2] for line in lines] == ["0.02", "0.1", "0.5"]


def test_main_builds_its_parser_once(monkeypatch, capsys):
    main(["check", "nope"])
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: built.append(init(self, *args, **kwargs)))
    for argv in (["figure", "4"], ["derive", "--alpha", "nan"], ["check", "nope"]):
        main(argv)
    capsys.readouterr()
    assert built == []


# --- uncertainty -----------------------------------------------------------

def test_uncertainty_default_table(capsys):
    rc, out, _ = run_cli(capsys, "uncertainty")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "alpha,delta_x,delta_p_alpha,product,rhs_bound,satisfied"
    assert lines[1] == "1,0.5,1,0.5,0.5,true"
    assert [r.split(",")[0] for r in lines[1:]] == ["1", "1.5", "2", "3"]
    assert all(r.endswith("true") for r in lines[1:])


def test_uncertainty_json(capsys):
    _, out, _ = run_cli(capsys, "uncertainty", "--alpha", "3", "--format", "json")
    payload = json.loads(out)
    assert payload[0]["alpha"] == 3.0
    assert payload[0]["rhs_bound"] == pytest.approx(1.5, abs=1e-9)
    assert payload[0]["satisfied"] is True


def test_uncertainty_rejects_small_orders(capsys):
    rc, _, err = run_cli(capsys, "uncertainty", "--alpha", "0.5")
    assert rc == 2
    assert "--alpha" in err


# --- check -----------------------------------------------------------------

def test_check_suite_reports_and_exits_zero(capsys):
    rc, out, _ = run_cli(capsys, "check", "integer")
    assert rc == 0
    assert "PASS " in out
    assert "FAIL " not in out
    assert re.search(r"^\d+/\d+ assertions passed$", out.splitlines()[-1])


def test_check_prints_info_rows_and_counts_only_assertions(capsys):
    # the duality suite's half-order rows are reported, not asserted
    rc, out, _ = run_cli(capsys, "check", "duality")
    assert rc == 0
    info = [line for line in out.splitlines() if line.startswith("INFO ")]
    assert len(info) == 4
    pairs = {(pairing, branch) for pairing in ("sesquilinear", "bilinear")
             for branch in ("e_plus_i_pi", "e_minus_i_pi")}
    for line in info:
        match = re.fullmatch(r"INFO half order diagnostic, (\w+), (\w+): "
                             r"value=0\.128806064  \[reported, not asserted: .+\]", line)
        assert match, line
        pairs.remove(match.groups())
    assert out.splitlines()[-1] == "4/4 assertions passed"


def test_check_unknown_suite_is_a_usage_error(capsys):
    rc, _, _ = run_cli(capsys, "check", "nope")
    assert rc == 2


# --- config and I/O errors -------------------------------------------------

def test_exit_codes_in_process(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("q,r,s\n1,2,3\n")
    short = tmp_path / "short.csv"
    short.write_text("x,re,im\n" + "\n".join(
        f"{i * 0.5},1,0" for i in range(12)) + "\n")   # 12 rows: not 2^k
    jagged = tmp_path / "jagged.csv"
    jagged.write_text("x,re,im\n" + "\n".join(
        f"{math.sqrt(i)},1,0" for i in range(16)) + "\n")
    nan = tmp_path / "nan.csv"
    nan.write_text("x,re,im\n" + "\n".join(
        f"{i * 0.5},{'nan' if i == 5 else 1},0" for i in range(16)) + "\n")
    cases = [
        (["derive"], 2),                                     # --alpha missing
        (["derive", "--alpha", "abc"], 2),
        (["derive", "--alpha", ""], 2),
        (["derive", "--alpha", "-0.5"], 2),
        (["derive", "--alpha", "1", "--points", "1000"], 2),
        (["derive", "--alpha", "1", "--domain", "4", "-4"], 2),
        (["derive", "--alpha", "1", "--function", "gaussian",
          "--input", "x.csv"], 2),
        (["derive", "--alpha", "1", "--input", "x.csv",
          "--engine", "oracle"], 2),
        (["derive", "--alpha", "0.5", "--domain", "-30", "30"], 2),
        (["derive", "--alpha", "1", "--input", str(tmp_path / "none.csv")], 3),
        (["derive", "--alpha", "1", "--input", str(bad)], 2),
        (["derive", "--alpha", "1", "--input", str(short)], 2),
        (["derive", "--alpha", "1", "--input", str(jagged)], 2),
        (["derive", "--alpha", "1",
          "--output", str(tmp_path / "no" / "dir.csv")], 3),
        (["uncertainty", "--alpha", "0.9"], 2),
        (["derive", "--alpha", "nan"], 2),
        (["derive", "--alpha", "inf"], 2),
        (["derive", "--alpha", "0.5,-inf"], 2),
        (["uncertainty", "--alpha", "nan"], 2),
        (["derive", "--domain", "0", "inf", "--alpha", "0.5"], 2),
        (["derive", "--alpha", "1", "--input", str(nan)], 2),
        (["figure", "1", "--points", "3"], 2),
        (["figure", "4", "--domain", "1", "1"], 2),
        (["uncertainty", "--points", "3"], 2),
        (["uncertainty", "--domain", "5", "1"], 2),
        (["uncertainty", "--engine", "spectral"], 2),
        (["figure", "1", "--alpha", "0.3"], 2),
        (["uncertainty", "--alpha", "400"], 2),               # order too large
        (["derive", "--alpha", "400"], 2),
        (["derive", "--alpha", "400", "--engine", "spectral", "--points", "8",
          "--domain", "-1", "1"], 2),
        (["derive", "--alpha", "270", "--points", "8", "--domain", "-1", "1"], 2),
        (["derive", "--function", "x2gaussian", "--alpha", "270", "--points", "8",
          "--domain", "-1", "1"], 2),
    ]
    for argv, want in cases:
        assert main(argv) == want, argv
    capsys.readouterr()


def test_order_too_large_prints_one_line(capsys):
    for argv in (["uncertainty", "--alpha", "400"], ["derive", "--alpha", "400"],
                 ["derive", "--alpha", "270", "--points", "8", "--domain", "-1", "1"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_typed_errors_print_one_line_and_exit_2(tmp_path, capsys):
    # a decaying signal in a file, for the orders on the --input route
    data = str(tmp_path / "in.csv")
    assert main(["derive", "--engine", "spectral", "--alpha", "0", "--points", "64",
                 "--domain", "-8", "8", "--output", data]) == 0
    engine = ["derive", "--engine", "spectral", "--points", "64", "--domain", "-8", "8"]
    latin = tmp_path / "latin1.csv"
    latin.write_bytes("x,re,im\n0,\u00e9,0\n".encode("latin-1"))
    huge = tmp_path / "huge.csv"
    huge.write_text("x,re,im\n" + "".join(f"{i},1e308,0\n" for i in range(8)))
    cases = [
        # |p|^400 overflows at the Nyquist bin; the closed form's values overflow
        [*engine, "--alpha", "400"],
        ["derive", "--alpha", "400", "--points", "64", "--domain", "-8", "8"],
        # the uncertainty report's order rule is uncertainty_check's
        ["uncertainty", "--alpha", "0.5"],
        # x^2 overflows inside the closed form: the message names one value
        ["derive", "--alpha", "0.5", "--points", "64", "--domain", "-1e300", "1e300"],
        # P^(-1-a) of the image correction overflows on a box 2e-300 wide
        ["derive", "--engine", "spectral", "--function", "x2gaussian", "--alpha", "0.5",
         "--points", "64", "--domain", "-1e-300", "1e-300"],
        # a file that is not UTF-8, and one whose transform overflows
        ["derive", "--input", str(latin), "--alpha", "0.5"],
        ["derive", "--input", str(huge), "--alpha", "0.5"],
        # 2^50 points: numpy refuses the 8 PiB at once; 2^60 points: the grid
        # refuses n * 8 bytes past sys.maxsize before it allocates
        ["derive", "--alpha", "0.5", "--points", str(2 ** 50)],
        ["derive", "--alpha", "0.5", "--points", str(2 ** 60)],
    ]
    # the smallest orders return, on a sampled signal and on a file: D^a tends
    # to the identity, and the image sum is finite at every order
    tiny = [*([*engine, "--alpha", a] for a in ("1e-20", "1e-300", "5e-324")),
            *(["derive", "--input", data, "--alpha", a] for a in ("1e-20", "1e-300", "5e-324"))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in cases:
            rc, out, err = run_cli(capsys, *argv)
            assert (rc, out) == (2, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        for argv in tiny:
            rc, out, err = run_cli(capsys, *argv)
            assert (rc, err) == (0, ""), (argv, err)
    assert run_cli(capsys, *cases[-4])[2].startswith(f"error: --input {latin}: not a UTF-8 ")
    assert "transform overflows double precision" in run_cli(capsys, *cases[-3])[2]
    assert run_cli(capsys, *cases[-2])[2].startswith("error: --points: ")
    assert run_cli(capsys, *cases[-1])[2].startswith(f"error: --points: n = {2 ** 60} ")
    assert run_cli(capsys, "uncertainty", "--alpha", "0.5")[2] == (
        "error: --alpha: uncertainty_check requires alpha >= 1, got 0.5 "
        "(orders below 1 carry no operator meaning)\n")


@pytest.mark.parametrize("alpha, gaussian, x2gaussian", [
    ("340", "gaussian_deriv at order 340 overflows double precision: the order is too large",
     "x2gaussian_deriv at order 340 overflows double precision: the order is too large"),
    ("343", "gamma(172) overflows double precision: the order or argument is too large",
     "gamma(172) overflows double precision: the order or argument is too large"),
    ("400", "gamma(200.5) overflows double precision: the order or argument is too large",
     "gamma(200.5) overflows double precision: the order or argument is too large"),
    # the Gaussian's Gamma factors come before its 1F1 terms, the x2-Gaussian's after
    ("1e6", "gamma(500000) overflows double precision: the order or argument is too large",
     "1F1(500000; 0.5; -16) overflows double precision"),
    # past DBL_MAX/pi the Gaussian's cos(a pi/2) saw a pi = inf before Gamma: a bare
    # ValueError (math domain error) and a traceback
    ("6e307", "gamma(3e+307) overflows double precision: the order or argument is too large",
     "1F1(3e+307; 0.5; -16) overflows double precision"),
    ("1e308", "gamma(5e+307) overflows double precision: the order or argument is too large",
     "1F1(5e+307; 0.5; -16) overflows double precision"),
])
def test_closed_form_errors_at_high_orders(alpha, gaussian, x2gaussian, capsys):
    for function, message in (("gaussian", gaussian), ("x2gaussian", x2gaussian)):
        rc, out, err = run_cli(capsys, "derive", "--function", function, "--alpha", alpha,
                               "--points", "64", "--domain", "-4", "4")
        assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_derive_at_the_largest_orders_exits_2(capsys):
    assert run_cli(capsys, "derive", "--alpha", "1e308", "--points", "8") == (
        2, "", "error: gamma(5e+307) overflows double precision: the order or argument is "
               "too large\n")


@pytest.mark.parametrize("function, alphas, failing", [
    ("gaussian", "270,1e6", "270"),
    ("gaussian", "1e6,270", "1e6"),
    ("x2gaussian", "270,1e6", "270"),
    ("gaussian", "0.5,1e6", "1e6"),
    ("x2gaussian", "0.5,1e6", "1e6"),
    ("gaussian", "5e-324,1e6", "1e6"),
    ("gaussian", "5e-324,270,0.5", "270"),
])
def test_several_closed_form_orders_raise_the_first_failing_orders_error(function, alphas,
                                                                          failing, capsys):
    # all orders' 1F1 rows run as one series, yet the error is the one the
    # loop over the orders meets first, in that order's words
    argv = ["derive", "--function", function, "--points", "8", "--format", "json", "--alpha"]
    alone = run_cli(capsys, *argv, failing)
    assert alone[:2] == (2, "") and alone[2].startswith("error: ")
    assert run_cli(capsys, *argv, alphas) == alone


def test_built_ins_where_x2_overflows_run_without_warnings(capsys):
    # on +-1e200 every sample but x = 0 has an x^2 past double precision:
    # e^{-x^2} and x^2 e^{-x^2} are 0 there
    wide = ["--engine", "spectral", "--points", "8", "--domain", "-1e200", "1e200"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["derive", "--function", "x2gaussian", "--alpha", "0.5", *wide],
                     ["derive", "--alpha", "0.5", *wide]):
            rc, out, err = run_cli(capsys, *argv)
            assert (rc, err) == (0, ""), argv
    rows = run_cli(capsys, "derive", "--function", "x2gaussian", "--alpha", "0",
                   *wide)[1].splitlines()
    assert [row.split(",")[1:] for row in rows[1:]] == [["0", "0"]] * 8
    rows = run_cli(capsys, "derive", "--alpha", "0", *wide)[1].splitlines()
    assert [row.split(",")[1] for row in rows[1:]] == ["0"] * 4 + ["1"] + ["0"] * 3


def test_closed_form_where_x2_overflows_names_the_1f1_gate(capsys):
    # z = -x^2 is -inf there, and the array gate says what the scalar one says
    assert run_cli(capsys, "derive", "--alpha", "0.5", "--points", "8",
                   "--domain", "-1e200", "1e200") == (
        2, "", "error: --domain: closed-form route limited to |x| <= 20 (1F1 argument z "
               "must be finite, got -inf); use --engine spectral or a narrower domain\n")


def test_closed_form_at_subnormal_orders_prints_the_order_zero_curve(capsys):
    zero = run_cli(capsys, "derive", "--alpha", "0", "--points", "64", "--domain", "-8", "8")
    assert zero[0] == 0
    for a in ("5e-324", "1e-310"):
        assert run_cli(capsys, "derive", "--alpha", a, "--points", "64",
                       "--domain", "-8", "8") == zero, a


def test_config_errors_name_the_flag(capsys):
    assert main(["derive", "--alpha", "1", "--points", "100"]) == 2
    assert "--points" in capsys.readouterr().err
    assert main(["derive", "--alpha", "1", "--domain", "2", "2"]) == 2
    assert "--domain" in capsys.readouterr().err
    assert main(["derive", "--alpha", "oops"]) == 2
    assert "--alpha" in capsys.readouterr().err
    assert main(["derive", "--alpha", "nan"]) == 2
    assert "finite" in capsys.readouterr().err
    assert main(["derive", "--alpha", "0.5", "--domain", "0", "inf"]) == 2
    err = capsys.readouterr().err
    assert "--domain" in err and "finite" in err
    assert main(["figure", "1", "--points", "3"]) == 2
    assert "--points" in capsys.readouterr().err


def test_domain_takes_negative_bounds_written_with_an_exponent(capsys):
    # argparse's own pattern reads "-1e1" as an option flag
    plain = run_cli(capsys, "derive", "--alpha", "0.5", "--points", "64", "--domain", "-10", "10")
    assert plain[0] == 0
    assert run_cli(capsys, "derive", "--alpha", "0.5", "--points", "64",
                   "--domain", "-1e1", "1e1") == plain
    rc, out, err = run_cli(capsys, "derive", "--alpha", "0.5", "--points", "64",
                           "--domain", "-1.7e308", "1.7e308")
    assert (rc, out) == (2, "")
    assert err.startswith("error: --domain: ") and err.count("\n") == 1


def test_oracle_domain_cap_suggests_the_engine(capsys):
    assert main(["derive", "--alpha", "0.5", "--domain", "-30", "30"]) == 2
    err = capsys.readouterr().err
    assert "spectral" in err


def test_input_error_messages_are_specific(tmp_path, capsys):
    f = tmp_path / "h.csv"
    f.write_text("a,b,c\n1,2,3\n")
    assert main(["derive", "--alpha", "1", "--input", str(f)]) == 2
    assert "x,re,im" in capsys.readouterr().err
    f.write_text("x,re,im\n" + "\n".join(f"{i * 0.5},1,0" for i in range(12)) + "\n")
    assert main(["derive", "--alpha", "1", "--input", str(f)]) == 2
    assert "power of two" in capsys.readouterr().err
    f.write_text("x,re,im\n" + "\n".join(
        f"{i * 0.5},{'nan' if i == 5 else 1},0" for i in range(16)) + "\n")
    assert main(["derive", "--alpha", "1", "--input", str(f)]) == 2
    assert "non-finite value on line 7" in capsys.readouterr().err
    f.write_text("x,re,im\n" + "\n".join(f"{-i * 0.5},1,0" for i in range(16)) + "\n")
    assert main(["derive", "--alpha", "1", "--input", str(f)]) == 2
    assert capsys.readouterr().err == f"error: --input {f}: x column must increase\n"
    # one row has no step; it is refused for its count, as 2-7 rows are
    for rows in (1, 2, 7):
        f.write_text("x,re,im\n" + "\n".join(f"{i * 0.5},1,0" for i in range(rows)) + "\n")
        assert main(["derive", "--alpha", "1", "--input", str(f)]) == 2
        assert capsys.readouterr().err == (f"error: --input {f}: sample count: n must be a "
                                           f"power of two >= 8, got {rows}\n")
