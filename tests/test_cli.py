import csv
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from fracspectral.cli import fmt9, main


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


def test_derive_multiple_orders_one_file_each(tmp_path, capsys):
    out = tmp_path / "d.csv"
    rc, _, _ = run_cli(capsys, "derive", "--function", "gaussian", "--alpha", "0.5,1",
                       "--domain", "-8", "8", "--points", "32",
                       "--output", str(out))
    assert rc == 0
    assert (tmp_path / "d_alpha0.5.csv").exists()
    assert (tmp_path / "d_alpha1.csv").exists()
    assert not out.exists()


def test_derive_multiple_orders_csv_needs_output_file(capsys):
    rc, _, err = run_cli(capsys, "derive", "--function", "gaussian", "--alpha", "0.5,1",
                         "--domain", "-8", "8", "--points", "32")
    assert rc == 2
    assert "--output" in err


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


def test_figure_spectral_engine_restricted_to_window(capsys):
    rc, out, _ = run_cli(capsys, "figure", "1", "--engine", "spectral",
                         "--domain", "-32", "32", "--points", "2048")
    assert rc == 0
    lines = out.splitlines()
    xs = [float(r.split(",")[0]) for r in lines[1:]]
    assert min(xs) >= -4.0 and max(xs) <= 4.0


def test_figure_spectral_engine_warns_like_derive(capsys):
    grid = ("--engine", "spectral", "--domain", "-2", "2", "--points", "64")
    rc, _, derive_err = run_cli(capsys, "derive", "--alpha", "0.5", *grid)
    assert rc == 0
    assert derive_err.startswith("warning: ") and derive_err.count("\n") == 1
    rc, _, figure_err = run_cli(capsys, "figure", "1", *grid)
    assert rc == 0
    # one line per non-integer order (0.02, 0.1, 0.5), each naming its order;
    # order 0 does not warn
    lines = figure_err.splitlines()
    assert len(lines) == len(set(lines)) == 3
    assert [line.rpartition(" ")[2] for line in lines] == ["0.02", "0.1", "0.5"]
    assert lines[2] == derive_err.rstrip("\n")


def test_figure_is_deterministic(tmp_path, capsys):
    a = run_cli(capsys, "figure", "2", "--output", str(tmp_path / "a.csv"))
    b = run_cli(capsys, "figure", "2", "--output", str(tmp_path / "b.csv"))
    assert a[0] == b[0] == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


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
