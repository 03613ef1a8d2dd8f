import math

import numpy as np
import pytest

from fracspectral import grid as gridmod
from fracspectral.grid import (DegenerateInterval, EvaluationFailure, Grid,
                               NonPowerOfTwo, SampledSignal, Spectrum,
                               central_window, make_grid, sample)


def test_grid_arrays():
    g = make_grid(-16.0, 16.0, 4096)
    assert g.dx == 32.0 / 4096
    assert g.dp == 2 * math.pi / 32.0
    assert g.x[0] == -16.0
    assert g.x[-1] == 16.0 - g.dx          # right endpoint excluded
    assert len(g.x) == len(g.p) == 4096
    np.testing.assert_allclose(g.p, 2 * math.pi * np.fft.fftfreq(4096, g.dx))


def test_grid_frequency_layout():
    g = make_grid(-8.0, 8.0, 16)
    assert g.p[0] == 0.0
    assert g.p[1] == g.dp
    assert g.p[-1] == -g.dp
    assert g.p[8] == -8 * g.dp             # Nyquist bin is negative


def test_grid_validation():
    with pytest.raises(NonPowerOfTwo):
        make_grid(-1.0, 1.0, 1000)
    with pytest.raises(NonPowerOfTwo):
        make_grid(-1.0, 1.0, 4)            # below the minimum size
    with pytest.raises(NonPowerOfTwo):
        make_grid(-1.0, 1.0, 0)
    with pytest.raises(DegenerateInterval):
        make_grid(1.0, 1.0, 64)
    with pytest.raises(DegenerateInterval):
        make_grid(2.0, -2.0, 64)
    for lo, hi in ((0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf), (0.0, np.nan)):
        with pytest.raises(DegenerateInterval):
            make_grid(lo, hi, 64)


def test_grid_equality_and_hash():
    a = make_grid(-4.0, 4.0, 64)
    b = make_grid(-4.0, 4.0, 64)
    c = make_grid(-4.0, 4.0, 128)
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_arrays_are_frozen():
    g = make_grid(-4.0, 4.0, 64)
    with pytest.raises(ValueError):
        g.x[0] = 0.0
    s = sample(lambda x: np.exp(-x * x), g)
    with pytest.raises(ValueError):
        s.values[0] = 0.0


def test_central_window():
    w = central_window(4096)
    assert w == slice(1024, 3072)
    x = make_grid(-16.0, 16.0, 4096).x[w]
    assert x[0] == -8.0 and x[-1] < 8.0


def test_sample_values_and_dtype():
    g = make_grid(-4.0, 4.0, 64)
    s = sample(lambda x: np.exp(-x * x), g)
    assert s.values.dtype == np.complex128
    np.testing.assert_allclose(s.values, np.exp(-g.x ** 2))
    assert s.grid is g


def test_sample_scalar_only_callable():
    g = make_grid(-4.0, 4.0, 64)
    f = lambda x: math.exp(-float(x) ** 2)   # rejects array input
    s = sample(f, g)
    np.testing.assert_allclose(s.values.real, np.exp(-g.x ** 2))


def test_sample_failure_names_the_point():
    g = make_grid(-4.0, 4.0, 64)

    def bad(x):
        if np.isscalar(x) or getattr(x, "ndim", 0) == 0:
            if float(x) == g.x[3]:
                raise ZeroDivisionError("boom")
            return 1.0
        raise TypeError("no arrays")

    with pytest.raises(EvaluationFailure) as err:
        sample(bad, g)
    assert str(g.x[3]) in str(err.value)


def test_sample_rejects_non_finite():
    g = make_grid(-4.0, 4.0, 64)
    with np.errstate(divide="ignore"), pytest.raises(EvaluationFailure):
        sample(lambda x: 1.0 / (x - g.x[5]), g)


def test_boundary_decay_frozen_value():
    # largest |f| over the outer 5% of samples: 26 points per end here,
    # innermost of them at x = 8 - 26/64
    g = make_grid(-8.0, 8.0, 1024)
    s = sample(lambda x: np.exp(-x * x), g)
    anchor = math.exp(-(8.0 - 26.0 / 64.0) ** 2)
    assert s.boundary_decay == pytest.approx(anchor, rel=1e-12)
    assert s.boundary_decay < 1e-25


def test_boundary_decay_flags_wide_function():
    g = make_grid(-8.0, 8.0, 1024)
    s = sample(lambda x: 1.0 / (1.0 + x * x), g)
    assert s.boundary_decay > 1e-3


def test_signal_length_must_match_grid():
    g = make_grid(-4.0, 4.0, 64)
    with pytest.raises(ValueError):
        SampledSignal(g, np.zeros(32))


def test_spectrum_holds_coefficients():
    g = make_grid(-4.0, 4.0, 64)
    sp = Spectrum(g, np.ones(64, dtype=complex))
    assert sp.grid is g
    assert sp.coeffs.dtype == np.complex128
    with pytest.raises(ValueError):
        Spectrum(g, np.ones(16))


def test_csv_header_constant():
    assert gridmod.CSV_HEADER == "x,re,im"
