import math

import numpy as np
import pytest

from fracspectral import grid as gridmod
from fracspectral.grid import (DegenerateInterval, EvaluationFailure, Grid,
                               GridMismatch, NonPowerOfTwo, SampledSignal, Spectrum,
                               central_gap, central_window, make_grid, require_same_grid,
                               sample)
from fracspectral.specfun import ArgumentOutOfRange
from fracspectral.spectral import ImageCorrection


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
    # n * 8 bytes past sys.maxsize: refused before numpy is asked for the array
    for n in (2 ** 60, 2 ** 63, 2 ** 65):
        with pytest.raises(NonPowerOfTwo, match=f"n = {n} "):
            make_grid(-1.0, 1.0, n)
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


def test_reprs_and_equality_with_another_type():
    g = make_grid(-8.0, 8.0, 16)
    assert repr(SampledSignal(g, np.exp(-g.x * g.x))) == \
        "SampledSignal(n=16, boundary_decay=5.243e-22)"
    assert repr(Spectrum(g, np.zeros(16))) == "Spectrum(n=16)"
    # another type is left to its own __eq__, and then compares unequal
    assert Grid.__eq__(g, 3) is NotImplemented
    assert (g == 3) is False


def test_arrays_are_frozen():
    g = make_grid(-4.0, 4.0, 64)
    with pytest.raises(ValueError):
        g.x[0] = 0.0
    s = sample(lambda x: np.exp(-x * x), g)
    with pytest.raises(ValueError):
        s.values[0] = 0.0
    # each object holds its own copy
    values = np.exp(-g.x ** 2)
    s, sp = SampledSignal(g, values), Spectrum(g, values)
    values[0] = 7.0
    assert s.values[0] != 7.0 and sp.coeffs[0] != 7.0
    assert not sp.coeffs.flags.writeable


def test_sample_never_takes_over_the_callables_array():
    # sample adopts the array it allocates, never one that f returns and may keep
    g = make_grid(-4.0, 4.0, 64)
    kept = np.exp(1j * g.x)
    s = sample(lambda x: kept, g)
    assert kept.flags.writeable and not np.shares_memory(kept, s.values)
    kept[0] = 7.0
    assert s.values[0] != 7.0 and not s.values.flags.writeable
    real = sample(lambda x: np.exp(-x * x), g)
    assert not real.values.flags.writeable


def test_central_window():
    w = central_window(4096)
    assert w == slice(1024, 3072)
    x = make_grid(-16.0, 16.0, 4096).x[w]
    assert x[0] == -8.0 and x[-1] < 8.0
    assert central_window(4) == slice(1, 3) and central_window(7) == slice(1, 3)
    # a count with no central half, negative ones too, is refused, and so is a
    # gap of arrays that short
    for n in (-8, -1, 0, 1, 2, 3):
        with pytest.raises(ArgumentOutOfRange, match=f"^n must be >= 4, got {n}$"):
            central_window(n)
    with pytest.raises(ArgumentOutOfRange, match="^n must be >= 4, got 3$"):
        central_gap(np.zeros(3), np.ones(3))


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
    # the point is named as a plain number, not as numpy's np.float64(...)
    assert str(err.value) == f"evaluation failed at x={float(g.x[3])!r}: boom"
    with pytest.raises(EvaluationFailure, match=r"^evaluation failed at x=-8\.0: "):
        sample(lambda x: np.ones(3), make_grid(-8.0, 8.0, 16))


def test_sample_rejects_non_finite():
    g = make_grid(-4.0, 4.0, 64)
    with np.errstate(divide="ignore"), pytest.raises(EvaluationFailure):
        sample(lambda x: 1.0 / (x - g.x[5]), g)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_hand_built_samples_must_be_finite(bad):
    # sample's check is the constructors' own, so hand-built data meets it
    # too: one nan sample used to give a non-finite D^0.5 with no warning
    # the point is named as a plain number, not as numpy's np.float64(...)
    g = make_grid(-8.0, 8.0, 64)
    for k, x, p in ((0, "-8.0", "0.0"), (9, "-5.75", "3.5342917352885173")):
        values = np.exp(-g.x ** 2).astype(complex)
        values[k] = bad
        with pytest.raises(EvaluationFailure) as err:
            SampledSignal(g, values)
        assert str(err.value) == f"non-finite value at x={x}"
        with pytest.raises(EvaluationFailure) as err:
            Spectrum(g, values)
        assert str(err.value) == f"non-finite value at p={p}"


def test_require_same_grid_names_both_grids():
    a = make_grid(-4.0, 4.0, 64)
    f = sample(lambda x: np.exp(-x * x), a)
    h = sample(lambda x: np.exp(-x * x), make_grid(-4.0, 4.0, 128))
    assert require_same_grid(f, f, Spectrum(a, f.values)) is a
    with pytest.raises(GridMismatch, match=r"Grid\(-4.0, 4.0, n=64\) vs Grid\(-4.0, 4.0, n=128\)"):
        require_same_grid(f, f, h)


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


def test_wrong_shapes_are_a_typed_error_naming_both_shapes():
    # GridMismatch is a ValueError, so the tests above hold as they are
    g = make_grid(-4.0, 4.0, 16)
    for make, message in ((lambda: SampledSignal(g, [1.0, 2.0]), "values shape (2,) != (16,)"),
                          (lambda: SampledSignal(g, 1.0), "values shape () != (16,)"),
                          (lambda: Spectrum(g, np.ones((4, 4))), "coeffs shape (4, 4) != (16,)"),
                          (lambda: ImageCorrection(g, 0.5, [[1.0, 0.5]]),
                           "moments shape (1, 2) != (2,)")):
        with pytest.raises(GridMismatch) as err:
            make()
        assert str(err.value) == message


def test_spectrum_holds_coefficients():
    g = make_grid(-4.0, 4.0, 64)
    sp = Spectrum(g, np.ones(64, dtype=complex))
    assert sp.grid is g
    assert sp.coeffs.dtype == np.complex128
    with pytest.raises(ValueError):
        Spectrum(g, np.ones(16))


def test_csv_header_constant():
    assert gridmod.CSV_HEADER == "x,re,im"
