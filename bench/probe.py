"""Calibration probe: a fixed piece of numpy and pure-Python work timed
between requests, so each run can be scaled to a reference machine speed.

The probe never calls fracspectral, and it holds its own references to the
numpy FFT so the traced run's FFT counters never see it.
"""
import time

import numpy as np

_fft = np.fft.fft
_ifft = np.fft.ifft


def _python_work(iters):
    total = 0.0
    for j in range(iters):
        total += (j * 0.5 + 1.0) / (j + 1.5)
    return total


_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)


def _small_array_work(iters):
    """Quadrature-panel-sized numpy work: many calls on 15-element arrays."""
    total = 0j
    for k in range(iters):
        p = 0.5 + 0.25 * _NODES + k * 0.01
        f = np.exp(1j * p * 1.3) * np.abs(p) ** 0.7 * np.exp(-p * p / 4)
        total += 0.25 * np.sum(_WEIGHTS * f)
    return total


class Probe:
    """Times one fixed unit of work per call and keeps every time in ms.

    config holds any of `fft_n` (one FFT round trip on a fixed complex
    array of that length), `python_iters` (a fixed scalar loop) and
    `small_array_iters` (a fixed run of numpy calls on 15-element arrays);
    one probe is the sum of the parts configured.
    """

    def __init__(self, config):
        self.fft_n = config.get("fft_n")
        self.python_iters = config.get("python_iters")
        self.small_array_iters = config.get("small_array_iters")
        if self.fft_n:
            rng = np.random.default_rng(12345)
            self._vec = rng.standard_normal(self.fft_n) + 1j * rng.standard_normal(self.fft_n)
            # Preallocated outputs: a fresh allocation would time the allocator,
            # whose state depends on what the process freed last.
            self._mid = np.empty_like(self._vec)
            self._back = np.empty_like(self._vec)
            self._round_trip()      # the first call plans the transform; not a sample
        self.times_ms = []

    def _round_trip(self):
        _ifft(_fft(self._vec, out=self._mid), out=self._back)

    def __call__(self):
        t0 = time.perf_counter()
        if self.fft_n:
            self._round_trip()
        if self.python_iters:
            _python_work(self.python_iters)
        if self.small_array_iters:
            _small_array_work(self.small_array_iters)
        self.times_ms.append((time.perf_counter() - t0) * 1e3)
