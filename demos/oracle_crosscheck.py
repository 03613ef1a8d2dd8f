"""Three independent routes to the same fractional derivative.

closed   analytic reduction of the inversion integral (gamma + 1F1)
quad     adaptive Gauss-Kronrod integration of the multiplier integral
engine   FFT on a sampled grid

The first two agree to near machine precision.  On its periodic grid the
FFT route computes the periodisation of the result, whose slowly decaying
x^(-1-a) tail wraps around; for a signal that decays at the box edge the
engine subtracts those images in closed form, so the last column sits at
roundoff as well (amplified by p_max^a at order 5.2).
"""
import math

import numpy as np

from fracspectral import (fractional_derivative, gaussian_deriv, make_grid,
                          quadrature_reference, sample)

f_hat = lambda p: np.exp(-p * p / 4.0) / math.sqrt(2.0)

grid = make_grid(-128.0, 128.0, 8192)
sig = sample(lambda x: np.exp(-x * x), grid)

print(f"{'order':>6} {'x':>5} {'closed':>14} {'|closed-quad|':>14} {'|closed-engine|':>16}")
for a in (0.1, 0.5, 1.5, 2.5, 5.2):
    d = fractional_derivative(sig, a)
    for x in (0.0, 1.0):
        closed = gaussian_deriv(a, x)
        quad = quadrature_reference(f_hat, a, x)
        j = int(np.argmin(np.abs(grid.x - x)))
        eng = d.values[j]
        print(f"{a:>6g} {x:>5g} {closed.real:>14.9f} "
              f"{abs(closed - quad):>14.2e} {abs(closed - eng):>16.2e}")

print()
print("same engine on a short domain (-16,16): images subtracted, and left in")
print("(line.values + line.images.values(short) is the periodic result)")
short = make_grid(-16.0, 16.0, 4096)
sig_s = sample(lambda x: np.exp(-x * x), short)
j = int(np.argmin(np.abs(short.x - 1.0)))
for a in (0.1, 0.5):
    closed = gaussian_deriv(a, 1.0)
    line = fractional_derivative(sig_s, a)
    periodic = line.values[j] + line.images.values(short)[j]
    print(f"  order {a:g}: |closed-engine| at x=1: {abs(closed - line.values[j]):.2e} "
          f"corrected, {abs(closed - periodic):.2e} periodic")
