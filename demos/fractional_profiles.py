"""Sweep the derivative order of a Gaussian from 0 to 1.

The integer endpoints reproduce the function and its ordinary first
derivative; in between, the profiles interpolate smoothly but lose the
even symmetry of the input -- the clearest signature that a fractional
order is at work.
"""
import numpy as np

from fracspectral import gaussian_deriv

orders = [0.0, 0.02, 0.1, 0.25, 0.5, 0.75, 1.0]
xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
# the closed form takes the whole array of points: one call per order
curves = {a: gaussian_deriv(a, xs) for a in orders}

print("D^a of exp(-x^2), closed form")
print("      " + "".join(f"{x:>12.1f}" for x in xs))
for a in orders:
    print(f"a={a:<4g}" + "".join(f"{v:>12.6f}" for v in curves[a].real))

print()
print("asymmetry |D^a f(1) - D^a f(-1)| by order:")
for a in orders:
    gap = abs(curves[a][3] - curves[a][1])
    bar = "#" * int(round(40 * gap))
    print(f"  a={a:<5g} {gap:10.6f}  {bar}")

print()
print("note the exact zeros of the gap at a=0 and (not shown) a=2:")
print("integer orders keep the parity of the input, fractional orders break it.")
