"""Position/momentum uncertainty with a fractional momentum operator.

For the normalized Gaussian state the product dx * dP_a is compared
with the analytic lower bound a |<P_(a-1)>|/2.  At order 1 this is the
textbook dx dP >= 1/2 and the Gaussian saturates it.  At even orders
the bound degenerates to zero -- the mean of P_(a-1) vanishes there --
which the order scan at the bottom makes visible.
"""
import numpy as np

from fracspectral import (gaussian_state, high_res_grid, uncertainty_bound,
                          uncertainty_check)

state = gaussian_state(high_res_grid())

print(f"{'order':>6} {'dx':>10} {'dP_a':>10} {'product':>10} {'bound':>10}  ok")
for a in (1.0, 1.5, 2.0, 2.5, 3.0):
    r = uncertainty_check(a, state)
    print(f"{a:>6g} {r.delta_x:>10.6f} {r.delta_p_alpha:>10.6f} "
          f"{r.product:>10.6f} {r.rhs_bound:>10.6f}  {r.satisfied}")

print()
print("analytic bound vs numeric bound (relative):")
for a in (1.0, 1.5, 3.0):
    r = uncertainty_check(a, state)
    ref = uncertainty_bound(a)
    print(f"  order {a:g}: {abs(r.rhs_bound - ref) / ref:.2e}")

print()
print("bound as a function of the order (zeros at the even integers):")
scan = np.arange(0, 61) / 10.0
for a in scan:
    b = uncertainty_bound(float(a))
    bar = "#" * int(round(8 * b))
    print(f"  a={a:3.1f} {b:8.4f}  {bar}")
