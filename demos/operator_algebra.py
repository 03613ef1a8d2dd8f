"""The fractional momentum operator as an operator algebra.

Three identities, each checked numerically on sampled signals:

  eigenstates    P_a e^{iqx} = q^a e^{iqx} for on-grid frequencies
  x-commutator   [D^a, x] = a D^{a-1}
  ladder pair    [A_a, B_a] = a P_{a-1},  A/B = (x +- iP_a)/sqrt(2)

At order 1 the ladder identity collapses to the bosonic commutation
relation [A, A+] = 1.  Orders strictly between 0 and 1 are rejected:
the right-hand side would need an operator of negative order.
"""
import math

import numpy as np

from fracspectral import (AlphaInForbiddenRange, EigenstateSpec, SampledSignal,
                          commutator_dx, commutator_ladder, eigenstate_signal,
                          fractional_momentum, high_res_grid, make_grid, sample)

# --- eigenstates
grid = make_grid(-4 * math.pi, 4 * math.pi, 1024)
print("plane-wave eigenstates, sup |P_a f - q^a f|:")
for a, q in ((1.0, 2.0), (0.5, 3.0), (1.0 / 3.0, 1.0)):
    sig = SampledSignal(grid, np.exp(1j * q * grid.x))
    d = fractional_momentum(sig, a)
    err = np.max(np.abs(d.values - q ** a * sig.values))
    print(f"  a={a:<6.3g} q={q:g}: {err:.2e}")

cos_sig = eigenstate_signal(EigenstateSpec(2.0, 4.0), grid)
d = fractional_momentum(cos_sig, 2.0)
err = np.max(np.abs(d.values - 4.0 * cos_sig.values))
print(f"  a=2 cosine eigenstate, eigenvalue 4: {err:.2e}")

# --- commutators on the default operator grid, (-20, 20) with n = 8192:
# the engine subtracts the wrap-around images of these decaying states, so
# the identities hold on a box this short
f = sample(lambda x: np.exp(-x * x), high_res_grid())
print()
print("commutator identities on the operator grid, sup-gap over the center:")
for a in (0.0, 1.0, 1.5, 2.5):
    _, _, gap = commutator_dx(f, a)
    print(f"  [D^a, x] = a D^(a-1)    a={a:<4g}: {gap:.2e}")
for a in (1.0, 2.0, 3.0):
    _, _, gap = commutator_ladder(f, a)
    print(f"  [A_a, B_a] = a P_(a-1)  a={a:<4g}: {gap:.2e}")

lhs, rhs, gap = commutator_ladder(f, 1.0)
center = np.argmax(np.abs(f.values))
print()
print(f"order 1 ladder commutator acting on f, at the peak of f:")
print(f"  ([A,B]f)(x0) = {lhs.values[center].real:.9f}, f(x0) = "
      f"{f.values[center].real:.9f}  -> [A, A+] = 1")

try:
    commutator_dx(f, 0.5)
except AlphaInForbiddenRange as exc:
    print()
    print(f"order 1/2 rejected as expected: {exc}")
