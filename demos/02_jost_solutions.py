"""Jost solutions: construction, decay, and the growing partner.

The distinguished solution f_n = A_n u_n is assembled from the explicit
oscillator A_n = (-gamma)^n n^-rho e^{i phi_n} and the Volterra-corrected
factor u_n -> 1.  Off the absolutely continuous set it decays
exponentially fast; its partner g_n grows, and W[f, g] = 1 by
construction.
"""

import numpy as np

from critjac import (
    SpectralPoint,
    classify,
    growing,
    interior,
    jost,
    laguerre_model,
    power_model,
    solve,
    wronskian_detail,
)

m = laguerre_model(0.0)
p = classify(m)
z = 1.0 + 1.0j
f = jost(interior(z), p, m, N=20_000)

print(f"Jost window for the p=0 model at z = {z}: n in "
      f"[-1, {f.n_hi}], volterra residual {f.meta['volterra_residual']:.1e}")
print("log|f_n| decays off the spectrum:")
for n in (0, 10, 100, 1000, 10_000, 20_000):
    print(f"  n={n:6d}  log|f_n| = {f.log_abs(n):10.2f}")

g = growing(interior(z), p, m, f=f)
W, dev, count = wronskian_detail(f, g)
print(f"\nGrowing partner: W[f, g] = {W:.12f} "
      f"(max deviation {dev:.1e} over {count} indices)")

print("\nThe Volterra correction u_n approaches 1; doubling the window N "
      "moves it far less:")
sol = solve(SpectralPoint(1.0, "plus"), p, m, N=50_000)
sol2 = solve(SpectralPoint(1.0, "plus"), p, m, N=100_000)
for n in (100, 1000, 10_000, 50_000):
    k = n - sol.n0
    print(f"  n={n:6d}  |u_n - 1| = {abs(sol.u[k] - 1):.2e}   "
          f"N vs 2N: {abs(sol.u[k] - sol2.u[k]):.2e}")

print("\nFor tau > 0 every z gives decay like exp(-2 sqrt(tau n)):")
m2 = power_model(1.25, 0.0, -0.375, 1.0)   # tau = 0.5
p2 = classify(m2)
f2 = jost(interior(0.0), p2, m2, N=40_000)
for n in (1000, 4000, 16_000):
    predicted = -2.0 * np.sqrt(p2.tau * n)
    print(f"  n={n:6d}  log|f_n| = {f2.log_abs(n):9.2f}   "
          f"-2 sqrt(tau n) = {predicted:9.2f}")
