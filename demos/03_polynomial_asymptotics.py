"""Orthonormal polynomial asymptotics against the recurrence oracle.

On the a.c. set the polynomials oscillate inside an n^-rho envelope with
amplitude and phase read off the Jost function; at regular points they
grow along the partner solution.  Both laws are checked here against
direct three-term-recurrence evaluation.
"""

import numpy as np

from critjac import (
    LogComplex,
    amplitude_phase,
    classify,
    interior,
    laguerre_model,
    limit_wronskian,
    omega,
    poly_asymptotic_ac,
    poly_asymptotic_regular,
    poly_eval,
)

m = laguerre_model(0.0)
p = classify(m)

lam = 1.0
kappa, eta = amplitude_phase(lam, p, m, N=100_000)
w = limit_wronskian(lam, p)
print(f"limit amplitude kappa = {kappa:.6f}, limit phase eta = {eta:.6f}, "
      f"w = {w}")

P = poly_eval(m, lam, 10_030)
ns = np.arange(10_000, 10_030, 4)
preds = poly_asymptotic_ac(ns, lam, kappa, eta, p)
print("\noscillation law on the a.c. set (n^1/4-scaled values):")
print(f"{'n':>6s} {'P_n (recurrence)':>18s} {'prediction':>14s} {'diff':>10s}")
for n, pred in zip(ns.tolist(), preds):
    actual = P.complex_at(n).real
    print(f"{n:6d} {actual:18.10f} {pred:14.10f} {abs(actual - pred):10.2e}")

z = -1.0
zp = interior(z)
om = omega(zp, p, m, N=100_000)
P2 = poly_eval(m, z, 10_000)
ns = [1000, 3000, 10_000]
logmag, unit = poly_asymptotic_regular(ns, zp, om, p)
print(f"\nregular point z = {z}: Omega = {om.real:.6f}")
print("growth law P_n ~ -Omega * (i / 2 varkappa) * envelope:")
for n, lm, u in zip(ns, logmag, unit):
    ratio = (P2.value(n) / LogComplex(lm, u)).to_complex()
    print(f"  n={n:6d}  log|P_n| = {P2.log_abs(n):9.2f}   "
          f"recurrence/prediction = {ratio.real:.5f}{ratio.imag:+.1e}j")
