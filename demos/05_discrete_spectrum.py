"""Discrete spectrum by two independent routes.

Off the a.c. set, eigenvalues are exactly the real zeros of the Jost
function Omega.  The nodes of the Jost solution's head count the
eigenvalues below a point, so the library isolates each eigenvalue by
bisection on that count, refines it by Brent, and cross-checks each
against eigenvalues of growing matrix truncations.
"""

from critjac import (
    classify,
    classify_spectrum,
    eigenvalue_report,
    interior,
    omega,
    power_model,
    resolvent_element,
)

m = power_model(1.0, 0.0, 0.0, 1.0)   # tau = 1: a.c. spectrum on (1, inf)
p = classify(m)
print("model: a_n = n, b_n = 2n;", classify_spectrum(p))

rep = eigenvalue_report(-5.0, 0.9, p, m, N=60_000)
print(f"\nsearch interval {rep['interval']}: {rep['count']} eigenvalue(s) "
      f"by node count; matrix truncation N = {rep['matrix_N']}, "
      f"settled: {rep['matrix_settled']}")
print(f"{'Omega zero':>16s} {'matrix eig':>16s} {'deviation':>12s}")
for z, r, d in zip(rep["omega_zeros"], rep["matrix_eigenvalues"],
                   rep["deviations"]):
    print(f"{z:16.10f} {r:16.10f} {d:12.2e}")
print("routes agree:", rep["agree"])

lam0 = rep["omega_zeros"][0]
print(f"\nOmega crosses zero through the eigenvalue at {lam0:.6f}:")
for off in (-0.01, -0.001, 0.001, 0.01):
    om = omega(interior(lam0 + off), p, m, N=60_000)
    print(f"  Omega({lam0 + off:+.6f}) = {om.real:+.6e}")

z = lam0 + 1e-4
r00 = resolvent_element(0, 0, interior(z), p, m, N=60_000)
print(f"\nresolvent blows up next to it: <R({z:.6f}) e0, e0> = {r00.real:.3e}")
