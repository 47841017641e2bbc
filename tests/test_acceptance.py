"""Acceptance suite: one test per criterion, each printing a PASS line.

Quantitative anchors are oracle-based: the classical orthonormal weight
is certified by quadrature before densities are compared against it,
eigenvalues are cross-checked between the Jost-function and matrix
routes, and asymptotic laws are compared with direct recurrence
evaluation.
"""

import math
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from conftest import log_sample_indices, loglog_slope, power, remainder_at
from critjac import ansatz, coeffs, recurrence, solutions, spectral, volterra
from critjac.eikonal import eikonal_defect


def report(num, name, detail):
    print(f"[criterion {num:02d}] PASS - {name} ({detail})")


def test_criterion_01_laguerre_density_anchor():
    t_total = time.perf_counter()
    worst = 0.0
    for p_par in (0.0, 1.0):
        m = coeffs.laguerre_model(p_par)
        pr = coeffs.classify(m)
        gamma_norm = scipy.special.gamma(p_par + 1.0)
        weight = lambda x: x ** p_par * math.exp(-x) / gamma_norm
        # oracle first: the claimed weight orthonormalizes poly_eval output
        for n, mm in ((0, 0), (2, 2), (1, 3)):
            val, _ = scipy.integrate.quad(
                lambda x: recurrence.poly_eval(m, x, 3).complex_at(n).real
                * recurrence.poly_eval(m, x, 3).complex_at(mm).real * weight(x),
                0.0, 80.0, limit=300)
            assert val == pytest.approx(1.0 if n == mm else 0.0, abs=1e-7)
        for lam in (0.5, 1.0, 2.0, 4.0):
            t0 = time.perf_counter()
            s = spectral.density(lam, pr, m, N=200_000)
            dt = time.perf_counter() - t0
            rel = abs(s.xi / weight(lam) - 1.0)
            worst = max(worst, rel)
            assert rel < 0.01, (p_par, lam, rel)
            assert dt < 60.0
    report(1, "Laguerre density anchor",
           f"worst rel err {worst:.2e}, total {time.perf_counter()-t_total:.1f}s")


def test_criterion_02_wronskian_normalization():
    pairs = [
        (power(0.5, 0.0, -0.5), -1.0 + 0j),
        (power(0.5, 0.0, 0.5), 0.8 + 0.5j),
        (power(0.8, 0.0, -0.6), 1.0 + 2j),
        (power(0.8, 0.0, 0.3), -0.5 + 0j),
        ((coeffs.laguerre_model(0.0),
          coeffs.classify(coeffs.laguerre_model(0.0))), 0.5 + 0.5j),
        (power(1.0, 0.0, -0.75), -1.0 + 0j),
        (power(1.0, 0.0, 0.25), 0.5 + 0j),
        (power(1.25, 0.0, -0.875), 1.0 + 0.5j),
        (power(1.25, 0.0, 0.0), 0.7 + 0j),
        (power(1.25, 0.0, 0.0), 0.3 + 2j),
        (power(1.5, 0.0, -1.0), 1.0 + 2j),
        (power(1.5, 0.0, 0.25), -0.4 + 0j),
    ]
    worst = 0.0
    for (m, pr), z in pairs:
        zp = ansatz.interior(z)
        f = solutions.jost(zp, pr, m, N=20_000)
        g = solutions.growing(zp, pr, m, f=f)
        W = solutions.wronskian(f, g)
        worst = max(worst, abs(W - 1.0))
        assert abs(W - 1.0) <= 1e-8, (m.kind, pr.sigma, pr.tau, z, W)
    report(2, "Wronskian normalization W[f,g]=1 on 12 pairs",
           f"worst |W-1| = {worst:.2e}")


def test_criterion_03_remainder_exponents():
    cases = [
        ("AA+1", coeffs.laguerre_model(0.0), 1 + 1j, 2.0),
        ("AA+", coeffs.power_model(1.25, 0.0, -0.875, 1.0), 1 + 1j, 1.75),
        ("AA+-", coeffs.power_model(0.8, 0.0, 0.0, 1.0), 1 + 1j, 1.6),
        ("AA-", coeffs.power_model(0.5, 0.0, 0.0, 1.0), 1 + 1j, 1.5),
    ]
    details = []
    for name, m, z, delta in cases:
        pr = coeffs.classify(m)
        assert pr.delta == pytest.approx(delta)
        ns = log_sample_indices(1e3, 1e5, 40)
        rs = np.abs(remainder_at(ansatz.phase_context(ansatz.interior(z), pr), m, ns))
        slope = loglog_slope(ns, rs)
        assert abs(slope + delta) <= 0.15, (name, slope, delta)
        details.append(f"{name}: {slope:+.3f} vs {-delta:+.2f}")
    report(3, "remainder decay exponents", "; ".join(details))


def test_criterion_04_eikonal_certificates():
    t0 = time.perf_counter()
    for L in range(1, 9):
        defect = eikonal_defect(L)
        assert all(c == 0 for c in defect[: L + 1]), L
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report(4, "eikonal certificates L<=8 exact", f"{dt*1e3:.0f} ms")


def test_criterion_05_discrete_spectrum_dual_oracle():
    t0 = time.perf_counter()
    m, pr = power(1.0, 0.0, 0.0)   # tau = 1
    rep = spectral.eigenvalue_report(-5.0, 0.9, pr, m, N=60_000)
    dt = time.perf_counter() - t0
    assert dt < 30.0
    assert len(rep["omega_zeros"]) == len(rep["matrix_eigenvalues"])
    assert len(rep["omega_zeros"]) >= 1
    assert max(rep["deviations"]) <= 1e-6
    report(5, "discrete spectrum dual oracle",
           f"{len(rep['omega_zeros'])} eigenvalue(s), worst dev "
           f"{max(rep['deviations']):.1e}, {dt:.1f}s")


def test_criterion_06_oscillation_law():
    m = coeffs.laguerre_model(0.0)
    pr = coeffs.classify(m)
    lam = 1.0
    kappa, eta = spectral.amplitude_phase(lam, pr, m, N=200_000)
    w = solutions.limit_wronskian(lam, pr)
    P = recurrence.poly_eval(m, lam, 10_201)
    ns = np.arange(10_000, 10_201)
    pred = recurrence.poly_asymptotic_ac(ns, lam, kappa, eta, pr)
    bad = 0
    for n, pn in zip(ns.tolist(), pred):
        envelope = kappa / w * n ** (-pr.rho)
        if abs(P.complex_at(n).real - pn) > 0.05 * envelope:
            bad += 1
    assert bad <= 0.05 * 201
    report(6, "oscillation law on the a.c. set",
           f"{201 - bad}/201 points inside the 5% envelope")


def test_criterion_07_privalov_consistency():
    m = coeffs.laguerre_model(0.0)
    pr = coeffs.classify(m)
    worst = 0.0
    for lam in (1.0, 2.0):
        r = spectral.resolvent_element(0, 0, ansatz.interior(lam + 1e-3j),
                                       pr, m, N=200_000)
        xi = spectral.density(lam, pr, m, N=200_000).xi
        rel = abs(r.imag / math.pi / xi - 1.0)
        worst = max(worst, rel)
        assert rel < 1e-2
    report(7, "Privalov resolvent consistency", f"worst rel {worst:.1e}")


def test_criterion_08_decay_law_positive_tau():
    m, pr = power(1.25, 0.0, -0.375)   # tau = 0.5
    assert pr.tau == pytest.approx(0.5)
    f = solutions.jost(ansatz.interior(0.0), pr, m, N=120_000)
    ns = log_sample_indices(1e3, 1e5, 40)
    lms = np.array([f.log_abs(int(n)) for n in ns])
    A = np.vstack([np.sqrt(ns), np.ones(len(ns))]).T
    slope = float(np.linalg.lstsq(A, lms, rcond=None)[0][0])
    target = -2.0 * math.sqrt(pr.tau)
    assert abs(slope / target - 1.0) < 0.05
    report(8, "exp(-2 sqrt(tau n)) decay law",
           f"slope {slope:.4f} vs {target:.4f}")


def test_criterion_09_reflection_symmetry():
    models = [coeffs.laguerre_model(0.0), coeffs.laguerre_model(1.0),
              coeffs.power_model(0.8, 0.2, -0.3, 1.0)]
    worst = 0.0
    for m in models:
        mr = coeffs.reflect(m)
        for z in (0.7, -1.3 + 0.4j):
            P = recurrence.poly_eval(m, z, 1000)
            Pr = recurrence.poly_eval(mr, -z, 1000)
            for n in range(0, 1001):
                ratio = (Pr.value(n) / P.value(n)).to_complex() * (-1.0) ** n
                worst = max(worst, abs(ratio - 1.0))
                assert abs(ratio - 1.0) <= 1e-12
    report(9, "reflection identity for polynomials", f"worst {worst:.1e}")


def test_criterion_10_volterra_bound():
    # u solves the truncated equation to rounding, and u_{n0} converges as
    # N doubles: with the unit tail its N-vs-2N difference shrinks by
    # 2^(nu - delta + 1) per doubling (0.96 to 1.01 times that here), with
    # the asymptotic tail at least as fast from a start 30 to 850 times
    # smaller
    cases = [
        ((coeffs.laguerre_model(0.0),
          coeffs.classify(coeffs.laguerre_model(0.0))),
         ansatz.at_plus(1.0), 40_000),
        (power(1.25, 0.0, -0.875), ansatz.at_plus(0.5), 100_000),
        (power(0.5, 0.0, 0.0), ansatz.interior(1 + 1j), 20_000),
        (power(1.5, 0.0, 0.25), ansatz.interior(-0.4), 20_000),
    ]
    for (m, pr), zp, N in cases:
        rate = 2.0 ** (pr.nu - pr.delta + 1.0)
        d = {}
        for tail in ("unit", "asymptotic"):
            sols = [volterra.solve(zp, pr, m, N=k * N, tail_init=tail, n_top=0)
                    for k in (1, 2, 4)]
            assert all(s.residual < 1e-12 for s in sols), (m.kind, pr.sigma, tail)
            d[tail] = np.abs(np.diff([s.u[0] for s in sols]))
        assert abs(d["unit"][1] / d["unit"][0] / rate - 1.0) < 0.1, (m.kind, pr.sigma)
        assert d["asymptotic"][1] <= rate * d["asymptotic"][0], (m.kind, pr.sigma)
        assert d["asymptotic"][0] < 0.1 * d["unit"][0], (m.kind, pr.sigma)
    report(10, "Volterra u converges under doubling of N at the tail rate",
           f"{len(cases)} cases, both tail modes")


def test_criterion_11_whole_line_ac_sweep():
    t0 = time.perf_counter()
    m, pr = power(1.25, 0.0, -0.875)   # tau = -0.5
    assert spectral.classify_spectrum(pr).kind == "whole_line_ac"
    lams = np.round(np.arange(-2.0, 2.0001, 0.1), 10)
    samples = spectral.density_sweep(lams, pr, m, N=100_000)
    xs = np.array([s.xi for s in samples])
    assert len(xs) == 41
    assert np.all(xs > 0.0)
    # continuity: at the cell with the largest jump (a sharp resonance
    # near lambda = -1.1), refining the grid must shrink the jumps
    k = int(np.argmax(np.abs(np.diff(xs))))
    coarse_jump = abs(xs[k + 1] - xs[k])
    fine = spectral.density_sweep(np.linspace(lams[k], lams[k + 1], 9),
                                  pr, m, N=100_000)
    fine_jumps = np.abs(np.diff([s.xi for s in fine]))
    assert np.max(fine_jumps) < coarse_jump
    dt = time.perf_counter() - t0
    assert dt < 120.0
    report(11, "whole-line a.c. density sweep",
           f"41 points positive, refinement-continuous, {dt:.0f}s")
