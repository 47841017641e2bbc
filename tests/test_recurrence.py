import dataclasses
import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
import sympy

from conftest import phi_at, power
from critjac import ansatz, coeffs, recurrence, solutions
from critjac.errors import InvalidParameter, NumericFailure, OnSpectrum, OutsideAC
from critjac.logcomplex import LogComplex


def scalar_poly(model, z, N):
    """P_n(z) for n in [-1, N] as (logmag, unit), one step per index
    (reference oracle only).

    P_{n+1} = ((z - b_n) P_n - a_{n-1} P_{n-1}) / a_n in Python scalars,
    in real arithmetic for real z, renormalised once the window passes
    1e120 with the cumulative log scale recorded.
    """
    a = model.a_range(0, N + 1).tolist()
    b = model.b_range(0, N + 1).tolist()
    real = complex(z).imag == 0.0
    zv = complex(z).real if real else complex(z)
    lm = np.empty(N + 2)
    unit = np.empty(N + 2, dtype=complex)
    lm[0], unit[0] = -np.inf, 1.0           # P_{-1}
    lm[1], unit[1] = 0.0, 1.0               # P_0
    p_prev, p_cur = 0.0, 1.0
    scale = 0.0
    a_prev = 1.0
    for n in range(N):
        p_next = ((zv - b[n]) * p_cur - a_prev * p_prev) / a[n]
        mag = abs(p_next)
        if mag == 0.0:
            lm[n + 2], unit[n + 2] = -np.inf, 1.0
        else:
            lm[n + 2] = scale + math.log(mag)
            unit[n + 2] = p_next / mag
        big = max(mag, abs(p_cur))
        if big > 1e120:
            p_next /= big
            p_cur /= big
            scale += math.log(big)
        p_prev, p_cur, a_prev = p_cur, p_next, a[n]
    return lm, unit


def poly_error(lm, unit, lm_ref, unit_ref):
    """Worst |P_n - P_ref_n| over n >= 0, relative to the largest of
    |P_ref| at n - 1, n, n + 1: a relative error that stays meaningful
    where P_n itself passes near zero."""
    ext = np.concatenate([lm_ref, [-np.inf]])
    scale = np.maximum(np.maximum(ext[:-2], ext[1:-1]), ext[2:])
    err = np.abs(np.exp(lm[1:] - scale) * unit[1:]
                 - np.exp(lm_ref[1:] - scale) * unit_ref[1:])
    return float(np.max(err))


def test_boundary_conditions(laguerre0):
    m, _ = laguerre0
    P = recurrence.poly_eval(m, 2.5, 4)
    assert P.value(-1).is_zero
    assert P.complex_at(0) == 1.0
    assert P.complex_at(1) == pytest.approx(1.5)  # (z - b_0)/a_0 = z - 1


def test_leading_coefficient_symbolic(laguerre0):
    # P_3(z) = z^3/(a0 a1 a2) + lower order, checked with symbolic z
    m, _ = laguerre0
    z = sympy.Symbol("z")
    a = [sympy.sqrt(sympy.Integer((n + 1) * (n + 1))) for n in range(3)]
    b = [sympy.Integer(2 * n + 1) for n in range(3)]
    P = [sympy.Integer(0), sympy.Integer(1)]  # P_{-1}, P_0
    a_prev = sympy.Integer(1)
    for n in range(3):
        P.append(sympy.expand(((z - b[n]) * P[-1] - a_prev * P[-2]) / a[n]))
        a_prev = a[n]
    lead = sympy.Poly(P[4], z).LC()
    assert sympy.simplify(lead - 1 / (a[0] * a[1] * a[2])) == 0
    # numeric evaluation agrees with the symbolic polynomial
    num = recurrence.poly_eval(m, 1.7, 3).complex_at(3)
    assert num == pytest.approx(float(P[4].subs(z, sympy.Rational(17, 10))))


def test_real_z_gives_real_values(laguerre0):
    m, _ = laguerre0
    P = recurrence.poly_eval(m, 3.7, 500)
    for n in (3, 57, 499):
        assert P.value(n).unit.imag == 0.0


def test_recurrence_residual_small(laguerre0):
    m, _ = laguerre0
    P = recurrence.poly_eval(m, -4.0, 1000)
    assert solutions.recurrence_residual(P) < 1e-12


def test_two_by_two_eigenvalues(laguerre0):
    m, _ = laguerre0
    eigs = recurrence.truncated_matrix_eigs(m, 2)
    assert eigs == pytest.approx([2 - math.sqrt(2), 2 + math.sqrt(2)])
    assert recurrence.truncated_matrix_eigs(m, 1) == pytest.approx([1.0])


def test_eigenvalues_simple_and_interlacing(laguerre0):
    m, _ = laguerre0
    for N in (5, 20, 40):
        e1 = recurrence.truncated_matrix_eigs(m, N)
        e2 = recurrence.truncated_matrix_eigs(m, N + 1)
        assert np.all(np.diff(e1) > 1e-10)
        # interlacing: e2[k] < e1[k] < e2[k+1]
        assert np.all(e2[:-1] <= e1 + 1e-10)
        assert np.all(e1 <= e2[1:] + 1e-10)


@pytest.mark.parametrize("N", [10, 30, 50])
def test_polynomial_roots_are_truncation_eigenvalues(laguerre0, N):
    m, _ = laguerre0
    eigs = recurrence.truncated_matrix_eigs(m, N)
    # P_N vanishes at the eigenvalues of the N x N truncation
    for lam in eigs:
        P = recurrence.poly_eval(m, float(lam), N)
        scale = max(abs(P.complex_at(N - 1)), 1.0)
        assert abs(P.complex_at(N)) < 1e-8 * scale


def test_reflection_identity():
    models = [coeffs.laguerre_model(0.0), coeffs.laguerre_model(1.0),
              coeffs.power_model(0.8, 0.2, -0.3, 1.0)]
    for m in models:
        mr = coeffs.reflect(m)
        for z in (0.7, -1.3 + 0.4j):
            P = recurrence.poly_eval(m, z, 1000)
            Pr = recurrence.poly_eval(mr, -z, 1000)
            for n in (1, 10, 100, 1000):
                lhs = Pr.value(n)
                rhs = P.value(n)
                ratio = (lhs / rhs).to_complex() * (-1.0) ** n
                assert abs(ratio - 1.0) < 1e-12


def test_ac_asymptotics_envelope(laguerre0):
    m, p = laguerre0
    lam = 1.0
    from critjac import spectral
    kappa, eta = spectral.amplitude_phase(lam, p, m, N=50_000)
    w = solutions.limit_wronskian(lam, p)
    ns = np.array([500, 2000, 8000])
    pred = recurrence.poly_asymptotic_ac(ns, lam, kappa, eta, p)
    assert pred.dtype == float and pred.shape == ns.shape
    assert np.all(np.abs(pred) <= kappa / w * ns ** (-p.rho) + 1e-15)
    with pytest.raises(OutsideAC):
        recurrence.poly_asymptotic_ac([100], -3.0, kappa, eta, p)


def test_regular_asymptotics_ratio(laguerre0):
    m, p = laguerre0
    zp = ansatz.interior(-1.0)
    om = solutions.omega(zp, p, m, N=100_000)
    P = recurrence.poly_eval(m, -1.0, 10_000)
    lm, unit = recurrence.poly_asymptotic_regular([5000, 9000, 10_000], zp, om, p)
    ratio = (P.value(10_000) / LogComplex(lm[2], unit[2])).to_complex()
    assert abs(ratio - 1.0) < 0.02
    # prediction grows off the spectrum
    assert lm[1] > lm[0]
    with pytest.raises(OnSpectrum):
        recurrence.poly_asymptotic_regular([100], ansatz.at_plus(1.0), om, p)


def test_eigenvalue_kills_prediction():
    # at an eigenvalue Omega = 0 the growing branch drops out: the
    # prediction vanishes identically, and the polynomial runs far below
    # the generic growing envelope (it follows the decaying branch until
    # the residual eigenvalue-location error ~1e-9 leaks back in)
    m, p = power(1.0, 0.0, 0.0)   # tau = 1, discrete spectrum below 1
    from critjac import spectral
    zeros = spectral.discrete_eigenvalues(-3.0, 0.9, p, m, N=40_000)
    assert zeros
    lam0 = zeros[0]
    zp = ansatz.interior(lam0)
    lm0, unit0 = recurrence.poly_asymptotic_regular([1000], zp, 0.0, p)
    assert lm0[0] == -np.inf and unit0[0] == 1.0
    envelope, _ = recurrence.poly_asymptotic_regular([1000], zp, 1.0, p)
    P = recurrence.poly_eval(m, lam0, 1000)
    assert P.log_abs(1000) < envelope[0] - 5.0


def test_asymptotic_laws_match_their_scalar_forms():
    # one phase sum serves every index: each law at any set of indices,
    # in any order and with repeats, equals its formula term by term with
    # the phase read off phi_window, for both signs of gamma (the
    # (-gamma)^n rule) and both half-planes (the conjugation back from
    # the canonical point)
    cases = [(power(1.25, 0.0, -0.875, gamma)[1], ansatz.interior(1.0 + s * 0.5j))
             for gamma in (1.0, -1.0) for s in (1.0, -1.0)]
    for p, zp in cases:
        n0 = ansatz.default_n_start(zp, p)
        ns = np.array([n0 + 300, n0, n0 + 17, n0 + 17, 4 * n0])
        om = 0.3 - 0.2j
        kap = solutions.kappa_phase(zp, p)
        pref = -om * 1j / (2.0 * kap)
        lm, unit = recurrence.poly_asymptotic_regular(ns, zp, om, p)
        for n, ph, lmn, un in zip(ns.tolist(), phi_at(zp, p, ns), lm, unit):
            want = (pref * (-p.gamma) ** (n + 1) * n ** (-p.rho)
                    * np.exp(-1j * ph))
            assert lmn == pytest.approx(math.log(abs(want)), abs=1e-12)
            assert un == pytest.approx(want / abs(want), abs=1e-12)
    mL = coeffs.laguerre_model(0.0)
    pL = coeffs.classify(mL)
    lam, kappa, eta = 1.0, 0.8, 0.3
    n0 = ansatz.default_n_start(ansatz.at_plus(lam), pL)
    ns = np.arange(n0, 20_000, 997)[::-1]
    pred = recurrence.poly_asymptotic_ac(ns, lam, kappa, eta, pL)
    w = solutions.limit_wronskian(lam, pL)
    for n, ph, pr in zip(ns.tolist(), phi_at(ansatz.at_plus(lam), pL, ns), pred):
        env = kappa / w * n ** (-pL.rho)
        assert abs(pr - env * (-1) ** n * math.sin(ph.real - eta)) <= 1e-15 * env


def test_asymptotic_laws_reject_indices_below_window_start(laguerre0):
    # phi_n is summed from n_start; below it the laws have no phase
    _, p = laguerre0
    lam, zp = 1.0, ansatz.interior(-1.0)
    n_ac = ansatz.default_n_start(ansatz.at_plus(lam), p)
    n_reg = ansatz.default_n_start(zp, p)
    assert recurrence.poly_asymptotic_ac([n_ac], lam, 1.0, 0.0, p).shape == (1,)
    assert recurrence.poly_asymptotic_regular([n_reg], zp, 1.0, p)[0].shape == (1,)
    with pytest.raises(InvalidParameter):
        recurrence.poly_asymptotic_ac([n_ac + 5, n_ac - 1], lam, 1.0, 0.0, p)
    with pytest.raises(InvalidParameter):
        recurrence.poly_asymptotic_regular([n_reg - 1], zp, 1.0, p)


# -- the blocked recurrence against one step per index -----------------------

# N = 97, 98, 99 end on a block one short, exact and one over (b = 7);
# 100_003 is prime
@pytest.mark.parametrize("N", [0, 1, 2, 3, 97, 98, 99, 100_003])
@pytest.mark.parametrize("z", [-1.0, 1.0, -1.3 + 0.4j])
def test_blocked_poly_matches_scalar_loop(laguerre0, N, z):
    m, _ = laguerre0
    P = recurrence.poly_eval(m, z, N)
    lm, unit = scalar_poly(m, z, N)
    assert P.n_hi == N and len(P.unit) == N + 2
    assert P.logmag[0] == -np.inf and P.complex_at(0) == 1.0
    assert poly_error(P.logmag, P.unit, lm, unit) <= 2e-14 * max(N, 10)
    if complex(z).imag == 0.0:
        assert np.all(P.unit.imag == 0.0)


def test_blocked_poly_rescales_inside_blocks():
    # sigma = 1/2 far left of the spectrum: P grows by about 10 nats a step,
    # so every block of b = 71 steps passes the rescale span many times
    m, _ = power(0.5, 0.0, 0.5)
    N, z = 10_000, -1e6
    P = recurrence.poly_eval(m, z, N)
    b = round(math.sqrt(N / 2.0))
    assert P.log_abs(b) - P.log_abs(0) > 2 * recurrence._SPAN
    lm, unit = scalar_poly(m, z, N)
    # both carry a log scale near 1e5 nats, rounded at about eps * log|P|
    assert np.all(np.abs(P.logmag[1:] - lm[1:]) <= 1e-14 * np.maximum(1.0, lm[1:]))
    assert np.array_equal(P.unit, unit)


def mpmath_poly(model, z, N, ns):
    """P_n and P_{n+1} at the indices ns, in 40-digit arithmetic on the
    model's double coefficients."""
    a = model.a_range(0, N).tolist()
    b = model.b_range(0, N).tolist()
    with mpmath.workdps(40):
        zm = mpmath.mpc(z) if complex(z).imag else mpmath.mpf(complex(z).real)
        want = set(ns) | {n + 1 for n in ns}
        out = {}
        p_prev, p_cur, a_prev = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(1)
        for n in range(N):
            p_prev, p_cur = p_cur, ((zm - b[n]) * p_cur - a_prev * p_prev) / a[n]
            a_prev = a[n]
            if n + 1 in want:
                out[n + 1] = p_cur
    return out


def mpmath_error(lm, unit, ref, ns):
    """Worst |P_n - ref_n| / max(|ref_n|, |ref_{n+1}|) over ns."""
    with mpmath.workdps(40):
        return max(float(abs(mpmath.exp(float(lm[n + 1])) * mpmath.mpc(complex(unit[n + 1]))
                             - ref[n]) / max(abs(ref[n]), abs(ref[n + 1])))
                   for n in ns)


POLY_POINTS = pytest.mark.parametrize("model, z", [
    (coeffs.laguerre_model(0.0), -1.0),
    (coeffs.laguerre_model(1.3), 1.0),
    (coeffs.power_model(1.0, 0.0, 0.0, 1.0), -3.0),        # discrete, tau = 1
    (coeffs.power_model(1.25, 0.0, -0.875, 1.0), -2.0),    # whole-line a.c.
    (coeffs.power_model(1.5, 0.0, -0.5, 1.0), 0.5),
    (coeffs.power_model(0.5, 0.0, 0.5, 1.0), 1.0 + 1.0j),
    (coeffs.power_model(1.0, 0.2, -0.3, -1.0), -1.0),      # gamma = -1
    (coeffs.laguerre_model(0.0), -1.3 + 0.4j),
], ids=["laguerre0", "laguerre1.3", "discrete", "whole_line", "sigma1.5",
        "sigma0.5_complex", "gamma_minus", "laguerre0_complex"])


@POLY_POINTS
def test_blocked_poly_accuracy_against_mpmath(model, z):
    # the difference basis keeps the blocked product as accurate as one
    # step per index.  Measured: 1e-14 to 8e-14, 0.01 to 0.9 times the
    # loop's error, where z - b_n is exact; 2.7e-11, 1.04 times the
    # loop's, at -1.3 + 0.4i, where both round z - b_n alike
    N = 20_000
    ns = sorted({int(round(x)) for x in np.geomspace(1, N - 1, 25)})
    ref = mpmath_poly(model, z, N, ns)
    P = recurrence.poly_eval(model, z, N)
    err = mpmath_error(P.logmag, P.unit, ref, ns)
    err_scalar = mpmath_error(*scalar_poly(model, z, N), ref, ns)
    assert err <= 10.0 * err_scalar


@POLY_POINTS
def test_poly_eval_stretch_edges_match_scalar_loop(monkeypatch, model, z):
    # stretches of 2^12 steps: N = 2e4 crosses four stretch edges and ends
    # in a partial stretch.  Handing the state (P, d, log2 scale) across an
    # edge costs no more than the blocks do: P stays within 10 times the
    # one-stretch run's distance from the one-step loop (measured: 0.995
    # to 1.03 times)
    N = 20_000
    lm, unit = scalar_poly(model, z, N)
    whole = recurrence.poly_eval(model, z, N)          # one stretch
    monkeypatch.setattr(recurrence, "_STRETCH", 2 ** 12)
    P = recurrence.poly_eval(model, z, N)
    assert P.n_hi == N and len(P.unit) == N + 2 and P.unit.dtype == whole.unit.dtype
    assert (poly_error(P.logmag, P.unit, lm, unit)
            <= 10.0 * poly_error(whole.logmag, whole.unit, lm, unit))


@pytest.mark.parametrize("z", [-1.0, -1.3 + 0.4j])
def test_poly_eval_stretch_edges_against_mpmath(laguerre0, monkeypatch, z):
    # as test_blocked_poly_accuracy_against_mpmath, across the edges of
    # stretches of 2^12 steps, read on both sides of every edge.  Measured:
    # 2.4e-14 (0.03 times the loop's error) at -1, 3.5e-11 (1.02 times,
    # both round z - b_n alike) at -1.3 + 0.4i
    m, _ = laguerre0
    N, S = 20_000, 2 ** 12
    edges = [n + k for n in range(S, N, S) for k in (-1, 0, 1, 2)]
    ns = sorted(set(edges) | {int(round(x)) for x in np.geomspace(1, N - 1, 25)})
    ref = mpmath_poly(m, z, N, ns)
    monkeypatch.setattr(recurrence, "_STRETCH", S)
    P = recurrence.poly_eval(m, z, N)
    err = mpmath_error(P.logmag, P.unit, ref, ns)
    err_scalar = mpmath_error(*scalar_poly(m, z, N), ref, ns)
    assert err <= 10.0 * err_scalar


@pytest.mark.parametrize("z", [-1.0, -1.3 + 0.4j])
def test_poly_eval_stretches_of_the_default_length(laguerre0, monkeypatch, z):
    # three whole stretches and a partial one at the default _STRETCH:
    # as far from the one-step loop as one stretch (1.0 times, measured)
    m, _ = laguerre0
    N = 3 * recurrence._STRETCH + 4321
    lm, unit = scalar_poly(m, z, N)
    P = recurrence.poly_eval(m, z, N)
    monkeypatch.setattr(recurrence, "_STRETCH", N)     # one stretch
    whole = recurrence.poly_eval(m, z, N)
    assert (poly_error(P.logmag, P.unit, lm, unit)
            <= 10.0 * poly_error(whole.logmag, whole.unit, lm, unit))


def test_poly_eval_runs_no_python_loop_over_indices(laguerre0):
    # one scalar loop over about sqrt(2N) blocks and one over about
    # sqrt(N/2) block rows: a few thousand traced lines, not one per index
    m, _ = laguerre0
    N = 200_000
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == recurrence.__file__ else None

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        recurrence.poly_eval(m, -1.0, N)
    finally:
        sys.settrace(old)
    assert 0 < lines < N / 10


def test_poly_eval_peak_memory_per_index(laguerre0):
    # at real z the output holds 16 B per index and the block rows and
    # states 16 to 32, about 34 B per index at the peak; a complex unit,
    # padded block copies and a full-size log2 scale took 50
    m, _ = laguerre0
    N = 200_000
    recurrence.poly_eval(m, -1.0, 10)
    tracemalloc.start()
    try:
        recurrence.poly_eval(m, -1.0, N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / N < 42.0


@pytest.mark.parametrize("bad", [10, 499])
def test_poly_eval_raises_on_nan_coefficient(laguerre0, bad):
    # a NaN in the first block, and in the last step of the window
    m, _ = laguerre0

    def a_fn(n):
        return np.where(n == bad, np.nan, m.a_fn(n))

    broken = dataclasses.replace(m, a_fn=a_fn)
    with pytest.raises(NumericFailure):
        recurrence.poly_eval(broken, -1.0, 500)
    recurrence.poly_eval(broken, -1.0, bad)       # a_bad is not read
