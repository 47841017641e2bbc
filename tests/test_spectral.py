import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from scipy.optimize import brentq

from conftest import power
from critjac import ansatz, coeffs, recurrence, solutions, spectral, volterra
from critjac.errors import (
    EigenvalueHit,
    InvalidParameter,
    OutsideAC,
    OverlapsAC,
    ThresholdPoint,
)


class TestClassification:
    def test_whole_line(self):
        _, p = power(1.25, 0.0, -0.875)
        c = spectral.classify_spectrum(p)
        assert c.kind == "whole_line_ac"
        assert (c.ac.lo, c.ac.hi) == (-np.inf, np.inf)
        assert c.discrete is None

    def test_all_discrete(self):
        _, p = power(1.25, 0.0, 0.3)
        c = spectral.classify_spectrum(p)
        assert c.kind == "all_discrete"
        assert c.ac is None

    def test_half_line_negative_gamma(self):
        m = coeffs.power_model(1.0, 0.0, -0.35, -1.0)  # tau = 0.3
        p = coeffs.classify(m)
        c = spectral.classify_spectrum(p)
        assert c.kind == "half_line_ac"
        assert c.ac.lo == -np.inf and c.ac.hi == pytest.approx(-0.3)
        assert c.discrete.lo == pytest.approx(-0.3) and c.discrete.hi == np.inf

    def test_half_line_sigma_below_one(self):
        _, p = power(0.5, 0.0, 0.2)
        c = spectral.classify_spectrum(p)
        assert (c.ac.lo, c.ac.hi) == (0.0, np.inf)
        assert (c.discrete.lo, c.discrete.hi) == (-np.inf, 0.0)


class TestDensity:
    def test_orthonormality_oracle_fixes_weight(self, laguerre0):
        # quadrature orthonormality of poly_eval output against the
        # classical weight certifies the normalization the density must hit
        m, _ = laguerre0
        weight = lambda x: math.exp(-x)
        for n, mm, expect in ((0, 0, 1.0), (3, 3, 1.0), (2, 5, 0.0), (1, 4, 0.0)):
            val, err = scipy.integrate.quad(
                lambda x: recurrence.poly_eval(m, x, max(n, mm)).complex_at(n).real
                * recurrence.poly_eval(m, x, max(n, mm)).complex_at(mm).real
                * weight(x), 0.0, 60.0, limit=200)
            assert val == pytest.approx(expect, abs=5e-8)

    def test_laguerre_values(self, laguerre0, laguerre1):
        for (m, p), pp in ((laguerre0, 0.0), (laguerre1, 1.0)):
            s = spectral.density(1.0, p, m, N=100_000)
            classical = math.exp(-1.0) / scipy.special.gamma(pp + 1.0)
            assert s.xi == pytest.approx(classical, rel=1e-3)
            # stored-field identity: xi = w / (pi kappa^2) exactly
            assert s.xi == s.w / (math.pi * s.kappa ** 2)

    def test_total_mass(self, laguerre0):
        m, p = laguerre0
        lams = np.concatenate([np.linspace(0.005, 2.0, 80),
                               np.linspace(2.05, 40.0, 160)])
        xs = [spectral.density(float(l), p, m, N=20_000).xi for l in lams]
        total = np.trapezoid(xs, lams)
        # the guard band excludes [0, 0.005), which holds ~0.005 of mass
        assert total == pytest.approx(1.0, abs=0.02)

    def test_guards(self, laguerre0):
        m, p = laguerre0
        with pytest.raises(OutsideAC):
            spectral.density(-1.0, p, m)
        with pytest.raises(ThresholdPoint):
            spectral.density(5e-4, p, m)

    def test_sweep_unwraps_eta(self, laguerre0):
        m, p = laguerre0
        samples = spectral.density_sweep(np.linspace(4.0, 8.0, 9), p, m, N=20_000)
        etas = np.array([s.eta for s in samples])
        # nearest-branch continuation keeps steps under pi
        assert np.max(np.abs(np.diff(etas))) < math.pi


def continued_fraction_r00(model, z: complex, K: int) -> complex:
    """R_00(z) = 1 / (b_0 - z - a_0^2 / (b_1 - z - a_1^2 / (b_2 - z - ...))),
    evaluated backwards from a zero tail at depth K (Gautschi, SIAM Rev. 9,
    1967): the recurrence coefficients only, nothing of the Jost machinery."""
    a = model.a_range(0, K + 1).tolist()
    b = model.b_range(0, K + 1).tolist()
    t = 0j
    for n in range(K - 1, -1, -1):
        t = a[n] ** 2 / (b[n + 1] - z - t)
    return 1.0 / (b[0] - z - t)


class TestResolvent:
    # the fraction converges slowest at 1.5 + 0.5i: 8e-10 at K = 1e4,
    # 4e-16 at K = 1e5
    @pytest.mark.parametrize("model, z", [
        (power(1.25, 0.0, -0.875), -2.0 + 1.0j),
        (power(1.25, 0.0, -0.875), 1.5 + 0.5j),
        (None, 1.0 + 1.0j),                       # Laguerre p = 0
        (power(1.0, 0.0, 0.0), -3.0 + 0.0j),      # discrete region
    ], ids=["whole_line_left", "whole_line_right", "laguerre", "discrete"])
    def test_r00_matches_continued_fraction(self, laguerre0, model, z):
        m, p = model or laguerre0
        zp = ansatz.interior(z)
        ref = continued_fraction_r00(m, z, 100_000)
        r00 = spectral.resolvent_element(0, 0, zp, p, m, N=20_000)
        assert r00 == pytest.approx(ref, rel=1e-13)
        f0 = solutions.jost(zp, p, m, N=20_000).complex_at(0)
        assert f0 / solutions.omega(zp, p, m, N=20_000) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("n, m", [(0, 0), (3, 7), (5, 48)])
    def test_matches_whole_jost_window(self, n, m):
        # the Jost solution is assembled only up to max(n, m); the value is
        # P_min f_max / Omega from the whole window, and theta_n is asked
        # for no further than max(n, m) (n0 = 8 here)
        mdl, p = power(1.25, 0.0, -0.875)
        zp = ansatz.interior(-2.0 + 1.0j)
        N = 100_000
        win = solutions.jost(zp, p, mdl, N=N)
        lo, hi = min(n, m), max(n, m)
        P = recurrence.poly_eval(mdl, zp.z, lo)
        ref = (P.value(lo) * win.value(hi)).to_complex() / solutions.omega_from_window(win)
        asked = []
        theta = solutions.theta_window

        def counting(ctx, n_lo, n_hi):
            asked.append((n_lo, n_hi - n_lo))
            return theta(ctx, n_lo, n_hi)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solutions, "theta_window", counting)
            r = spectral.resolvent_element(n, m, zp, p, mdl, N=N)
        assert r == pytest.approx(ref, rel=1e-13)
        n0 = win.meta["n0"]
        assert asked == [(n0, max(hi, n0 + 1) - n0)]

    def test_index_beyond_window(self, laguerre0):
        m, p = laguerre0
        with pytest.raises(InvalidParameter):
            spectral.resolvent_element(0, 5001, ansatz.interior(1 + 1j), p, m,
                                       N=5000)

    def test_symmetry_and_herglotz(self, laguerre0):
        m, p = laguerre0
        z = ansatz.interior(0.7 + 0.9j)
        r01 = spectral.resolvent_element(0, 1, z, p, m, N=20_000)
        r10 = spectral.resolvent_element(1, 0, z, p, m, N=20_000)
        assert r01 == pytest.approx(r10, rel=1e-12)
        r00 = spectral.resolvent_element(0, 0, z, p, m, N=20_000)
        assert r00.imag > 0
        r00_dn = spectral.resolvent_element(0, 0, ansatz.interior(0.7 - 0.9j),
                                            p, m, N=20_000)
        assert r00_dn.imag < 0

    def test_privalov_limit(self, laguerre0):
        m, p = laguerre0
        for lam in (1.0, 2.0):
            r = spectral.resolvent_element(0, 0, ansatz.interior(lam + 1e-3j),
                                           p, m, N=200_000)
            xi = spectral.density(lam, p, m, N=200_000).xi
            assert r.imag / math.pi == pytest.approx(xi, rel=1e-2)

    def test_eigenvalue_hit(self):
        m, p = power(1.0, 0.0, 0.0)
        zeros = spectral.discrete_eigenvalues(-3.0, 0.9, p, m, N=40_000)
        with pytest.raises(EigenvalueHit):
            spectral.resolvent_element(0, 0, ansatz.interior(zeros[0]), p, m,
                                       N=40_000)


class TestProjector:
    def test_diagonal_reduces_to_density(self, laguerre0):
        m, p = laguerre0
        xi = spectral.density(1.5, p, m, N=50_000).xi
        d00 = spectral.projector_density(0, 0, 1.5, p, m, N=50_000)
        assert d00 == pytest.approx(xi, rel=1e-12)

    def test_symmetric_and_rank_one(self, laguerre0):
        m, p = laguerre0
        d12 = spectral.projector_density(1, 2, 1.5, p, m, N=50_000)
        d21 = spectral.projector_density(2, 1, 1.5, p, m, N=50_000)
        d11 = spectral.projector_density(1, 1, 1.5, p, m, N=50_000)
        d22 = spectral.projector_density(2, 2, 1.5, p, m, N=50_000)
        assert d12 == pytest.approx(d21, rel=1e-12)
        assert d12 ** 2 == pytest.approx(d11 * d22, rel=1e-9)


class TestEigenvalues:
    def test_laguerre_has_no_negative_spectrum(self, laguerre0):
        m, p = laguerre0
        rep = spectral.eigenvalue_report(-10.0, -0.1, p, m, N=20_000)
        assert rep["omega_zeros"] == []
        assert rep["matrix_eigenvalues"] == []
        assert rep["agree"]

    def test_overlap_rejected(self, laguerre0):
        m, p = laguerre0
        with pytest.raises(OverlapsAC):
            spectral.discrete_eigenvalues(-1.0, 1.0, p, m)

    def test_dual_oracle_agreement(self):
        m, p = power(1.0, 0.0, 0.0)   # tau = 1
        rep = spectral.eigenvalue_report(-3.0, 0.9, p, m, N=40_000)
        assert rep["agree"]
        assert len(rep["omega_zeros"]) >= 1
        assert max(rep["deviations"]) < 1e-6

    def test_search_solves_one_plain_window_per_omega(self, monkeypatch):
        # the search reads only the sign and zeros of Re Omega, so each
        # evaluation is one bare Volterra window without the tail fit
        m, p = power(1.0, 0.0, 0.0)
        calls = {"omega_real": 0, "solve": 0, "top_boundary": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(spectral, "_omega_real",
                            counted("omega_real", spectral._omega_real))
        monkeypatch.setattr(volterra, "solve", counted("solve", volterra.solve))
        monkeypatch.setattr(volterra, "_top_boundary",
                            counted("top_boundary", volterra._top_boundary))
        rep = spectral.eigenvalue_report(-3.0, 0.9, p, m, N=40_000)
        assert rep["agree"]
        assert calls["top_boundary"] == 0
        assert calls["omega_real"] > 0
        assert calls["solve"] == calls["omega_real"]

    @pytest.mark.parametrize("sigma, beta, eig", [
        (1.0, 0.0, -0.4577),     # tau = 1
        (1.5, 0.25, -0.3702),    # tau = 2
        (1.5, 0.25, 2.5055),
        (0.5, 0.0, -0.4764),
    ])
    def test_unit_tail_keeps_omega_zeros(self, sigma, beta, eig):
        # the bare window is off in value at regular points but must put
        # the zeros of Re Omega where the tail-fitted window puts them
        m, p = power(sigma, 0.0, beta)

        def re_omega(lam, tail_init):
            return solutions.omega(ansatz.interior(complex(lam)), p, m,
                                   N=20_000, tail_init=tail_init).real

        unit, asym = (brentq(re_omega, eig - 1e-3, eig + 1e-3,
                             args=(mode,), xtol=1e-13)
                      for mode in ("unit", "asymptotic"))
        assert abs(unit - asym) < 1e-9


def test_minus_side_conjugate_amplitude(laguerre0):
    m, p = laguerre0
    om_plus = solutions.omega(ansatz.at_plus(1.0), p, m, N=30_000)
    om_minus = solutions.omega(ansatz.at_minus(1.0), p, m, N=30_000)
    assert om_minus == pytest.approx(om_plus.conjugate(), rel=1e-12)


def test_refine_grid_contract(monkeypatch, laguerre0):
    # a predicted eigenvalue with no resolvable sign change must raise
    # RefineGrid instead of being silently merged away
    from critjac.errors import RefineGrid
    m, p = power(1.0, 0.0, 0.0)
    monkeypatch.setattr(spectral, "matrix_eigs_adaptive",
                        lambda *a, **k: (np.array([-2.0, -1.999]), 800))
    monkeypatch.setattr(spectral, "_omega_real",
                        lambda lam, *a, **k: (lam + 2.0) ** 2 + 1e-12)
    with pytest.raises(RefineGrid):
        spectral.eigenvalue_report(-5.0, 0.9, p, m, N=20_000)
