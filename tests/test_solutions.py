import math

import numpy as np
import pytest

from conftest import force_complex, log_sample_indices, loglog_slope, phi_at, power
from critjac import ansatz, coeffs, solutions, spectral
from critjac.errors import BranchPoint, OnSpectrum, OutsideAC, WindowMismatch


def test_jost_window_residual(laguerre0):
    m, p = laguerre0
    win = solutions.jost(ansatz.at_plus(1.0), p, m, N=20_000)
    assert win.n_lo == -1
    assert solutions.recurrence_residual(win) < 1e-9


def test_wronskian_with_growing_partner(laguerre0):
    m, p = laguerre0
    zp = ansatz.interior(1 + 1j)
    f = solutions.jost(zp, p, m, N=20_000)
    g = solutions.growing(zp, p, m, f=f)
    W, dev, count = solutions.wronskian_detail(f, g)
    assert abs(W - 1.0) < 1e-10
    assert count > 19_000
    assert abs(g.meta["w_check_0"] - 1.0) < 1e-8
    assert solutions.recurrence_residual(g) < 1e-9


def test_wronskian_self_is_zero(laguerre0):
    m, p = laguerre0
    f = solutions.jost(ansatz.interior(1 + 1j), p, m, N=5000)
    W = solutions.wronskian(f, f)
    assert abs(W) < 1e-12


def test_wronskian_window_mismatch(laguerre0):
    m, p = laguerre0
    f1 = solutions.jost(ansatz.interior(1 + 1j), p, m, N=3000)
    f2 = solutions.jost(ansatz.interior(2 + 1j), p, m, N=3000)
    with pytest.raises(WindowMismatch):
        solutions.wronskian(f1, f2)


def test_conjugation_symmetry(laguerre0):
    m, p = laguerre0
    z = 1.2 + 0.7j
    f_up = solutions.jost(ansatz.interior(z), p, m, N=4000)
    f_dn = solutions.jost(ansatz.interior(z.conjugate()), p, m, N=4000)
    for n in (-1, 0, 5, 100, 2000):
        assert f_dn.complex_at(n) == pytest.approx(
            f_up.complex_at(n).conjugate(), rel=1e-12)


def test_growing_requires_regular_point(laguerre0):
    m, p = laguerre0
    with pytest.raises(OnSpectrum):
        solutions.growing(ansatz.at_plus(1.0), p, m, N=2000)


def test_growing_envelope_matches_phase():
    # log|g_n| tracks -rho ln n + Im phi_n
    m, p = power(1.25, 0.0, -0.875)   # tau = -0.5
    zp = ansatz.interior(1j)
    f = solutions.jost(zp, p, m, N=30_000)
    g = solutions.growing(zp, p, m, f=f)
    ns = (1000, 5000, 20_000)
    vals = [g.log_abs(n) + p.rho * math.log(n) - ph.imag
            for n, ph in zip(ns, phi_at(zp, p, ns))]
    assert max(vals) - min(vals) < 0.05


def test_sigma_three_halves_growing_power():
    # at sigma = 3/2, tau < 0 the partners behave like n^(-1/2 +- eps1)
    # with eps1 = eps / (2 sqrt(|tau|))
    m, p = power(1.5, 0.0, -1.25)     # tau = -1
    eps = 0.3
    zp = ansatz.interior(0.5 + eps * 1j)
    f = solutions.jost(zp, p, m, N=200_000)
    g = solutions.growing(zp, p, m, f=f)
    ns = log_sample_indices(2e3, 1.5e5, 25)
    slope_f = loglog_slope(ns, np.exp([f.log_abs(int(n)) for n in ns]))
    slope_g = loglog_slope(ns, np.exp([g.log_abs(int(n)) for n in ns]))
    eps1 = eps / 2.0
    assert slope_f == pytest.approx(-0.5 - eps1, abs=0.03)
    assert slope_g == pytest.approx(-0.5 + eps1, abs=0.03)


def test_l2_membership_off_spectrum(laguerre0):
    m, p = laguerre0
    f = solutions.jost(ansatz.interior(1 + 0.5j), p, m, N=40_000)
    lm = f.logmag[2:]
    half = len(lm) // 2
    total = np.sum(np.exp(2 * (lm - lm.max())))
    tail = np.sum(np.exp(2 * (lm[half:] - lm.max())))
    assert tail / total < 1e-10


def test_jost_uniqueness_proxy(laguerre0):
    # different (n0, N) rescale the Jost solution by a constant (the
    # dropped phase terms); ratios of entries and on-spectrum moduli are
    # normalization-free and must agree within the truncation budget
    m, p = laguerre0
    zp = ansatz.at_plus(2.0)
    w1 = solutions.jost(zp, p, m, N=50_000)
    w2 = solutions.jost(zp, p, m, n0=ansatz.default_n_start(zp, p) + 12,
                        N=100_000)
    r1 = w1.complex_at(5) / w1.complex_at(0)
    r2 = w2.complex_at(5) / w2.complex_at(0)
    assert abs(r1 - r2) <= 1e-5 * abs(r1)
    assert abs(w1.log_abs(0) - w2.log_abs(0)) < 1e-4


def test_reflection_of_jost():
    m, p = power(1.0, 0.0, -0.75)     # tau = -0.5, gamma = 1
    mr = coeffs.reflect(m)
    pr = coeffs.classify(mr)
    z = 0.8 + 0.6j
    f = solutions.jost(ansatz.interior(z), p, m, N=3000)
    fr = solutions.jost(ansatz.interior(-z), pr, mr, N=3000)
    # f^sharp_n(-z) = (-1)^n f_n(z), exactly with matching windows
    for n in (0, 1, 7, 100, 999):
        lhs = fr.complex_at(n)
        rhs = (-1) ** n * f.complex_at(n)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_extend_backward_reads_coefficients_once(monkeypatch):
    # the backward recurrence reads a_n and b_n from one array call each,
    # not from three scalar model calls per step
    m, _ = power(1.25, 0.0, -0.875)
    calls = []
    for name in ("a", "b"):
        scalar = getattr(coeffs.CoefficientModel, name)

        def counting(self, n, scalar=scalar, name=name):
            calls.append(name)
            return scalar(self, n)

        monkeypatch.setattr(coeffs.CoefficientModel, name, counting)
    n_from = 2048
    lm, _ = solutions._extend_backward(np.zeros(2), np.ones(2, dtype=complex),
                                       n_from, m, -2.0 + 0.0j)
    assert calls == []
    assert len(lm) == n_from + 1 and np.all(np.isfinite(lm))


# (model, point, N, tail_init); at_minus and Im z < 0 are solved at the
# conjugate point and conjugated back.  Every window spans two or more
# stretches of the forward pass, and omega folds all but its first blocks
_WHOLE_LINE = power(1.25, 0.0, -0.875)
OMEGA_CASES = {
    "laguerre": (None, ansatz.at_plus(1.0), 20_000, "asymptotic"),
    "whole_line": (_WHOLE_LINE, ansatz.at_plus(-2.0), 60_000, "asymptotic"),
    "sigma_3_2": (power(1.5, 0.0, -0.5), ansatz.at_plus(0.5), 20_000, "asymptotic"),
    "discrete_unit": (power(1.0, 0.0, 0.0), ansatz.interior(-3.0), 20_000, "unit"),
    "minus_side": (_WHOLE_LINE, ansatz.at_minus(1.5), 20_000, "asymptotic"),
    "lower_half_plane": (None, ansatz.interior(2.0 - 1.0j), 20_000, "asymptotic"),
    "laguerre_unit": (None, ansatz.at_plus(1.0), 40_000, "unit"),
    "laguerre_minus_1": (None, ansatz.interior(-1.0), 40_000, "asymptotic"),
    "laguerre_minus_1_unit": (None, ansatz.interior(-1.0), 40_000, "unit"),
    "whole_line_unit": (_WHOLE_LINE, ansatz.at_plus(-2.0), 60_000, "unit"),
    "whole_line_1_5": (_WHOLE_LINE, ansatz.at_plus(1.5), 40_000, "asymptotic"),
    "whole_line_1_5_unit": (_WHOLE_LINE, ansatz.at_plus(1.5), 40_000, "unit"),
    "sigma_3_2_unit": (power(1.5, 0.0, -0.5), ansatz.at_plus(0.5), 40_000, "unit"),
    "discrete": (power(1.0, 0.0, 0.0), ansatz.interior(-3.0), 40_000, "asymptotic"),
    "discrete_0_5": (power(1.0, 0.0, 0.0), ansatz.interior(0.5), 40_000, "asymptotic"),
    "discrete_0_5_unit": (power(1.0, 0.0, 0.0), ansatz.interior(0.5), 40_000, "unit"),
    "sigma_1_2": (power(0.5, 0.0, 0.0), ansatz.at_plus(1.0), 40_000, "asymptotic"),
    "sigma_1_2_unit": (power(0.5, 0.0, 0.0), ansatz.at_plus(1.0), 40_000, "unit"),
    "sigma_1_2_discrete": (power(0.5, 0.0, 0.0), ansatz.interior(-2.0), 40_000,
                           "asymptotic"),
    "sigma_1_2_discrete_unit": (power(0.5, 0.0, 0.0), ansatz.interior(-2.0), 40_000,
                                "unit"),
    "lower_half_plane_unit": (None, ansatz.interior(2.0 - 1.0j), 40_000, "unit"),
}


@pytest.mark.parametrize("coefs, lam", [(None, 1.0), ((1.25, 0.0, -0.875), 1.5),
                                        ((0.5, 0.0, 0.0), 1.0)],
                         ids=["laguerre", "whole_line", "sigma_1_2"])
def test_normalisation_estimate_matches_two_windows(laguerre0, coefs, lam):
    # jost's one-window estimate W[f, conj f] at n0 is the two-window
    # check |W[f(l+i0), f(l-i0)] / (2i w) - 1|, from either side
    m, p = power(*coefs) if coefs else laguerre0
    N = 20_000
    fp = solutions.jost(ansatz.at_plus(lam), p, m, N=N)
    fm = solutions.jost(ansatz.at_minus(lam), p, m, N=N)
    two = abs(solutions.wronskian(fp, fm) / (2j * solutions.limit_wronskian(lam, p)) - 1.0)
    assert 0.0 < two < 1e-2
    for win in (fp, fm):
        assert abs(win.meta["normalisation_estimate"] - two) <= 1e-9


@pytest.mark.parametrize("zp", [ansatz.interior(1.0 + 1.0j), ansatz.interior(-1.0)],
                         ids=["complex", "real_regular"])
def test_normalisation_estimate_only_on_the_ac_set(laguerre0, zp):
    m, p = laguerre0
    assert solutions.jost(zp, p, m, N=5000).meta["normalisation_estimate"] is None


class TestOmega:
    @pytest.mark.parametrize("case", list(OMEGA_CASES))
    def test_omega_matches_jost_window(self, laguerre0, case):
        # omega solves for u only on the sweep's lowest blocks, the blocks
        # above reduced to their transfers, and assembles only the head
        # [n0, n0 + 1] before the backward extension; f_{-1} depends on
        # nothing above it, so the value is the whole Jost window's f_{-1}
        model, zp, N, tail_init = OMEGA_CASES[case]
        m, p = model or laguerre0
        om = solutions.omega(zp, p, m, N=N, tail_init=tail_init)
        win = solutions.jost(zp, p, m, N=N, tail_init=tail_init)
        assert om == pytest.approx(solutions.omega_from_window(win), rel=1e-13)

    def test_schwarz_reflection(self, laguerre0):
        m, p = laguerre0
        om_up = solutions.omega(ansatz.interior(1 + 1j), p, m, N=4000)
        om_dn = solutions.omega(ansatz.interior(1 - 1j), p, m, N=4000)
        assert om_dn == pytest.approx(om_up.conjugate(), rel=1e-12)

    def test_real_off_spectrum(self, laguerre0):
        m, p = laguerre0
        om = solutions.omega(ansatz.interior(-2.0), p, m, N=20_000)
        assert abs(om.imag) < 1e-12 * abs(om.real)

    def test_nonvanishing_on_ac(self, laguerre0):
        # |Omega| anchored through the classical weight: the density
        # relation gives kappa = sqrt(w e^lambda sqrt(lambda) / pi ...)
        # for the weight e^-lambda, i.e. kappa^2 = sqrt(lambda) e^lambda / pi
        m, p = laguerre0
        for lam in (0.5, 1.0, 2.0, 4.0):
            om = solutions.omega(ansatz.at_plus(lam), p, m, N=100_000)
            kappa_ref = math.sqrt(math.sqrt(lam) * math.exp(lam) / math.pi)
            assert abs(om) > 0.3
            assert abs(om) == pytest.approx(kappa_ref, rel=2e-4)


class TestVarkappa:
    """kappa_phase, the varkappa of theta_n ~ varkappa n^-nu, in each regime."""

    def test_sigma_one(self, laguerre0):
        _, p = laguerre0
        assert solutions.kappa_phase(ansatz.at_plus(1.0), p) == pytest.approx(1.0)
        assert solutions.limit_wronskian(1.0, p) == pytest.approx(1.0)

    def test_sigma_above_one(self):
        _, p = power(1.25, 0.0, -0.75)   # tau = -0.25
        assert solutions.kappa_phase(ansatz.at_plus(3.0), p) == pytest.approx(0.5)
        assert solutions.kappa_phase(ansatz.at_minus(3.0), p) == pytest.approx(-0.5)
        assert solutions.limit_wronskian(-7.0, p) == pytest.approx(0.5)

    def test_positive_tau_constant(self):
        _, p = power(1.25, 0.0, 0.0)     # tau = 1.25
        val = solutions.kappa_phase(ansatz.interior(0.3 + 2j), p)
        assert val == pytest.approx(1j * math.sqrt(1.25))

    def test_outside_domain(self):
        # off the cut the root is the decaying one, i sqrt(|c|), and there is
        # no limit Wronskian; the a.c. endpoint 0 is a branch point
        _, p = power(0.5, 0.0, 0.0)
        assert solutions.kappa_phase(ansatz.at_plus(-1.0), p) == 1j
        with pytest.raises(OutsideAC):
            solutions.limit_wronskian(-1.0, p)
        with pytest.raises(BranchPoint):
            solutions.kappa_phase(ansatz.at_plus(0.0), p)

    def test_numeric_wronskian_matches_closed_form(self):
        cases = [power(1.25, 0.0, -0.875), power(0.5, 0.0, 0.0),
                 (coeffs.laguerre_model(1.0), coeffs.classify(coeffs.laguerre_model(1.0)))]
        grids = {1.25: (-1.0, 0.5, 2.0), 0.5: (0.5, 1.5, 3.0), 1.0: (1.0, 2.5)}
        for m, p in cases:
            for lam in grids[p.sigma]:
                f = solutions.jost(ansatz.at_plus(lam), p, m, N=120_000)
                w_num = solutions.wronskian(f, f.conjugated()) / 2j
                w_ref = solutions.limit_wronskian(lam, p)
                assert abs(w_num.real / w_ref - 1.0) < 1e-3
                assert abs(w_num.imag) < 1e-6 * w_ref


# real z off the closure of the a.c. set: the kernel is float64 there
REAL_OMEGA_CASES = {
    "discrete_sigma_1": (power(1.0, 0.0, 0.0), ansatz.interior(-3.0), 60_000),
    "laguerre_minus_1": (None, ansatz.interior(-1.0), 200_000),
    "all_discrete_sigma_3_2": (power(1.5, 0.0, 0.0), ansatz.interior(-1.0), 20_000),
}


class TestRealArithmetic:
    """The float64 pipeline against the same points forced through the
    complex one, from the same B_n.  The real remainder rounds its
    divisions as the complex one does, and the two agree to the last bit
    on numpy 2.4 (x86-64); the bounds leave room for other builds."""

    @pytest.mark.parametrize("tail_init, rel", [("unit", 1e-10),
                                                ("asymptotic", 1e-8)])
    @pytest.mark.parametrize("case", list(REAL_OMEGA_CASES))
    def test_omega_matches_complex_pipeline(self, laguerre0, monkeypatch,
                                            case, tail_init, rel):
        model, zp, N = REAL_OMEGA_CASES[case]
        m, p = model or laguerre0
        om = solutions.omega(zp, p, m, N=N, tail_init=tail_init)
        force_complex(monkeypatch)
        om_c = solutions.omega(zp, p, m, N=N, tail_init=tail_init)
        assert om.imag == 0.0
        assert abs(om - om_c) <= rel * abs(om_c)

    def test_eigenvalues_match_complex_pipeline(self, monkeypatch):
        m, p = power(1.0, 0.0, 0.0)
        zeros = spectral.discrete_eigenvalues(-5.0, 0.9, p, m, N=60_000)
        force_complex(monkeypatch)
        ref = spectral.discrete_eigenvalues(-5.0, 0.9, p, m, N=60_000)
        assert len(zeros) == len(ref) >= 1
        assert np.max(np.abs(np.subtract(zeros, ref))) <= 1e-12
