import functools
import itertools
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from scipy.optimize import brentq

from conftest import power
from critjac import ansatz, coeffs, recurrence, solutions, spectral, volterra
from critjac.errors import (
    CritJacError,
    EigenvalueHit,
    InvalidParameter,
    NumericFailure,
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


WHOLE_LINE = power(1.25, 0.0, -0.875)


@functools.cache
def whole_line_xi(lam: float, N: int) -> float:
    m, p = WHOLE_LINE
    return spectral.density(lam, p, m, N=N).xi


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

    @pytest.mark.parametrize("case", ["laguerre", "whole_line"])
    def test_sweep_matches_each_point_alone(self, laguerre0, case):
        # the sweep solves its grid as one group; every sample is the
        # point's density alone bit for bit, eta continued by nearest branch
        m, p = laguerre0 if case == "laguerre" else power(1.25, 0.0, -0.875)
        lams = [0.5, 1.0, 2.0, 4.0] if case == "laguerre" else [-2.0, -0.5, 0.0, 1.5]
        prev = None
        for lam, got in zip(lams, spectral.density_sweep(lams, p, m, N=20_000)):
            one = spectral.density(lam, p, m, N=20_000)
            prev = spectral.nearest_branch(one.eta, prev)
            assert got == spectral.DensitySample(one.lam, one.xi, one.kappa, prev, one.w)

    def test_group_keeps_each_point_error(self, laguerre0):
        # points outside the a.c. set or in a threshold's guard band keep
        # their errors in place; the rest are their densities alone
        m, p = laguerre0
        lams = [-1.0, 1.0, 5e-4, 2.0]
        for lam, got in zip(lams, spectral.density_group(lams, p, m, N=20_000)):
            try:
                assert got == spectral.density(lam, p, m, N=20_000)
            except CritJacError as exc:
                assert (type(got), str(got)) == (type(exc), str(exc))
        with pytest.raises(OutsideAC):
            spectral.density_sweep(lams, p, m, N=20_000)

    def test_sweep_unwraps_eta(self, laguerre0):
        m, p = laguerre0
        samples = spectral.density_sweep(np.linspace(4.0, 8.0, 9), p, m, N=20_000)
        etas = np.array([s.eta for s in samples])
        # nearest-branch continuation keeps steps under pi
        assert np.max(np.abs(np.diff(etas))) < math.pi

    @pytest.mark.parametrize("lam, N", [(-3.0, 20_000), (-3.0, 100_000), (-2.0, 2100)])
    def test_short_whole_line_window_estimates_its_error(self, lam, N):
        # whole-line windows only a few times longer than their start
        # (n0 = 10368 at lambda = -3, 2048 at -2) are solved, and jost's
        # a-posteriori normalisation estimate tracks the error in xi against
        # the N = 1e6 window: 1.06 to 1.27 times it here
        m, p = WHOLE_LINE
        xi = spectral.density(lam, p, m, N=N).xi
        err = abs(xi / whole_line_xi(lam, 1_000_000) - 1.0)
        est = solutions.jost(ansatz.at_plus(lam), p, m, N=N).meta["normalisation_estimate"]
        assert 0.5 * err <= est <= 2.0 * err


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
        # P_min f_max / Omega from the whole window, and phi_n is asked
        # for no further than max(n, m): one stretch [n0, max(n, m)] (n0 = 8
        # here)
        mdl, p = power(1.25, 0.0, -0.875)
        zp = ansatz.interior(-2.0 + 1.0j)
        N = 100_000
        win = solutions.jost(zp, p, mdl, N=N)
        lo, hi = min(n, m), max(n, m)
        P = recurrence.poly_eval(mdl, zp.z, lo)
        ref = (P.value(lo) * win.value(hi)).to_complex() / solutions.omega_from_window(win)
        asked = []
        phi = solutions.phi_stretch

        def counting(ctx, lo, hi, phi_lo):
            asked.append((lo, hi))
            return phi(ctx, lo, hi, phi_lo)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solutions, "phi_stretch", counting)
            r = spectral.resolvent_element(n, m, zp, p, mdl, N=N)
        assert r == pytest.approx(ref, rel=1e-13)
        n0 = win.meta["n0"]
        assert asked == [(n0, max(hi, n0 + 1))]

    def test_index_beyond_window(self, laguerre0, monkeypatch):
        # refused before any kernel stretch is built, not after a solve
        m, p = laguerre0
        built = []
        chunk = volterra._local_chunk

        def counting(*args):
            built.append(args[2])
            return chunk(*args)

        monkeypatch.setattr(volterra, "_local_chunk", counting)
        with pytest.raises(InvalidParameter, match="beyond the window top"):
            spectral.resolvent_element(0, 5005, ansatz.interior(1 + 1j), p, m,
                                       N=5000)
        assert built == []

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

    @pytest.mark.parametrize("gamma, lo, hi", [(1.0, -5.0, 1.0), (-1.0, -1.0, 5.0)])
    def test_interval_touching_the_ac_closure_rejected(self, gamma, lo, hi):
        # sigma 1, tau 1: the a.c. set is (1, inf) for gamma = 1 and
        # (-inf, -1) for gamma = -1; an interval ending at its endpoint
        # touches the closure and is refused before Omega is evaluated
        m, p = power(1.0, 0.0, 0.0, gamma)
        with pytest.raises(OverlapsAC, match="closure"):
            spectral.eigenvalue_report(lo, hi, p, m)

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

    def test_omega_evaluation_takes_no_prefix_sum(self, monkeypatch):
        # the window needs Lambda_n and Rcal_n alone: an evaluation of the
        # search (a bare window) takes no framed prefix sum, and the
        # asymptotic tail takes one per stretch of its window
        m, p = power(1.0, 0.0, 0.0)
        calls = []
        prefix_sum = volterra._sum_frames

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return prefix_sum(*args, **kwargs)

        monkeypatch.setattr(volterra, "_sum_frames", counted)
        spectral._omega_real(-3.0, p, m, 40_000)
        assert calls == []
        solutions.omega(ansatz.interior(-3.0), p, m, N=40_000)
        assert len(calls) == -(-40_000 // volterra._CHUNK)

    # (sigma, beta, gamma) and the points lambda: both gammas at sigma 1
    # (tau = 1), the all-discrete sigma 5/4 and sigma 3/2 with tau = 2
    COUNT_POINTS = [((1.0, 0.0, 1.0), lam) for lam in (-3.0, -1.0, -0.3, 0.5)] \
        + [((1.0, 0.0, -1.0), lam) for lam in (3.0, 1.0, 0.3, -0.5)] \
        + [((1.25, 0.5, 1.0), lam) for lam in (2.0, 6.0)] \
        + [((1.5, 0.25, 1.0), lam) for lam in (-1.0, 0.0, 1.0, 2.0, 3.0)]

    @staticmethod
    def matrix_count(m, lam, gamma):
        # eigenvalues of the 2e4 truncation below lam (gamma = 1) or above
        window = (-1e9, lam) if gamma > 0 else (lam, 1e9)
        return len(recurrence.truncated_matrix_eigs(m, 20_000, window=window))

    @pytest.mark.parametrize("model, lam", COUNT_POINTS)
    def test_node_count_matches_matrix(self, model, lam):
        sigma, beta, gamma = model
        m, p = power(sigma, 0.0, beta, gamma)
        _, count = spectral._omega_real(lam, p, m, 40_000)
        assert count == self.matrix_count(m, lam, gamma)

    @pytest.mark.parametrize("lam", [-5.0, -1.0, -0.1])
    def test_laguerre_node_count_zero(self, laguerre0, lam):
        m, p = laguerre0
        assert spectral._omega_real(lam, p, m, 40_000)[1] == 0

    def test_count_search_finds_every_eigenvalue(self):
        # the all-discrete model has nine eigenvalues in [1, 8], the
        # closest 0.45 apart: none missed, each within 1e-6 of the matrix
        m, p = power(1.25, 0.0, 0.5)
        rep = spectral.eigenvalue_report(1.0, 8.0, p, m, N=20_000)
        ref = recurrence.truncated_matrix_eigs(m, 20_000, window=(1.0, 8.0))
        assert rep["count"] == len(rep["omega_zeros"]) == len(ref) == 9
        assert np.max(np.abs(np.subtract(rep["omega_zeros"], ref))) < 1e-6
        assert rep["matrix_settled"] and rep["agree"]

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

        def unit(lam):                   # the eigenvalue search's window
            return spectral._omega_real(lam, p, m, 20_000)[0]

        def asymptotic(lam):
            return solutions.omega(ansatz.interior(complex(lam)), p, m, N=20_000).real

        zeros = [brentq(f, eig - 1e-3, eig + 1e-3, xtol=1e-13) for f in (unit, asymptotic)]
        assert abs(zeros[0] - zeros[1]) < 1e-9

    # (sigma, beta, gamma), an eigenvalue and the long window N: both
    # gammas at sigma 1 (tau = 1), the all-discrete sigma 5/4, sigma 3/2
    # with tau = 2, sigma 1/2
    WINDOW_POINTS = [
        ((1.0, 0.0, 1.0), -0.4577, 60_000),
        ((1.0, 0.0, -1.0), 0.4577, 60_000),
        ((1.25, 0.5, 1.0), 2.7806, 20_000),
        ((1.25, 0.5, 1.0), 7.5359, 20_000),
        ((1.5, 0.25, 1.0), -0.3702, 20_000),
        ((1.5, 0.25, 1.0), 2.5055, 20_000),
        ((0.5, 0.0, 1.0), -0.4764, 20_000),
    ]

    @staticmethod
    def search_zero(m, p, eig, N):
        """The zero of Re Omega near eig from _omega_real's window, capped
        by N."""
        return brentq(lambda x: spectral._omega_real(x, p, m, N)[0],
                      eig - 1e-3, eig + 1e-3, xtol=1e-14)

    @pytest.mark.parametrize("model, eig, N", WINDOW_POINTS)
    def test_search_window_keeps_the_zero(self, monkeypatch, model, eig, N):
        # the window that ends where 2 Im(phi_N - phi_n0) passes
        # SEARCH_DECAY puts the zero of Re Omega where a long window does
        sigma, beta, gamma = model
        m, p = power(sigma, 0.0, beta, gamma)
        short = self.search_zero(m, p, eig, None)
        assert spectral._search_top(short, p, None) < N
        monkeypatch.setattr(spectral, "SEARCH_DECAY", math.inf)   # window = cap
        assert spectral._search_top(short, p, N) == N
        assert abs(short - self.search_zero(m, p, eig, N)) < 1e-12

    def test_short_explicit_window_moves_the_zero(self):
        # N caps the window: at n0 + 3, below the rule's top, the zero
        # moves by more than the search's tolerance
        m, p = power(1.0, 0.0, 0.0)
        n0 = ansatz.default_n_start(ansatz.interior(-0.4577), p)
        assert spectral._search_top(-0.4577, p, n0 + 3) == n0 + 3
        moved = abs(self.search_zero(m, p, -0.4577, n0 + 3)
                    - self.search_zero(m, p, -0.4577, None))
        assert moved > spectral.EIG_XTOL

    def test_search_window_capped_by_n(self):
        # the rule's top at lambda = 0.9 (sigma 1) is 1182; an explicit N
        # above it changes nothing, one below it is the top, and one too
        # short is refused
        m, p = power(1.0, 0.0, 0.0)
        assert spectral._search_top(0.9, p, None) == spectral._search_top(0.9, p, 60_000)
        assert spectral._search_top(0.9, p, 500) == 500
        with pytest.raises(InvalidParameter, match="too short"):
            spectral._omega_real(0.9, p, m, 10)
        # all discrete at lambda = 15 (n0 = 15803): the phase passes the
        # threshold at 18505, so the window is 2 n0 long, or N below that
        _, p = power(1.25, 0.0, 0.5)
        n0 = ansatz.default_n_start(ansatz.interior(15.0), p)
        assert spectral._search_top(15.0, p, None) == 2 * n0
        assert spectral._search_top(15.0, p, 20_000) == 20_000


def test_minus_side_conjugate_amplitude(laguerre0):
    m, p = laguerre0
    om_plus = solutions.omega(ansatz.at_plus(1.0), p, m, N=30_000)
    om_minus = solutions.omega(ansatz.at_minus(1.0), p, m, N=30_000)
    assert om_minus == pytest.approx(om_plus.conjugate(), rel=1e-12)


def _stub_omega(roots, gamma):
    """_omega_real with simple zeros at roots and the node count of a
    real Jost head: eigenvalues <= lam for gamma = 1, >= lam for -1."""
    roots = np.asarray(roots)

    def stub(lam, *args):
        count = np.sum(roots <= lam) if gamma > 0 else np.sum(roots >= lam)
        return float(np.prod(lam - roots)), int(count)
    return stub


def test_close_pair_separated_by_count(monkeypatch):
    # two simple zeros 1e-4 apart: bisection on the node count isolates
    # each in a bracket of its own, and Brent finds both
    m, p = power(1.0, 0.0, 0.0)
    roots = [-2.0, -2.0 + 1e-4]
    monkeypatch.setattr(spectral, "_omega_real", _stub_omega(roots, 1.0))
    rep = spectral.eigenvalue_report(-5.0, 0.9, p, m, N=20_000)
    assert rep["count"] == 2
    assert rep["omega_zeros"] == pytest.approx(roots, abs=spectral.EIG_XTOL)


def test_pair_closer_than_xtol_raises(monkeypatch):
    # no bracket wider than EIG_XTOL separates the pair: the search names
    # the count instead of merging the two into one zero
    m, p = power(1.0, 0.0, 0.0)
    monkeypatch.setattr(spectral, "_omega_real",
                        _stub_omega([-2.0, -2.0 + 1e-12], 1.0))
    with pytest.raises(NumericFailure, match="node count 2"):
        spectral.eigenvalue_report(-5.0, 0.9, p, m, N=20_000)


@pytest.mark.parametrize("gamma, lo, hi", [(1.0, -4.0, 0.0), (-1.0, 0.0, 4.0)])
def test_exact_zeros_at_ends_and_midpoint(monkeypatch, gamma, lo, hi):
    # Omega == 0 at both ends and at the first midpoint: each is reported
    # once, and the zero between them is still found
    m, p = power(1.0, 0.0, 0.0, gamma)
    roots = [lo, 0.5 * (lo + hi), 0.5 * (lo + hi) + 0.3, hi]
    monkeypatch.setattr(spectral, "_omega_real", _stub_omega(roots, gamma))
    rep = spectral.eigenvalue_report(lo, hi, p, m, N=20_000)
    assert rep["count"] == 4
    assert rep["omega_zeros"] == pytest.approx(roots, abs=spectral.EIG_XTOL)


def test_unsettled_matrix_reference_does_not_agree(monkeypatch):
    # a truncation that moves by 2e-7 at every doubling never settles:
    # the report says so, and agree fails although every count matches
    # and every deviation is below EIG_CROSS_TOL
    m, p = power(1.0, 0.0, 0.0)
    eig = spectral.discrete_eigenvalues(-5.0, 0.9, p, m, N=20_000)[0]
    calls = itertools.count()
    monkeypatch.setattr(
        recurrence, "truncated_matrix_eigs",
        lambda model, N, window=None: np.array([eig + (-1) ** next(calls) * 1e-7]))
    rep = spectral.eigenvalue_report(-5.0, 0.9, p, m, N=20_000)
    assert rep["matrix_settled"] is False
    assert rep["matrix_N"] == spectral.MATRIX_CAP_N
    assert rep["count"] == len(rep["omega_zeros"]) == len(rep["matrix_eigenvalues"]) == 1
    assert max(rep["deviations"]) < spectral.EIG_CROSS_TOL
    assert rep["agree"] is False
