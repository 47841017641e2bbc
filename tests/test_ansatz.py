import math

import numpy as np
import pytest

from conftest import log_sample_indices, loglog_slope, phi_at, power, remainder_at, theta_on
from critjac import ansatz, coeffs
from critjac.errors import BranchPoint, InvalidParameter


def thetas(zp, params, n0, n1):
    """theta_n for n in [n0, n1) from a window that starts at n0,
    conjugated back to zp as phase_context says."""
    ctx = ansatz.phase_context(zp, params, n0)
    th = theta_on(ctx, n0, n1)
    return -th.conjugate() if ctx.conj else th


def theta_at(n, zp, params):
    return complex(thetas(zp, params, n, n + 1)[0])


def ansatz_logmag(zp, params, ns):
    """ln|A_n| = -rho ln n - Im phi_n at the indices ns."""
    ns = np.asarray(ns, dtype=int)
    return -params.rho * np.log(ns) - phi_at(zp, params, ns).imag


class TestSqrtCut:
    def test_negative_real(self):
        for side in (ansatz.PLUS, ansatz.MINUS, ansatz.INTERIOR):
            assert ansatz.sqrt_cut(-1.0, side) == pytest.approx(1j)

    def test_positive_real_plus(self):
        assert ansatz.sqrt_cut(4.0, ansatz.PLUS) == pytest.approx(2.0)

    def test_upper_half(self):
        assert ansatz.sqrt_cut(2j) == pytest.approx(1 + 1j)

    def test_branch_point(self):
        with pytest.raises(BranchPoint):
            ansatz.sqrt_cut(0.0)

    def test_minus_side_on_cut_rejected(self):
        with pytest.raises(InvalidParameter):
            ansatz.sqrt_cut(4.0, ansatz.MINUS)

    def test_im_nonnegative_everywhere(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=50) + 1j * rng.normal(size=50)
        for t in pts:
            r = ansatz.sqrt_cut(complex(t))
            assert r.imag >= 0
            assert r * r == pytest.approx(complex(t))


class TestPhases:
    def test_t_values_examples(self, laguerre0):
        def t_at(n, z, p):
            return ansatz.t_values([n], p.gamma * z, p)[0]

        _, p0 = laguerre0
        assert t_at(4, 1.0, p0) == pytest.approx(0.25)
        _, p1 = power(1.25, 0.0, -1.125)   # tau = -1
        assert t_at(100, 0.0, p1) == pytest.approx(0.01)
        _, p2 = power(1.0, 0.0, 0.0)       # tau = 1
        assert t_at(10, 0.0, p2) == pytest.approx(-0.1)

    def test_theta_examples(self, laguerre0):
        _, p0 = laguerre0
        assert theta_at(4, ansatz.at_plus(1.0), p0) == pytest.approx(0.5)
        _, pm = power(1.25, 0.0, -1.125)   # tau = -1; ac set is R
        assert theta_at(100, ansatz.at_plus(0.0), pm) == pytest.approx(0.1)
        _, pp = power(1.25, 0.0, -0.125)   # tau = +1
        assert theta_at(100, ansatz.interior(0.0), pp) == pytest.approx(0.1j)

    def test_phi_prefix_convention(self, laguerre0):
        _, p = laguerre0
        ctx = ansatz.phase_context(ansatz.at_plus(1.0), p)
        n0 = ctx.n_start
        phi = ansatz.phi_window(ctx, n0 + 20)
        assert len(phi) == 21 and phi[0] == 0.0
        np.testing.assert_allclose(np.diff(phi),
                                   theta_on(ctx, n0, n0 + 20),
                                   rtol=0.0, atol=1e-14)

    def test_im_theta_nonnegative(self):
        rng = np.random.default_rng(3)
        cases = [power(0.5, 0.0, 0.3), power(0.8, 0.1, -0.4),
                 power(1.25, 0.0, -0.875), power(1.5, 0.0, 0.25)]
        for m, p in cases:
            for _ in range(6):
                z = complex(rng.normal(), rng.normal())
                zp = ansatz.interior(z) if z.imag != 0 else ansatz.at_plus(z.real)
                n0 = ansatz.default_n_start(zp, p)
                assert np.all(thetas(zp, p, n0, n0 + 50).imag >= -1e-15)

    def test_conjugate_point_flips(self):
        # real tau and real T-coefficients give theta(conj z) = -conj theta(z),
        # which keeps Im theta >= 0 on both half-planes and makes the
        # assembled solutions Schwarz-symmetric.
        _, p = power(1.25, 0.0, -0.875)
        z = 0.7 + 0.4j
        for n in (20, 57, 300):
            t_up = theta_at(n, ansatz.interior(z), p)
            t_dn = theta_at(n, ansatz.interior(z.conjugate()), p)
            assert t_dn == pytest.approx(-t_up.conjugate())
            assert t_dn.imag >= 0
            # the same identity evaluated directly at conj(w), unconjugated
            up = ansatz.phase_context(ansatz.interior(z), p, n)
            raw = ansatz.PhaseContext(up.w.conjugate(), False, n, p)
            t_raw = complex(theta_on(raw, n, n + 1)[0])
            assert t_raw == pytest.approx(-t_up.conjugate())

    def test_im_phi_monotone_upper_half(self, laguerre0):
        _, p = laguerre0
        ctx = ansatz.phase_context(ansatz.interior(1 + 1j), p)
        vals = ansatz.phi_window(ctx, ctx.n_start + 199).imag
        assert len(vals) == 200 and np.all(np.diff(vals) >= 0)

    def test_interior_on_cut_rejected(self):
        _, p = power(1.25, 0.0, -0.875)  # ac set = R
        with pytest.raises(InvalidParameter):
            ansatz.phase_context(ansatz.interior(0.3), p)

    def test_threshold_branch_point(self, laguerre0):
        _, p = laguerre0
        with pytest.raises(BranchPoint):
            ansatz.phase_context(ansatz.at_plus(0.0), p)

    def test_turning_point_beyond_float_range(self):
        # sigma = 1/2, tau = -1.5: t_n changes sign at n = (w/tau)^-2, past
        # 1e308 for w = -1e-200; no window reaches it
        _, p = power(0.5, 1.0, 0.0)
        with pytest.raises(InvalidParameter, match="beyond n = 1e308"):
            ansatz.phase_context(ansatz.interior(-1e-200), p)
        # with a window start given, nothing looks for the sign change
        assert ansatz.phase_context(ansatz.interior(-1e-200), p, 8).n_start == 8


class TestAnsatzValue:
    def test_at_start_magnitude(self, laguerre0):
        _, p = laguerre0
        zp = ansatz.at_plus(1.0)
        n0 = ansatz.default_n_start(zp, p)
        assert ansatz.phase_context(zp, p).n_start == n0
        assert ansatz_logmag(zp, p, [n0])[0] == pytest.approx(-p.rho * math.log(n0))

    def test_exponential_decay_positive_tau(self):
        # tau > 0: |A_n| e^{2 sqrt(tau n)} n^rho stays bounded (z = 0)
        _, p = power(1.25, 0.0, -0.125)  # tau = 1
        ns = np.array([100, 1000, 10000, 100000])
        vals = (ansatz_logmag(ansatz.interior(0.0), p, ns)
                + 2.0 * np.sqrt(p.tau * ns) + p.rho * np.log(ns))
        assert max(vals) - min(vals) < 0.2

    def test_sigma_three_halves_power_law(self):
        # theta_n = n^{-1/2} sqrt(|tau| + z n^{-1/2}) expands with a half:
        # Im phi_n = (eps / (2 sqrt(|tau|))) ln n, so the envelope exponent
        # is -1/2 - eps/(2 sqrt(|tau|)).
        _, p = power(1.5, 0.0, -1.25)    # tau = -1
        eps = 0.25
        ns = log_sample_indices(3e3, 3e5, 25)
        lm = ansatz_logmag(ansatz.interior(0.5 + eps * 1j), p, ns)
        A = np.vstack([np.log(ns), np.ones(len(ns))]).T
        slope = float(np.linalg.lstsq(A, lm, rcond=None)[0][0])
        expected = -0.5 - eps / (2.0 * math.sqrt(abs(p.tau)))
        assert slope == pytest.approx(expected, abs=0.02)


class TestRemainder:
    @pytest.mark.parametrize(
        "model_params, z, delta",
        [
            ((None), 1 + 1j, 2.0),                    # Laguerre p=0
            ((1.25, 0.0, -0.875), 1 + 1j, 1.75),      # sigma + 1/2
            ((0.8, 0.0, 0.0), 1 + 1j, 1.6),           # min(2s, 2-s/2)
            ((0.5, 0.0, 0.0), 1 + 1j, 1.5),           # min((L+1)s, 2-s/2)
        ],
    )
    def test_decay_slopes(self, model_params, z, delta):
        if model_params is None:
            m = coeffs.laguerre_model(0.0)
            p = coeffs.classify(m)
        else:
            m, p = power(*model_params)
        assert p.delta == pytest.approx(delta)
        ns = log_sample_indices(1e3, 1e5, 40)
        ctx = ansatz.phase_context(ansatz.interior(z), p)
        rs = np.abs(remainder_at(ctx, m, ns))
        slope = loglog_slope(ns, rs)
        assert abs(slope + delta) <= 0.15

    def test_remainder_conjugation(self, laguerre0):
        # The pipeline evaluates one of z, conj z at the other's canonical
        # point and conjugates.  That is exact: the defect evaluated
        # directly at conj(w) is the conjugate of the canonical one.
        m, p = laguerre0
        up = ansatz.phase_context(ansatz.interior(1 + 1j), p)
        dn = ansatz.phase_context(ansatz.interior(1 - 1j), p)
        assert up.w == dn.w and up.conj != dn.conj
        raw = ansatz.PhaseContext(up.w.conjugate(), False, up.n_start, p)
        r = remainder_at(up, m, [500])[0]
        r_raw = remainder_at(raw, m, [500])[0]
        assert r_raw == pytest.approx(r.conjugate())


class TestAsymptoticPhase:
    def test_displayed_values(self, laguerre0):
        _, p0 = laguerre0
        assert ansatz.asymptotic_phase(10_000, 1.0, p0) == pytest.approx(200.0)
        _, pm = power(1.25, 0.0, -1.125)  # tau = -1
        assert ansatz.asymptotic_phase(10_000, 0.0, pm) == pytest.approx(200.0)
        _, ps = power(0.5, 0.0, 0.0)
        assert ansatz.asymptotic_phase(10_000, 1.0, ps) == pytest.approx(4000.0 / 3.0)

    def test_gap_bounded_sigma_one(self, laguerre0):
        _, p = laguerre0
        ns = (10_000, 40_000, 160_000, 640_000)
        phi = phi_at(ansatz.at_plus(1.0), p, ns)
        gaps = [ph.real - ansatz.asymptotic_phase(n, 1.0, p).real
                for n, ph in zip(ns, phi)]
        assert max(gaps) - min(gaps) < 5e-3

    def test_gap_growth_above_one(self):
        # sigma in (1, 3/2): gap grows no faster than n^{5/2 - 2 sigma}
        _, p = power(1.1, 0.0, -0.8)  # tau = -0.5
        ns = (10_000, 100_000, 1_000_000)
        phi = phi_at(ansatz.at_plus(0.7), p, ns)
        pow_ = 2.5 - 2 * p.sigma
        scaled = [abs(ph.real - ansatz.asymptotic_phase(n, 0.7, p).real)
                  / (1.0 + n ** pow_) for n, ph in zip(ns, phi)]
        assert max(scaled) < 10.0 * max(min(scaled), 1e-6)


class TestKeptStretches:
    """stretch() hands out a search's kept stretches (keep_stretches)."""

    def test_kept_cut_and_fresh(self, monkeypatch):
        # inside the scope the same edges give the kept stretch, a higher
        # start its cut, a lower start a new stretch kept in its place;
        # another model, a full scope and the outside build new ones
        m, p = power(1.0, 0.0, 0.0)
        other, _ = power(1.0, 0.0, 0.0)
        monkeypatch.setattr(ansatz, "_SEARCH_KEEP", 2)
        with ansatz.keep_stretches(p, m) as kept:
            a = ansatz.stretch(p, m, 20, 101)
            assert ansatz.stretch(p, m, 20, 101) is a and kept == {101: a}
            cut = ansatz.stretch(p, m, 30, 101)
            assert (cut.lo, cut.hi) == (30, 101) and np.shares_memory(cut.b, a.b)
            low = ansatz.stretch(p, m, 8, 101)
            assert low is not a and kept == {101: low}
            assert ansatz.stretch(p, other, 8, 101) is not low
            top = ansatz.stretch(p, m, 101, 201)
            assert kept == {101: low, 201: top}
            assert ansatz.stretch(p, m, 201, 301) is not ansatz.stretch(p, m, 201, 301)
            assert len(kept) == 2
        assert ansatz.stretch(p, m, 8, 101) is not low
        for name in ("ns", "sqrt_n", "mod", "a", "log_x", "ratio", "root",
                     "inv_root", "inv_geo", "b"):
            assert np.array_equal(getattr(cut, name),
                                  getattr(ansatz.Stretch(p, m, 30, 101), name))
