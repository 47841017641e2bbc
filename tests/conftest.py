import numpy as np
import pytest

from critjac import ansatz, coeffs, volterra


@pytest.fixture(scope="session")
def laguerre0():
    m = coeffs.laguerre_model(0.0)
    return m, coeffs.classify(m)


@pytest.fixture(scope="session")
def laguerre1():
    m = coeffs.laguerre_model(1.0)
    return m, coeffs.classify(m)


def power(sigma, alpha, beta, gamma=1.0):
    m = coeffs.power_model(sigma, alpha, beta, gamma)
    return m, coeffs.classify(m)


def loglog_slope(ns, values):
    """Least-squares slope of log(values) against log(ns)."""
    ns = np.asarray(ns, dtype=float)
    A = np.vstack([np.log(ns), np.ones_like(ns)]).T
    return float(np.linalg.lstsq(A, np.log(np.asarray(values)), rcond=None)[0][0])


def log_sample_indices(lo, hi, count=40):
    return np.unique(np.logspace(np.log10(lo), np.log10(hi), count).astype(int))


def theta_on(ctx, n0, n1):
    """theta_n for n in [n0, n1) at ctx's canonical point."""
    return ansatz.theta_window(ctx, ansatz.Stretch(ctx.params, None, n0, n1))


def remainder_at(ctx, model, ns):
    """r_n at the indices ns, from one remainder_window over [n_start + 1, max(ns)]."""
    ns = np.asarray(ns, dtype=int)
    n0, n1 = ctx.n_start, int(ns.max()) + 1
    st = ansatz.Stretch(ctx.params, model, n0, n1)
    B = ansatz.ansatz_ratio_window(ctx, st, ansatz.theta_window(ctx, st))
    return ansatz.remainder_window(ctx, st, B)[ns - n0 - 1]


def phi_at(zp, params, ns):
    """phi_n at the indices ns, from one phi_window over the default
    window, conjugated back to zp as phase_context says."""
    ctx = ansatz.phase_context(zp, params)
    ns = np.asarray(ns, dtype=int)
    phi = ansatz.phi_window(ctx, int(ns.max()))[ns - ctx.n_start]
    return -phi.conjugate() if ctx.conj else phi


def force_complex(monkeypatch):
    """Run the Volterra pipeline in complex arithmetic at real points too."""
    ratio = volterra.ansatz_ratio_window
    monkeypatch.setattr(volterra, "ansatz_ratio_window",
                        lambda *args: ratio(*args).astype(complex))
