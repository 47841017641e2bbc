import math
import tracemalloc

import numpy as np
import pytest

from conftest import force_complex, log_sample_indices, loglog_slope, phi_at, power
from critjac import ansatz, coeffs, recurrence, solutions, spectral, volterra
from critjac.errors import (BranchPoint, InvalidParameter, OnSpectrum, OutsideAC,
                            WindowMismatch, ZeroCrossing)


def test_jost_window_residual(laguerre0):
    m, p = laguerre0
    win = solutions.jost(ansatz.at_plus(1.0), p, m, N=20_000)
    assert len(win.logmag) == win.n_hi + 2 == 20_002    # n in [-1, N]
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


def test_growing_refuses_a_foreign_f(laguerre0, laguerre1):
    # f fixes the window: one built at another point or from another model
    # is refused, and so is an N passed with it; f at its own point checks
    m, p = laguerre0
    f = solutions.jost(ansatz.interior(-1.0), p, m, N=4000)
    with pytest.raises(WindowMismatch):
        solutions.growing(ansatz.interior(-2.0), p, m, f=f)
    with pytest.raises(WindowMismatch):
        solutions.growing(ansatz.interior(-1.0), laguerre1[1], laguerre1[0], f=f)
    with pytest.raises(InvalidParameter):
        solutions.growing(ansatz.interior(-1.0), p, m, N=999, f=f)
    g = solutions.growing(ansatz.interior(-1.0), p, m, f=f)
    assert abs(g.meta["w_check_0"] - 1.0) < 1e-10


def test_growing_streamed_sum_matches_one_sum(laguerre0):
    # at z = -1 (N = 1e5) the reciprocal sum runs over seven stretches,
    # and its terms climb through two frame cuts that fall inside them;
    # carried across the stretch edges, g / f equals one framed sum over
    # the whole of [n0g, N] to 1e-12 relative
    m, p = laguerre0
    zp = ansatz.interior(-1.0)
    f = solutions.jost(zp, p, m, N=100_000)
    g = solutions.growing(zp, p, m, f=f)
    ms = np.arange(g.meta["n0g"], g.n_hi + 1)
    assert len(range(ms[0], ms[-1] + 1, volterra._CHUNK)) == 7
    a_prev = m.a_fn(np.maximum(ms - 1, 0).astype(float))
    logv = -np.log(a_prev) - f.logmag[ms] - f.logmag[ms + 1]
    unitv = np.conjugate(f.unit[ms] * f.unit[ms + 1])
    _, frames = volterra._sum_frames(logv, unitv)
    assert len(frames) == 3 and all(lo % volterra._CHUNK for lo, _, _ in frames[1:])
    ref_log, ref_unit = volterra._scaled_prefix_sum(logv, unitv)
    k = ms + 1                                         # entries of f_m and g_m
    assert np.max(np.abs(g.logmag[k] - f.logmag[k] - ref_log)) <= 1e-12
    assert np.max(np.abs(g.unit[k] - f.unit[k] * ref_unit)) <= 1e-12


# dips of f for _clear_zeros, {m: nats below the neighbours' mean}, on a
# synthetic window [-1, _ZN] from n0 = 8: three full stretches of
# volterra._CHUNK and a short top one, the stretch edges at 8 + k C
_C = volterra._CHUNK
_ZN0, _ZN = 8, 8 + 3 * _C + 1000
ZERO_CASES = {
    "none": {},
    "shallow": {8 + _C + 100: 25.0},
    "inside": {8 + _C + 100: 40.0},
    "below_edge": {8 + _C - 1: 40.0},
    "above_edge": {8 + _C: 40.0},
    "two_stretches": {8 + 200: 40.0, 8 + 2 * _C + 5000: 40.0},
    "clear_of_top": {_ZN - 10: 40.0},
    "near_top": {_ZN - 9: 40.0},
}


def _whole_window_dips(lm: np.ndarray, n0: int, n_hi: int) -> np.ndarray:
    """Every m in [n0, n_hi) where f_m lies 30 nats below the mean of its
    neighbours, from one scan of the whole window (entry k holds f_{k-1})."""
    ms = np.arange(n0, n_hi)
    return ms[lm[ms + 1] + 30.0 < 0.5 * (lm[ms] + lm[ms + 2])]


@pytest.mark.parametrize("case", list(ZERO_CASES))
def test_clear_zeros_matches_whole_window_scan(laguerre0, case):
    # the top-down scan in stretches that overlap by one entry at each
    # edge lifts the sum's start past the highest dip, as one scan of the
    # whole window does, and refuses a dip within 8 of the window top
    dips = ZERO_CASES[case]
    lm = -0.5 * np.log(np.arange(_ZN + 2) + 1.0)
    for n, depth in dips.items():
        lm[n + 1] -= depth
    f = solutions.SolutionWindow("jost", lm, np.ones(_ZN + 2), ansatz.interior(-1.0),
                                 laguerre0[0])
    found = _whole_window_dips(lm, _ZN0, f.n_hi)
    assert list(found) == sorted(n for n, depth in dips.items() if depth > 30.0)
    want = int(found[-1]) + 1 if len(found) else _ZN0
    assert (want >= f.n_hi - 8) == (case == "near_top")
    if case == "near_top":
        with pytest.raises(ZeroCrossing):
            solutions._clear_zeros(f, _ZN0)
    else:
        assert solutions._clear_zeros(f, _ZN0) == want


def test_growing_sum_has_no_cancellation_off_the_ac_set(laguerre0):
    # at real z off the a.c. closure (-gamma)^n f_n = |A_n| u_n > 0 beyond
    # n0, so every term 1/(a_{m-1} f_{m-1} f_m) has one sign: the sum
    # cannot cancel, and no dip lifts its start
    m, p = laguerre0
    g = solutions.growing(ansatz.interior(-1.0), p, m, N=20_000)
    assert g.meta["cancellation"] is False
    assert g.meta["n0g"] == g.meta["n0"] == 8


def test_growing_flags_a_cancelling_sum(laguerre0):
    # a synthetic f with |a_{m-1} f_{m-1} f_m| = 1 (to rounding) and
    # signs + + - - ... from n0 - 1: the terms alternate +-1, so every
    # other partial sum is zero to rounding, far more than 8 digits below
    # the running maximum
    m, p = laguerre0
    n0, N = 8, 1000
    log_a = np.log(m.a_fn(np.arange(N + 1, dtype=float)))
    lm = np.zeros(N + 2)                              # entry k holds f_{k-1}
    for n in range(n0, N + 1):
        lm[n + 1] = -lm[n] - log_a[n - 1]
    unit = np.ones(N + 2)
    ns = np.arange(n0 - 1, N + 1)
    unit[ns + 1] = np.where((ns - n0 + 1) // 2 % 2, -1.0, 1.0)
    zp = ansatz.interior(-1.0)
    f = solutions.SolutionWindow("jost", lm, unit, zp, m, {"n0": n0})
    g = solutions.growing(zp, p, m, f=f)
    assert g.meta["n0g"] == n0
    assert g.meta["cancellation"] is True


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
    lm, unit = np.zeros(n_from + 3), np.ones(n_from + 3, dtype=complex)
    back_lm, _ = solutions._extend_backward(lm, unit, n_from, m, -2.0 + 0.0j)
    assert calls == []
    assert len(back_lm) == n_from + 1 and np.shares_memory(back_lm, lm)
    assert np.all(np.isfinite(lm))


def test_extend_backward_keeps_exact_zeros_in_a_real_window(laguerre0):
    # Laguerre a_1 = 2, b_1 = 3 at z = 5 with F_1 = F_2 = 1: F_0 = 0
    # exactly, stored as (-inf, 1) in a float64 window; F_{-1} = -a_0 = -1
    m, _ = laguerre0
    lm, unit = np.zeros(4), np.ones(4)
    solutions._extend_backward(lm, unit, 1, m, 5.0 + 0.0j)
    assert lm[1] == -np.inf and unit[1] == 1.0
    assert lm[0] == 0.0 and unit[0] == -1.0
    assert unit.dtype == np.float64


_ALL_DISCRETE = power(1.25, 0.0, 0.5)
# (model, point, real): the windows are float64 exactly at real z off the
# closure of the a.c. set, complex128 at lambda +- i0 and at non-real z
DTYPE_CASES = {
    "laguerre_minus_1": (None, ansatz.interior(-1.0), True),
    "all_discrete": (_ALL_DISCRETE, ansatz.interior(2.3), True),
    "laguerre_plus_i0": (None, ansatz.at_plus(1.0), False),
    "laguerre_minus_i0": (None, ansatz.at_minus(1.0), False),
    "laguerre_complex": (None, ansatz.interior(1.0 + 1.0j), False),
    "all_discrete_complex": (_ALL_DISCRETE, ansatz.interior(3.0 - 0.5j), False),
}


@pytest.mark.parametrize("case", list(DTYPE_CASES))
def test_window_dtype_follows_the_data(laguerre0, case):
    model, zp, real = DTYPE_CASES[case]
    m, p = model or laguerre0
    want = np.float64 if real else np.complex128
    N = 5000
    f = solutions.jost(zp, p, m, N=N)
    sol = volterra.solve(zp, p, m, N=N, n_top=0)
    head = solutions._jost_window(sol, zp, p, m)
    assert f.unit.dtype == head.unit.dtype == want
    assert head.unit[0] == f.unit[0]
    if zp.side == ansatz.INTERIOR:
        assert solutions.growing(zp, p, m, f=f).unit.dtype == want
    # P_n(z) is real at every real z, the a.c. set included
    P = recurrence.poly_eval(m, zp.z, N)
    assert P.unit.dtype == (np.complex128 if zp.z.imag else np.float64)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stage, budget", [("jost", 80.0), ("growing", 50.0)])
def test_window_peak_memory_per_index(laguerre0, stage, budget):
    # a real window is float64 and built once, into its final arrays: at
    # z = -1 jost peaks at the solve's 56 B per index and growing, from a
    # built f, at 47.7 with its reciprocal sum in real arithmetic (72.3
    # in complex); assembled from complex pieces they took 104 and 120
    m, p = laguerre0
    zp = ansatz.interior(-1.0)
    N = 200_000
    solutions.growing(zp, p, m, N=2000)
    if stage == "jost":
        peak = _traced_peak(lambda: solutions.jost(zp, p, m, N=N))
    else:
        f = solutions.jost(zp, p, m, N=N)
        peak = _traced_peak(lambda: solutions.growing(zp, p, m, f=f))
    assert peak / N < budget


def _stage_peaks(zp, p, m, N, names) -> dict:
    """Traced peaks of long_window's stages `names` at one N: each stage's
    own (its allocations above what was held when it started) and the
    sequence's (the windows held together, plus any stage's workspace)."""
    stages = {"jost": lambda: solutions.jost(zp, p, m, N=N),
              "growing": lambda: solutions.growing(zp, p, m, f=held[0]),
              "poly_eval": lambda: recurrence.poly_eval(m, zp.z, N)}
    held, peaks = [], {"sequence": 0}
    tracemalloc.start()
    try:
        for name in names:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            held.append(stages[name]())
            peak = tracemalloc.get_traced_memory()[1]
            peaks[name] = peak - base
            peaks["sequence"] = max(peaks["sequence"], peak)
    finally:
        tracemalloc.stop()
    return peaks


@pytest.fixture(scope="module")
def long_window_slopes(laguerre0):
    """Growth of each traced peak in bytes per window index between
    N = 2e5 and 1e6, at Laguerre z = -1 (long_window's point) and, for
    jost alone, at the a.c. point 1 + i0, where u and f are complex."""
    m, p = laguerre0
    out = {}
    for zp, names in ((ansatz.interior(-1.0), ("jost", "growing", "poly_eval")),
                      (ansatz.at_plus(1.0), ("jost",))):
        _stage_peaks(zp, p, m, 5000, names)           # first calls' one-off allocations
        lo, hi = (_stage_peaks(zp, p, m, N, names) for N in (200_000, 1_000_000))
        out[zp.side] = {k: (hi[k] - lo[k]) / 800_000 for k in lo}
    return out


@pytest.mark.parametrize("side, stage, budget", [
    (ansatz.INTERIOR, "jost", 25.0),        # u 8 and f 16 B per index
    (ansatz.PLUS, "jost", 41.0),            # u 16 and f 24
    (ansatz.INTERIOR, "growing", 17.0),     # g 16, f prebuilt
    (ansatz.INTERIOR, "poly_eval", 17.0),   # P 16
    (ansatz.INTERIOR, "sequence", 50.0),    # f, g and P held together: 48
])
def test_long_window_peak_slope(long_window_slopes, side, stage, budget):
    # every stage writes its window in stretches straight into its final
    # arrays, so its peak grows only by the arrays it returns (and jost's
    # by the solve's u); the workspace does not grow with N.  Measured:
    # 24.0, 40.0, 16.0, 16.0 and 48.0 B per index; with whole-window
    # temporaries they were 56.0, 80.0, 32.0, 32.3 and 64.3
    assert long_window_slopes[side][stage] <= budget


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
        # nothing above it, so the value is the whole Jost window's f_{-1}.
        # The unit tail is the eigenvalue search's alone: there the head
        # and the whole window come from the solve itself
        model, zp, N, tail_init = OMEGA_CASES[case]
        m, p = model or laguerre0
        if tail_init == "asymptotic":
            om = solutions.omega(zp, p, m, N=N)
            win = solutions.jost(zp, p, m, N=N)
        else:
            head, whole = (volterra.solve(zp, p, m, N=N, tail_init="unit", n_top=n_top)
                           for n_top in (0, None))
            om = solutions.omega_from_window(solutions._jost_window(head, zp, p, m))
            win = solutions._jost_window(whole, zp, p, m)
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
        # the unit tail through the eigenvalue search's path, which reads
        # Re Omega only
        model, zp, N = REAL_OMEGA_CASES[case]
        m, p = model or laguerre0

        def omega():
            if tail_init == "unit":
                return spectral._omega_real(zp.z.real, p, m, N)[0]
            return solutions.omega(zp, p, m, N=N)

        om = omega()
        force_complex(monkeypatch)
        om_c = omega()
        assert om.imag == 0.0
        assert abs(om - om_c) <= rel * abs(om_c)

    def test_eigenvalues_match_complex_pipeline(self, monkeypatch):
        m, p = power(1.0, 0.0, 0.0)
        zeros = spectral.discrete_eigenvalues(-5.0, 0.9, p, m, N=60_000)
        force_complex(monkeypatch)
        ref = spectral.discrete_eigenvalues(-5.0, 0.9, p, m, N=60_000)
        assert len(zeros) == len(ref) >= 1
        assert np.max(np.abs(np.subtract(zeros, ref))) <= 1e-12
