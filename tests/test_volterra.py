import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import loglog_slope, power, remainder_at
from critjac import ansatz, volterra
from critjac.errors import NumericFailure, TruncationTooShort
from critjac.logcomplex import LogComplex


def iterate_series(lam: np.ndarray, rr: np.ndarray, iterations: int = 30) -> np.ndarray:
    """Successive-approximation series on a small window (cross-check only).

    Builds G_{n,m} densely (O(K^2) memory) and sums the iteration series;
    numerically identical to the sweep when the series converges.
    """
    K = len(lam) - 1
    X = np.concatenate([[1.0 + 0.0j], np.cumprod(lam[1:])])
    Xinv = 1.0 / X
    PS = np.cumsum(Xinv)
    rr = np.array(rr, dtype=complex)
    rr[0] = 0.0  # unused slot
    # G[n, m] = X_{m-1} * (PS_{m-1} - PS_{n-1}) for m > n
    G = np.zeros((K + 1, K + 1), dtype=complex)
    for n in range(K + 1):
        ms = np.arange(n + 1, K + 1)
        base = PS[n - 1] if n >= 1 else 0.0
        G[n, n + 1:] = X[ms - 1] * (PS[ms - 1] - base)
    u = np.ones(K + 1, dtype=complex)
    term = np.ones(K + 1, dtype=complex)
    for _ in range(iterations):
        term = G @ (rr * term)
        u = u + term
        if np.max(np.abs(term)) < 1e-16:
            break
    return u


def scalar_sweep(lam: np.ndarray, rr: np.ndarray, u_top: complex = 1.0 + 0.0j,
                 d_top: complex = 0.0 + 0.0j) -> np.ndarray:
    """The backward sweep as one step per index (reference oracle only).

    D_k = Rcal_{k+1} u_{k+1} + Lambda_{k+1} D_{k+1}, u_k = u_{k+1} + D_k
    in Python complex arithmetic, from (u_K, D_K) = (u_top, d_top).
    """
    lam = np.asarray(lam).tolist()
    rr = np.asarray(rr).tolist()
    K = len(lam) - 1
    u = [0j] * (K + 1)
    u[K] = complex(u_top)
    d = complex(d_top)
    uk = u[K]
    for k in range(K - 1, -1, -1):
        d = rr[k + 1] * uk + lam[k + 1] * d
        uk = uk + d
        u[k] = uk
    return np.asarray(u, dtype=complex)


def sweep_error(u: np.ndarray, u_ref: np.ndarray) -> float:
    return float(np.max(np.abs(u - u_ref) / np.maximum(1.0, np.abs(u_ref))))


def kernel_at(zp, p, m, N):
    """The solve's kernel on [n_start, N] and its phase context."""
    ctx = ansatz.phase_context(zp, p)
    return volterra.VolterraKernel(ctx, m, ctx.n_start, N), ctx


class KernelLogs:
    """The log-form kernel arrays of the solve's window on [n_start, N]:
    logX, uniXinv (the unit phase of X_n^{-1}), logPS and uniPS."""

    def __init__(self, zp, p, m, N):
        self.ctx = ansatz.phase_context(zp, p)
        self.n0 = self.ctx.n_start
        _, _, self.logX, self.uniXinv, self.logPS, self.uniPS = \
            volterra._kernel_arrays(self.ctx, m, self.n0, N)


def x_at(kern, n: int) -> LogComplex:
    """X_n from the kernel's log arrays, conjugated back to the caller's point."""
    k = n - kern.n0
    out = LogComplex(kern.logX[k], complex(kern.uniXinv[k]).conjugate())
    return out.conjugate() if kern.ctx.conj else out


def g_at(kern, n: int, m: int) -> LogComplex:
    """G_{n,m} = X_{m-1} (PS_{m-1} - PS_{n-1}) from the kernel's arrays."""
    k, j = m - 1 - kern.n0, n - 1 - kern.n0
    diff = LogComplex(kern.logPS[k], kern.uniPS[k])
    if j >= 0:
        diff = diff - LogComplex(kern.logPS[j], kern.uniPS[j])
    return LogComplex(kern.logX[k], complex(kern.uniXinv[k]).conjugate()) * diff


def g_row_abs(kern, n: int, ms: np.ndarray) -> np.ndarray:
    """|G_{n,m}| for an array of m > n, in the prefix sums' log frame."""
    ks = np.asarray(ms, dtype=int) - 1 - kern.n0
    j = n - 1 - kern.n0
    pm, um = kern.logPS[ks], kern.uniPS[ks]
    if j < 0:
        return np.exp(kern.logX[ks] + pm)
    ref = np.maximum(pm, kern.logPS[j])
    s = np.exp(pm - ref) * um - np.exp(kern.logPS[j] - ref) * kern.uniPS[j]
    return np.exp(kern.logX[ks] + ref) * np.abs(s)


def test_zero_kernel_gives_unit_solution():
    K = 500
    lam = np.full(K + 1, 0.97 + 0.01j)
    rr = np.zeros(K + 1, dtype=complex)
    u = volterra.backward_sweep(lam, rr)
    assert np.all(u == 1.0)


def test_sweep_matches_iteration_series():
    # the backward sweep must reproduce the converged successive
    # approximations on a window where the series converges
    rng = np.random.default_rng(5)
    K = 120
    lam = 1.0 + 0.02 * (rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1))
    rr = 0.01 * (rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)) / \
        (2.0 + np.arange(K + 1.0)) ** 1.5
    u_sweep = volterra.backward_sweep(lam, rr)
    u_series = iterate_series(lam, rr)
    assert np.max(np.abs(u_sweep - u_series)) < 1e-12


# K = 97, 98, 99 end on a block one short, exact and one over (b = 7);
# 100_003 is prime
@pytest.mark.parametrize("K", [1, 2, 3, 97, 98, 99, 100_003])
def test_blocked_sweep_matches_scalar_loop(K):
    rng = np.random.default_rng(K)
    lam = 1.0 + 0.02 * (rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1))
    rr = 0.01 * (rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)) / \
        (2.0 + np.arange(K + 1.0)) ** 1.5
    lam[0] = rr[0] = np.nan            # never read
    u_top, d_top = 1.1 - 0.2j, 0.03 + 0.01j
    u = volterra.backward_sweep(lam, rr, u_top, d_top)
    assert u[K] == u_top
    assert sweep_error(u, scalar_sweep(lam, rr, u_top, d_top)) <= 1e-12


def test_block_size_covers_block_edges():
    b = volterra._block_size(98)
    assert b == 7
    assert sorted(K % b for K in (97, 98, 99)) == [0, 1, b - 1]


@pytest.mark.parametrize("model, zp, N, tail_init", [
    (power(1.0, 0.0, 0.0), ansatz.interior(-3.0), 60_000, "unit"),
    (None, ansatz.at_plus(1.0), 200_000, "asymptotic"),   # Laguerre p = 0
    (power(1.25, 0.0, -0.875), ansatz.at_plus(-2.0), 100_000, "asymptotic"),
], ids=["discrete", "laguerre", "whole_line"])
def test_blocked_sweep_matches_scalar_loop_on_kernels(laguerre0, model, zp, N,
                                                      tail_init):
    # the kernels of the eigenvalue scan, the Laguerre density and the
    # whole-line sweep (n0 = 2048), each with the solve's boundary data
    m, p = model or laguerre0
    kern, ctx = kernel_at(zp, p, m, N)
    top = (1.0 + 0.0j, 0.0 + 0.0j)
    if tail_init == "asymptotic":
        top = volterra._top_boundary(ctx, m, N, 2 * N)
    u = kern.sweep(*top)
    assert sweep_error(u, scalar_sweep(kern.lam, kern.rr, *top)) <= 1e-12


def test_sweep_peak_memory_per_index():
    # the blocked sweep holds its step rows and block states as arrays
    # (about 65 B per index); one step per index in Python lists needs
    # 136 to 272 B per index
    K = 200_000
    lam = np.full(K + 1, 0.99 + 0.01j)
    rr = np.full(K + 1, 1e-6 + 1e-7j)
    tracemalloc.start()
    try:
        volterra.backward_sweep(lam, rr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / K < 100.0


# |z| across [0.2, 5], where the helper takes both branches, and a band
# ||z| - 1| in [1e-9, 1e-1], where glibc's clog takes its slow exact path
_moduli = st.one_of(
    st.floats(0.2, 5.0),
    st.tuples(st.floats(1e-9, 1e-1), st.sampled_from([-1.0, 1.0])).map(
        lambda t: 1.0 + t[1] * t[0]),
)


@given(_moduli, st.floats(-1.57, 1.57))
def test_principal_log_matches_numpy(r, phi):
    z = r * complex(math.cos(phi), math.sin(phi))
    logabs, arg = volterra._principal_log(np.array([z]))
    ref = np.log(z)
    eps = np.finfo(float).eps
    assert abs(logabs[0] - ref.real) <= 4 * eps * max(1.0, abs(ref.real))
    assert abs(arg[0] - ref.imag) <= 4 * eps * max(1.0, abs(ref.imag))


@pytest.mark.parametrize("model, zp, N", [
    (power(1.0, 0.0, 0.0), ansatz.interior(-3.0), 60_000),
    (None, ansatz.at_plus(1.0), 200_000),                  # Laguerre p = 0
    (power(1.25, 0.0, -0.875), ansatz.at_plus(-2.0), 100_000),
], ids=["discrete", "laguerre", "whole_line"])
def test_kernel_log_matches_numpy_log(laguerre0, model, zp, N):
    # logX and arg X are the cumulative sums of log Lambda_n; the helper
    # may differ from numpy's complex log only at rounding level (logX
    # reaches -1.9e3 on the discrete kernel, where one ulp is 2.3e-13).
    # arg X comes out as the unit phase e^{-i arg X}, which is off its
    # reference by the error in arg X plus the rounding of cos and sin
    m, p = model or laguerre0
    ctx = ansatz.phase_context(zp, p)
    lam, _, logX, uniXinv, _, _ = volterra._kernel_arrays(ctx, m, ctx.n_start, N)
    ref = np.concatenate([[0.0], np.cumsum(np.log(lam[1:]))])
    logref, argref = ref.real, ref.imag
    assert np.all(np.abs(logX - logref) <= 1e-14 * np.maximum(1.0, np.abs(logref)))
    assert np.all(np.abs(uniXinv - np.exp(-1j * argref))
                  <= 1e-14 * np.maximum(1.0, np.abs(argref)))



@pytest.mark.parametrize("max_block", [65536, 4])
def test_prefix_sum_exact_zero(max_block):
    # terms 1, 1, -1, -1, 1: the two -1 are e^{+i pi} and e^{-i pi}, whose
    # imaginary residues (sin(pi) = 1.2e-16 in doubles) cancel, so the
    # fourth partial sum is exactly zero; with max_block = 4 that zero
    # ends a block and is carried into the next
    logv = np.zeros(5)
    unitv = np.exp(1j * np.array([0.0, 0.0, np.pi, -np.pi, 0.0]))
    lg, un = volterra._scaled_prefix_sum(logv, unitv, max_block=max_block)
    assert lg[3] == -np.inf and un[3] == 1.0
    assert lg[4] == 0.0 and un[4] == 1.0
    assert np.all(np.isfinite(lg[:3])) and np.all(np.abs(un) == 1.0)

def test_prefix_sum_real_terms_give_real_signs():
    # real unit phases (signs) keep the sums real: the log-magnitudes are
    # those of the complex computation, the signs are +-1 exactly
    rng = np.random.default_rng(7)
    logv = np.cumsum(rng.normal(1.0, 3.0, 5000))
    signs = np.sign(rng.normal(size=5000))
    lg, un = volterra._scaled_prefix_sum(logv, signs, max_block=700)
    lg_c, un_c = volterra._scaled_prefix_sum(logv, signs.astype(complex),
                                             max_block=700)
    assert un.dtype == np.float64 and np.all(np.abs(un) == 1.0)
    assert np.array_equal(lg, lg_c)
    assert np.max(np.abs(un - un_c)) <= 2 * np.finfo(float).eps


def test_fit_partial_limit_columns_are_independent():
    # one real solve for several columns gives each column's own fit,
    # which is the complex least-squares fit against the real basis up to
    # the basis's conditioning (cond(A) = 5.4e4 here)
    rng = np.random.default_rng(3)
    K = 4000
    ms = 1001.0 + np.arange(K)
    ex = (-0.25, -0.5)
    cols = []
    for _ in range(2):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        cols.append(c[0] + c[1] * ms ** ex[0] + c[2] * ms ** ex[1]
                    + c[3] * ms ** ex[1] * np.exp(0.3j * ms))
    both = volterra._fit_partial_limit(np.column_stack(cols), ms, ex)
    lo = K // 2
    A = np.vstack([np.ones(K - lo)] + [ms[lo:] ** e for e in ex]).T
    for j, col in enumerate(cols):
        one = volterra._fit_partial_limit(col[:, None], ms, ex)
        assert abs(both[j] - one[0]) <= 1e-13 * abs(one[0])
        ref = np.linalg.lstsq(A.astype(complex), col[lo:], rcond=None)[0][0]
        assert abs(one[0] - ref) <= np.finfo(float).eps * np.linalg.cond(A) * abs(ref)


def test_kernel_factor_examples(laguerre0):
    m, p = laguerre0
    kern, ctx = kernel_at(ansatz.at_plus(2.0), p, m, 4001)
    lam3, rr3 = kern.lam[1000 - kern.n0], kern.rr[1000 - kern.n0]
    # Lambda_n -> 1 at the phase rate ~ 2 theta_n ~ n^-nu
    assert abs(lam3 - 1.0) < 4.0 * 1000.0 ** (-p.nu)
    lam4 = kern.lam[4000 - kern.n0]
    assert abs(lam4 - 1.0) < abs(lam3 - 1.0)
    # |Rcal_n| within a factor 2 of |r_n|
    r = remainder_at(ctx, m, [1000])[0]
    assert 0.5 <= abs(rr3) / abs(r) <= 2.0


def test_x_prod_empty_and_closed_form(laguerre0):
    m, p = laguerre0
    zp = ansatz.interior(2 + 1j)
    kern = KernelLogs(zp, p, m, 1000)
    n0 = kern.n0
    assert x_at(kern, n0).to_complex() == pytest.approx(1.0)
    # X_n * kappa_n e^{-i bold(phi)_n} is one fixed constant across n
    acc = ansatz.PhaseAccumulator(zp, p)
    vals = []
    for n in range(n0 + 1, n0 + 400, 40):
        X = x_at(kern, n)
        kap = n ** p.rho * (n + 1) ** p.rho / m.a(n)
        phase = acc.phi(n) + acc.phi(n + 1)
        closed = LogComplex.from_complex(kap) * LogComplex(
            phase.imag, complex(np.exp(-1j * phase.real)))
        vals.append((X * closed).to_complex())
    vals = np.array(vals)
    assert np.max(np.abs(vals - vals[0])) < 1e-9 * abs(vals[0])


def test_kernel_g_diagonal_is_one(laguerre0):
    m, p = laguerre0
    kern = KernelLogs(ansatz.at_plus(2.0), p, m, 401)
    for n in (20, 57, 400):
        assert g_at(kern, n, n + 1).to_complex() == pytest.approx(1.0, abs=1e-12)


def test_kernel_g_growth_bound(laguerre0):
    # |G_{n,m}| <= C m^nu on the spectrum
    m, p = laguerre0
    kern = KernelLogs(ansatz.interior(2 + 1j), p, m, 10_000)
    ms = np.arange(kern.n0 + 1, 10_001, 7)
    worst = 0.0
    for n in (kern.n0, 100, 1000):
        sel = ms[ms > n]
        ratios = g_row_abs(kern, n, sel) * sel ** (-p.nu)
        worst = max(worst, float(np.max(ratios)))
    assert worst < 25.0


def test_tail_bound_power_law(laguerre0):
    m, p = laguerre0
    zp = ansatz.at_plus(1.0)
    hs = [kernel_at(zp, p, m, N)[0].tail_beyond for N in (10_000, 40_000, 160_000)]
    slope = loglog_slope([10_000, 40_000, 160_000], hs)
    assert slope == pytest.approx(p.nu - p.delta + 1.0, abs=0.1)
    assert hs[2] < hs[1] < hs[0]


class TestSolve:
    @pytest.mark.parametrize("tail_init", ["unit", "asymptotic"])
    def test_residual_and_bound(self, laguerre0, tail_init):
        m, p = laguerre0
        sol = volterra.solve(ansatz.at_plus(1.0), p, m, N=30_000,
                             tail_init=tail_init)
        assert sol.residual < 1e-10
        assert np.all(np.abs(sol.u - 1.0) <= np.expm1(sol.H) + 1e-14)
        if tail_init == "unit":
            assert abs(sol.u_at(sol.N) - 1.0) == 0.0

    def test_derivative_bound(self, laguerre0):
        m, p = laguerre0
        sol = volterra.solve(ansatz.at_plus(1.0), p, m, N=30_000)
        ns = np.arange(sol.n0, sol.N, dtype=float)
        du = np.abs(np.diff(sol.u)) * ns ** (p.delta - 1.0)
        # constant in |u_{n+1} - u_n| <= C n^{1-delta} stable across halves
        first = du[: len(du) // 2].max()
        second = du[len(du) // 2:].max()
        assert second < 10.0 * first

    def test_doubling_stability(self, laguerre0):
        m, p = laguerre0
        zp = ansatz.at_plus(1.0)
        s1 = volterra.solve(zp, p, m, N=20_000)
        s2 = volterra.solve(zp, p, m, N=40_000)
        budget = np.expm1(s1.tail_bound) + np.expm1(s2.tail_bound)
        assert abs(s1.u_at(s1.n0) - s2.u_at(s1.n0)) <= budget

    def test_conjugate_point(self):
        m, p = power(1.25, 0.0, -0.375)   # tau = 0.5
        z = 0.3 + 0.2j
        s_up = volterra.solve(ansatz.interior(z), p, m, N=4000)
        s_dn = volterra.solve(ansatz.interior(z.conjugate()), p, m, N=4000)
        assert np.max(np.abs(s_dn.u - s_up.u.conjugate())) < 1e-13

    def test_boundary_continuity(self, laguerre0):
        m, p = laguerre0
        lam = 1.5
        ref = volterra.solve(ansatz.at_plus(lam), p, m, N=30_000)
        diffs = []
        for eps in (1e-2, 1e-3, 1e-4):
            s = volterra.solve(ansatz.interior(lam + 1j * eps), p, m,
                               n0=ref.n0, N=30_000)
            diffs.append(abs(s.u_at(ref.n0) - ref.u_at(ref.n0)))
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] < 1e-3

    def test_peak_memory_per_index(self):
        # the 2N tail window sets a solve's peak memory; with each array
        # dropped once dead it stays near 460 B per index at N = 2e4
        m, p = power(1.25, 0.0, -0.875)
        N = 20_000
        tracemalloc.start()
        try:
            volterra.solve(ansatz.at_plus(0.3), p, m, N=N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / N < 550.0

    def test_tail_window_runs_without_majorant_arrays(self, monkeypatch):
        # while _top_boundary builds the 2N tail window the solve holds the
        # window kernel's lam, rr and H only (40 B per index); a kernel
        # that keeps X, its prefix sums and h holds 88 B per index
        m, p = power(1.25, 0.0, -0.875)
        N = 20_000
        held = []
        top = volterra._top_boundary

        def probed(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            return top(*args)

        monkeypatch.setattr(volterra, "_top_boundary", probed)
        tracemalloc.start()
        try:
            volterra.solve(ansatz.at_plus(0.3), p, m, N=N)
        finally:
            tracemalloc.stop()
        assert len(held) == 1
        assert held[0] / N < 60.0

    def test_truncation_too_short(self):
        m, p = power(1.25, 0.0, -0.875)   # quarter-power tail on the axis
        with pytest.raises(TruncationTooShort):
            volterra.solve(ansatz.at_plus(-2.0), p, m, N=2100)

    def test_one_kernel_per_solve(self, laguerre0, monkeypatch):
        # the 2N tail window shares the array build, not the whole kernel
        m, p = laguerre0
        built = []
        init = volterra.VolterraKernel.__init__

        def counting(self, *args, **kwargs):
            built.append(args[-1])
            init(self, *args, **kwargs)

        monkeypatch.setattr(volterra.VolterraKernel, "__init__", counting)
        sol = volterra.solve(ansatz.at_plus(1.0), p, m, N=5000,
                             tail_init="asymptotic")
        assert built == [sol.N]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tail_term_raises(self, laguerre0, monkeypatch, bad):
        # a broken tail sum must fail loudly, not be zeroed or clamped
        m, p = laguerre0
        reverse = volterra._reverse_prefix

        def broken(logv, unitv):
            lg, un = reverse(logv, unitv)
            lg = lg.copy()
            lg[len(lg) // 2] = bad
            return lg, un

        monkeypatch.setattr(volterra, "_reverse_prefix", broken)
        with pytest.raises(NumericFailure):
            volterra.solve(ansatz.at_plus(1.0), p, m, N=5000)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sweep_raises(self, laguerre0, monkeypatch, bad):
        # a non-finite kernel term must fail the solve, not reach Omega
        m, p = laguerre0
        arrays = volterra._kernel_arrays

        def broken(*args):
            out = arrays(*args)
            out[1][len(out[1]) // 2] = bad
            return out

        monkeypatch.setattr(volterra, "_kernel_arrays", broken)
        with pytest.raises(NumericFailure):
            volterra.solve(ansatz.at_plus(1.0), p, m, N=5000, tail_init="unit")


# real z off the closure of the a.c. set, where theta_n is purely imaginary
REAL_POINTS = {
    "discrete_sigma_1": (power(1.0, 0.0, 0.0), ansatz.interior(-3.0)),
    "laguerre_minus_1": (None, ansatz.interior(-1.0)),
    "all_discrete_sigma_3_2": (power(1.5, 0.0, 0.0), ansatz.interior(-1.0)),  # tau = 3/2
}
COMPLEX_POINTS = {
    "laguerre_plus_side": (None, ansatz.at_plus(1.0)),
    "laguerre_complex_z": (None, ansatz.interior(1.0 + 1.0j)),
}


class TestDtype:
    """The kernel, the sweep and u are float64 exactly where theta_n is
    purely imaginary on the window, and complex128 elsewhere."""

    @pytest.mark.parametrize("tail_init", ["unit", "asymptotic"])
    @pytest.mark.parametrize("case", list(REAL_POINTS) + list(COMPLEX_POINTS))
    def test_dtype_follows_theta(self, laguerre0, case, tail_init):
        model, zp = {**REAL_POINTS, **COMPLEX_POINTS}[case]
        m, p = model or laguerre0
        dtype = np.float64 if case in REAL_POINTS else np.complex128
        kern, _ = kernel_at(zp, p, m, 5000)
        sol = volterra.solve(zp, p, m, N=5000, tail_init=tail_init)
        assert kern.lam.dtype == kern.rr.dtype == sol.u.dtype == dtype

    def test_real_kernel_refuses_nonpositive_lambda(self, monkeypatch):
        # Lambda_n > 0 holds by construction on a real kernel; a B_n of the
        # wrong sign must fail, not be logged as a complex number
        m, p = power(1.0, 0.0, 0.0)
        ratio = volterra.ansatz_ratio_window

        def flipped(*args):
            B = ratio(*args)
            B[len(B) // 2] *= -1.0
            return B

        monkeypatch.setattr(volterra, "ansatz_ratio_window", flipped)
        with pytest.raises(NumericFailure):
            volterra.solve(ansatz.interior(-3.0), p, m, N=5000, tail_init="unit")

    def test_real_solve_peak_memory_per_index(self):
        # a real unit-tail solve holds float64 kernel arrays: 88 B per index
        # at N = 2e4 (127 in complex arithmetic)
        m, p = power(1.0, 0.0, 0.0)
        N = 20_000
        tracemalloc.start()
        try:
            volterra.solve(ansatz.interior(-3.0), p, m, N=N, tail_init="unit")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / N < 105.0


def test_u_decay_rate_on_spectrum(laguerre0):
    # |u_n - 1| decays like n^(nu - delta + 1) = n^(-1/2) for this model
    m, p = laguerre0
    sol = volterra.solve(ansatz.at_plus(1.0), p, m, N=200_000)
    ns = np.array([1000, 4000, 16_000, 64_000])
    dev = np.array([abs(sol.u_at(int(n)) - 1.0) for n in ns])
    slope = loglog_slope(ns, dev)
    assert -0.8 < slope < -0.3


def test_x_prod_monotone_off_axis(laguerre0):
    # Im z > 0 makes Im of the phase sum increase, so |X_n| ~ n^nu
    # e^{-Im(phase)} decays monotonically at large n and |X_n^{-1}| grows
    m, p = laguerre0
    kern = KernelLogs(ansatz.interior(1 + 1j), p, m, 3000)
    assert np.all(np.diff(kern.logX[200:]) < 0)


def test_tail_bound_zero_for_zero_kernel(laguerre0, monkeypatch):
    # Rcal = 0 makes the majorant h, hence its fitted tail, exactly zero
    m, p = laguerre0
    arrays = volterra._kernel_arrays

    def zero_rr(*args):
        out = arrays(*args)
        out[1][1:] = 0.0
        return out

    monkeypatch.setattr(volterra, "_kernel_arrays", zero_rr)
    ctx = ansatz.phase_context(ansatz.at_plus(1.0), p)
    kern = volterra.VolterraKernel(ctx, m, ctx.n_start, 3000)
    assert kern.tail_const == 0.0 and kern.tail_beyond == 0.0
    assert np.all(kern.H == 0.0)


def test_diagnostics_csv(laguerre0):
    m, p = laguerre0
    sol = volterra.solve(ansatz.at_plus(1.0), p, m, N=5000)
    text = volterra.diagnostics_csv(sol, stride=500)
    lines = text.strip().split("\n")
    assert lines[0] == "n,abs_u_minus_1,bound"
    for line in lines[1:]:
        _, du, bd = line.split(",")
        assert float(du) <= float(bd) + 1e-14
