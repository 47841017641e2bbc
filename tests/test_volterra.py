import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from conftest import force_complex, loglog_slope, phi_at, power, remainder_at
from critjac import ansatz, solutions, volterra
from critjac.errors import InvalidParameter, NumericFailure, TruncationTooShort
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
    """The log-form kernel arrays of the solve's window on [n_start, N],
    built as one stretch: logX, uniXinv (the unit phase of X_n^{-1}),
    logPS and uniPS."""

    def __init__(self, zp, p, m, N):
        self.ctx = ansatz.phase_context(zp, p)
        self.n0 = self.ctx.n_start
        _, _, self.logX, self.uniXinv, self.logPS, self.uniPS, _ = \
            volterra._kernel_chunk(self.ctx, m, self.n0, N)


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
        top = volterra._top_boundary(ctx, m, N, N)[:2]
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


def log_x_reference(ctx, model, N, stride=97):
    """log|X_n| and arg X_n on the window [n0, N] at the offsets
    k = n - n0 in ks (every stride-th and the top), in 40 digits.

    X_n is the product of Lambda_m over m in (n0, n], whose logs are
    formed from the double a_m and theta_m:
    log Lambda_m = log(a_m / a_{m-1}) + rho log((m - 1) / (m + 1))
    + i (theta_m + theta_{m-1}).  The logs of a_m and of m telescope, and
    the theta terms are summed exactly by fsum (two fsums give the sum
    and its rounding error).  Returns (ks, log|X|, arg X) as doubles.
    """
    n0, rho = ctx.n_start, mpmath.mpf(ctx.params.rho)
    th = ansatz.theta_window(ctx, n0, N + 1)
    a = model.a_fn(np.arange(n0, N + 1, dtype=float)).tolist()
    re, im = th.real.tolist(), th.imag.tolist()
    ks = list(range(0, N - n0, stride)) + [N - n0]

    def exact_sum(xs):
        s = math.fsum(xs)
        return mpmath.mpf(s) + math.fsum(xs + [-s])

    logs, args = [], []
    with mpmath.workdps(40):
        def outer(k):                    # log a_n - rho log(n (n + 1)), n = n0 + k
            return mpmath.log(a[k]) - rho * (mpmath.log(n0 + k) + mpmath.log(n0 + k + 1))

        c0, sre, sim, prev = outer(0), mpmath.mpf(0), mpmath.mpf(0), 0
        for k in ks:
            sre += exact_sum(re[prev + 1:k + 1] + re[prev:k])
            sim += exact_sum(im[prev + 1:k + 1] + im[prev:k])
            prev = k
            logs.append(float(outer(k) - c0 - sim))
            args.append(float(sre))
    return np.array(ks), np.array(logs), np.array(args)


@pytest.mark.parametrize("model, zp, N", [
    (power(1.0, 0.0, 0.0), ansatz.interior(-3.0), 60_000),
    (None, ansatz.at_plus(1.0), 200_000),                  # Laguerre p = 0
    (power(1.25, 0.0, -0.875), ansatz.at_plus(-2.0), 100_000),
], ids=["discrete", "laguerre", "whole_line"])
def test_kernel_log_matches_numpy_log(laguerre0, model, zp, N):
    # log|X_n| and arg X_n against the 40-digit sum of log Lambda_k
    # (log_x_reference).  Besides 1e-14 the bound allows eps sqrt(k) for
    # the running sum of theta over k indices, a random walk of k
    # roundings: 1.5e-11 at k = 3.3e4 on the discrete kernel, where
    # |log X| = 1.4e3.  Logs of the rounded Lambda_n, summed, miss it by
    # 5.7e-12 on the Laguerre kernel (ten times the bound).  arg X comes
    # out as the unit phase e^{-i arg X}, which is off its reference by
    # the error in arg X plus the rounding of cos and sin
    m, p = model or laguerre0
    ctx = ansatz.phase_context(zp, p)
    _, _, logX, uniXinv, _, _, _ = volterra._kernel_chunk(ctx, m, ctx.n_start, N)
    ks, logref, argref = log_x_reference(ctx, m, N)
    tol = 1e-14 + np.finfo(float).eps * np.sqrt(ks)
    assert np.all(np.abs(logX[ks] - logref) <= tol * np.maximum(1.0, np.abs(logref)))
    assert np.all(np.abs(uniXinv[ks] - np.exp(-1j * argref))
                  <= tol * np.maximum(1.0, np.abs(argref)))


@pytest.mark.parametrize("model, zp, N", [
    (power(1.0, 0.0, 0.0), ansatz.interior(-3.0), 40_000),
    (None, ansatz.at_plus(1.0), 40_000),                   # Laguerre p = 0
    (power(1.25, 0.0, -0.875), ansatz.at_plus(-2.0), 40_000),
], ids=["discrete", "laguerre", "whole_line"])
def test_stretches_carry_the_window(laguerre0, model, zp, N):
    # the stretches of the forward pass, each started from the head the
    # one below returned, give the one-stretch window: Lambda, Rcal, log X
    # and its phase bit for bit (the cumulative sums run on from the head),
    # the prefix sums to rounding (their blocks are framed per stretch)
    m, p = model or laguerre0
    ctx = ansatz.phase_context(zp, p)
    n0, C = ctx.n_start, volterra._CHUNK
    whole = volterra._kernel_chunk(ctx, m, n0, N)
    head = volterra._WINDOW_START
    for lo in range(n0, N, C):
        hi = min(lo + C, N)
        *part, head = volterra._kernel_chunk(ctx, m, lo, hi, head)
        sl = slice(lo - n0, hi - n0 + 1)
        for j in (0, 1):                                     # lam, rr: entry 0 is nan
            assert np.array_equal(part[j][1:], whole[j][sl][1:])
        for j in (2, 3):                                     # logX, uniXinv
            assert np.array_equal(part[j], whole[j][sl])
        assert np.max(np.abs(part[4] - whole[4][sl])) <= 1e-12   # log|PS|
        assert np.max(np.abs(part[5] - whole[5][sl])) <= 1e-12   # its phase



@pytest.mark.parametrize("max_block", [65536, 4])
def test_prefix_sum_exact_zero(max_block, monkeypatch):
    # terms 1, 1, -1, -1, 1: the two -1 are e^{+i pi} and e^{-i pi}, whose
    # imaginary residues (sin(pi) = 1.2e-16 in doubles) cancel, so the
    # fourth partial sum is exactly zero; with blocks of 4 that zero
    # ends a block and is carried into the next
    monkeypatch.setattr(volterra, "_SUM_BLOCK", max_block)
    logv = np.zeros(5)
    unitv = np.exp(1j * np.array([0.0, 0.0, np.pi, -np.pi, 0.0]))
    lg, un = volterra._scaled_prefix_sum(logv, unitv)
    assert lg[3] == -np.inf and un[3] == 1.0
    assert lg[4] == 0.0 and un[4] == 1.0
    assert np.all(np.isfinite(lg[:3])) and np.all(np.abs(un) == 1.0)

def test_prefix_sum_real_terms_give_real_signs(monkeypatch):
    # real unit phases (signs) keep the sums real: the log-magnitudes are
    # those of the complex computation, the signs are +-1 exactly
    monkeypatch.setattr(volterra, "_SUM_BLOCK", 700)
    rng = np.random.default_rng(7)
    logv = np.cumsum(rng.normal(1.0, 3.0, 5000))
    signs = np.sign(rng.normal(size=5000))
    lg, un = volterra._scaled_prefix_sum(logv, signs)
    lg_c, un_c = volterra._scaled_prefix_sum(logv, signs.astype(complex))
    assert un.dtype == np.float64 and np.all(np.abs(un) == 1.0)
    assert np.array_equal(lg, lg_c)
    assert np.max(np.abs(un - un_c)) <= 2 * np.finfo(float).eps


def levin_omega(y: np.ndarray) -> np.ndarray:
    return y[:-1] * y[1:] / (y[:-1] - y[1:])


def fit_limit(partials, ms, exponents, terms, chunk=997):
    """The streamed tail fit over the second half of the rows, fed in
    chunks of `chunk` rows as _top_boundary feeds it its stretches."""
    fit = volterra._TailFit(exponents, (len(partials) - 1) // 2)
    for lo in range(0, len(partials), chunk):
        sl = slice(lo, lo + chunk)
        volterra._fit_partial_limit(partials[sl], ms[sl], terms[sl], fit)
    return fit.limits()


def scaled_lstsq(partials, ms, exponents, terms):
    """One np.linalg.lstsq over the same rows as the streamed fit: the
    second half of the rows less the last, against {1, m^e, omega} (omega
    as its real and imaginary parts), columns scaled to unit size.
    Returns the limits and the scaled basis's condition number."""
    K = len(partials) - 1
    sl = slice(K // 2, K)
    w = levin_omega(terms)[sl]
    P = partials[sl]
    cols = [np.ones(len(w))] + [ms[sl] ** e for e in exponents]
    cols += [w.real, w.imag] if np.iscomplexobj(P) else [w]
    A = np.column_stack(cols)
    A /= np.max(np.abs(A), axis=0)
    if np.iscomplexobj(P):
        P = np.hstack([P.real, P.imag])
    coef = np.linalg.lstsq(A, P, rcond=None)[0][0]
    c = partials.shape[1]
    lim = coef[:c] + 1j * coef[c:] if np.iscomplexobj(partials) else coef
    return lim, np.linalg.cond(A)


def test_fit_partial_limit_columns_are_independent():
    # one real solve for several columns gives each column's own fit,
    # which is the complex least-squares fit against {1, m^e, omega,
    # conj omega} up to the basis's conditioning (cond(A) = 4.1e8 here):
    # the real and imaginary parts of omega are two real columns
    rng = np.random.default_rng(3)
    K = 4000
    ms = 1001.0 + np.arange(K)
    ex = (-0.25, -0.75, -1.5)
    y = ms ** -1.75 * np.exp(0.3j * ms + 2e-4j * ms ** 1.5)
    cols = []
    for _ in range(2):
        c = rng.normal(size=5) + 1j * rng.normal(size=5)
        cols.append(c[0] + sum(ck * ms ** e for ck, e in zip(c[1:], ex))
                    + c[4] * np.cumsum(y))
    both, _ = fit_limit(np.column_stack(cols), ms, ex, y)
    w = levin_omega(y)
    sl = slice((K - 1) // 2, K - 1)
    A = np.column_stack([np.ones(len(w[sl]))] + [ms[sl] ** e for e in ex]
                        + [w[sl], w[sl].conj()])
    for j, col in enumerate(cols):
        one, _ = fit_limit(col[:, None], ms, ex, y)
        assert abs(both[j] - one[0]) <= 1e-12 * abs(one[0])
        ref = np.linalg.lstsq(A, col[sl], rcond=None)[0][0]
        assert abs(one[0] - ref) <= np.finfo(float).eps * np.linalg.cond(A) * abs(ref)


def test_fit_partial_limit_oscillating_remainder():
    # S_m = L + m^-1/2 e^{i psi_m}: an oscillating remainder whose
    # amplitude and frequency vary slowly; the oscillation is modelled,
    # so the limit comes out far below the remainder's size (1.4e-2);
    # the power terms alone miss it by 0.2
    L = 0.7 - 0.2j
    m = 1000.0 + np.arange(4001)
    S = L + m ** -0.5 * np.exp(0.3j * m + 4e-3j * m ** 0.75)
    y = np.diff(S)
    lim, resid = fit_limit(S[1:, None], m[1:], (-0.5, -1.0, -1.5), y)
    assert abs(lim[0] - L) < 1e-6
    assert resid < 1e-8


def test_fit_partial_limit_power_remainder():
    # S_m = L + c m^slow + d m^(slow - sigma), here slow = -1/4 and
    # sigma = 1.25 (the whole-line regime); the terms do not oscillate
    L, c, d = 1.3, -0.8, 2.5
    slow, sigma = -0.25, 1.25
    m = 1000.0 + np.arange(4001)
    S = L + c * m ** slow + d * m ** (slow - sigma)
    lim, resid = fit_limit(S[1:, None], m[1:], (slow, -0.75, slow - sigma),
                           np.diff(S))
    assert lim.dtype == np.float64
    assert abs(lim[0] - L) < 1e-10
    assert resid < 1e-12


def test_fit_partial_limit_vanishing_terms():
    # a real kernel whose terms underflow, through equal subnormals to
    # exact zeros: omega is 0 there and the limit is the plain sum, with
    # no NaN and no warning
    m = 1000.0 + np.arange(4000)
    y = np.where(m < 1500.0, np.exp(-0.1 * (m - 1000.0)), 0.0)
    y[500:2500:2] = y[501:2500:2] = 5e-321
    S = np.cumsum(y)
    lim, resid = fit_limit(S[:, None], m, (-0.5, -1.0), y)
    assert lim[0] == pytest.approx(S[-1], rel=1e-14)
    assert resid < 1e-14
    zero, resid0 = fit_limit(np.zeros((4000, 2)), m, (-0.5, -1.0), np.zeros(4000))
    assert np.all(zero == 0.0) and resid0 == 0.0


def test_fit_partial_limit_nan_term_raises():
    m = 1000.0 + np.arange(4000)
    y = m ** -2.0 * np.exp(0.3j * m)
    y[3000] = np.nan
    with pytest.raises(NumericFailure, match="non-finite tail term omega"):
        fit_limit(np.cumsum(y)[:, None], m, (-1.0,), y)


# The streamed fit and one lstsq solve the same least-squares problem;
# both have a forward error up to about eps cond(A) in the limits (here
# cond(A) = 7.4e4 to 2.1e5, a whole-line tail's 2.2e5 at N = 1e5).
# Centred, the streamed limits were the closer of the two to a 40-digit
# solution in every case checked (lstsq: up to 4.6e-12), so the two agree
# to eps cond(A), not to a fixed 1e-12.


@pytest.mark.parametrize("chunk", [1, 997, 4000])
def test_streamed_fit_matches_lstsq(chunk):
    # the R factor accumulated chunk by chunk gives the limits of one
    # np.linalg.lstsq over all rows, whatever the chunking (one row at a
    # time included); the whole-line-like basis is far from orthogonal
    rng = np.random.default_rng(11)
    m = 2000.0 + np.arange(4000)
    ex = (-0.25, -0.75, -1.5)
    y = m ** -1.75 * np.exp(0.3j * m + 2e-4j * m ** 1.5)
    c = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    S = c[0] + sum(np.outer(m ** e, ck) for e, ck in zip(ex, c[1:4])) \
        + np.outer(np.cumsum(y), c[4]) + 1e-9 * rng.normal(size=(4000, 2))
    lim, _ = fit_limit(S, m, ex, y, chunk=chunk)
    ref, cond = scaled_lstsq(S, m, ex, y)
    assert np.all(np.abs(lim - ref) <= np.finfo(float).eps * cond * np.abs(ref))


@pytest.mark.parametrize("zp", [ansatz.at_plus(1.5), ansatz.interior(-3.0)],
                         ids=["whole_line", "discrete"])
def test_streamed_fit_matches_lstsq_on_a_tail(zp, monkeypatch):
    # the rows _top_boundary streams from a real tail window (two
    # stretches), fitted by one lstsq, give its boundary data
    m, p = power(1.25, 0.0, -0.875) if zp.side == "plus" else power(1.0, 0.0, 0.0)
    ctx = ansatz.phase_context(zp, p)
    N, fed = 20_000, []
    feed = volterra._fit_partial_limit

    def recording(partials, ms, terms, fit):
        fed.append((partials.copy(), ms.copy(), terms.copy()))
        feed(partials, ms, terms, fit)

    monkeypatch.setattr(volterra, "_fit_partial_limit", recording)
    u_top, d_top, _ = volterra._top_boundary(ctx, m, N, N)
    assert len(fed) == 2
    partials, ms, terms = (np.concatenate(a) for a in zip(*fed))
    slow = p.nu - p.delta + 1.0
    (t_lim, y_lim), cond = scaled_lstsq(
        partials, ms, (slow, 2 * p.nu - p.delta, slow - p.sigma), terms)
    tol = np.finfo(float).eps * cond
    assert abs(u_top - 1.0 - t_lim) <= tol * abs(t_lim)
    assert abs(d_top - y_lim) <= tol * abs(y_lim)


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
    ns = np.arange(n0 + 1, n0 + 400, 40)
    phases = phi_at(zp, p, ns) + phi_at(zp, p, ns + 1)
    vals = []
    for n, phase in zip(ns.tolist(), phases):
        X = x_at(kern, n)
        kap = n ** p.rho * (n + 1) ** p.rho / m.a(n)
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


# the kernels of the non-finite-term tests: the complex Laguerre kernel
# at 1 + i0 keeps the bare ids, the real discrete kernel (sigma = 1) at
# z = -3 takes "real-" ones
NON_FINITE_KERNELS = [("", None, ansatz.at_plus(1.0)),
                      ("real-", power(1.0, 0.0, 0.0), ansatz.interior(-3.0))]


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
        # the tail window sets a solve's peak memory; with each array
        # dropped once dead it stays near 220 B per index at N = 2e4
        # (370 with a tail window twice the solve's)
        m, p = power(1.25, 0.0, -0.875)
        N = 20_000
        tracemalloc.start()
        try:
            volterra.solve(ansatz.at_plus(0.3), p, m, N=N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / N < 300.0

    def test_tail_window_runs_without_majorant_arrays(self, monkeypatch):
        # while _top_boundary builds the tail window the solve holds the
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

    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["short", "edge", "over"])
    def test_kept_blocks_match_whole_window(self, laguerre0, extra):
        # a window of five stretches less one index, exactly five, or five
        # plus one, so that the folded blocks straddle stretch edges and fill
        # the fold buffer more than once; for n_top at the window head,
        # around the first stretch edge and at N, the kept range ends at
        # the first edge of the sweep's blocks at or above n_top, and u there
        # is the whole-window solve's bit for bit (its top entry, the
        # chained state, to rounding), H to rounding
        m, p = laguerre0
        zp = ansatz.at_plus(1.0)
        C = volterra._CHUNK
        n0 = ansatz.phase_context(zp, p).n_start
        N = n0 + 5 * C + extra
        K, b = N - n0, volterra._block_size(N - n0)
        full = volterra.solve(zp, p, m, N=N, tail_init="unit")
        for n_top in (n0 + 1, n0 + C - 1, n0 + C, n0 + C + 1, N):
            sol = volterra.solve(zp, p, m, N=N, tail_init="unit", n_top=n_top)
            k = len(sol.u)
            assert k == len(sol.H)
            assert (K - (k - 1)) % b == 0 and n_top - n0 < k <= n_top - n0 + b + 1
            assert sol.u_at(n_top) == sol.u[n_top - n0]
            assert np.array_equal(sol.u[:-1], full.u[:k - 1])
            assert abs(sol.u[-1] - full.u[k - 1]) <= 1e-15 * abs(full.u[k - 1])
            assert np.max(np.abs(sol.H - full.H[:k]) / full.H[:k]) <= 1e-13

    def test_omega_peak_memory_does_not_grow_with_n(self, laguerre0):
        # an omega solve keeps only its window's lowest blocks and streams
        # the rest of the window and the tail window: about 5 MB at any N
        # (9 MB at N = 5e4 and 64 MB at 4e5 when it built both in full)
        m, p = laguerre0
        peaks = []
        for N in (50_000, 400_000):
            tracemalloc.start()
            try:
                solutions.omega(ansatz.at_plus(1.0), p, m, N=N)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 10e6
        assert peaks[1] <= 1.25 * peaks[0]

    def test_default_window(self, laguerre0):
        m, p = laguerre0
        sol = volterra.solve(ansatz.at_plus(1.0), p, m, tail_init="unit", n_top=0)
        assert sol.N == 1_000_000
        assert sol.meta["N"] == sol.N

    def test_default_window_start_beyond_cap(self):
        # the whole line at lambda = -50 starts its phase window near 8e8,
        # past N_CAP: rejected before any kernel is built
        m, p = power(1.25, 0.0, -0.875)
        with pytest.raises(InvalidParameter, match=r"n0 = \d+, N = 10000000"):
            volterra.solve(ansatz.at_plus(-50.0), p, m)

    def test_truncation_too_short(self):
        m, p = power(1.25, 0.0, -0.875)   # quarter-power tail on the axis
        with pytest.raises(TruncationTooShort):
            volterra.solve(ansatz.at_plus(-2.0), p, m, N=2100)

    def test_one_kernel_per_solve(self, laguerre0, monkeypatch):
        # the tail window shares the array build, not the whole kernel
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
        # a broken tail term must fail loudly where the terms are formed,
        # not be zeroed or clamped, nor left to the later checks on the
        # fit's omega_m or on u; it sits in the tail window's second stretch
        m, p = laguerre0
        N = 20_000
        chunk = volterra._kernel_chunk

        def broken(ctx, model, lo, hi, head):
            out = chunk(ctx, model, lo, hi, head)
            if lo > N:                           # above the tail's first stretch
                out[1][len(out[1]) // 2] = bad
            return out

        monkeypatch.setattr(volterra, "_kernel_chunk", broken)
        with pytest.raises(NumericFailure, match="non-finite tail term [ty]_m"):
            volterra.solve(ansatz.at_plus(1.0), p, m, N=N)

    @pytest.mark.parametrize("tail_init", ["unit", "asymptotic"])
    def test_meta_records_tail(self, laguerre0, tail_init):
        m, p = laguerre0
        sol = volterra.solve(ansatz.at_plus(1.0), p, m, N=5000,
                             tail_init=tail_init)
        if tail_init == "unit":
            assert sol.meta["tail_len"] == 0
            assert sol.meta["tail_fit_residual"] is None
        else:
            assert sol.meta["tail_len"] == 5000
            assert 0.0 < sol.meta["tail_fit_residual"] < 1e-3

    @pytest.mark.parametrize("model, zp, bad", [
        pytest.param(m, zp, bad, id=f"{tag}{bad}")
        for tag, m, zp in NON_FINITE_KERNELS for bad in (np.nan, np.inf)])
    def test_non_finite_sweep_raises(self, laguerre0, monkeypatch, model, zp, bad):
        # a non-finite kernel term must fail the solve, not reach Omega
        m, p = model or laguerre0
        chunk = volterra._kernel_chunk

        def broken(*args):
            out = chunk(*args)
            out[1][len(out[1]) // 2] = bad
            return out

        monkeypatch.setattr(volterra, "_kernel_chunk", broken)
        with pytest.raises(NumericFailure):
            volterra.solve(zp, p, m, N=5000, tail_init="unit")

    @pytest.mark.parametrize("model, zp, which, bad", [
        pytest.param(m, zp, which, bad, id=f"{tag}{name}-{bad}")
        for tag, m, zp in NON_FINITE_KERNELS
        for which, name in enumerate(["lam", "rr"]) for bad in (np.nan, np.inf)])
    def test_non_finite_folded_term_raises(self, laguerre0, monkeypatch,
                                           model, zp, which, bad):
        # a non-finite Lambda or Rcal in a stretch above n_top must fail
        # where the stretch is folded, not be absorbed into the transfer
        m, p = model or laguerre0
        chunk = volterra._kernel_chunk
        n0 = ansatz.phase_context(zp, p).n_start

        def broken(ctx, model, lo, hi, head):
            out = chunk(ctx, model, lo, hi, head)
            if lo > n0:                          # the stretches above n0 + 1
                out[which][len(out[which]) // 2] = bad
            return out

        monkeypatch.setattr(volterra, "_kernel_chunk", broken)
        with pytest.raises(NumericFailure, match="non-finite kernel transfer"):
            solutions.omega(zp, p, m, N=40_000, tail_init="unit")


# |W[f(l+i0), f(l-i0)] / (2i w) - 1| of the earlier tail (second-order
# d_m, 2N window, three-term fit), measured at these N and cut to four
# digits: no regime may get worse.  The whole line runs at N = 6e4: below
# about 5e4 its l = -2 window is too short
TAIL_REGIMES = [
    ("whole_line", (1.25, 0.0, -0.875, 1.0), 60_000,
     {-2.0: 4.132e-3, 1.5: 5.380e-4, 2.0: 7.455e-4}),
    ("laguerre", None, 20_000, {1.0: 4.212e-5, 4.0: 9.788e-5}),
    ("sigma_3_2", (1.5, 0.0, -1.0, 1.0), 20_000, {-1.0: 1.643e-5}),
    ("sigma_1_2", (0.5, 0.0, 0.0, 1.0), 20_000, {1.0: 8.469e-4, 3.0: 2.045e-3}),
    ("sigma_1_1", (1.1, 0.2, -0.7, -1.0), 20_000, {-1.0: 1.416e-2}),
    ("tau_1", (1.0, 0.0, 0.0, 1.0), 20_000, {2.0: 1.227e-6}),
    ("gamma_minus_1", (1.0, 0.3, -0.2, -1.0), 20_000, {-3.0: 1.472e-7}),
]


@pytest.mark.parametrize("coefs, N, bounds", [r[1:] for r in TAIL_REGIMES],
                         ids=[r[0] for r in TAIL_REGIMES])
def test_tail_no_worse_than_2n_tail_per_regime(laguerre0, coefs, N, bounds):
    m, p = power(*coefs) if coefs else laguerre0
    for lam, bound in bounds.items():
        fp = solutions.jost(ansatz.at_plus(lam), p, m, N=N)
        fm = solutions.jost(ansatz.at_minus(lam), p, m, N=N)
        W = solutions.wronskian(fp, fm)
        err = abs(W / (2j * solutions.limit_wronskian(lam, p)) - 1.0)
        assert err <= bound, f"lambda = {lam}: {err:.4g} > {bound:.4g}"


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
    purely imaginary on the whole window, and complex128 elsewhere: a
    window whose stretches mix the two is complex throughout."""

    @pytest.mark.parametrize("tail_init", ["unit", "asymptotic"])
    @pytest.mark.parametrize("case", list(REAL_POINTS) + list(COMPLEX_POINTS))
    def test_dtype_follows_theta(self, laguerre0, case, tail_init):
        model, zp = {**REAL_POINTS, **COMPLEX_POINTS}[case]
        m, p = model or laguerre0
        dtype = np.float64 if case in REAL_POINTS else np.complex128
        kern, _ = kernel_at(zp, p, m, 5000)
        sol = volterra.solve(zp, p, m, N=5000, tail_init=tail_init)
        assert kern.lam.dtype == kern.rr.dtype == sol.u.dtype == dtype

    @pytest.mark.parametrize("n_top", [None, 0])
    def test_mixed_window_matches_complex_build(self, monkeypatch, n_top):
        # the whole line at -5.9 + i0 from n0 = 100: theta_n is purely
        # imaginary on the first stretch only, so its real arrays are
        # promoted when the complex stretch above is kept (n_top None) or
        # folded, and after the pass (n_top = 0); every array equals a
        # build forced complex from the same B_n bit for bit
        m, p = power(1.25, 0.0, -0.875)
        n0, N = 100, 60_000
        ctx = ansatz.phase_context(ansatz.at_plus(-5.9), p, n0)
        th = ansatz.theta_window(ctx, n0, N + 1)
        assert not th[:volterra._CHUNK + 1].real.any() and th.real.any()
        kern = volterra.VolterraKernel(ctx, m, n0, N, n_top=n_top)
        u = kern.sweep()
        force_complex(monkeypatch)
        ref = volterra.VolterraKernel(ctx, m, n0, N, n_top=n_top)
        assert kern.lam.dtype == kern.rr.dtype == u.dtype == np.complex128
        assert np.array_equal(kern.lam, ref.lam, equal_nan=True)
        assert np.array_equal(kern.rr, ref.rr, equal_nan=True)
        assert np.array_equal(kern.H, ref.H) and kern.above == ref.above
        assert np.array_equal(u, ref.sweep())

    @pytest.mark.parametrize("tail_init, rel", [("unit", 0.0), ("asymptotic", 1e-12)])
    @pytest.mark.parametrize("z", [-0.5, -0.2])
    def test_low_window_start_matches_complex_pipeline(self, monkeypatch, z,
                                                       tail_init, rel):
        # sigma = 1/2, tau = -3/2 from n0 = 50, N = 2e5: at z = -0.5 theta_n
        # is purely imaginary on all 13 stretches, whose heads carry the
        # closed-form log X; at z = -0.2 it is so only above the turning
        # point n = 56.25, so the real stretches above the first are made
        # complex by its head.  Omega is jost's f_{-1} bit for bit and the
        # forced-complex pipeline's, exactly with the unit tail
        m, p = power(0.5, 1.0, 0.0)
        zp, n0, N = ansatz.interior(z), 50, 200_000
        th = ansatz.theta_window(ansatz.phase_context(zp, p, n0), n0, N + 1)
        assert not th[57 - n0:].real.any() and th[:57 - n0].real.any() == (z == -0.2)
        om = solutions.omega(zp, p, m, N=N, n0=n0, tail_init=tail_init)
        f = solutions.jost(zp, p, m, N=N, n0=n0, tail_init=tail_init)
        assert om == solutions.omega_from_window(f)
        force_complex(monkeypatch)
        ref = solutions.omega(zp, p, m, N=N, n0=n0, tail_init=tail_init)
        assert abs(om - ref) <= rel * abs(ref)

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
    # Rcal = 0 makes the majorant h, hence its fitted tail, exactly zero,
    # in a one-stretch window and in a longer one, above n_top folded
    m, p = laguerre0
    chunk = volterra._kernel_chunk

    def zero_rr(*args):
        out = chunk(*args)
        out[1][1:] = 0.0
        return out

    monkeypatch.setattr(volterra, "_kernel_chunk", zero_rr)
    ctx = ansatz.phase_context(ansatz.at_plus(1.0), p)
    for N in (3000, 40_000):
        kern = volterra.VolterraKernel(ctx, m, ctx.n_start, N, n_top=ctx.n_start + 1)
        assert kern.tail_const == 0.0 and kern.tail_beyond == 0.0
        assert np.all(kern.H == 0.0)
        assert kern.above is not None and len(kern.H) <= kern.b + 2

