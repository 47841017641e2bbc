import math
import tracemalloc
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as hs

from conftest import force_complex, loglog_slope, phi_at, power, remainder_at, theta_on
from critjac import ansatz, coeffs, solutions, volterra
from critjac.errors import (CritJacError, InvalidParameter, NumericFailure,
                            UnsupportedTauZero)
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


def stretch(ctx, m, lo, hi):
    """The z-independent arrays of the stretch [lo, hi]."""
    return ansatz.Stretch(ctx.params, m, lo, hi + 1)


def window_at(zp, p, m, N):
    """Lambda_n and Rcal_n of the solve's window [n_start, N], built as
    one stretch (bit for bit the window's stretches), and the phase
    context."""
    ctx = ansatz.phase_context(zp, p)
    lam, rr = volterra._local_chunk(ctx, stretch(ctx, m, ctx.n_start, N))
    return lam, rr, ctx


def x_logs(ctx, st, head=volterra._WINDOW_START):
    """log|X_n| and e^{-i arg X_n} on the stretch st of a window, formed
    from `head` as _kernel_chunk forms them."""
    th = ansatz.theta_window(ctx, st)
    _, B = volterra._rcal_chunk(ctx, st, np.result_type(head[4]), th)
    return volterra._x_chunk(st, th, B, *head[:3])[:2]


class KernelLogs:
    """The log-form kernel arrays of the solve's window on [n_start, N],
    built as one stretch: logX, uniXinv (the unit phase of X_n^{-1}),
    logPS and uniPS, the prefix sums of X_n^{-1} framed as _kernel_chunk
    frames them."""

    def __init__(self, zp, p, m, N):
        self.ctx = ansatz.phase_context(zp, p)
        self.n0 = self.ctx.n_start
        self.logX, self.uniXinv = x_logs(self.ctx, stretch(self.ctx, m, self.n0, N))
        logv = -self.logX
        logv[0] = -np.inf                # PS_{n0} = X_{n0}^{-1} = 1 is the carry
        self.logPS, self.uniPS = volterra._scaled_prefix_sum(logv, self.uniXinv,
                                                             carry=(0.0, 1.0))


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
    u, bottom = volterra.backward_sweep(lam, rr)
    assert np.all(u == 1.0) and bottom == (1.0, 0.0)


def test_sweep_matches_iteration_series():
    # the backward sweep must reproduce the converged successive
    # approximations on a window where the series converges
    rng = np.random.default_rng(5)
    K = 120
    lam = 1.0 + 0.02 * (rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1))
    rr = 0.01 * (rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)) / \
        (2.0 + np.arange(K + 1.0)) ** 1.5
    u_sweep, _ = volterra.backward_sweep(lam, rr)
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
    u, (u_bot, d_bot) = volterra.backward_sweep(lam, rr, u_top, d_top)
    ref = scalar_sweep(lam, rr, u_top, d_top)
    assert u[K] == u_top
    assert sweep_error(u, ref) <= 1e-12
    # the bottom state, handed to a stretch below: u_0 and D_0 = u_0 - u_1
    assert abs(u_bot - ref[0]) <= 1e-12 * abs(ref[0])
    assert abs(d_bot - (ref[0] - ref[1])) <= 1e-12 * abs(ref[0])


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
    # whole-line sweep (n0 = 2048), each with the solve's boundary data,
    # swept stretch by stretch from the top against one scalar loop over
    # the whole window
    m, p = model or laguerre0
    lam, rr, ctx = window_at(zp, p, m, N)
    top = (1.0 + 0.0j, 0.0 + 0.0j)
    if tail_init == "asymptotic":
        top = volterra._top_boundary([ctx], m, N, N)[0][:2]
    (u, _), = volterra.VolterraKernel([ctx], m, N).sweep([top])
    assert sweep_error(u, scalar_sweep(lam, rr, *top)) <= 1e-12


def one_point_pass(lam, rr, u_top, d_top):
    """The state below a stretch that only hands it down, by one point's
    own block pass on (2, nb) arrays and its chain: the reference for the
    batched pass (_hand_down).  The steps are backward_sweep's, ufunc by
    ufunc, with each product's operands in the same order."""
    K, b, nb, dtype, u_top, d_top = volterra._sweep_setup(lam, rr, u_top, d_top)
    rows = np.zeros((2, b, nb), dtype=dtype)
    full, rest = divmod(K, b)
    for out, a in zip(rows, (rr, lam)):
        out.T[:full] = a[:0:-1][:full * b].reshape(full, b)
        out[:rest, full] = a[:0:-1][full * b:]
    u, d = np.zeros((2, nb), dtype=dtype), np.zeros((2, nb), dtype=dtype)
    u[0], d[1] = 1.0, 1.0
    tmp = np.empty((2, nb), dtype=dtype)
    for t in range(b):
        np.multiply(rows[0, t], u, out=tmp)
        np.multiply(rows[1, t], d, out=d)
        d += tmp
        u = np.add(u, d, out=u)
        if t + 1 == rest:
            d_last = d[:, -1].tolist()
    ends = u[0].tolist(), u[1].tolist(), d[0].tolist(), d[1].tolist()
    if rest:
        ends[2][-1], ends[3][-1] = d_last
    return volterra._chain(ends, u_top, d_top)[2]


@settings(max_examples=60, deadline=None)
@given(K=hs.integers(5, 700).filter(lambda K: K % volterra._block_size(K)),
       count=hs.sampled_from([1, 2, 3, 5]), seed=hs.integers(0, 2 ** 32 - 1))
def test_batched_pass_matches_each_point_alone(K, count, seed):
    # points with random real and complex kernels and states, K steps not
    # a multiple of the block size, handed down in batches of one, of two,
    # and of one more than the buffer holds (2 complex or 4 real points):
    # each point's state is its own pass's bit for bit, and backward_sweep
    # (a batch of one) hands down the same state
    rng = np.random.default_rng(seed)
    kernels, wins = [], []
    for k in range(count):
        cplx = rng.random() < 0.5

        def noise():
            x = rng.normal(size=K + 1)
            return x + 1j * rng.normal(size=K + 1) if cplx else x

        lam, rr = 1.0 + 0.02 * noise(), 0.01 * noise()
        lam[0] = rr[0] = np.nan                   # never read
        if rng.random() < 0.5:
            top = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        else:
            top = float(rng.normal()), float(rng.normal())
        kernels.append((lam, rr))
        wins.append(volterra._Window(ctx=k, n_top=0, state=top))
    want = [one_point_pass(lam, rr, *w.state) for (lam, rr), w in zip(kernels, wins)]
    for (lam, rr), w, ref in zip(kernels, wins, want):
        bottom = volterra.backward_sweep(lam, rr, *w.state)[1]
        assert bottom == ref and list(map(type, bottom)) == list(map(type, ref))
    b = volterra._block_size(K)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(volterra, "_local_chunk", lambda ctx, st: kernels[ctx])
        mp.setattr(volterra, "_BATCH_BYTES", 2 * 2 * b * -(-K // b) * 16)
        volterra._hand_down(wins, SimpleNamespace(lo=1000, hi=1000 + K + 1))
    for w, ref in zip(wins, want):
        assert w.error is None
        assert w.state == ref and list(map(type, w.state)) == list(map(type, ref))


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
    th = theta_on(ctx, n0, N + 1)
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
    logX, uniXinv = x_logs(ctx, stretch(ctx, m, ctx.n_start, N))
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
    # one below returned, give the one-stretch window: Lambda, log X, its
    # phase and the terms y_m = X_{m-1} Rcal_m bit for bit (the cumulative
    # sums run on from the head), the terms t_m = X_{m-1} PS_{m-1} Rcal_m
    # to rounding (the prefix sums are framed per stretch)
    m, p = model or laguerre0
    ctx = ansatz.phase_context(zp, p)
    n0 = ctx.n_start
    whole_t, whole_y, _ = volterra._kernel_chunk(ctx, stretch(ctx, m, n0, N))
    whole_x = x_logs(ctx, stretch(ctx, m, n0, N))
    whole_lam = volterra._local_chunk(ctx, stretch(ctx, m, n0, N))[0]
    head = volterra._WINDOW_START
    for lo, hi in volterra._stretches(n0, N):
        st = stretch(ctx, m, lo, hi)
        x = x_logs(ctx, st, head)
        t, y, head = volterra._kernel_chunk(ctx, st, head)
        sl, sl_m = slice(lo - n0, hi - n0 + 1), slice(lo - n0, hi - n0)  # n, m - 1
        lam = volterra._local_chunk(ctx, st)[0]
        assert np.array_equal(lam[1:], whole_lam[sl][1:])   # entry 0 is nan
        for j in (0, 1):                                     # logX, uniXinv
            assert np.array_equal(x[j], whole_x[j][sl])
        assert np.array_equal(y, whole_y[sl_m])
        assert np.all(np.abs(t - whole_t[sl_m]) <= 1e-12 * np.abs(whole_t[sl_m]))



def closed_form_units(lo, arg, B, unit0, out):
    """e^{-i arg X_n} as cos and sin of every Re Phi_n: the closed form
    that _unit_phases takes only at its anchors."""
    np.cos(arg, out=out.real)
    np.sin(-arg, out=out.imag)


def tail_chunks(ctx, m, edges):
    """_kernel_chunk's (t, y, head) and x_logs' (logX, uniXinv) over the
    stretches between `edges` of a tail window that starts at edges[0],
    each started from the head the one below returned."""
    head, out = volterra._WINDOW_START, []
    for lo, hi in zip(edges[:-1], edges[1:]):
        st = stretch(ctx, m, lo, hi)
        x = x_logs(ctx, st, head)
        t, y, head = volterra._kernel_chunk(ctx, st, head)
        out.append((t, y, head, x))
    return out


ANCHOR_POINTS = [
    (None, ansatz.at_plus(1.0)),                           # Laguerre p = 0
    (power(1.25, 0.0, -0.875), ansatz.at_plus(-2.0)),      # whole line
    (None, ansatz.interior(1.0 + 1.0j)),
]
ANCHOR_IDS = ["laguerre", "whole_line", "laguerre_complex"]


@pytest.mark.parametrize("model, zp", ANCHOR_POINTS, ids=ANCHOR_IDS)
def test_unit_phases_at_spacing_one_are_the_closed_form(laguerre0, monkeypatch,
                                                        model, zp):
    # with an anchor at every index the running product never runs: the
    # tail's terms and heads are those of cos and sin of every Re Phi_n
    # bit for bit, over stretches cut at a multiple of 2^14 and off one
    m, p = model or laguerre0
    ctx = ansatz.phase_context(zp, p)
    edges = [50_001, 65_536, 70_000]
    monkeypatch.setattr(volterra, "_ANCHOR_SPACING", 1)
    dense = tail_chunks(ctx, m, edges)
    monkeypatch.setattr(volterra, "_unit_phases", closed_form_units)
    closed = tail_chunks(ctx, m, edges)
    for (t, y, head, x), (t_c, y_c, head_c, x_c) in zip(dense, closed):
        assert np.array_equal(t, t_c) and np.array_equal(y, y_c)
        assert head == head_c
        assert np.array_equal(x[1], x_c[1])


@pytest.mark.parametrize("model, zp", ANCHOR_POINTS, ids=ANCHOR_IDS)
@pytest.mark.parametrize("N", [200_003, 131_072])
def test_unit_phases_carry_across_any_cut(laguerre0, model, zp, N):
    # a tail window that starts off the anchor grid (or on it), cut into
    # stretches at its own edges N + k 2^14 and at odd places: the running
    # unit is carried in the head, so the unit phases and the terms y_m are
    # the one-stretch tail's bit for bit, the terms t_m to rounding of the
    # stretch's largest (the prefix sums are framed per stretch, and near
    # a zero of PS_m its rounding is 1e-11 to 1e-10 of t_m itself)
    m, p = model or laguerre0
    ctx = ansatz.phase_context(zp, p)
    top = N + 2 * volterra._CHUNK
    (whole_t, whole_y, whole_head, whole_x), = tail_chunks(ctx, m, [N, top])
    for edges in ([N, N + volterra._CHUNK, top], [N, N + 1, N + 300, N + 16_391, top]):
        parts = tail_chunks(ctx, m, edges)
        for (lo, hi), (t, y, _, x) in zip(zip(edges[:-1], edges[1:]), parts):
            sl, sl_m = slice(lo - N, hi - N + 1), slice(lo - N, hi - N)
            assert np.array_equal(x[1], whole_x[1][sl])
            assert np.array_equal(y, whole_y[sl_m])
            assert np.max(np.abs(t - whole_t[sl_m])) <= 1e-13 * np.max(np.abs(whole_t[sl_m]))
        assert parts[-1][2][:3] == whole_head[:3]


@pytest.mark.parametrize("model, zp", ANCHOR_POINTS, ids=ANCHOR_IDS)
def test_unit_phases_match_the_40_digit_phase(laguerre0, model, zp):
    # e^{-i arg X_n} on a tail window [N, N + 2^15] against the 40-digit
    # arg X_n (log_x_reference): the bound of test_kernel_log_matches_numpy_log
    # plus _ANCHOR_SPACING 4 eps for the running product between anchors
    m, p = model or laguerre0
    N = 100_003
    top = N + 2 * volterra._CHUNK
    ctx = ansatz.phase_context(zp, p, N)
    parts = tail_chunks(ctx, m, [N, N + volterra._CHUNK, top])
    uni = np.concatenate([parts[0][3][1], parts[1][3][1][1:]])
    ks, _, argref = log_x_reference(ctx, m, top)
    eps = np.finfo(float).eps
    tol = (1e-14 + eps * np.sqrt(ks)) * np.maximum(1.0, np.abs(argref))
    assert np.all(np.abs(uni[ks] - np.exp(-1j * argref))
                  <= tol + volterra._ANCHOR_SPACING * 4 * eps)


@pytest.mark.parametrize("bad", [0.0, 1e-160, np.inf, np.nan])
def test_unit_phases_fail_to_nan_until_the_next_anchor(monkeypatch, bad):
    # a B_n whose product with B_{n-1} is zero, subnormal (1e-160 squared)
    # or not finite makes the units NaN, without a warning, up to the next
    # anchor; from there they are the closed form's again
    monkeypatch.setattr(volterra, "_ANCHOR_SPACING", 8)
    lo, K = 5, 30
    arg = np.linspace(0.0, 3.0, K + 1)
    B = 0.9 * np.exp(0.5j * np.arange(K + 1))
    B[6] = bad * (1.0 + 1.0j)
    if bad == 1e-160:
        B[5] = 1e-160j
    out = np.empty(K + 1, dtype=complex)
    volterra._unit_phases(lo, arg, B, None, out)
    assert np.all(np.isnan(out[6:11]))                 # n = 11 ... 15
    assert np.all(np.isfinite(out[:6])) and np.all(np.isfinite(out[11:]))
    assert out[11] == complex(np.cos(arg[11]), np.sin(-arg[11]))   # the anchor n = 16


@settings(max_examples=40, deadline=None)
@given(sigma=hs.sampled_from([0.5, 1.0, 1.25, 1.5]), alpha=hs.floats(-0.9, 2.0),
       beta=hs.floats(-2.0, 2.0), gamma=hs.sampled_from([1.0, -1.0]),
       d=hs.floats(0.5, 3.0), y=hs.floats(0.05, 2.0))
def test_anchor_spacing_moves_omega_by_rounding_only(sigma, alpha, beta, gamma, d, y):
    # Omega at lambda + i0 inside the a.c. set and at a non-real z, with
    # the tail's unit phases anchored every _ANCHOR_SPACING indices and at
    # every index: the running product moves Omega by rounding only (at
    # most 3.5e-12 on a grid of 556 such points).  alpha > -1 keeps every
    # a_n > 0.  |tau| >= 1/4: with a tiny tau the tau / n term of t_n takes
    # over far above these windows, Omega moves by O(1) between N and 2N,
    # and the fit amplifies rounding past 1e-11 (5.8e-11 at tau = -1/256)
    m = coeffs.power_model(sigma, alpha, beta, gamma)
    try:
        p = coeffs.classify(m)
    except UnsupportedTauZero:
        return
    assume(abs(p.tau) >= 0.25)
    points = [ansatz.interior(complex(d - 1.0, y))]
    ac = p.ac_set
    if ac is not None:
        lam = ac.lo + d if np.isfinite(ac.lo) else (ac.hi - d if np.isfinite(ac.hi) else d - 1.0)
        points.append(ansatz.at_plus(lam))
    for zp in points:
        n0 = ansatz.phase_context(zp, p).n_start
        if n0 > 20_000:                          # a window start past a far turning index
            continue
        N = n0 + 6_001
        om = solutions.omega(zp, p, m, N=N)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(volterra, "_ANCHOR_SPACING", 1)
            dense = solutions.omega(zp, p, m, N=N)
        assert abs(om - dense) <= 1e-11 * abs(dense)


@pytest.mark.parametrize("split", [65536, 4])
def test_prefix_sum_exact_zero(split):
    # terms 1, 1, -1, -1, 1: the two -1 are e^{+i pi} and e^{-i pi}, whose
    # imaginary residues (sin(pi) = 1.2e-16 in doubles) cancel, so the
    # fourth partial sum is exactly zero; the first call sums at most
    # `split` terms, and split at 4 that zero ends the first call and is
    # carried into the second as (-inf, 1)
    logv = np.zeros(5)
    unitv = np.exp(1j * np.array([0.0, 0.0, np.pi, -np.pi, 0.0]))
    lg, un = volterra._scaled_prefix_sum(logv[:split], unitv[:split])
    if split < len(logv):
        carry = float(lg[-1]), un[-1].item()
        assert carry == (-np.inf, 1.0)
        lg2, un2 = volterra._scaled_prefix_sum(logv[split:], unitv[split:], carry)
        lg, un = np.concatenate([lg, lg2]), np.concatenate([un, un2])
    assert lg[3] == -np.inf and un[3] == 1.0
    assert lg[4] == 0.0 and un[4] == 1.0
    assert np.all(np.isfinite(lg[:3])) and np.all(np.abs(un) == 1.0)

def test_prefix_sum_real_terms_give_real_signs():
    # real unit phases (signs) keep the sums real: the log-magnitudes are
    # those of the complex computation, the signs are +-1 exactly (the
    # terms climb about 5000 nats, so the sums are cut into about ten frames)
    rng = np.random.default_rng(7)
    logv = np.cumsum(rng.normal(1.0, 3.0, 5000))
    signs = np.sign(rng.normal(size=5000))
    lg, un = volterra._scaled_prefix_sum(logv, signs)
    lg_c, un_c = volterra._scaled_prefix_sum(logv, signs.astype(complex))
    assert un.dtype == np.float64 and np.all(np.abs(un) == 1.0)
    assert np.array_equal(lg, lg_c)
    assert np.max(np.abs(un - un_c)) <= 2 * np.finfo(float).eps


def per_cut_prefix_sum(logv, unitv, carry=(-np.inf, 1.0)):
    """The framed prefix sums as one loop over the frames, each cut found
    from the frame's own running maximum: the reference for _sum_frames'
    search.  Returns the log-magnitudes, the unit phases and the frames
    as (lo, hi, ref)."""
    n = len(logv)
    out_log = np.empty(n)
    out_unit = np.empty(n, dtype=unitv.dtype)
    frames = []
    carry_log, carry_unit = carry
    lo = 0
    while lo < n:
        runmax = np.maximum.accumulate(logv[lo:])
        frame0 = max(float(logv[lo]), carry_log)
        cut = np.nonzero(runmax > frame0 + volterra._SUM_SPAN)[0]
        hi = lo + int(cut[0]) if len(cut) and cut[0] > 0 else (
            lo + 1 if len(cut) else n)
        ref = max(float(runmax[hi - 1 - lo]), carry_log)
        partial = np.cumsum(np.exp(logv[lo:hi] - ref) * unitv[lo:hi])
        if np.isfinite(carry_log):
            partial += np.exp(carry_log - ref) * carry_unit
        mag = np.abs(partial)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(mag, out=out_log[lo:hi])
            np.divide(partial, mag, out=out_unit[lo:hi])
        out_log[lo:hi] += ref
        if not mag.all():
            out_unit[lo:hi][mag == 0.0] = 1.0
        frames.append((lo, hi, ref))
        carry_log, carry_unit = float(out_log[hi - 1]), out_unit[hi - 1].item()
        lo = hi
    return out_log, out_unit, frames


@settings(max_examples=300, deadline=None)
@given(steps=hs.lists(hs.one_of(hs.floats(-3.0, 3.0), hs.floats(-60.0, 60.0),
                                hs.floats(-900.0, 900.0)), min_size=1, max_size=150),
       span=hs.sampled_from([2.0, 7.0, 500.0]),
       carry=hs.one_of(hs.none(), hs.floats(-100.0, 100.0)),
       complex_terms=hs.booleans(), head_term=hs.booleans(), seed=hs.integers(0, 2 ** 16))
def test_sum_frames_cuts_match_per_cut_loop(steps, span, carry, complex_terms,
                                            head_term, seed):
    # steep climbs and falls, frames of a few terms and spans of a few
    # nats: the max-first search with one running maximum gives
    # the frames, log-magnitudes and phases of the per-cut loop bit for
    # bit, with and without a carry, and with the tail's first term (-inf,
    # already in the carry)
    logv = np.cumsum(steps)
    rng = np.random.default_rng(seed)
    if complex_terms:
        unitv = np.exp(1j * rng.uniform(-np.pi, np.pi, len(logv)))
    else:
        unitv = np.where(rng.random(len(logv)) < 0.5, -1.0, 1.0)
    c = (-np.inf, 1.0)
    if carry is not None:
        c = (carry, complex(np.exp(1j * rng.uniform(-np.pi, np.pi))) if complex_terms else -1.0)
        if head_term:
            logv[0] = -np.inf
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(volterra, "_SUM_SPAN", span)
        ref_log, ref_unit, ref_frames = per_cut_prefix_sum(logv, unitv, c)
        _, frames = volterra._sum_frames(logv, unitv, c)
        lg, un = volterra._scaled_prefix_sum(logv, unitv, c)
    assert frames == ref_frames
    assert np.array_equal(lg, ref_log) and np.array_equal(un, ref_unit)
    assert un.dtype == unitv.dtype


def log_path_terms(rr, logX, uniXinv, logPS, uniPS):
    """t_m and y_m over a tail stretch from log-magnitudes and unit phases:
    the logs of Rcal_m and of the prefix sums, and back by exp (the
    reference for _kernel_chunk's direct products)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        absr = np.abs(rr[1:])
        logy = np.log(absr) + logX[:-1]
        uniy = rr[1:] / absr
        uniy[absr == 0.0] = 1.0
        uniy *= uniXinv[:-1].conjugate()
        return np.exp(logy + logPS[:-1]) * (uniy * uniPS[:-1]), np.exp(logy) * uniy


@pytest.mark.parametrize("model, zp, N, span", [
    (power(1.0, 0.0, 0.0), ansatz.interior(-3.0), 60_000, None),
    (None, ansatz.at_plus(1.0), 200_000, None),                 # Laguerre p = 0
    (power(1.25, 0.0, -0.875), ansatz.at_plus(-2.0), 100_000, None),
    (None, ansatz.interior(1.0 + 1.0j), 20_000, 5.0),           # |X^-1| climbs
], ids=["discrete", "laguerre", "whole_line", "forced_cut"])
def test_tail_terms_match_log_path(laguerre0, monkeypatch, model, zp, N, span):
    # over the first two stretches of the tail window, the terms formed
    # straight from the scaled frames match the log/unit path to 1e-13
    # relative (the log path rounds log|Rcal_m X_{m-1} PS_{m-1}|, up to
    # 1e3 on the discrete kernel), and the head carries the same sum bit
    # for bit; a span of 5 nats cuts each stretch into 8 to 11 frames
    m, p = model or laguerre0
    if span is not None:
        monkeypatch.setattr(volterra, "_SUM_SPAN", span)
    ctx = ansatz.phase_context(zp, p)
    head, cuts = volterra._WINDOW_START, 0
    for lo in (N, N + volterra._CHUNK):
        st = stretch(ctx, m, lo, lo + volterra._CHUNK)
        th = ansatz.theta_window(ctx, st)
        rr, _ = volterra._rcal_chunk(ctx, st, np.result_type(head[4]), th)
        logX, uniXinv = x_logs(ctx, st, head)
        logv = -logX
        logv[0] = -np.inf
        logPS, uniPS, frames = per_cut_prefix_sum(logv, uniXinv, head[3:])
        cuts += len(frames) - 1
        t_ref, y_ref = log_path_terms(rr, logX, uniXinv, logPS, uniPS)
        t, y, head = volterra._kernel_chunk(ctx, st, head)
        assert t.dtype == y.dtype == t_ref.dtype
        assert np.all(np.abs(t - t_ref) <= 1e-13 * np.abs(t_ref))
        assert np.all(np.abs(y - y_ref) <= 1e-13 * np.abs(y_ref))
        assert head[3:] == (float(logPS[-1]), uniPS[-1].item())
    assert (cuts > 0) == (span is not None)


def test_tail_fit_norms_from_dot_products():
    # rows fed as the (2, K) layout of _Tail.add (contiguous columns) and
    # as a (K, 2) array give the same limits bit for bit (the norms only
    # scale the residual); the norms, one dot product per column and
    # stretch, match the exactly rounded sum of |P|^2 over the fed rows
    # to 1e-15, where np.sum down the (K, 2) columns misses it by up to 1.4e-14
    K, C = 3 * volterra._CHUNK, volterra._CHUNK
    m = 2000.0 + np.arange(K)
    ex = (-0.25, -0.75, -1.5)
    y = m ** -1.75 * np.exp(0.3j * m + 2e-4j * m ** 1.5)
    powers = m[:, None] ** np.asarray(ex)
    for seed in range(4):
        c = np.random.default_rng(seed).normal(size=(5, 2, 2)) @ np.array([1.0, 1.0j])
        S = c[0] + sum(np.outer(m ** e, ck) for e, ck in zip(ex, c[1:4])) \
            + np.outer(np.cumsum(y), c[4])
        rows = np.ascontiguousarray(S.T)
        fits = volterra._TailFit(), volterra._TailFit()
        for lo in range(0, K, C):
            sl = slice(lo, lo + C)
            volterra._fit_partial_limit(rows[:, sl].T, powers[sl], y[sl], fits[0])
            volterra._fit_partial_limit(np.ascontiguousarray(S[sl]), powers[sl], y[sl], fits[1])
        (lim, res), (lim_kx2, res_kx2) = fits[0].limits(), fits[1].limits()
        assert np.array_equal(lim, lim_kx2) and res == pytest.approx(res_kx2, rel=1e-13)
        fed = np.abs(S[:-1]) ** 2                   # the last row waits (pending)
        exact = np.array([math.fsum(col) for col in fed.T])
        assert np.all(np.abs(fits[0].sq - exact) <= 1e-15 * exact)


def levin_omega(y: np.ndarray) -> np.ndarray:
    return y[:-1] * y[1:] / (y[:-1] - y[1:])


def fit_limit(partials, ms, exponents, terms, chunk=997):
    """The streamed tail fit over the second half of the rows, fed in
    chunks of `chunk` rows, the rows below the second half left out, as
    _top_boundary feeds it its stretches."""
    fit = volterra._TailFit()
    first = (len(partials) - 1) // 2
    powers = ms[:, None] ** np.asarray(exponents)
    for lo in range(0, len(partials), chunk):
        sl = slice(max(lo, first), lo + chunk)
        if sl.start < min(sl.stop, len(partials)):
            volterra._fit_partial_limit(partials[sl], powers[sl], terms[sl], fit)
    return fit.limits()


def scaled_lstsq(partials, powers, terms, first=None):
    """One np.linalg.lstsq over the same rows as the streamed fit: the
    rows from `first` (default the second half) less the last, against
    {1, m^e, omega} (m^e the columns of powers, omega as its real and
    imaginary parts), columns scaled to unit size.  Returns the limits
    and the scaled basis's condition number."""
    K = len(partials) - 1
    sl = slice(K // 2 if first is None else first, K)
    w = levin_omega(terms)[sl]
    P = partials[sl]
    cols = [np.ones(len(w))] + list(powers[sl].T)
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
    ref, cond = scaled_lstsq(S, m[:, None] ** np.asarray(ex), y)
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

    def recording(partials, powers, terms, fit):
        fed.append((partials.copy(), powers.copy(), terms.copy()))
        feed(partials, powers, terms, fit)

    monkeypatch.setattr(volterra, "_fit_partial_limit", recording)
    u_top, d_top, _ = volterra._top_boundary([ctx], m, N, N)[0]
    assert len(fed) == 2
    # the fed rows are the fitted ones, from the second half of the tail
    partials, powers, terms = (np.concatenate(a) for a in zip(*fed))
    slow = p.nu - p.delta + 1.0
    ms = N + (N - 1) // 2 + 1.0 + np.arange(len(partials))
    assert np.array_equal(powers, ms[:, None] ** np.array(
        [slow, 2 * p.nu - p.delta, slow - p.sigma]))
    (t_lim, y_lim), cond = scaled_lstsq(partials, powers, terms, 0)
    tol = np.finfo(float).eps * cond
    assert abs(u_top - 1.0 - t_lim) <= tol * abs(t_lim)
    assert abs(d_top - y_lim) <= tol * abs(y_lim)


def test_kernel_factor_examples(laguerre0):
    m, p = laguerre0
    lam, rr, ctx = window_at(ansatz.at_plus(2.0), p, m, 4001)
    n0 = ctx.n_start
    lam3, rr3 = lam[1000 - n0], rr[1000 - n0]
    # Lambda_n -> 1 at the phase rate ~ 2 theta_n ~ n^-nu
    assert abs(lam3 - 1.0) < 4.0 * 1000.0 ** (-p.nu)
    lam4 = lam[4000 - n0]
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
    # the part of u_{n0} that the unit tail cuts off at N decays like
    # N^(nu - delta + 1): the N-vs-2N differences of u_{n0} fall on that
    # power law (slope -0.494 against -1/2 here)
    m, p = laguerre0
    zp = ansatz.at_plus(1.0)
    Ns = [10_000, 20_000, 40_000, 80_000, 160_000]
    u0 = [volterra.solve(zp, p, m, N=N, tail_init="unit", n_top=0).u[0] for N in Ns]
    d = np.abs(np.diff(u0))
    assert np.all(np.diff(d) < 0.0)
    assert loglog_slope(Ns[:-1], d) == pytest.approx(p.nu - p.delta + 1.0, abs=0.05)


# the kernels of the non-finite-term tests: the complex Laguerre kernel
# at 1 + i0 keeps the bare ids, the real discrete kernel (sigma = 1) at
# z = -3 takes "real-" ones
NON_FINITE_KERNELS = [("", None, ansatz.at_plus(1.0)),
                      ("real-", power(1.0, 0.0, 0.0), ansatz.interior(-3.0))]


class TestSolve:
    @pytest.mark.parametrize("tail_init", ["unit", "asymptotic"])
    def test_residual_and_bound(self, laguerre0, tail_init):
        # u solves the difference equation to rounding, and u - 1 stays
        # under the envelope n^(nu - delta + 1) (0.85 times it at most here)
        m, p = laguerre0
        sol = volterra.solve(ansatz.at_plus(1.0), p, m, N=30_000,
                             tail_init=tail_init)
        assert sol.residual < 1e-10
        ns = np.arange(sol.n0, sol.N + 1, dtype=float)
        assert np.all(np.abs(sol.u - 1.0) <= ns ** (p.nu - p.delta + 1.0))
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
        # with the asymptotic tail, u_{n0} moves under doubling of N less
        # than with the unit tail (9e-6 against 1.8e-3 from N = 2e4) and
        # settles at least at the unit tail's rate 2^(nu - delta + 1)
        m, p = laguerre0
        zp = ansatz.at_plus(1.0)
        Ns = (20_000, 40_000, 80_000)
        d = {tail: np.abs(np.diff([volterra.solve(zp, p, m, N=N, tail_init=tail,
                                                  n_top=0).u[0] for N in Ns]))
             for tail in ("unit", "asymptotic")}
        assert np.all(d["asymptotic"] < 0.01 * d["unit"])
        assert d["asymptotic"][1] <= 2.0 ** (p.nu - p.delta + 1.0) * d["asymptotic"][0]

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
        # _top_boundary builds the tail window before the window itself is
        # built, so the solve then holds nothing per index; a kernel built
        # first held its lam and rr (32 B per index), one that kept X, its
        # prefix sums and h 88 B per index
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
        assert held[0] / N < 1.0

    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["short", "edge", "over"])
    def test_kept_blocks_match_whole_window(self, laguerre0, extra):
        # a window of five stretches less one index, exactly five, or five
        # plus one (a one-step top stretch); for n_top at the window head,
        # around the first stretch edge, around the top stretch's lowest
        # index and at N, u covers exactly [n0, n_top] and is there the
        # whole-window solve's bit for bit, its top entry included
        m, p = laguerre0
        zp = ansatz.at_plus(1.0)
        C = volterra._CHUNK
        n0 = ansatz.phase_context(zp, p).n_start
        N = n0 + 5 * C + extra
        top_lo = n0 + (N - n0 - 1) // C * C
        full = volterra.solve(zp, p, m, N=N, tail_init="unit")
        assert len(full.u) == N - n0 + 1
        for n_top in (n0 + 1, n0 + C - 1, n0 + C, n0 + C + 1, top_lo, top_lo + 1, N):
            sol = volterra.solve(zp, p, m, N=N, tail_init="unit", n_top=n_top)
            assert len(sol.u) == n_top - n0 + 1
            assert np.array_equal(sol.u, full.u[:n_top - n0 + 1])

    def test_omega_peak_memory_does_not_grow_with_n(self, laguerre0):
        # an omega solve keeps u on the head only and streams the window
        # and the tail window: about 4 MB at any N (9 MB at N = 5e4 and
        # 64 MB at 4e5 when it built both in full)
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

    @pytest.mark.parametrize("N", [5000, 40_000])
    def test_head_solve_reports_its_stretch_residual(self, laguerre0, N):
        # an n_top = 0 solve keeps u on [n0, n0 + 1] only, but its
        # residual covers the whole stretch that holds n0, where the sweep
        # computed u: a rounding-level defect, not the empty check of two
        # entries
        m, p = laguerre0
        sol = volterra.solve(ansatz.at_plus(1.0), p, m, N=N, tail_init="unit", n_top=0)
        assert len(sol.u) == 2
        assert 0.0 < sol.residual < 1e-14

    def test_truncation_too_short(self):
        # a window barely longer than its start (n0 = 2048) is solved, not
        # refused: u_{n0} is 1.6e-2 relative off the N = 1e6 window's at
        # N = 2100, and each fourfold N brings it closer
        m, p = power(1.25, 0.0, -0.875)
        zp = ansatz.at_plus(-2.0)
        sols = [volterra.solve(zp, p, m, N=N, n_top=0) for N in (2100, 8400, 33_600, 134_400)]
        assert all(s.residual < 1e-14 for s in sols)
        d = [abs(s.u[0] - sols[-1].u[0]) for s in sols[:-1]]
        assert d[0] > d[1] > d[2]

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

        def broken(ctx, st, head):
            out = chunk(ctx, st, head)
            if st.lo > N:                        # above the tail's first stretch
                out[0][len(out[0]) // 2] = bad
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
        chunk = volterra._local_chunk

        def broken(*args):
            out = chunk(*args)
            out[1][len(out[1]) // 2] = bad
            return out

        monkeypatch.setattr(volterra, "_local_chunk", broken)
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
        chunk = volterra._local_chunk
        n0 = ansatz.phase_context(zp, p).n_start

        def broken(ctx, st):
            out = chunk(ctx, st)
            if st.lo > n0:                       # the stretches above n0 + 1
                out[which][len(out[which]) // 2] = bad
            return out

        monkeypatch.setattr(volterra, "_local_chunk", broken)
        with pytest.raises(NumericFailure, match="non-finite kernel transfer"):
            volterra.solve(zp, p, m, N=40_000, tail_init="unit", n_top=0)

    @pytest.mark.parametrize("model, zp", [
        pytest.param(m, zp, id=tag) for tag, m, zp in
        [("ac", None, ansatz.at_plus(1.0)), ("complex", None, ansatz.interior(1 + 1j)),
         *NON_FINITE_KERNELS[1:]]])
    @pytest.mark.parametrize("at", [3000, 15_000])
    @pytest.mark.parametrize("tail_init", ["unit", "asymptotic"])
    @pytest.mark.parametrize("n_top", [None, 0])
    def test_non_finite_ratio_raises(self, laguerre0, monkeypatch, model, zp,
                                     at, tail_init, n_top):
        # a NaN B_n reaches the remainder r_n through 1 / B_n; on a complex
        # kernel as on a real one the solve must raise, not warn first
        m, p = model or laguerre0
        ratio = volterra.ansatz_ratio_window

        def broken(*args):
            B = ratio(*args)
            if len(B) > at:
                B[at] = np.nan
            return B

        monkeypatch.setattr(volterra, "ansatz_ratio_window", broken)
        with pytest.raises(NumericFailure):
            volterra.solve(zp, p, m, N=20_000, tail_init=tail_init, n_top=n_top)

    @pytest.mark.parametrize("z, match", [
        pytest.param(1e9j, "non-finite kernel transfer", id="overflow"),
        pytest.param(1e6j, "underflowed to zero", id="zero-state")])
    @pytest.mark.parametrize("tail_init", ["unit", "asymptotic"])
    def test_window_far_below_the_turning_point_raises(self, laguerre0, z, match,
                                                       tail_init):
        # n0 = 8 lies far below these points' window start.  At 1e9 i some
        # B_n underflow, so 1 / B_n overflows and Rcal_n = B_n r_n is nan;
        # at 1e6 i the sweep's state underflows to exactly (0, 0), which
        # leaves u zero at the head with a rounding-level residual.  Either
        # must fail the solve without a RuntimeWarning first
        m, p = laguerre0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailure, match=match):
                volterra.solve(ansatz.interior(z), p, m, n0=8, N=4000,
                               tail_init=tail_init)


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
    """A kernel stretch is float64 exactly where theta_n is purely
    imaginary on it, and complex128 elsewhere; the sweep of a stretch runs
    complex when the stretch or the state handed down to it is, so u is
    float64 exactly when the whole window is real."""

    @pytest.mark.parametrize("tail_init", ["unit", "asymptotic"])
    @pytest.mark.parametrize("case", list(REAL_POINTS) + list(COMPLEX_POINTS))
    def test_dtype_follows_theta(self, laguerre0, case, tail_init):
        model, zp = {**REAL_POINTS, **COMPLEX_POINTS}[case]
        m, p = model or laguerre0
        dtype = np.float64 if case in REAL_POINTS else np.complex128
        lam, rr, _ = window_at(zp, p, m, 5000)
        sol = volterra.solve(zp, p, m, N=5000, tail_init=tail_init)
        assert lam.dtype == rr.dtype == sol.u.dtype == dtype

    @pytest.mark.parametrize("n_top", [None, 0])
    def test_mixed_window_matches_complex_build(self, monkeypatch, n_top):
        # the whole line at -5.9 + i0 from n0 = 100: theta_n is purely
        # imaginary on the first stretch only, so that stretch is built
        # real and the ones above complex; the complex state handed down
        # makes its sweep complex, whether u is read on the whole window
        # (n_top None) or on the head (n_top = 0).  Every stretch's
        # Lambda, Rcal and u equal a build forced complex from the same B_n
        # bit for bit
        m, p = power(1.25, 0.0, -0.875)
        n0, N = 100, 60_000
        ctx = ansatz.phase_context(ansatz.at_plus(-5.9), p, n0)
        edges = volterra._stretches(n0, N)
        th = theta_on(ctx, n0, N + 1)
        assert not th[:edges[0][1] - n0 + 1].real.any() and th.real.any()
        parts = [volterra._local_chunk(ctx, stretch(ctx, m, lo, hi)) for lo, hi in edges]
        kern = volterra.VolterraKernel([ctx], m, N, n_top=n_top)
        (u, res), = kern.sweep([(1.0 + 0.0j, 0.0 + 0.0j)])
        force_complex(monkeypatch)
        refs = [volterra._local_chunk(ctx, stretch(ctx, m, lo, hi)) for lo, hi in edges]
        ref = volterra.VolterraKernel([ctx], m, N, n_top=n_top)
        assert [lam.dtype.kind for lam, _ in parts] == ["f"] + ["c"] * (len(edges) - 1)
        for part, want in zip(parts, refs):
            assert part[0].dtype == part[1].dtype
            assert np.array_equal(part[0], want[0], equal_nan=True)
            assert np.array_equal(part[1], want[1], equal_nan=True)
        assert u.dtype == np.complex128
        (u_ref, res_ref), = ref.sweep([(1.0 + 0.0j, 0.0 + 0.0j)])
        assert np.array_equal(u, u_ref)
        assert res == res_ref

    @pytest.mark.parametrize("tail_init, rel", [("unit", 0.0), ("asymptotic", 1e-12)])
    @pytest.mark.parametrize("z", [-0.5, -0.2])
    def test_low_window_start_matches_complex_pipeline(self, monkeypatch, z,
                                                       tail_init, rel):
        # sigma = 1/2, tau = -3/2 from n0 = 50, N = 2e5: at z = -0.5 theta_n
        # is purely imaginary on all 13 stretches, whose heads carry the
        # closed-form log X; at z = -0.2 it is so only above the turning
        # point n = 56.25, so the real stretches above the first are made
        # complex by its head.  Omega from the head solve is the whole
        # window's f_{-1} bit for bit and the forced-complex pipeline's,
        # exactly with the unit tail
        m, p = power(0.5, 1.0, 0.0)
        zp, n0, N = ansatz.interior(z), 50, 200_000
        th = theta_on(ansatz.phase_context(zp, p, n0), n0, N + 1)
        assert not th[57 - n0:].real.any() and th[:57 - n0].real.any() == (z == -0.2)

        def window(n_top):
            sol = volterra.solve(zp, p, m, n0=n0, N=N, tail_init=tail_init, n_top=n_top)
            return solutions._jost_window(sol, zp, p, m)

        om = solutions.omega_from_window(window(0))
        assert om == solutions.omega_from_window(window(None))
        force_complex(monkeypatch)
        ref = solutions.omega_from_window(window(0))
        assert abs(om - ref) <= rel * abs(ref)

    def test_real_solve_peak_memory_per_index(self):
        # a whole-window solve holds u and one stretch's workspace, so its
        # peak grows by u's 8 B per index on a real kernel (8.0 measured
        # between N = 2e5 and 1e6; 56 when the window was built whole)
        m, p = power(1.0, 0.0, 0.0)
        assert solve_peak_slope(ansatz.interior(-3.0), p, m) <= 8.5

    def test_complex_solve_peak_memory_per_index(self, laguerre0):
        # complex u: 16 B per index (16.0 measured; 96 built whole)
        m, p = laguerre0
        assert solve_peak_slope(ansatz.at_plus(1.0), p, m) <= 16.5


def solve_peak_slope(zp, p, m, Ns=(200_000, 1_000_000)):
    """Growth of a whole-window unit-tail solve's traced peak, in bytes
    per window index, between the window lengths Ns."""
    peaks = []
    for N in Ns:
        tracemalloc.start()
        try:
            volterra.solve(zp, p, m, N=N, tail_init="unit")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return (peaks[1] - peaks[0]) / (Ns[1] - Ns[0])


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
    # Rcal = 0 makes the tail sums, hence the boundary data, exactly
    # (u_N, D_N) = (1, 0) and u = 1 exactly, in a one-stretch window and
    # in a longer one, read whole or on the head only (the stretches
    # above it then only hand the state down)
    m, p = laguerre0
    chunk = volterra._rcal_chunk

    def zero_rr(*args):
        out = chunk(*args)
        out[0][1:] = 0.0
        return out

    monkeypatch.setattr(volterra, "_rcal_chunk", zero_rr)
    zp = ansatz.at_plus(1.0)
    ctx = ansatz.phase_context(zp, p)
    for N in (3000, 40_000):
        assert volterra._top_boundary([ctx], m, N, N)[0][:2] == (1.0, 0.0)
        for n_top in (None, ctx.n_start + 1):
            sol = volterra.solve(zp, p, m, N=N, n_top=n_top)
            assert len(sol.u) == (n_top or N) - ctx.n_start + 1
            assert np.all(sol.u == 1.0)



# -- groups of points solved in lockstep --------------------------------------

# the points of a group share the model, N and the tail mode; their
# window starts differ (2048 at the whole line's -2 + i0, 8 elsewhere), and
# the last point of each group fails on its own: a real point inside the
# a.c. set without a side tag, a threshold
GROUPS = {
    "whole_line": (power(1.25, 0.0, -0.875), 60_000,
                   [ansatz.at_plus(-2.0), ansatz.at_plus(1.5),
                    ansatz.interior(0.7 - 0.4j), ansatz.interior(1.5)]),
    "laguerre": (None, 20_000,
                 [ansatz.at_plus(1.0), ansatz.interior(1.0 + 1.0j),
                  ansatz.interior(-1.0), ansatz.at_plus(0.0)]),
}


def assert_same_solution(got, want):
    """Two VolterraSolutions equal bit for bit."""
    assert got.u.dtype == want.u.dtype and np.array_equal(got.u, want.u)
    assert (got.n0, got.N, got.residual, got.conjugated, got.meta) == \
        (want.n0, want.N, want.residual, want.conjugated, want.meta)


def alone(zp, p, m, **kwargs):
    """The point's solve on its own, or the error it raises."""
    try:
        return volterra.solve(zp, p, m, **kwargs)
    except CritJacError as exc:
        return exc


class TestGroup:
    @pytest.mark.parametrize("n_top", [None, 0])
    @pytest.mark.parametrize("tail_init", ["unit", "asymptotic"])
    @pytest.mark.parametrize("case", list(GROUPS))
    def test_group_matches_each_point_alone(self, laguerre0, case, tail_init, n_top):
        # each point of a group gets the u, residual and meta of its solve
        # alone bit for bit, a.c., complex and real points alike, and a
        # point that fails keeps its own error while the rest go on
        model, N, points = GROUPS[case]
        m, p = model or laguerre0
        group = volterra.solve_group(points, p, m, N=N, tail_init=tail_init, n_top=n_top)
        assert len(group) == len(points) and isinstance(group[-1], CritJacError)
        for zp, got in zip(points, group):
            want = alone(zp, p, m, N=N, tail_init=tail_init, n_top=n_top)
            if isinstance(want, CritJacError):
                assert (type(got), str(got)) == (type(want), str(want))
            else:
                assert_same_solution(got, want)

    @pytest.mark.parametrize("case", list(GROUPS))
    def test_omega_group_matches_each_point_alone(self, laguerre0, case):
        model, N, points = GROUPS[case]
        m, p = model or laguerre0
        for zp, got in zip(points, solutions.omega_group(points, p, m, N=N)):
            try:
                assert got == solutions.omega(zp, p, m, N=N)
            except CritJacError as exc:
                assert (type(got), str(got)) == (type(exc), str(exc))

    @pytest.mark.parametrize("tail_init", ["unit", "asymptotic"])
    @pytest.mark.parametrize("budget", ["default", "two_complex"])
    def test_batches_match_each_point_alone(self, laguerre0, monkeypatch, budget,
                                            tail_init):
        # a head solve (n_top = 0) hands the states of nine complex and
        # three real points down each stretch above the bottom one in
        # batches: with the module's budget the complex points fill more
        # than one batch, with a budget of two complex (four real) points
        # each fills several; every point gets its solve alone bit for bit
        m, p = laguerre0
        points = [ansatz.at_plus(lam) for lam in (0.5, 1.0, 1.5, 2.0, 3.0)] + \
            [ansatz.interior(z) for z in (1.0 + 1.0j, 0.5 + 0.2j, 2.0 - 0.3j, 4.0 + 0.1j,
                                           -1.0, -0.5, -2.0)]
        b = volterra._block_size(volterra._CHUNK)
        per_point = 2 * b * -(-volterra._CHUNK // b) * 16     # complex step rows
        assert volterra._BATCH_BYTES // per_point < 9
        if budget == "two_complex":
            monkeypatch.setattr(volterra, "_BATCH_BYTES", 2 * per_point)
        group = volterra.solve_group(points, p, m, N=60_000, tail_init=tail_init, n_top=0)
        for zp, got in zip(points, group):
            sol = volterra.solve(zp, p, m, N=60_000, tail_init=tail_init, n_top=0)
            assert_same_solution(got, sol)
            assert sol.u.dtype.kind == ("f" if zp.z.imag == 0 and zp.z.real < 0 else "c")

    @pytest.mark.parametrize("stage, chunk, n_top", [
        ("tail", "_kernel_chunk", None), ("window", "_local_chunk", None),
        ("tail", "_kernel_chunk", 0), ("window", "_local_chunk", 0),
    ], ids=["tail-_kernel_chunk", "window-_local_chunk",
            "tail-_kernel_chunk-head", "window-_local_chunk-head"])
    def test_failure_stays_with_its_point(self, laguerre0, monkeypatch, stage, chunk,
                                          n_top):
        # a non-finite kernel term at one point of a group, in its tail
        # window or its window, fails that point alone: the others still
        # get their solves alone bit for bit.  With n_top = 0 the window's
        # term lands in a stretch whose states are handed down in one batch
        m, p = laguerre0
        points = [ansatz.at_plus(1.0), ansatz.interior(1.0 + 1.0j), ansatz.interior(-1.0)]
        bad_w = ansatz.phase_context(points[1], p).w
        build = getattr(volterra, chunk)

        def broken(ctx, st, *head):
            out = build(ctx, st, *head)
            if ctx.w == bad_w:
                out[0][len(out[0]) // 2] = np.nan
            return out

        monkeypatch.setattr(volterra, chunk, broken)
        group = volterra.solve_group(points, p, m, N=40_000, n_top=n_top)
        # the window's top stretch, the first one swept, is where it fails
        match = "non-finite tail term" if stage == "tail" else \
            "non-finite kernel transfer on [32768, 40000]"
        assert isinstance(group[1], NumericFailure) and match in str(group[1])
        for k in (0, 2):
            assert_same_solution(group[k], volterra.solve(points[k], p, m, N=40_000,
                                                          n_top=n_top))

    def test_explicit_window_too_short_for_a_point_raises(self, monkeypatch):
        # an N that does not fit one point's window start is the call's
        # error, raised before anything is built; a default window past
        # N_CAP is the point's own (test_default_window_start_beyond_cap)
        m, p = power(1.25, 0.0, -0.875)
        monkeypatch.setattr(volterra, "_solve_window", None)   # never reached
        with pytest.raises(InvalidParameter, match=r"window too short: n0 = 32768"):
            volterra.solve_group([ansatz.at_plus(1.0), ansatz.at_plus(-4.0)], p, m, N=20_000)

    @pytest.mark.parametrize("below", [1, 3])
    @pytest.mark.parametrize("n_top", [None, 0])
    def test_window_start_just_below_a_stretch_edge(self, laguerre0, below, n_top):
        # a window that starts `below` indices under a multiple of 2^14 has
        # a bottom stretch of `below` steps; u matches one scalar loop over
        # the whole window and solves its equation to rounding, and a head
        # solve reads the same u
        m, p = laguerre0
        zp, C = ansatz.at_plus(1.0), volterra._CHUNK
        n0 = 2 * C - below
        N = n0 + 30_000
        assert volterra._stretches(n0, N)[0] == (n0, 2 * C)
        ctx = ansatz.phase_context(zp, p, n0)
        lam, rr = volterra._local_chunk(ctx, stretch(ctx, m, n0, N))
        whole = volterra.solve(zp, p, m, n0=n0, N=N, tail_init="unit")
        assert sweep_error(whole.u, scalar_sweep(lam, rr)) <= 1e-12
        assert whole.residual < 1e-14
        sol = volterra.solve(zp, p, m, n0=n0, N=N, tail_init="unit", n_top=n_top)
        assert np.array_equal(sol.u, whole.u[:len(sol.u)])
