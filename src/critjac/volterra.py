"""Discrete Volterra equation for the Jost correction u_n.

The multiplicative substitution f_n = A_n u_n turns the three-term
recurrence into

    Lambda_n (u_{n+1} - u_n) - (u_n - u_{n-1}) = Rcal_n u_n,
    Lambda_n = (a_n / a_{n-1}) A_{n+1} / A_{n-1},
    Rcal_n   = -sqrt(a_n / a_{n-1}) (A_n / A_{n-1}) r_n,

whose bounded solution with u_n -> 1 satisfies the summation equation
u_n = 1 + sum_{m>n} G_{n,m} Rcal_m u_m with kernel
G_{n,m} = X_{m-1} sum_{p=n}^{m-1} X_p^{-1}, X_n = Lambda_{n0+1}...Lambda_n.

Instead of iterating that series, the solver runs the equivalent exact
backward identity

    u_n - u_{n+1} = X_n^{-1} sum_{m>n} X_{m-1} Rcal_m u_m

as a single O(N) sweep:  D_n = Rcal_{n+1} u_{n+1} + Lambda_{n+1} D_{n+1},
u_n = u_{n+1} + D_n, with u_N = 1, D_N = 0.  Each step is a 2x2 linear
map of (u_n, D_n), so the sweep is evaluated blockwise: numpy runs all
blocks of about sqrt((N - n0)/2) steps at once from unit states, and a
short scalar pass chains the block transfer matrices (backward_sweep).  The
result solves the truncated summation equation exactly, so the classical
estimate |u_n - 1| <= exp(H_n) - 1 holds with the majorant H_n.  H_n is a
bound only inside the window: its part beyond N is fitted (twice the
largest scaled h_m over the last quarter of the window), so
exp(H_n) - 1 is an estimate, not a certified bound.

All X-products and prefix sums are carried as (log-magnitude, unit
phase); exp(+-Im phase-sum) spans hundreds of orders of magnitude off
the spectrum.  log Lambda_n is taken in real arithmetic (_principal_log),
not by numpy's complex log: on the a.c. set |Lambda_n| - 1 lies in
[2.5e-6, 0.07], where glibc's clog takes a slow exact path on every
element; the real form is over ten times faster and gives log|Lambda_n| to
a few eps and arg Lambda_n as arctan2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ansatz import (
    PhaseContext,
    SpectralPoint,
    ansatz_ratio_window,
    phase_context,
    remainder_window,
)
from .coeffs import CoefficientModel, CriticalParams
from .errors import InvalidParameter, NumericFailure, TruncationTooShort

N_CAP = 10_000_000
DEFAULT_TOL = 1e-4


@dataclass
class VolterraSolution:
    """Correction factors u_n on [n0, N] with error estimates.

    tail_bound is the fitted majorant sum H_N over m > N; H[k] estimates
    a bound on |u_{n0+k} - 1| through exp(H) - 1 (an estimate because
    H includes the fitted tail_bound); residual is the worst relative
    defect of the difference equation over the window.
    """

    u: np.ndarray
    n0: int
    N: int
    tail_bound: float
    residual: float
    H: np.ndarray
    conjugated: bool
    meta: dict = field(default_factory=dict)

    def u_at(self, n: int) -> complex:
        if not self.n0 <= n <= self.N:
            raise InvalidParameter(f"u defined on [{self.n0}, {self.N}]")
        return complex(self.u[n - self.n0])


class VolterraKernel:
    """Kernel data (Lambda, Rcal, X, prefix sums, majorants) on [n0, N].

    Arrays are indexed by offset k = n - n0; everything is evaluated at
    the canonical (upper half-plane) point, conjugation happens when the
    solution is assembled.
    """

    def __init__(self, ctx: PhaseContext, model: CoefficientModel,
                 n0: int, N: int):
        self.ctx = ctx
        self.n0 = int(n0)
        self.N = int(N)
        p = ctx.params
        (self.lam, self.rr, self.logX, self.argX,
         self.logPS, self.uniPS) = _kernel_arrays(ctx, model, n0, N)
        # h-majorant: h_m >= sup_{n0<=n<m} |G_{n,m} Rcal_m|
        run = np.maximum.accumulate(self.logPS)
        habs = np.abs(self.rr[1:]) * np.exp(self.logX[:-1] + run[:-1])
        del run
        self.h = np.concatenate([[0.0], 2.0 * habs])
        del habs
        nu, delta = p.nu, p.delta
        if delta - nu <= 1.0:
            raise InvalidParameter("tail exponent nu - delta must be < -1")
        self._fit_tail(nu, delta)
        # H_n = sum_{m>n} h_m within the window + fitted tail beyond N
        rev = np.cumsum(self.h[::-1])[::-1]
        self.H = np.concatenate([rev[1:], [0.0]]) + self.tail_beyond

    def _fit_tail(self, nu: float, delta: float):
        """Majorant beyond N, fitted as h_m ~ C m^(nu-delta) with C twice the
        largest scaled h_m over the last quarter of the window: an
        estimate, not a bound."""
        lo = max(self.n0 + 1, int(self.N * 0.75))
        ns = np.arange(lo, self.N + 1, dtype=float)
        scaled = self.h[lo - self.n0:] * ns ** (delta - nu)
        C = 2.0 * float(np.max(scaled)) if len(scaled) else 0.0
        self.tail_const = C
        self.tail_beyond = C * self.N ** (nu - delta + 1.0) / (delta - nu - 1.0)

    # -- solving ------------------------------------------------------------

    def sweep(self, u_top: complex = 1.0 + 0.0j,
              d_top: complex = 0.0 + 0.0j) -> np.ndarray:
        """Backward sweep for u on [n0, N].

        With the default boundary data the tail beyond N is treated as
        u = 1; tail-corrected boundary values come from _top_boundary().
        """
        return backward_sweep(self.lam, self.rr, u_top, d_top)

    def residual(self, u: np.ndarray) -> float:
        du = u[1:] - u[:-1]
        res = self.lam[1:-1] * du[1:] - du[:-1] - self.rr[1:-1] * u[1:-1]
        scale = np.maximum(1.0, np.abs(u[1:-1]))
        return float(np.max(np.abs(res) / scale)) if len(res) else 0.0


def _kernel_arrays(ctx: PhaseContext, model: CoefficientModel, n0: int,
                   N: int) -> tuple[np.ndarray, ...]:
    """Kernel arrays on offsets [0, N - n0]: (lam, rr, logX, argX, logPS, uniPS).

    lam and rr hold Lambda_n and Rcal_n (entry 0 is nan); logX, argX give
    X_n = Lambda_{n0+1} ... Lambda_n in log form (X_{n0} = 1); logPS, uniPS
    give the prefix sums PS_k = sum_{p=n0}^{n0+k} X_p^{-1}, scaled blockwise.
    """
    if N <= n0:
        raise InvalidParameter("window needs N > n0")
    # Temporaries are dropped as soon as they are dead: the arrays are
    # built for windows of up to 2N indices, and what is held at once
    # sets the peak memory of a solve.
    ns = np.arange(n0, N + 1, dtype=float)
    B = ansatz_ratio_window(ctx, n0, N + 1)              # B_n, n in [n0, N]
    a = model.a_fn(ns)
    del ns
    ratio = a[1:] / a[:-1]                               # a_n/a_{n-1}, n >= n0+1
    lam = np.empty(N + 1 - n0, dtype=complex)            # Lambda_n, n >= n0+1
    lam[0] = np.nan
    lam[1:] = ratio * B[1:] * B[:-1]
    r = remainder_window(ctx, model, n0 + 1, N + 1, B, a)
    del a
    rr = np.empty(N + 1 - n0, dtype=complex)             # Rcal_n, n >= n0+1
    rr[0] = np.nan
    rr[1:] = -np.sqrt(ratio) * B[:-1] * r
    del B, r, ratio

    loglam, arglam = _principal_log(lam[1:])             # |arg Lambda| << pi
    logX = np.concatenate([[0.0], np.cumsum(loglam)])
    del loglam
    argX = np.concatenate([[0.0], np.cumsum(arglam)])
    del arglam
    logPS, uniPS = _scaled_prefix_sum(-logX, -argX)
    return lam, rr, logX, argX, logPS, uniPS


def _principal_log(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal log of z as (log|z|, arg z), in real arithmetic.

    log|z| = log1p(|z|^2 - 1) / 2 with |z|^2 - 1 = (x - 1)(x + 1) + y^2
    where that is below 1/2 in size, log(hypot(x, y)) elsewhere; arg z =
    arctan2(y, x).  This is glibc's near-unit formula without its
    extended-precision |z|^2 - 1, so log|z| agrees with np.log(z).real to
    a few eps absolute, i.e. |z| to a few ulp.
    """
    x, y = z.real, z.imag
    s = (x - 1.0) * (x + 1.0) + y * y                    # |z|^2 - 1
    logabs = 0.5 * np.log1p(s)
    far = np.abs(s) >= 0.5
    if far.any():
        logabs[far] = np.log(np.hypot(x[far], y[far]))
    return logabs, np.arctan2(y, x)


def backward_sweep(lam: np.ndarray, rr: np.ndarray,
                   u_top: complex = 1.0 + 0.0j,
                   d_top: complex = 0.0 + 0.0j) -> np.ndarray:
    """u on offsets [0, K] from D_k = Rcal_{k+1} u_{k+1} + Lambda_{k+1} D_{k+1},
    u_k = u_{k+1} + D_k, started from (u_K, D_K) = (u_top, d_top).

    lam[0] and rr[0] are unused; K = len(lam) - 1.

    Each step is linear in the state (u, D), so the K steps are cut into
    nb blocks of b ~ sqrt(K/2) steps.  All blocks are first run at once
    from the unit states (1, 0) and (0, 1) (b vectorised steps over
    arrays of length nb); a short scalar pass then chains the nb block
    transfer matrices from (u_top, d_top), and u = U0 u_in + U1 D_in is
    recombined in one array operation.  The summation order differs from
    a step-by-step loop, so u differs from it at rounding level only.
    """
    K = len(lam) - 1
    b = _block_size(K)
    nb = -(-K // b)
    R, L = _step_rows(rr, K, b, nb), _step_rows(lam, K, b, nb)
    # U[t, j] = u after step t of every block, started from unit state j
    U = np.empty((b, 2, nb), dtype=complex)
    u = np.zeros((2, nb), dtype=complex)
    d = np.zeros((2, nb), dtype=complex)
    u[0] = 1.0
    d[1] = 1.0
    tmp = np.empty((2, nb), dtype=complex)
    for t in range(b):
        np.multiply(R[t], u, out=tmp)
        np.multiply(L[t], d, out=d)
        d += tmp
        u = np.add(u, d, out=U[t])
    del R, L, tmp
    # chain the block transfers [[u0, u1], [d0, d1]] from the top state
    ue0, ue1, de0, de1 = u[0].tolist(), u[1].tolist(), d[0].tolist(), d[1].tolist()
    u_in, d_in = [0j] * nb, [0j] * nb
    uc, dc = complex(u_top), complex(d_top)
    for i in range(nb):
        u_in[i], d_in[i] = uc, dc
        uc, dc = ue0[i] * uc + ue1[i] * dc, de0[i] * uc + de1[i] * dc
    U0, U1 = U[:, 0, :], U[:, 1, :]
    U0 *= np.asarray(u_in)
    U1 *= np.asarray(d_in)
    U0 += U1
    out = np.empty(K + 1, dtype=complex)
    out[K] = u_top
    # step s = i*b + t of block i lands on offset K - 1 - s
    full, rest = divmod(K, b)
    rev = out[:K][::-1]
    rev[:full * b].reshape(full, b)[...] = U0.T[:full]
    if rest:
        rev[full * b:] = U0[:rest, full]
    return out


def _block_size(K: int) -> int:
    """Steps per block of the backward sweep: b ~ sqrt(K/2) balances the
    b vectorised steps against the K/b scalar chain steps."""
    return max(1, round(math.sqrt(K / 2.0)))


def _step_rows(a: np.ndarray, K: int, b: int, nb: int) -> np.ndarray:
    """a_{K-s} for step s = i*b + t at row t, column i; zero past step K-1."""
    out = np.zeros((b, nb), dtype=complex)
    full, rest = divmod(K, b)
    rev = a[:0:-1]
    out.T[:full] = rev[:full * b].reshape(full, b)
    if rest:
        out[:rest, full] = rev[full * b:]
    return out


def _scaled_prefix_sum(logv: np.ndarray, argv: np.ndarray,
                       max_block: int = 65536,
                       span: float = 500.0) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums of exp(logv + i*argv) as (log-magnitude, unit phase).

    Terms are summed blockwise in the frame of the block's running
    maximum; a block is cut as soon as that frame would grow by more
    than `span` nats, so every partial sum stays inside the normal
    double range no matter how steeply the magnitudes climb.  A partial
    sum that is exactly zero comes out as (-inf, 1).
    """
    n = len(logv)
    out_log = np.empty(n)
    out_unit = np.empty(n, dtype=complex)
    carry_log, carry_unit = -np.inf, 1.0 + 0.0j
    lo = 0
    while lo < n:
        cap = min(lo + max_block, n)
        runmax = np.maximum.accumulate(logv[lo:cap])
        frame0 = max(float(logv[lo]), carry_log)
        cut = np.nonzero(runmax > frame0 + span)[0]
        hi = lo + int(cut[0]) if len(cut) and cut[0] > 0 else (
            lo + 1 if len(cut) else cap)
        ref = max(float(runmax[hi - 1 - lo]), carry_log)
        terms = np.exp(logv[lo:hi] - ref + 1j * argv[lo:hi])
        partial = np.cumsum(terms)
        if np.isfinite(carry_log):
            partial = partial + np.exp(carry_log - ref) * carry_unit
        mag = np.abs(partial)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(mag, out=out_log[lo:hi])
            np.divide(partial, mag, out=out_unit[lo:hi])
        out_log[lo:hi] += ref
        if not mag.all():                    # a sum that cancels exactly
            out_unit[lo:hi][mag == 0.0] = 1.0
        carry_log, carry_unit = float(out_log[hi - 1]), complex(out_unit[hi - 1])
        lo = hi
    return out_log, out_unit


def _reverse_prefix(logv: np.ndarray, argv: np.ndarray):
    """Inclusive reverse prefix sums, log-framed: R_k = sum_{q >= k} v_q."""
    lg, un = _scaled_prefix_sum(logv[::-1], argv[::-1])
    return lg[::-1], un[::-1]


def _fit_partial_limit(partials: np.ndarray, ms: np.ndarray,
                       exponents: tuple[float, ...]) -> np.ndarray:
    """Limits of partial-sum sequences with power-law remainder shapes.

    partials holds one complex sequence per column.  Each is regressed
    against {1, m^e1, m^e2} over the second half of the window;
    oscillatory remainder components average out across many phase
    periods, the power components are captured by the basis, and the
    constant term is the limit.  The basis is real, so one real
    least-squares solve takes the real and imaginary parts of every
    column as its right-hand sides.
    """
    K = len(partials)
    lo = K // 2
    sl = slice(lo, K)
    cols = [np.ones(K - lo)]
    cols += [ms[sl].astype(float) ** e for e in exponents]
    A = np.vstack(cols).T
    P = partials[sl]
    coef, *_ = np.linalg.lstsq(A, np.hstack([P.real, P.imag]), rcond=None)
    c = P.shape[1]
    return coef[0, :c] + 1j * coef[0, c:]


def _top_boundary(ctx: PhaseContext, model: CoefficientModel, N: int,
                  tail_len: int) -> tuple[complex, complex]:
    """Boundary data (u_N, D_N) from the kernel's own tail.

    Approximates u_N = 1 + sum_{m>N} G_{N,m} Rcal_m u_m and
    D_N = sum_{m>N} (X_{m-1}/X_N) Rcal_m u_m with u_m expanded to second
    order inside the tail, and extracts the limits of the truncated sums
    by regression against their power-law remainder shapes.  This removes
    the top-of-window truncation error, which otherwise decays only like
    N^(nu - delta + 1) and leaks undamped into Wronskians and the Jost
    function.  Raises NumericFailure if a tail term is not finite or the
    second-order correction d_m exceeds e^30.
    """
    M = N + int(tail_len)
    # The tail window needs the kernel arrays only, not the majorant.
    lam, rr, logX, argX, logPS, uniPS = _kernel_arrays(ctx, model, N, M)
    del lam
    K = M - N
    p = ctx.params
    # This window is twice the solve's, so what it holds at once sets the
    # peak memory of a whole solve: arrays are dropped once they are dead.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        absr = np.abs(rr[1:])
        logy = np.where(absr > 0.0, np.log(np.where(absr > 0.0, absr, 1.0)),
                        -np.inf) + logX[:-1]
        del absr
        argy = np.angle(rr[1:]) + argX[:-1]
        logt = logy + logPS[:-1]
        argt = argy + np.angle(uniPS[:-1])
        # Dropped here, not at their last use: the order of these frees
        # decides how much freed heap glibc keeps resident.  Freeing them
        # before logt and argt, or lam only here, raised the peak RSS of a
        # 41-point two-thread whole-line density sweep (N = 1e5) by 15 to
        # 25 MB.
        del rr, logX, argX
        logPS, uniPS = logPS[:-2], uniPS[:-2]
        # second-order: u_m - 1 ~ d_m = A_m - PS_{m-1} B_m with the
        # exclusive reverse sums A_m = sum_{q>m} t_q, B_m = sum_{q>m} y_q
        d = np.zeros(K, dtype=complex)
        if K > 64:
            logA, uniA = _reverse_prefix(logt, argt)
            d[:-1] = _tail_exp(logA[1:]) * uniA[1:]
            del logA, uniA
        # |y| and |t| are h-majorant sized, so plain exponentials are safe
        t = _require_finite(np.exp(logt + 1j * argt), "t")   # G_{N,m} Rcal_m, m = N+1+k
        del logt, argt
        if K > 64:
            logB, uniB = _reverse_prefix(logy, argy)
            d[:-1] -= _tail_exp(logPS + logB[1:]) * uniPS * uniB[1:]
            del logB, uniB
            _require_finite(d, "d")
        del logPS, uniPS
        y = _require_finite(np.exp(logy + 1j * argy), "y")   # (X_{m-1}/X_N) Rcal_m
        del logy, argy
        sums = np.empty((K, 2), dtype=complex)
        np.cumsum(t * (1.0 + d), out=sums[:, 0])
        del t
        np.cumsum(y * (1.0 + d), out=sums[:, 1])
        del y, d
        ms = N + 1.0 + np.arange(K)
        slow = p.nu - p.delta + 1.0          # power remainder of the sums
        osc = 2.0 * p.nu - p.delta           # oscillatory-envelope remainder
        t_lim, y_lim = _fit_partial_limit(sums, ms, (slow, osc))
    return complex(1.0 + t_lim), complex(y_lim)


def _tail_exp(logmag: np.ndarray) -> np.ndarray:
    """exp(logmag) for the tail correction d_m, refused beyond e^30: the
    second-order expansion of u_m - 1 has no meaning there."""
    if np.any(logmag > 30.0):
        raise NumericFailure("tail correction d_m exceeds e^30 at the window top")
    # numpy rounds exp differently on a reversed view (scalar loop) than on
    # a contiguous array (SIMD loop); a contiguous copy keeps the rounding
    # independent of how the caller sliced its sums.
    return np.exp(np.ascontiguousarray(logmag))


def _require_finite(v: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise NumericFailure(f"non-finite tail term {name}_m at the window top")
    return v


# -- public operations -------------------------------------------------------


def default_window(zp: SpectralPoint, params: CriticalParams,
                   model: CoefficientModel, n0: int | None = None,
                   tol: float = DEFAULT_TOL) -> tuple[int, int]:
    """Smallest N with fitted H_N < tol, capped at 10^7."""
    ctx = phase_context(zp, params, n0)
    n0 = ctx.n_start
    probe_N = 4 * n0 + 2000
    kern = VolterraKernel(ctx, model, n0, probe_N)
    C = kern.tail_const
    s = params.delta - params.nu - 1.0
    if C == 0.0:
        return n0, probe_N
    N = int((C / (s * tol)) ** (1.0 / s)) + 1
    return n0, min(max(N, probe_N), N_CAP)


def solve(zp: SpectralPoint, params: CriticalParams, model: CoefficientModel,
          n0: int | None = None, N: int | None = None,
          tol: float = DEFAULT_TOL,
          tail_init: str = "asymptotic") -> VolterraSolution:
    """Bounded solution of the Volterra equation by one backward sweep.

    tail_init selects the boundary data at the window top: "unit" sets
    u = 1 beyond N (the bare sweep), "asymptotic" (default) seeds the
    sweep with tail sums of the kernel itself, removing the slow
    N^(1-sigma) boundary error that Wronskian-type outputs inherit.
    Either way u solves the same linear equation, so the
    difference-equation residual stays at rounding level.
    """
    ctx = phase_context(zp, params, n0)
    n0 = ctx.n_start
    if N is None:
        _, N = default_window(zp, params, model, n0, tol)
    if N <= n0 + 2:
        raise InvalidParameter("window too short")
    if tail_init not in ("unit", "asymptotic"):
        raise InvalidParameter("tail_init must be 'unit' or 'asymptotic'")

    kern = VolterraKernel(ctx, model, n0, N)
    if kern.tail_beyond >= 1.0:
        raise TruncationTooShort(
            f"tail bound {kern.tail_beyond:.3g} >= 1 at N = {N}; "
            "raise N or n0"
        )
    if tail_init == "asymptotic":
        u_top, d_top = _top_boundary(ctx, model, N, min(2 * N, 1_000_000))
        u = kern.sweep(u_top, d_top)
    else:
        u = kern.sweep()
    meta = {"n0": n0, "N": N, "tol": tol, "tail_init": tail_init}
    res = kern.residual(u)
    if not (np.all(np.isfinite(u)) and math.isfinite(res)):
        raise NumericFailure(f"non-finite Volterra solution on [{n0}, {N}]")
    if ctx.conj:
        u = u.conjugate()
    return VolterraSolution(u=u, n0=n0, N=N, tail_bound=kern.tail_beyond,
                            residual=res, H=kern.H, conjugated=ctx.conj,
                            meta=meta)


def diagnostics_rows(sol: VolterraSolution, stride: int = 1):
    """(n, |u_n - 1|, estimated bound exp(H_n) - 1) rows for the test harness."""
    for k in range(0, sol.N - sol.n0 + 1, stride):
        yield sol.n0 + k, abs(sol.u[k] - 1.0), float(np.expm1(sol.H[k]))


def diagnostics_csv(sol: VolterraSolution, stride: int = 1) -> str:
    header = "n,abs_u_minus_1,bound"
    lines = [header] + [
        f"{n},{du:.17g},{bd:.17g}" for n, du, bd in diagnostics_rows(sol, stride)
    ]
    return "\n".join(lines) + "\n"
