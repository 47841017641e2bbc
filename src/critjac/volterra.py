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
u_n = u_{n+1} + D_n, with u_N = 1, D_N = 0.  The result solves the
truncated summation equation exactly, so the classical bound
|u_n - 1| <= exp(H_n) - 1 holds with the computed majorant H_n.

All X-products and prefix sums are carried as (log-magnitude, unit
phase); exp(+-Im phase-sum) spans hundreds of orders of magnitude off
the spectrum.
"""

from __future__ import annotations

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
from .errors import InvalidParameter, TruncationTooShort
from .logcomplex import LogComplex

N_CAP = 10_000_000
DEFAULT_TOL = 1e-4


@dataclass
class VolterraSolution:
    """Correction factors u_n on [n0, N] with certification data.

    tail_bound is the fitted majorant sum H_N over m > N; H[k] bounds
    |u_{n0+k} - 1| through exp(H) - 1; residual is the worst relative
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
        if N <= n0:
            raise InvalidParameter("window needs N > n0")
        self.ctx = ctx
        self.model = model
        self.n0 = int(n0)
        self.N = int(N)
        p = ctx.params
        # Temporaries are dropped as soon as they are dead: the kernel is
        # built for windows of up to 2N indices, and what it holds at
        # once sets the peak memory of a solve.
        self.lam, self.rr = _lambda_rcal(ctx, model, n0, N)

        # X_n = Lambda_{n0+1} ... Lambda_n in log form; X_{n0} = 1.
        loglam = np.log(self.lam[1:])                    # |arg Lambda| << pi
        cum = np.concatenate([[0.0 + 0.0j], np.cumsum(loglam)])
        del loglam
        self.logX = cum.real                             # ln|X_n|
        self.argX = cum.imag
        # prefix sums PS_k = sum_{p=n0}^{k} X_p^{-1}, scaled blockwise
        self.logPS, self.uniPS = _scaled_prefix_sum(-self.logX, -self.argX)
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
        """Majorant beyond N: h_m ~ C m^(nu-delta), C from the last decade."""
        lo = max(self.n0 + 1, int(self.N * 0.75))
        ns = np.arange(lo, self.N + 1, dtype=float)
        scaled = self.h[lo - self.n0:] * ns ** (delta - nu)
        C = 2.0 * float(np.max(scaled)) if len(scaled) else 0.0
        self.tail_const = C
        self.tail_beyond = C * self.N ** (nu - delta + 1.0) / (delta - nu - 1.0)

    # -- kernel elements -------------------------------------------------

    def x_log(self, n: int) -> LogComplex:
        k = n - self.n0
        return LogComplex.from_polar(self.logX[k], self.argX[k])

    def prefix(self, k: int) -> LogComplex:
        """PS_{n0+k} = sum_{p=n0}^{n0+k} X_p^{-1}; PS at k=-1 is zero."""
        if k < 0:
            return LogComplex.zero()
        return LogComplex(self.logPS[k], self.uniPS[k])

    def g(self, n: int, m: int) -> LogComplex:
        if m < n + 1:
            raise InvalidParameter("kernel G_{n,m} needs m >= n+1")
        diff = self.prefix(m - 1 - self.n0) - self.prefix(n - 1 - self.n0)
        return self.x_log(m - 1) * diff

    def g_row_abs(self, n: int, ms: np.ndarray) -> np.ndarray:
        """|G_{n,m}| for an array of m > n (vectorized)."""
        ks = np.asarray(ms, dtype=int) - self.n0
        base = self.prefix(n - 1 - self.n0)
        pm = self.logPS[ks - 1]
        um = self.uniPS[ks - 1]
        if base.is_zero:
            diff_log = pm
            diff_abs = np.ones_like(pm)
            s = um
        else:
            ref = np.maximum(pm, base.logmag)
            s = np.exp(pm - ref) * um - np.exp(base.logmag - ref) * base.unit
            diff_log = ref
            diff_abs = np.abs(s)
        return np.exp(self.logX[ks - 1] + diff_log) * diff_abs

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


def _lambda_rcal(ctx: PhaseContext, model: CoefficientModel,
                 n0: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Lambda_n and Rcal_n on offsets [0, N - n0] (entry 0 is nan)."""
    ns = np.arange(n0, N + 1, dtype=float)
    B = ansatz_ratio_window(ctx, n0, N + 1)              # B_n, n in [n0, N]
    a = model.a_fn(ns)
    del ns
    ratio = a[1:] / a[:-1]                               # a_n/a_{n-1}, n >= n0+1
    del a
    lam = np.empty(N + 1 - n0, dtype=complex)            # Lambda_n, n >= n0+1
    lam[0] = np.nan
    lam[1:] = ratio * B[1:] * B[:-1]
    r = remainder_window(ctx, model, n0 + 1, N + 1, B=B)
    rr = np.empty(N + 1 - n0, dtype=complex)             # Rcal_n, n >= n0+1
    rr[0] = np.nan
    rr[1:] = -np.sqrt(ratio) * B[:-1] * r
    return lam, rr


def backward_sweep(lam: np.ndarray, rr: np.ndarray,
                   u_top: complex = 1.0 + 0.0j,
                   d_top: complex = 0.0 + 0.0j) -> np.ndarray:
    """u on offsets [0, K] from D_k = Rcal_{k+1} u_{k+1} + Lambda_{k+1} D_{k+1},
    u_k = u_{k+1} + D_k, started from (u_K, D_K) = (u_top, d_top).

    lam[0] and rr[0] are unused; K = len(lam) - 1.
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


def _scaled_prefix_sum(logv: np.ndarray, argv: np.ndarray,
                       max_block: int = 65536,
                       span: float = 500.0) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums of exp(logv + i*argv) as (log-magnitude, unit phase).

    Terms are summed blockwise in the frame of the block's running
    maximum; a block is cut as soon as that frame would grow by more
    than `span` nats, so every partial sum stays inside the normal
    double range no matter how steeply the magnitudes climb.
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
        safe = np.where(mag == 0.0, 1.0, mag)
        out_log[lo:hi] = np.where(mag == 0.0, -np.inf, ref + np.log(safe))
        out_unit[lo:hi] = np.where(mag == 0.0, 1.0 + 0.0j, partial / safe)
        carry_log, carry_unit = float(out_log[hi - 1]), complex(out_unit[hi - 1])
        lo = hi
    return out_log, out_unit


def _reverse_prefix(logv: np.ndarray, argv: np.ndarray):
    """Inclusive reverse prefix sums, log-framed: R_k = sum_{q >= k} v_q."""
    lg, un = _scaled_prefix_sum(logv[::-1], argv[::-1])
    return lg[::-1], un[::-1]


def _fit_partial_limit(partials: np.ndarray, ms: np.ndarray,
                       exponents: tuple[float, ...]) -> complex:
    """Limit of a partial-sum sequence with power-law remainder shapes.

    Regresses the partials against {1, m^e1, m^e2} over the second half
    of the window; oscillatory remainder components average out across
    many phase periods, the power components are captured by the basis,
    and the constant term is the limit.
    """
    K = len(partials)
    lo = K // 2
    sl = slice(lo, K)
    cols = [np.ones(K - lo)]
    cols += [ms[sl].astype(float) ** e for e in exponents]
    A = np.vstack(cols).T
    coef, *_ = np.linalg.lstsq(A, partials[sl], rcond=None)
    return complex(coef[0])


def _top_boundary(ctx: PhaseContext, model: CoefficientModel, N: int,
                  tail_len: int) -> tuple[complex, complex]:
    """Boundary data (u_N, D_N) from the kernel's own tail.

    Approximates u_N = 1 + sum_{m>N} G_{N,m} Rcal_m u_m and
    D_N = sum_{m>N} (X_{m-1}/X_N) Rcal_m u_m with u_m expanded to second
    order inside the tail, and extracts the limits of the truncated sums
    by regression against their power-law remainder shapes.  This removes
    the top-of-window truncation error, which otherwise decays only like
    N^(nu - delta + 1) and leaks undamped into Wronskians and the Jost
    function.
    """
    M = N + int(tail_len)
    kern = VolterraKernel(ctx, model, N, M)
    K = M - N
    p = ctx.params
    # This window is twice the solve's, so what it holds at once sets the
    # peak memory of a whole solve: every array is dropped once it is dead.
    logPS, uniPS = kern.logPS[:-2], kern.uniPS[:-2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        absr = np.abs(kern.rr[1:])
        logy = np.where(absr > 0.0, np.log(np.where(absr > 0.0, absr, 1.0)),
                        -np.inf) + kern.logX[:-1]
        del absr
        argy = np.angle(kern.rr[1:]) + kern.argX[:-1]
        logt = logy + kern.logPS[:-1]
        argt = argy + np.angle(kern.uniPS[:-1])
        del kern
        # second-order: u_m - 1 ~ d_m = A_m - PS_{m-1} B_m with the
        # exclusive reverse sums A_m = sum_{q>m} t_q, B_m = sum_{q>m} y_q
        d = np.zeros(K, dtype=complex)
        if K > 64:
            logA, uniA = _reverse_prefix(logt, argt)
            d[:-1] = np.exp(np.minimum(logA[1:], 30.0)) * uniA[1:]
            del logA, uniA
        # |y| and |t| are h-majorant sized, so plain exponentials are safe
        t = np.exp(logt + 1j * argt)   # G_{N,m} Rcal_m,   m = N+1+k
        t[~np.isfinite(t)] = 0.0
        del logt, argt
        if K > 64:
            logB, uniB = _reverse_prefix(logy, argy)
            d[:-1] -= (np.exp(np.minimum(logPS + logB[1:], 30.0))
                       * uniPS * uniB[1:])
            del logB, uniB
            d[~np.isfinite(d)] = 0.0
        del logPS, uniPS
        y = np.exp(logy + 1j * argy)   # (X_{m-1}/X_N) Rcal_m
        y[~np.isfinite(y)] = 0.0
        del logy, argy
        ms = N + 1.0 + np.arange(K)
        slow = p.nu - p.delta + 1.0          # power remainder of the sums
        osc = 2.0 * p.nu - p.delta           # oscillatory-envelope remainder
        u_top = 1.0 + _fit_partial_limit(np.cumsum(t * (1.0 + d)), ms,
                                         (slow, osc))
        del t
        d_top = _fit_partial_limit(np.cumsum(y * (1.0 + d)), ms, (slow, osc))
    return complex(u_top), complex(d_top)


# -- public operations -------------------------------------------------------


def _make_kernel(zp: SpectralPoint, params: CriticalParams,
                 model: CoefficientModel, n0: int | None,
                 N: int) -> VolterraKernel:
    ctx = phase_context(zp, params, n0)
    return VolterraKernel(ctx, model, ctx.n_start, N)


def kernel_factors(n: int, zp: SpectralPoint, params: CriticalParams,
                   model: CoefficientModel) -> tuple[complex, complex]:
    """(Lambda_n, Rcal_n) for a single index."""
    ctx = phase_context(zp, params)
    n0 = min(ctx.n_start, n - 1)
    if n0 < 2:
        raise InvalidParameter("kernel factors need n >= 3")
    ctx = phase_context(zp, params, n0)
    k = VolterraKernel(ctx, model, n0, n + 1)
    lam, rr = complex(k.lam[n - n0]), complex(k.rr[n - n0])
    if ctx.conj:
        lam, rr = lam.conjugate(), rr.conjugate()
    return lam, rr


def x_prod(n: int, zp: SpectralPoint, params: CriticalParams,
           model: CoefficientModel, n0: int | None = None) -> LogComplex:
    """X_n = Lambda_{n0+1} ... Lambda_n (empty product 1 at n = n0)."""
    kern = _make_kernel(zp, params, model, n0, max(n, 1) + 1)
    out = kern.x_log(n)
    return out.conjugate() if kern.ctx.conj else out


def kernel_g(n: int, m: int, zp: SpectralPoint, params: CriticalParams,
             model: CoefficientModel, n0: int | None = None) -> LogComplex:
    """G_{n,m} = X_{m-1} sum_{p=n}^{m-1} X_p^{-1}; G_{n,n+1} = 1 exactly."""
    kern = _make_kernel(zp, params, model, n0, m + 1)
    out = kern.g(n, m)
    return out.conjugate() if kern.ctx.conj else out


def tail_bound(N: int, zp: SpectralPoint, params: CriticalParams,
               model: CoefficientModel, n0: int | None = None) -> float:
    """Fitted majorant H_N = sum_{m>N} C m^(nu-delta); truncation error
    of the window [n0, N] is at most exp(H_N) - 1."""
    return _make_kernel(zp, params, model, n0, N).tail_beyond


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
    if ctx.conj:
        u = u.conjugate()
    return VolterraSolution(u=u, n0=n0, N=N, tail_bound=kern.tail_beyond,
                            residual=res, H=kern.H, conjugated=ctx.conj,
                            meta=meta)


def diagnostics_rows(sol: VolterraSolution, stride: int = 1):
    """(n, |u_n - 1|, certified bound) rows for the test harness."""
    for k in range(0, sol.N - sol.n0 + 1, stride):
        yield sol.n0 + k, abs(sol.u[k] - 1.0), float(np.expm1(sol.H[k]))


def diagnostics_csv(sol: VolterraSolution, stride: int = 1) -> str:
    header = "n,abs_u_minus_1,bound"
    lines = [header] + [
        f"{n},{du:.17g},{bd:.17g}" for n, du, bd in diagnostics_rows(sol, stride)
    ]
    return "\n".join(lines) + "\n"


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
