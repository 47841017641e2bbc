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
the spectrum.  The log-framed sums (_scaled_prefix_sum) take their terms
in the same form, a real log-magnitude and a unit complex phase, so a
term costs a real exp and a complex product; a complex exp of
log + i*angle costs over ten times that, and turning unit phases back
into angles costs an arctan2 per element.  arg X_n is the one angle
left: it is the real cumulative sum of arg Lambda_n and becomes a unit
phase once, by cos and sin.

log Lambda_n is taken in real arithmetic (_principal_log),
not by numpy's complex log: on the a.c. set |Lambda_n| - 1 lies in
[2.5e-6, 0.07], where glibc's clog takes a slow exact path on every
element; the real form is over ten times faster and gives log|Lambda_n| to
a few eps and arg Lambda_n as arctan2.

A kernel is float64 exactly when theta_n is purely imaginary on its
window: real z off the closure of the a.c. set (the discrete region, the
resolvent set).  There B_n, Lambda_n, Rcal_n, X_n, the prefix sums and u_n
are real, so every array takes the dtype of B_n (ansatz_ratio_window)
and no layer forces complex: Lambda_n > 0, log X_n is a real cumulative
sum, the unit phases are 1 and the sweep runs in float64.  Points on the
a.c. set and non-real z run the same functions in complex arithmetic,
bit for bit as before.  The real remainder rounds its divisions as the
complex one does, so at real points Omega moves against the complex
pipeline only by the last bits of B_n (a real exp against a complex
one), which the remainder's cancellation amplifies: 6.6e-13 to 1.1e-12
relative with the unit tail, 9.4e-12 to 2.0e-10 with the asymptotic
tail; eigenvalue zeros move by at most 6e-17.

The window top is seeded from first-order tail sums of the kernel over
the next N indices (at most 10^6), their limits fitted against a remainder
model with Levin's oscillating remainder (_top_boundary); letting the
oscillation average out instead needed a tail window twice as long.
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
    defect of the difference equation over the window.  u is float64
    where the kernel is real, complex128 elsewhere.
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
    """Kernel data on [n0, N]: Lambda_n (lam), Rcal_n (rr), the majorant
    sums H and the fitted tail (tail_const, tail_beyond).

    Arrays are indexed by offset k = n - n0; everything is evaluated at
    the canonical (upper half-plane) point, conjugation happens when the
    solution is assembled.  X_n, its prefix sums and the pointwise
    majorant h_m are needed only to form H and are not kept: a solve
    holds the kernel while it builds the tail window, so what the
    kernel keeps adds to the peak memory of the solve.
    """

    def __init__(self, ctx: PhaseContext, model: CoefficientModel,
                 n0: int, N: int):
        self.n0 = int(n0)
        self.N = int(N)
        p = ctx.params
        nu, delta = p.nu, p.delta
        if delta - nu <= 1.0:
            raise InvalidParameter("tail exponent nu - delta must be < -1")
        self.lam, self.rr, logX, _, logPS, _ = _kernel_arrays(ctx, model, n0, N)
        del _                                # the phases: the majorant needs none
        # h-majorant: h_m >= sup_{n0<=n<m} |G_{n,m} Rcal_m|
        run = np.maximum.accumulate(logPS)
        del logPS
        habs = np.abs(self.rr[1:]) * np.exp(logX[:-1] + run[:-1])
        del run, logX
        h = np.concatenate([[0.0], 2.0 * habs])
        del habs
        self.tail_const, self.tail_beyond = self._fit_tail(h, nu, delta)
        # H_n = sum_{m>n} h_m within the window + fitted tail beyond N
        rev = np.cumsum(h[::-1])[::-1]
        self.H = np.concatenate([rev[1:], [0.0]]) + self.tail_beyond

    def _fit_tail(self, h: np.ndarray, nu: float,
                  delta: float) -> tuple[float, float]:
        """(C, sum of the majorant beyond N), fitted as h_m ~ C m^(nu-delta)
        with C twice the largest scaled h_m over the last quarter of the
        window: an estimate, not a bound."""
        lo = max(self.n0 + 1, int(self.N * 0.75))
        ns = np.arange(lo, self.N + 1, dtype=float)
        scaled = h[lo - self.n0:] * ns ** (delta - nu)
        C = 2.0 * float(np.max(scaled)) if len(scaled) else 0.0
        return C, C * self.N ** (nu - delta + 1.0) / (delta - nu - 1.0)

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
    """Kernel arrays on offsets [0, N - n0]: (lam, rr, logX, uniXinv, logPS, uniPS).

    lam and rr hold Lambda_n and Rcal_n (entry 0 is nan); logX and uniXinv
    give X_n = Lambda_{n0+1} ... Lambda_n (X_{n0} = 1) as log|X_n| and the
    unit phase of X_n^{-1}, e^{-i arg X_n}; logPS, uniPS give the prefix
    sums PS_k = sum_{p=n0}^{n0+k} X_p^{-1}, scaled blockwise.

    The arrays take the dtype of B_n (ansatz_ratio_window).  A real kernel
    has Lambda_n > 0, so log X_n is the cumulative sum of the real log
    Lambda_n and every unit phase is 1; Lambda_n <= 0 there raises
    NumericFailure.
    """
    if N <= n0:
        raise InvalidParameter("window needs N > n0")
    # Temporaries are dropped as soon as they are dead: the arrays are
    # built for the solve's window and for its tail window, and what is
    # held at once sets the peak memory of a solve.
    ns = np.arange(n0, N + 1, dtype=float)
    B = ansatz_ratio_window(ctx, n0, N + 1)              # B_n, n in [n0, N]
    a = model.a_fn(ns)
    del ns
    ratio = a[1:] / a[:-1]                               # a_n/a_{n-1}, n >= n0+1
    lam = np.empty(N + 1 - n0, dtype=B.dtype)            # Lambda_n, n >= n0+1
    lam[0] = np.nan
    lam[1:] = ratio * B[1:] * B[:-1]
    r = remainder_window(ctx, model, n0 + 1, N + 1, B, a)
    del a
    rr = np.empty(N + 1 - n0, dtype=B.dtype)             # Rcal_n, n >= n0+1
    rr[0] = np.nan
    rr[1:] = -np.sqrt(ratio) * B[:-1] * r
    del B, r, ratio

    if np.iscomplexobj(lam):
        loglam, arglam = _principal_log(lam[1:])         # |arg Lambda| << pi
        logX = np.concatenate([[0.0], np.cumsum(loglam)])
        del loglam
        argX = np.concatenate([[0.0], np.cumsum(arglam)])
        del arglam
        uniXinv = np.empty(len(argX), dtype=complex)    # e^{-i arg X_n}
        np.cos(argX, out=uniXinv.real)
        np.sin(-argX, out=uniXinv.imag)
        del argX
    else:
        # a real B_n has the sign of -gamma throughout, so Lambda_n > 0
        if not np.all(lam[1:] > 0.0):
            raise NumericFailure("real kernel with Lambda_n <= 0 or not finite")
        logX = np.concatenate([[0.0], np.cumsum(np.log(lam[1:]))])
        uniXinv = np.ones(len(logX))
    logPS, uniPS = _scaled_prefix_sum(-logX, uniXinv)
    return lam, rr, logX, uniXinv, logPS, uniPS


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

    The sweep runs in the dtype of lam and rr, and in complex arithmetic
    only if they are complex or the boundary data has an imaginary part.
    """
    K = len(lam) - 1
    b = _block_size(K)
    nb = -(-K // b)
    u_top, d_top = complex(u_top), complex(d_top)
    dtype = np.result_type(lam, rr, 1j if u_top.imag or d_top.imag else 1.0)
    if dtype.kind != "c":
        u_top, d_top = u_top.real, d_top.real
    R, L = _step_rows(rr, K, b, nb, dtype), _step_rows(lam, K, b, nb, dtype)
    # U[t, j] = u after step t of every block, started from unit state j
    U = np.empty((b, 2, nb), dtype=dtype)
    u = np.zeros((2, nb), dtype=dtype)
    d = np.zeros((2, nb), dtype=dtype)
    u[0] = 1.0
    d[1] = 1.0
    tmp = np.empty((2, nb), dtype=dtype)
    for t in range(b):
        np.multiply(R[t], u, out=tmp)
        np.multiply(L[t], d, out=d)
        d += tmp
        u = np.add(u, d, out=U[t])
    del R, L, tmp
    # chain the block transfers [[u0, u1], [d0, d1]] from the top state
    ue0, ue1, de0, de1 = u[0].tolist(), u[1].tolist(), d[0].tolist(), d[1].tolist()
    u_in, d_in = [0j] * nb, [0j] * nb
    uc, dc = u_top, d_top
    for i in range(nb):
        u_in[i], d_in[i] = uc, dc
        uc, dc = ue0[i] * uc + ue1[i] * dc, de0[i] * uc + de1[i] * dc
    U0, U1 = U[:, 0, :], U[:, 1, :]
    U0 *= np.asarray(u_in)
    U1 *= np.asarray(d_in)
    U0 += U1
    out = np.empty(K + 1, dtype=dtype)
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


def _step_rows(a: np.ndarray, K: int, b: int, nb: int,
               dtype: np.dtype) -> np.ndarray:
    """a_{K-s} for step s = i*b + t at row t, column i; zero past step K-1."""
    out = np.zeros((b, nb), dtype=dtype)
    full, rest = divmod(K, b)
    rev = a[:0:-1]
    out.T[:full] = rev[:full * b].reshape(full, b)
    if rest:
        out[:rest, full] = rev[full * b:]
    return out


def _scaled_prefix_sum(logv: np.ndarray, unitv: np.ndarray,
                       max_block: int = 65536,
                       span: float = 500.0) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums of exp(logv) * unitv as (log-magnitude, unit phase).

    Each term comes in as a real log-magnitude and a unit complex phase,
    the form the sums themselves come out in, so a term costs one real
    exp and one complex product.  Angles would cost a complex exp per
    term (over ten times as much: 9.9 against 0.75 ms for 2e5 terms) and,
    where a phase is a product of unit numbers, an np.angle per factor.

    Terms are summed blockwise in the frame of the block's running
    maximum; a block is cut as soon as that frame would grow by more
    than `span` nats, so every partial sum stays inside the normal
    double range no matter how steeply the magnitudes climb.  A partial
    sum that is exactly zero comes out as (-inf, 1).  The phases come out
    in the dtype of unitv: real terms give real signs.
    """
    n = len(logv)
    out_log = np.empty(n)
    out_unit = np.empty(n, dtype=unitv.dtype)
    carry_log, carry_unit = -np.inf, 1.0
    lo = 0
    while lo < n:
        cap = min(lo + max_block, n)
        runmax = np.maximum.accumulate(logv[lo:cap])
        frame0 = max(float(logv[lo]), carry_log)
        cut = np.nonzero(runmax > frame0 + span)[0]
        hi = lo + int(cut[0]) if len(cut) and cut[0] > 0 else (
            lo + 1 if len(cut) else cap)
        ref = max(float(runmax[hi - 1 - lo]), carry_log)
        terms = np.exp(logv[lo:hi] - ref) * unitv[lo:hi]
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
        carry_log, carry_unit = float(out_log[hi - 1]), out_unit[hi - 1].item()
        lo = hi
    return out_log, out_unit


def _fit_partial_limit(partials: np.ndarray, ms: np.ndarray,
                       exponents: tuple[float, ...],
                       terms: np.ndarray) -> tuple[np.ndarray, float]:
    """Limits of partial-sum sequences (one per column, each summing terms
    that oscillate like `terms`) and the fit's relative residual, the
    largest ||fit - partials|| / ||partials|| of a column.

    Each column is regressed over the second half of the window against
    {1, m^e for e in exponents, omega_m}, omega_m = terms_m terms_{m+1} /
    (terms_m - terms_{m+1}) (Levin's remainder estimate, exact for a
    geometric series); the constant is the limit.  omega_m is 0 where
    both terms have underflowed to zero or subnormals; any other
    non-finite omega_m raises NumericFailure.  A complex omega enters the
    real basis as its real and imaginary parts, so one real least-squares
    solve takes the real and imaginary parts of every column.
    """
    K = len(partials) - 1                    # the last sum has no omega_m
    lo = K // 2
    y0, y1 = terms[lo:K], terms[lo + 1:K + 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        omega = y1 / (1.0 - y1 / y0)         # no product of two small terms
    bad = ~np.isfinite(omega)                # subnormal neighbours can be equal
    if not np.all(np.maximum(abs(y0[bad]), abs(y1[bad])) < np.finfo(float).tiny):
        raise NumericFailure("non-finite tail term omega_m at the window top")
    omega[bad] = 0.0
    P = partials[lo:K]
    c, split = P.shape[1], np.iscomplexobj(P)
    A = np.empty((K - lo, len(exponents) + 2 + split), order="F")
    A[:, 0] = 1.0
    A[:, 1:len(exponents) + 1] = ms[lo:K, None] ** np.asarray(exponents)
    if split:
        A[:, -2], A[:, -1] = omega.real, omega.imag
        P = np.hstack([P.real, P.imag])
    else:
        A[:, -1] = omega
    # unit-size columns: else the SVD cutoff drops a small omega column
    top = np.maximum(A.max(axis=0), -A.min(axis=0))
    A /= np.where(top > 0.0, top, 1.0)           # the constant column stays 1
    coef = np.linalg.lstsq(A, P, rcond=None)[0]
    R = A @ coef - P
    err = np.einsum("ij,ij->j", R, R).reshape(-1, c).sum(axis=0)
    scale = np.einsum("ij,ij->j", P, P).reshape(-1, c).sum(axis=0)
    lim = coef[0, :c] + 1j * coef[0, c:] if split else coef[0]
    return lim, float(np.sqrt(np.max(err / np.where(scale > 0.0, scale, 1.0))))


def _top_boundary(ctx: PhaseContext, model: CoefficientModel, N: int,
                  tail_len: int) -> tuple[complex, complex, float]:
    """Boundary data (u_N, D_N) from the kernel's own tail, and the tail
    fit's relative residual.

    Sums u_N - 1 = sum_{m>N} G_{N,m} Rcal_m u_m and
    D_N = sum_{m>N} (X_{m-1}/X_N) Rcal_m u_m to first order (u_m = 1) over
    tail_len indices above N and fits their limits (_fit_partial_limit)
    with the powers m^(nu - delta + 1), m^(2 nu - delta) and the eikonal
    correction m^(nu - delta + 1 - sigma), plus the oscillating remainder
    of the D-sum terms.  This removes the top-of-window truncation error,
    which otherwise decays only like N^(nu - delta + 1).  No second-order
    term (u_m - 1 inside the tail): summed only to the tail window's end
    it is cut short by about its own size and made the limits worse.
    Raises NumericFailure if a tail term is not finite.  A real kernel
    keeps every term real and gives real boundary data.
    """
    M = N + int(tail_len)
    # The tail window needs the kernel arrays only, not the majorant.
    lam, rr, logX, uniX, logPS, uniPS = _kernel_arrays(ctx, model, N, M)
    del lam
    np.conjugate(uniX, out=uniX)                 # e^{+i arg X}: X's own phase
    K = M - N
    # What this window holds at once sets the peak memory of a whole
    # solve, so arrays are dropped once they are dead.  y_m and
    # t_m = y_m PS_{m-1} are formed from log-magnitudes and unit phases.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        absr = np.abs(rr[1:])
        logy = np.where(absr > 0.0, np.log(np.where(absr > 0.0, absr, 1.0)),
                        -np.inf) + logX[:-1]
        uniy = rr[1:] / absr
        if not absr.all():                       # Rcal_m = 0: any unit phase
            uniy[absr == 0.0] = 1.0
        del absr
        uniy *= uniX[:-1]
        logt = logy + logPS[:-1]
        unit = uniy * uniPS[:-1]
        # Dropped here, not at their last use: the order of these frees
        # decides how much freed heap glibc keeps resident.  Freeing them
        # before logt and its phases, or lam only here, raised the peak RSS
        # of a 41-point two-thread whole-line density sweep (N = 1e5) by 15
        # to 25 MB (measured when the phases were still angles).
        del rr, logX, uniX, logPS, uniPS
        # |y| and |t| are h-majorant sized, so plain exponentials are safe
        t = _require_finite(np.exp(logt) * unit, "t")   # G_{N,m} Rcal_m, m = N+1+k
        del logt, unit
        y = _require_finite(np.exp(logy) * uniy, "y")   # (X_{m-1}/X_N) Rcal_m
        del logy, uniy
    sums = np.empty((K, 2), dtype=t.dtype)
    np.cumsum(t, out=sums[:, 0])
    del t
    np.cumsum(y, out=sums[:, 1])
    ms = N + 1.0 + np.arange(K)
    p = ctx.params
    slow = p.nu - p.delta + 1.0                  # power remainder of the sums
    exponents = (slow, 2.0 * p.nu - p.delta, slow - p.sigma)
    (t_lim, y_lim), resid = _fit_partial_limit(sums, ms, exponents, y)
    return (1.0 + t_lim).item(), y_lim.item(), resid


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
    sweep with tail sums of the kernel itself over the next min(N, 10^6)
    indices (_top_boundary), removing the slow N^(1-sigma) boundary error
    that Wronskian-type outputs inherit.  Either way u solves the same
    linear equation, so the difference-equation residual stays at
    rounding level.  meta records the window, tail_init, the tail
    window's length tail_len (0 for "unit") and the tail fit's relative
    residual tail_fit_residual (None for "unit").
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
    u_top, d_top, tail_len, fit_residual = 1.0 + 0.0j, 0.0 + 0.0j, 0, None
    if tail_init == "asymptotic":
        tail_len = min(N, 1_000_000)
        u_top, d_top, fit_residual = _top_boundary(ctx, model, N, tail_len)
    # a non-finite kernel term makes the block products overflow or form
    # inf - inf; the solve checks u itself and raises NumericFailure
    with np.errstate(over="ignore", invalid="ignore"):
        u = kern.sweep(u_top, d_top)
    meta = {"n0": n0, "N": N, "tol": tol, "tail_init": tail_init,
            "tail_len": tail_len, "tail_fit_residual": fit_residual}
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
