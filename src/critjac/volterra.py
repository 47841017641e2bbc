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
map of (u_n, D_n), so a stretch of K steps is swept blockwise: numpy runs
all blocks of about sqrt(K/2) steps at once from unit states, and a short
scalar pass chains the block transfer matrices (backward_sweep).  The
result solves the truncated summation equation exactly.  The classical
majorant |u_n - 1| <= exp(H_n) - 1 is not computed: its part beyond N
can only be fitted, and fitted it read 0.098 to 2.05 where Omega's
truncation error was 2.4e-6 to 2.9e-4 (eight points, N = 5e4 against
4e5).  Errors are estimated a posteriori instead (solutions.jost's
normalisation_estimate) or by comparing windows.

The window is never held whole.  Lambda_n and Rcal_n are local in n, so
the sweep builds the window's stretches of 2^14 indices (_local_chunk)
from the top down and hands the state (u, D) from each stretch to the
one below (VolterraKernel.sweep).  A stretch below n_top, the highest
index whose u the caller reads, is swept for u; a stretch above it only
moves the state down.  u on [n0, n_top] is therefore the whole-window u
bit for bit, and a solve holds O(2^14) memory besides u: Omega, which
reads u only at n0 and n0 + 1, holds O(2^14) however long the window.

The window top is seeded from first-order tail sums of the kernel over
the next N indices (at most 10^6), their limits fitted against a remainder
model with Levin's oscillating remainder (_top_boundary); letting the
oscillation average out instead needed a tail window twice as long.  The
tail window is streamed the same way; its sums need X_n and the prefix
sums of X_n^{-1}, carried from stretch to stretch (_kernel_chunk).

A kernel stretch is float64 exactly when theta_n is purely imaginary on
it: real z off the closure of the a.c. set (the discrete region, the
resolvent set).  There B_n, Lambda_n, Rcal_n, X_n, the prefix sums and
u_n are real, so every array takes the dtype of B_n (ansatz_ratio_window)
and no layer forces complex: Re Phi_n = 0, the unit phases are 1 and the
sweep runs in float64.  The sweep of a stretch runs in complex arithmetic
when the stretch or the state handed down to it is complex, so u is real
exactly when every stretch from the window top down is.  The tail window
carries prefix sums up, so there a complex stretch makes every stretch
above it complex (_kernel_chunk).  Points on the a.c. set and non-real z
run the same functions in complex arithmetic.  At real points Omega
moves against the complex pipeline only by the last bits of B_n (a real
exp against a complex one), which the remainder's cancellation
amplifies: 6.6e-13 to 1.1e-12 relative with the unit tail, 9.4e-12 to
2.0e-10 with the asymptotic tail; eigenvalue zeros move by at most 6e-17.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgeqrf

from .ansatz import (
    PhaseContext,
    SpectralPoint,
    ansatz_ratio_window,
    phase_context,
    remainder_window,
    theta_window,
)
from .coeffs import CoefficientModel, CriticalParams
from .errors import InvalidParameter, NumericFailure

N_CAP = 10_000_000
_TAIL_CAP = 1_000_000                     # longest tail window (_top_boundary)
_CHUNK = 2 ** 14                          # indices per stretch of a window
_WINDOW_START = (None, 0j, 0.0, 1.0)      # c0 from n0, Phi_{n0} = 0, PS_{n0} = 1 (_kernel_chunk)
_SUM_BLOCK = 65536                        # most terms per frame of _scaled_prefix_sum
_SUM_SPAN = 500.0                         # nats a frame may grow before it is cut


@dataclass
class VolterraSolution:
    """Correction factors u_n on [n0, n_top] of the window [n0, N], n_top
    the highest index the caller reads (N by default).  residual is the
    worst relative defect of the difference equation on every stretch
    whose u the sweep computed (VolterraKernel.sweep).  u is float64 where
    the kernel is real, complex128 elsewhere.
    """

    u: np.ndarray
    n0: int
    N: int
    residual: float
    conjugated: bool
    meta: dict = field(default_factory=dict)

    def u_at(self, n: int) -> complex:
        hi = self.n0 + len(self.u) - 1
        if not self.n0 <= n <= hi:
            raise InvalidParameter(f"u defined on [{self.n0}, {hi}]")
        return complex(self.u[n - self.n0])


class VolterraKernel:
    """The window [n0, N] and its backward sweep for u on [n0, n_top]
    (n_top clamped to [n0 + 1, N], default N).

    Nothing is built here: sweep builds the window's stretches, the edges
    range(n0, N, _CHUNK), top stretch first.  Everything is evaluated at
    the canonical (upper half-plane) point; conjugation happens when the
    solution is assembled.
    """

    def __init__(self, ctx: PhaseContext, model: CoefficientModel,
                 n0: int, N: int, n_top: int | None = None):
        self.ctx, self.model = ctx, model
        self.n0, self.N = int(n0), int(N)
        if ctx.params.delta - ctx.params.nu <= 1.0:
            raise InvalidParameter("tail exponent nu - delta must be < -1")
        if self.N <= self.n0:
            raise InvalidParameter("window needs N > n0")
        self.n_top = self.N if n_top is None else min(max(int(n_top), self.n0 + 1), self.N)
        self.residual = None

    def sweep(self, u_top: complex = 1.0 + 0.0j,
              d_top: complex = 0.0 + 0.0j) -> np.ndarray:
        """u on [n0, n_top] from (u_N, D_N) = (u_top, d_top), the
        stretches swept from the top down.

        A stretch [lo, hi] with lo < n_top runs backward_sweep and leaves
        its u in place (an entry at a stretch edge is the state handed
        down); one above only moves the state down (_block_pass, _chain),
        in backward_sweep's dtype.  Sets self.residual, the worst relative
        defect of the difference equation over the swept stretches, each
        with the u above its top where that was swept.  A non-finite
        state below a stretch raises NumericFailure.

        With the default boundary data the tail beyond N is treated as
        u = 1; tail-corrected boundary values come from _top_boundary().
        """
        n0, n_top = self.n0, self.n_top
        u, u_above, self.residual = None, None, 0.0
        state = (u_top, d_top)
        for lo in reversed(range(n0, self.N, _CHUNK)):
            hi = min(lo + _CHUNK, self.N)
            lam, rr = _local_chunk(self.ctx, self.model, lo, hi)
            # a non-finite kernel term makes the block products overflow
            # or form inf - inf; the state is checked below
            with np.errstate(over="ignore", invalid="ignore"):
                if lo >= n_top:
                    _, b, nb, dtype, *start = _sweep_setup(lam, rr, *state)
                    state = _chain(_block_pass(lam, rr, b, nb, dtype), *start)[2]
                else:
                    part, state = backward_sweep(lam, rr, *state)
                    if u is None:
                        u = np.empty(n_top - n0 + 1, dtype=part.dtype)
                    elif part.dtype.kind == "c" and u.dtype.kind != "c":
                        u = u.astype(complex)        # a complex stretch under real ones
                    top = min(hi, n_top) - lo
                    u[lo - n0:lo - n0 + top + 1] = part[:top + 1]
                    if u_above is not None:
                        part = np.append(part, u_above)
                    self.residual = max(self.residual, _defect(lam, rr, part))
                    u_above = part[1]
            if not np.all(np.isfinite(state)):
                raise NumericFailure(f"non-finite kernel transfer on [{lo}, {hi}]")
        return u


def _defect(lam: np.ndarray, rr: np.ndarray, u: np.ndarray) -> float:
    """Worst relative defect of Lambda_k (u_{k+1} - u_k) - (u_k - u_{k-1})
    = Rcal_k u_k over a stretch's u, at the offsets 0 < k < len(u) - 1."""
    k = len(u) - 1
    du = u[1:] - u[:-1]
    res = lam[1:k] * du[1:] - du[:-1] - rr[1:k] * u[1:k]
    scale = np.maximum(1.0, np.abs(u[1:k]))
    return float(np.max(np.abs(res) / scale)) if len(res) else 0.0


def _local_chunk(ctx: PhaseContext, model: CoefficientModel, lo: int,
                 hi: int) -> tuple:
    """(lam, rr): Lambda_n and Rcal_n on the stretch [lo, hi] of the
    solve's window, indexed by n - lo (entry 0 is nan: it belongs to the
    stretch below), in the dtype of B_n (_rcal_chunk).
    """
    rr, B, ratio, _ = _rcal_chunk(ctx, model, lo, hi, float)
    lam = np.empty(hi + 1 - lo, dtype=B.dtype)            # Lambda_n, n >= lo+1
    lam[0] = np.nan
    lam[1:] = ratio * B[1:] * B[:-1]
    return lam, rr


def _rcal_chunk(ctx: PhaseContext, model: CoefficientModel, lo: int, hi: int,
                dtype: np.dtype, th: np.ndarray | None = None) -> tuple:
    """(rr, B, ratio, a): Rcal_n on the stretch [lo, hi] (entry 0 nan),
    B_n and a_n on [lo, hi] and a_n/a_{n-1} on [lo + 1, hi], in the dtype
    of B_n promoted to `dtype`: float in the solve's window, the stretch
    below's in the tail window.  Each caller forms the other products it
    needs from B_n and the ratio: the window Lambda_n (_local_chunk), the
    tail nothing more (_kernel_chunk).  th is theta_n on [lo, hi] where
    the caller keeps it (_kernel_chunk); otherwise it is built here and
    dropped as soon as B_n is built, 16 B per index off a window
    stretch's peak.
    """
    if th is None:
        th = theta_window(ctx, lo, hi + 1)                # theta_n, n in [lo, hi]
    B = ansatz_ratio_window(ctx, lo, hi + 1, th)          # B_n, n in [lo, hi]
    del th
    B = B.astype(np.result_type(B, dtype), copy=False)
    a = model.a_fn(np.arange(lo, hi + 1, dtype=float))
    r = remainder_window(ctx, model, lo + 1, hi + 1, B, a)
    ratio = a[1:] / a[:-1]                                # a_n/a_{n-1}, n >= lo+1
    rr = np.empty(hi + 1 - lo, dtype=B.dtype)             # Rcal_n, n >= lo+1
    rr[0] = np.nan
    rr[1:] = -np.sqrt(ratio) * B[:-1] * r
    return rr, B, ratio, a


def _kernel_chunk(ctx: PhaseContext, model: CoefficientModel, lo: int, hi: int,
                  head: tuple = _WINDOW_START) -> tuple:
    """The tail window's arrays on the stretch [lo, hi] of a window that
    starts at n0: (rr, logX, uniXinv, logPS, uniPS, head), indexed by
    n - lo.

    rr holds Rcal_n (_rcal_chunk); logX and uniXinv give
    X_n = Lambda_{n0+1} ... Lambda_n as log|X_n| and the unit phase of
    X_n^{-1}, e^{-i arg X_n}; logPS, uniPS give the prefix sums
    PS_n = sum_{p=n0}^{n} X_p^{-1}, scaled blockwise: exp(+-Im Phi_n)
    spans hundreds of orders of magnitude off the spectrum.

    X_n telescopes to a_n A_n A_{n+1} / (a_{n0} A_{n0} A_{n0+1}), so with
    |gamma| = 1 it is taken in closed form, not from Lambda_n:
    log|X_n| = log a_n - rho log(n (n + 1)) - Im Phi_n - c0 and
    arg X_n = Re Phi_n, where Phi_n is the running sum of
    theta_k + theta_{k-1} over k in (n0, n] and c0 is log a_n0 -
    rho log(n0 (n0 + 1)).  Against a 40-digit sum of log Lambda_k,
    log|X_N| is off by 8.9e-16 on the Laguerre kernel at 1 + i0
    (N = 2e5), the summed logs of the rounded Lambda_n by 5.7e-12.

    `head` is (c0, Phi_lo, log|PS_lo|, phase of PS_lo), _WINDOW_START
    where lo = n0 (c0 is then taken at lo); the returned head is the same
    at hi, for the stretch above.  The running sums go on from the head,
    so the stretches of a window add in the order of one pass over it.
    The PS phase hands the dtype up (_rcal_chunk).  Phi is always
    complex; on a real kernel Re Phi_n = 0 and every unit phase is 1.
    """
    c0, phi0, logps0, unips0 = head
    th = theta_window(ctx, lo, hi + 1)                    # theta_n, n in [lo, hi]
    rr, _, _, a = _rcal_chunk(ctx, model, lo, hi, np.result_type(unips0), th)
    phi = np.empty(hi + 1 - lo, dtype=complex)            # Phi_n
    phi[0] = phi0
    np.add(th[1:], th[:-1], out=phi[1:])
    del th
    np.cumsum(phi, out=phi)
    ns = np.arange(lo, hi + 1, dtype=float)
    logX = np.log(a) - ctx.params.rho * np.log(ns * (ns + 1.0))
    del a, ns
    if c0 is None:
        c0 = float(logX[0])
    logX -= phi.imag
    logX -= c0
    uniXinv = np.ones(hi + 1 - lo, dtype=rr.dtype)        # e^{-i arg X_n}: 1 on a real kernel
    if uniXinv.dtype.kind == "c":
        np.cos(phi.real, out=uniXinv.real)
        np.sin(-phi.real, out=uniXinv.imag)
    phi_hi = complex(phi[-1])
    del phi

    logv = np.negative(logX)
    logv[0] = -np.inf                    # X_lo^{-1} is in the head's sum already
    logPS, uniPS = _scaled_prefix_sum(logv, uniXinv, carry=(logps0, unips0))
    return (rr, logX, uniXinv, logPS, uniPS,
            (c0, phi_hi, float(logPS[-1]), uniPS[-1].item()))


def backward_sweep(lam: np.ndarray, rr: np.ndarray,
                   u_top: complex = 1.0 + 0.0j,
                   d_top: complex = 0.0 + 0.0j) -> tuple[np.ndarray, tuple]:
    """u on offsets [0, K] from D_k = Rcal_{k+1} u_{k+1} + Lambda_{k+1} D_{k+1},
    u_k = u_{k+1} + D_k, started from (u_K, D_K) = (u_top, d_top), and the
    state (u_0, D_0) at the bottom, for a stretch below.

    lam[0] and rr[0] are unused; K = len(lam) - 1.

    Each step is linear in the state (u, D), so the K steps are cut into
    nb blocks of b ~ sqrt(K/2) steps.  All blocks are first run at once
    from the unit states (1, 0) and (0, 1) (_block_pass: b vectorised
    steps over arrays of length nb); a short scalar pass (_chain) then
    chains the nb block transfer matrices from (u_top, d_top), and
    u = U0 u_in + U1 D_in is recombined in one array operation.  The
    summation order differs from a step-by-step loop, so u differs from it
    at rounding level only.  u_0 is recombined like the rest; the bottom
    state is the chain's own.

    The sweep runs in the dtype of lam and rr, and in complex arithmetic
    only if they are complex or the boundary data has an imaginary part.
    """
    K, b, nb, dtype, u_top, d_top = _sweep_setup(lam, rr, u_top, d_top)
    # U[t, j] = u after step t of every block, started from unit state j
    U = np.empty((b, 2, nb), dtype=dtype)
    u_in, d_in, bottom = _chain(_block_pass(lam, rr, b, nb, dtype, U), u_top, d_top)
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
    return out, bottom


def _sweep_setup(lam: np.ndarray, rr: np.ndarray, u_top, d_top) -> tuple:
    """(K, b, nb, dtype, u_top, d_top) of the sweep over lam, rr: its
    steps, block size and block count, and its dtype with the boundary
    data in it (backward_sweep)."""
    K = len(lam) - 1
    b = _block_size(K)
    u_top, d_top = complex(u_top), complex(d_top)
    dtype = np.result_type(lam, rr, 1j if u_top.imag or d_top.imag else 1.0)
    if dtype.kind != "c":
        u_top, d_top = u_top.real, d_top.real
    return K, b, -(-K // b), dtype, u_top, d_top


def _block_pass(lam: np.ndarray, rr: np.ndarray, b: int, nb: int,
                dtype: np.dtype, U: np.ndarray | None = None) -> tuple[list, ...]:
    """Run the nb blocks of b steps of the sweep on lam, rr at once from the
    unit states (1, 0) and (0, 1); U[t] receives u after step t if given.
    Returns the block transfers [[u0, u1], [d0, d1]] as four lists."""
    K = len(lam) - 1
    rest = K % b
    R, L = _step_rows(rr, K, b, nb, dtype), _step_rows(lam, K, b, nb, dtype)
    u = np.zeros((2, nb), dtype=dtype)
    d = np.zeros((2, nb), dtype=dtype)
    u[0] = 1.0
    d[1] = 1.0
    tmp = np.empty((2, nb), dtype=dtype)
    for t in range(b):
        np.multiply(R[t], u, out=tmp)
        np.multiply(L[t], d, out=d)
        d += tmp
        u = np.add(u, d, out=u if U is None else U[t])
        if t + 1 == rest:       # the zero steps past K keep u but zero D
            d_last = d[:, -1].tolist()
    ends = u[0].tolist(), u[1].tolist(), d[0].tolist(), d[1].tolist()
    if rest:
        ends[2][-1], ends[3][-1] = d_last
    return ends


def _chain(ends: tuple[list, ...], u_top, d_top) -> tuple[list, list, tuple]:
    """Chain the block transfers `ends` (_block_pass) from (u_top, d_top):
    the state entering each block, and the state below the last one."""
    ue0, ue1, de0, de1 = ends
    nb = len(ue0)
    u_in, d_in = [0j] * nb, [0j] * nb
    uc, dc = u_top, d_top
    for i in range(nb):
        u_in[i], d_in[i] = uc, dc
        uc, dc = ue0[i] * uc + ue1[i] * dc, de0[i] * uc + de1[i] * dc
    return u_in, d_in, (uc, dc)


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
                       carry: tuple = (-np.inf, 1.0)) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums of exp(logv) * unitv as (log-magnitude, unit phase),
    added to `carry`, a sum already taken in the same form.

    Each term comes in as a real log-magnitude and a unit complex phase,
    the form the sums themselves come out in, so a term costs one real
    exp and one complex product.  Angles would cost a complex exp per
    term (over ten times as much: 9.9 against 0.75 ms for 2e5 terms) and,
    where a phase is a product of unit numbers, an np.angle per factor.

    Terms are summed blockwise, at most _SUM_BLOCK at a time, in the
    frame of the block's running maximum; a block is cut as soon as that
    frame would grow by more than _SUM_SPAN nats, so every partial sum
    stays inside the normal double range no matter how steeply the
    magnitudes climb.  A partial
    sum that is exactly zero comes out as (-inf, 1).  The phases come out
    in the dtype of unitv: real terms give real signs.  The last sum is
    the carry for the terms that follow.
    """
    n = len(logv)
    out_log = np.empty(n)
    out_unit = np.empty(n, dtype=unitv.dtype)
    carry_log, carry_unit = carry
    lo = 0
    while lo < n:
        cap = min(lo + _SUM_BLOCK, n)
        runmax = np.maximum.accumulate(logv[lo:cap])
        frame0 = max(float(logv[lo]), carry_log)
        cut = np.nonzero(runmax > frame0 + _SUM_SPAN)[0]
        hi = lo + int(cut[0]) if len(cut) and cut[0] > 0 else (
            lo + 1 if len(cut) else cap)
        ref = max(float(runmax[hi - 1 - lo]), carry_log)
        terms = np.exp(logv[lo:hi] - ref) * unitv[lo:hi]
        partial = np.cumsum(terms)
        if np.isfinite(carry_log):
            partial += np.exp(carry_log - ref) * carry_unit
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


def prefix_sum_frames(lo: int, hi: int, terms):
    """_scaled_prefix_sum over the terms m in [lo, hi), one frame of
    _SUM_BLOCK terms at a time, each frame carrying the last one's sum.

    terms(a, b) returns (logv, unitv) for m in [a, b); each frame yields
    (a, b, log-magnitudes, unit phases) of the sums at m in [a, b).  The
    frames start where a single call's blocks would, so the sums equal
    that call's bit for bit up to its first _SUM_SPAN cut, and after it
    by rounding alone.  The workspace is O(_SUM_BLOCK) for any hi - lo.
    """
    carry = (-np.inf, 1.0)
    for a in range(lo, hi, _SUM_BLOCK):
        b = min(a + _SUM_BLOCK, hi)
        out_log, out_unit = _scaled_prefix_sum(*terms(a, b), carry=carry)
        carry = float(out_log[-1]), out_unit[-1].item()
        yield a, b, out_log, out_unit


class _TailFit:
    """The tail fit's state and solve: the rows fed to it by
    _fit_partial_limit, kept as the R factor of [A | P - origin] (A the
    unscaled basis, P the partial sums, origin the first fitted row of P),
    and the least-squares solve for the limits (limits).

    Rows are counted from the first fed; rows below `first` are skipped.
    Fitting P - origin leaves the limits' rounding relative to how far the
    sums still move, not to the sums themselves: a D-sum that has
    converged to 1e-7 keeps all its digits, and sums that no longer move
    give their limit exactly (uncentred, the basis's conditioning costs
    them digits: 5e-13 relative in test_fit_partial_limit_vanishing_terms).
    """

    def __init__(self, exponents: tuple[float, ...], first: int):
        self.exponents = exponents
        self.first = first
        self.seen = 0                        # rows passed, fitted or skipped
        self.rows = 0                        # rows fitted
        self.R = self.top = self.pending = self.origin = None
        self.sq = 0.0                        # ||P||^2 per real column
        self.split = False

    def add(self, P: np.ndarray, ms: np.ndarray, y: np.ndarray) -> None:
        """Fold the rows P at ms into R, row i with omega from y[i], y[i+1]."""
        skip = min(max(0, self.first - self.seen), len(P))
        self.seen += len(P)
        P, ms, y0, y1 = P[skip:], ms[skip:], y[skip:-1], y[skip + 1:]
        if not len(P):
            return
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            omega = y1 / (1.0 - y1 / y0)     # no product of two small terms
        bad = ~np.isfinite(omega)            # subnormal neighbours can be equal
        if not np.all(np.maximum(abs(y0[bad]), abs(y1[bad])) < np.finfo(float).tiny):
            raise NumericFailure("non-finite tail term omega_m at the window top")
        omega[bad] = 0.0
        if self.origin is None:
            self.origin = P[0].copy()
        self.split = np.iscomplexobj(P)
        ne, c = len(self.exponents), P.shape[1]
        na = ne + 2 + self.split
        held = 0 if self.R is None else len(self.R)
        stack = np.empty((held + len(P), na + c * (1 + self.split)), order="F")
        if held:                                 # [R; A | P - origin]
            stack[:held] = self.R
        rows = stack[held:]
        rows[:, 0] = 1.0
        rows[:, 1:ne + 1] = ms[:, None] ** np.asarray(self.exponents)
        moved = P - self.origin
        if self.split:
            rows[:, na - 2], rows[:, na - 1] = omega.real, omega.imag
            rows[:, na:na + c], rows[:, na + c:] = moved.real, moved.imag
        else:
            rows[:, na - 1] = omega
            rows[:, na:] = moved
        top = np.max(np.abs(rows[:, :na]), axis=0)
        self.top = top if self.top is None else np.maximum(self.top, top)
        self.sq += np.sum(np.abs(P) ** 2, axis=0)
        # LAPACK's Householder QR in place; numpy's qr would copy the stack
        # twice and hold the GIL throughout, stalling the other threads
        self.R = np.triu(dgeqrf(stack, overwrite_a=True)[0][:stack.shape[1]])
        self.rows += len(P)

    def limits(self) -> tuple[np.ndarray, float]:
        """Limits of the partial-sum columns (the constant's coefficient)
        and the fit's relative residual, the largest ||fit - partials|| /
        ||partials|| of a column.

        The columns are scaled to unit size as R D^-1, D their largest
        sizes: unscaled, the SVD cutoff drops a small omega column.  The
        cutoff is lstsq's default for the full row count, eps max(rows,
        columns), so the limits are those of one lstsq over all rows, up to
        the basis's conditioning (eps cond(A), cond(A) about 2e5).
        """
        na = len(self.top)
        RA = self.R[:na, :na] / np.where(self.top > 0.0, self.top, 1.0)
        RP = self.R[:na, na:]
        rcond = np.finfo(float).eps * max(self.rows, na)
        coef = np.linalg.lstsq(RA, RP, rcond=rcond)[0]
        err = np.sum((RA @ coef - RP) ** 2, axis=0) + np.sum(self.R[na:, na:] ** 2, axis=0)
        c = len(self.origin)
        err, scale = err.reshape(-1, c).sum(axis=0), self.sq
        lim = coef[0, :c] + 1j * coef[0, c:] if self.split else coef[0]
        return lim + self.origin, float(np.sqrt(np.max(err / np.where(scale > 0.0, scale, 1.0))))


def _fit_partial_limit(partials: np.ndarray, ms: np.ndarray, terms: np.ndarray,
                       fit: _TailFit) -> None:
    """Feed rows of partial-sum sequences (one per column, each summing
    terms that oscillate like `terms`) to the tail fit `fit`.

    Row i is partials[i] at ms[i], regressed against {1, m^e for e in
    fit.exponents, omega_m}, omega_m = terms_m terms_{m+1} /
    (terms_m - terms_{m+1}) (Levin's remainder estimate, exact for a
    geometric series); the constant is the limit (_TailFit.limits).  The
    last row waits (fit.pending) for the next call's first term.  omega_m
    is 0 where both terms have underflowed to zero or subnormals; any
    other non-finite omega_m raises NumericFailure.  A complex omega
    enters the real basis as its real and imaginary parts, so one real
    least-squares solve takes the real and imaginary parts of every column.

    The rows are folded into the R factor by Householder QR of [R; A | P]
    (TSQR: Demmel, Grigori, Hoemmen and Langou, SIAM J. Sci. Comput. 34
    (2012) A206), so the fit holds O(columns^2) memory for any number of
    rows; the normal equations would square the basis's condition number
    (2.2e5 on the whole line).
    """
    if fit.pending is not None:
        P0, m0, y0 = fit.pending
        fit.add(P0[None], np.array([m0]), np.array([y0, terms[0]]))
    n = len(partials) - 1
    fit.add(partials[:n], ms[:n], terms)
    fit.pending = partials[n].copy(), ms[n], terms[n]


def _top_boundary(ctx: PhaseContext, model: CoefficientModel, N: int,
                  tail_len: int) -> tuple[complex, complex, float]:
    """Boundary data (u_N, D_N) from the kernel's own tail, and the tail
    fit's relative residual.

    Sums u_N - 1 = sum_{m>N} G_{N,m} Rcal_m u_m and
    D_N = sum_{m>N} (X_{m-1}/X_N) Rcal_m u_m to first order (u_m = 1) over
    tail_len indices above N and fits their limits over the second half
    of the tail window (_fit_partial_limit) with the powers
    m^(nu - delta + 1), m^(2 nu - delta) and the eikonal correction
    m^(nu - delta + 1 - sigma), plus the oscillating remainder of the
    D-sum terms.  This removes the top-of-window truncation error, which
    otherwise decays only like N^(nu - delta + 1).  No second-order term
    (u_m - 1 inside the tail): summed only to the tail window's end it is
    cut short by about its own size and made the limits worse.

    The tail window is streamed like the solve's window (_kernel_chunk):
    the running sums are carried from stretch to stretch and the fit rows
    go into the fit's R factor, so the tail holds O(_CHUNK) memory.
    Raises NumericFailure if a tail term is not finite.  A real kernel
    keeps every term real and gives real boundary data.
    """
    p = ctx.params
    slow = p.nu - p.delta + 1.0                  # power remainder of the sums
    fit = _TailFit((slow, 2.0 * p.nu - p.delta, slow - p.sigma),
                   first=(int(tail_len) - 1) // 2)
    M = N + int(tail_len)
    carry, head = 0.0, _WINDOW_START             # the sums below the stretch
    for lo in range(N, M, _CHUNK):
        hi = min(lo + _CHUNK, M)
        arrays = _kernel_chunk(ctx, model, lo, hi, head)
        head = arrays[-1]
        sums = np.stack(_tail_terms(*arrays[:5]), axis=1)  # t_m, y_m, m in (lo, hi]
        del arrays
        y = sums[:, 1].copy()
        sums[0] += carry
        np.cumsum(sums, axis=0, out=sums)
        carry = sums[-1].copy()
        _fit_partial_limit(sums, lo + 1.0 + np.arange(hi - lo), y, fit)
    (t_lim, y_lim), resid = fit.limits()
    return (1.0 + t_lim).item(), y_lim.item(), resid


def _tail_terms(rr: np.ndarray, logX: np.ndarray, uniXinv: np.ndarray,
                logPS: np.ndarray, uniPS: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t_m = G_{N,m} Rcal_m and y_m = (X_{m-1}/X_N) Rcal_m = t_m / PS_{m-1}
    over a tail stretch (_kernel_chunk's arrays, m = lo + 1 ... hi), formed
    from log-magnitudes and unit phases."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        absr = np.abs(rr[1:])
        logy = np.log(absr)                      # -inf where Rcal_m = 0
        logy += logX[:-1]
        uniy = rr[1:] / absr
        if not absr.all():                       # Rcal_m = 0: any unit phase
            uniy[absr == 0.0] = 1.0
        uniy *= uniXinv[:-1].conjugate()         # e^{+i arg X}: X's own phase
        # t_m and y_m are terms of the convergent sums for u_N - 1 and
        # D_N, so plain exponentials are safe
        t = _require_finite(np.exp(logy + logPS[:-1]) * (uniy * uniPS[:-1]), "t")
        y = _require_finite(np.exp(logy) * uniy, "y")
    return t, y


def _require_finite(v: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise NumericFailure(f"non-finite tail term {name}_m at the window top")
    return v


# -- public operations -------------------------------------------------------


def solve(zp: SpectralPoint, params: CriticalParams, model: CoefficientModel,
          n0: int | None = None, N: int | None = None,
          tail_init: str = "asymptotic",
          n_top: int | None = None) -> VolterraSolution:
    """Bounded solution of the Volterra equation by one backward sweep.

    The window is [n0, N], n0 defaulting to the phase window start.  The
    default N is 10^6 (at least 4 n0 + 2000, at most N_CAP = 10^7): the
    longest window whose tail window is still N long.  It is a fixed
    length, not an accuracy target; pass N to trade time for accuracy.
    No window is refused as too short: u's error has no a-priori bound
    here (compare two windows, or read jost's normalisation_estimate).
    A window start at or beyond the cap raises InvalidParameter before
    anything is built.

    tail_init selects the boundary data at the window top: "unit" sets
    u = 1 beyond N (the bare sweep), "asymptotic" (default) seeds the
    sweep with tail sums of the kernel itself over the next min(N, 10^6)
    indices (_top_boundary), removing the slow N^(1-sigma) boundary error
    that Wronskian-type outputs inherit.  Either way u solves the same
    linear equation, so the difference-equation residual stays at
    rounding level.  The callers need different values: the eigenvalue
    search (spectral._omega_real) reads only the zeros of Omega and the
    head's node count, which the bare sweep keeps at about a third of
    the cost (its values are about 1e-3 off at real regular points);
    every other output (jost, omega, the resolvent) needs f's
    normalisation and takes the default.  meta records the window,
    tail_init, the tail window's length tail_len (0 for "unit") and the
    tail fit's relative residual tail_fit_residual (None for "unit").

    n_top is the highest index whose u the caller reads, clamped below to
    n0 + 1 (default N), so any n_top <= n0 + 1 asks for the head
    [n0, n0 + 1] alone, as Omega does; an n_top above N raises
    InvalidParameter before anything is built.  u covers [n0, n_top] and
    is there the whole-window u bit for bit; the residual covers every
    stretch of 2^14 indices the sweep computed u on, the one holding n0
    always among them (VolterraKernel.sweep).  The window is swept from
    the top down, one stretch at a time, so a solve holds O(2^14) memory
    besides u for any N.
    """
    ctx = phase_context(zp, params, n0)
    n0 = ctx.n_start
    if N is None:
        N = min(max(_TAIL_CAP, 4 * n0 + 2000), N_CAP)
    if N <= n0 + 2:
        raise InvalidParameter(f"window too short: n0 = {n0}, N = {N}")
    if tail_init not in ("unit", "asymptotic"):
        raise InvalidParameter("tail_init must be 'unit' or 'asymptotic'")
    if n_top is not None and n_top > N:
        raise InvalidParameter(f"index {n_top} beyond the window top N = {N}")

    u_top, d_top, tail_len, fit_residual = 1.0 + 0.0j, 0.0 + 0.0j, 0, None
    if tail_init == "asymptotic":
        tail_len = min(N, _TAIL_CAP)
        u_top, d_top, fit_residual = _top_boundary(ctx, model, N, tail_len)
    kern = VolterraKernel(ctx, model, n0, N, n_top=n_top)
    u = kern.sweep(u_top, d_top)
    meta = {"n0": n0, "N": N, "tail_init": tail_init,
            "tail_len": tail_len, "tail_fit_residual": fit_residual}
    res = kern.residual
    if not (np.all(np.isfinite(u)) and math.isfinite(res)):
        raise NumericFailure(f"non-finite Volterra solution on [{n0}, {N}]")
    if ctx.conj:
        np.conjugate(u, out=u)                   # in place: u is this solve's own
    return VolterraSolution(u=u, n0=n0, N=N, residual=res,
                            conjugated=ctx.conj, meta=meta)
