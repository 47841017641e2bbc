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
the sweep builds the window's stretches (_local_chunk) from the top down
and hands the state (u, D) from each stretch to the one below
(VolterraKernel.sweep).  A stretch below n_top, the highest index whose
u the caller reads, is swept for u; a stretch above it only moves the
state down.  u on [n0, n_top] is therefore the whole-window u bit for
bit, and a solve holds O(2^14) memory besides u: Omega, which reads u
only at n0 and n0 + 1, holds O(2^14) however long the window.

The window top is seeded from first-order tail sums of the kernel over
the next N indices (at most 10^6), their limits fitted against a remainder
model with Levin's oscillating remainder (_top_boundary); letting the
oscillation average out instead needed a tail window twice as long.  The
tail window is streamed the same way, from the bottom up; its terms need
X_n and the prefix sums of X_n^{-1}, which stay in scaled frames
(_sum_frames) from which the terms are formed directly, and only each
stretch's last sum is carried up as a log-magnitude and a phase
(_kernel_chunk).

The window's stretch edges sit at the multiples of 2^14 (_stretches),
so a stretch is the same index range for every point whatever its
window start n0; only a window's bottom stretch starts at its own n0.
The tail window's edges sit at N + k 2^14, the same for every point
that shares N.  Points that share N, the tail mode and n_top are solved
as one group in lockstep (solve_group): the tail pass bottom-up, then
the window pass top-down, and at each stretch the arrays that do not
depend on z (ansatz.Stretch: a_n, b_n, their ratios and roots,
n^-sigma, the z-free part of log|X_n|; the tail fit's powers of m) are
built once for the group.  An eigenvalue search keeps the first
stretches it builds, up to a fixed number (ansatz.keep_stretches), so
across its Omega evaluations those are built once too.  Each point then
does its own z-dependent work and carries its own state: the tail head,
sums and fit, then (u, D).  A point that fails keeps its exception and
drops out; the rest go on.  solve is the group of one.

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
    Stretch,
    ansatz_ratio_window,
    phase_context,
    remainder_window,
    stretch,
    theta_window,
)
from .coeffs import CoefficientModel, CriticalParams
from .errors import CritJacError, InvalidParameter, NumericFailure, only

N_CAP = 10_000_000
_TAIL_CAP = 1_000_000                     # longest tail window (_top_boundary)
_CHUNK = 2 ** 14                          # stretch edges sit at its multiples
_WINDOW_START = (None, 0j, 0.0, 1.0)      # c0 from n0, Phi_{n0} = 0, PS_{n0} = 1 (_kernel_chunk)
_SUM_BLOCK = 65536                        # most terms per frame of _sum_frames
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
    """The windows [n0, N] of a group of points that share N, each swept
    backward for u on [n0, n_top] (n_top clamped to [n0 + 1, N] per
    point, default N).  n0 is the lowest window start of the group.

    Nothing is built here: sweep builds the stretches of [n0, N]
    (_stretches), top stretch first.  Everything is evaluated at the
    canonical (upper half-plane) points; conjugation happens when the
    solutions are assembled.
    """

    def __init__(self, ctxs: list[PhaseContext], model: CoefficientModel,
                 N: int, n_top: int | None = None):
        self.ctxs, self.model, self.N = list(ctxs), model, int(N)
        self.params = self.ctxs[0].params
        if self.params.delta - self.params.nu <= 1.0:
            raise InvalidParameter("tail exponent nu - delta must be < -1")
        if self.N <= max(ctx.n_start for ctx in self.ctxs):
            raise InvalidParameter("window needs N > n0")
        self.n0 = min(ctx.n_start for ctx in self.ctxs)
        self.n_top = n_top

    def sweep(self, tops: list[tuple]) -> list:
        """Per point, (u, residual) with u on [n0, n_top] from its
        (u_N, D_N) in tops, or the NumericFailure that stopped it.

        At each stretch [lo, hi], from the top down, the group's
        z-independent arrays are built once (ansatz.stretch, from the
        lowest window start among the points it holds, or kept from an
        earlier evaluation of the same search) and every point
        whose window reaches below hi takes its part, from its own n0 in
        its bottom stretch, and moves its own state down (_Window.down).
        residual is the worst relative defect of the difference equation
        over the stretches swept for u, each with the u above its top
        where that was swept.  A point whose state turns non-finite drops
        out with NumericFailure.

        With unit boundary data the tail beyond N is treated as u = 1;
        tail-corrected boundary values come from _top_boundary().
        """
        wins = [_Window(ctx, self.N if self.n_top is None else
                        min(max(int(self.n_top), ctx.n_start + 1), self.N), top)
                for ctx, top in zip(self.ctxs, tops)]
        above = None
        for lo, hi in reversed(_stretches(self.n0, self.N)):
            live = [w for w in wins if w.error is None and w.ctx.n_start < hi]
            if not live:
                continue
            st = stretch(self.params, self.model,
                         max(lo, min(w.ctx.n_start for w in live)), hi + 1)
            for w in live:
                try:
                    w.down(st.since(max(lo, w.ctx.n_start)))
                except NumericFailure as exc:
                    w.error = exc
            # the stretch above is freed only now, once this one's arrays
            # are built: freed with the rest of its stretch, its memory went
            # back to the system and was faulted in again (a unit-tail head
            # solve at N = 6e4: 1,600 minor page faults, 14 to 475 this way)
            above = st
        return [w.error or (w.u, w.residual) for w in wins]


@dataclass
class _Window:
    """One point's part of a group sweep: its context, the top index n_top
    whose u it keeps, the state (u, D) handed down and u on [n0, n_top]."""

    ctx: PhaseContext
    n_top: int
    state: tuple
    u: np.ndarray | None = None
    u_above: complex | None = None
    residual: float = 0.0
    error: CritJacError | None = None

    def down(self, st: Stretch) -> None:
        """Sweep the stretch [lo, hi] = [st.lo, st.hi - 1] from the state.

        A stretch with lo < n_top runs backward_sweep and leaves its u in
        place (an entry at a stretch edge is the state handed down); one
        above only moves the state down (_block_pass, _chain), in
        backward_sweep's dtype.  A non-finite state below the stretch
        raises NumericFailure.
        """
        n0, n_top, lo, hi = self.ctx.n_start, self.n_top, st.lo, st.hi - 1
        lam, rr = _local_chunk(self.ctx, st)
        # a non-finite kernel term makes the block products overflow
        # or form inf - inf; the state is checked below
        with np.errstate(over="ignore", invalid="ignore"):
            if lo >= n_top:
                _, b, nb, dtype, *start = _sweep_setup(lam, rr, *self.state)
                self.state = _chain(_block_pass(lam, rr, b, nb, dtype), *start)[2]
            else:
                part, self.state = backward_sweep(lam, rr, *self.state)
                if self.u is None:
                    self.u = np.empty(n_top - n0 + 1, dtype=part.dtype)
                elif part.dtype.kind == "c" and self.u.dtype.kind != "c":
                    self.u = self.u.astype(complex)  # a complex stretch under real ones
                top = min(hi, n_top) - lo
                self.u[lo - n0:lo - n0 + top + 1] = part[:top + 1]
                if self.u_above is not None:
                    part = np.append(part, self.u_above)
                self.residual = max(self.residual, _defect(lam, rr, part))
                self.u_above = part[1]
        if not np.all(np.isfinite(self.state)):
            raise NumericFailure(f"non-finite kernel transfer on [{lo}, {hi}]")


def _stretches(lo: int, hi: int) -> list[tuple[int, int]]:
    """The stretches [s, t] of the index range [lo, hi], bottom up: their
    edges are lo, hi and the multiples of _CHUNK between them, so every
    range that holds a stretch [k _CHUNK, (k + 1) _CHUNK] cuts it there."""
    edges = [lo, *range((lo // _CHUNK + 1) * _CHUNK, hi, _CHUNK), hi]
    return list(zip(edges[:-1], edges[1:]))


def _defect(lam: np.ndarray, rr: np.ndarray, u: np.ndarray) -> float:
    """Worst relative defect of Lambda_k (u_{k+1} - u_k) - (u_k - u_{k-1})
    = Rcal_k u_k over a stretch's u, at the offsets 0 < k < len(u) - 1."""
    k = len(u) - 1
    du = u[1:] - u[:-1]
    res = lam[1:k] * du[1:] - du[:-1] - rr[1:k] * u[1:k]
    scale = np.maximum(1.0, np.abs(u[1:k]))
    return float(np.max(np.abs(res) / scale)) if len(res) else 0.0


def _local_chunk(ctx: PhaseContext, st: Stretch) -> tuple:
    """(lam, rr): Lambda_n and Rcal_n on the stretch [lo, hi] =
    [st.lo, st.hi - 1] of the solve's window, indexed by n - lo (entry 0
    is nan: it belongs to the stretch below), in the dtype of B_n
    (_rcal_chunk).
    """
    rr, B = _rcal_chunk(ctx, st, float)
    lam = np.empty(len(B), dtype=B.dtype)                 # Lambda_n, n >= lo+1
    lam[0] = np.nan
    lam[1:] = st.ratio * B[1:] * B[:-1]
    return lam, rr


def _rcal_chunk(ctx: PhaseContext, st: Stretch, dtype: np.dtype,
                th: np.ndarray | None = None) -> tuple:
    """(rr, B): Rcal_n on the stretch [lo, hi] = [st.lo, st.hi - 1] (entry
    0 nan) and B_n on [lo, hi], in the dtype of B_n promoted to `dtype`:
    float in the solve's window, the stretch below's in the tail window.
    Each caller forms the other products it needs from B_n and the
    stretch's arrays: the window Lambda_n (_local_chunk), the tail
    nothing more (_kernel_chunk).  th is theta_n on [lo, hi] where the
    caller keeps it (_kernel_chunk); otherwise it is built here and
    dropped as soon as B_n is built, 16 B per index off a window
    stretch's peak.
    """
    if th is None:
        th = theta_window(ctx, st)                        # theta_n, n in [lo, hi]
    B = ansatz_ratio_window(ctx, st, th)                  # B_n, n in [lo, hi]
    del th
    B = B.astype(np.result_type(B, dtype), copy=False)
    r = remainder_window(ctx, st, B)                      # r_n, n in [lo+1, hi]
    rr = np.empty(len(B), dtype=B.dtype)                  # Rcal_n, n >= lo+1
    rr[0] = np.nan
    rr[1:] = -st.root * B[:-1] * r
    return rr, B


def _kernel_chunk(ctx: PhaseContext, st: Stretch,
                  head: tuple = _WINDOW_START) -> tuple:
    """The tail window's terms on the stretch [lo, hi] = [st.lo,
    st.hi - 1] of a window that starts at n0: (t, y, head), t and y
    indexed by m - lo - 1 for m in (lo, hi], with

        t_m = G_{n0,m} Rcal_m = X_{m-1} PS_{m-1} Rcal_m,
        y_m = (X_{m-1}/X_{n0}) Rcal_m = X_{m-1} Rcal_m,

    PS_n = sum_{p=n0}^{n} X_p^{-1} and X_n = Lambda_{n0+1} ... Lambda_n
    (_x_chunk).  The prefix sums come in scaled frames (_sum_frames):
    exp(+-Im Phi_n) spans hundreds of orders of magnitude off the
    spectrum.  The terms are formed straight from them, with no log of a
    sum or of Rcal_m: y_m = exp(log|X_{m-1}|) e^{i arg X_{m-1}} Rcal_m and
    t_m = exp(log|X_{m-1}| + ref) e^{i arg X_{m-1}} Rcal_m S_{m-1}, ref and
    S the frame's reference and scaled sum; each factor stays in range
    where the terms do, since they are terms of the convergent sums for
    u_N - 1 and D_N.  Only a stretch's last sum is turned into logs, for
    the head.

    `head` is (c0, Phi_lo, log|PS_lo|, phase of PS_lo), _WINDOW_START
    where lo = n0 (c0 is then taken at lo); the returned head is the same
    at hi, for the stretch above.  The running sums go on from the head,
    so the stretches of a window add in the order of one pass over it.
    The PS phase hands the dtype up (_rcal_chunk): on a real kernel every
    unit phase is 1 and the terms are real.
    """
    c0, phi0, logps0, unips0 = head
    th = theta_window(ctx, st)                            # theta_n, n in [lo, hi]
    rr, _ = _rcal_chunk(ctx, st, np.result_type(unips0), th)
    logX, uni, c0, phi_hi = _x_chunk(st, th, c0, phi0, rr.dtype)
    del th
    logv = np.negative(logX)
    logv[0] = -np.inf                    # X_lo^{-1} is in the head's sum already
    S, frames = _sum_frames(logv, uni, carry=(logps0, unips0))
    del logv
    head = (c0, phi_hi, *_last_log(S[-1:], frames[-1][2]))
    w = rr[1:]                                            # e^{i arg X_{m-1}} Rcal_m
    w *= np.conjugate(uni[:-1], out=uni[:-1])
    del uni
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        y = np.exp(logX[:-1]) * w
        for lo, hi, ref in frames:
            S[lo:hi] *= np.exp(logX[lo:hi] + ref)
        t = S[:-1]                                        # t_m from S_{m-1}
        t *= w
    return t, y, head


def _x_chunk(st: Stretch, th: np.ndarray, c0: float | None, phi0: complex,
             dtype: np.dtype) -> tuple:
    """(logX, uniXinv, c0, Phi_hi): X_n = Lambda_{n0+1} ... Lambda_n on the
    stretch [lo, hi] = [st.lo, st.hi - 1] as log|X_n| and the unit phase of
    X_n^{-1}, e^{-i arg X_n} (1 in a real `dtype`), indexed by n - lo,
    from theta_n on [lo, hi] and the head's c0 and Phi_lo (_kernel_chunk).

    X_n telescopes to a_n A_n A_{n+1} / (a_{n0} A_{n0} A_{n0+1}), so with
    |gamma| = 1 it is taken in closed form, not from Lambda_n:
    log|X_n| = log a_n - rho log(n (n + 1)) - Im Phi_n - c0 and
    arg X_n = Re Phi_n, where Phi_n is the running sum of
    theta_k + theta_{k-1} over k in (n0, n] and c0 is log a_n0 -
    rho log(n0 (n0 + 1)) (taken at lo when None).  Against a 40-digit sum
    of log Lambda_k, log|X_N| is off by 8.9e-16 on the Laguerre kernel at
    1 + i0 (N = 2e5), the summed logs of the rounded Lambda_n by 5.7e-12.
    Phi is always complex; on a real kernel Re Phi_n = 0.
    """
    phi = np.empty(len(th), dtype=complex)                # Phi_n
    phi[0] = phi0
    np.add(th[1:], th[:-1], out=phi[1:])
    np.cumsum(phi, out=phi)
    if c0 is None:
        c0 = float(st.log_x[0])
    logX = st.log_x - phi.imag
    logX -= c0
    uniXinv = np.ones(len(phi), dtype=dtype)              # e^{-i arg X_n}: 1 on a real kernel
    if uniXinv.dtype.kind == "c":
        np.cos(phi.real, out=uniXinv.real)
        np.sin(-phi.real, out=uniXinv.imag)
    return logX, uniXinv, c0, complex(phi[-1])


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


def _sum_frames(logv: np.ndarray, unitv: np.ndarray,
                carry: tuple = (-np.inf, 1.0)) -> tuple[np.ndarray, list]:
    """Prefix sums of exp(logv) * unitv, added to `carry`, a sum given as
    (log-magnitude, unit phase), in scaled frames: (S, frames) with
    frames the list of (lo, hi, ref) that cover [0, len(logv)) bottom up,
    and the sum at k in [lo, hi) equal to exp(ref) S[k].

    Each term comes in as a real log-magnitude and a unit phase, so a
    term costs one real exp and one product; angles would cost a complex
    exp per term (over ten times as much: 9.9 against 0.75 ms for 2e5
    terms).  A frame holds at most _SUM_BLOCK terms and is cut as soon
    as the running maximum of logv would climb more than _SUM_SPAN nats
    above its start (its first term or the carry), so every scaled sum
    stays inside the normal double range however steeply the magnitudes
    climb; ref is the frame's largest log-magnitude.  The frame's maximum
    is taken first and the running maximum only where it climbs that far;
    there one running maximum finds every cut of the block by bisection,
    since past a cut the running maximum from the block start is the one
    from the cut.  S is in the dtype of unitv (real terms, real sums).
    """
    n = len(logv)
    S = np.empty(n, dtype=np.result_type(unitv, float))
    frames: list = []
    carry_log, carry_unit = carry

    def frame(lo, hi, ref):                  # sum [lo, hi) and carry it on
        nonlocal carry_log, carry_unit
        part = S[lo:hi]
        np.cumsum(np.exp(logv[lo:hi] - ref) * unitv[lo:hi], out=part)
        if np.isfinite(carry_log):
            part += np.exp(carry_log - ref) * carry_unit
        frames.append((lo, hi, ref))
        carry_log, carry_unit = _last_log(S[hi - 1:hi], ref)

    lo = 0
    while lo < n:
        cap = min(lo + _SUM_BLOCK, n)
        frame0 = max(float(logv[lo]), carry_log)
        top = float(np.max(logv[lo:cap]))
        if top <= frame0 + _SUM_SPAN:        # no cut (a NaN takes the search)
            frame(lo, cap, max(top, carry_log))
            lo = cap
            continue
        runmax = np.maximum.accumulate(logv[lo:cap])
        a = lo
        while True:
            limit = frame0 + _SUM_SPAN       # numpy sorts NaN last: check the hit
            k = a - lo + int(np.searchsorted(runmax[a - lo:], limit, "right"))
            cut = k < len(runmax) and runmax[k] > limit
            if not cut and a > lo and cap < n:
                break                        # the frame from a may reach past cap
            hi = lo + k if cut else cap
            frame(a, hi, max(float(runmax[hi - 1 - lo]), carry_log))
            a = hi
            if not cut:
                break
            frame0 = max(float(logv[a]), carry_log)
        lo = a
    return S, frames


def _to_logs(S: np.ndarray, ref: float, out_log: np.ndarray,
             out_unit: np.ndarray) -> None:
    """exp(ref) S as log-magnitudes and unit phases, into out_log and
    out_unit (which may be S itself).  An exactly zero sum comes out as
    (-inf, 1)."""
    mag = np.abs(S)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(mag, out=out_log)
        np.divide(S, mag, out=out_unit)
    out_log += ref
    if not mag.all():                        # a sum that cancels exactly
        out_unit[mag == 0.0] = 1.0


def _last_log(S: np.ndarray, ref: float) -> tuple:
    """The one sum exp(ref) S[0] as (log-magnitude, unit phase) scalars."""
    out_log, out_unit = np.empty(1), np.empty(1, dtype=S.dtype)
    _to_logs(S, ref, out_log, out_unit)
    return float(out_log[0]), out_unit[0].item()


def _scaled_prefix_sum(logv: np.ndarray, unitv: np.ndarray,
                       carry: tuple = (-np.inf, 1.0)) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums of exp(logv) * unitv as (log-magnitude, unit phase),
    added to `carry`, a sum already taken in the same form: _sum_frames'
    scaled sums, each frame turned into logs.  The phases come out in the
    dtype of unitv: real terms give real signs.  The last sum is the
    carry for the terms that follow.
    """
    S, frames = _sum_frames(logv, unitv, carry)
    out_log = np.empty(len(S))
    for lo, hi, ref in frames:
        _to_logs(S[lo:hi], ref, out_log[lo:hi], S[lo:hi])
    return out_log, S


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
    unscaled basis, P the partial sums, origin the first row of P), and
    the least-squares solve for the limits (limits).

    Fitting P - origin leaves the limits' rounding relative to how far the
    sums still move, not to the sums themselves: a D-sum that has
    converged to 1e-7 keeps all its digits, and sums that no longer move
    give their limit exactly (uncentred, the basis's conditioning costs
    them digits: 5e-13 relative in test_fit_partial_limit_vanishing_terms).
    """

    def __init__(self):
        self.rows = 0                        # rows fitted
        self.R = self.top = self.pending = self.origin = None
        self.sq = 0.0                        # ||P||^2 per real column
        self.split = False

    def add(self, P: np.ndarray, powers: np.ndarray, y: np.ndarray) -> None:
        """Fold the rows P with the power columns `powers` into R, row i
        with omega from y[i], y[i+1]."""
        y0, y1 = y[:-1], y[1:]
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
        ne, c = powers.shape[1], P.shape[1]
        na = ne + 2 + self.split
        held = 0 if self.R is None else len(self.R)
        stack = np.empty((held + len(P), na + c * (1 + self.split)), order="F")
        if held:                                 # [R; A | P - origin]
            stack[:held] = self.R
        rows = stack[held:]
        rows[:, 0] = 1.0
        rows[:, 1:ne + 1] = powers
        if self.split:                           # P - origin, part by part
            rows[:, na - 2], rows[:, na - 1] = omega.real, omega.imag
            np.subtract(P.real, self.origin.real, out=rows[:, na:na + c])
            np.subtract(P.imag, self.origin.imag, out=rows[:, na + c:])
        else:
            rows[:, na - 1] = omega
            np.subtract(P, self.origin, out=rows[:, na:])
        del omega
        basis = rows[:, :na]                     # max |A| without an |A| array
        top = np.maximum(basis.max(axis=0), -basis.min(axis=0))
        self.top = top if self.top is None else np.maximum(self.top, top)
        # ||P||^2 per column in one pass over its real and imaginary parts
        # (einsum: unlike BLAS's dot it rounds alike for any thread count)
        self.sq += np.array([np.einsum("i,i->", v, v) for v in
                             (np.ascontiguousarray(col).view(float) for col in P.T)])
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


def _fit_partial_limit(partials: np.ndarray, powers: np.ndarray, terms: np.ndarray,
                       fit: _TailFit) -> None:
    """Feed rows of partial-sum sequences (one per column, each summing
    terms that oscillate like `terms`) to the tail fit `fit`.

    Row i is partials[i] at m_i, regressed against {1, m_i^e, omega_m},
    the powers m_i^e given as the row powers[i], omega_m = terms_m
    terms_{m+1} / (terms_m - terms_{m+1}) (Levin's remainder estimate,
    exact for a geometric series); the constant is the limit
    (_TailFit.limits).  The last row waits (fit.pending) for the next
    call's first term.  omega_m is 0 where both terms have underflowed to
    zero or subnormals; any other non-finite omega_m raises
    NumericFailure.  A complex omega enters the real basis as its real and
    imaginary parts, so one real least-squares solve takes the real and
    imaginary parts of every column.

    The rows are folded into the R factor by Householder QR of [R; A | P]
    (TSQR: Demmel, Grigori, Hoemmen and Langou, SIAM J. Sci. Comput. 34
    (2012) A206), so the fit holds O(columns^2) memory for any number of
    rows; the normal equations would square the basis's condition number
    (2.2e5 on the whole line).
    """
    if fit.pending is not None:
        P0, a0, y0 = fit.pending
        fit.add(P0[None], a0[None], np.array([y0, terms[0]]))
    n = len(partials) - 1
    fit.add(partials[:n], powers[:n], terms)
    fit.pending = partials[n].copy(), powers[n], terms[n]


def _top_boundary(ctxs: list[PhaseContext], model: CoefficientModel, N: int,
                  tail_len: int) -> list:
    """Per point of a group, the boundary data (u_N, D_N) from the
    kernel's own tail and the tail fit's relative residual, or the
    NumericFailure that stopped the point's tail.

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

    The tail window is streamed like the solve's window (_kernel_chunk),
    bottom up: the running sums are carried from stretch to stretch and
    the fit rows go into the fit's R factor, so a point's tail holds
    O(_CHUNK) memory.  Each stretch's z-independent arrays and the fitted
    rows' powers of m are built once for the group.  A non-finite tail
    term fails its point with NumericFailure.  A real kernel keeps every
    term real and gives real boundary data.
    """
    p = ctxs[0].params
    slow = p.nu - p.delta + 1.0                  # power remainder of the sums
    exponents = np.asarray((slow, 2.0 * p.nu - p.delta, slow - p.sigma))
    fit_from = N + 1 + (int(tail_len) - 1) // 2  # the first m fitted
    tails = [_Tail(ctx) for ctx in ctxs]
    M = N + int(tail_len)
    for lo in range(N, M, _CHUNK):
        hi = min(lo + _CHUNK, M)
        live = [t for t in tails if t.error is None]
        if not live:
            break
        st = stretch(p, model, lo, hi + 1)
        skip = min(max(fit_from - lo - 1, 0), hi - lo)   # rows m in (lo, hi] not fitted
        powers = st.ns[1 + skip:, None] ** exponents
        for t in live:
            try:
                t.add(st, skip, powers)
            except NumericFailure as exc:
                t.error = exc
    return [t.error or t.boundary() for t in tails]


@dataclass
class _Tail:
    """One point's tail window in a group: the head and the running sums
    carried up from the stretch below, and its fit."""

    ctx: PhaseContext
    fit: _TailFit = field(default_factory=_TailFit)
    carry: tuple = (0.0, 0.0)                    # the sums below the stretch
    head: tuple = _WINDOW_START
    error: CritJacError | None = None

    def add(self, st: Stretch, skip: int, powers: np.ndarray) -> None:
        """Sum the stretch's terms t_m, y_m, m in (lo, hi], and feed the
        rows past the first `skip` to the fit.  The sums are laid out as
        two rows, one per sequence, so each is one cumsum and the fit
        reads contiguous columns."""
        t, y, self.head = _kernel_chunk(self.ctx, st, self.head)
        _require_finite(t, "t")
        _require_finite(y, "y")
        sums = np.empty((2, len(t)), dtype=t.dtype)
        t[0] += self.carry[0]
        np.cumsum(t, out=sums[0])
        del t
        sums[1] = y
        sums[1, 0] += self.carry[1]
        np.cumsum(sums[1], out=sums[1])
        self.carry = sums[0, -1], sums[1, -1]
        if skip < len(y):
            _fit_partial_limit(sums.T[skip:], powers, y[skip:], self.fit)

    def boundary(self) -> tuple[complex, complex, float]:
        (t_lim, y_lim), resid = self.fit.limits()
        return (1.0 + t_lim).item(), y_lim.item(), resid


def _require_finite(v: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(v)):
        raise NumericFailure(f"non-finite tail term {name}_m at the window top")


# -- public operations -------------------------------------------------------


def solve_group(points: list[SpectralPoint], params: CriticalParams,
                model: CoefficientModel, n0: int | None = None,
                N: int | None = None, tail_init: str = "asymptotic",
                n_top: int | None = None) -> list:
    """Bounded solutions of the Volterra equation at a group of points, by
    one backward sweep each, in lockstep: per point a VolterraSolution, or
    the CritJacError that stopped it.

    Each window is [n0, N], n0 defaulting to the point's phase window
    start.  The default N is 10^6 (at least 4 n0 + 2000, at most N_CAP =
    10^7): the longest window whose tail window is still N long.  It is a
    fixed length, not an accuracy target; pass N to trade time for
    accuracy.  No window is refused as too short: u's error has no
    a-priori bound here (compare two windows, or read jost's
    normalisation_estimate).

    Points whose windows share N, whether passed or the default, are
    solved as one group (the module docstring); the values of every point
    are those of its solve alone bit for bit.  An argument that does not
    fit a point is the call's error and raises InvalidParameter before
    anything is built: a tail_init other than "unit" and "asymptotic", an
    explicit N at most n0 + 2, an n_top above an explicit N.  A point's
    own failure is its entry and the rest go on: its phase context (a
    branch point, a missing side tag), a default window whose start is at
    or beyond the cap, an n_top above its default window, a non-finite
    tail term or kernel transfer.

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
    [n0, n0 + 1] alone, as Omega does.  u covers [n0, n_top] and is there
    the whole-window u bit for bit; the residual covers every stretch the
    sweep computed u on, the one holding n0 always among them
    (VolterraKernel.sweep).  The windows are swept from the top down, one
    stretch at a time, so a group holds O(2^14) memory per point besides
    its u for any N.
    """
    if tail_init not in ("unit", "asymptotic"):
        raise InvalidParameter("tail_init must be 'unit' or 'asymptotic'")
    out: list = [None] * len(points)
    groups: dict[int, list] = {}                 # window top -> [(index, ctx)]
    for i, zp in enumerate(points):
        try:
            ctx = phase_context(zp, params, n0)
        except CritJacError as exc:
            out[i] = exc
            continue
        try:
            top = window_top(ctx.n_start, N, n_top)
        except InvalidParameter as exc:
            if N is not None:
                raise                            # the call's own N does not fit
            out[i] = exc
            continue
        groups.setdefault(top, []).append((i, ctx))
    for top, members in groups.items():
        sols = _solve_window([ctx for _, ctx in members], model, top,
                             tail_init, n_top)
        for (i, _), sol in zip(members, sols):
            out[i] = sol
    return out


def window_top(n0: int, N: int | None, n_top: int | None = None) -> int:
    """The top of the window that starts at n0: N, or without it the
    default (solve_group).  Raises InvalidParameter if the window is too
    short (N <= n0 + 2) or n_top lies above it."""
    if N is None:
        N = min(max(_TAIL_CAP, 4 * n0 + 2000), N_CAP)
    if N <= n0 + 2:
        raise InvalidParameter(f"window too short: n0 = {n0}, N = {N}")
    if n_top is not None and n_top > N:
        raise InvalidParameter(f"index {n_top} beyond the window top N = {N}")
    return N


def _solve_window(ctxs: list[PhaseContext], model: CoefficientModel, N: int,
                  tail_init: str, n_top: int | None) -> list:
    """solve_group's solutions of one group of points that share N."""
    tops: list = [(1.0 + 0.0j, 0.0 + 0.0j, None)] * len(ctxs)
    tail_len = 0
    if tail_init == "asymptotic":
        tail_len = min(N, _TAIL_CAP)
        tops = _top_boundary(ctxs, model, N, tail_len)
    out = list(tops)                             # a failed tail stays its error
    live = [k for k, top in enumerate(tops) if not isinstance(top, CritJacError)]
    if not live:
        return out
    kern = VolterraKernel([ctxs[k] for k in live], model, N, n_top=n_top)
    for k, swept in zip(live, kern.sweep([tops[k][:2] for k in live])):
        out[k] = swept if isinstance(swept, CritJacError) else \
            _solution(ctxs[k], N, *swept, tail_init, tail_len, tops[k][2])
    return out


def _solution(ctx: PhaseContext, N: int, u: np.ndarray, res: float,
              tail_init: str, tail_len: int, fit_residual) -> VolterraSolution:
    """A point's VolterraSolution from its sweep, or NumericFailure."""
    n0 = ctx.n_start
    if not (np.all(np.isfinite(u)) and math.isfinite(res)):
        return NumericFailure(f"non-finite Volterra solution on [{n0}, {N}]")
    if ctx.conj:
        np.conjugate(u, out=u)                   # in place: u is this solve's own
    meta = {"n0": n0, "N": N, "tail_init": tail_init,
            "tail_len": tail_len, "tail_fit_residual": fit_residual}
    return VolterraSolution(u=u, n0=n0, N=N, residual=res,
                            conjugated=ctx.conj, meta=meta)


def solve(zp: SpectralPoint, params: CriticalParams, model: CoefficientModel,
          n0: int | None = None, N: int | None = None,
          tail_init: str = "asymptotic",
          n_top: int | None = None) -> VolterraSolution:
    """Bounded solution of the Volterra equation at one point: the group
    of one (solve_group, which documents the arguments), its error
    raised."""
    return only(solve_group([zp], params, model, n0, N, tail_init, n_top))
