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

The window is built in one forward pass over stretches of 2^14 indices
(_kernel_chunk).  Lambda_n and Rcal_n are local in n; X_n, its prefix
sums and the majorant's running quantities are carried from one stretch
to the next.  A solve keeps the kernel only on the sweep's blocks that
meet [n0, n_top], n_top being the highest index whose u its caller
reads.  Every block above is run from the unit states as soon as its
indices are built (VolterraKernel._fold), and only its 2x2 transfer is
kept: O(sqrt N) numbers.  The sweep then chains those transfers from the
window-top state exactly as the whole-window sweep chains them, so u on
the kept range is the whole-window u bit for bit.  Omega reads u only at
n0 and n0 + 1, so its solve holds O(2^14) memory however long the window;
jost keeps every block.  The tail window above N is streamed the same
way (_top_boundary).

All X-products and prefix sums are carried as (log-magnitude, unit
phase); exp(+-Im phase-sum) spans hundreds of orders of magnitude off
the spectrum.  The log-framed sums (_scaled_prefix_sum) take their terms
in the same form, a real log-magnitude and a unit complex phase, so a
term costs a real exp and a complex product; a complex exp of
log + i*angle costs over ten times that, and turning unit phases back
into angles costs an np.angle per element.  arg X_n is the one angle
left and becomes a unit phase once, by cos and sin.

X_n is not summed from logs of the rounded Lambda_n: the product
telescopes to a_n A_n A_{n+1} / (a_{n0} A_{n0} A_{n0+1}), so log|X_n| and
arg X_n come in closed form from log a_n, rho log(n (n + 1)) and the
running sum Phi_n of theta_k + theta_{k-1} (_kernel_chunk), one formula
for real and complex kernels.  Against a 40-digit sum of log Lambda_k,
log|X_N| is off by 8.9e-16 on the Laguerre kernel at 1 + i0 (N = 2e5);
the summed logs of the rounded Lambda_n are off by 5.7e-12 there.

A kernel stretch is float64 exactly when theta_n is purely imaginary on
it and on every stretch below it: real z off the closure of the a.c. set
(the discrete region, the resolvent set).  There B_n, Lambda_n, Rcal_n,
X_n, the prefix sums and u_n are real, so every array takes the dtype of
B_n (ansatz_ratio_window) and no layer forces complex: Re Phi_n = 0, the
unit phases are 1 and the sweep runs in float64.  The dtype is decided
per stretch: a complex stretch makes every stretch above it complex
through its head, and the real stretches below it, kept or folded, are
promoted (VolterraKernel).  Points on the a.c. set and non-real z run the
same functions in complex arithmetic.  The real remainder rounds its
divisions as the complex one does, so at real points Omega moves against
the complex pipeline only by the last bits of B_n (a real exp against a
complex one), which the remainder's cancellation amplifies: 6.6e-13 to
1.1e-12 relative with the unit tail, 9.4e-12 to 2.0e-10 with the
asymptotic tail; eigenvalue zeros move by at most 6e-17.

The window top is seeded from first-order tail sums of the kernel over
the next N indices (at most 10^6), their limits fitted against a remainder
model with Levin's oscillating remainder (_top_boundary); letting the
oscillation average out instead needed a tail window twice as long.
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
from .errors import InvalidParameter, NumericFailure, TruncationTooShort

N_CAP = 10_000_000
_TAIL_CAP = 1_000_000                     # longest tail window (_top_boundary)
_CHUNK = 2 ** 14                          # indices per stretch of the forward pass
_FOLD = 4 * _CHUNK                        # indices a fold pass takes at most
_WINDOW_START = (None, 0j, 0.0, 1.0)      # c0 from n0, Phi_{n0} = 0, PS_{n0} = 1 (_kernel_chunk)
_SUM_BLOCK = 65536                        # most terms per frame of _scaled_prefix_sum
_SUM_SPAN = 500.0                         # nats a frame may grow before it is cut


@dataclass
class VolterraSolution:
    """Correction factors u_n on [n0, n0 + len(u) - 1] with error estimates.

    The window is [n0, N]; u, H and residual cover its kept range, the
    sweep's blocks that meet [n0, n_top] (all of [n0, N] when n_top = N).
    tail_bound is the fitted majorant sum H_N over m > N; H[k] estimates
    a bound on |u_{n0+k} - 1| through exp(H) - 1 (an estimate because
    H includes the fitted tail_bound); residual is the worst relative
    defect of the difference equation over the kept range.  u is float64
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
        hi = self.n0 + len(self.u) - 1
        if not self.n0 <= n <= hi:
            raise InvalidParameter(f"u defined on [{self.n0}, {hi}]")
        return complex(self.u[n - self.n0])


class VolterraKernel:
    """Kernel of the window [n0, N], built in one forward pass over
    stretches of _CHUNK indices (_kernel_chunk).

    backward_sweep runs its K = N - n0 steps in blocks of b ~ sqrt(K/2)
    laid from N down.  The blocks that meet [n0, n_top] (n_top clamped to
    [n0 + 1, N], default N) are kept: Lambda_n (lam), Rcal_n (rr) and the
    majorant sums H on offsets k = n - n0 in [0, top].  Every block above
    is reduced to its transfer as it is built (_fold); `above` holds them,
    top block first (None when everything is kept), and H adds the folded
    sum of h_m.  tail_const and tail_beyond give the fitted majorant
    beyond N.  X_n, its prefix sums and h_m are carried from stretch to
    stretch, not kept.  Everything is evaluated at the canonical (upper
    half-plane) point; conjugation happens when the solution is assembled.
    """

    def __init__(self, ctx: PhaseContext, model: CoefficientModel,
                 n0: int, N: int, n_top: int | None = None):
        self.n0, self.N = int(n0), int(N)
        p = ctx.params
        nu, delta = p.nu, p.delta
        if delta - nu <= 1.0:
            raise InvalidParameter("tail exponent nu - delta must be < -1")
        if self.N <= self.n0:
            raise InvalidParameter("window needs N > n0")
        K = self.N - self.n0
        k_top = K if n_top is None else min(max(int(n_top) - self.n0, 1), K)
        self.b = _block_size(K)
        top = K - max(0, (K - 1 - k_top) // self.b) * self.b   # lowest block edge >= k_top
        self.lam = self.rr = self.above = None
        self.H = np.zeros(top + 1)                   # h_{n0+k+1} at k until summed
        self._buf, self._fill, self._batches = None, 0, []
        quarter = max(self.n0 + 1, int(self.N * 0.75))
        run, scaled_max, folded_h = -np.inf, 0.0, 0.0
        head = _WINDOW_START
        for lo in range(self.n0, self.N, _CHUNK):
            hi = min(lo + _CHUNK, self.N)
            lam, rr, logX, _, logPS, _, head = _kernel_chunk(ctx, model, lo, hi, head)
            # h-majorant: h_m >= sup_{n0<=n<m} |G_{n,m} Rcal_m|, m in (lo, hi]
            runs = np.maximum(np.maximum.accumulate(logPS), run)
            run = float(runs[-1])
            h = np.abs(rr[1:]) * np.exp(logX[:-1] + runs[:-1])
            h *= 2.0
            del logX, logPS, runs, _     # a stretch's arrays set the solve's peak
            if hi >= quarter:       # fitted as h_m ~ C m^(nu-delta) over the last quarter
                j = max(0, quarter - lo - 1)
                ns = np.arange(lo + 1 + j, hi + 1, dtype=float)
                scaled_max = np.maximum(scaled_max, np.max(h[j:] * ns ** (delta - nu)))
            k = lo - self.n0
            kept = min(max(top - k, 0), hi - lo)     # entries of lam[1:], rr[1:], h kept
            if kept:
                self._keep(k, lam[:kept + 1], rr[:kept + 1], h[:kept])
            if kept < hi - lo:
                self._fold(lam[kept + 1:], rr[kept + 1:], hi)
                folded_h += float(np.sum(h[kept:]))
            del lam, rr, h
        if self._batches:
            if self._buf.dtype.kind == "c" and self.lam.dtype.kind != "c":
                self.lam, self.rr = self.lam.astype(complex), self.rr.astype(complex)
            self.above = tuple([x for ends in reversed(self._batches) for x in ends[j]]
                               for j in range(4))
        self._buf = self._batches = None
        # C is twice the largest scaled h_m: an estimate, not a bound
        self.tail_const = 2.0 * float(scaled_max)
        self.tail_beyond = (self.tail_const * self.N ** (nu - delta + 1.0)
                            / (delta - nu - 1.0))
        # H_n = sum_{m>n} h_m within the window + fitted tail beyond N
        np.cumsum(self.H[::-1], out=self.H[::-1])
        self.H += folded_h + self.tail_beyond

    def _keep(self, k: int, lam: np.ndarray, rr: np.ndarray,
              h: np.ndarray) -> None:
        """Store a stretch's kept Lambda, Rcal and h at offsets (k, k + len(h)]."""
        if self.lam is None:
            self.lam = np.empty(len(self.H), dtype=lam.dtype)
            self.lam[0] = np.nan
            self.rr = self.lam.copy()
        elif lam.dtype != self.lam.dtype:            # a complex stretch above a real one
            self.lam, self.rr = self.lam.astype(lam.dtype), self.rr.astype(lam.dtype)
        self.lam[k + 1:k + len(lam)] = lam[1:]
        self.rr[k + 1:k + len(rr)] = rr[1:]
        self.H[k:k + len(h)] = h

    def _fold(self, lam: np.ndarray, rr: np.ndarray, hi: int) -> None:
        """Reduce the sweep's blocks above the kept range to their transfers.

        lam and rr continue the Lambda_n and Rcal_n handed up so far.  They
        wait in a buffer of _FOLD indices (entry 0 unused, as in
        backward_sweep's arrays); once it is full, and at the window top,
        _block_pass runs its whole blocks from the unit states, exactly as
        the whole-window sweep runs them.  A pass costs b vectorised steps
        whatever its width, so the buffer holds several stretches.
        """
        n = len(lam)
        if self._buf is None:
            cap = min(_FOLD, self.N - self.n0 - len(self.H) + 1)
            self._buf = np.empty((2, 1 + cap), dtype=lam.dtype)
        elif self._buf.dtype != np.result_type(self._buf, lam):   # complex above real
            self._buf = self._buf.astype(lam.dtype)
        if self._fill + n >= self._buf.shape[1]:
            self._flush()
        buf, fill = self._buf, self._fill
        buf[0, 1 + fill:1 + fill + n] = lam
        buf[1, 1 + fill:1 + fill + n] = rr
        self._fill += n
        if hi == self.N:
            self._flush()

    def _flush(self) -> None:
        """Run the buffer's whole blocks (_fold) and keep the rest."""
        b, buf, fill = self.b, self._buf, self._fill
        nb = fill // b
        K = nb * b
        with np.errstate(over="ignore", invalid="ignore"):   # checked below
            ends = _block_pass(buf[0, :K + 1], buf[1, :K + 1], b, nb, buf.dtype)
        if not np.all(np.isfinite(ends)):
            first = self.n0 + len(self.H) + b * sum(len(e[0]) for e in self._batches)
            raise NumericFailure(f"non-finite kernel transfer on [{first}, {first + K - 1}]")
        self._batches.append(ends)                   # top block first
        buf[:, 1:1 + fill - K] = buf[:, 1 + K:1 + fill]
        self._fill = fill - K

    # -- solving ------------------------------------------------------------

    def sweep(self, u_top: complex = 1.0 + 0.0j,
              d_top: complex = 0.0 + 0.0j) -> np.ndarray:
        """Backward sweep for u on the kept range from (u_N, D_N) = (u_top,
        d_top), chained down through the folded blocks (backward_sweep).

        With the default boundary data the tail beyond N is treated as
        u = 1; tail-corrected boundary values come from _top_boundary().
        """
        return backward_sweep(self.lam, self.rr, u_top, d_top, self.b, self.above)

    def residual(self, u: np.ndarray) -> float:
        du = u[1:] - u[:-1]
        res = self.lam[1:-1] * du[1:] - du[:-1] - self.rr[1:-1] * u[1:-1]
        scale = np.maximum(1.0, np.abs(u[1:-1]))
        return float(np.max(np.abs(res) / scale)) if len(res) else 0.0


def _kernel_chunk(ctx: PhaseContext, model: CoefficientModel, lo: int, hi: int,
                  head: tuple = _WINDOW_START) -> tuple:
    """Kernel arrays on the stretch [lo, hi] of a window that starts at n0:
    (lam, rr, logX, uniXinv, logPS, uniPS, head), indexed by n - lo.

    lam and rr hold Lambda_n and Rcal_n (entry 0 is nan: it belongs to the
    stretch below); logX and uniXinv give X_n = Lambda_{n0+1} ... Lambda_n
    as log|X_n| and the unit phase of X_n^{-1}, e^{-i arg X_n}; logPS,
    uniPS give the prefix sums PS_n = sum_{p=n0}^{n} X_p^{-1}, scaled
    blockwise.

    X_n telescopes to a_n A_n A_{n+1} / (a_{n0} A_{n0} A_{n0+1}), so with
    |gamma| = 1 it is taken in closed form, not from Lambda_n:
    log|X_n| = log a_n - rho log(n (n + 1)) - Im Phi_n - c0 and
    arg X_n = Re Phi_n, where Phi_n is the running sum of
    theta_k + theta_{k-1} over k in (n0, n] and c0 is log a_n0 -
    rho log(n0 (n0 + 1)).  `head` is (c0, Phi_lo, log|PS_lo|, phase of
    PS_lo), _WINDOW_START where lo = n0 (c0 is then taken at lo); the
    returned head is the same at hi, for the stretch above.  The running
    sums go on from the head, so the stretches of a window add in the
    order of one pass over it.

    The arrays take the dtype of B_n (ansatz_ratio_window), complex also
    where the stretch below was (a complex PS phase in the head; Phi is
    always complex).  On a real kernel Re Phi_n = 0 and every unit phase
    is 1.
    """
    c0, phi0, logps0, unips0 = head
    th = theta_window(ctx, lo, hi + 1)                    # theta_n, n in [lo, hi]
    B = ansatz_ratio_window(ctx, lo, hi + 1, th)          # B_n, n in [lo, hi]
    B = B.astype(np.result_type(B, unips0), copy=False)
    phi = np.empty(hi + 1 - lo, dtype=complex)            # Phi_n
    phi[0] = phi0
    np.add(th[1:], th[:-1], out=phi[1:])
    del th
    np.cumsum(phi, out=phi)
    ns = np.arange(lo, hi + 1, dtype=float)
    a = model.a_fn(ns)
    logX = np.log(a)
    ns *= ns + 1.0                                        # n (n + 1)
    logX -= ctx.params.rho * np.log(ns, out=ns)
    del ns
    if c0 is None:
        c0 = float(logX[0])
    logX -= phi.imag
    logX -= c0
    uniXinv = np.ones(hi + 1 - lo, dtype=B.dtype)         # e^{-i arg X_n}: 1 on a real kernel
    if uniXinv.dtype.kind == "c":
        np.cos(phi.real, out=uniXinv.real)
        np.sin(-phi.real, out=uniXinv.imag)
    phi_hi = complex(phi[-1])
    del phi

    r = remainder_window(ctx, model, lo + 1, hi + 1, B, a)
    ratio = a[1:] / a[:-1]                                # a_n/a_{n-1}, n >= lo+1
    del a                                # what a stretch holds at once sets a solve's peak
    lam = np.empty(hi + 1 - lo, dtype=B.dtype)            # Lambda_n, n >= lo+1
    lam[0] = np.nan
    lam[1:] = ratio * B[1:] * B[:-1]
    rr = np.empty(hi + 1 - lo, dtype=B.dtype)             # Rcal_n, n >= lo+1
    rr[0] = np.nan
    rr[1:] = -np.sqrt(ratio) * B[:-1] * r
    del B, ratio, r

    logv = np.negative(logX)
    logv[0] = -np.inf                    # X_lo^{-1} is in the head's sum already
    logPS, uniPS = _scaled_prefix_sum(logv, uniXinv, carry=(logps0, unips0))
    return (lam, rr, logX, uniXinv, logPS, uniPS,
            (c0, phi_hi, float(logPS[-1]), uniPS[-1].item()))


def backward_sweep(lam: np.ndarray, rr: np.ndarray,
                   u_top: complex = 1.0 + 0.0j,
                   d_top: complex = 0.0 + 0.0j,
                   b: int | None = None, above: tuple | None = None) -> np.ndarray:
    """u on offsets [0, K] from D_k = Rcal_{k+1} u_{k+1} + Lambda_{k+1} D_{k+1},
    u_k = u_{k+1} + D_k, started from (u_K, D_K) = (u_top, d_top).

    lam[0] and rr[0] are unused; K = len(lam) - 1.

    Each step is linear in the state (u, D), so the K steps are cut into
    nb blocks of b ~ sqrt(K/2) steps.  All blocks are first run at once
    from the unit states (1, 0) and (0, 1) (_block_pass: b vectorised
    steps over arrays of length nb); a short scalar pass (_chain) then
    chains the nb block transfer matrices from (u_top, d_top), and
    u = U0 u_in + U1 D_in is recombined in one array operation.  The
    summation order differs from a step-by-step loop, so u differs from it
    at rounding level only.

    The sweep runs in the dtype of lam and rr, and in complex arithmetic
    only if they are complex or the boundary data has an imaginary part.

    A kernel that keeps only the lower part of its window (VolterraKernel)
    passes the whole window's block size b and the transfers of the
    blocks above lam, top first (`above`, _block_pass's lists); (u_top,
    d_top) is then the state at the window top, chained down through
    `above` as over the whole window.  u is then the whole-window sweep's
    bit for bit, except its top entry (the chained state, which the whole
    sweep recombines in numpy), equal to rounding.
    """
    K = len(lam) - 1
    b = _block_size(K) if b is None else b
    nb = -(-K // b)
    u_top, d_top = complex(u_top), complex(d_top)
    dtype = np.result_type(lam, rr, 1j if u_top.imag or d_top.imag else 1.0)
    if dtype.kind != "c":
        u_top, d_top = u_top.real, d_top.real
    if above is not None:
        u_top, d_top = _chain(above, u_top, d_top)[2]
    # U[t, j] = u after step t of every block, started from unit state j
    U = np.empty((b, 2, nb), dtype=dtype)
    u_in, d_in, _ = _chain(_block_pass(lam, rr, b, nb, dtype, U), u_top, d_top)
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
        sums = np.stack(_tail_terms(*arrays[1:6]), axis=1)  # t_m, y_m, m in (lo, hi]
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
        # |y| and |t| are h-majorant sized, so plain exponentials are safe
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
    A window start at or beyond the cap raises InvalidParameter before
    anything is built.

    tail_init selects the boundary data at the window top: "unit" sets
    u = 1 beyond N (the bare sweep), "asymptotic" (default) seeds the
    sweep with tail sums of the kernel itself over the next min(N, 10^6)
    indices (_top_boundary), removing the slow N^(1-sigma) boundary error
    that Wronskian-type outputs inherit.  Either way u solves the same
    linear equation, so the difference-equation residual stays at
    rounding level.  meta records the window, tail_init, the tail
    window's length tail_len (0 for "unit") and the tail fit's relative
    residual tail_fit_residual (None for "unit").

    n_top is the highest index whose u the caller reads, clamped to
    [n0 + 1, N] (default N), so any n_top <= n0 + 1 asks for the head
    [n0, n0 + 1] alone, as Omega does.  u, H and the residual cover the
    sweep's blocks that meet [n0, n_top], [n0, n0 + k] with k - (N - n0) a
    multiple of the block size; the blocks above are reduced to their
    transfers (VolterraKernel), so below its top entry u is the
    whole-window u bit for bit.  Omega's solve holds O(2^14) memory for
    any N.
    """
    ctx = phase_context(zp, params, n0)
    n0 = ctx.n_start
    if N is None:
        N = min(max(_TAIL_CAP, 4 * n0 + 2000), N_CAP)
    if N <= n0 + 2:
        raise InvalidParameter(f"window too short: n0 = {n0}, N = {N}")
    if tail_init not in ("unit", "asymptotic"):
        raise InvalidParameter("tail_init must be 'unit' or 'asymptotic'")

    kern = VolterraKernel(ctx, model, n0, N, n_top=n_top)
    if kern.tail_beyond >= 1.0:
        raise TruncationTooShort(
            f"tail bound {kern.tail_beyond:.3g} >= 1 at N = {N}; "
            "raise N or n0"
        )
    u_top, d_top, tail_len, fit_residual = 1.0 + 0.0j, 0.0 + 0.0j, 0, None
    if tail_init == "asymptotic":
        tail_len = min(N, _TAIL_CAP)
        u_top, d_top, fit_residual = _top_boundary(ctx, model, N, tail_len)
    # a non-finite kernel term makes the block products overflow or form
    # inf - inf; the solve checks u itself and raises NumericFailure
    with np.errstate(over="ignore", invalid="ignore"):
        u = kern.sweep(u_top, d_top)
    meta = {"n0": n0, "N": N, "tail_init": tail_init,
            "tail_len": tail_len, "tail_fit_residual": fit_residual}
    res = kern.residual(u)
    if not (np.all(np.isfinite(u)) and math.isfinite(res)):
        raise NumericFailure(f"non-finite Volterra solution on [{n0}, {N}]")
    if ctx.conj:
        u = u.conjugate()
    return VolterraSolution(u=u, n0=n0, N=N, tail_bound=kern.tail_beyond,
                            residual=res, H=kern.H, conjugated=ctx.conj,
                            meta=meta)

