"""Jost solutions, growing partners, Wronskians and the Jost function.

The Jost solution is assembled as f_n = A_n u_n on the Volterra window
and extended down to n = -1 by the three-term recurrence (the decaying
solution is dominant backwards, so this direction is stable).  The
convention a_{-1} = 1 makes Omega(z) = -f_{-1}(z) = W[P(z), f(z)].

The growing partner is g_n = f_n * sum_{m=n0g}^{n} (a_{m-1} f_{m-1} f_m)^{-1},
with W[f, g] = 1 exactly by telescoping.  All window values are stored as
(log-magnitude, unit phase) pairs.  The unit phases take the dtype of the
data: float64 where every value is real (the Jost solution and its
growing partner at real z off the closure of the a.c. set, where the
kernel is real; the polynomials at real z), complex128 elsewhere.  Each
window is written once into its final [-1, N] arrays, one stretch at a
time with a small state carried across stretch edges (the phase sum, the
reciprocal sum), so building f from u, or g from f, takes a workspace of
O(stretch) besides the arrays it reads and writes, for any N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import volterra
from .ansatz import (
    INTERIOR,
    PLUS,
    PhaseContext,
    SpectralPoint,
    phase_context,
    phi_stretch,
    sqrt_cut,
)
from .coeffs import CoefficientModel, CriticalParams
from .errors import (
    CritJacError,
    InvalidParameter,
    OnSpectrum,
    OutsideAC,
    WindowMismatch,
    ZeroCrossing,
    only,
)
from .logcomplex import LogComplex

_RENORM = 1e120


@dataclass
class SolutionWindow:
    """Indexed window of a recurrence solution in log-magnitude form.

    kind is "jost", "growing" or "polynomial"; values cover n in
    [-1, n_hi], entry k holding n = k - 1 (every window is extended down
    to n = -1).  unit is float64 where the values are real, complex128
    elsewhere.  meta carries truncation/residual diagnostics.
    """

    kind: str
    logmag: np.ndarray
    unit: np.ndarray
    zp: SpectralPoint
    model: CoefficientModel
    meta: dict = field(default_factory=dict)

    @property
    def n_hi(self) -> int:
        return len(self.logmag) - 2

    @property
    def z(self) -> complex:
        return complex(self.zp.z)

    def _k(self, n: int) -> int:
        if not -1 <= n <= self.n_hi:
            raise InvalidParameter(f"window covers [-1, {self.n_hi}]")
        return n + 1

    def value(self, n: int) -> LogComplex:
        k = self._k(n)
        return LogComplex(float(self.logmag[k]), complex(self.unit[k]))

    def complex_at(self, n: int) -> complex:
        return self.value(n).to_complex()

    def log_abs(self, n: int) -> float:
        return float(self.logmag[self._k(n)])

    def conjugated(self) -> "SolutionWindow":
        return SolutionWindow(self.kind, self.logmag.copy(),
                              self.unit.conjugate(), self.zp.conjugate(),
                              self.model, dict(self.meta))


def _extend_backward(logmag: np.ndarray, unit: np.ndarray, n_from: int,
                     model: CoefficientModel, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """Backwards recurrence from (F_{n_from}, F_{n_from+1}) down to n = -1,
    in place in a window's arrays.

    logmag and unit hold a window starting at n = -1 (entry k for
    n = k - 1) whose entries for n_from and n_from + 1 are set; the
    entries for n in [-1, n_from - 1] are written, and returned as views.
    Values are carried as a scaled complex pair with a shared log offset,
    in complex arithmetic also for a real window, which stores the real
    parts.
    """
    out_lm, out_u = logmag[:n_from + 1], unit[:n_from + 1]
    real = unit.dtype.kind != "c"
    a = model.a_range(0, n_from + 1).tolist()
    b = model.b_range(0, n_from + 1).tolist()
    scale = max(logmag[n_from + 1], logmag[n_from + 2])
    # F_{n_from+1} and F_{n_from} over e^scale, as numpy complex scalars
    # also in a real window, so both round alike
    f_hi = math.exp(logmag[n_from + 2] - scale) * np.complex128(unit[n_from + 2])
    f_lo = math.exp(logmag[n_from + 1] - scale) * np.complex128(unit[n_from + 1])
    for n in range(n_from, -1, -1):
        a_prev = 1.0 if n == 0 else a[n - 1]
        f_new = ((z - b[n]) * f_lo - a[n] * f_hi) / a_prev
        mag = abs(f_new)
        if mag == 0.0:
            out_lm[n], out_u[n] = -np.inf, 1.0
        else:
            out_lm[n] = scale + math.log(mag)
            out_u[n] = (f_new / mag).real if real else f_new / mag
        f_hi, f_lo = f_lo, f_new
        if mag > _RENORM or (0.0 < mag < 1.0 / _RENORM):
            f_hi /= mag
            f_lo /= mag
            scale += math.log(mag)
    return out_lm, out_u


def jost(zp: SpectralPoint, params: CriticalParams, model: CoefficientModel,
         N: int | None = None, n0: int | None = None) -> SolutionWindow:
    """Jost solution window on [-1, N]: f_n = A_n u_n beyond n0, extended
    downwards by the recurrence with a_{-1} = 1.

    N defaults to volterra.solve's fixed window, 10^6 for most points.
    The window top is seeded from the kernel's own tail (volterra.solve's
    default), which f's normalisation needs.

    At side-tagged points lambda +- i0 of the a.c. set,
    meta["normalisation_estimate"] is the a-posteriori estimate
    |W[f, conj f] / (+-2i w) - 1| of the error in f's normalisation
    (_normalisation_estimate); it is None elsewhere.  No a-priori bound
    on the error is reported: the Volterra majorant, with its tail beyond
    N fitted, read 3 to 5 orders of magnitude above the observed error.

    The solve holds u and one stretch; f is then assembled from u in
    stretches (_jost_window), so the workspace besides u and the window
    is O(stretch) for any N.
    """
    sol = volterra.solve(zp, params, model, n0=n0, N=N)
    win = _jost_window(sol, zp, params, model)
    win.meta = {
        "n0": sol.n0,
        "N": sol.N,
        "volterra_residual": sol.residual,
        "normalisation_estimate": _normalisation_estimate(win, params, sol.n0),
        "tail_init": sol.meta["tail_init"],
        "tail_len": sol.meta["tail_len"],
        "tail_fit_residual": sol.meta["tail_fit_residual"],
    }
    return win


def _normalisation_estimate(f: SolutionWindow, params: CriticalParams,
                            n0: int) -> float | None:
    """|W[f, conj f]_{n0} / (+-2i w) - 1| at a side-tagged point
    lambda +- i0 of the a.c. set; None elsewhere.

    There f(lambda -+ i0) = conj f(lambda +- i0), so the window alone gives
    the Wronskian of the two boundary solutions, which is +-2i w exactly:
    the deviation estimates the error in f's normalisation a posteriori.
    W[f, conj f]_n = 2i a_n Im(f_n conj f_{n+1}) is purely imaginary.
    """
    lam = f.z.real
    ac = params.ac_set
    if f.zp.side == INTERIOR or ac is None or not ac.contains(lam):
        return None
    side = 1.0 if f.zp.side == PLUS else -1.0
    head = slice(n0 + 1, n0 + 3)                    # f_{n0}, f_{n0+1}
    lm, unit = f.logmag[head], f.unit[head]
    W = _wronskians(lm, unit, lm, unit.conjugate(), f.model.a_range(n0, n0 + 1))
    half_w = float(W[0].imag) / 2.0
    return abs(side * half_w / limit_wronskian(lam, params) - 1.0)


def _jost_window(sol: volterra.VolterraSolution, zp: SpectralPoint,
                 params: CriticalParams, model: CoefficientModel) -> SolutionWindow:
    """The Jost window f_n, n in [-1, n_top], at zp from the solve sol,
    n_top the top of the solve's u (volterra.solve's n_top).

    f_n = A_n u_n on [n0, n_top], extended downwards by the recurrence.
    A whole-window solve gives the whole Jost window; a head solve
    (n_top = n0 + 1) gives f_{-1}, hence Omega, from the window head
    alone: u_{n0}, u_{n0+1} and theta_{n0}.

    f is assembled from the solve's u one stretch of volterra._CHUNK
    indices at a time, written straight into the window's arrays, so the
    workspace besides u and the window is O(_CHUNK) for any n_top.  Each
    stretch builds its own phi_n (phi_stretch, from the last stretch's
    final value), log n, |u|, signs and phase rotation, so the window
    equals a whole-window assembly bit for bit.
    """
    n0 = sol.n0
    n_top = n0 + len(sol.u) - 1
    ctx = phase_context(zp, params, n0)
    full_lm = np.empty(n_top + 2)
    full_u = np.empty(n_top + 2, dtype=sol.u.dtype)
    phi_lo = 0j                                         # phi_{n0} = 0
    for lo in range(n0, n_top + 1, volterra._CHUNK):
        hi = min(lo + volterra._CHUNK, n_top + 1)       # n in [lo, hi)
        u = sol.u[lo - n0:hi - n0]
        if sol.conjugated:
            u = u.conjugate()
        phi = phi_stretch(ctx, lo, min(hi, n_top), phi_lo)
        phi_lo = phi[-1]
        phi = phi[:hi - lo]                             # phi_n, n in [lo, hi)
        lm, unit = full_lm[lo + 1:hi + 1], full_u[lo + 1:hi + 1]
        umag = np.abs(u)
        # lm = -rho log n - Im phi_n + log|u_n|
        np.log(np.arange(lo, hi, dtype=float), out=lm)
        lm *= -params.rho
        lm -= phi.imag
        lm += np.log(umag)
        np.divide(u, umag, out=unit)
        sign = alternating_sign(np.arange(lo, hi), params.gamma)
        if unit.dtype.kind != "c":  # a real kernel: Re phi_n = 0 and u is real
            unit *= sign
        else:
            # unit = sign * e^{i Re phi_n} * (u / |u|), in this operand order
            # (numpy's complex product is not bitwise commutative)
            rot = 1j * phi.real
            np.exp(rot, out=rot)
            np.multiply(rot, sign, out=rot)
            np.multiply(rot, unit, out=unit)
    _extend_backward(full_lm, full_u, n0, model, ctx.z_canonical)
    if ctx.conj:
        np.conjugate(full_u, out=full_u)
    return SolutionWindow("jost", full_lm, full_u, zp, model)


def alternating_sign(n, gamma: float):
    """(-gamma)^n for |gamma| = 1 and integer n, a scalar or an array."""
    if gamma < 0:
        return np.ones_like(n, dtype=float)
    return 1.0 - 2.0 * (np.asarray(n) % 2)


def _require_regular(zp: SpectralPoint, params: CriticalParams):
    z = complex(zp.z)
    if z.imag != 0.0:
        return
    ac = params.ac_set
    if ac is not None and ac.closure_contains(z.real):
        raise OnSpectrum(
            f"z = {z.real:g} lies in the closure of the a.c. set {ac}"
        )


def growing(zp: SpectralPoint, params: CriticalParams, model: CoefficientModel,
            N: int | None = None,
            f: SolutionWindow | None = None) -> SolutionWindow:
    """Exponentially growing partner of the Jost solution (regular z only).

    The reciprocal sum starts at the Jost window's n0, raised past any
    near-zero of f (meta["n0g"]).  It is accumulated in the log frame with
    blockwise rescaling; a loss of more than 8 digits between consecutive
    partial sums is flagged in meta["cancellation"].  The backward
    extension is validated by re-checking W[f, g] = 1 at n = 0
    (meta["w_check_0"]).

    The sum's terms, the sum itself (carried across stretch edges), the
    cancellation flag's running maximum and g = f * sum are formed one
    stretch at a time, g written straight into its window, so the
    workspace besides f and g is O(stretch) for any N.  A stretch is one
    frame of volterra.prefix_sum_frames, so g moves against a whole-window
    sum only by rounding, and only past the sum's first frame cut.
    """
    _require_regular(zp, params)
    if f is None:
        f = jost(zp, params, model, N=N, n0=None)
    n0 = f.meta["n0"]
    N = f.n_hi
    n0g = _clear_zeros(f, n0)

    def terms(lo, hi):          # 1/(a_{m-1} f_{m-1} f_m), m in [lo, hi)
        kf, kfm1 = slice(lo + 1, hi + 1), slice(lo, hi)
        a_prev = model.a_fn(np.maximum(np.arange(lo - 1, hi - 1), 0).astype(float))
        if lo == 0:
            a_prev[0] = 1.0
        term_lm = -np.log(a_prev) - f.logmag[kfm1] - f.logmag[kf]
        return term_lm, np.conjugate(f.unit[kfm1] * f.unit[kf])  # real signs for a real f

    # g_m = f_m * (partial sum)_m on [n0g, N], then downwards to n = -1
    full_lm = np.empty(N + 2)
    full_u = np.empty(N + 2, dtype=f.unit.dtype)
    top, cancelled = -np.inf, False
    for lo, hi, ps_lm, ps_u in volterra.prefix_sum_frames(n0g, N + 1, terms):
        runmax = np.maximum.accumulate(ps_lm)
        np.maximum(runmax, top, out=runmax)
        top = float(runmax[-1])
        cancelled = cancelled or bool(np.any(ps_lm < runmax - 8.0 * math.log(10.0)))
        kf = slice(lo + 1, hi + 1)                      # f_m and g_m
        np.add(f.logmag[kf], ps_lm, out=full_lm[kf])
        np.multiply(f.unit[kf], ps_u, out=full_u[kf])
    _extend_backward(full_lm, full_u, n0g, model, complex(zp.z))
    w0 = _wronskians(f.logmag[1:3], f.unit[1:3], full_lm[1:3], full_u[1:3],
                     model.a_range(0, 1))         # W at n = 0 from n = 0, 1
    meta = {"n0": n0, "n0g": n0g, "N": N, "cancellation": cancelled,
            "from": dict(f.meta), "w_check_0": complex(w0[0])}
    return SolutionWindow("growing", full_lm, full_u, zp, model, meta)


def _clear_zeros(f: SolutionWindow, n0g: int) -> int:
    """Raise n0g past every near-vanishing f_m (30-nat dip below neighbors).

    The dips are looked for one stretch of m at a time from the window
    top down (each stretch reads one entry past either edge), so the
    first stretch with a dip holds the last one.
    """
    lm = f.logmag                              # entry k holds f_{k-1}
    for lo in reversed(range(n0g, f.n_hi, volterra._CHUNK)):
        seg = lm[lo:min(lo + volterra._CHUNK, f.n_hi) + 2]   # f_{m-1}, m >= lo
        dips = np.nonzero(seg[1:-1] + 30.0 < 0.5 * (seg[:-2] + seg[2:]))[0]
        if len(dips):
            lifted = lo + int(dips[-1]) + 1    # past the dip at m = lo + dips[-1]
            if lifted >= f.n_hi - 8:
                raise ZeroCrossing(
                    "Jost solution nearly vanishes up to the end of the window; "
                    "cannot start the reciprocal sum"
                )
            return lifted
    return n0g


def _wronskians(lmF: np.ndarray, uF: np.ndarray, lmG: np.ndarray,
                uG: np.ndarray, a: np.ndarray) -> np.ndarray:
    """a_n (F_n G_{n+1} - F_{n+1} G_n) over consecutive n, in the log frame.

    F and G are given as (log-magnitude, unit phase) on the same indices
    [n1, n2 + 1], and a holds a_n for n in [n1, n2].  Both products are
    scaled by the larger of their magnitudes before they are subtracted.
    """
    lm1 = lmF[:-1] + lmG[1:]
    lm2 = lmF[1:] + lmG[:-1]
    ref = np.maximum(lm1, lm2)
    ref = np.where(np.isfinite(ref), ref, 0.0)
    return a * np.exp(ref) * (np.exp(lm1 - ref) * uF[:-1] * uG[1:]
                              - np.exp(lm2 - ref) * uF[1:] * uG[:-1])


def wronskian_detail(F, G) -> tuple[complex, float, int]:
    """(median Wronskian, max deviation across n, number of points).

    Evaluated at every overlapping n; the Wronskian of two true solutions
    is n-independent, so the deviation is a numerical diagnostic.
    """
    if abs(complex(F.z) - complex(G.z)) != 0.0:
        raise WindowMismatch("windows evaluated at different z")
    if F.model.kind != G.model.kind or F.model.params != G.model.params:
        raise WindowMismatch("windows built from different models")
    hi = min(F.n_hi, G.n_hi)
    if hi < 0:
        raise WindowMismatch("windows do not overlap")
    a = np.concatenate([[1.0], F.model.a_range(0, hi)])   # a_{-1} = 1
    k = slice(0, hi + 2)                                  # n in [-1, hi]
    W = _wronskians(F.logmag[k], F.unit[k], G.logmag[k], G.unit[k], a)
    med = complex(np.median(W.real), np.median(W.imag))
    dev = float(np.max(np.abs(W - med)))
    return med, dev, len(W)


def wronskian(F: SolutionWindow, G: SolutionWindow) -> complex:
    """Median of a_n (F_n G_{n+1} - F_{n+1} G_n) over the overlap."""
    return wronskian_detail(F, G)[0]


def recurrence_residual(win: SolutionWindow) -> float:
    """Worst relative three-term-recurrence defect over interior indices."""
    model, z = win.model, win.z
    lm, u = win.logmag, win.unit
    ns = np.arange(0, win.n_hi, dtype=float)
    a_prev = model.a_fn(np.maximum(ns - 1.0, 0.0))
    a_prev[0] = 1.0                                       # a_{-1}
    a_n = model.a_fn(ns)
    b_n = model.b_fn(ns)
    ref = np.maximum.reduce([lm[:-2], lm[1:-1], lm[2:]])
    ref = np.where(np.isfinite(ref), ref, 0.0)
    t1 = a_prev * np.exp(lm[:-2] - ref) * u[:-2]
    t2 = (b_n - z) * np.exp(lm[1:-1] - ref) * u[1:-1]
    t3 = a_n * np.exp(lm[2:] - ref) * u[2:]
    scale = np.maximum.reduce([np.abs(t1), np.abs(t2), np.abs(t3), np.full_like(a_n, 1e-300)])
    return float(np.max(np.abs(t1 + t2 + t3) / scale))


# -- Jost function and closed-form Wronskian ---------------------------------


def omega_from_window(win: SolutionWindow) -> complex:
    """Omega(z) = -a_{-1} f_{-1}(z) with a_{-1} = 1."""
    return (-win.value(-1)).to_complex()


def omega_group(points: list[SpectralPoint], params: CriticalParams,
                model: CoefficientModel, N: int | None = None) -> list:
    """Omega at each of a group of points, from windows at the default
    phase window start solved together (volterra.solve_group): per point
    its value, or the CritJacError that stopped it.

    Wronskian of the polynomial and Jost solutions, via f_{-1}.  N as for
    jost.  Only the window head [n0, n0 + 1] is assembled: f_{-1} depends
    on nothing above it, so the value is jost's f_{-1} without its
    window, and the solve keeps u only on the head (n_top = 0).  Each
    value is the point's omega alone bit for bit.
    """
    out = []
    for zp, sol in zip(points, volterra.solve_group(points, params, model,
                                                    N=N, n_top=0)):
        if not isinstance(sol, CritJacError):
            sol = omega_from_window(_jost_window(sol, zp, params, model))
        out.append(sol)
    return out


def omega(zp: SpectralPoint, params: CriticalParams, model: CoefficientModel,
          N: int | None = None) -> complex:
    """Omega at one point: the group of one (omega_group), its error
    raised."""
    return only(omega_group([zp], params, model, N=N))


def limit_wronskian(lam: float, params: CriticalParams) -> float:
    """w(lambda) = (2i)^{-1} W[f(lambda+i0), f(lambda-i0)] on the a.c. set.

    Closed form: sqrt(c(gamma lambda)) with c the leading coefficient of
    t_n, which is |kappa_phase| at lambda + i0; strictly positive on the
    a.c. set.
    """
    ac = params.ac_set
    if ac is None or not ac.contains(lam):
        raise OutsideAC(f"lambda = {lam:g} is not inside the a.c. set")
    return math.sqrt(params.leading_coefficient(params.gamma * lam))


def kappa_phase(ctx_or_zp, params: CriticalParams) -> complex:
    """varkappa in theta_n ~ varkappa n^-nu: sqrt(c(w)) at the canonical
    phase argument w, conjugated back with a sign flip as phase_context
    says."""
    if isinstance(ctx_or_zp, PhaseContext):
        ctx = ctx_or_zp
    else:       # kappa reads only w and conj: any window start serves
        ctx = phase_context(ctx_or_zp, params, n_start=1)
    base = sqrt_cut(params.leading_coefficient(ctx.w))
    return (-base.conjugate()) if ctx.conj else base
