"""Jost solutions, growing partners, Wronskians and the Jost function.

The Jost solution is assembled as f_n = A_n u_n on the Volterra window
and extended down to n = -1 by the three-term recurrence (the decaying
solution is dominant backwards, so this direction is stable).  The
convention a_{-1} = 1 makes Omega(z) = -f_{-1}(z) = W[P(z), f(z)].

The growing partner is g_n = f_n * sum_{m=n0g}^{n} (a_{m-1} f_{m-1} f_m)^{-1},
with W[f, g] = 1 exactly by telescoping.  All window values are stored as
(log-magnitude, unit phase) pairs.
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
    phi_window,
    sqrt_cut,
)
from .coeffs import CoefficientModel, CriticalParams
from .errors import (
    InvalidParameter,
    OnSpectrum,
    OutsideAC,
    WindowMismatch,
    ZeroCrossing,
)
from .logcomplex import LogComplex

_RENORM = 1e120


@dataclass
class SolutionWindow:
    """Indexed window of a recurrence solution in log-magnitude form.

    kind is "jost", "growing" or "polynomial"; values cover
    n in [n_lo, n_lo + len - 1] with n_lo = -1 for fully extended
    windows.  meta carries truncation/residual diagnostics.
    """

    kind: str
    n_lo: int
    logmag: np.ndarray
    unit: np.ndarray
    zp: SpectralPoint
    model: CoefficientModel
    meta: dict = field(default_factory=dict)

    @property
    def n_hi(self) -> int:
        return self.n_lo + len(self.logmag) - 1

    @property
    def z(self) -> complex:
        return complex(self.zp.z)

    def _k(self, n: int) -> int:
        if not self.n_lo <= n <= self.n_hi:
            raise InvalidParameter(f"window covers [{self.n_lo}, {self.n_hi}]")
        return n - self.n_lo

    def value(self, n: int) -> LogComplex:
        k = self._k(n)
        return LogComplex(float(self.logmag[k]), complex(self.unit[k]))

    def complex_at(self, n: int) -> complex:
        return self.value(n).to_complex()

    def log_abs(self, n: int) -> float:
        return float(self.logmag[self._k(n)])

    def conjugated(self) -> "SolutionWindow":
        return SolutionWindow(self.kind, self.n_lo, self.logmag.copy(),
                              self.unit.conjugate(), self.zp.conjugate(),
                              self.model, dict(self.meta))


def _extend_backward(logmag: np.ndarray, unit: np.ndarray, n_from: int,
                     model: CoefficientModel, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """Backwards recurrence from (F_{n_from}, F_{n_from+1}) down to n = -1.

    Returns log-magnitudes and unit phases for n in [-1, n_from - 1].
    Values are carried as a scaled complex pair with a shared log offset.
    """
    out_lm = np.empty(n_from + 1)
    out_u = np.empty(n_from + 1, dtype=complex)
    a = model.a_range(0, n_from + 1).tolist()
    b = model.b_range(0, n_from + 1).tolist()
    scale = max(logmag[0], logmag[1])
    f_hi = math.exp(logmag[1] - scale) * unit[1]   # F_{n_from+1} / e^scale
    f_lo = math.exp(logmag[0] - scale) * unit[0]   # F_{n_from}   / e^scale
    for n in range(n_from, -1, -1):
        a_prev = 1.0 if n == 0 else a[n - 1]
        f_new = ((z - b[n]) * f_lo - a[n] * f_hi) / a_prev
        mag = abs(f_new)
        if mag == 0.0:
            out_lm[n], out_u[n] = -np.inf, 1.0 + 0.0j
        else:
            out_lm[n] = scale + math.log(mag)
            out_u[n] = f_new / mag
        f_hi, f_lo = f_lo, f_new
        if mag > _RENORM or (0.0 < mag < 1.0 / _RENORM):
            f_hi /= mag
            f_lo /= mag
            scale += math.log(mag)
    return out_lm, out_u


def jost(zp: SpectralPoint, params: CriticalParams, model: CoefficientModel,
         N: int | None = None, n0: int | None = None,
         tail_init: str = "asymptotic") -> SolutionWindow:
    """Jost solution window on [-1, N]: f_n = A_n u_n beyond n0, extended
    downwards by the recurrence with a_{-1} = 1.

    N defaults to volterra.solve's fixed window, 10^6 for most points.
    tail_init is passed to volterra.solve.  "unit" (bare sweep, no tail
    fit) keeps the zeros of f_{-1} at real regular points but is off by
    about 1e-3 relative in value there (1e-4 to 7e-3 seen); "asymptotic"
    is the accurate default.

    meta["u_error_bound"] is exp(H_{n0}) - 1, a majorant estimate that can
    be orders of magnitude above the actual error.  At side-tagged points
    lambda +- i0 of the a.c. set, meta["normalisation_estimate"] is the
    a-posteriori estimate |W[f, conj f] / (+-2i w) - 1| of the error in
    f's normalisation (_normalisation_estimate); it is None elsewhere.
    """
    sol = volterra.solve(zp, params, model, n0=n0, N=N,
                         tail_init=tail_init)
    full_lm, full_u = _jost_values(sol, zp, params, model, sol.N)
    head = slice(sol.n0 + 1, sol.n0 + 3)            # n0 and n0 + 1 (n_lo = -1)
    meta = {
        "n0": sol.n0,
        "N": sol.N,
        "volterra_residual": sol.residual,
        "tail_bound": sol.tail_bound,
        "u_error_bound": float(np.expm1(sol.H[0])),
        "normalisation_estimate": _normalisation_estimate(
            zp, params, model, sol.n0, full_lm[head], full_u[head]),
        "tail_init": sol.meta["tail_init"],
        "tail_len": sol.meta["tail_len"],
        "tail_fit_residual": sol.meta["tail_fit_residual"],
    }
    return SolutionWindow("jost", -1, full_lm, full_u, zp, model, meta)


def _normalisation_estimate(zp: SpectralPoint, params: CriticalParams,
                            model: CoefficientModel, n0: int, lm: np.ndarray,
                            unit: np.ndarray) -> float | None:
    """|W[f, conj f]_{n0} / (+-2i w) - 1| from f_{n0}, f_{n0+1} given as
    (log-magnitude, unit phase), at a side-tagged point lambda +- i0 of the
    a.c. set; None elsewhere.

    There f(lambda -+ i0) = conj f(lambda +- i0), so the window alone gives
    the Wronskian of the two boundary solutions, which is +-2i w exactly:
    the deviation estimates the error in f's normalisation a posteriori.
    W[f, conj f]_n = a_n (f_n conj f_{n+1} - f_{n+1} conj f_n)
    = 2i a_n Im(f_n conj f_{n+1}).
    """
    lam = complex(zp.z).real
    ac = params.ac_set
    if zp.side == INTERIOR or ac is None or not ac.contains(lam):
        return None
    side = 1.0 if zp.side == PLUS else -1.0
    im = (complex(unit[0]) * complex(unit[1]).conjugate()).imag
    half_w = model.a(n0) * math.exp(lm[0] + lm[1]) * im
    return abs(side * half_w / limit_wronskian(lam, params) - 1.0)


def _jost_values(sol: volterra.VolterraSolution, zp: SpectralPoint,
                 params: CriticalParams, model: CoefficientModel,
                 n_top: int) -> tuple[np.ndarray, np.ndarray]:
    """f_n for n in [-1, n_top] as (log-magnitude, unit phase) at zp.

    f_n = A_n u_n on [n0, n_top], extended downwards by the recurrence.
    n_top = N gives the whole Jost window; n_top = n0 + 1 gives f_{-1},
    hence Omega, from the window head alone: u_{n0}, u_{n0+1} and
    theta_{n0}.
    """
    n0 = sol.n0
    ctx = phase_context(zp, params, n0)
    u = sol.u[:n_top - n0 + 1]
    if sol.conjugated:
        u = u.conjugate()
    phi = phi_window(ctx, n_top)
    ns = np.arange(n0, n_top + 1)
    umag = np.abs(u)
    lm = -params.rho * np.log(ns.astype(float)) - phi.imag + np.log(umag)
    sign = alternating_sign(ns, params.gamma)
    unit = sign * np.exp(1j * phi.real) * (u / umag)
    back_lm, back_u = _extend_backward(lm, unit, n0, model, ctx.z_canonical)
    full_lm = np.concatenate([back_lm, lm])   # back covers [-1, n0-1]
    full_u = np.concatenate([back_u, unit])
    if ctx.conj:
        full_u = full_u.conjugate()
    return full_lm, full_u


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
            n0g: int | None = None, N: int | None = None,
            f: SolutionWindow | None = None) -> SolutionWindow:
    """Exponentially growing partner of the Jost solution (regular z only).

    Accumulates the reciprocal sum in the log frame with blockwise
    rescaling; a loss of more than 8 digits between consecutive partial
    sums is flagged in meta["cancellation"].  The backward extension is
    validated by re-checking W[f, g] = 1 at n = 0 (meta["w_check_0"]).
    """
    _require_regular(zp, params)
    if f is None:
        f = jost(zp, params, model, N=N, n0=None)
    n0 = f.meta["n0"]
    N = f.n_hi
    if n0g is None:
        n0g = n0
    if n0g < f.n_lo + 1 or n0g >= N - 2:
        raise InvalidParameter("n0g outside the Jost window")
    n0g = _clear_zeros(f, n0g)

    ms = np.arange(n0g, N + 1)
    a_prev = model.a_fn(np.maximum(ms - 1, 0).astype(float))
    if n0g == 0:
        a_prev[0] = 1.0
    kf = slice(n0g - f.n_lo, N + 1 - f.n_lo)
    kfm1 = slice(n0g - 1 - f.n_lo, N - f.n_lo)
    term_lm = -np.log(a_prev) - f.logmag[kfm1] - f.logmag[kf]
    term_u = np.conjugate(f.unit[kfm1] * f.unit[kf])
    ps_lm, ps_u = volterra._scaled_prefix_sum(term_lm, term_u)

    runmax = np.maximum.accumulate(ps_lm)
    cancelled = bool(np.any(ps_lm < runmax - 8.0 * math.log(10.0)))

    g_lm = f.logmag[kf] + ps_lm
    g_u = f.unit[kf] * ps_u
    back_lm, back_u = _extend_backward(g_lm, g_u, n0g, model, complex(zp.z))
    full_lm = np.concatenate([back_lm, g_lm])  # back covers [-1, n0g-1]
    full_u = np.concatenate([back_u, g_u])
    meta = {"n0": n0, "n0g": n0g, "N": N, "cancellation": cancelled,
            "from": dict(f.meta)}
    win = SolutionWindow("growing", -1, full_lm, full_u, zp, model, meta)
    w0 = _wronskian_at(f, win, 0)
    meta["w_check_0"] = w0
    return win


def _clear_zeros(f: SolutionWindow, n0g: int) -> int:
    """Raise n0g past every near-vanishing f_m (30-nat dip below neighbors)."""
    lm = f.logmag
    k = n0g - f.n_lo
    seg = lm[k - 1:]
    dips = seg[1:-1] + 30.0 < 0.5 * (seg[:-2] + seg[2:])
    if not np.any(dips):
        return n0g
    last = int(np.nonzero(dips)[0][-1])  # offset of the dip from n0g
    lifted = n0g + last + 1
    if lifted >= f.n_hi - 8:
        raise ZeroCrossing(
            "Jost solution nearly vanishes up to the end of the window; "
            "cannot start the reciprocal sum"
        )
    return lifted


def _wronskian_at(F: SolutionWindow, G: SolutionWindow, n: int) -> complex:
    a_n = 1.0 if n == -1 else F.model.a(n)
    t1 = F.value(n) * G.value(n + 1)
    t2 = F.value(n + 1) * G.value(n)
    return complex(a_n) * (t1 - t2).to_complex()


def wronskian_detail(F, G) -> tuple[complex, float, int]:
    """(median Wronskian, max deviation across n, number of points).

    Evaluated at every overlapping n; the Wronskian of two true solutions
    is n-independent, so the deviation is a numerical diagnostic.
    """
    if abs(complex(F.z) - complex(G.z)) != 0.0:
        raise WindowMismatch("windows evaluated at different z")
    if F.model.kind != G.model.kind or F.model.params != G.model.params:
        raise WindowMismatch("windows built from different models")
    lo = max(F.n_lo, G.n_lo)
    hi = min(F.n_hi, G.n_hi)
    if hi < lo + 1:
        raise WindowMismatch("windows do not overlap")
    kF = slice(lo - F.n_lo, hi - F.n_lo + 1)
    kG = slice(lo - G.n_lo, hi - G.n_lo + 1)
    lmF, uF = F.logmag[kF], F.unit[kF]
    lmG, uG = G.logmag[kG], G.unit[kG]
    ns = np.arange(lo, hi, dtype=float)
    a = F.model.a_fn(np.maximum(ns, 0.0))
    if lo == -1:
        a[0] = 1.0
    lm1 = lmF[:-1] + lmG[1:]
    lm2 = lmF[1:] + lmG[:-1]
    ref = np.maximum(lm1, lm2)
    ref = np.where(np.isfinite(ref), ref, 0.0)
    W = a * np.exp(ref) * (np.exp(lm1 - ref) * uF[:-1] * uG[1:]
                           - np.exp(lm2 - ref) * uF[1:] * uG[:-1])
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
    ns = np.arange(win.n_lo + 1, win.n_hi, dtype=float)
    a_prev = model.a_fn(np.maximum(ns - 1.0, 0.0))
    if win.n_lo == -1:
        a_prev[0] = 1.0
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


def omega(zp: SpectralPoint, params: CriticalParams, model: CoefficientModel,
          N: int | None = None, n0: int | None = None,
          tail_init: str = "asymptotic") -> complex:
    """Wronskian of the polynomial and Jost solutions, via f_{-1}.

    N and tail_init as for jost: "unit" is cheaper and keeps the real zeros,
    but is about 1e-3 off in value at real regular points.  Only the
    window head [n0, n0 + 1] is assembled: f_{-1} depends on nothing above
    it, so the value is jost's f_{-1} without its window, and the solve
    keeps u only on the head (volterra.solve's n_top = 0).
    """
    sol = volterra.solve(zp, params, model, n0=n0, N=N,
                         tail_init=tail_init, n_top=0)
    lm, unit = _jost_values(sol, zp, params, model, sol.n0 + 1)
    return omega_from_window(SolutionWindow("jost", -1, lm, unit, zp, model))


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
