"""WKB-type Ansatz for Jacobi difference equations with growing coefficients.

The approximate solution is

    A_n(z) = (-gamma)^n n^(-rho) exp(i phi_n(gamma z)),
    phi_n  = sum of theta_m over the window, theta_n = sqrt(T_n),
    T_n    = t_n + p_2 t_n^2 + ... + p_L t_n^L,
    t_n    = -tau/n + (gamma z)/n^sigma,

with the square-root branch fixed by Im sqrt >= 0 on the plane cut along
the positive reals.  Boundary values from below the cut, and points with
Im(gamma z) < 0, are produced by conjugation: the whole pipeline computes
at the canonical (upper) point and conjugates final values, so a single
branch is ever evaluated.

For real z off the closure of the a.c. set T_n < 0 on the window, so
theta_n is purely imaginary and the ratios B_n are real.
ansatz_ratio_window then returns them as float64, and a kernel built
from them stays real: a kernel stretch is float64 exactly when theta_n
is purely imaginary on it and on every stretch below it.  The data
decides, once per call.

Every function here is pure given (n, point, params, model) and the
module keeps no state, so calls at different points share nothing: the
CLI's thread pool (density --threads) relies on that.  The phase sum
phi_n has one path, phi_window, a cumulative sum of one theta_window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientModel, CriticalParams
from .errors import BranchPoint, InvalidParameter

PLUS = "plus"
MINUS = "minus"
INTERIOR = "interior"


@dataclass(frozen=True)
class SpectralPoint:
    """Complex z with the boundary-side tag fixing every square root.

    side = plus / minus means the limit onto the real axis from the upper
    or lower half-plane (Im z must be 0); side = interior is an ordinary
    point (off the real axis, or real in the resolvent region).
    """

    z: complex
    side: str = INTERIOR

    def __post_init__(self):
        if self.side not in (PLUS, MINUS, INTERIOR):
            raise InvalidParameter(f"unknown side tag {self.side!r}")
        if self.side != INTERIOR and complex(self.z).imag != 0.0:
            raise InvalidParameter("side=plus/minus requires Im z = 0")

    def conjugate(self) -> "SpectralPoint":
        flip = {PLUS: MINUS, MINUS: PLUS, INTERIOR: INTERIOR}
        return SpectralPoint(complex(self.z).conjugate(), flip[self.side])


def at_plus(lam: float) -> SpectralPoint:
    return SpectralPoint(complex(lam), PLUS)


def at_minus(lam: float) -> SpectralPoint:
    return SpectralPoint(complex(lam), MINUS)


def interior(z: complex) -> SpectralPoint:
    return SpectralPoint(complex(z), INTERIOR)


# -- square roots ------------------------------------------------------------


def sqrt_cut(t: complex, side: str = INTERIOR) -> complex:
    """sqrt on the plane cut along [0, inf), branch Im sqrt >= 0.

    On the cut itself only the +i0 limit is returned (side=plus gives
    +sqrt(t) for t > 0); lower-side boundary values are produced by
    conjugating whole solutions, never here.
    """
    t = complex(t)
    if t == 0:
        raise BranchPoint("square root evaluated at the branch point t = 0")
    if t.imag == 0.0 and t.real > 0.0:
        if side == MINUS:
            raise InvalidParameter(
                "minus-side values on the cut are obtained by conjugation "
                "at the solution level"
            )
        return complex(math.sqrt(t.real), 0.0)
    r = np.sqrt(t)
    return complex(-r) if r.imag < 0 else complex(r)


def branch_sqrt(T: np.ndarray) -> np.ndarray:
    """Vectorized Im >= 0 square root; +i0 limit on the positive reals."""
    T = np.asarray(T, dtype=complex)
    if np.any(T == 0):
        raise BranchPoint("phase argument hit the branch point (threshold)")
    r = np.sqrt(T)
    return np.where(r.imag < 0, -r, r)


# -- canonical phase context ------------------------------------------------


@dataclass(frozen=True)
class PhaseContext:
    """Canonicalized phase argument for one spectral point.

    w is gamma*z moved to the closed upper half-plane; conj records
    whether final values must be conjugated back.
    """

    w: complex
    conj: bool
    n_start: int
    params: CriticalParams

    @property
    def z_canonical(self) -> complex:
        return self.params.gamma * self.w


def _turning_index(w: float, params: CriticalParams) -> float:
    """Largest n at which t_n(w) changes sign for real w, 0 if none, inf
    if it lies beyond the float range (w near 0 or tau near 0)."""
    tau = params.tau
    if tau == 0.0 or params.single_power or w == 0.0:
        return 0.0
    ratio = w / tau
    if ratio <= 0.0:
        return 0.0
    try:
        return ratio ** (1.0 / (params.sigma - 1.0))
    except OverflowError:
        return math.inf


def default_n_start(zp: SpectralPoint, params: CriticalParams) -> int:
    """First index of the phase sum.

    Keeps |t_n| <= 1/2 on the window and, for real arguments, clears the
    sign change of t_n with a wide margin so T_n stays away from the cut.
    A finite number of dropped leading terms only rescales the Jost
    solution by a constant.  A sign change beyond the float range raises
    InvalidParameter: no window reaches past it.
    """
    w = params.gamma * complex(zp.z)
    base = max(
        8,
        math.ceil((4.0 * abs(w)) ** (1.0 / params.sigma)),
        math.ceil(4.0 * abs(params.tau)) + 1,
    )
    if w.imag == 0.0:
        margin = 8.0 * _turning_index(w.real, params)
        if margin == math.inf:
            raise InvalidParameter(
                f"t_n changes sign beyond n = 1e308 at gamma z = {w.real:g}")
        base = max(base, math.ceil(margin))
    return base


def phase_context(zp: SpectralPoint, params: CriticalParams,
                  n_start: int | None = None) -> PhaseContext:
    """Canonicalize a spectral point; validates threshold and side rules.

    At real w the leading coefficient c(w) of t_n decides: c > 0 (z in
    the a.c. set) needs a side tag, c = 0 (an a.c. endpoint) is a
    branch point.
    """
    z = complex(zp.z)
    w = params.gamma * z
    conj = False
    if zp.side == INTERIOR:
        if w.imag < 0.0:
            w = w.conjugate()
            conj = True
    else:
        eff_plus = (zp.side == PLUS) == (params.gamma > 0)
        conj = not eff_plus
        w = complex(w.real, 0.0)
    if w.imag == 0.0:
        c = params.leading_coefficient(w.real)
        if c == 0.0:
            raise BranchPoint(f"z = {z.real:g} at an endpoint of the a.c. set")
        if c > 0.0 and zp.side == INTERIOR:
            raise InvalidParameter(
                "real z inside the a.c. set needs an explicit side tag "
                "(+i0 or -i0), not side=interior"
            )
    if n_start is None:
        n_start = default_n_start(zp, params)
    return PhaseContext(w=w, conj=conj, n_start=int(n_start), params=params)


# -- phases -------------------------------------------------------------------


def t_values(ns: np.ndarray, w: complex, params: CriticalParams) -> np.ndarray:
    ns = np.asarray(ns, dtype=float)
    return -params.tau / ns + w * ns ** (-params.sigma)


def theta_window(ctx: PhaseContext, n0: int, n1: int) -> np.ndarray:
    """theta_n for n in [n0, n1) at the canonical point (no conjugation)."""
    ns = np.arange(n0, n1, dtype=float)
    p = ctx.params
    if p.single_power:
        # explicit sqrt(c) n^{-1/2}, c = gamma z - tau; avoids cancellation in t_n
        return sqrt_cut(p.leading_coefficient(ctx.w)) / np.sqrt(ns)
    t = t_values(ns, ctx.w, p)
    T = t.copy()
    if p.L > 1:
        acc = np.zeros_like(t)
        for pl in reversed(p.p):
            acc = (acc + float(pl)) * t
        T = t + acc * t  # t + p2 t^2 + ... + pL t^L via Horner
    return branch_sqrt(T)


def phi_window(ctx: PhaseContext, n1: int) -> np.ndarray:
    """phi_n for n in [ctx.n_start, n1] at the canonical point (no
    conjugation): phi_{n_start} = 0 and phi_{n+1} - phi_n = theta_n."""
    th = theta_window(ctx, ctx.n_start, n1)
    return np.concatenate([[0.0 + 0.0j], np.cumsum(th)])


# -- the Ansatz and its remainder ---------------------------------------


def ansatz_ratio_window(ctx: PhaseContext, n0: int, n1: int,
                        th: np.ndarray) -> np.ndarray:
    """B_n = A_{n+1}/A_n = (-gamma) (n+1)^(-rho) n^rho e^{i theta_n},
    for n in [n0, n1), at the canonical point, from the caller's
    th = theta_window(ctx, n0, n1).

    The dtype follows the data: where theta_n is purely imaginary on the
    whole window (real z off the closure of the a.c. set) B_n is real and
    comes out as float64 from a real exp; otherwise it is complex.
    """
    ns = np.arange(n0, n1, dtype=float)
    p = ctx.params
    return (-p.gamma) * (ns / (ns + 1.0)) ** p.rho * (
        np.exp(1j * th) if th.real.any() else np.exp(-th.imag))


def remainder_window(ctx: PhaseContext, model: CoefficientModel,
                     n0: int, n1: int, B: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Relative recurrence defect r_n of the Ansatz for n in [n0, n1).

    Evaluated through the neighbor ratios B_n only -- the raw A_n under-
    or overflow, the ratios are O(1):

        r_n = sqrt(a_{n-1}/a_n) / B_{n-1} + sqrt(a_n/a_{n-1}) B_n
              + (b_n - z)/sqrt(a_{n-1} a_n).

    B = ansatz_ratio_window(ctx, n0 - 1, n1) and a = a_n for n in
    [n0 - 1, n1) are the caller's, already built.  A real B (theta purely
    imaginary, so z real) gives a real r_n.  The real divisors enter as
    reciprocals, which is how numpy divides a complex array by a real one,
    so a real B rounds each term as its complex copy would.
    """
    z = ctx.z_canonical if np.iscomplexobj(B) else ctx.z_canonical.real
    ns = np.arange(n0, n1, dtype=float)
    a_n, a_nm1 = a[1:], a[:-1]
    b_n = model.b_fn(ns)
    ratio = np.sqrt(a_n / a_nm1)
    return (B[:-1] ** -1 * (1.0 / ratio) + ratio * B[1:]
            + (b_n - z) * (1.0 / np.sqrt(a_n * a_nm1)))


# -- closed-form phase asymptotics (test oracles) ----------------------------


def asymptotic_phase(n: int, lam: float, params: CriticalParams) -> complex:
    """Displayed leading terms of phi_n(gamma*(lam+i0)), without the
    unknown additive constant.  Regime selects the formula:

      sigma = 1        : 2 sqrt(w - tau) n^{1/2}
      sigma in (1,3/2) : 2 sqrt(|tau| n) +- w/(sqrt(|tau|)(3-2 sigma)) n^{3/2-sigma}
      sigma = 3/2      : same with the power replaced by ln n
      sigma < 1        : 2 sqrt(w) (2-sigma)^{-1} n^{1-sigma/2}

    with w = gamma*lam and upper-side square roots.
    """
    s, tau = params.sigma, params.tau
    w = params.gamma * float(lam)
    if s == 1.0:
        return 2.0 * sqrt_cut(w - tau, PLUS) * math.sqrt(n)
    if s > 1.0:
        grow = math.log(n) if s == 1.5 else n ** (1.5 - s) / (3.0 - 2.0 * s)
        if tau < 0:
            return 2.0 * math.sqrt(-tau * n) + w / math.sqrt(-tau) * grow
        return 2.0j * math.sqrt(tau * n) - 1.0j * w / math.sqrt(tau) * grow
    return 2.0 * sqrt_cut(w, PLUS) / (2.0 - s) * n ** (1.0 - s / 2.0)
