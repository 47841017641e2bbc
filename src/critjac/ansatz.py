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

The window builders (theta_window, ansatz_ratio_window,
remainder_window) take the index stretch they cover as a Stretch: the
arrays of one model on [lo, hi) that do not depend on z (a_n, b_n, their
ratios and roots, n^-sigma, -tau/n, (n/(n+1))^rho, ...), each built on
first use and kept.  The points of a group that share a stretch read
one (volterra.solve_group), so the z-free arrays are built once per
group; a lone call builds its own.  Every function here is pure given
(point, stretch), and the module keeps no state between calls.  A
Stretch fills itself as it is read, so it belongs to one thread: the
CLI's pool (density --threads) gives each thread a group of its own.
The phase sum phi_n has one path, phi_stretch, a cumulative sum of a
carried value and one theta_window; phi_window is its stretch from the
window start, and an eigenvalue search walks it stretch by stretch to
end each window (spectral._omega_real).
"""

from __future__ import annotations

import cmath
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
    solution by a constant.  A non-finite z, a |t_n| <= 1/2 bound or a
    sign change beyond the float range raises InvalidParameter: no window
    reaches past it.
    """
    w = params.gamma * complex(zp.z)
    if not cmath.isfinite(w):
        raise InvalidParameter(f"z = {complex(zp.z)} is not finite")
    try:
        reach = math.ceil((4.0 * abs(w)) ** (1.0 / params.sigma))
    except OverflowError:
        raise InvalidParameter(
            f"|t_n| <= 1/2 only beyond n = 1e308 at gamma z = {w}") from None
    base = max(8, reach, math.ceil(4.0 * abs(params.tau)) + 1)
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


def _shared(build):
    """A Stretch array: built by `build` on first use and kept, or, in a
    stretch cut from another (Stretch.since), a view of that one's."""
    name = build.__name__

    def get(self):
        if name not in self._arrays:
            if self._cut is None:
                self._arrays[name] = build(self)
            else:
                whole, k = self._cut
                self._arrays[name] = getattr(whole, name)[k:]
        return self._arrays[name]

    return property(get)


class Stretch:
    """The arrays of one model on the indices [lo, hi) that do not depend
    on z, for the window builders.

    Each is built on first use from the expression the builders evaluated
    per point, and kept, so a point reads the values it would have built
    itself.  One entry per n in [lo, hi): ns (n as float64),
    neg_tau_over_n (-tau / n) and n_pow (n^-sigma), the terms of t_n;
    sqrt_n, theta_n's divisor where t_n has a single power; mod,
    (-gamma) (n / (n + 1))^rho, the modulus of B_n; a (a_n); log_x,
    log a_n - rho log(n (n + 1)), the z-free part of log|X_n|.  One entry
    per neighbour pair, n in [lo + 1, hi): ratio (a_n / a_{n-1}), root
    (its square root), inv_root (1 / root), inv_geo (1 / sqrt(a_n
    a_{n-1})) and b (b_n).  since(n) is the stretch [n, hi) cut from this
    one, its arrays views of this one's: the points of a group whose
    windows start inside a shared stretch each read their part of it.
    model may be None where only the phases are read (phi_stretch).
    """

    def __init__(self, params: CriticalParams, model: CoefficientModel | None,
                 lo: int, hi: int):
        self.params, self.model = params, model
        self.lo, self.hi = int(lo), int(hi)
        self._arrays: dict[str, np.ndarray] = {}
        self._cut = None

    def since(self, lo: int) -> "Stretch":
        if lo == self.lo:
            return self
        cut = Stretch(self.params, self.model, lo, self.hi)
        cut._cut = (self, lo - self.lo)
        return cut

    @_shared
    def ns(self):
        return np.arange(self.lo, self.hi, dtype=float)

    @_shared
    def neg_tau_over_n(self):
        return -self.params.tau / self.ns

    @_shared
    def n_pow(self):
        return self.ns ** (-self.params.sigma)

    @_shared
    def sqrt_n(self):
        return np.sqrt(self.ns)

    @_shared
    def mod(self):
        ns = self.ns
        return (-self.params.gamma) * (ns / (ns + 1.0)) ** self.params.rho

    @_shared
    def a(self):
        return self.model.a_fn(self.ns)

    @_shared
    def log_x(self):
        ns = self.ns
        return np.log(self.a) - self.params.rho * np.log(ns * (ns + 1.0))

    @_shared
    def ratio(self):
        return self.a[1:] / self.a[:-1]

    @_shared
    def root(self):
        return np.sqrt(self.ratio)

    @_shared
    def inv_root(self):
        return 1.0 / self.root

    @_shared
    def inv_geo(self):
        return 1.0 / np.sqrt(self.a[1:] * self.a[:-1])

    @_shared
    def b(self):
        return self.model.b_fn(self.ns[1:])


def theta_window(ctx: PhaseContext, st: Stretch) -> np.ndarray:
    """theta_n for n in the stretch st at the canonical point (no
    conjugation).

    At real w, t_n and T_n are real: where T_n keeps one sign on the
    window theta_n is a real sqrt, put into the real part (T_n > 0, the
    a.c. set) or the imaginary part (T_n < 0).  That is the value
    branch_sqrt gives bit for bit, at a third of the cost; a window where
    T_n changes sign or vanishes goes through branch_sqrt.
    """
    p = ctx.params
    if p.single_power:
        # explicit sqrt(c) n^{-1/2}, c = gamma z - tau; avoids cancellation in t_n
        return sqrt_cut(p.leading_coefficient(ctx.w)) / st.sqrt_n
    w = ctx.w.real if ctx.w.imag == 0.0 else ctx.w
    t = st.neg_tau_over_n + w * st.n_pow                  # t_values on the stretch
    T = t
    if p.L > 1:
        acc = np.zeros_like(t)
        for pl in reversed(p.p):
            acc = (acc + float(pl)) * t
        T = t + acc * t  # t + p2 t^2 + ... + pL t^L via Horner
    if T.dtype.kind != "c" and len(T):
        th = np.zeros(len(T), dtype=complex)
        if T.min() > 0.0:
            np.sqrt(T, out=th.real)
            return th
        if T.max() < 0.0:
            np.negative(T, out=T)
            np.sqrt(T, out=th.imag)
            return th
    return branch_sqrt(T)


def phi_window(ctx: PhaseContext, n1: int) -> np.ndarray:
    """phi_n for n in [ctx.n_start, n1] at the canonical point (no
    conjugation): phi_{n_start} = 0 and phi_{n+1} - phi_n = theta_n."""
    return phi_stretch(ctx, ctx.n_start, n1, 0j)


def phi_stretch(ctx: PhaseContext, lo: int, hi: int,
                phi_lo: complex) -> np.ndarray:
    """phi_n for n in [lo, hi] at the canonical point, from phi_lo.

    One cumulative sum of phi_lo followed by theta_n on [lo, hi)
    (theta_window): the carry is the sum's first term, so consecutive
    stretches, each started from the last one's final value, give
    phi_window's sums bit for bit.
    """
    th = theta_window(ctx, Stretch(ctx.params, None, lo, hi))
    phi = np.empty(len(th) + 1, dtype=th.dtype)
    phi[0] = phi_lo
    phi[1:] = th
    del th
    return np.cumsum(phi, out=phi)


# -- the Ansatz and its remainder ---------------------------------------


def ansatz_ratio_window(ctx: PhaseContext, st: Stretch,
                        th: np.ndarray) -> np.ndarray:
    """B_n = A_{n+1}/A_n = (-gamma) (n+1)^(-rho) n^rho e^{i theta_n},
    for n in the stretch st, at the canonical point, from the caller's
    th = theta_window(ctx, st).

    The dtype follows the data: where theta_n is purely imaginary on the
    whole window (real z off the closure of the a.c. set) B_n is real and
    comes out as float64 from a real exp; where it is real (the a.c. set)
    e^{i theta_n} is cos + i sin, the value of the complex exp bit for bit;
    otherwise it is the complex exp.
    """
    mod = st.mod
    if not th.real.any():
        return mod * np.exp(-th.imag)
    if th.imag.any():
        return mod * np.exp(1j * th)
    B = np.empty(len(th), dtype=complex)
    np.multiply(mod, np.cos(th.real), out=B.real)
    np.multiply(mod, np.sin(th.real), out=B.imag)
    return B


def remainder_window(ctx: PhaseContext, st: Stretch, B: np.ndarray) -> np.ndarray:
    """Relative recurrence defect r_n of the Ansatz for n in
    [st.lo + 1, st.hi).

    Evaluated through the neighbor ratios B_n only -- the raw A_n under-
    or overflow, the ratios are O(1):

        r_n = sqrt(a_{n-1}/a_n) / B_{n-1} + sqrt(a_n/a_{n-1}) B_n
              + (b_n - z)/sqrt(a_{n-1} a_n).

    B = ansatz_ratio_window(ctx, st, ...) is the caller's, already built;
    the roots of a_n and b_n are the stretch's.  A real B (theta purely
    imaginary, so z real) gives a real r_n.  The real divisors enter as
    reciprocals, which is how numpy divides a complex array by a real one,
    so a real B rounds each term as its complex copy would.  A non-finite
    B_n, or one whose reciprocal overflows, gives a non-finite r_n without
    a warning: the solve checks its kernel and its solution and raises
    NumericFailure.
    """
    z = ctx.z_canonical if np.iscomplexobj(B) else ctx.z_canonical.real
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        return (B[:-1] ** -1 * st.inv_root + st.root * B[1:]
                + (st.b - z) * st.inv_geo)


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
