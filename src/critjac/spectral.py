"""Spectral outputs: a.c. density, amplitude/phase, resolvent, eigenvalues.

The density on the a.c. set is

    xi(lambda) = w(lambda) / (pi |Omega(lambda +- i0)|^2),

with w the half-Wronskian of the two boundary Jost solutions and Omega
the Jost function.  The constant is pinned by two independent anchors:
the Stieltjes inversion of the resolvent (Privalov route) and the
quadrature orthonormality of the classical Laguerre case.  Eigenvalues
off the a.c. set are real zeros of Omega.  The nodes of the Jost head
count them (Jacobi oscillation theory; G. Teschl, Jacobi Operators and
Completely Integrable Nonlinear Lattices, AMS 2000, ch. 4), so a
bisection on that count isolates each in a bracket of its own and Brent
refines it; a truncated-matrix eigensolver only cross-checks the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import recurrence, solutions, volterra
from .ansatz import SpectralPoint, at_plus, interior, keep_stretches
from .coeffs import CoefficientModel, CriticalParams, RealInterval
from .errors import (
    CritJacError,
    EigenvalueHit,
    InvalidParameter,
    NumericFailure,
    OutsideAC,
    OverlapsAC,
    ThresholdPoint,
    only,
)

EIG_XTOL = 1e-9
EIG_CROSS_TOL = 1e-6
MATRIX_START_N = 400            # first truncation of matrix_eigs_adaptive
MATRIX_CAP_N = 200_000          # its largest truncation
MATRIX_SETTLE = 1e-8            # eigenvalue movement that counts as settled


@dataclass(frozen=True)
class SpectrumClassification:
    """Where the spectrum is absolutely continuous and where discrete."""

    kind: str                       # whole_line_ac | all_discrete | half_line_ac
    ac: RealInterval | None
    discrete: RealInterval | None   # region that may carry eigenvalues

    def __str__(self):
        ac = str(self.ac) if self.ac else "empty"
        disc = str(self.discrete) if self.discrete else "empty"
        return f"{self.kind}: ac={ac}, discrete region={disc}"


@dataclass(frozen=True)
class DensitySample:
    """One a.c.-density sample; xi = w / (pi * kappa^2) exactly as stored."""

    lam: float
    xi: float
    kappa: float
    eta: float
    w: float


def classify_spectrum(params: CriticalParams) -> SpectrumClassification:
    """The a.c. set and its complement, the region that may carry
    eigenvalues: the whole line, nothing, or the other half line."""
    ac = params.ac_set
    line = RealInterval(-np.inf, np.inf)
    if ac is None:
        return SpectrumClassification("all_discrete", None, line)
    if ac == line:
        return SpectrumClassification("whole_line_ac", ac, None)
    disc = (RealInterval(ac.hi, np.inf) if ac.lo == -np.inf
            else RealInterval(-np.inf, ac.lo))
    return SpectrumClassification("half_line_ac", ac, disc)


def _guard_band(params: CriticalParams, lam: float) -> float:
    return 1e-3 * max(1.0, abs(params.tau), abs(lam))


def _require_in_ac(lam: float, params: CriticalParams):
    ac = params.ac_set
    if ac is None or not ac.contains(lam):
        raise OutsideAC(f"lambda = {lam:g} is outside the a.c. set")
    for thr in params.thresholds():
        if abs(lam - thr) < _guard_band(params, lam):
            raise ThresholdPoint(
                f"lambda = {lam:g} inside the guard band around threshold {thr:g}"
            )


def amplitude_phase(lam: float, params: CriticalParams, model: CoefficientModel,
                    N: int | None = None) -> tuple[float, float]:
    """Limit amplitude kappa = |Omega(lambda+i0)| and principal-branch
    phase eta = arg Omega(lambda+i0), from a solve over the default window
    start; unwrap along sweeps externally."""
    _require_in_ac(lam, params)
    return _amplitude_phase(solutions.omega(at_plus(lam), params, model, N=N))


def _amplitude_phase(om: complex) -> tuple[float, float]:
    return abs(om), math.atan2(om.imag, om.real)


def density_group(lams, params: CriticalParams, model: CoefficientModel,
                  N: int | None = None) -> list:
    """Density samples xi = w / (pi kappa^2) at the lambdas, their Omegas
    solved as one group (solutions.omega_group): per point a
    DensitySample, eta on its principal branch, or the CritJacError that
    stopped it (a lambda outside the a.c. set or in a threshold's guard
    band among them).  Each sample is the point's density alone bit for
    bit.

    N defaults to volterra.solve_group's fixed window (10^6 for most
    points), a length, not an accuracy target: on Laguerre at
    lambda = 0.5, xi is 2.0e-6 relative off e^-lambda at N = 2e5 but
    2.5e-5 at N = 10^6.  An explicit N too short for an a.c. point raises
    InvalidParameter before anything is solved.
    """
    lams = [float(lam) for lam in lams]
    out: list = [None] * len(lams)
    ac = []
    for i, lam in enumerate(lams):
        try:
            _require_in_ac(lam, params)
            ac.append(i)
        except CritJacError as exc:
            out[i] = exc
    oms = solutions.omega_group([at_plus(lams[i]) for i in ac], params, model, N=N)
    for i, om in zip(ac, oms):
        if not isinstance(om, CritJacError):
            kappa, eta = _amplitude_phase(om)
            w = solutions.limit_wronskian(lams[i], params)
            om = DensitySample(lam=lams[i], xi=w / (math.pi * kappa ** 2),
                               kappa=kappa, eta=eta, w=w)
        out[i] = om
    return out


def density(lam: float, params: CriticalParams, model: CoefficientModel,
            N: int | None = None) -> DensitySample:
    """One density sample at lambda in the a.c. set: the group of one
    (density_group), its error raised."""
    return only(density_group([lam], params, model, N=N))


def nearest_branch(eta: float, prev_eta: float | None) -> float:
    """eta shifted by the multiple of 2 pi that brings it nearest to
    prev_eta, the phase of the previous sample of a sweep (None: first
    sample, eta unchanged)."""
    if prev_eta is None:
        return eta
    return eta + 2.0 * math.pi * round((prev_eta - eta) / (2.0 * math.pi))


def density_sweep(lams, params: CriticalParams, model: CoefficientModel,
                  N: int | None = None) -> list[DensitySample]:
    """Density over a lambda grid, solved as one group (density_group),
    with eta continued by nearest branch; the first point in grid order
    that fails raises its error."""
    out: list[DensitySample] = []
    prev_eta = None
    for s in density_group(lams, params, model, N=N):
        if isinstance(s, CritJacError):
            raise s
        prev_eta = nearest_branch(s.eta, prev_eta)
        out.append(DensitySample(s.lam, s.xi, s.kappa, prev_eta, s.w))
    return out


# -- resolvent ------------------------------------------------------------


def resolvent_element(n: int, m: int, zp: SpectralPoint,
                      params: CriticalParams, model: CoefficientModel,
                      N: int | None = None) -> complex:
    """<R(z) e_n, e_m> = Omega(z)^{-1} P_min(z) f_max(z).

    Defined for Im z != 0, for boundary values lambda +- i0 on the a.c.
    set, and for real z in the resolvent set (EigenvalueHit at real
    zeros of Omega).  The Jost solution is solved for and assembled only
    up to max(n, m), as omega does up to the window head; an index above
    the window top N raises InvalidParameter before anything is built.
    """
    if n < 0 or m < 0:
        raise InvalidParameter("resolvent indices must be nonnegative")
    lo, hi = min(n, m), max(n, m)
    sol = volterra.solve(zp, params, model, N=N, n_top=hi)
    win = solutions._jost_window(sol, zp, params, model)
    om = solutions.omega_from_window(win)
    z = complex(zp.z)
    if z.imag == 0.0 and zp.side == "interior":
        scale = max(1.0, abs(win.complex_at(0)), abs(win.complex_at(1)))
        if abs(om) < 1e-8 * scale:
            raise EigenvalueHit(f"Omega vanishes at z = {z.real:g}")
    P = recurrence.poly_eval(model, z, lo)
    return (P.value(lo) * win.value(hi)).to_complex() / om


def projector_density(n: int, m: int, lam: float, params: CriticalParams,
                      model: CoefficientModel, N: int | None = None) -> float:
    """d<E(lambda) e_n, e_m>/dlambda = pi^{-1} w |Omega|^{-2} P_n P_m."""
    _require_in_ac(lam, params)
    s = density(lam, params, model, N=N)
    P = recurrence.poly_eval(model, lam, max(n, m))
    pn = P.complex_at(n).real
    pm = P.complex_at(m).real
    return s.xi * pn * pm


# -- discrete spectrum -------------------------------------------------------


def _omega_real(lam: float, params: CriticalParams, model: CoefficientModel,
                N: int | None) -> tuple[float, int]:
    """(Re Omega(lam), node count) from one bare Volterra window (the
    unit tail: u = 1 beyond N) and its head [-1, n0 + 1].

    Re Omega is accurate in sign and zeros, which is all the eigenvalue
    search uses; the value itself is off by about 1e-3 relative.

    The count is the number of nodes of (-gamma)^n f_n on the head: its
    exact zeros and its sign changes between neighbours, the one between
    f_{-1} and f_0 included.  By Jacobi oscillation theory it is the
    number of eigenvalues below lam for gamma = 1 and above lam for
    gamma = -1 (at a zero of Omega, the node f_{-1} = 0 counts lam
    itself).  Beyond n0, (-gamma)^n f_n = |A_n| u_n off the a.c.
    closure, which has no node while u_n > 0; the count checks u_{n0}
    and u_{n0+1} and raises NumericFailure rather than miscount.
    """
    zp = interior(complex(lam))
    sol = volterra.solve(zp, params, model, N=N, tail_init="unit", n_top=0)
    if not np.all(sol.u[:2].real > 0.0):
        raise NumericFailure(
            f"u is not positive on the window head [{sol.n0}, {sol.n0 + 1}] "
            f"at lambda = {lam:g}: the node count does not hold"
        )
    win = solutions._jost_window(sol, zp, params, model)
    ns = np.arange(-1, sol.n0 + 2)
    s = np.where(np.isneginf(win.logmag), 0.0,
                 solutions.alternating_sign(ns, params.gamma) * win.unit.real)
    nodes = np.count_nonzero(s == 0.0) + np.count_nonzero(s[:-1] * s[1:] < 0.0)
    return solutions.omega_from_window(win).real, int(nodes)


def matrix_eigs_adaptive(model: CoefficientModel, window: tuple[float, float]
                         ) -> tuple[np.ndarray, int, bool]:
    """Eigenvalues of growing truncations until the in-window set settles.

    Doubles N from MATRIX_START_N until every eigenvalue in the window
    moves less than MATRIX_SETTLE and the count is stable, or N reaches
    MATRIX_CAP_N; below the a.c. threshold the truncation converges fast,
    so this terminates quickly.  Returns (eigenvalues, N, settled):
    settled is False when the cap stopped the doubling first.
    """
    N = MATRIX_START_N
    prev = None
    while True:
        eigs = recurrence.truncated_matrix_eigs(model, N, window=window)
        if prev is not None and len(prev) == len(eigs):
            if len(eigs) == 0 or np.max(np.abs(prev - eigs)) < MATRIX_SETTLE:
                return eigs, N, True
        if N >= MATRIX_CAP_N:
            return eigs, N, False
        prev = eigs
        N = min(2 * N, MATRIX_CAP_N)


def discrete_eigenvalues(lo: float, hi: float, params: CriticalParams,
                         model: CoefficientModel,
                         N: int | None = None) -> list[float]:
    """Real zeros of Omega on [lo, hi] (disjoint from the a.c. closure).

    The node count of the Jost head isolates each eigenvalue in a
    bracket of its own by bisection; Brent refines it to 1e-9.  Two
    eigenvalues that no bracket wider than 1e-9 separates raise
    NumericFailure rather than being merged.
    """
    return eigenvalue_report(lo, hi, params, model, N=N)["omega_zeros"]


def eigenvalue_report(lo: float, hi: float, params: CriticalParams,
                      model: CoefficientModel, N: int | None = None) -> dict:
    """Eigenvalues by both routes plus deviations (dict for JSON export).

    The Omega route counts eigenvalues by the node count of _omega_real
    at the two ends, bisects every bracket that holds two or more, and
    runs Brent on Re Omega in each bracket that holds one.  The matrix
    only cross-checks: "agree" needs a settled matrix reference, equal
    counts from the nodes, the zeros and the matrix, and every zero
    within EIG_CROSS_TOL of a matrix eigenvalue.  A deviation with no
    matrix eigenvalue to measure it from is None.

    Every Omega evaluation sweeps the same window stretches of the same
    model, so the search keeps them (ansatz.keep_stretches): each
    stretch's z-free arrays (a_n, b_n, their ratios and roots, ...) are
    built once per search, not once per evaluation, for at most
    ansatz._SEARCH_KEEP stretches (2^16 indices; the rest of a longer
    window is built per evaluation).  They are the arrays an evaluation
    would build, so the report is the same bit for bit, and nothing is
    kept once the call returns or raises.
    """
    if hi <= lo:
        raise InvalidParameter("need lo < hi")
    ac = params.ac_set
    if ac is not None and not (hi <= ac.lo or lo >= ac.hi):
        raise OverlapsAC(f"[{lo:g}, {hi:g}] intersects the a.c. closure {ac}")

    evals: dict[float, tuple[float, int]] = {}

    def at(lam: float) -> tuple[float, int]:
        if lam not in evals:
            evals[lam] = _omega_real(lam, params, model, N)
        return evals[lam]

    def inside(a: float, b: float) -> int:
        # eigenvalues in the open interval (a, b); an end where Omega = 0
        # is counted by its own node f_{-1} = 0, among the eigenvalues
        # below it for gamma = 1 and above it for gamma = -1
        (fa, ca), (fb, cb) = at(a), at(b)
        return abs(cb - ca) - int((fb if params.gamma > 0 else fa) == 0.0)

    with keep_stretches(params, model):
        zeros = [float(x) for x in (lo, hi) if at(x)[0] == 0.0]
        count = inside(lo, hi) + len(zeros)
        brackets = [(lo, hi)]
        while brackets:
            a, b = brackets.pop()
            k = inside(a, b)
            if k == 0:
                continue
            if k == 1 and at(a)[0] * at(b)[0] < 0.0:
                zeros.append(float(brentq(lambda x: at(x)[0], a, b, xtol=EIG_XTOL)))
                continue
            if b - a < EIG_XTOL:
                raise NumericFailure(
                    f"node count {k} in ({a:.17g}, {b:.17g}), a bracket narrower "
                    f"than {EIG_XTOL:g}: cannot isolate the eigenvalues"
                )
            m = 0.5 * (a + b)
            if at(m)[0] == 0.0:
                zeros.append(m)
            brackets += [(m, b), (a, m)]
    zeros.sort()

    ref, N_mat, settled = matrix_eigs_adaptive(model, (lo, hi))
    deviations = [float(np.min(np.abs(ref - z))) if len(ref) else None
                  for z in zeros]
    return {
        "interval": [float(lo), float(hi)],
        "omega_zeros": zeros,
        "count": count,
        "matrix_eigenvalues": [float(x) for x in ref],
        "deviations": deviations,
        "matrix_N": int(N_mat),
        "matrix_settled": settled,
        "agree": bool(settled and count == len(zeros) == len(ref)
                      and all(d <= EIG_CROSS_TOL for d in deviations)),
    }
