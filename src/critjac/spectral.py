"""Spectral outputs: a.c. density, amplitude/phase, resolvent, eigenvalues.

The density on the a.c. set is

    xi(lambda) = w(lambda) / (pi |Omega(lambda +- i0)|^2),

with w the half-Wronskian of the two boundary Jost solutions and Omega
the Jost function.  The constant is pinned by two independent anchors:
the Stieltjes inversion of the resolvent (Privalov route) and the
quadrature orthonormality of the classical Laguerre case.  Eigenvalues
off the a.c. set are real zeros of Omega, cross-checked against a
truncated-matrix eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import recurrence, solutions, volterra
from .ansatz import SpectralPoint, at_plus, interior
from .coeffs import CoefficientModel, CriticalParams, RealInterval
from .errors import (
    EigenvalueHit,
    InvalidParameter,
    OutsideAC,
    OverlapsAC,
    RefineGrid,
    ThresholdPoint,
)

EIG_XTOL = 1e-9
EIG_CROSS_TOL = 1e-6
EIG_GRID_POINTS = 64            # uniform points of the sign-change scan
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
                    N: int | None = None,
                    n0: int | None = None) -> tuple[float, float]:
    """Limit amplitude kappa = |Omega(lambda+i0)| and principal-branch
    phase eta = arg Omega(lambda+i0); unwrap along sweeps externally."""
    _require_in_ac(lam, params)
    om = solutions.omega(at_plus(lam), params, model, N=N, n0=n0)
    return abs(om), math.atan2(om.imag, om.real)


def density(lam: float, params: CriticalParams, model: CoefficientModel,
            N: int | None = None, n0: int | None = None) -> DensitySample:
    """One density sample xi = w / (pi kappa^2) at lambda in the a.c. set.

    N defaults to volterra.solve's fixed window (10^6 for most points),
    a length, not an accuracy target: on Laguerre at lambda = 0.5, xi is
    2.0e-6 relative off e^-lambda at N = 2e5 but 2.5e-5 at N = 10^6.
    """
    kappa, eta = amplitude_phase(lam, params, model, N=N, n0=n0)
    w = solutions.limit_wronskian(lam, params)
    return DensitySample(lam=float(lam), xi=w / (math.pi * kappa ** 2),
                         kappa=kappa, eta=eta, w=w)


def nearest_branch(eta: float, prev_eta: float | None) -> float:
    """eta shifted by the multiple of 2 pi that brings it nearest to
    prev_eta, the phase of the previous sample of a sweep (None: first
    sample, eta unchanged)."""
    if prev_eta is None:
        return eta
    return eta + 2.0 * math.pi * round((prev_eta - eta) / (2.0 * math.pi))


def density_sweep(lams, params: CriticalParams, model: CoefficientModel,
                  N: int | None = None) -> list[DensitySample]:
    """Density over a lambda grid with eta continued by nearest branch."""
    out: list[DensitySample] = []
    prev_eta = None
    for lam in lams:
        s = density(float(lam), params, model, N=N)
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
    up to max(n, m), as omega does up to the window head.
    """
    if n < 0 or m < 0:
        raise InvalidParameter("resolvent indices must be nonnegative")
    lo, hi = min(n, m), max(n, m)
    sol = volterra.solve(zp, params, model, N=N, n_top=hi)
    if hi > sol.N:
        raise InvalidParameter(f"index {hi} beyond the Jost window [-1, {sol.N}]")
    lm, unit = solutions._jost_values(sol, zp, params, model, max(sol.n0 + 1, hi))
    win = solutions.SolutionWindow("jost", -1, lm, unit, zp, model)
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
                N: int | None) -> float:
    """Re Omega(lam) from one bare Volterra window (tail_init="unit").

    Accurate in sign and zeros, which is all the eigenvalue search uses;
    the value itself is off by about 1e-3 relative.
    """
    om = solutions.omega(interior(complex(lam)), params, model, N=N,
                         tail_init="unit")
    return om.real


def matrix_eigs_adaptive(model: CoefficientModel,
                         window: tuple[float, float]) -> tuple[np.ndarray, int]:
    """Eigenvalues of growing truncations until the in-window set settles.

    Doubles N from MATRIX_START_N until every eigenvalue in the window
    moves less than MATRIX_SETTLE and the count is stable, or N reaches
    MATRIX_CAP_N; below the a.c. threshold the truncation converges fast,
    so this terminates quickly.
    """
    N = MATRIX_START_N
    prev = None
    while True:
        eigs = recurrence.truncated_matrix_eigs(model, N, window=window)
        if prev is not None and len(prev) == len(eigs):
            if len(eigs) == 0 or np.max(np.abs(prev - eigs)) < MATRIX_SETTLE:
                return eigs, N
        if N >= MATRIX_CAP_N:
            return eigs, N
        prev = eigs
        N = min(2 * N, MATRIX_CAP_N)


def discrete_eigenvalues(lo: float, hi: float, params: CriticalParams,
                         model: CoefficientModel,
                         N: int | None = None) -> list[float]:
    """Real zeros of Omega on [lo, hi] (disjoint from the a.c. closure).

    Sign-change scan refined around matrix-oracle predictions, then
    Brent root-finding to 1e-9.  If two predicted eigenvalues cannot be
    separated by the refined grid the search raises RefineGrid rather
    than silently merging them.
    """
    return eigenvalue_report(lo, hi, params, model, N=N)["omega_zeros"]


def eigenvalue_report(lo: float, hi: float, params: CriticalParams,
                      model: CoefficientModel, N: int | None = None) -> dict:
    """Eigenvalues by both routes plus deviations (dict for JSON export)."""
    if hi <= lo:
        raise InvalidParameter("need lo < hi")
    ac = params.ac_set
    if ac is not None and not (hi <= ac.lo or lo >= ac.hi):
        raise OverlapsAC(f"[{lo:g}, {hi:g}] intersects the a.c. closure {ac}")

    ref, N_mat = matrix_eigs_adaptive(model, (lo, hi))

    # scan grid: uniform points plus midpoints between predicted eigenvalues
    pts = set(np.linspace(lo, hi, EIG_GRID_POINTS))
    for i in range(len(ref) + 1):
        a = lo if i == 0 else ref[i - 1]
        b = hi if i == len(ref) else ref[i]
        pts.add(0.5 * (a + b))
    grid = np.array(sorted(pts))
    om = np.array([_omega_real(x, params, model, N) for x in grid])

    zeros: list[float] = []
    for i in range(len(grid) - 1):
        if om[i] == 0.0:
            zeros.append(float(grid[i]))
        elif om[i] * om[i + 1] < 0.0:
            root = brentq(_omega_real, grid[i], grid[i + 1],
                          args=(params, model, N), xtol=EIG_XTOL)
            zeros.append(float(root))
    if om[-1] == 0.0:
        zeros.append(float(grid[-1]))

    if len(zeros) < len(ref):
        # a grid cell may hold an even number of zeros; refine around the
        # missed predictions before giving up
        for r in ref:
            if all(abs(r - z) > 1e-7 for z in zeros):
                half = min((hi - lo) / (4 * EIG_GRID_POINTS), 1e-3)
                a, b = max(lo, r - half), min(hi, r + half)
                fa = _omega_real(a, params, model, N)
                fb = _omega_real(b, params, model, N)
                if fa * fb < 0.0:
                    zeros.append(float(brentq(_omega_real, a, b,
                                              args=(params, model, N),
                                              xtol=EIG_XTOL)))
                else:
                    raise RefineGrid(
                        f"cannot separate a sign change near lambda = {r:g}; "
                        "refine the scan grid"
                    )
        zeros.sort()

    deviations = [float(min(abs(z - r) for r in ref)) if len(ref) else np.inf
                  for z in zeros]
    return {
        "interval": [float(lo), float(hi)],
        "omega_zeros": zeros,
        "matrix_eigenvalues": [float(x) for x in ref],
        "deviations": deviations,
        "matrix_N": int(N_mat),
        "agree": bool(len(zeros) == len(ref)
                      and all(d <= EIG_CROSS_TOL for d in deviations)),
    }
