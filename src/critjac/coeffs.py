"""Jacobi coefficient models and critical-regime classification.

A model supplies the off-diagonal entries a_n > 0 and diagonal entries
b_n of a semi-infinite Jacobi matrix together with declared asymptotics

    a_n = n^sigma (1 + alpha/n + O(n^-2)),
    b_n = 2 gamma n^sigma (1 + beta/n + O(n^-2)),   |gamma| = 1.

Classification derives every regime parameter the asymptotic machinery
needs: tau = 2 beta - 2 alpha + sigma, the amplitude power rho, the
phase scale nu, the remainder decay exponent delta, the eikonal depth L
with its exact rational coefficients, the phase-growth exponent
varsigma, and the absolutely continuous set.

This module owns the regime table.  Every regime-dependent formula
elsewhere reads the leading coefficient c(w) of t_n(w) = -tau/n +
w n^-sigma (CriticalParams.leading_coefficient): the a.c. set is where
c(gamma lambda) > 0, its endpoints are the zeros of c, theta_n ~
sqrt(c) n^-nu, and w(lambda) = sqrt(c(gamma lambda)).  No other module
compares sigma or the sign of tau with a constant, except the
closed-form oracle ansatz.asymptotic_phase.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .eikonal import eikonal_coefficients
from .errors import (
    InvalidParameter,
    LimitCircleRegime,
    NotCritical,
    UnsupportedRegime,
    UnsupportedTauZero,
)

SIGMA_MAX = Fraction(3, 2)


@dataclass(frozen=True)
class AsymptoticDescriptor:
    """Declared power asymptotics (sigma, alpha, beta, gamma)."""

    sigma: float
    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class RealInterval:
    """Open interval (lo, hi); lo/hi may be +-inf."""

    lo: float
    hi: float

    def contains(self, x: float) -> bool:
        return self.lo < x < self.hi

    def closure_contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def __str__(self):
        fmt = lambda v: "-inf" if v == -np.inf else ("inf" if v == np.inf else f"{v:g}")
        return f"({fmt(self.lo)},{fmt(self.hi)})"


@dataclass(frozen=True)
class CoefficientModel:
    """Evaluable Jacobi coefficients plus their declared asymptotics.

    Immutable after construction; `a`/`b` accept ints or integer arrays.
    """

    a_fn: Callable[[np.ndarray], np.ndarray]
    b_fn: Callable[[np.ndarray], np.ndarray]
    declared: AsymptoticDescriptor
    kind: str
    params: tuple = ()

    def a(self, n):
        out = self.a_fn(np.asarray(n, dtype=float))
        return float(out) if np.isscalar(n) or np.ndim(n) == 0 else out

    def b(self, n):
        out = self.b_fn(np.asarray(n, dtype=float))
        return float(out) if np.isscalar(n) or np.ndim(n) == 0 else out

    def a_range(self, lo: int, hi: int) -> np.ndarray:
        """a_n for n in [lo, hi) as an array."""
        return self.a_fn(np.arange(lo, hi, dtype=float))

    def b_range(self, lo: int, hi: int) -> np.ndarray:
        return self.b_fn(np.arange(lo, hi, dtype=float))


@dataclass(frozen=True)
class CriticalParams:
    """Derived regime data for an accepted critical model.

    p holds the exact rational eikonal coefficients p_2..p_L (empty for
    L = 1).  varsigma is the exponent in d(phase)/d(lambda) ~ n^varsigma;
    at sigma = 3/2 the growth is logarithmic and varsigma is stored as 0
    so that 2*rho + varsigma = 1 stays exact.
    """

    gamma: float
    sigma: float
    tau: float
    rho: float
    nu: float
    delta: float
    L: int
    p: tuple[Fraction, ...]
    varsigma: float
    notes: tuple[str, ...] = field(default=())

    @property
    def single_power(self) -> bool:
        """sigma = 1: both terms of t_n fall like 1/n, so t_n = c(w)/n
        exactly, theta_n = sqrt(c(w)) n^-1/2, and t_n never changes sign
        in n."""
        return self.sigma == 1

    def leading_coefficient(self, w: complex) -> complex:
        """c(w) with t_n(w) ~ c(w) n^(-2 nu), so theta_n ~ sqrt(c(w)) n^-nu,
        at the phase argument w = gamma z.

        The regime table: c = -tau for sigma in (1, 3/2] (the tau/n term
        leads), w - tau at sigma = 1 (the two terms tie), w for sigma < 1.
        """
        if self.sigma > 1:
            return -self.tau
        return w - self.tau if self.single_power else w

    @property
    def ac_set(self) -> RealInterval | None:
        """{lambda : c(gamma lambda) > 0}.  For sigma > 1, c = -tau does not
        depend on lambda: the whole line or nothing.  Otherwise c(w) rises
        with w from its zero w0 = -c(0), and the set is the half line on
        which gamma lambda > w0."""
        c0 = self.leading_coefficient(0.0)
        if self.sigma > 1:
            return RealInterval(-np.inf, np.inf) if c0 > 0 else None
        edge = 0.0 - self.gamma * c0      # gamma w0, never -0
        if self.gamma > 0:
            return RealInterval(edge, np.inf)
        return RealInterval(-np.inf, edge)

    def thresholds(self) -> tuple[float, ...]:
        """Finite endpoints of the a.c. set (none for sigma in (1, 3/2])."""
        ac = self.ac_set
        if ac is None:
            return ()
        return tuple(v for v in (ac.lo, ac.hi) if np.isfinite(v))


# -- exact derived quantities -------------------------------------------


def exact_critical_fractions(desc: AsymptoticDescriptor) -> dict[str, Fraction]:
    """tau, rho, nu, varsigma, delta and L in exact rational arithmetic.

    Every float is a rational number, so Fraction(value) is lossless and
    identities such as 2*rho + varsigma = 1 hold exactly.
    """
    sigma = Fraction(desc.sigma)
    alpha = Fraction(desc.alpha)
    beta = Fraction(desc.beta)
    tau = 2 * beta - 2 * alpha + sigma
    if sigma >= 1:
        rho = sigma / 2 - Fraction(1, 4)
    else:
        rho = sigma / 4
    nu = sigma - 2 * rho
    if sigma == SIGMA_MAX:
        varsigma = Fraction(0)
    elif sigma >= 1:
        varsigma = Fraction(3, 2) - sigma
    else:
        varsigma = 1 - sigma / 2
    L = 1
    while (L + Fraction(1, 2)) * sigma <= 1:
        L += 1
    if sigma > 1:
        delta = sigma + Fraction(1, 2)
    elif sigma == 1:
        delta = Fraction(2)
    elif sigma > Fraction(2, 3):
        delta = min(2 * sigma, 2 - sigma / 2)
    else:
        delta = min((L + 1) * sigma, 2 - sigma / 2)
    return {
        "tau": tau,
        "rho": rho,
        "nu": nu,
        "varsigma": varsigma,
        "delta": delta,
        "L": L,
    }


def classify(model: CoefficientModel) -> CriticalParams:
    """Derive all regime parameters from the declared asymptotics.

    The descriptor is authoritative; no numeric fitting of sigma from
    samples is attempted.
    """
    desc = model.declared
    if abs(desc.gamma) != 1.0:
        raise NotCritical(
            f"|gamma| = {abs(desc.gamma)!r} != 1: not in the critical regime"
        )
    if desc.sigma > 1.5:
        raise LimitCircleRegime(
            "sigma > 3/2: limit circle regime; all self-adjoint extensions "
            "have discrete spectra and this library does not compute them"
        )
    if desc.sigma <= 0:
        raise UnsupportedRegime("sigma must be positive")
    ex = exact_critical_fractions(desc)
    tau = float(ex["tau"])
    if desc.sigma > 1 and tau == 0.0:
        raise UnsupportedTauZero("sigma in (1, 3/2] requires tau != 0")
    L = ex["L"]
    notes: tuple[str, ...] = ()
    if desc.sigma == 1.5 and tau < 0:
        notes = (
            "sigma = 3/2 with tau < 0: the decaying solution is unique only "
            "under the strengthened normalization u_n = 1 + O(n^{-1/2}), "
            "which the Volterra construction satisfies",
        )
    return CriticalParams(
        gamma=desc.gamma,
        sigma=desc.sigma,
        tau=tau,
        rho=float(ex["rho"]),
        nu=float(ex["nu"]),
        delta=float(ex["delta"]),
        L=L,
        p=eikonal_coefficients(L),
        varsigma=float(ex["varsigma"]),
        notes=notes,
    )


# -- built-in models -------------------------------------------------------


def laguerre_model(p: float) -> CoefficientModel:
    """a_n = sqrt((n+1)(n+1+p)), b_n = 2n+p+1; the classical sigma = 1,
    tau = 0 family with weight x^p e^{-x} / Gamma(p+1)."""
    if p <= -1:
        raise InvalidParameter("laguerre parameter must satisfy p > -1")
    p = float(p)

    def a_fn(n):
        return np.sqrt((n + 1.0) * (n + 1.0 + p))

    def b_fn(n):
        return 2.0 * n + p + 1.0

    desc = AsymptoticDescriptor(sigma=1.0, alpha=1.0 + p / 2.0, beta=(1.0 + p) / 2.0,
                                gamma=1.0)
    return CoefficientModel(a_fn, b_fn, desc, kind="laguerre", params=(p,))


def power_model(sigma: float, alpha: float, beta: float, gamma: float) -> CoefficientModel:
    """Exact first-order power coefficients with zero O(n^-2) remainder.

    a_0 = 1 and b_0 = 0 avoid the n = 0 singularity; leading entries
    never affect the asymptotics.  The exact form isolates the Ansatz
    truncation error in remainder-decay measurements.
    """
    if sigma > 1.5:
        raise LimitCircleRegime(
            "sigma > 3/2: limit circle regime (discrete spectra); unsupported"
        )
    if sigma <= 0:
        raise UnsupportedRegime("sigma must lie in (0, 3/2]")
    sigma, alpha, beta, gamma = map(float, (sigma, alpha, beta, gamma))

    def a_fn(n):
        n = np.asarray(n, dtype=float)
        out = np.where(n >= 1, n ** sigma * (1.0 + alpha / np.where(n >= 1, n, 1.0)), 1.0)
        return out

    def b_fn(n):
        n = np.asarray(n, dtype=float)
        return np.where(n >= 1,
                        2.0 * gamma * n ** sigma * (1.0 + beta / np.where(n >= 1, n, 1.0)),
                        0.0)

    desc = AsymptoticDescriptor(sigma=sigma, alpha=alpha, beta=beta, gamma=gamma)
    return CoefficientModel(a_fn, b_fn, desc, kind="power",
                            params=(sigma, alpha, beta, gamma))


def table_model(a: "np.ndarray | list", b: "np.ndarray | list",
                sigma: float, alpha: float, beta: float, gamma: float) -> CoefficientModel:
    """Model backed by explicit coefficient arrays plus a descriptor.

    Requests beyond the table end raise InvalidParameter; how closely the
    table must follow the descriptor is the caller's responsibility (see
    descriptor_deviation for a check).
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if a_arr.ndim != 1 or b_arr.ndim != 1 or len(a_arr) != len(b_arr):
        raise InvalidParameter("table model needs 1-d a[] and b[] of equal length")
    if not (np.isfinite(a_arr).all() and np.isfinite(b_arr).all()):
        raise InvalidParameter("table entries must be finite")
    if np.any(a_arr <= 0):
        raise InvalidParameter("off-diagonal entries must be positive")
    size = len(a_arr)

    def take(arr, n):
        idx = np.asarray(n)
        if np.any(idx < 0) or np.any(idx >= size):
            raise InvalidParameter(
                f"table model holds n < {size}; requested n up to {int(np.max(idx))}"
            )
        return arr[idx.astype(int)]

    desc = AsymptoticDescriptor(float(sigma), float(alpha), float(beta), float(gamma))
    return CoefficientModel(lambda n: take(a_arr, n), lambda n: take(b_arr, n),
                            desc, kind="table", params=(size,))


def reflect(model: CoefficientModel) -> CoefficientModel:
    """The reflected model (a, -b): solutions map as F_n -> (-1)^n F_n(-z).

    gamma flips sign, beta is unchanged (its sign is absorbed by gamma),
    and tau is invariant.
    """
    d = model.declared
    desc = AsymptoticDescriptor(d.sigma, d.alpha, d.beta, -d.gamma)
    b_fn = model.b_fn
    return CoefficientModel(model.a_fn, lambda n: -b_fn(n), desc,
                            kind=f"reflect({model.kind})", params=model.params)


def descriptor_deviation(model: CoefficientModel, ns: np.ndarray) -> np.ndarray:
    """|a_n n^-sigma - 1 - alpha/n| * n^2 sampled on ns.

    Stable values across decades certify the declared O(n^-2) remainder.
    """
    ns = np.asarray(ns, dtype=float)
    d = model.declared
    return np.abs(model.a_fn(ns) * ns ** (-d.sigma) - 1.0 - d.alpha / ns) * ns ** 2


# -- model specification files ----------------------------------------------


def model_from_dict(spec: dict) -> CoefficientModel:
    """Build a model from {"kind": "laguerre"|"power"|"table", ...}."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidParameter("model spec must be an object with a 'kind' field")
    kind = spec["kind"]
    try:
        if kind == "laguerre":
            return laguerre_model(spec["p"])
        if kind == "power":
            return power_model(spec["sigma"], spec["alpha"], spec["beta"], spec["gamma"])
        if kind == "table":
            return table_model(spec["a"], spec["b"], spec["sigma"], spec["alpha"],
                               spec["beta"], spec["gamma"])
    except KeyError as exc:
        raise InvalidParameter(f"model spec missing field {exc}") from exc
    raise InvalidParameter(f"unknown model kind {kind!r}")


def load_model(path: str) -> CoefficientModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
