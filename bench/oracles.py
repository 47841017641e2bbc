"""Oracle checks for the benchmark workloads.

Every checker takes plain numbers and arrays, never critjac objects, and
counts operations: each op either meets its limit or is failed.  A NaN
or infinite error always fails.  The worst error over all ops feeds the
benchmark's accuracy_digits; the failed ops feed its failure fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

DIGITS_CAP = 16.0


@dataclass
class Check:
    """Operation count, failures and worst error of one checked result."""

    ops: int = 0
    failed: int = 0
    worst: float = 0.0
    notes: list[str] = field(default_factory=list)

    def add(self, err: float, limit: float, what: str) -> None:
        err = float(err)
        self.ops += 1
        if not err <= limit:                       # NaN fails too
            self.failed += 1
            if len(self.notes) < 8:
                self.notes.append(f"{what}: error {err:.3g} > {limit:.3g}")
        if not math.isfinite(err):
            err = math.inf
        self.worst = max(self.worst, err)

    def fail_all(self, ops: int, what: str) -> None:
        """Count `ops` operations as failed (the computation raised)."""
        self.ops += ops
        self.failed += ops
        self.worst = math.inf
        self.notes.append(what)

    def key(self) -> tuple[int, int, float]:
        """What a traced repetition must reproduce exactly."""
        return self.ops, self.failed, self.worst


def accuracy_digits(worst: float) -> float:
    """-log10 of the worst error, clipped to [-16, 16]."""
    if worst <= 0.0:
        return DIGITS_CAP
    if not math.isfinite(worst):
        return -DIGITS_CAP
    return min(DIGITS_CAP, max(-DIGITS_CAP, -math.log10(worst)))


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


# -- laguerre_density -----------------------------------------------------

DENSITY_REL_LIMIT = 1e-2
WEIGHT_ORTHO_LIMIT = 1e-10
GRAM_DEGREE = 12
GRAM_NODES = 40


def laguerre_weight_defect(a: np.ndarray, b: np.ndarray) -> float:
    """max |G - I| for the Gram matrix of P_0..P_GRAM_DEGREE under e^-x dx.

    P_n comes from the model's own coefficients by the three-term
    recurrence; Gauss-Laguerre quadrature with GRAM_NODES points is exact
    for these degrees, so a zero defect certifies that e^-x is the
    orthogonality weight of the model.
    """
    x, wq = np.polynomial.laguerre.laggauss(GRAM_NODES)
    P = np.zeros((GRAM_DEGREE + 1, GRAM_NODES))
    P[0] = 1.0
    P[1] = (x - b[0]) / a[0]
    for n in range(1, GRAM_DEGREE):
        P[n + 1] = ((x - b[n]) * P[n] - a[n - 1] * P[n - 1]) / a[n]
    G = (P * wq) @ P.T
    return float(np.max(np.abs(G - np.eye(GRAM_DEGREE + 1))))


def check_laguerre_density(lams, xis, weight_defect: float) -> Check:
    """xi(lambda) against the certified weight e^-lambda, one op per point."""
    chk = Check()
    chk.add(weight_defect, WEIGHT_ORTHO_LIMIT, "e^-x quadrature certificate")
    for lam, xi in zip(lams, xis):
        chk.add(_rel(xi, math.exp(-lam)), DENSITY_REL_LIMIT, f"xi({lam:g})")
    return chk


# -- eig_scan ---------------------------------------------------------------

EIG_DEV_LIMIT = 1e-6
# eigh_tridiagonal places an eigenvalue only to about eps * ||T|| (~1e-11
# at N = 64000), so a tighter settling test fails on some intervals; 1e-10
# is still ten times finer than the Brent tolerance the workload resolves
MATRIX_SETTLE = 1e-10
MATRIX_CAP = 64_000


def matrix_eigenvalues(a_fn, b_fn, lo: float, hi: float, start: int = 1000) -> np.ndarray:
    """Eigenvalues in (lo, hi) of truncated Jacobi matrices, grown until
    every one moves less than MATRIX_SETTLE and the count is stable."""
    N, prev = start, None
    while True:
        ns = np.arange(N, dtype=float)
        eigs = eigh_tridiagonal(b_fn(ns), a_fn(ns[:-1]), select="v",
                                select_range=(lo, hi), eigvals_only=True)
        if prev is not None and len(prev) == len(eigs) and (
                len(eigs) == 0 or np.max(np.abs(prev - eigs)) < MATRIX_SETTLE):
            return eigs
        if N >= MATRIX_CAP:
            raise RuntimeError(f"matrix eigenvalues in ({lo}, {hi}) did not settle")
        prev, N = eigs, 2 * N


def check_eigenvalues(zeros, reference) -> Check:
    """One op per eigenvalue: each reference value needs a zero of Omega
    within EIG_DEV_LIMIT, and each zero needs a reference partner."""
    chk = Check()
    zeros = [float(z) for z in zeros]
    used: set[int] = set()
    for r in reference:
        free = [j for j in range(len(zeros)) if j not in used]
        if not free:
            chk.add(math.inf, EIG_DEV_LIMIT, f"no Omega zero near {r:.10g}")
            continue
        j = min(free, key=lambda i: abs(zeros[i] - r))
        used.add(j)
        chk.add(abs(zeros[j] - r), EIG_DEV_LIMIT, f"eigenvalue {r:.10g}")
    for j, z in enumerate(zeros):
        if j not in used:
            chk.add(math.inf, EIG_DEV_LIMIT, f"Omega zero {z:.10g} has no matrix partner")
    return chk


def _wronskian_terms(lmF, uF, lmG, uG, a) -> np.ndarray:
    """a_n (F_n G_{n+1} - F_{n+1} G_n) for consecutive entries of two
    log-magnitude / unit-phase windows, in the frame of the larger term."""
    lm1 = lmF[:-1] + lmG[1:]
    lm2 = lmF[1:] + lmG[:-1]
    ref = np.maximum(lm1, lm2)
    return a * np.exp(ref) * (np.exp(lm1 - ref) * uF[:-1] * uG[1:]
                              - np.exp(lm2 - ref) * uF[1:] * uG[:-1])


# -- whole_line_sweep -----------------------------------------------------

WRONSKIAN_REL_LIMIT = 1e-2
IDENTITY_REL_LIMIT = 1e-12
KAPPA_REL_LIMIT = 1e-10
GRID_ABS_LIMIT = 1e-12


def boundary_wronskian(lm_p, u_p, lm_m, u_m, a) -> complex:
    """Median over n of a_n (F_n G_{n+1} - F_{n+1} G_n) for two windows
    on [-1, N] given as log-magnitude / unit-phase arrays; a holds
    a_{-1} = 1, a_0, ..., a_{N-1}."""
    W = _wronskian_terms(lm_p, u_p, lm_m, u_m, a)
    return complex(np.median(W.real), np.median(W.imag))


def check_density_csv(text: str, lams, w: float, kappas, wronskian: dict) -> Check:
    """Rows of `critjac density` against the expected grid and oracle.

    Two ops per row: (1) lambda on the grid, xi/kappa finite and
    positive, w equal to the closed form and xi = w / (pi kappa^2);
    (2) kappa equal to `kappas[k]`, |Omega(lambda + i0)| worked out
    separately for the row.  `wronskian` maps a grid index to the error
    of its Wronskian ratio, one op each.
    """
    chk = Check()
    lines = [l for l in text.splitlines() if l]
    if not lines or lines[0] != "lambda,xi,kappa,eta,w":
        chk.fail_all(2 * len(lams) + len(wronskian), "missing CSV header")
        return chk
    rows = lines[1:]
    for k, (lam, kap_ref) in enumerate(zip(lams, kappas)):
        try:
            lam_r, xi, kappa, _eta, w_r = (float(v) for v in rows[k].split(","))
        except (IndexError, ValueError):
            chk.add(math.inf, IDENTITY_REL_LIMIT, f"row {k} missing or ERROR")
            chk.add(math.inf, KAPPA_REL_LIMIT, f"kappa at lambda {lam:g}")
            continue
        ok = (abs(lam_r - lam) <= GRID_ABS_LIMIT and xi > 0.0 and kappa > 0.0
              and math.isfinite(xi) and math.isfinite(kappa)
              and _rel(w_r, w) <= IDENTITY_REL_LIMIT)
        err = _rel(xi, w_r / (math.pi * kappa * kappa)) if ok else math.inf
        chk.add(err, IDENTITY_REL_LIMIT, f"row {k} (lambda {lam:g})")
        chk.add(_rel(kappa, kap_ref), KAPPA_REL_LIMIT, f"kappa at lambda {lam:g}")
    if len(rows) > len(lams):
        chk.add(math.inf, IDENTITY_REL_LIMIT, f"{len(rows) - len(lams)} extra rows")
    for k, w_err in sorted(wronskian.items()):
        chk.add(w_err, WRONSKIAN_REL_LIMIT, f"Wronskian at lambda {lams[k]:g}")
    return chk


# -- long_window ------------------------------------------------------------

IDENTITY_LIMIT = 1e-8
WRONSKIAN_DEV_LIMIT = 1e-8


def wronskian_deviation(lm_f, u_f, lm_g, u_g, a, chunk: int = 1 << 16) -> float:
    """max_n |a_n (f_n g_{n+1} - f_{n+1} g_n) - 1| over the common window,
    evaluated in chunks so the check stays light next to the workload."""
    worst = 0.0
    n = len(lm_f) - 1
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        sl = slice(lo, hi + 1)
        W = _wronskian_terms(lm_f[sl], u_f[sl], lm_g[sl], u_g[sl], a[lo:hi])
        worst = max(worst, float(np.max(np.abs(W - 1.0))))
    return worst


def check_long_window(ns, lm_p, u_p, lm_g, u_g, om: complex,
                      w_dev: float) -> Check:
    """P_n = c f_n - Omega g_n with c f_n negligible deep in the window:
    one op per sampled n for |P_n / (-Omega g_n) - 1|, plus one for the
    Wronskian W[f, g] = 1 across the window."""
    chk = Check()
    log_om = math.log(abs(om))
    u_om = -om / abs(om)
    for n, lp, up, lg, ug in zip(ns, lm_p, u_p, lm_g, u_g):
        ratio = math.exp(lp - lg - log_om) * up / (ug * u_om)
        chk.add(abs(ratio - 1.0), IDENTITY_LIMIT, f"P_n identity at n = {n}")
    chk.add(w_dev, WRONSKIAN_DEV_LIMIT, "W[f, g] deviation")
    return chk
