"""Independent oracles: direct recurrence evaluation and matrix eigenvalues.

poly_eval runs the three-term recurrence forward, so orthonormal
polynomial values are available far off the spectrum where they grow
like exp(c n^power).  In the critical case |gamma| = 1 the one-step
transfer matrix of (P_{n-1}, P_n) tends to a Jordan block with double
eigenvalue -gamma, so products of it map the two unit states onto almost
parallel columns; poly_eval therefore steps the difference coordinates
(P_n, d_n = P_n - mu P_{n-1}), mu = -sign(gamma), in which the same
limit is well conditioned.  Each step is linear in the state, so the N
steps run blockwise in numpy from unit states and a short scalar pass
chains the block transfers.
truncated_matrix_eigs diagonalizes the N x N leading principal
submatrix.  Both are pure oracles: they never touch the Ansatz/Volterra
machinery they are used to check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .ansatz import PhaseAccumulator, SpectralPoint, at_plus, phase_context
from .coeffs import CoefficientModel, CriticalParams
from .errors import InvalidParameter, NumericFailure, OnSpectrum, OutsideAC
from .logcomplex import LogComplex
from .solutions import (
    SolutionWindow,
    alternating_sign,
    kappa_phase,
    limit_wronskian,
)

# Growth (nats) a block's states may gain before they are rescaled: far
# inside the double range, and rescales stay rare.
_SPAN = 300.0


def poly_eval(model: CoefficientModel, z: complex, N: int) -> SolutionWindow:
    """Orthonormal polynomials P_n(z) for n in [-1, N], P_-1 = 0, P_0 = 1.

    P_{n+1} = ((z - b_n) P_n - a_{n-1} P_{n-1}) / a_n is run in the
    coordinates (P_n, d_n = P_n - mu P_{n-1}) with mu = -sign(gamma):

        d_{n+1} = kappa_n P_n + rho_n d_n,   P_{n+1} = mu P_n + d_{n+1},
        kappa_n = (z - b_n - mu (a_{n-1} + a_n)) / a_n,
        rho_n   = mu a_{n-1} / a_n,

    with a_{-1} = 1 and P_0 = d_0 = 1.  This is exact algebra for either
    sign of mu; mu only sets the conditioning.  Near the Jordan limit
    (transfer matrix -> -gamma times a Jordan block) a block product in
    (P_{n-1}, P_n) maps the two unit states onto almost parallel columns
    and loses digits; in (P, d) the columns stay independent.

    The N steps are cut into blocks of b ~ sqrt(N/2) steps.  All blocks
    run at once from the unit states (1, 0) and (0, 1), b vectorised
    steps over arrays of length N/b; their states are rescaled by their
    maximum whenever the growth bound sum log1p(|kappa| + |rho|) since
    the last rescale passes _SPAN nats, with a log scale kept for each
    row and block.  A scalar pass then chains the block transfers from
    (P_0, d_0) with its own log scale, and P is recombined in array
    operations.  Every rescale is by a power of two, so the scales are
    exact integer exponents and log|P_n| takes one rounding from them,
    however often the states were rescaled.  Real z is evaluated in real
    arithmetic, so values stay exactly real.  Raises NumericFailure if a
    value is not finite.
    """
    if N < 0:
        raise InvalidParameter("poly_eval needs N >= 0")
    real = complex(z).imag == 0.0
    zv = complex(z).real if real else complex(z)
    mu = -1.0 if model.declared.gamma > 0 else 1.0
    b = max(1, round(math.sqrt(N / 2.0)))       # steps per block
    nb = -(-N // b)
    a = model.a_range(0, N)
    a_prev = np.concatenate([[1.0], a[:-1]])    # a_{n-1}, a_{-1} = 1
    # kappa_n a_n = ((z - b_n) - mu a_n) - mu a_{n-1}: near the Jordan
    # limit both outer differences are of doubles within a factor 2 of
    # each other, hence exact, so z - b_n is the only rounding, as in
    # the three-term form
    kappa = (((zv - model.b_range(0, N)) - mu * a) - mu * a_prev) / a
    K = _by_block(kappa, b, nb)
    del kappa
    R = _by_block(mu * a_prev / a, b, nb)
    del a, a_prev
    grow = np.log1p(np.abs(K) + np.abs(R)).max(axis=1, initial=0.0).tolist()

    # Pcol[t, j, i] = P after step t of block i, started from unit state j
    Pcol = np.empty((b, 2, nb), dtype=K.dtype)
    p = np.zeros((2, nb), dtype=K.dtype)
    d = np.zeros((2, nb), dtype=K.dtype)
    p[0] = 1.0
    d[1] = 1.0
    tmp = np.empty((2, nb), dtype=K.dtype)
    scales = [np.zeros(nb, dtype=int)]          # log2 scale of each rescale epoch
    epoch = np.zeros(b, dtype=int)              # epoch of each row
    step = np.add if mu > 0 else np.subtract    # P_{n+1} = d_{n+1} + mu P_n
    grown = 0.0
    for t in range(b):
        if grown + grow[t] > _SPAN:
            big = np.maximum(np.abs(p).max(axis=0), np.abs(d).max(axis=0))
            e = np.frexp(big)[1]                # big = m 2^e, m in [1/2, 1)
            down = np.ldexp(1.0, -e)
            p = p * down                        # p is the recorded row t - 1
            d *= down
            scales.append(scales[-1] + e)
            epoch[t:] = len(scales) - 1
            grown = 0.0
        grown += grow[t]
        np.multiply(K[t], p, out=tmp)
        np.multiply(R[t], d, out=d)
        d += tmp
        p = step(d, p, out=Pcol[t])
    del K, R, tmp

    # chain the block transfers [[p0, p1], [d0, d1]] from (P_0, d_0)
    pe0, pe1, de0, de1 = p[0].tolist(), p[1].tolist(), d[0].tolist(), d[1].tolist()
    s_end = scales[-1].tolist()
    p_in, d_in, e_in = [0.0] * nb, [0.0] * nb, [0] * nb
    pc, dc, ec = 1.0, 1.0, 0
    for i in range(nb):
        p_in[i], d_in[i], e_in[i] = pc, dc, ec
        pc, dc = pe0[i] * pc + pe1[i] * dc, de0[i] * pc + de1[i] * dc
        e = math.frexp(max(abs(pc), abs(dc)))[1]
        down = math.ldexp(1.0, -e)
        pc, dc, ec = pc * down, dc * down, ec + s_end[i] + e

    P0, P1 = Pcol[:, 0, :], Pcol[:, 1, :]
    P0 *= np.asarray(p_in)
    P1 *= np.asarray(d_in)
    P0 += P1                                    # P_{i*b+t+1} up to its scale
    if not np.all(np.isfinite(P0)):
        raise NumericFailure(f"non-finite polynomial value for n <= {N}")
    log2scale = np.asarray(e_in)
    if len(scales) > 1:
        log2scale = np.stack(scales)[epoch] + log2scale
    # step s = i*b + t lands on entry s + 2 (the window starts at n = -1)
    lm = np.empty(nb * b + 2)
    unit = np.empty(nb * b + 2, dtype=complex)
    lm[:2] = -np.inf, 0.0                       # P_{-1}, P_0
    unit[:2] = 1.0
    lm_rows, unit_rows = lm[2:].reshape(nb, b).T, unit[2:].reshape(nb, b).T
    mag = np.abs(P0)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(mag, out=lm_rows)
        np.divide(P0, mag, out=unit_rows)
    lm_rows += log2scale * math.log(2.0)
    if not mag.all():
        unit_rows[mag == 0.0] = 1.0             # exact zeros: (-inf, 1)
    zp = SpectralPoint(complex(z), "plus" if real else "interior")
    return SolutionWindow("polynomial", -1, lm[:N + 2], unit[:N + 2], zp, model,
                          meta={"N": N})


def _by_block(v: np.ndarray, b: int, nb: int) -> np.ndarray:
    """v_s for step s = i*b + t at row t, column i; zero past the last step."""
    out = np.zeros((nb, b), dtype=v.dtype)
    out.reshape(-1)[:len(v)] = v
    return np.ascontiguousarray(out.T)


def truncated_matrix_eigs(model: CoefficientModel, N: int,
                          k: int | None = None,
                          window: tuple[float, float] | None = None) -> np.ndarray:
    """Eigenvalues of the N x N leading principal submatrix, sorted.

    Returns the k smallest, the ones inside `window`, or all N.  The
    submatrix is real symmetric tridiagonal with positive off-diagonal,
    so all eigenvalues are real and simple.
    """
    if N < 1:
        raise InvalidParameter("matrix truncation needs N >= 1")
    d = model.b_range(0, N)
    e = model.a_range(0, N - 1)
    if k is not None:
        if not 1 <= k <= N:
            raise InvalidParameter("need 1 <= k <= N")
        if N == 1:
            return d.copy()
        return eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1),
                                eigvals_only=True)
    if window is not None:
        if N == 1:
            lo, hi = window
            return d.copy() if lo < d[0] < hi else np.empty(0)
        return eigh_tridiagonal(d, e, select="v", select_range=window,
                                eigvals_only=True)
    if N == 1:
        return d.copy()
    return eigh_tridiagonal(d, e, eigvals_only=True)


# -- closed-form asymptotics for comparison tests ----------------------------


def poly_asymptotic_ac(n: int, lam: float, kappa: float, eta: float,
                       params: CriticalParams,
                       phases: PhaseAccumulator | None = None) -> float:
    """Oscillatory asymptotic value on the a.c. set:

        kappa w^-1 (-gamma)^n n^-rho sin(Phi_n - eta),

    with Phi_n the (real) accumulated phase at lambda + i0.  kappa and
    eta must come from the same phase window (same n_start) as `phases`;
    by default both use the standard start index, which keeps them
    consistent.
    """
    ac = params.ac_set
    if ac is None or not ac.contains(lam):
        raise OutsideAC(f"lambda = {lam:g} outside the a.c. set")
    if phases is None:
        phases = PhaseAccumulator(at_plus(lam), params)
    w = limit_wronskian(lam, params)
    Phi = phases.phi(n)
    sign = float(alternating_sign(n, params.gamma))
    return kappa / w * sign * float(n) ** (-params.rho) * math.sin(Phi.real - eta)


def poly_asymptotic_regular(n: int, zp: SpectralPoint, omega_value: complex,
                            params: CriticalParams,
                            phases: PhaseAccumulator | None = None) -> LogComplex:
    """Growing asymptotic value at a regular point:

        -Omega(z) * (i / (2 varkappa)) * (-gamma)^{n+1} n^-rho e^{-i phi_n(gamma z)}.

    The prefactor i/(2 varkappa) is pinned by W[f, g] = 1 and verified
    against the recurrence oracle.
    """
    z = complex(zp.z)
    ac = params.ac_set
    if z.imag == 0.0 and ac is not None and ac.closure_contains(z.real):
        raise OnSpectrum("regular-point asymptotics need z off the a.c. set")
    if phases is None:
        phases = PhaseAccumulator(zp, params)
    kap = kappa_phase(phase_context(zp, params), params)
    pref = -complex(omega_value) * 1j / (2.0 * kap)
    if pref == 0:
        return LogComplex.zero()
    ph = phases.phi(n)
    sign = float(alternating_sign(n + 1, params.gamma))
    unit = sign * np.exp(-1j * ph.real) * pref / abs(pref)
    logmag = math.log(abs(pref)) - params.rho * math.log(n) + ph.imag
    return LogComplex(logmag, complex(unit / abs(unit)))
