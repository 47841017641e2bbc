"""Independent oracles: direct recurrence evaluation and matrix eigenvalues.

poly_eval runs the three-term recurrence forward, so orthonormal
polynomial values are available far off the spectrum where they grow
like exp(c n^power).  In the critical case |gamma| = 1 the one-step
transfer matrix of (P_{n-1}, P_n) tends to a Jordan block with double
eigenvalue -gamma, so products of it map the two unit states onto almost
parallel columns; poly_eval therefore steps the difference coordinates
(P_n, d_n = P_n - mu P_{n-1}), mu = -sign(gamma), in which the same
limit is well conditioned.  Each step is linear in the state, so the N
steps run in stretches of _STRETCH steps, each blockwise in numpy from
unit states with a short scalar pass that chains the block transfers
and hands the state to the next stretch.
truncated_matrix_eigs diagonalizes the N x N leading principal
submatrix.  Both are pure oracles: they never touch the Ansatz/Volterra
machinery they are used to check.
"""

from __future__ import annotations

import math

import numpy as np

from .ansatz import SpectralPoint, at_plus, phase_context, phi_window
from .coeffs import CoefficientModel, CriticalParams
from .errors import InvalidParameter, NumericFailure, OnSpectrum, OutsideAC
from .solutions import (
    SolutionWindow,
    alternating_sign,
    kappa_phase,
    limit_wronskian,
)

# Growth (nats) a block's states may gain before they are rescaled: far
# inside the double range, and rescales stay rare.
_SPAN = 300.0
# Steps per stretch: the window is run one stretch at a time, each
# blockwise, so the workspace is O(_STRETCH) for any N.
_STRETCH = 2 ** 17


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

    The N steps run in stretches of _STRETCH steps (_run_stretch), each
    from the state (P, d) and its log2 scale that the stretch below
    handed up, and each stretch writes its rows straight into the
    window's arrays, so the workspace is O(_STRETCH) for any N.  Real z
    is evaluated in real arithmetic, so values stay exactly real and the
    window's unit is float64.  Raises NumericFailure if a value is not
    finite.
    """
    if N < 0:
        raise InvalidParameter("poly_eval needs N >= 0")
    real = complex(z).imag == 0.0
    zv = complex(z).real if real else complex(z)
    mu = -1.0 if model.declared.gamma > 0 else 1.0
    # step s lands on entry s + 2 (the window starts at n = -1); the last
    # stretch's last block may run past step N, into the spare entries
    spare = _block_size(min(N, _STRETCH))
    lm = np.empty(N + 2 + spare)
    unit = np.empty(N + 2 + spare, dtype=float if real else complex)
    lm[:2] = -np.inf, 0.0                       # P_{-1}, P_0
    unit[:2] = 1.0
    state = (1.0, 1.0, 0)                       # P_0, d_0 and their log2 scale
    for s0 in range(0, N, _STRETCH):
        state = _run_stretch(model, zv, mu, s0, min(s0 + _STRETCH, N), state,
                             lm[s0 + 2:], unit[s0 + 2:])
    zp = SpectralPoint(complex(z), "plus" if real else "interior")
    return SolutionWindow("polynomial", lm[:N + 2], unit[:N + 2], zp, model,
                          meta={"N": N})


def _block_size(K: int) -> int:
    """Steps per block of a stretch of K steps: b ~ sqrt(K/2) balances
    the b vectorised steps against the K/b scalar chain steps."""
    return max(1, round(math.sqrt(K / 2.0)))


def _run_stretch(model: CoefficientModel, zv, mu: float, s0: int, s1: int,
                 state: tuple, lm: np.ndarray, unit: np.ndarray) -> tuple:
    """Steps s in [s0, s1) from state = (P_{s0}, d_{s0}, e), the values
    being those over 2^e; P_{s+1} goes to lm[s - s0] and unit[s - s0]
    (log-magnitude and unit phase), entries past step s1 - 1 up to the
    end of the stretch's last block are scratch.  Returns the state after
    step s1 - 1 in the same form, for the stretch above.

    The steps are cut into blocks of b ~ sqrt(steps/2) steps.  All blocks
    run at once from the unit states (1, 0) and (0, 1), b vectorised
    steps over arrays of length steps/b; their states are rescaled by their
    maximum whenever the growth bound sum log1p(|kappa| + |rho|) since
    the last rescale passes _SPAN nats, with a log scale kept for each
    row and block.  A scalar pass then chains the block transfers from
    the state with its own log scale, and P is recombined in array
    operations.  Every rescale is by a power of two, so the scales are
    exact integer exponents and log|P_n| takes one rounding from them,
    however often the states were rescaled.  The last block is padded
    with zero steps; its transfer is read where its real steps end.
    """
    steps = s1 - s0
    b = _block_size(steps)
    nb = -(-steps // b)
    rest = steps - (nb - 1) * b                 # steps of the last block
    a_ext = model.a_range(max(s0 - 1, 0), s1)
    if s0 == 0:
        a_ext = np.concatenate([[1.0], a_ext])
    a, a_prev = a_ext[1:], a_ext[:-1]           # a_s and a_{s-1}, a_{-1} = 1
    # kappa_s a_s = ((z - b_s) - mu a_s) - mu a_{s-1}: near the Jordan
    # limit both outer differences are of doubles within a factor 2 of
    # each other, hence exact, so z - b_s is the only rounding, as in
    # the three-term form
    K = _by_block((((zv - model.b_range(s0, s1)) - mu * a) - mu * a_prev) / a, b, nb)
    R = _by_block(mu * a_prev / a, b, nb)
    del a_ext, a, a_prev
    # each row's growth bound max log1p(|kappa| + |rho|), 64 rows at a time
    grow = np.concatenate([
        np.log1p(np.abs(K[t:t + 64]) + np.abs(R[t:t + 64])).max(axis=1, initial=0.0)
        for t in range(0, b, 64)]).tolist()

    # Pcol[t, j, i] = P after step t of block i, started from unit state j
    Pcol = np.empty((b, 2, nb), dtype=K.dtype)
    p = np.zeros((2, nb), dtype=K.dtype)
    d = np.zeros((2, nb), dtype=K.dtype)
    p[0] = 1.0
    d[1] = 1.0
    tmp = np.empty((2, nb), dtype=K.dtype)
    scales = [np.zeros(nb, dtype=int)]          # log2 scale of each rescale epoch
    starts = [0]                                # first row of each epoch
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
            starts.append(t)
            grown = 0.0
        grown += grow[t]
        np.multiply(K[t], p, out=tmp)
        np.multiply(R[t], d, out=d)
        d += tmp
        p = step(d, p, out=Pcol[t])
        if t + 1 == rest:                       # the last block's real steps end
            last = p[:, -1].tolist(), d[:, -1].tolist(), int(scales[-1][-1])
    del K, R, tmp

    # chain the block transfers [[p0, p1], [d0, d1]] from the state
    pe0, pe1, de0, de1 = p[0].tolist(), p[1].tolist(), d[0].tolist(), d[1].tolist()
    s_end = scales[-1].tolist()
    (pe0[-1], pe1[-1]), (de0[-1], de1[-1]), s_end[-1] = last
    p_in, d_in, e_in = [0.0] * nb, [0.0] * nb, [0] * nb
    pc, dc, ec = state
    for i in range(nb):
        p_in[i], d_in[i], e_in[i] = pc, dc, ec
        pc, dc = pe0[i] * pc + pe1[i] * dc, de0[i] * pc + de1[i] * dc
        e = math.frexp(max(abs(pc), abs(dc)))[1]
        down = math.ldexp(1.0, -e)
        pc, dc, ec = pc * down, dc * down, ec + s_end[i] + e

    P0, P1 = Pcol[:, 0, :], Pcol[:, 1, :]
    P0 *= np.asarray(p_in)
    P1 *= np.asarray(d_in)
    P0 += P1                                    # P_{s0+i*b+t+1} up to its scale
    if not np.all(np.isfinite(P0)):
        raise NumericFailure(f"non-finite polynomial value for n <= {s1}")
    # step s0 + i*b + t lands on entry i*b + t; the rows are written in
    # place: |P| first, then the unit, then the log
    lm_rows = lm[:nb * b].reshape(nb, b).T
    unit_rows = unit[:nb * b].reshape(nb, b).T
    np.abs(P0, out=lm_rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(P0, lm_rows, out=unit_rows)
    del Pcol, P0, P1
    if not lm_rows.all():
        unit_rows[lm_rows == 0.0] = 1.0         # exact zeros: (-inf, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(lm_rows, out=lm_rows)
    # the rows of one rescale epoch share the log2 scale of each block
    e_in = np.asarray(e_in)
    for k, t0 in enumerate(starts):
        t1 = starts[k + 1] if k + 1 < len(starts) else b
        lm_rows[t0:t1] += (scales[k] + e_in) * math.log(2.0)
    return pc, dc, ec


def _by_block(v: np.ndarray, b: int, nb: int) -> np.ndarray:
    """v_s for step s = i*b + t at row t, column i; zero past the last step."""
    out = np.empty((b, nb), dtype=v.dtype)
    full = len(v) // b                          # columns v fills
    out[:, :full] = v[:full * b].reshape(full, b).T
    if full < nb:
        rest = len(v) - full * b
        out[:rest, full] = v[full * b:]
        out[rest:, full] = 0.0
    return out


def truncated_matrix_eigs(model: CoefficientModel, N: int,
                          window: tuple[float, float] | None = None) -> np.ndarray:
    """Eigenvalues of the N x N leading principal submatrix, sorted.

    Returns the ones inside `window`, or all N.  The submatrix is real
    symmetric tridiagonal with positive off-diagonal, so all eigenvalues
    are real and simple.
    """
    if N < 1:
        raise InvalidParameter("matrix truncation needs N >= 1")
    from scipy.linalg import eigh_tridiagonal   # loads on the first call
    d = model.b_range(0, N)
    e = model.a_range(0, N - 1)
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


def _phases(zp: SpectralPoint, params: CriticalParams,
             ns: np.ndarray) -> np.ndarray:
    """phi_n(gamma z) at the integer indices ns, from the default window
    start and conjugated back to zp as phase_context says."""
    ctx = phase_context(zp, params)
    if not np.issubdtype(ns.dtype, np.integer):
        raise InvalidParameter("asymptotic laws take integer indices n")
    if ns.min(initial=ctx.n_start) < ctx.n_start:
        raise InvalidParameter(f"phase window starts at n = {ctx.n_start}")
    phi = phi_window(ctx, int(ns.max(initial=ctx.n_start)))[ns - ctx.n_start]
    return -phi.conjugate() if ctx.conj else phi


def poly_asymptotic_ac(ns, lam: float, kappa: float, eta: float,
                       params: CriticalParams) -> np.ndarray:
    """Oscillatory asymptotic values on the a.c. set at the indices ns:

        kappa w^-1 (-gamma)^n n^-rho sin(Phi_n - eta),

    with Phi_n the (real) accumulated phase at lambda + i0.  Phi_n is
    summed from the default window start n_start (phase_context), and
    kappa and eta must come from a solve over that same window, as
    spectral.amplitude_phase's are; n < n_start raises InvalidParameter.
    The phases cost one theta_window up to max(ns) per call.
    """
    ac = params.ac_set
    if ac is None or not ac.contains(lam):
        raise OutsideAC(f"lambda = {lam:g} outside the a.c. set")
    ns = np.asarray(ns)
    Phi = _phases(at_plus(lam), params, ns)
    w = limit_wronskian(lam, params)
    sign = alternating_sign(ns, params.gamma)
    return (kappa / w * sign * ns.astype(float) ** (-params.rho)
            * np.sin(Phi.real - eta))


def poly_asymptotic_regular(ns, zp: SpectralPoint, omega_value: complex,
                            params: CriticalParams) -> tuple[np.ndarray, np.ndarray]:
    """Growing asymptotic values at a regular point, at the indices ns:

        -Omega(z) * (i / (2 varkappa)) * (-gamma)^{n+1} n^-rho e^{-i phi_n(gamma z)},

    returned as (log-magnitude, unit phase) arrays; Omega = 0 gives
    log-magnitude -inf and unit 1.  phi_n is summed from the default
    window start n_start (phase_context), and Omega must come from a
    solve over that same window, as solutions.omega does;
    n < n_start raises InvalidParameter.  The prefactor i/(2 varkappa)
    is pinned by W[f, g] = 1 and verified against the recurrence oracle.
    """
    z = complex(zp.z)
    ac = params.ac_set
    if z.imag == 0.0 and ac is not None and ac.closure_contains(z.real):
        raise OnSpectrum("regular-point asymptotics need z off the a.c. set")
    ns = np.asarray(ns)
    ph = _phases(zp, params, ns)
    kap = kappa_phase(zp, params)
    pref = -complex(omega_value) * 1j / (2.0 * kap)
    if pref == 0:
        return np.full(ns.shape, -np.inf), np.ones(ns.shape, dtype=complex)
    sign = alternating_sign(ns + 1, params.gamma)
    unit = sign * np.exp(-1j * ph.real) * pref / abs(pref)
    logmag = math.log(abs(pref)) - params.rho * np.log(ns) + ph.imag
    return logmag, unit / np.abs(unit)
