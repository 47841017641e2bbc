"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: regime rejections exit with 2,
numeric failures with 3, bad configuration with 4.
"""


class CritJacError(Exception):
    """Base class for all library errors."""


# -- model / regime rejections -------------------------------------------

class InvalidParameter(CritJacError):
    """A model parameter is outside its admissible range."""


class UnsupportedRegime(CritJacError):
    """The declared growth exponent is outside the supported range."""


class LimitCircleRegime(UnsupportedRegime):
    """sigma > 3/2: the minimal operator is not essentially self-adjoint
    (deficiency indices (1,1)) and all self-adjoint extensions have
    discrete spectra; this regime is rejected with a diagnostic."""


class NotCritical(CritJacError):
    """|gamma| != 1: the coefficients are not in the critical regime."""


class UnsupportedTauZero(CritJacError):
    """sigma in (1, 3/2] with tau = 0 has no supported construction."""


# -- numeric failures ------------------------------------------------------

class NumericFailure(CritJacError):
    """Base class for runtime numerical failures."""


class BranchPoint(NumericFailure):
    """A square-root argument hit the branch point (z at/near a threshold)."""


class ZeroCrossing(NumericFailure):
    """The Jost solution vanishes inside the accumulation window and the
    start index cannot be raised past the zero."""


class OnSpectrum(CritJacError):
    """Operation requires z outside the closure of the a.c. set."""


class OutsideAC(CritJacError):
    """Operation requires a real point inside the a.c. set."""


class ThresholdPoint(CritJacError):
    """Real point inside the guard band around a spectral threshold."""


class EigenvalueHit(CritJacError):
    """Resolvent requested at a real zero of the Jost function."""


class OverlapsAC(CritJacError):
    """Eigenvalue search interval intersects the a.c. spectrum."""


class WindowMismatch(CritJacError):
    """Two solution windows are not comparable (different z or model)."""


def only(results: list):
    """The result of a group of one (volterra.solve_group and the group
    functions built on it): its value, or its error raised."""
    (result,) = results
    if isinstance(result, CritJacError):
        raise result
    return result
