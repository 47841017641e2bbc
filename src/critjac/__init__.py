"""Spectral analysis of Jacobi matrices with power-growing coefficients
in the critical regime (diagonal and off-diagonal growth competing).

The package computes Jost solutions of the three-term recurrence by a
WKB-type Ansatz corrected through a discrete Volterra equation, and from
them orthonormal-polynomial asymptotics, the a.c. spectral density,
resolvent matrix elements, and discrete eigenvalues, each validated
against independent oracles (direct recurrence evaluation, truncated
matrix diagonalization, quadrature orthonormality).
"""

import importlib

from . import ansatz, coeffs, eikonal, recurrence, solutions, spectral, volterra
from .ansatz import (
    SpectralPoint,
    asymptotic_phase,
    at_minus,
    at_plus,
    interior,
    sqrt_cut,
)
from .coeffs import (
    AsymptoticDescriptor,
    CoefficientModel,
    CriticalParams,
    RealInterval,
    classify,
    laguerre_model,
    load_model,
    model_from_dict,
    power_model,
    reflect,
    table_model,
)
from .eikonal import eikonal_coefficients
from .logcomplex import LogComplex
from .recurrence import (
    poly_asymptotic_ac,
    poly_asymptotic_regular,
    poly_eval,
    truncated_matrix_eigs,
)
from .solutions import (
    SolutionWindow,
    growing,
    jost,
    limit_wronskian,
    omega,
    varkappa,
    wronskian,
    wronskian_detail,
)
from .spectral import (
    DensitySample,
    amplitude_phase,
    classify_spectrum,
    density,
    density_sweep,
    discrete_eigenvalues,
    eigenvalue_report,
    projector_density,
    resolvent_element,
)
from .volterra import VolterraSolution, solve

__version__ = "0.1.0"


def __getattr__(name):
    # The CLI is imported on first use: importing it with the package
    # makes `python -m critjac.cli` warn that the module was already
    # imported before it ran as __main__.
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
