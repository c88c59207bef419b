"""Diffusion semigroups with Gaussian weight on a star of half-lines.

The package models two Markov semigroups on a star-shaped metric graph: a
drift diffusion that is symmetric for the Gaussian invariant measure, and
its unitary image, an oscillator semigroup on flat space.  Closed-form
kernels, a reflection construction that reduces the star to the line, exact
spectral data, a finite-difference reference solver and a command-line
front end are provided.
"""

from .errors import (
    MIN_TIME,
    DomainError,
    ShapeError,
    StabilityError,
    StarGraphError,
    VertexContinuityError,
)
from .extension import (
    CoefficientTriple,
    extend_coefficients,
    ho_coefficients,
    ou_coefficients,
)
from .geometry import (
    GridSpec,
    StarFunction,
    StarGraph,
    StarPoint,
    integrate_star,
    mu_density,
    simpson_weights,
    sup_distance,
)
from .kernels import HARMONIC, OU, KernelSpec, line_kernel, star_kernel
from .oracle import (
    OracleConfig,
    StarEvolution,
    TabulatedLineKernel,
    TruncationRow,
    solve_line_dirichlet,
    solve_star,
    tabulate_kernel,
    truncation_study,
)
from .semigroup import apply, evolve_sequence
from .spectral import (
    PolyGauss,
    SpectralDatum,
    TracePair,
    apply_generator,
    eigenbasis,
    form_spectrum,
    hermite_coefficients,
    multiplicity,
    trace_closed_form,
    trace_partial,
)
from .transform import (
    TRUST_RADIUS,
    flat_factor,
    from_flat,
    ground_state,
    similarity_defect,
    to_flat,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientTriple",
    "DomainError",
    "GridSpec",
    "HARMONIC",
    "KernelSpec",
    "MIN_TIME",
    "OU",
    "OracleConfig",
    "PolyGauss",
    "ShapeError",
    "SpectralDatum",
    "StabilityError",
    "StarEvolution",
    "StarFunction",
    "StarGraph",
    "StarGraphError",
    "StarPoint",
    "TRUST_RADIUS",
    "TabulatedLineKernel",
    "TracePair",
    "TruncationRow",
    "VertexContinuityError",
    "apply",
    "apply_generator",
    "eigenbasis",
    "evolve_sequence",
    "extend_coefficients",
    "flat_factor",
    "form_spectrum",
    "from_flat",
    "ground_state",
    "hermite_coefficients",
    "ho_coefficients",
    "integrate_star",
    "line_kernel",
    "mu_density",
    "multiplicity",
    "ou_coefficients",
    "similarity_defect",
    "simpson_weights",
    "solve_line_dirichlet",
    "solve_star",
    "star_kernel",
    "sup_distance",
    "tabulate_kernel",
    "to_flat",
    "trace_closed_form",
    "trace_partial",
    "truncation_study",
]
