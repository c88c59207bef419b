"""Unitary map between the weighted and flat function pictures.

Multiplying by sqrt(c_m) exp(-x^2/2), with c_m the vertex density of the
invariant measure, carries square-integrability for the invariant measure
onto plain square-integrability, the drift semigroup onto the oscillator
semigroup, and constants onto the oscillator ground state.  The inverse
multiplies by exp(+x^2/2), which amplifies absolute sample noise by e^{18}
already at radius six, so round trips are only trusted on a smaller ball.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import check_edges
from .geometry import GridSpec, StarFunction, StarGraph, sup_distance
from .kernels import HARMONIC, OU
from .semigroup import apply
from .spectral import PolyGauss

__all__ = [
    "TRUST_RADIUS",
    "flat_factor",
    "to_flat",
    "from_flat",
    "ground_state",
    "similarity_defect",
]

# exp(+x^2/2) turns 1e-15 sample noise into ~4e-9 beyond this radius
TRUST_RADIUS = 5.5


def flat_factor(m: int) -> float:
    """sqrt(c_m) with c_m = 2 / (m sqrt(pi))."""

    check_edges(m)
    return math.sqrt(2.0 / (m * math.sqrt(math.pi)))


def _wrap_profile(fn, scale: float, gauss_delta: float):
    if isinstance(fn, PolyGauss):
        return fn.scaled(scale).shift_gauss(gauss_delta)

    def wrapped(x, fn=fn, scale=scale, gauss_delta=gauss_delta):
        x = np.asarray(x, dtype=float)
        return fn(x) * (scale * np.exp(-0.5 * gauss_delta * x * x))

    return wrapped


def _scaled(f: StarFunction, scale: float, gauss_delta: float) -> StarFunction:
    x = f.grid.nodes()
    factor = scale * np.exp(-0.5 * gauss_delta * x * x)
    values = f.values * factor[None, :]
    profiles = None
    if f.has_profiles():
        profiles = tuple(_wrap_profile(fn, scale, gauss_delta) for fn in f.profiles)
    return StarFunction(f.graph, f.grid, values, profiles=profiles)


def to_flat(f: StarFunction) -> StarFunction:
    """Multiply by sqrt(c_m) exp(-x^2/2); preserves vertex continuity."""

    return _scaled(f, flat_factor(f.graph.m), 1.0)


def from_flat(f: StarFunction) -> StarFunction:
    """Divide by sqrt(c_m) exp(-x^2/2); trusted only inside TRUST_RADIUS."""

    return _scaled(f, 1.0 / flat_factor(f.graph.m), -1.0)


def ground_state(m: int, grid: GridSpec) -> StarFunction:
    """exp(-x^2/2) on every edge: the oscillator semigroup fixes it."""

    prof = PolyGauss((1.0,), gauss=1.0)
    return StarFunction.from_callables(
        StarGraph(m), grid, (prof,) * m, continuous_at_vertex=True
    )


def similarity_defect(
    m: int,
    t: float,
    f: StarFunction,
    grid: GridSpec,
) -> float:
    """Sup distance between the two routes from f to the oscillator picture.

    Route one applies the oscillator semigroup directly; route two conjugates
    the drift semigroup by the flat map.  Both quadratures use the same
    nodes, each as far as its own kernel band reaches, so the defect isolates
    the kernel identity itself and sits near rounding level inside the
    trusted ball of radius TRUST_RADIUS.
    """

    left = apply(HARMONIC, m, t, f, grid)
    right = to_flat(apply(OU, m, t, from_flat(f), grid))
    return sup_distance(left, right, radius_max=TRUST_RADIUS)
