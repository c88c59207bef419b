"""Quadrature application of diffusion semigroups on the star.

The action on a star function is a per-edge integral of the star kernel:
the direct line kernel against the same edge plus the reflected kernel
against the 2/m-weighted edge sum.  Integrals use a composite rule on the
sample grid, extended past the cutoff so that no kernel mass is lost for
output radii near the cutoff; callable-backed inputs are re-sampled on the
extension (and optionally oversampled), sample-backed inputs continue by
zero.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DomainError,
    NumericalInputError,
    ShapeError,
    StencilError,
    VertexContinuityError,
)
from .geometry import GridSpec, StarFunction, simpson_weights, vertex_slopes
from .kernels import MIN_TIME, KernelSpec, line_kernel

__all__ = ["apply", "vertex_defect", "evolve_sequence", "VertexDefect"]


class VertexDefect(NamedTuple):
    continuity: float
    kirchhoff: float


def _quadrature_grid(f: StarFunction, pad: float, oversample: int):
    """Radial quadrature nodes, matching samples and the zero/profile extension."""

    if pad < 0 or not math.isfinite(pad):
        raise DomainError(f"pad must be finite and >= 0, got {pad}")
    if oversample < 1:
        raise DomainError(f"oversample must be >= 1, got {oversample}")
    refine = oversample if f.has_profiles() else 1
    hq = f.grid.h / refine
    n_base = (f.grid.points_per_edge - 1) * refine + 1
    n_pad = int(math.ceil(pad / hq)) if pad > 0 else 0
    if (n_base - 1 + n_pad) % 2 == 1:
        n_pad += 1
    y = np.arange(n_base + n_pad) * hq
    if f.has_profiles():
        vals = f.evaluate_profiles(y)
        if not np.all(np.isfinite(vals)):
            raise NumericalInputError("profiles must stay finite on the padded grid")
    else:
        vals = np.zeros((f.graph.m, y.size))
        vals[:, : f.grid.points_per_edge] = f.values
    return y, hq, vals


def apply(
    spec: KernelSpec,
    m: int,
    t: float,
    f: StarFunction,
    grid: GridSpec | None = None,
    *,
    pad: float = 6.5,
    oversample: int = 2,
) -> StarFunction:
    """Evolve ``f`` for time ``t`` and sample the result on ``grid``.

    Conservative for the drift kernel, positivity preserving, and a
    sup-norm contraction up to quadrature tolerance.  The output is
    vertex-continuous by construction: at radius zero the direct and
    reflected kernels coincide, so every edge receives the same value.
    """

    if m != f.graph.m:
        raise ShapeError(f"edge count {m} does not match the function ({f.graph.m})")
    if not f.continuous_at_vertex:
        raise VertexContinuityError("semigroup input must be vertex-continuous")
    if grid is None:
        grid = f.grid

    y, hq, vals = _quadrature_grid(f, pad, oversample)
    w = simpson_weights(y.size, hq)
    fw = vals * w
    total_w = fw.sum(axis=0)

    x = grid.nodes()
    k_direct = line_kernel(spec, t, x[:, None], y[None, :])
    k_refl = line_kernel(spec, t, x[:, None], -y[None, :])

    same = (k_direct - k_refl) @ fw.T            # (n_x, m)
    shared = (2.0 / m) * (k_refl @ total_w)      # (n_x,)
    out = (same + shared[:, None]).T

    return StarFunction(
        f.graph,
        grid,
        out,
        continuous_at_vertex=True,
        vertex_tol=math.inf,
        trusted_cutoff=f.trusted_cutoff,
    )


def vertex_defect(u: StarFunction) -> VertexDefect:
    """Continuity spread and absolute edge-derivative sum at the vertex.

    Derivatives use the one-sided second-order stencil on the first three
    samples, or exact derivatives when the profiles expose them.
    """

    values = u.values
    continuity = float(values[:, 0].max() - values[:, 0].min())

    if u.has_profiles() and all(hasattr(p, "derivative") for p in u.profiles):
        zero = np.zeros(1)
        flux = sum(float(np.asarray(p.derivative()(zero))[0]) for p in u.profiles)
        return VertexDefect(continuity, abs(flux))

    if u.grid.points_per_edge < 3:
        raise StencilError("vertex stencil needs >= 3 points per edge")
    return VertexDefect(continuity, float(abs(vertex_slopes(values, u.grid.h).sum())))


def evolve_sequence(
    spec: KernelSpec,
    m: int,
    times: Sequence[float],
    f: StarFunction,
    grid: GridSpec | None = None,
    **kwargs,
) -> list[StarFunction]:
    """Apply the semigroup at each listed time, always from the initial data."""

    times = [float(t) for t in times]
    if any(not math.isfinite(t) or t < MIN_TIME for t in times):
        raise DomainError(f"times must be finite and >= {MIN_TIME}")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise DomainError("times must be strictly increasing")
    return [apply(spec, m, t, f, grid, **kwargs) for t in times]
