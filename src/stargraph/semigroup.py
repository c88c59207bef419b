"""Quadrature application of diffusion semigroups on the star.

Each edge of the star sees the line kernel against the reflected extension
of the data: the edge itself on y >= 0, and ``extension.reflect`` of the
edges (2/m times the edge sum minus the edge) at -y.  Integrals use a
composite Simpson rule on the sample grid, weighted before the extension,
so the vertex node carries its weight once on each side.  Both closed-form
kernels are Gaussian bands around y = λx (see ``kernels.kernel_band``), so
output rows are contracted in blocks, each against only the extended
samples within the band half-width b of its rows.  The grid reaches
λ·(output cutoff) + b, past which every kernel value is below e^{-40} of its
row's peak.  Callable-backed inputs are re-sampled on that grid at half
their grid step, sample-backed inputs continue by zero.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError, NumericalInputError, ShapeError
from .extension import reflect
from .geometry import GridSpec, StarFunction, simpson_weights
from .kernels import MIN_TIME, KernelSpec, kernel_band, line_kernel

__all__ = ["apply", "evolve_sequence"]

# Output rows per block: BLOCK_ROWS, or fewer where the band is so wide that
# a block's kernel array would exceed BLOCK_VALUES values.  32 rows were
# faster than both 16 and 64 on 65- to 1537-point grids, where smaller blocks
# lose more to per-block calls than their narrower windows save.  Larger
# arrays make each of the kernel's temporaries fresh pages: at 2049 points
# and t = 0.5 one call took 80k page faults and 250 ms at 32 rows, and 300
# faults and 80 ms at this budget, the fastest of 16k to 64k values on 1025-
# to 2049-point grids.
BLOCK_ROWS = 32
BLOCK_VALUES = 24576

OVERSAMPLE = 2  # callable-backed inputs are sampled this many times finer than their grid


def _quadrature_grid(f: StarFunction, reach: float):
    """Radial quadrature nodes j·hq up to ``reach`` (even interval count), with the data."""

    refine = OVERSAMPLE if f.has_profiles() else 1
    hq = f.grid.h / refine
    intervals = math.ceil(reach / hq)
    intervals += intervals % 2
    if not f.has_profiles():
        # zeros past the last sample contribute nothing; keep one zero node
        # so the last sample carries an interior Simpson weight
        last = f.grid.points_per_edge - 1
        intervals = min(intervals, last + 1 + (last + 1) % 2)
    y = np.arange(intervals + 1) * hq
    if f.has_profiles():
        vals = f.evaluate_profiles(y)
        if not np.all(np.isfinite(vals)):
            raise NumericalInputError("profiles must stay finite on the quadrature grid")
    else:
        vals = np.zeros((f.graph.m, y.size))
        n = min(y.size, f.grid.points_per_edge)
        vals[:, :n] = f.values[:, :n]
    return y, hq, vals


def apply(
    spec: KernelSpec,
    m: int,
    t: float,
    f: StarFunction,
    grid: GridSpec | None = None,
) -> StarFunction:
    """Evolve ``f`` for time ``t`` and sample the result on ``grid``.

    Conservative for the drift kernel, positivity preserving, and a
    sup-norm contraction up to quadrature tolerance.  Every edge is the line
    kernel against its reflected extension, and each block of output rows
    is contracted against the extended samples within the kernel band
    |λx - y| <= b of its rows (``kernels.kernel_band``); kernel values
    outside it are below e^{-40} of their row's peak.  Callable-backed
    inputs are sampled twice as finely as their grid, up to
    λ·(output cutoff) + b.  The output is vertex-continuous: at radius zero
    the line kernel is even in y, and every edge's extension has the same
    even part.
    """

    if m != f.graph.m:
        raise ShapeError(f"edge count {m} does not match the function ({f.graph.m})")
    f.require_continuous("semigroup input must be vertex-continuous")
    if grid is None:
        grid = f.grid

    lam, b = kernel_band(spec, t)
    y, hq, vals = _quadrature_grid(f, lam * grid.cutoff + b)
    fw = vals * simpson_weights(y.size, hq)
    y = np.concatenate([-y[::-1], y])
    fw = np.concatenate([reflect(fw)[:, ::-1], fw], axis=1)

    x = grid.nodes()
    rows = min(BLOCK_ROWS, max(1, BLOCK_VALUES // int(min(y.size, 2.0 * b / hq + 1.0))))
    out = np.empty((m, x.size))
    for i0 in range(0, x.size, rows):
        xb = x[i0:i0 + rows, None]
        j0 = int(np.searchsorted(y, lam * xb[0, 0] - b))
        j1 = int(np.searchsorted(y, lam * xb[-1, 0] + b, side="right"))
        out[:, i0:i0 + rows] = fw[:, j0:j1] @ line_kernel(spec, t, xb, y[j0:j1]).T

    return StarFunction(
        f.graph,
        grid,
        out,
        continuous_at_vertex=True,
        trusted_cutoff=f.trusted_cutoff,
    )


def evolve_sequence(
    spec: KernelSpec,
    m: int,
    times: Sequence[float],
    f: StarFunction,
    grid: GridSpec | None = None,
) -> list[StarFunction]:
    """Apply the semigroup at each listed time, always from the initial data."""

    times = [float(t) for t in times]
    if any(not math.isfinite(t) or t < MIN_TIME for t in times):
        raise DomainError(f"times must be finite and >= {MIN_TIME}")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise DomainError("times must be strictly increasing")
    return [apply(spec, m, t, f, grid) for t in times]
