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
from .kernels import MIN_TIME, KernelSpec, kernel_band, kernel_writer

__all__ = ["apply", "evolve_sequence"]

# Output rows per block: BLOCK_ROWS, or fewer where the band is so wide that
# a block's kernel array would exceed BLOCK_VALUES values.  Every block's
# kernel is written into the same two buffers of one call, so no block
# faults in fresh pages; the budget keeps a block's kernel (192 kB) in cache
# for its product: without it, HO at 2049 points and t = 2 took 144 ms
# instead of 107.  With the buffers, 16 or 64 rows and 12k to 98k values were
# not clearly faster on 129- to 2049-point grids, and any other block shape
# moves the band windows and with them the last bits of the output.
BLOCK_ROWS = 32
BLOCK_VALUES = 24576

OVERSAMPLE = 2  # callable-backed inputs are sampled this many times finer than their grid

# A callable-backed quadrature grid with more nodes per edge than this (8 TiB
# of samples per edge) is refused before anything is allocated.
MAX_QUADRATURE_NODES = 2**40


def _quadrature_grid(f: StarFunction, reach: float):
    """Radial quadrature nodes j·hq up to ``reach`` (even interval count), with the data."""

    refine = OVERSAMPLE if f.has_profiles() else 1
    hq = f.grid.h / refine
    if f.has_profiles():
        if not reach <= MAX_QUADRATURE_NODES * hq:  # also when hq underflows to 0
            raise DomainError(
                f"the quadrature step {hq:.3g} is too fine to reach radius {reach:.3g} "
                f"within {MAX_QUADRATURE_NODES:.3g} nodes per edge"
            )
        nodes = reach / hq
    else:
        # zeros past the last sample contribute nothing; keep one zero node
        # so the last sample carries an interior Simpson weight
        nodes = min(reach / hq, f.grid.points_per_edge)
    intervals = math.ceil(nodes)
    intervals += intervals % 2
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
    grid: GridSpec,
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

    lam, b = kernel_band(spec, t)  # refuses a bad time
    t = float(t)
    y, hq, vals = _quadrature_grid(f, lam * grid.cutoff + b)
    fw = vals * simpson_weights(y.size, hq)
    y = np.concatenate([-y[::-1], y])
    fw = np.concatenate([reflect(fw)[:, ::-1], fw], axis=1)

    x = grid.nodes()
    rows = min(BLOCK_ROWS, max(1, BLOCK_VALUES // int(min(y.size, 2.0 * b / hq + 1.0))))
    starts = np.arange(0, x.size, rows)
    ends = np.minimum(starts + rows, x.size)
    lo = np.searchsorted(y, lam * x[starts] - b)
    hi = np.searchsorted(y, lam * x[ends - 1] + b, side="right")
    # every block's kernel is written into a prefix of the same two buffers
    # (the second takes HO's (x + y)^2 term), sized for the largest block: no
    # block allocates, so no block faults in pages the one before gave back
    size = int(((ends - starts) * (hi - lo)).max())
    buf, spare = np.empty(size), np.empty(size)
    kernel = kernel_writer(spec)
    out = np.empty((m, x.size))
    for i0, i1, j0, j1 in zip(starts.tolist(), ends.tolist(), lo.tolist(), hi.tolist()):
        shape = (i1 - i0, j1 - j0)
        cells = shape[0] * shape[1]
        k = kernel(t, x[i0:i1, None], y[j0:j1],
                   buf[:cells].reshape(shape), spare[:cells].reshape(shape))
        out[:, i0:i1] = fw[:, j0:j1] @ k.T

    return StarFunction(f.graph, grid, out, continuous_at_vertex=True)


def evolve_sequence(
    spec: KernelSpec,
    m: int,
    times: Sequence[float],
    f: StarFunction,
    grid: GridSpec,
) -> list[StarFunction]:
    """Apply the semigroup at each listed time, always from the initial data."""

    times = [float(t) for t in times]
    if any(not math.isfinite(t) or t < MIN_TIME for t in times):
        raise DomainError(f"times must be finite and >= {MIN_TIME}")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise DomainError("times must be strictly increasing")
    return [apply(spec, m, t, f, grid) for t in times]
