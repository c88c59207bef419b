"""Quadrature application of diffusion semigroups on the star.

Each edge of the star sees the line kernel against the reflected extension
of the data: the edge itself on y >= 0, and ``extension.reflect`` of the
edges (2/m times the edge sum minus the edge) at -y.  Integrals use a
composite Simpson rule on the sample grid, weighted before the extension,
so the vertex node carries its weight once on each side.  Both kernels are
a factor of the output point times one Gaussian in λx - y, and one
``kernels.gaussian_form`` call gives λ, μ = 1 - λ, the factor and
q = 1/(2σ^2), so output rows are contracted in blocks, each against only the
extended samples within the band half-width b = sqrt(40 / q) of its rows.  A
block holds the Gaussian alone, and its differences (x - y) - μx, for both
kernels, are one exact product of two small factor matrices, built once per
call; each output row is scaled by its factor once, after the last block.
The grid reaches λ·(output cutoff) + b, past which every kernel value is
below e^{-40} of its row's peak.  Callable-backed inputs are re-sampled on that
grid at half their grid step, sample-backed inputs continue by zero.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError, ShapeError, check_edges, check_increasing, check_nodes
from .errors import check_resolved, check_time
from .extension import reflect
from .geometry import GridSpec, StarFunction, simpson_weights
from .kernels import KernelSpec, gaussian_form

__all__ = ["apply", "evolve_sequence"]

# Output rows per block: BLOCK_ROWS, or fewer where the band is so wide that
# a block's Gaussian would exceed BLOCK_VALUES values.  Every block is
# written into the same buffer of one call, and the budget keeps it (192 kB)
# in cache for its product: with 16384 values or fewer, HO at 2049 points and
# t = 2 took 84-129 ms instead of 57-88 (one row per block instead of two),
# and apply_sharp and apply_wide were not clearly faster.  Any other block
# shape moves the band windows and with them the last bits of the output.
BLOCK_ROWS = 32
BLOCK_VALUES = 24576

# beyond the band half-width b = sqrt(BAND_EXPONENT / q) from its centre λx, a
# kernel value is below e^{-BAND_EXPONENT} of its row's peak
BAND_EXPONENT = 40.0

OVERSAMPLE = 2  # callable-backed inputs are sampled this many times finer than their grid

# The relative error apply answers within, for data that satisfy Kirchhoff's
# condition.  Simpson's rule (4 T_h - T_2h) / 3 on a Gaussian of width σ at
# step hq is dominated by the aliasing of the step-2hq trapezoid sum, a
# relative error of (2/3) exp(-π² r² / 2) for r = σ / hq (measured equal
# from r = 0.85 to 1.71); it stays within TOLERANCE for r >= 1.91.
TOLERANCE = 1e-8


def _quadrature_grid(f: StarFunction, reach: float, hq: float):
    """Radial quadrature nodes j·hq up to ``reach`` (even interval count), with the data."""

    if f.has_profiles():
        nodes = reach / hq if hq > 0 else math.inf
        check_nodes("quadrature intervals per edge", nodes)
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
            raise DomainError("profiles must stay finite on the quadrature grid")
    else:
        vals = np.zeros((f.graph.m, y.size))
        n = min(y.size, f.grid.points_per_edge)
        vals[:, :n] = f.values[:, :n]
    return y, vals


def _blocks(x, y, lam: float, b: float, hq: float):
    """Output rows [starts, ends) of each block, with the columns [lo, hi) of its band."""

    rows = min(BLOCK_ROWS, max(1, BLOCK_VALUES // int(min(y.size, 2.0 * b / hq + 1.0))))
    starts = np.arange(0, x.size, rows)
    ends = np.minimum(starts + rows, x.size)
    lo = np.searchsorted(y, lam * x[starts] - b)
    hi = np.searchsorted(y, lam * x[ends - 1] + b, side="right")
    return starts, ends, lo, hi


def _difference_factors(mu: float, x, y):
    """Factors whose product holds the differences in every block's Gaussian.

    The Gaussian is in λx - y, taken as (x - y) - μx as ``line_kernel`` takes
    it: ``[x, 1, -μx] @ [1; -y; 1]``, summed in that order.  Every product
    has a unit factor and is exact, so each difference is rounded as by
    explicit subtraction.  Returns ``left`` (a row per output node) and
    ``right`` (a column per quadrature node).
    """

    left = np.empty((x.size, 3))
    left[:, 0] = x
    left[:, 1] = 1.0
    np.multiply(x, -mu, out=left[:, 2])
    right = np.ones((3, y.size))
    np.negative(y, out=right[1])
    return left, right


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
    |λx - y| <= b = sqrt(40 / q) of its rows, λ and q from ``gaussian_form``;
    kernel values outside it are below e^{-40} of their row's peak.
    Callable-backed inputs are sampled twice as finely as their grid, up to
    λ·(output cutoff) + b.  The output is vertex-continuous: at radius zero
    the line kernel is even in y, and every edge's extension has the same
    even part.  A kernel narrower than 1.91 quadrature steps, where the
    predicted Simpson error exceeds ``TOLERANCE``, is refused with
    DomainError (``errors.check_resolved``).
    """

    check_edges(m)
    if m != f.graph.m:
        raise ShapeError(f"edge count {m} does not match the function ({f.graph.m})")
    f.require_continuous("semigroup input must be vertex-continuous")

    lam, mu, q, row = gaussian_form(spec, t)  # refuses a bad spec or time
    hq = f.grid.h / (OVERSAMPLE if f.has_profiles() else 1)
    r = math.sqrt(0.5 / q) / hq if hq > 0 else math.inf  # hq underflows to 0 at h = 5e-324
    check_resolved(r, (2.0 / 3.0) * math.exp(-0.5 * (math.pi * r) * (math.pi * r)), TOLERANCE)
    b = math.sqrt(BAND_EXPONENT / q)
    y, fw = _quadrature_grid(f, lam * grid.cutoff + b, hq)
    fw *= simpson_weights(y.size, hq)
    y = np.concatenate([-y[::-1], y])
    fw = np.concatenate([reflect(fw)[:, ::-1], fw], axis=1)

    x = grid.nodes()
    starts, ends, lo, hi = _blocks(x, y, lam, b, hq)
    # a block's differences are one product of the factors' slices, and its
    # Gaussian is written over them into a prefix of one buffer, sized for the
    # largest block, so no block allocates; the row factor and the
    # normalisation scale each output row once, after the loop
    left, right = _difference_factors(mu, x, y)
    buf = np.empty(int(((ends - starts) * (hi - lo)).max()))
    out = np.empty((m, x.size))
    for i0, i1, j0, j1 in zip(starts.tolist(), ends.tolist(), lo.tolist(), hi.tolist()):
        k = buf[: (i1 - i0) * (j1 - j0)].reshape(i1 - i0, j1 - j0)
        np.matmul(left[i0:i1], right[:, j0:j1], out=k)
        k *= k
        k *= -q
        np.exp(k, out=k)
        out[:, i0:i1] = fw[:, j0:j1] @ k.T
    out *= row(x)

    return StarFunction(f.graph, grid, out, continuous_at_vertex=True)


def evolve_sequence(
    spec: KernelSpec,
    m: int,
    times: Sequence[float],
    f: StarFunction,
    grid: GridSpec,
) -> list[StarFunction]:
    """Apply the semigroup at each listed time, always from the initial data."""

    times = [check_time(t) for t in times]
    check_increasing(times)
    return [apply(spec, m, t, f, grid) for t in times]
