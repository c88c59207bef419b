"""Quadrature application of diffusion semigroups on the star.

Each edge of the star sees the line kernel against the reflected extension
of the data: the edge itself on y >= 0, and ``extension.reflect`` of the
edges (2/m times the edge sum minus the edge) at -y.  Integrals use a
composite Simpson rule on the sample grid, weighted before the extension,
which lives on the lattice j·hq, j = -N..N, both vertex weights in one
column.  Both kernels are a factor of the output point times one Gaussian in
λx - y (``kernels.gaussian_form``: λ, μ = 1 - λ, the factor, q = 1/(2σ^2)),
and output rows, on the lattice i·h, are contracted in blocks against the
columns within the band half-width b = sqrt(40 / q) of their rows.  There a
block's Gaussian is exactly a factor per row times one per column times a
matrix M that every block shares (``_blocks``), so a call takes M's exps
once and a block one exp per column.  The grid reaches λ·(output cutoff) + b,
past which every kernel value is below e^{-40} of its row's peak.
Callable-backed inputs are re-sampled on that grid at half their grid step,
sample-backed inputs continue by zero.  Edges couple only through the edge
sum, so edges with bitwise equal weighted samples evolve alike: each
distinct edge is extended and contracted once (``_distinct_edges``), and
every edge takes its distinct edge's row.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ShapeError, check_data, check_edges, check_increasing, check_nodes
from .errors import StabilityError, check_resolved, check_time
from .extension import reflect
from .geometry import GridSpec, StarFunction, simpson_weights
from .kernels import KernelSpec, gaussian_form

__all__ = ["apply", "evolve_sequence"]

# Output rows per block: BLOCK_ROWS, or fewer where the output step spreads
# their band centres over more than 2·BLOCK_ROWS lattice columns.  Each
# product takes a slice of M of at most BLOCK_VALUES values (192 kB) and a
# chunk of windows, blocks times contracted (distinct) edges, of at most half
# as many; edges are taken in groups where one block's windows over all of
# them would exceed that.
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
        vals = f.evaluate_profiles(y)  # apply checks that they are finite
    else:
        vals = np.zeros((f.graph.m, y.size))
        n = min(y.size, f.grid.points_per_edge)
        vals[:, :n] = f.values[:, :n]
    return y, vals


def _blocks(lam: float, mu: float, q: float, b: float, h: float, hq: float, n: int, N: int):
    """Block k of ``n`` output rows holds rows i = k·rows + a', a' < rows, at
    offsets a = a' - (rows - 1)/2 from its centre x_c, and lattice columns
    j = c_k + β, β in ``beta``, c_k the column nearest λx_c/hq in 0..N.  With
    δ_k = (x_c - c_k·hq) - μx_c, exp(-q((x_i - y_j) - μx_i)^2) is
    u[k, a']·v[k, b']·M[a', b'] for β = beta[b']: u = exp(-qδ(δ + 2λha)),
    v = exp(2qδ·hq·β) (``_column_factors``) and M = exp(-q(λha - hq·β)^2)
    (``_shared_factors``).  Returns ``(c, δ, beta, u)``."""

    rows = min(BLOCK_ROWS, int(1 + 2 * BLOCK_ROWS * hq / max(lam * h, hq)))
    count = -(-n // rows)
    rows = -(-n // count)  # as even as the blocks go
    xc = np.arange(0.5 * (rows - 1), count * rows, rows) * h
    c = np.minimum(np.rint(lam * xc / hq), N).astype(np.intp)
    delta = (xc - c * hq) - mu * xc
    # every row's band, but no column past the lattice for all blocks
    half = math.ceil(min(b / hq + 0.5 * lam * h * (rows - 1) / hq + 0.5, 2 * N + 1))
    beta = np.arange(max(-half, -N - c[-1]), min(half, N - c[0]) + 1)
    a = np.arange(0.5 - 0.5 * rows, 0.5 * rows)
    u = np.exp(-q * delta[:, None] * (delta[:, None] + (2.0 * lam * h) * a))
    return c, delta, beta, u


def _shared_factors(lam: float, q: float, h: float, hq: float, rows: int, beta):
    """M = exp(-q(λha - hq·β)^2), the same for every block of ``rows`` rows."""

    M = np.subtract.outer(np.arange(0.5 - 0.5 * rows, 0.5 * rows) * (lam * h), hq * beta)
    M *= M
    M *= -q
    return np.exp(M, out=M)


def _column_factors(q: float, hq: float, delta, beta):
    """v = exp(2qδ·hq·β), one row per block; |exponent| < 7 for r >= 1.91 unless
    c_k was clipped to N, when the cap keeps v finite over the zeros past N."""

    v = np.multiply.outer(delta, (2.0 * q * hq) * beta)  # a huge δ times β = 0 is 0, not inf·0
    np.minimum(v, BAND_EXPONENT, out=v)
    return np.exp(v, out=v)


def _distinct_edges(fw):
    """The rows of ``fw`` up to bitwise equal ones: ``(distinct, group)``, with
    ``fw[distinct][group]`` equal to ``fw``, or ``(slice(None), None)`` when no
    two rows are equal.  Rows are fingerprinted by their sums, and every row
    is compared exactly with the first row of its sum, in groups of rows of
    at most ``BLOCK_VALUES`` values; a row unlike that one (``[2, 1]`` after
    ``[1, 2]``) stays apart."""

    sums = fw.sum(axis=1).tolist()
    first = dict(zip(reversed(sums), range(len(sums) - 1, -1, -1)))  # each sum's first row
    if len(first) == len(sums):
        return slice(None), None
    rep = np.fromiter(map(first.__getitem__, sums), np.intp, len(sums))
    apart = rep == np.arange(rep.size)
    step = max(1, BLOCK_VALUES // fw.shape[1])
    for i in range(0, rep.size, step):
        rows = slice(i, i + step)
        apart[rows] |= (fw[rows] != fw[rep[rows]]).any(axis=1)
    distinct = np.flatnonzero(apart)
    if distinct.size == rep.size:
        return slice(None), None
    rep[distinct] = distinct
    group = np.empty_like(rep)
    group[distinct] = np.arange(distinct.size)
    return distinct, group[rep]


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
    kernel values outside it are below e^{-40} of their row's peak.  Each
    distinct edge is its own product with the factored blocks (``_blocks``),
    and edges with bitwise equal data share its row, so they get bit-for-bit
    equal rows.  Calls that take one product for all edges skip the search
    for equal edges.  The quadrature samples are evolved in the units of an
    exact power of two that ``errors.check_data`` picks, which also refuses
    non-finite ones, so data from the subnormal range to the float maximum
    answer; an answer past the float maximum is refused (StabilityError).
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
    # the samples are scaled before they are weighted, so that subnormal
    # samples are weighted in normal units
    exponent = check_data(fw)
    if exponent:
        np.ldexp(fw, exponent, out=fw)
    fw *= simpson_weights(y.size, hq)

    x, N = grid.nodes(), y.size - 1
    c, delta, beta, u = _blocks(lam, mu, q, b, grid.h, hq, x.size, N)
    rows, width = u.shape[1], BLOCK_VALUES // u.shape[1]  # width: columns per product
    per = max(1, BLOCK_VALUES // (2 * min(width, beta.size)))  # windows per product
    # where one product takes all edges' windows, fewer edges save next to nothing
    one = beta.size <= width and m * c.size <= per
    distinct, group = (slice(None), None) if one else _distinct_edges(fw)
    # the extension of the distinct edges from lattice column `first`, zero
    # out to every block's window
    first = min(-N, c[0] + beta[0])
    lines = m if group is None else distinct.size
    ext = np.zeros((lines, max(N, c[-1] + beta[-1]) - first + 1))
    ext[:, -N - first:1 - first] = reflect(fw, distinct)[:, ::-1]
    ext[:, -first:N + 1 - first] += fw[distinct]
    del fw  # before M and the windows take their memory
    edges = min(lines, per)  # all edges at once unless they alone exceed it
    chunk = per // edges  # blocks per product
    out = np.empty((lines, u.size))
    for j in range(0, beta.size, width):
        cols = beta[j:j + width]
        M = _shared_factors(lam, q, grid.h, hq, rows, cols)
        windows = np.ndarray((lines, ext.shape[1] - cols.size + 1, cols.size), ext.dtype, ext,
                             strides=ext.strides[:1] + ext.strides[1:] * 2)  # a view
        for k in range(0, c.size, chunk):
            v = _column_factors(q, hq, delta[k:k + chunk], cols)
            for e in range(0, lines, edges):
                d = windows[e:e + edges, c[k:k + chunk] + (cols[0] - first)]
                d *= v
                # a product per edge (matmul's stack axis): equal edges, equal rows
                part = out[e:e + edges, k * rows:(k + chunk) * rows].reshape(d.shape[0], -1, rows)
                if j:
                    part += np.matmul(d, M.T)
                else:
                    np.matmul(d, M.T, out=part)
    out = out[:, :x.size]
    out *= row(x) * u.ravel()[:x.size]
    if exponent:
        with np.errstate(over="ignore"):  # an answer past the float maximum is refused below
            np.ldexp(out, -exponent, out=out)
        if not np.isfinite(out).all():
            raise StabilityError("the answer passes the float maximum")
    if group is not None:
        out = out[group]  # each edge takes its distinct edge's row

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
