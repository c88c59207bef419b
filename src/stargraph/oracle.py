"""Finite-difference reference solver for the extended line problems.

Each edge of the star yields one parabolic problem on a symmetric interval
(-n, n) with homogeneous Dirichlet ends: d_t u = q u'' + b u' + c u with the
parity-extended coefficients.  A theta-weighted step (trapezoidal by
default) advances the centered second-order discretization.  All lines of a
solve share one tridiagonal step matrix A = I - theta dt T, so they advance
together: each step is one LAPACK gtsv solve with one right-hand side per
line (the m reflected edges of a star solve, or the unit hats of a kernel
table).  The explicit half needs no stencil product, because
B = I + (1 - theta) dt T = (I - (1 - theta) A) / theta.  Folding the line
solutions back to the star tests the vertex conditions instead of imposing
them: continuity holds because odd data stays odd, the flux balance holds at
the stencil order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.linalg import solve_banded  # noqa: F401  the hook bench/tracing.py counts
from scipy.linalg.lapack import dgtsv

from .errors import DomainError, NumericalInputError, ShapeError, StabilityError
from .extension import (
    CoefficientTriple,
    LineFunction,
    extend_coefficients,
    reflect_extend,
    symmetric_line_grid,
)
from .geometry import GridSpec, StarFunction, StarGraph, is_integer, vertex_continuous, vertex_slopes
from .kernels import TabulatedLineKernel

__all__ = [
    "OracleConfig",
    "LineEvolution",
    "StarEvolution",
    "TruncationRow",
    "solve_line_dirichlet",
    "solve_star",
    "truncation_study",
    "tabulate_kernel",
]


@dataclass(frozen=True)
class OracleConfig:
    """Discretization of the truncated line problems.

    ``n`` is the half-width of the interval, ``h`` the mesh width (n/h must
    be an integer), ``dt`` the step size and ``theta`` the implicit weight
    (1/2 = trapezoidal, 1 = backward Euler).
    """

    n: float = 8.0
    h: float = 1.0 / 64.0
    dt: float = 1e-3
    theta: float = 0.5
    t_final: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.n) and self.n > 0):
            raise DomainError(f"n must be positive, got {self.n}")
        if not (math.isfinite(self.h) and self.h > 0):
            raise DomainError(f"h must be positive, got {self.h}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise DomainError(f"dt must be positive, got {self.dt}")
        if not (0.5 <= self.theta <= 1.0):
            raise DomainError(f"theta must lie in [1/2, 1], got {self.theta}")
        if not (math.isfinite(self.t_final) and self.t_final > 0):
            raise DomainError(f"t_final must be positive, got {self.t_final}")
        if abs(self.n / self.h - round(self.n / self.h)) > 1e-9:
            raise DomainError(f"n/h must be an integer, got {self.n / self.h}")
        if self.half_intervals < 1:
            raise DomainError(f"n must be at least one mesh width h, got n={self.n}, h={self.h}")
        if abs(self.steps * self.dt - self.t_final) > _time_tol(self.t_final):
            raise DomainError(
                f"t_final must be a whole number of steps dt to within "
                f"{_time_tol(self.t_final):.0e}, got t_final/dt = {self.t_final / self.dt!r}"
            )

    @property
    def half_intervals(self) -> int:
        return int(round(self.n / self.h))

    @property
    def steps(self) -> int:
        return int(round(self.t_final / self.dt))

    def grid(self) -> np.ndarray:
        """Symmetric nodes (j - M) h; exact negation symmetry in floats."""

        return symmetric_line_grid(self.half_intervals + 1, self.h)


@dataclass
class LineEvolution:
    """All time levels of one line solve."""

    x: np.ndarray
    times: np.ndarray
    values: np.ndarray  # (steps + 1, len(x))

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, k: int) -> LineFunction:
        return LineFunction(self.x, self.values[k])

    def at_time(self, t: float) -> LineFunction:
        k = _time_level(self.times, t)
        return LineFunction(self.x, self.values[k])


def _time_tol(t: float) -> float:
    """How far from t a multiple of dt may lie and still be the level at t."""

    return 1e-9 * max(1.0, abs(t))


def _time_level(times: np.ndarray, t: float) -> int:
    hits = np.nonzero(np.abs(times - t) <= _time_tol(t))[0]
    if hits.size == 0:
        raise DomainError(f"time {t} is not a stored level")
    return int(hits[0])


def _initial_values(f0, x: np.ndarray) -> np.ndarray:
    if isinstance(f0, LineFunction):
        if f0.x.shape == x.shape and np.all(np.abs(f0.x - x) <= 1e-12 * max(1.0, float(x[-1]))):
            return np.array(f0.values, dtype=float)
        if f0.profile is not None:
            return np.asarray(f0.profile(x), dtype=float)
        raise ShapeError("initial line data lives on a different grid and has no profile")
    if callable(f0):
        return np.asarray(f0(x), dtype=float)
    raise ShapeError("initial data must be a LineFunction or a callable")


def solve_line_dirichlet(
    coeffs: CoefficientTriple,
    f0,
    cfg: OracleConfig,
) -> LineEvolution:
    """Theta-method solve of d_t u = q u'' + b u' + c u on (-n, n), u(±n) = 0.

    The initial level keeps the boundary samples of the data; from the first
    step on the ends are pinned to zero.  The sup norm is monitored against
    the growth bound 1.05 exp(c_sup t) ||f0||.
    """

    x = cfg.grid()
    u0 = _initial_values(f0, x)
    if u0.shape != x.shape:
        raise NumericalInputError("initial data must give one value per solver node")
    steps = cfg.steps
    values = _march(coeffs, u0[None, :], cfg, range(steps + 1), slice(None))[:, 0]
    return LineEvolution(x=x, times=np.arange(steps + 1) * cfg.dt, values=values)


def _march(
    coeffs: CoefficientTriple,
    u0: np.ndarray,
    cfg: OracleConfig,
    levels: Sequence[int],
    nodes: slice | np.ndarray,
) -> np.ndarray:
    """Advance the k lines ``u0`` (shape (k, len(x))) together.

    Every step is one gtsv solve of A w = u / theta, with the k lines as its
    right-hand side columns, and the update u <- w - ((1 - theta) / theta) u,
    which is A^-1 B u for B = (I - (1 - theta) A) / theta.  Lines are stored
    as rows so each line's samples stay contiguous.  ``levels`` are
    increasing step indices; the march stops at the last of them and keeps
    only those levels at only the grid ``nodes`` (an index or slice), shape
    (len(levels), k, len(x[nodes])).  Each line's sup norm is held to
    1.05 exp(c_sup t) max |u0[j]|; the first step at which any line exceeds
    its bound, or whose step matrix is singular, raises.
    """

    x = cfg.grid()
    h, dt, theta = cfg.h, cfg.dt, cfg.theta
    if not np.all(np.isfinite(u0)):
        raise NumericalInputError("initial data must be finite on the solver grid")

    qv = np.asarray(coeffs.q(x), dtype=float)
    bv = np.asarray(coeffs.b(x), dtype=float)
    cv = np.asarray(coeffs.c(x), dtype=float)
    if np.any(qv <= 0):
        raise DomainError("diffusion coefficient must be positive on the grid")
    peclet = float(np.max(np.abs(bv) * h / (2.0 * qv)))
    if peclet > 1.0:
        raise DomainError(
            f"cell Peclet number {peclet:.3f} > 1; refine h to keep the "
            "centered discretization monotone"
        )

    # interior stencil coefficients of q u'' + b u' + c u
    qi, bi, ci = qv[1:-1], bv[1:-1], cv[1:-1]
    lower = qi / h**2 - bi / (2.0 * h)
    diag = -2.0 * qi / h**2 + ci
    upper = qi / h**2 + bi / (2.0 * h)

    # diagonals of the implicit half A = I - theta dt T
    a_lower = -theta * dt * lower[1:]
    a_diag = 1.0 - theta * dt * diag
    a_upper = -theta * dt * upper[:-1]
    if a_diag.size == 1:  # f2py wants one (unused) off-diagonal entry, not zero
        a_lower = a_upper = np.zeros(1)
    keep = (1.0 - theta) / theta

    bound_base = 1.05 * np.abs(u0).max(axis=1)
    c0 = coeffs.c_sup_bound

    out = np.empty((len(levels), u0.shape[0], x[nodes].size))
    stored = 0
    u = np.array(u0, dtype=float)
    inner = u[:, 1:-1]
    # the right-hand side of the next step, contiguous so that its transpose
    # is the Fortran-ordered (nodes, lines) block gtsv solves in place; the
    # boundary samples enter the explicit half of the first step only
    w = inner / theta
    w[:, 0] += (1.0 - theta) * dt * lower[0] * u[:, 0]
    w[:, -1] += (1.0 - theta) * dt * upper[-1] * u[:, -1]
    if levels[0] == 0:
        out[0] = u[:, nodes]
        stored = 1
    u[:, [0, -1]] = 0.0
    for k in range(1, levels[-1] + 1):
        info = dgtsv(a_lower, a_diag, a_upper, w.T, overwrite_b=1)[-1]
        if info:
            raise StabilityError(f"step matrix is singular at step {k} (gtsv info {info})")
        inner *= -keep
        inner += w
        sup = np.abs(inner).max(axis=1)
        if not np.isfinite(sup).all():
            raise StabilityError(f"solution became non-finite at step {k}")
        bound = bound_base * math.exp(c0 * k * dt)
        over = sup > bound
        if over.any():
            j = int(np.argmax(over))
            raise StabilityError(
                f"sup norm {sup[j]:.6g} of line {j} exceeds the growth bound "
                f"{bound[j]:.6g} at t = {k * dt:.6g}"
            )
        if k == levels[stored]:
            out[stored] = u[:, nodes]
            stored += 1
        np.divide(inner, theta, out=w)
    return out


@dataclass
class StarEvolution:
    """Folded star snapshots of the per-edge line solves."""

    graph: StarGraph
    grid: GridSpec
    times: np.ndarray
    values: np.ndarray  # (steps + 1, m, points_per_edge)
    continuity_defects: np.ndarray
    kirchhoff_defects: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    def snapshot(self, k: int) -> StarFunction:
        vals = self.values[k]
        return StarFunction(
            self.graph,
            self.grid,
            vals,
            continuous_at_vertex=vertex_continuous(vals[:, 0], 1e-9),
        )

    def at_time(self, t: float) -> StarFunction:
        return self.snapshot(_time_level(self.times, t))


def _edge_initial(f: StarFunction, edge: int, x: np.ndarray) -> np.ndarray:
    if f.has_profiles():
        return reflect_extend(f, edge, x=x).values
    # sample-backed data must already live on the oracle mesh
    half = x[x >= -1e-15]
    n_half = half.size
    if f.grid.points_per_edge < n_half or abs(f.grid.h - float(x[1] - x[0])) > 1e-12:
        raise ShapeError(
            "sample-backed initial data must share the oracle mesh width and "
            "reach the truncation radius; provide callable profiles otherwise"
        )
    line = reflect_extend(f, edge)
    center = line.x.size // 2
    lo = center - (n_half - 1)
    return np.array(line.values[lo : center + n_half], dtype=float)


def solve_star(
    coeffs: CoefficientTriple,
    f: StarFunction,
    cfg: OracleConfig,
) -> StarEvolution:
    """Reference evolution on the star: extend, solve the lines, fold back.

    The m reflected edge data are the lines of one march, so all edges
    advance together in one gtsv solve per step.
    """

    x = cfg.grid()
    u0 = np.stack([_edge_initial(f, i, x) for i in range(1, f.graph.m + 1)])
    steps = cfg.steps
    mid = x.size // 2
    values = _march(extend_coefficients(coeffs), u0, cfg, range(steps + 1), slice(mid, None))
    vertex = values[:, :, 0]
    continuity = vertex.max(axis=1) - vertex.min(axis=1)
    kirchhoff = np.abs(vertex_slopes(values, cfg.h).sum(axis=1))

    grid = GridSpec(cutoff=float(cfg.n), points_per_edge=x.size - mid)
    return StarEvolution(
        graph=f.graph,
        grid=grid,
        times=np.arange(steps + 1) * cfg.dt,
        values=values,
        continuity_defects=continuity,
        kirchhoff_defects=kirchhoff,
    )


@dataclass(frozen=True)
class TruncationRow:
    n: float
    t: float
    sup_defect: float


def truncation_study(
    coeffs: CoefficientTriple,
    f: StarFunction,
    cfg: OracleConfig,
    n_list: Sequence[float],
) -> list[TruncationRow]:
    """Sup distance at t_final between successive truncation radii on the window [0, n_min].

    Rows are keyed by the larger radius of each consecutive pair; identical
    radii give zero rows.  Confinement shows up as defects collapsing with n.
    """

    n_list = [float(n) for n in n_list]
    if len(n_list) < 2:
        raise DomainError("need at least two truncation radii")
    if any(n2 < n1 for n1, n2 in zip(n_list, n_list[1:])):
        raise DomainError("truncation radii must be non-decreasing")

    window = int(round(min(n_list) / cfg.h)) + 1
    finals = []
    for n in n_list:
        run = solve_star(coeffs, f, replace(cfg, n=n))
        finals.append(run.values[_time_level(run.times, cfg.t_final), :, :window])
    return [
        TruncationRow(n=n, t=cfg.t_final, sup_defect=float(np.abs(cur - prev).max()))
        for prev, cur, n in zip(finals, finals[1:], n_list[1:])
    ]


def tabulate_kernel(
    coeffs: CoefficientTriple,
    cfg: OracleConfig,
    times: Sequence[float],
    stride: int = 1,
) -> TabulatedLineKernel:
    """Tabulate the line kernel by propagating unit-mass hats from each node.

    Column y of the table is the solution at the requested times for initial
    data concentrated at y (height 1/h); Dirichlet ends give zero columns at
    the truncation radius.  The hats of all interior tabulation nodes are the
    lines of one march, so they advance together in one gtsv solve per
    step, and only the requested levels are kept.  ``stride`` thins the
    tabulation grid; it must divide n/h so the thinned grid stays symmetric.
    """

    if not is_integer(stride) or stride < 1 or cfg.half_intervals % stride != 0:
        raise DomainError(f"stride must be a positive integer dividing n/h, got {stride!r}")
    times = [float(t) for t in times]
    if not times:
        raise DomainError("need at least one tabulation time")

    x = cfg.grid()
    sub = np.arange(0, x.size, stride)
    levels = [int(round(t / cfg.dt)) for t in times]
    for t, k in zip(times, levels):
        if abs(k * cfg.dt - t) > _time_tol(t) or k < 1 or k > cfg.steps:
            raise DomainError(f"time {t} is not a positive stored level")
    if any(k2 <= k1 for k1, k2 in zip(levels, levels[1:])):
        raise DomainError("tabulation times must be strictly increasing")

    # the end nodes are absorbed at the boundary: their columns stay zero
    inner = sub[1:-1]
    u0 = np.zeros((inner.size, x.size))
    u0[np.arange(inner.size), inner] = 1.0 / cfg.h
    lines = _march(coeffs, u0, cfg, levels, sub)

    values = np.zeros((len(times), sub.size, sub.size))
    values[:, :, 1:-1] = lines.transpose(0, 2, 1)
    return TabulatedLineKernel(times, x[sub], values)
