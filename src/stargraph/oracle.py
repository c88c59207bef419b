"""Finite-difference reference solver for the line and the star.

A line problem d_t u = q u'' + b u' + c u on (-n, n) with homogeneous
Dirichlet ends is advanced by a theta-weighted step (trapezoidal by default)
of the centered second-order discretization.  The star is marched in its
sectors on the half grid r >= 0, with the parity-extended coefficients:
the edge average (the even sector) is one line with Neumann conditions at
the vertex, and the m deviations from it (the odd sectors) are lines with
the vertex pinned at zero.  Edge i is the average plus its deviation, the
same scheme as the line through the edge and its ``reflect``; continuity at
the vertex holds by construction, and the flux balance holds at the stencil
order and is measured.  The lines of a march advance together: each step is
one LAPACK gtsv solve per tridiagonal step matrix A = I - theta dt T, with
the lines as right-hand sides (the unit hats of a kernel table, or the m
odd lines of a star, whose even line takes a second solve).  The explicit
half needs no stencil product, because
B = I + (1 - theta) dt T = (I - (1 - theta) A) / theta.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NumericalInputError, ShapeError, StabilityError
from .extension import CoefficientTriple, extend_coefficients
from .geometry import GridSpec, StarFunction, StarGraph, vertex_flux

__all__ = [
    "OracleConfig",
    "StarEvolution",
    "TruncationRow",
    "solve_line_dirichlet",
    "solve_star",
    "truncation_study",
    "tabulate_kernel",
    "TabulatedLineKernel",
]


def __getattr__(name: str):
    # bench/tracing.py counts calls through ``stargraph.oracle.solve_banded``;
    # it is resolved on first access, so importing the module leaves
    # scipy.linalg unloaded
    if name == "solve_banded":
        from scipy.linalg import solve_banded

        return solve_banded
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

        m = self.half_intervals
        return (np.arange(2 * m + 1) - m) * self.h


def _time_tol(t: float) -> float:
    """How far from t a multiple of dt may lie and still be the level at t."""

    return 1e-9 * max(1.0, abs(t))


def _time_level(times: np.ndarray, t: float) -> int:
    hits = np.nonzero(np.abs(times - t) <= _time_tol(t))[0]
    if hits.size == 0:
        raise DomainError(f"time {t} is not a stored level")
    return int(hits[0])


def solve_line_dirichlet(
    coeffs: CoefficientTriple,
    u0: np.ndarray,
    cfg: OracleConfig,
) -> np.ndarray:
    """Theta-method solve of d_t u = q u'' + b u' + c u on (-n, n), u(±n) = 0.

    ``u0`` holds one sample per node of ``cfg.grid()``.  Row k of the result,
    shape (steps + 1, len(x)), is the level at time k dt.  The initial level
    keeps the boundary samples of the data; from the first step on the ends
    are pinned to zero.  The sup norm is monitored against the growth bound
    1.05 exp(c_sup t) ||u0||.
    """

    x = cfg.grid()
    try:
        u0 = np.asarray(u0, dtype=float)
    except (TypeError, ValueError) as exc:
        raise NumericalInputError(f"initial data must be an array of numbers: {exc}") from exc
    if u0.shape != x.shape:
        raise ShapeError(
            f"initial data must give one value per solver node, shape {x.shape}, got {u0.shape}"
        )
    out = np.zeros((cfg.steps + 1, 1, x.size))
    out[0] = u0
    blocks = [(slice(1, None), *_stencil(coeffs, x, cfg.h))]
    state = np.stack([np.zeros_like(u0), u0])
    _march(blocks, state, coeffs.c_sup_bound, cfg, range(1, len(out)), out[1:, :, 1:-1])
    return out[:, 0]


def _stencil(
    coeffs: CoefficientTriple, x: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower, main and upper stencil entries of q u'' + b u' + c u at x[1:-1].

    Refuses, anywhere on x, a q that is not positive, coefficients or a
    c_sup_bound that are not finite, and a cell Peclet number above 1.
    """

    qv = np.asarray(coeffs.q(x), dtype=float)
    bv = np.asarray(coeffs.b(x), dtype=float)
    cv = np.asarray(coeffs.c(x), dtype=float)
    c0 = coeffs.c_sup_bound
    if not np.all(qv > 0):  # NaN fails too
        raise DomainError("diffusion coefficient must be positive on the grid")
    if not (np.isfinite(qv + bv + cv).all() and math.isfinite(c0)):
        raise DomainError(f"coefficients and c_sup_bound must be finite, got c_sup_bound {c0}")
    peclet = float(np.max(np.abs(bv) * h / (2.0 * qv)))
    if peclet > 1.0:
        raise DomainError(
            f"cell Peclet number {peclet:.3f} > 1; refine h to keep the "
            "centered discretization monotone"
        )
    qi, bi, ci = qv[1:-1], bv[1:-1], cv[1:-1]
    return qi / h**2 - bi / (2.0 * h), -2.0 * qi / h**2 + ci, qi / h**2 + bi / (2.0 * h)


def _march(
    blocks: Sequence[tuple[slice, np.ndarray, np.ndarray, np.ndarray]],
    u: np.ndarray,
    c0: float,
    cfg: OracleConfig,
    levels: Sequence[int],
    out: np.ndarray,
) -> None:
    """Advance the state ``u`` (shape (1 + k, columns)) and write its k lines.

    Line i is u[0] + u[i] on the stored side and u[0] - u[i] mirrored, so
    row 0 is what every line shares; a full line shares nothing, and its
    row 0 stays zero and unmarched.  The first and last columns lie beyond
    the stencil rows, and their samples enter the first step only.  Each
    block (rows, lower, diag, upper) holds the stencil T of its rows; a step
    is one in-place gtsv solve of A w = u / theta per block, A = I - theta dt
    T, then u <- w - ((1 - theta) / theta) u, which is A^-1 B u for
    B = (I - (1 - theta) A) / theta.  ``levels`` are increasing step
    indices >= 1; the lines after step levels[j], at the stencil rows, go to
    out[j].
    Each line's sup, max |u[0]| + |u[i]|, is held to 1.05 exp(c0 t) times its
    initial sup; a step that breaks a bound, turns non-finite or meets a
    singular step matrix raises, and a bound that overflows at the last
    level is refused before the first step.
    """

    dt, theta = cfg.dt, cfg.theta
    growth = c0 * dt * levels[-1]
    if growth > math.log(sys.float_info.max):
        raise DomainError(
            f"c_sup_bound * dt * steps = {growth:.6g} overflows the growth bound exp(c_sup_bound t)"
        )
    if not np.all(np.isfinite(u)):
        raise NumericalInputError("initial data must be finite on the solver grid")
    from scipy.linalg.lapack import dgtsv  # scipy.linalg loads when a march runs, not on import

    bound_base = 1.05 * (np.abs(u[0]) + np.abs(u[1:])).max(axis=1)
    keep = (1.0 - theta) / theta
    inner = u[:, 1:-1].copy()
    # the right-hand side of the next step, contiguous so that the transpose
    # of each block's rows is the Fortran-ordered (nodes, rows) array gtsv
    # solves in place; the boundary samples enter the explicit half of the
    # first step only
    w = inner / theta
    solves = []
    for rows, lower, diag, upper in blocks:
        w[rows, 0] += (1.0 - theta) * dt * lower[0] * u[rows, 0]
        w[rows, -1] += (1.0 - theta) * dt * upper[-1] * u[rows, -1]
        if diag.size == 1:  # f2py wants one (unused) off-diagonal entry, not zero
            a_lower = a_upper = np.zeros(1)
        else:
            a_lower, a_upper = -theta * dt * lower[1:], -theta * dt * upper[:-1]
        solves.append((rows, a_lower, 1.0 - theta * dt * diag, a_upper))

    line_abs = np.empty_like(inner[1:])
    stored = 0
    for k in range(1, levels[-1] + 1):
        for rows, a_lower, a_diag, a_upper in solves:
            info = dgtsv(a_lower, a_diag, a_upper, w[rows].T, overwrite_b=1)[-1]
            if info:
                raise StabilityError(f"step matrix is singular at step {k} (gtsv info {info})")
        inner *= -keep
        inner += w
        np.abs(inner[1:], out=line_abs)
        line_abs += np.abs(inner[0])
        sup = line_abs.max(axis=1)
        bound = bound_base * math.exp(c0 * k * dt)
        held = sup <= bound  # NaN fails too
        if not held.all():
            if not np.isfinite(sup).all():
                raise StabilityError(f"solution became non-finite at step {k}")
            j = int(np.argmin(held))
            raise StabilityError(
                f"sup norm {sup[j]:.6g} of line {j} exceeds the growth bound "
                f"{bound[j]:.6g} at t = {k * dt:.6g}"
            )
        if k == levels[stored]:
            np.add(inner[0], inner[1:], out=out[stored])
            stored += 1
        np.divide(inner, theta, out=w)


@dataclass
class StarEvolution:
    """Star snapshots of the sector march, one (m, points_per_edge) level per step."""

    graph: StarGraph
    grid: GridSpec
    times: np.ndarray
    values: np.ndarray  # (steps + 1, m, points_per_edge)
    kirchhoff_defects: np.ndarray

    def snapshot(self, k: int) -> StarFunction:
        # the march pins every deviation at the vertex, so the constructor's
        # continuity check can only fail on a broken march
        return StarFunction(self.graph, self.grid, self.values[k], continuous_at_vertex=True)

    def at_time(self, t: float) -> StarFunction:
        return self.snapshot(_time_level(self.times, t))


def solve_star(
    coeffs: CoefficientTriple,
    f: StarFunction,
    cfg: OracleConfig,
) -> StarEvolution:
    """Reference evolution on the star, marched in its two sectors on r >= 0.

    The edge average (the even sector) is one line with Neumann conditions
    at the vertex: its row at r = 0 is the mirrored row, in which u(-h) =
    u(h) folds the lower stencil entry into the upper one, 2 q(0) / h^2.
    The m deviations from it (the odd sectors) are lines with the vertex
    pinned at 0: an identity row at r = 0 that nothing couples to.  Edge i
    is the average plus its deviation, which is what the line through the
    edge and its ``reflect`` gives, so each edge's growth bound is that
    line's.  Level 0 is the data itself.
    """

    f.require_continuous("reflection extension requires a vertex-continuous function")
    x = cfg.grid()
    mid = x.size // 2
    if f.has_profiles():
        half = f.evaluate_profiles(x[mid:])
    elif f.grid.points_per_edge < x.size - mid or abs(f.grid.h - cfg.h) > 1e-12:
        raise ShapeError(
            "sample-backed initial data must share the oracle mesh width and "
            "reach the truncation radius; provide callable profiles otherwise"
        )
    else:
        half = f.values[:, : x.size - mid]
    vertex_flux(half, cfg.h)  # refuse a mesh too coarse for the vertex stencil before marching

    # the state's columns are r = -h, 0, h, ..., n, and no row reaches r = -h:
    # the even row at r = 0 folds u(-h) = u(h) into its upper entry, and the
    # odd rows pin the vertex at 0, uncoupled from row 1
    lower, diag, upper = _stencil(extend_coefficients(coeffs), x[mid - 1 :], cfg.h)
    even_lower, even_diag, even_upper = lower.copy(), diag.copy(), upper.copy()
    even_upper[0] += even_lower[0]
    even_lower[0] = 0.0
    lower[:2] = diag[0] = upper[0] = 0.0
    state = np.zeros((f.graph.m + 1, half.shape[1] + 1))
    state[0, 1:] = half.mean(axis=0)
    state[1:, 2:] = half[:, 1:] - state[0, 2:]

    steps = cfg.steps
    values = np.zeros((steps + 1,) + half.shape)
    values[0] = half
    blocks = [(slice(0, 1), even_lower, even_diag, even_upper), (slice(1, None), lower, diag, upper)]
    _march(blocks, state, coeffs.c_sup_bound, cfg, range(1, steps + 1), values[1:, :, :-1])

    grid = GridSpec(cutoff=float(cfg.n), points_per_edge=half.shape[1])
    return StarEvolution(
        graph=f.graph,
        grid=grid,
        times=np.arange(steps + 1) * cfg.dt,
        values=values,
        kirchhoff_defects=vertex_flux(values, cfg.h),
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


class TabulatedLineKernel(NamedTuple):
    """The marched line kernel on the oracle grid ``x`` at the listed times.

    ``values[i][a, b]`` is the kernel at ``times[i]`` from ``x[a]`` to
    ``x[b]``, so it compares with ``ou_line_kernel(t, xx, yy)`` for
    ``xx, yy = np.meshgrid(x, x, indexing="ij")``.
    """

    times: np.ndarray
    x: np.ndarray
    values: np.ndarray


def tabulate_kernel(
    coeffs: CoefficientTriple,
    cfg: OracleConfig,
    times: Sequence[float],
) -> TabulatedLineKernel:
    """Tabulate the line kernel by propagating unit-mass hats from each node.

    Column b of the table is the solution at the requested times for initial
    data concentrated at x[b] (height 1/h); Dirichlet ends give zero rows and
    columns at the truncation radius.  The hats of all interior nodes are the
    lines of one march, so they advance together in one gtsv solve per step,
    and only the requested levels are kept.
    """

    times = [float(t) for t in times]
    if not times:
        raise DomainError("need at least one tabulation time")
    if not all(math.isfinite(t) for t in times):
        raise NumericalInputError(f"tabulation times must be finite, got {times}")
    levels = [int(round(t / cfg.dt)) for t in times]
    for t, k in zip(times, levels):
        if abs(k * cfg.dt - t) > _time_tol(t) or k < 1 or k > cfg.steps:
            raise DomainError(f"time {t} is not a positive stored level")
    if any(k2 <= k1 for k1, k2 in zip(levels, levels[1:])):
        raise DomainError("tabulation times must be strictly increasing")

    # row j is the hat at node j, and row 0 stays zero (a full line shares
    # nothing); the end nodes are absorbed, so their rows and columns of the
    # table stay zero
    x = cfg.grid()
    state = np.zeros((x.size - 1, x.size))
    np.fill_diagonal(state[1:, 1:], 1.0 / cfg.h)
    values = np.zeros((len(times), x.size, x.size))
    lines = values[:, 1:-1, 1:-1].transpose(0, 2, 1)  # (level, line, node) view
    blocks = [(slice(1, None), *_stencil(coeffs, x, cfg.h))]
    _march(blocks, state, coeffs.c_sup_bound, cfg, levels, lines)
    return TabulatedLineKernel(np.asarray(times), x, values)
