"""Finite-difference reference solver for the line and the star.

A line problem d_t u = q u'' + b u' + c u on (-n, n) with homogeneous
Dirichlet ends is advanced by the trapezoidal (Crank-Nicolson) step of the
centered discretization, second order in h and dt.  The star is marched in
its sectors on the half grid r >= 0, with the parity-extended coefficients:
the edge average (the even sector) is one line with Neumann conditions at
the vertex, and the m deviations from it (the odd sectors) are lines with
the vertex pinned at zero.  The m - 1 odd sectors are identical, so the
deviations evolve under one line operator, and only their span needs
marching: they are factored once as Q C_0, Q an (m, r) orthonormal basis
with r <= m - 1, and the march advances the r rows of C.  Edge i is the
average plus row i of Q C_k, the same scheme as the line through the edge
and its ``reflect``; continuity at the vertex holds by construction, and
the flux balance holds at the stencil order and is measured.  The lines of
a march advance together, the lines as right-hand sides (the unit hats of
a kernel table, or the r odd lines of a star, whose even line has its own
step matrix).  Each tridiagonal
step matrix A = I - (dt/2) T is fixed for the march and factored once: a
diagonal similarity S, the square root of the discrete density in which T
is self-adjoint (mu's, for OU), makes S A S^-1 symmetric, and LAPACK pttrf
factors it as L D L^T where it is positive definite.  The march carries
the state in that symmetrized variable, v = S u, so a step is one pttrs
solve per step matrix, one subtraction, and one scaling by S^-1 back to
u, from which the lines are formed (for a star, one product with Q) for
the growth monitor and the stored levels.  The explicit half needs no
stencil product, because B = I + (dt/2) T = 2I - A.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ShapeError, StabilityError, check_data, check_increasing
from .errors import check_nodes, check_positive, check_time
from .extension import CoefficientTriple, check_coefficients, extend_coefficients
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
    be an integer), ``dt`` the step size, ``t_final`` the last time (a whole
    number >= 1 of steps).  Nodes per edge n/h + 1 and levels t_final/dt + 1
    must stay within the node budget ``errors.MAX_NODES``.
    """

    n: float
    h: float
    dt: float
    t_final: float

    def __post_init__(self) -> None:
        for name in ("n", "h", "dt", "t_final"):
            check_positive(name, getattr(self, name))
        # a line or a level count beyond the node budget is refused before
        # anything is allocated, and before round() can meet an inf
        check_nodes("oracle nodes per edge n/h + 1", self.n / self.h + 1)
        check_nodes("oracle levels t_final/dt + 1", self.t_final / self.dt + 1)
        if abs(self.n / self.h - round(self.n / self.h)) > 1e-9:
            raise DomainError(f"n/h must be an integer, got {self.n / self.h}")
        if self.half_intervals < 1:
            raise DomainError(f"n must be at least one mesh width h, got n={self.n}, h={self.h}")
        if self.steps < 1 or abs(self.steps * self.dt - self.t_final) > _time_tol(self.t_final):
            raise DomainError(
                f"t_final must be a whole number of steps dt, at least one, to within "
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


def _time_level(t: float, dt: float, steps: int) -> int:
    """The level k in 0..steps whose time k dt is ``t`` to within ``_time_tol(t)``."""

    ratio = t / dt
    k = int(round(ratio)) if -1.0 < ratio < steps + 1.0 else -1  # NaN and inf never round
    if not 0 <= k <= steps or abs(k * dt - t) > _time_tol(t):
        raise DomainError(f"time {t} is not a stored level")
    return k


def solve_line_dirichlet(
    coeffs: CoefficientTriple,
    u0: np.ndarray,
    cfg: OracleConfig,
) -> np.ndarray:
    """Crank-Nicolson solve of d_t u = q u'' + b u' + c u on (-n, n), u(±n) = 0.

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
        raise DomainError(f"initial data must be an array of numbers: {exc}") from exc
    if u0.shape != x.shape:
        raise ShapeError(
            f"initial data must give one value per solver node, shape {x.shape}, got {u0.shape}"
        )
    exponent = check_data(u0)
    out = np.zeros((cfg.steps + 1, 1, x.size))
    out[0] = u0
    blocks = [(slice(1, None), *_stencil(coeffs, x, cfg.h))]
    state = np.stack([np.zeros_like(u0), np.ldexp(u0, exponent) if exponent else u0])
    _march(blocks, state, coeffs.c_sup_bound, cfg, range(1, len(out)), out[1:, :, 1:-1],
           exponent=exponent)
    return out[:, 0]


def _stencil(
    coeffs: CoefficientTriple, x: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower, main and upper stencil entries of q u'' + b u' + c u at x[1:-1].

    Refuses, anywhere on x, what ``extension.check_coefficients`` refuses
    and a cell Peclet number above 1.
    """

    qv = np.asarray(coeffs.q(x), dtype=float)
    bv = np.asarray(coeffs.b(x), dtype=float)
    cv = np.asarray(coeffs.c(x), dtype=float)
    check_coefficients(qv, bv, cv, coeffs.c_sup_bound)
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
    basis: np.ndarray | None = None,
    exponent: int = 0,
) -> None:
    """Advance the state ``u`` (shape (1 + k, columns)) and write its lines.

    Line i is u[0] + d_i on the stored side and u[0] - d_i mirrored, where
    d = u[1:], the k lines' own rows, or d = ``basis`` @ u[1:], m lines
    from an (m, k) basis; row 0 is what every line shares, and a full line
    shares nothing, so its row 0 stays zero and unmarched.  The lines are
    formed once per step, and the monitor and the stored levels both read
    them.  The first and last columns lie beyond the stencil rows, and
    their samples enter the first step only.  Each block (rows, lower,
    diag, upper) holds the stencil T of its rows, and
    its step matrix A = I - (dt/2) T is factored once (``_factor_step``)
    as S A S^-1 = L D L^T.  The march carries v = S u, row by row with its
    block's S.  A step solves S A S^-1 y = w in place on w = 2v with one
    pttrs call per block, sets v <- y - v, which is S A^-1 B u for
    B = 2I - A, writes u = v / S and then |u| over y, and sets w <- 2v.
    ``levels`` are increasing step indices >= 1; the lines after step
    levels[j], at the stencil rows, go to out[j], and they and the monitor's
    message are taken back by 2^-exponent (``u`` holds the data times
    2^exponent, ``errors.check_data``).
    Each line's sup, max |u[0]| + |d_i|, is held to 1.05 exp(c0 t) times its
    initial sup at every step, and to the float maximum in the data's
    units; a step that breaks either bound raises, and a growth bound that
    overflows at the last level, or a
    step matrix that ``_factor_step`` refuses, is refused before the first
    step.  Every array a step touches is allocated before the first one.
    """

    dt = cfg.dt
    # the largest sup whose lines stay finite taken back to the data's units
    ceiling = math.ldexp(sys.float_info.max, min(exponent, 0))
    growth = c0 * dt * levels[-1]
    if growth > math.log(sys.float_info.max):
        raise DomainError(
            f"c_sup_bound * dt * steps = {growth:.6g} overflows the growth bound exp(c_sup_bound t)"
        )
    from scipy.linalg.lapack import dpttrs  # scipy.linalg loads when a march runs, not on import

    own = u[1:] if basis is None else basis @ u[1:]
    bound_base = 1.05 * (np.abs(u[0]) + np.abs(own)).max(axis=1)
    inner = u[:, 1:-1]
    # w is the right-hand side 2v of the next step, contiguous so that the
    # transpose of each block's rows is the Fortran-ordered (nodes, rows)
    # array pttrs solves in place; the boundary samples enter the explicit
    # half of the first step only
    w = 2.0 * inner
    v = inner.copy()
    inv_scale = np.ones_like(inner)  # 1 on a row no block marches
    solves = []
    for rows, lower, diag, upper in blocks:
        w[rows, 0] += 0.5 * dt * lower[0] * u[rows, 0]
        w[rows, -1] += 0.5 * dt * upper[-1] * u[rows, -1]
        scale, d, e = _factor_step(lower, diag, upper, dt)
        w[rows] *= scale
        v[rows] *= scale
        inv_scale[rows] = 1.0 / scale
        solves.append((d, e, w[rows].T))

    # the row of w that every line shares, the lines' own rows d (w's rows
    # or their product with the basis), and the monitor's per-line sups,
    # bounds and verdicts
    shared = w[0]
    lines = w[1:] if basis is None else np.empty((basis.shape[0], w.shape[1]))
    sup, bound = np.empty(len(bound_base)), np.empty(len(bound_base))
    held = np.empty(len(bound_base), dtype=bool)
    stored = 0
    for step in range(1, levels[-1] + 1):
        for d, e, rhs in solves:
            dpttrs(d, e, rhs, overwrite_b=1)
        np.subtract(w, v, out=v)
        # w holds nothing until the next right-hand side, so it takes u, and
        # then |u| for the monitor; a level that breaks its bound is stored
        # too, but the march raises before any caller sees it
        np.multiply(v, inv_scale, out=w)
        if basis is not None:
            np.matmul(basis, w[1:], out=lines)
        if step == levels[stored]:
            np.add(shared, lines, out=out[stored])
            stored += 1
        np.abs(shared, out=shared)
        np.abs(lines, out=lines)
        np.add(lines, shared, out=lines)
        np.maximum.reduce(lines, axis=1, out=sup)
        np.multiply(bound_base, math.exp(c0 * step * dt), out=bound)
        np.minimum(bound, ceiling, out=bound)
        # count_nonzero is the cheapest all() on a few lines; NaN fails too
        if np.count_nonzero(np.less_equal(sup, bound, out=held)) < held.size:
            if not (sup <= ceiling).all():
                raise StabilityError(f"solution became non-finite at step {step}")
            j = int(np.argmin(held))
            sup_j, bound_j = np.ldexp([sup[j], bound[j]], -exponent)
            raise StabilityError(
                f"sup norm {sup_j:.6g} of line {j} exceeds the growth bound "
                f"{bound_j:.6g} at t = {step * dt:.6g}"
            )
        np.add(v, v, out=w)
    if exponent:
        np.ldexp(out, -exponent, out=out)


def _factor_step(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The similarity s and the pttrf factors (d, e) of S A S^-1, A = I - (dt/2) T.

    T is the stencil (lower, diag, upper) of a line's rows.  The scale
    s[i+1] / s[i] = sqrt(a_upper[i] / a_lower[i]), the square root of the
    discrete density in which T is self-adjoint (mu's for OU), gives both
    couplings of rows i and i + 1 the value -sqrt(a_lower[i] a_upper[i]);
    rows that do not couple (both entries zero, as at a pinned vertex) keep
    the scale.  s is centred on the midpoint of its logarithm, so s and 1/s
    stay within the square root of the float range.  Refused: a pair coupled
    one way only or with opposite signs (a cell Peclet number of 1 or more),
    a scale too wide for floats (DomainError), and a symmetric matrix that
    is not positive definite, whether singular or indefinite (StabilityError).
    """

    from scipy.linalg.lapack import dpttrf

    a_lower, a_upper = -0.5 * dt * lower[1:], -0.5 * dt * upper[:-1]
    one_way = np.sign(a_lower) != np.sign(a_upper)
    if one_way.any():
        i = int(np.argmax(one_way))
        raise DomainError(
            f"stencil rows {i} and {i + 1} couple one way only or with opposite signs "
            "(a cell Peclet number of 1 or more); refine h to keep it below 1"
        )
    ratio = np.ones_like(a_lower)
    np.divide(a_upper, a_lower, out=ratio, where=a_lower != 0.0)
    np.sqrt(ratio, out=ratio)
    log_s = np.concatenate(([0.0], np.cumsum(np.log(ratio))))
    span = float(np.ptp(log_s))
    if not span <= math.log(sys.float_info.max):  # NaN too
        raise DomainError(
            f"the step matrix's symmetrizing scale spans a factor e^{span:.6g}, "
            "beyond the float range; shorten the line or weaken its drift"
        )
    # a running product keeps each ratio s[i+1] / s[i] to one rounding
    scale = np.cumprod(np.concatenate(([math.exp(-0.5 * (log_s.max() + log_s.min()))], ratio)))
    off = -np.sqrt(a_lower * a_upper) if diag.size > 1 else np.zeros(1)  # f2py wants one entry
    d, e, info = dpttrf(1.0 - 0.5 * dt * diag, off)
    if info:
        raise StabilityError(
            f"step matrix is singular or indefinite (pttrf info {info}): dt is at "
            "least 2 / (the stencil's largest eigenvalue), where reaction outgrows diffusion"
        )
    return scale, d, e


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
        # times[k] is k dt, and a config always has at least one step
        return self.snapshot(_time_level(t, self.times[1], self.times.size - 1))


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
    pinned at 0: an identity row at r = 0 that nothing couples to.  All of
    them see that one operator, so the deviations D_0 (m, points) are
    factored as Q C_0 (``_deviation_basis``), and only the average and the
    r <= m - 1 rows of C are marched; equal edges and m = 1 give r = 0 and
    march the average alone.  Edge i is the average plus row i of Q C_k,
    which is what the line through the edge and its ``reflect`` gives, so
    each edge's growth bound is that line's, checked on every edge at every
    step.  Level 0 is the data itself; the march runs in the power-of-two
    units of ``errors.check_data``, so data from the subnormal range to the
    float maximum answer.
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
    exponent = check_data(half)
    units = np.ldexp(half, exponent) if exponent else half
    average = units.mean(axis=0)
    deviations = units[:, 1:] - average[1:]  # the vertex deviation is pinned at 0
    basis = _deviation_basis(units, deviations)
    state = np.zeros((1 + basis.shape[1], half.shape[1] + 1))
    state[0, 1:] = average
    state[1:, 2:] = basis.T @ deviations

    steps = cfg.steps
    # the march writes every level but the pinned end r = n
    values = np.empty((steps + 1,) + half.shape)
    values[0] = half
    values[1:, :, -1] = 0.0
    blocks = [(slice(0, 1), even_lower, even_diag, even_upper)]
    if basis.shape[1]:
        blocks.append((slice(1, None), lower, diag, upper))
    levels = range(1, steps + 1)
    _march(blocks, state, coeffs.c_sup_bound, cfg, levels, values[1:, :, :-1], basis, exponent)

    grid = GridSpec(cutoff=float(cfg.n), points_per_edge=half.shape[1])
    return StarEvolution(
        graph=f.graph,
        grid=grid,
        times=np.arange(steps + 1) * cfg.dt,
        values=values,
        kirchhoff_defects=vertex_flux(values, cfg.h),
    )


def _deviation_basis(data: np.ndarray, deviations: np.ndarray) -> np.ndarray:
    """Orthonormal columns Q (m, r) spanning the edges' computed deviations
    from their average down to the rounding that forming them made.

    ``data`` is F, the edges' samples (m, points), and ``deviations`` D~
    their differences from the average.  A recursive sum of m terms and one
    division give the average within m u mean_i |f_ij| (u = eps / 2, to
    first order), and each difference adds u |d_ij|, so D~ = D + E with
    |E_ij| <= m u mean_i |f_ij| + u |d_ij|.  As sqrt(m) times the row of
    means and D are each at most ||F||_F in the Frobenius norm, ||E||_2 <=
    ||E||_F <= tau = (m + 1) u ||F||_F.  Directions whose singular value is
    at most tau lie within that rounding and are dropped, which moves no
    entry of D~ by more than tau; so is any past m - 1, the most that
    deviations summing to zero span.  tau is about (m + 1) / 2 eps times the
    data's norm, not a numerical rank's sigma_1 max(m, points) eps, which
    grows with the points per edge far past the rounding.  F is in the units
    of ``errors.check_data``, in which neither ||F||_F nor sigma_1 overflows
    or underflows.
    """

    tau = 0.5 * (data.shape[0] + 1) * np.finfo(float).eps * float(np.linalg.norm(data))
    q, sigma, _ = np.linalg.svd(deviations, full_matrices=False)
    return q[:, : min(data.shape[0] - 1, int(np.count_nonzero(sigma > tau)))]


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
    configs = [replace(cfg, n=n) for n in n_list]  # refuses every bad radius before a march

    window = min(c.half_intervals for c in configs) + 1
    finals = []
    for run_cfg in configs:
        run = solve_star(coeffs, f, run_cfg)
        finals.append(run.values[-1, :, :window])  # the last level is t_final
    return [
        TruncationRow(n=n, t=cfg.t_final, sup_defect=float(np.abs(cur - prev).max()))
        for prev, cur, n in zip(finals, finals[1:], n_list[1:])
    ]


class TabulatedLineKernel(NamedTuple):
    """The marched line kernel on the oracle grid ``x`` at the listed times.

    ``values[i][a, b]`` is the kernel at ``times[i]`` from ``x[a]`` to
    ``x[b]``, so it compares with ``line_kernel(OU, t, xx, yy)`` for
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
    lines of one march, so they advance together in one pttrs solve per step,
    and only the requested levels are kept.
    """

    times = [check_time(t) for t in times]
    if not times:
        raise DomainError("need at least one tabulation time")
    # a time >= MIN_TIME is never level 0, and times sharing a level are equal
    levels = [_time_level(t, cfg.dt, cfg.steps) for t in times]
    check_increasing([k * cfg.dt for k in levels])

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
