import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
import scipy.linalg.lapack
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv, dpttrs

from stargraph.cli import _oracle_initial
from stargraph.errors import DomainError, ShapeError, StabilityError, VertexContinuityError
from stargraph.extension import (
    CoefficientTriple,
    extend_coefficients,
    ho_coefficients,
    ou_coefficients,
)
from stargraph.geometry import GridSpec, StarFunction, StarGraph, vertex_slopes
from stargraph.kernels import OU, line_kernel
from stargraph.oracle import (
    OracleConfig,
    solve_line_dirichlet,
    solve_star,
    tabulate_kernel,
    truncation_study,
)
from stargraph.semigroup import apply
from stargraph.spectral import PolyGauss, hermite_coefficients


def heat_coefficients():
    return CoefficientTriple(
        q=lambda x: np.full_like(np.asarray(x, dtype=float), 0.5),
        b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c_sup_bound=0.0,
    )


def test_config_validation():
    OracleConfig(n=8.0, h=1.0 / 64.0, dt=1e-3, t_final=1.0)
    with pytest.raises(DomainError):
        OracleConfig(n=8.0, h=0.03, dt=1e-3, t_final=1.0)  # n/h not integral
    with pytest.raises(DomainError):
        OracleConfig(n=8.0, h=1.0 / 64.0, dt=3e-4, t_final=1.0)  # t/dt
    with pytest.raises(DomainError):
        OracleConfig(n=-8.0, h=1.0 / 64.0, dt=1e-3, t_final=1.0)
    with pytest.raises(DomainError):
        OracleConfig(n=1e-12, h=1.0, dt=0.1, t_final=0.1)  # no interior node
    with pytest.raises(DomainError):
        # t_final/dt = 9.9999999 is within 1e-6 of 10, but 10 dt misses t_final by 1e-8
        OracleConfig(n=2.0, h=0.25, dt=0.100000001, t_final=1.0)
    # a line or a level count beyond the node budget is refused before a
    # grid is built, also where the ratio overflows to inf
    budget = " must be at most 1.1e\\+12 \\(the node budget\\), got "
    for n, h, why in ((1e300, 0.125, "8e\\+300"), (1e300, 1e-300, "inf")):
        with pytest.raises(ShapeError, match=r"oracle nodes per edge n/h \+ 1" + budget + why):
            OracleConfig(n=n, h=h, dt=0.01, t_final=0.1)
    for t_final, dt, why in ((1e18, 1.0, "1e\\+18"), (0.1, 1e-300, "1e\\+299"),
                             (1e300, 1e-300, "inf")):
        with pytest.raises(ShapeError, match=r"oracle levels t_final/dt \+ 1" + budget + why):
            OracleConfig(n=4.0, h=0.125, dt=dt, t_final=t_final)
    # a final time short of half a step is no stored level: no march can reach it
    with pytest.raises(DomainError, match="a whole number of steps dt, at least one"):
        OracleConfig(n=2.0, h=0.25, dt=1.0, t_final=1e-10)


def test_grid_negation_symmetry():
    cfg = OracleConfig(n=6.0, h=1.0 / 32.0, dt=1e-3, t_final=0.1)
    x = cfg.grid()
    assert np.array_equal(x, -x[::-1])
    assert x[x.size // 2] == 0.0
    assert x.size == 2 * cfg.half_intervals + 1


def test_heat_sine_mode_decay():
    # u_t = u_xx / 2 on [-n, n] with zero ends; the sine mode decays at the
    # exact rate exp(-pi^2 t / (8 n^2)), frozen to 0.019276571095877652 at n=8
    n = 8.0
    cfg = OracleConfig(n=n, h=1.0 / 64.0, dt=1e-3, t_final=1.0)
    lam = 0.5 * (math.pi / (2 * n)) ** 2
    assert lam == pytest.approx(0.019276571095877652, rel=1e-15)

    def f0(x):
        return np.sin(math.pi * (x + n) / (2 * n))

    x = cfg.grid()
    run = solve_line_dirichlet(extend_coefficients(heat_coefficients()), f0(x), cfg)
    exact = math.exp(-lam) * f0(x)
    assert np.abs(run[-1] - exact).max() < 1e-5


def test_crank_nicolson_is_second_order_in_dt():
    # measure against a tiny-step reference on the SAME spatial grid so the
    # shared space discretization error cancels and only the time-stepping
    # order is visible; a Richardson step (4 u_{dt/2} - u_dt) / 3 needs the
    # error to fall by 4 when dt halves
    n = 4.0
    kw = dict(n=n, h=1.0 / 32.0, t_final=0.5)

    def f0(x):
        return np.sin(math.pi * (x + n) / (2 * n))

    coeffs = extend_coefficients(heat_coefficients())
    ref_cfg = OracleConfig(dt=2.5e-5, **kw)
    ref = solve_line_dirichlet(coeffs, f0(ref_cfg.grid()), ref_cfg)[-1]
    errs = {}
    for dt in (2e-3, 1e-3):
        cfg = OracleConfig(dt=dt, **kw)
        run = solve_line_dirichlet(coeffs, f0(cfg.grid()), cfg)
        errs[dt] = np.abs(run[-1] - ref).max()
    assert errs[2e-3] < 1e-9
    assert 3.5 <= errs[2e-3] / errs[1e-3] <= 4.5


def test_peclet_guard():
    cfg = OracleConfig(n=8.0, h=0.25, dt=1e-3, t_final=0.01)
    x = cfg.grid()
    with pytest.raises(DomainError):
        # max |b| h / (2 q) = 8 * 0.25 / 1 = 2 at the boundary
        solve_line_dirichlet(extend_coefficients(ou_coefficients()), 0 * x, cfg)

    # non-finite coefficients are refused before any step; a NaN q must not
    # pass as positive and end in a StabilityError
    def nan(x):
        return np.full_like(np.asarray(x, dtype=float), np.nan)

    heat = heat_coefficients()
    for bad in (replace(heat, q=nan), replace(heat, b=nan), replace(heat, c=nan)):
        with pytest.raises(DomainError):
            solve_line_dirichlet(bad, 1.0 - np.abs(x) / 8.0, cfg)


def test_growth_monitor_triggers():
    # reaction hidden beyond the coefficient sampling window: the declared
    # bound says no growth, the run grows like e^{50 t} and must abort
    sneaky = CoefficientTriple(
        q=lambda x: np.full_like(np.asarray(x, dtype=float), 0.5),
        b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c=lambda x: np.where(np.asarray(x, dtype=float) > 12.5, 50.0, 0.0),
        c_sup_bound=0.0,
    )
    cfg = OracleConfig(n=16.0, h=1.0 / 8.0, dt=1e-3, t_final=0.1)

    def f0(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-((np.abs(x) - 14.0) ** 2))

    with pytest.raises(StabilityError, match="of line 0 exceeds the growth bound 1.05 at t = 0.001$"):
        solve_line_dirichlet(extend_coefficients(sneaky), f0(cfg.grid()), cfg)
    # data far outside errors.DATA_WINDOW are marched in units of a power of
    # two, and the message gives the bound in the data's own
    bound = re.escape(f"{math.ldexp(1.05, 300):.6g}")
    with pytest.raises(StabilityError, match=f"exceeds the growth bound {bound} at t = 0.001$"):
        solve_line_dirichlet(extend_coefficients(sneaky), np.ldexp(f0(cfg.grid()), 300), cfg)

    # a star solve holds each line to its own initial sup: edge 1 carries a
    # small bump in the growth zone, edge 2 a large one outside it and edge 3
    # minus both, so only line 0 outgrows its bound before t_final
    def small(r):
        return 1e-3 * f0(r)

    def large(r):
        r = np.asarray(r, dtype=float)
        return r * np.exp(-((r - 3.0) ** 2))

    grid = GridSpec(cutoff=16.0, points_per_edge=cfg.half_intervals + 1)
    f = StarFunction.from_callables(
        StarGraph(3), grid, (small, large, lambda r: -small(r) - large(r)),
        continuous_at_vertex=True,
    )
    with pytest.raises(StabilityError, match="line 0 .* at t = 0.001$"):
        solve_star(sneaky, f, cfg)

    # a NaN growth bound would switch the monitor off: c = 5 must not pass
    growing = replace(
        heat_coefficients(),
        c=lambda x: np.full_like(np.asarray(x, dtype=float), 5.0),
        c_sup_bound=math.nan,
    )
    with pytest.raises(DomainError, match="c_sup_bound"):
        solve_line_dirichlet(growing, f0(cfg.grid()), cfg)


def test_overflowing_growth_bound_is_refused():
    # exp(c_sup_bound t) overflows a float past t = 0.071 when c_sup_bound = 1e4;
    # the march refuses that before its first step
    steep = replace(heat_coefficients(), c_sup_bound=1e4)
    cfg = OracleConfig(n=2.0, h=0.25, dt=0.01, t_final=0.1)
    x = cfg.grid()
    with pytest.raises(DomainError, match="c_sup_bound \\* dt \\* steps = 1000 "):
        solve_line_dirichlet(steep, np.exp(-x * x), cfg)


def test_singular_step_matrix_is_refused():
    # one interior node, where A = 1 - (dt/2) (c - 2 q / h^2) = 1 - 0.05 (c - 1):
    # 0 at c = 21, and -0.45 at c = 30, where the step would multiply the node
    # by -5.4, within the growth bound 1.05 e^3 = 21
    cfg = OracleConfig(n=1.0, h=1.0, dt=0.1, t_final=0.1)
    for c in (21.0, 30.0):
        react = CoefficientTriple(
            q=lambda x: np.full_like(np.asarray(x, dtype=float), 0.5),
            b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            c=lambda x, c=c: np.full_like(np.asarray(x, dtype=float), c),
            c_sup_bound=c,
        )
        with pytest.raises(StabilityError, match="singular or indefinite"):
            solve_line_dirichlet(react, 1.0 - np.abs(cfg.grid()), cfg)


def test_step_matrix_without_a_symmetric_form_is_refused():
    # at cell Peclet number exactly 1 the lower stencil entry q/h^2 - b/(2h)
    # is 0 and the upper one is not: each node feeds its left neighbour and
    # hears nothing back
    drift = replace(heat_coefficients(), b=lambda x: np.full_like(np.asarray(x, dtype=float), 4.0))
    cfg = OracleConfig(n=2.0, h=0.25, dt=0.01, t_final=0.01)
    with pytest.raises(DomainError, match="couple one way only .* cell Peclet number of 1"):
        solve_line_dirichlet(drift, np.exp(-np.square(cfg.grid())), cfg)

    # the OU similarity falls like e^(-x^2 / 2): on (-40, 40) it spans e^813,
    # past the float range e^709.8, and on (-36, 36) e^657
    ou = extend_coefficients(ou_coefficients())
    for n in (40.0, 36.0):
        cfg = OracleConfig(n=n, h=1.0 / 128.0, dt=0.01, t_final=0.01)
        u0 = np.exp(-np.square(cfg.grid()))
        if n == 40.0:
            with pytest.raises(DomainError, match="symmetrizing scale spans a factor e\\^813\\."):
                solve_line_dirichlet(ou, u0, cfg)
        else:
            assert np.isfinite(solve_line_dirichlet(ou, u0, cfg)).all()


def test_non_finite_solution_is_refused(monkeypatch):
    # a solve whose result turns NaN must stop the march at that step, not
    # pass the growth check: one line is one pttrs call per step
    def nan_pttrs_from(first):
        calls = []

        def nan_pttrs(*args, **kwargs):
            out = dpttrs(*args, **kwargs)
            calls.append(None)
            if len(calls) >= first:
                out[0][0, 0] = math.nan
            return out

        return nan_pttrs

    cfg = OracleConfig(n=2.0, h=0.25, dt=0.1, t_final=0.5)
    for first in (1, 3):
        # the march reads dpttrs from scipy.linalg.lapack when it runs
        monkeypatch.setattr(scipy.linalg.lapack, "dpttrs", nan_pttrs_from(first))
        with pytest.raises(StabilityError, match=f"solution became non-finite at step {first}$"):
            solve_line_dirichlet(heat_coefficients(), np.exp(-np.square(cfg.grid())), cfg)


def test_star_solver_matches_kernel_quadrature():
    cfg = OracleConfig(n=8.0, h=1.0 / 64.0, dt=1e-3, t_final=0.5)
    grid = GridSpec(cutoff=8.0, points_per_edge=cfg.half_intervals + 1)

    def p1(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * x * x) + 0.4 * x * np.exp(-x * x)

    def p2(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * x * x) - 0.2 * x * np.exp(-x * x)

    f = StarFunction.from_callables(StarGraph(2), grid, (p1, p2))
    run = solve_star(ou_coefficients(), f, cfg)
    u_fd = run.at_time(0.5)
    u_kernel = apply(OU, 2, 0.5, f, grid)
    window = grid.nodes() <= 3.0
    defect = np.abs(u_fd.values[:, window] - u_kernel.values[:, window]).max()
    assert defect < 1e-3
    # every level meets at the vertex exactly, not just within a tolerance
    assert not np.ptp(run.values[..., 0], axis=-1).any()


@pytest.mark.parametrize("m", [1, 3, 8])
@pytest.mark.parametrize("coeffs", [ou_coefficients, ho_coefficients])
def test_star_solve_equals_edge_by_edge_line_solves(coeffs, m):
    # the sector march and the m reflected lines are the same scheme and
    # round differently; continuity holds by construction, and the flux sum
    # carries the value tolerance through m vertex stencils of weight 4/h
    cfg = OracleConfig(n=3.0, h=1.0 / 16.0, dt=5e-3, t_final=0.1)
    grid = GridSpec(cutoff=3.0, points_per_edge=cfg.half_intervals + 1)
    profiles = tuple(
        (lambda r, a=0.2 * i: np.exp(-np.square(r)) * (1.0 + a * np.asarray(r)))
        for i in range(m)
    )
    f = StarFunction.from_callables(StarGraph(m), grid, profiles)
    run = solve_star(coeffs(), f, cfg)

    folded = _edge_by_edge(coeffs(), profiles, cfg)
    tol = 1e-13 * max(1.0, np.abs(folded).max())
    assert np.abs(run.values - folded).max() <= tol
    assert not np.ptp(run.values[..., 0], axis=-1).any()
    flux = np.abs(vertex_slopes(folded, cfg.h).sum(axis=1))
    assert np.abs(run.kirchhoff_defects - flux).max() <= 4.0 * m / cfg.h * tol


def _edge_by_edge(coeffs, profiles, cfg):
    """Every level of each edge's reflected line, solved alone, on its half r >= 0."""

    x = cfg.grid()
    line_coeffs = extend_coefficients(coeffs)
    lines = [solve_line_dirichlet(line_coeffs, u0, cfg) for u0 in _reflected_lines(profiles, x)]
    return np.stack(lines, axis=1)[:, :, x.size // 2 :]


def _reflected_lines(profiles, x):
    """Each edge's line on the grid ``x``: f_i(r) at r >= 0 and
    (2/m) sum_j f_j(r) - f_i(r) at -r."""

    r = np.abs(x)
    edges = [np.asarray(p(r), dtype=float) for p in profiles]
    total = sum(edges)
    return np.stack([np.where(x >= 0, e, (2.0 / len(edges)) * total - e) for e in edges])


def _stencil_march(line_coeffs, u0, cfg):
    """Every level of the trapezoidal step on the lines ``u0`` (shape (k, len(x))),
    stepped as an explicit stencil right-hand side and one banded solve."""

    x = cfg.grid()
    h, dt, theta = cfg.h, cfg.dt, 0.5
    q, b, c = (
        np.asarray(fn(x), dtype=float)[1:-1]
        for fn in (line_coeffs.q, line_coeffs.b, line_coeffs.c)
    )
    lower = q / h**2 - b / (2.0 * h)
    diag = -2.0 * q / h**2 + c
    upper = q / h**2 + b / (2.0 * h)
    ab = np.zeros((3, x.size - 2))
    ab[0, 1:] = -theta * dt * upper[:-1]
    ab[1, :] = 1.0 - theta * dt * diag
    ab[2, :-1] = -theta * dt * lower[1:]
    levels = [u0]
    for _ in range(cfg.steps):
        u = levels[-1]
        inner = u[:, 1:-1]
        rhs = inner + (1.0 - theta) * dt * (lower * u[:, :-2] + diag * inner + upper * u[:, 2:])
        nxt = np.zeros_like(u)
        nxt[:, 1:-1] = solve_banded((1, 1), ab, rhs.T).T
        levels.append(nxt)
    return np.stack(levels)


# dt q / h^2 = 0.256, 1.28 and 6.4 at q = 1/2: from a smooth step to the
# stiff one, where the trapezoidal step flips the sign of the highest modes
STEP_SIZES = [1e-3, 5e-3, 2.5e-2]


@pytest.mark.parametrize("dt", STEP_SIZES)
@pytest.mark.parametrize("coeffs", [ou_coefficients, ho_coefficients, heat_coefficients])
def test_march_matches_the_stencil_step(coeffs, dt):
    cfg = OracleConfig(n=3.0, h=1.0 / 16.0, dt=dt, t_final=0.1)
    x = cfg.grid()
    line_coeffs = extend_coefficients(coeffs())

    # nonzero at both ends, so the boundary samples enter the first step
    def f0(r):
        r = np.asarray(r, dtype=float)
        return (1.5 + np.cos(r)) * (1.0 + 0.3 * r)

    line = solve_line_dirichlet(line_coeffs, f0(x), cfg)
    want = _stencil_march(line_coeffs, f0(x)[None, :], cfg)[:, 0]
    assert f0(x[0]) != 0.0 and f0(x[-1]) != 0.0
    assert np.abs(line - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    m = 3
    grid = GridSpec(cutoff=3.0, points_per_edge=cfg.half_intervals + 1)
    profiles = tuple(
        (lambda r, a=0.2 * i: (1.5 + np.cos(r)) * (1.0 + a * np.asarray(r))) for i in range(m)
    )
    f = StarFunction.from_callables(StarGraph(m), grid, profiles)
    star = solve_star(coeffs(), f, cfg)
    want = _stencil_march(line_coeffs, _reflected_lines(profiles, x), cfg)[:, :, x.size // 2 :]
    assert np.abs(star.values - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def _kirchhoff_march(coeffs, half, cfg):
    """Every level of the trapezoidal step on the star itself, with no reflection.

    One vertex node is shared by the m edges, and its row is the
    finite-volume Kirchhoff balance du0/dt = (2 q(0) / (m h^2)) sum_i
    (u_i1 - u0) + c(0) u0; the centred stencil holds on each edge's nodes
    1..N-1, and u = 0 at r = n from the first step on.  Each step solves for
    the vertex by its Schur complement: one batched gtsv over the m edges,
    with the unit coupling column, and one scalar equation.
    """

    m, points = half.shape
    h, dt, theta = cfg.h, cfg.dt, 0.5
    r = np.arange(points) * h
    q, b, c = (np.asarray(fn(r), dtype=float) for fn in (coeffs.q, coeffs.b, coeffs.c))
    lower = q / h**2 - b / (2.0 * h)
    diag = -2.0 * q / h**2 + c
    upper = q / h**2 + b / (2.0 * h)
    g = 2.0 * q[0] / (m * h**2)  # vertex coupling to each edge's first node

    def stencil(u):
        """T u for the edges u (m, points), whose column 0 is the vertex."""

        tu = np.zeros_like(u)
        tu[:, 0] = g * (u[:, 1] - u[:, 0]).sum() + c[0] * u[0, 0]
        tu[:, 1:-1] = lower[1:-1] * u[:, :-2] + diag[1:-1] * u[:, 1:-1] + upper[1:-1] * u[:, 2:]
        return tu

    a_lower = -theta * dt * lower[2:-1]
    a_diag = 1.0 - theta * dt * diag[1:-1]
    a_upper = -theta * dt * upper[1:-2]
    to_vertex = -theta * dt * lower[1]  # edge row 1 on the vertex
    levels = [half]
    for _ in range(cfg.steps):
        u = levels[-1]
        rhs = u + (1.0 - theta) * dt * stencil(u)
        cols = np.zeros((points - 2, m + 1), order="F")
        cols[:, :m] = rhs[:, 1:-1].T
        cols[0, m] = 1.0
        cols = dgtsv(a_lower, a_diag, a_upper, cols)[3]
        y, z = cols[:, :m], cols[:, m]
        vertex = (rhs[0, 0] + theta * dt * g * y[0].sum()) / (
            1.0 - theta * dt * diag[0] + theta * dt * g * m * to_vertex * z[0]
        )
        nxt = np.zeros_like(u)
        nxt[:, 0] = vertex
        nxt[:, 1:-1] = (y - vertex * to_vertex * z[:, None]).T
        levels.append(nxt)
    return np.stack(levels)


@pytest.mark.parametrize("dt", STEP_SIZES)
@pytest.mark.parametrize("m", [1, 3, 8])
@pytest.mark.parametrize("coeffs", [ou_coefficients, ho_coefficients])
def test_star_solve_is_the_direct_kirchhoff_march(coeffs, m, dt):
    # the reflection rule and the Kirchhoff vertex row give the same discrete
    # scheme, not only the same limit
    cfg = OracleConfig(n=3.0, h=1.0 / 16.0, dt=dt, t_final=0.1)
    grid = GridSpec(cutoff=3.0, points_per_edge=cfg.half_intervals + 1)
    profiles = tuple(
        (lambda r, a=0.4 * i - 1.0: np.exp(-np.square(r)) * (1.0 + a * r + 0.3 * a * r**3))
        for i in range(m)
    )
    f = StarFunction.from_callables(StarGraph(m), grid, profiles)
    run = solve_star(coeffs(), f, cfg)
    want = _kirchhoff_march(coeffs(), f.values, cfg)
    assert np.abs(run.values - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def _star_data(case, grid):
    """(initial data, rank r of its deviations) for each case of the rank tests."""

    def shared(r):
        return np.exp(-np.square(r)) * (1.0 + 0.3 * r)

    if case == "one edge":
        return StarFunction.from_callables(StarGraph(1), grid, (shared,)), 0
    if case == "equal edges":
        return StarFunction.from_callables(StarGraph(6), grid, (shared,) * 6), 0
    if case == "cli data":
        return _oracle_initial(5, grid), 1
    if case == "odd pairs":
        # odd levels 1 and 3 of the oscillator on two edge pairs, the fifth
        # edge even only
        r = grid.nodes()
        level = {k: PolyGauss(hermite_coefficients(k), gauss=0.5)(r) for k in range(4)}
        even, one, three = 0.6 * level[0] - 0.3 * level[2], 0.2 * level[1], 0.05 * level[3]
        values = np.stack([even + one, even - one, even + three, even - three, even])
        return StarFunction(StarGraph(5), grid, values), 2
    # a bump at its own centre on each edge: deviations of full rank m - 1
    bumps = tuple((lambda r, c=c: np.exp(-np.square(r)) + r * np.exp(-np.square(r - c)))
                  for c in np.linspace(0.5, 2.5, 4))
    return StarFunction.from_callables(StarGraph(4), grid, bumps), 3


RANK_CASES = ["one edge", "equal edges", "cli data", "odd pairs", "full rank"]


@pytest.mark.parametrize("case", RANK_CASES)
@pytest.mark.parametrize("coeffs", [ou_coefficients, ho_coefficients])
def test_star_solve_marches_the_rank_of_the_deviations(coeffs, case, monkeypatch):
    # the deviations from the edge average are factored as Q C_0, and a step
    # solves the average's line and the r rows of C: 1 + r pttrs columns per
    # step, every level still the direct Kirchhoff march's
    cfg = OracleConfig(n=3.0, h=1.0 / 16.0, dt=5e-3, t_final=0.1)
    grid = GridSpec(cutoff=3.0, points_per_edge=cfg.half_intervals + 1)
    f, rank = _star_data(case, grid)
    columns = []

    def counting_pttrs(d, e, b, **kwargs):
        columns.append(b.shape[1])
        return dpttrs(d, e, b, **kwargs)

    # the march reads dpttrs from scipy.linalg.lapack when it runs
    monkeypatch.setattr(scipy.linalg.lapack, "dpttrs", counting_pttrs)
    run = solve_star(coeffs(), f, cfg)
    assert sum(columns) == (1 + rank) * cfg.steps
    want = _kirchhoff_march(coeffs(), f.values, cfg)
    assert np.abs(run.values - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    assert not np.ptp(run.values[..., 0], axis=-1).any()


def test_a_small_genuine_deviation_is_marched():
    # a deviation at 1e-10 of the data lies far above the rounding of forming
    # it, so it keeps its line and its relative accuracy: edge 0 less edge 2
    # is the march of the deviation alone, up to the rounding of the average,
    # eps / 1e-10 relative (2.6e-6 here; 9e-6 for the Kirchhoff march of the
    # same data)
    cfg = OracleConfig(n=3.0, h=1.0 / 16.0, dt=5e-3, t_final=0.1)
    grid = GridSpec(cutoff=3.0, points_per_edge=cfg.half_intervals + 1)
    r = grid.nodes()
    average, deviation = np.exp(-np.square(r)) * (1.0 + 0.3 * r), 1e-10 * r * np.exp(-r * r)
    f = StarFunction(StarGraph(3), grid, np.stack([average + deviation, average - deviation,
                                                   average]))
    run = solve_star(ou_coefficients(), f, cfg).values
    alone = _kirchhoff_march(ou_coefficients(), np.stack([deviation, -deviation, 0 * r]), cfg)
    want = alone[:, 0] - alone[:, 2]
    assert np.abs((run[:, 0] - run[:, 2]) - want).max() <= 1e-5 * np.abs(want).max()


@pytest.mark.parametrize("m", [2, 8])
@pytest.mark.parametrize("coeffs", [ou_coefficients, ho_coefficients])
def test_deviations_near_the_float_maximum_are_marched(coeffs, m, monkeypatch):
    # deviations of 0.5e308, rank 1 on two edges and rank 2 on eight, are
    # finite: the rank threshold, the march of C (which reaches sqrt(m)
    # times the deviations) and the OU lines' right-hand sides 2 S u (S up
    # to e^2.2 on this mesh) must stay finite too, which they do in the
    # units errors.check_data picks.  Every level is the direct Kirchhoff
    # march's, taken in units of 2^1000, where its stencil products stay
    # finite.
    cfg = OracleConfig(n=3.0, h=1.0 / 16.0, dt=5e-3, t_final=0.1)
    grid = GridSpec(cutoff=3.0, points_per_edge=cfg.half_intervals + 1)
    r = grid.nodes()
    one, two = 0.5e308 * np.minimum(1.0, r), 1e308 * (r * np.exp(-r * r))
    if m == 2:
        values, rank = np.stack([one, -one]), 1
    else:
        values, rank = np.stack([one, -one, two, -two, one, -one, 0 * r, 0 * r]), 2
    columns = []

    def counting_pttrs(d, e, b, **kwargs):
        columns.append(b.shape[1])
        return dpttrs(d, e, b, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpttrs", counting_pttrs)
    with np.errstate(over="raise", invalid="raise"):
        run = solve_star(coeffs(), StarFunction(StarGraph(m), grid, values), cfg)
    assert sum(columns) == (1 + rank) * cfg.steps
    want = _kirchhoff_march(coeffs(), values * 2.0**-1000, cfg) * 2.0**1000
    assert np.abs(run.values - want).max() <= 1e-12 * np.abs(want).max()


@given(
    coeffs=st.sampled_from([ou_coefficients, ho_coefficients]),
    profiles=st.booleans(),
    m=st.integers(min_value=1, max_value=8),
    k=st.one_of(st.sampled_from([-1021, -1000, -257, -256, 256, 257, 1000, 1020]),
                st.integers(min_value=-1021, max_value=1020)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_a_power_of_two_commutes_with_the_star_march(coeffs, profiles, m, k, seed):
    # the march is linear and a power of two is exact, so solve_star(2^k f)
    # is 2^k solve_star(f) bit for bit wherever the samples, in [0.6, 2.4],
    # stay normal and their vertex slopes (at most 1.8) finite: data outside
    # errors.DATA_WINDOW are marched in units that bring their peak into it.
    # In plain units the symmetrizing scale once took them past the float
    # maximum or into the subnormal range
    cfg = OracleConfig(n=3.0, h=1.0 / 16.0, dt=1e-2, t_final=0.1)
    grid = GridSpec(cutoff=3.0, points_per_edge=cfg.half_intervals + 1)
    slopes = np.random.default_rng(seed).uniform(0.2, 2.0, size=m)

    def data(scale):
        f = StarFunction.from_callables(StarGraph(m), grid, tuple(
            (lambda r, a=a: np.ldexp(1.5 + 0.9 * np.sin(a * np.asarray(r, dtype=float)), scale))
            for a in slopes))
        return f if profiles else StarFunction(f.graph, grid, f.values)

    want = np.ldexp(solve_star(coeffs(), data(0), cfg).values, k)
    assert np.array_equal(solve_star(coeffs(), data(k), cfg).values, want)


def test_subnormal_star_data_are_the_rescaled_data():
    # data with peak 2^-1060, marched in plain units, missed the march of
    # the same samples times 2^1060 by 2.4e-3 relative; in units they give
    # it bit for bit
    cfg = OracleConfig(n=3.0, h=1.0 / 16.0, dt=5e-3, t_final=0.1)
    grid = GridSpec(cutoff=3.0, points_per_edge=cfg.half_intervals + 1)
    r = grid.nodes()
    vals = np.stack([np.exp(-r * r) * (1.0 + a * r) for a in (-0.5, 0.2, 0.9)])
    tiny = np.ldexp(vals / np.abs(vals).max(), -1060)
    for coeffs in (ou_coefficients, ho_coefficients):
        got = solve_star(coeffs(), StarFunction(StarGraph(3), grid, tiny), cfg).values
        want = solve_star(coeffs(), StarFunction(StarGraph(3), grid, np.ldexp(tiny, 1060)), cfg)
        assert np.array_equal(got, np.ldexp(want.values, -1060))


def test_star_data_past_the_float_range_are_refused():
    # a profile that turns NaN past the data's grid is refused before the
    # deviations are factored, where an SVD would not converge.  Eight edges
    # of 5e307, whose sum passes the float maximum, are finite data: they are
    # marched in units, and every level is the direct Kirchhoff march's
    cfg = OracleConfig(n=3.0, h=1.0 / 16.0, dt=5e-3, t_final=0.1)
    short = GridSpec(cutoff=2.0, points_per_edge=33)

    def nan_past(r):
        r = np.asarray(r, dtype=float)
        return np.where(r > 2.5, np.nan, np.exp(-r * r))

    f = StarFunction.from_callables(StarGraph(3), short, (nan_past,) * 3)
    with pytest.raises(DomainError, match="^data must be finite, got nan$"):
        solve_star(ou_coefficients(), f, cfg)
    grid = GridSpec(cutoff=3.0, points_per_edge=cfg.half_intervals + 1)
    f = StarFunction.constant(StarGraph(8), grid, 5e307)
    with np.errstate(over="raise", invalid="raise"):
        run = solve_star(ou_coefficients(), f, cfg)
    want = _kirchhoff_march(ou_coefficients(), f.values * 2.0**-1000, cfg) * 2.0**1000
    assert np.abs(run.values - want).max() <= 1e-12 * np.abs(want).max()


def test_solutions_past_the_float_maximum_are_refused():
    # HO grows by up to e^{t / 2}: data of 1.75e308 keep within the growth
    # bound in the units errors.check_data picks, but pass the float
    # maximum before t = 0.2 in their own, so the march stops there rather
    # than store levels that would turn infinite when taken back
    cfg = OracleConfig(n=3.0, h=1.0 / 16.0, dt=5e-3, t_final=0.2)
    grid = GridSpec(cutoff=3.0, points_per_edge=cfg.half_intervals + 1)
    with pytest.raises(StabilityError, match="^solution became non-finite at step"):
        solve_line_dirichlet(ho_coefficients(), np.full(cfg.grid().size, 1.75e308), cfg)
    with pytest.raises(StabilityError, match="^solution became non-finite at step"):
        solve_star(ho_coefficients(), StarFunction.constant(StarGraph(3), grid, 1.75e308), cfg)


@pytest.mark.parametrize("coeffs", [ou_coefficients, ho_coefficients])
def test_star_solve_holds_to_the_reference_marches_at_bench_scale(coeffs):
    # the bench's mesh and step: 500 steps on 513 nodes per edge, enough for
    # a difference in how the step is solved to accumulate
    cfg = OracleConfig(n=8.0, h=1.0 / 64.0, dt=1e-3, t_final=0.5)
    grid = GridSpec(cutoff=8.0, points_per_edge=cfg.half_intervals + 1)
    profiles = tuple(
        (lambda r, a=0.4 * i - 1.0: np.exp(-np.square(r)) * (1.0 + a * r + 0.3 * a * r**3))
        for i in range(3)
    )
    f = StarFunction.from_callables(StarGraph(3), grid, profiles)
    run = solve_star(coeffs(), f, cfg)
    x = cfg.grid()
    lines = _stencil_march(extend_coefficients(coeffs()), _reflected_lines(profiles, x), cfg)
    for want in (_kirchhoff_march(coeffs(), f.values, cfg), lines[:, :, x.size // 2 :]):
        assert np.abs(run.values - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def _even_hermite(r):
    # levels 0, 2 and 4 of the oscillator: even sector only
    return sum(w * PolyGauss(hermite_coefficients(k), gauss=1.0)(r)
               for w, k in ((0.6, 0), (-0.3, 2), (0.05, 4)))


@pytest.mark.parametrize(
    "coeffs, edges",
    [
        (ou_coefficients, (lambda r: np.exp(-np.square(r)),)),
        (ou_coefficients, (lambda r: np.exp(-np.square(r)),) * 6),
        (ho_coefficients, (_even_hermite,) * 6),
        # odd content on edges 0 and 1 only; the other four carry none
        (ho_coefficients, (lambda r: _even_hermite(r) + 0.2 * r * np.exp(-0.5 * r * r),
                           lambda r: _even_hermite(r) - 0.2 * r * np.exp(-0.5 * r * r))
         + (_even_hermite,) * 4),
    ],
)
def test_edges_without_odd_content_keep_their_growth_bound(coeffs, edges):
    # an edge with no deviation from the average still has the average's
    # bound: the deviation alone sits at rounding level and would trip any
    # bound of its own
    cfg = OracleConfig(n=8.0, h=1.0 / 64.0, dt=1e-3, t_final=0.5)
    grid = GridSpec(cutoff=8.0, points_per_edge=cfg.half_intervals + 1)
    f = StarFunction.from_callables(StarGraph(len(edges)), grid, edges)
    run = solve_star(coeffs(), f, cfg)
    assert np.isfinite(run.values).all()


def test_growth_bound_is_per_edge_line():
    # a deviation from the edge average is held to its edge's bound: here
    # it grows e^{5} = 148-fold in a reaction zone the declared bound hides,
    # from 1e-3 to 0.15, which is far above its own initial sup but within
    # 1.05 times the sup of its edge's line, set by the average
    sneaky = CoefficientTriple(
        q=lambda x: np.full_like(np.asarray(x, dtype=float), 0.5),
        b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c=lambda x: np.where(np.asarray(x, dtype=float) > 12.5, 50.0, 0.0),
        c_sup_bound=0.0,
    )
    cfg = OracleConfig(n=16.0, h=1.0 / 8.0, dt=1e-3, t_final=0.1)
    grid = GridSpec(cutoff=16.0, points_per_edge=cfg.half_intervals + 1)

    def average(r):
        return np.exp(-((np.asarray(r, dtype=float) - 3.0) ** 2))

    def deviation(r):
        return 1e-3 * np.exp(-((np.asarray(r, dtype=float) - 14.0) ** 2))

    f = StarFunction.from_callables(
        StarGraph(3), grid,
        (lambda r: average(r) + deviation(r), lambda r: average(r) - deviation(r), average),
        continuous_at_vertex=True,
    )
    final = solve_star(sneaky, f, cfg).values[-1]
    assert 0.1 < np.abs(final[0] - final[2]).max() < 1.0


@given(
    m=st.integers(min_value=1, max_value=8),
    model=st.sampled_from(["ou", "ho", "heat"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_star_solve_equals_line_solves_property(m, model, seed):
    coeffs = {"ou": ou_coefficients, "ho": ho_coefficients, "heat": heat_coefficients}[model]()
    cfg = OracleConfig(n=2.0, h=1.0 / 8.0, dt=1e-2, t_final=0.1)
    grid = GridSpec(cutoff=2.0, points_per_edge=cfg.half_intervals + 1)
    rng = np.random.default_rng(seed)
    # smooth edges through one vertex value: a shared constant plus r times
    # a random cubic, under a Gaussian envelope
    base = rng.normal()
    cubics = rng.normal(size=(m, 4))
    profiles = tuple(
        (lambda r, p=p: (base + np.asarray(r) * np.polynomial.polynomial.polyval(r, p))
         * np.exp(-np.square(r)))
        for p in cubics
    )
    f = StarFunction.from_callables(StarGraph(m), grid, profiles)
    run = solve_star(coeffs, f, cfg)
    folded = _edge_by_edge(coeffs, profiles, cfg)
    assert np.abs(run.values - folded).max() <= 1e-13 * max(1.0, np.abs(folded).max())


def test_sample_backed_initial_data_needs_matching_mesh():
    cfg = OracleConfig(n=4.0, h=1.0 / 16.0, dt=5e-3, t_final=0.1)
    wrong = GridSpec(cutoff=4.0, points_per_edge=33)  # h = 1/8
    f = StarFunction.constant(StarGraph(2), wrong, 1.0)
    f_plain = StarFunction.from_samples(StarGraph(2), wrong, f.values, continuous_at_vertex=True)
    with pytest.raises(ShapeError):
        solve_star(ou_coefficients(), f_plain, cfg)

    right = GridSpec(cutoff=4.0, points_per_edge=65)
    g = StarFunction.from_samples(
        StarGraph(2), right, np.ones((2, 65)), continuous_at_vertex=True
    )
    run = solve_star(ou_coefficients(), g, cfg)
    assert run.values.shape[0] == cfg.steps + 1


def test_star_solve_refuses_vertex_discontinuous_data():
    # the reflected extension is defined only for vertex-continuous data
    cfg = OracleConfig(n=4.0, h=1.0 / 16.0, dt=5e-3, t_final=0.1)
    grid = GridSpec(cutoff=4.0, points_per_edge=65)
    profiled = StarFunction.from_callables(
        StarGraph(2), grid, (lambda r: np.exp(-np.square(r)), lambda r: 0.0 * np.asarray(r))
    )
    vals = np.ones((2, 65))
    vals[1] = 0.5
    sampled = StarFunction.from_samples(StarGraph(2), grid, vals)
    for f in (profiled, sampled):
        assert not f.continuous_at_vertex
        with pytest.raises(VertexContinuityError, match=r"disagree by .* \(tolerance 1e-09"):
            solve_star(ou_coefficients(), f, cfg)
    # continuity is read from the samples, so a constant needs no flag
    ones = np.ones((2, 65))
    asked = solve_star(ou_coefficients(), StarFunction.from_samples(
        StarGraph(2), grid, ones, continuous_at_vertex=True), cfg)
    read = solve_star(ou_coefficients(), StarFunction(StarGraph(2), grid, ones), cfg)
    assert np.array_equal(read.values, asked.values)


def test_truncation_study_confinement():
    cfg = OracleConfig(n=3.0, h=1.0 / 16.0, dt=5e-3, t_final=0.25)

    def prof(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * x * x)

    f = StarFunction.from_callables(StarGraph(2), GridSpec(3.0, 49), (prof, prof))
    rows = truncation_study(ou_coefficients(), f, cfg, [3.0, 4.0, 6.0])
    assert len(rows) == 2
    assert rows[0].n == 4.0 and rows[1].n == 6.0
    assert rows[0].t == rows[1].t == 0.25
    # the rows compare the final levels on the window [0, 3]
    short, long = (solve_star(ou_coefficients(), f, replace(cfg, n=n)).at_time(0.25).values
                   for n in (3.0, 4.0))
    assert rows[0].sup_defect == np.abs(long[:, : short.shape[1]] - short).max()
    assert rows[0].sup_defect > rows[1].sup_defect
    assert rows[1].sup_defect < 1e-3

    with pytest.raises(DomainError):
        truncation_study(ou_coefficients(), f, cfg, [4.0])
    with pytest.raises(DomainError):
        truncation_study(ou_coefficients(), f, cfg, [6.0, 4.0])
    # every radius is checked before the first march; NaN passes the order
    # check, since every comparison with it is false
    for radii, kind, why in (
            ([math.nan, 4.0], DomainError, "n must be positive and finite, got nan"),
            ([4.0, 1e300], ShapeError, "n/h \\+ 1 must be at most")):
        with pytest.raises(kind, match=why):
            truncation_study(ou_coefficients(), f, cfg, radii)


def test_tabulated_kernel_matches_closed_form():
    # values[i][a, b] is the kernel from x[a] to x[b]; the probes are nodes
    cfg = OracleConfig(n=6.0, h=1.0 / 32.0, dt=2e-3, t_final=0.5)
    table = tabulate_kernel(extend_coefficients(ou_coefficients()), cfg, [0.25, 0.5])
    assert np.array_equal(table.x, cfg.grid())
    worst = 0.0
    for i, t in enumerate((0.25, 0.5)):
        for x in (0.0, 0.5, -1.0):
            for y in (0.25, -0.75, 1.5):
                ix, iy = (round((v + cfg.n) / cfg.h) for v in (x, y))
                assert table.x[ix] == x and table.x[iy] == y
                got = float(table.values[i][ix, iy])
                want = float(line_kernel(OU, t, x, y))
                worst = max(worst, abs(got - want))
    assert worst < 5e-4
    with pytest.raises(DomainError):
        tabulate_kernel(extend_coefficients(ou_coefficients()), cfg, [0.1234])
    with pytest.raises(DomainError):
        tabulate_kernel(extend_coefficients(ou_coefficients()), cfg, [0.5, 0.25])
    for times in ([math.nan], [math.inf], [0.2, math.nan]):
        with pytest.raises(DomainError, match="finite"):
            tabulate_kernel(extend_coefficients(ou_coefficients()), cfg, times)


def test_tabulated_kernel_columns_are_line_solves():
    cfg = OracleConfig(n=2.0, h=1.0 / 8.0, dt=1e-2, t_final=0.2)
    coeffs = extend_coefficients(ho_coefficients())
    times = [0.1, 0.2]
    table = tabulate_kernel(coeffs, cfg, times)
    x = cfg.grid()
    assert not table.values[:, :, [0, -1]].any()  # absorbed at the ends
    for j in range(1, x.size - 1):
        hat = np.zeros_like(x)
        hat[j] = 1.0 / cfg.h
        run = solve_line_dirichlet(coeffs, hat, cfg)
        for ti, t in enumerate(times):
            assert np.array_equal(table.values[ti][:, j], run[round(t / cfg.dt)])


def test_parity_preservation_smoke():
    cfg = OracleConfig(n=6.0, h=1.0 / 32.0, dt=1e-3, t_final=0.2)

    def even(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-x * x)

    line = extend_coefficients(ho_coefficients())
    final = solve_line_dirichlet(line, even(cfg.grid()), cfg)[-1]
    assert np.abs(final - final[::-1]).max() < 1e-12


def test_line_solve_returns_every_level():
    cfg = OracleConfig(n=4.0, h=1.0 / 16.0, dt=5e-3, t_final=0.1)
    coeffs = extend_coefficients(heat_coefficients())
    x = cfg.grid()
    u0 = np.exp(-x * x)
    run = solve_line_dirichlet(coeffs, u0, cfg)
    # row k is the level at time k dt; row 0 keeps the data, ends included
    assert run.shape == (cfg.steps + 1, x.size)
    assert np.array_equal(run[0], u0)
    assert not run[1:, [0, -1]].any()
    # anything but one finite number per solver node is refused
    for bad in (u0[1:], u0[None, :]):
        with pytest.raises(ShapeError, match="one value per solver node"):
            solve_line_dirichlet(coeffs, bad, cfg)
    for bad in (np.exp, "u0"):
        with pytest.raises(DomainError, match="initial data must be an array of numbers"):
            solve_line_dirichlet(coeffs, bad, cfg)
    with pytest.raises(DomainError, match="^data must be finite, got nan$"):
        solve_line_dirichlet(coeffs, np.where(x == 0.0, np.nan, u0), cfg)
