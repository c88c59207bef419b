import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded

from stargraph.errors import DomainError, ShapeError, StabilityError
from stargraph.extension import (
    CoefficientTriple,
    LineFunction,
    extend_coefficients,
    ho_coefficients,
    ou_coefficients,
    reflect_extend,
)
from stargraph.geometry import GridSpec, StarFunction, StarGraph, vertex_slopes
from stargraph.kernels import OU, ou_line_kernel
from stargraph.oracle import (
    OracleConfig,
    solve_line_dirichlet,
    solve_star,
    tabulate_kernel,
    truncation_study,
)
from stargraph.semigroup import apply


def heat_coefficients():
    return CoefficientTriple(
        q=lambda x: np.full_like(np.asarray(x, dtype=float), 0.5),
        b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c_sup_bound=0.0,
    )


def test_config_validation():
    OracleConfig(n=8.0, h=1.0 / 64.0, dt=1e-3, theta=0.5, t_final=1.0)
    with pytest.raises(DomainError):
        OracleConfig(n=8.0, h=1.0 / 64.0, dt=1e-3, theta=0.4, t_final=1.0)
    with pytest.raises(DomainError):
        OracleConfig(n=8.0, h=1.0 / 64.0, dt=1e-3, theta=1.1, t_final=1.0)
    with pytest.raises(DomainError):
        OracleConfig(n=8.0, h=0.03, dt=1e-3, theta=0.5, t_final=1.0)  # n/h not integral
    with pytest.raises(DomainError):
        OracleConfig(n=8.0, h=1.0 / 64.0, dt=3e-4, theta=0.5, t_final=1.0)  # t/dt
    with pytest.raises(DomainError):
        OracleConfig(n=-8.0, h=1.0 / 64.0, dt=1e-3, theta=0.5, t_final=1.0)
    with pytest.raises(DomainError):
        OracleConfig(n=1e-12, h=1.0, dt=0.1, t_final=0.1)  # no interior node
    with pytest.raises(DomainError):
        # t_final/dt = 9.9999999 is within 1e-6 of 10, but 10 dt misses t_final by 1e-8
        OracleConfig(n=2.0, h=0.25, dt=0.100000001, t_final=1.0)


def test_grid_negation_symmetry():
    cfg = OracleConfig(n=6.0, h=1.0 / 32.0, dt=1e-3, theta=0.5, t_final=0.1)
    x = cfg.grid()
    assert np.array_equal(x, -x[::-1])
    assert x[x.size // 2] == 0.0
    assert x.size == 2 * cfg.half_intervals + 1


def test_heat_sine_mode_decay():
    # u_t = u_xx / 2 on [-n, n] with zero ends; the sine mode decays at the
    # exact rate exp(-pi^2 t / (8 n^2)), frozen to 0.019276571095877652 at n=8
    n = 8.0
    cfg = OracleConfig(n=n, h=1.0 / 64.0, dt=1e-3, theta=0.5, t_final=1.0)
    lam = 0.5 * (math.pi / (2 * n)) ** 2
    assert lam == pytest.approx(0.019276571095877652, rel=1e-15)

    def f0(x):
        return np.sin(math.pi * (x + n) / (2 * n))

    run = solve_line_dirichlet(extend_coefficients(heat_coefficients()), f0, cfg)
    exact = math.exp(-lam) * f0(run.x)
    assert np.abs(run.values[-1] - exact).max() < 1e-5


def test_crank_nicolson_beats_implicit_euler():
    # measure against a tiny-step reference on the SAME spatial grid so the
    # shared space discretization error cancels and only the time-stepping
    # order is visible
    n = 4.0
    kw = dict(n=n, h=1.0 / 32.0, t_final=0.5)

    def f0(x):
        return np.sin(math.pi * (x + n) / (2 * n))

    coeffs = extend_coefficients(heat_coefficients())
    ref_cfg = OracleConfig(dt=2.5e-5, theta=0.5, **kw)
    ref = solve_line_dirichlet(coeffs, f0, ref_cfg).values[-1]
    errs = {}
    for theta in (0.5, 1.0):
        cfg = OracleConfig(dt=2e-3, theta=theta, **kw)
        run = solve_line_dirichlet(coeffs, f0, cfg)
        errs[theta] = np.abs(run.values[-1] - ref).max()
    assert errs[0.5] < 1e-9  # second order in dt
    assert errs[1.0] > 1e-6  # first order in dt
    assert errs[0.5] < errs[1.0] / 1000


def test_peclet_guard():
    cfg = OracleConfig(n=8.0, h=0.25, dt=1e-3, theta=0.5, t_final=0.01)
    with pytest.raises(DomainError):
        # max |b| h / (2 q) = 8 * 0.25 / 1 = 2 at the boundary
        solve_line_dirichlet(extend_coefficients(ou_coefficients()), lambda x: 0 * x, cfg)


def test_growth_monitor_triggers():
    # reaction hidden beyond the coefficient sampling window: the declared
    # bound says no growth, the run grows like e^{50 t} and must abort
    sneaky = CoefficientTriple(
        q=lambda x: np.full_like(np.asarray(x, dtype=float), 0.5),
        b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c=lambda x: np.where(np.asarray(x, dtype=float) > 12.5, 50.0, 0.0),
        c_sup_bound=0.0,
    )
    cfg = OracleConfig(n=16.0, h=1.0 / 8.0, dt=1e-3, theta=0.5, t_final=0.1)

    def f0(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-((np.abs(x) - 14.0) ** 2))

    with pytest.raises(StabilityError):
        solve_line_dirichlet(extend_coefficients(sneaky), f0, cfg)

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
    with pytest.raises(StabilityError, match="line 0 "):
        solve_star(sneaky, f, cfg)


def test_singular_step_matrix_is_refused():
    # one interior node, where A = 1 - theta dt (c - 2 q / h^2) = 1 - 0.05 * 20 = 0
    react = CoefficientTriple(
        q=lambda x: np.full_like(np.asarray(x, dtype=float), 0.5),
        b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c=lambda x: np.full_like(np.asarray(x, dtype=float), 21.0),
        c_sup_bound=21.0,
    )
    cfg = OracleConfig(n=1.0, h=1.0, dt=0.1, theta=0.5, t_final=0.1)
    with pytest.raises(StabilityError, match="singular"):
        solve_line_dirichlet(react, lambda x: 1.0 - np.abs(x), cfg)


def test_star_solver_matches_kernel_quadrature():
    cfg = OracleConfig(n=8.0, h=1.0 / 64.0, dt=1e-3, theta=0.5, t_final=0.5)
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
    assert run.continuity_defects.max() < 1e-12


@pytest.mark.parametrize("m", [1, 3, 8])
@pytest.mark.parametrize("coeffs", [ou_coefficients, ho_coefficients])
def test_star_solve_equals_edge_by_edge_line_solves(coeffs, m):
    cfg = OracleConfig(n=3.0, h=1.0 / 16.0, dt=5e-3, theta=0.5, t_final=0.1)
    grid = GridSpec(cutoff=3.0, points_per_edge=cfg.half_intervals + 1)
    profiles = tuple(
        (lambda r, a=0.2 * i: np.exp(-np.square(r)) * (1.0 + a * np.asarray(r)))
        for i in range(m)
    )
    f = StarFunction.from_callables(StarGraph(m), grid, profiles)
    run = solve_star(coeffs(), f, cfg)

    x = cfg.grid()
    line_coeffs = extend_coefficients(coeffs())
    lines = [
        solve_line_dirichlet(line_coeffs, reflect_extend(f, i, x=x), cfg).values
        for i in range(1, m + 1)
    ]
    folded = np.stack(lines, axis=1)[:, :, x.size // 2 :]
    vertex = folded[:, :, 0]
    assert np.array_equal(run.values, folded)
    assert np.array_equal(run.continuity_defects, vertex.max(axis=1) - vertex.min(axis=1))
    assert np.array_equal(run.kirchhoff_defects, np.abs(vertex_slopes(folded, cfg.h).sum(axis=1)))


def _stencil_march(line_coeffs, u0, cfg):
    """Every level of the theta method on the lines ``u0`` (shape (k, len(x))),
    stepped as an explicit stencil right-hand side and one banded solve."""

    x = cfg.grid()
    h, dt, theta = cfg.h, cfg.dt, cfg.theta
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


@pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("coeffs", [ou_coefficients, ho_coefficients, heat_coefficients])
def test_march_matches_the_stencil_step(coeffs, theta):
    cfg = OracleConfig(n=3.0, h=1.0 / 16.0, dt=5e-3, theta=theta, t_final=0.1)
    x = cfg.grid()
    line_coeffs = extend_coefficients(coeffs())

    # nonzero at both ends, so the boundary samples enter the first step
    def f0(r):
        r = np.asarray(r, dtype=float)
        return (1.5 + np.cos(r)) * (1.0 + 0.3 * r)

    line = solve_line_dirichlet(line_coeffs, f0, cfg)
    want = _stencil_march(line_coeffs, f0(x)[None, :], cfg)[:, 0]
    assert f0(x[0]) != 0.0 and f0(x[-1]) != 0.0
    assert np.abs(line.values - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    m = 3
    grid = GridSpec(cutoff=3.0, points_per_edge=cfg.half_intervals + 1)
    profiles = tuple(
        (lambda r, a=0.2 * i: (1.5 + np.cos(r)) * (1.0 + a * np.asarray(r))) for i in range(m)
    )
    f = StarFunction.from_callables(StarGraph(m), grid, profiles)
    star = solve_star(coeffs(), f, cfg)
    u0 = np.stack([reflect_extend(f, i, x=x).values for i in range(1, m + 1)])
    want = _stencil_march(line_coeffs, u0, cfg)[:, :, x.size // 2 :]
    assert np.abs(star.values - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_sample_backed_initial_data_needs_matching_mesh():
    cfg = OracleConfig(n=4.0, h=1.0 / 16.0, dt=5e-3, theta=0.5, t_final=0.1)
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


def test_truncation_study_confinement():
    cfg = OracleConfig(n=3.0, h=1.0 / 16.0, dt=5e-3, theta=0.5, t_final=0.25)

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


def test_tabulated_kernel_matches_closed_form():
    cfg = OracleConfig(n=6.0, h=1.0 / 32.0, dt=2e-3, theta=0.5, t_final=0.5)
    table = tabulate_kernel(extend_coefficients(ou_coefficients()), cfg, [0.25, 0.5], stride=4)
    worst = 0.0
    for t in (0.25, 0.5):
        for x in (0.0, 0.5, -1.0):
            for y in (0.25, -0.75, 1.5):
                got = float(table.evaluate(t, x, y))
                want = float(ou_line_kernel(t, x, y))
                worst = max(worst, abs(got - want))
    assert worst < 5e-4
    for bad in (5, 2.0, True):
        with pytest.raises(DomainError):
            tabulate_kernel(extend_coefficients(ou_coefficients()), cfg, [0.25], stride=bad)
    with pytest.raises(DomainError):
        tabulate_kernel(extend_coefficients(ou_coefficients()), cfg, [0.1234], stride=4)
    with pytest.raises(DomainError):
        tabulate_kernel(extend_coefficients(ou_coefficients()), cfg, [0.5, 0.25], stride=4)


def test_tabulated_kernel_columns_are_line_solves():
    cfg = OracleConfig(n=2.0, h=1.0 / 8.0, dt=1e-2, theta=0.5, t_final=0.2)
    coeffs = extend_coefficients(ho_coefficients())
    times = [0.1, 0.2]
    table = tabulate_kernel(coeffs, cfg, times)
    x = cfg.grid()
    assert not table.values[:, :, [0, -1]].any()  # absorbed at the ends
    for j in range(1, x.size - 1):
        hat = np.zeros_like(x)
        hat[j] = 1.0 / cfg.h
        run = solve_line_dirichlet(coeffs, LineFunction(x, hat), cfg)
        for ti, t in enumerate(times):
            assert np.array_equal(table.values[ti][:, j], run.at_time(t).values)


def test_parity_preservation_smoke():
    cfg = OracleConfig(n=6.0, h=1.0 / 32.0, dt=1e-3, theta=0.5, t_final=0.2)

    def even(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-x * x)

    line = extend_coefficients(ho_coefficients())
    run = solve_line_dirichlet(line, even, cfg)
    final = run.values[-1]
    assert np.abs(final - final[::-1]).max() < 1e-12


def test_line_evolution_accessors():
    cfg = OracleConfig(n=4.0, h=1.0 / 16.0, dt=5e-3, theta=0.5, t_final=0.1)
    run = solve_line_dirichlet(
        extend_coefficients(heat_coefficients()), lambda x: np.exp(-x * x), cfg
    )
    assert len(run) == cfg.steps + 1
    snap = run[0]
    assert snap.values.shape == run.x.shape
    at = run.at_time(0.05)
    assert np.array_equal(at.values, run[10].values)
