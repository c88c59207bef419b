import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
import scipy.linalg.lapack
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv

from stargraph.errors import (
    DomainError,
    NumericalInputError,
    ShapeError,
    StabilityError,
    VertexContinuityError,
)
from stargraph.extension import (
    CoefficientTriple,
    extend_coefficients,
    ho_coefficients,
    ou_coefficients,
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
from stargraph.spectral import PolyGauss, hermite_coefficients


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

    x = cfg.grid()
    run = solve_line_dirichlet(extend_coefficients(heat_coefficients()), f0(x), cfg)
    exact = math.exp(-lam) * f0(x)
    assert np.abs(run[-1] - exact).max() < 1e-5


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
    ref = solve_line_dirichlet(coeffs, f0(ref_cfg.grid()), ref_cfg)[-1]
    errs = {}
    for theta in (0.5, 1.0):
        cfg = OracleConfig(dt=2e-3, theta=theta, **kw)
        run = solve_line_dirichlet(coeffs, f0(cfg.grid()), cfg)
        errs[theta] = np.abs(run[-1] - ref).max()
    assert errs[0.5] < 1e-9  # second order in dt
    assert errs[1.0] > 1e-6  # first order in dt
    assert errs[0.5] < errs[1.0] / 1000


def test_peclet_guard():
    cfg = OracleConfig(n=8.0, h=0.25, dt=1e-3, theta=0.5, t_final=0.01)
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
    cfg = OracleConfig(n=16.0, h=1.0 / 8.0, dt=1e-3, theta=0.5, t_final=0.1)

    def f0(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-((np.abs(x) - 14.0) ** 2))

    with pytest.raises(StabilityError):
        solve_line_dirichlet(extend_coefficients(sneaky), f0(cfg.grid()), cfg)

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
    cfg = OracleConfig(n=2.0, h=0.25, dt=0.01, theta=0.5, t_final=0.1)
    x = cfg.grid()
    with pytest.raises(DomainError, match="c_sup_bound \\* dt \\* steps = 1000 "):
        solve_line_dirichlet(steep, np.exp(-x * x), cfg)


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
        solve_line_dirichlet(react, 1.0 - np.abs(cfg.grid()), cfg)


def test_non_finite_solution_is_refused(monkeypatch):
    # a solve whose result turns NaN must stop the march, not pass the growth check
    def nan_gtsv(*args, **kwargs):
        out = dgtsv(*args, **kwargs)
        out[3][...] = math.nan
        return out

    # the march reads dgtsv from scipy.linalg.lapack when it runs
    monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", nan_gtsv)
    cfg = OracleConfig(n=2.0, h=0.25, dt=0.1, theta=0.5, t_final=0.2)
    with pytest.raises(StabilityError, match="solution became non-finite at step 1"):
        solve_line_dirichlet(heat_coefficients(), np.exp(-np.square(cfg.grid())), cfg)


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
    # every level meets at the vertex exactly, not just within a tolerance
    assert not np.ptp(run.values[..., 0], axis=-1).any()


@pytest.mark.parametrize("m", [1, 3, 8])
@pytest.mark.parametrize("coeffs", [ou_coefficients, ho_coefficients])
def test_star_solve_equals_edge_by_edge_line_solves(coeffs, m):
    # the sector march and the m reflected lines are the same scheme and
    # round differently; continuity holds by construction, and the flux sum
    # carries the value tolerance through m vertex stencils of weight 4/h
    cfg = OracleConfig(n=3.0, h=1.0 / 16.0, dt=5e-3, theta=0.5, t_final=0.1)
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
    """Every level of the theta method on the star itself, with no reflection.

    One vertex node is shared by the m edges, and its row is the
    finite-volume Kirchhoff balance du0/dt = (2 q(0) / (m h^2)) sum_i
    (u_i1 - u0) + c(0) u0; the centred stencil holds on each edge's nodes
    1..N-1, and u = 0 at r = n from the first step on.  Each step solves for
    the vertex by its Schur complement: one batched gtsv over the m edges,
    with the unit coupling column, and one scalar equation.
    """

    m, points = half.shape
    h, dt, theta = cfg.h, cfg.dt, cfg.theta
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


@pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("m", [1, 3, 8])
@pytest.mark.parametrize("coeffs", [ou_coefficients, ho_coefficients])
def test_star_solve_is_the_direct_kirchhoff_march(coeffs, m, theta):
    # the reflection rule and the Kirchhoff vertex row give the same discrete
    # scheme, not only the same limit
    cfg = OracleConfig(n=3.0, h=1.0 / 16.0, dt=5e-3, theta=theta, t_final=0.1)
    grid = GridSpec(cutoff=3.0, points_per_edge=cfg.half_intervals + 1)
    profiles = tuple(
        (lambda r, a=0.4 * i - 1.0: np.exp(-np.square(r)) * (1.0 + a * r + 0.3 * a * r**3))
        for i in range(m)
    )
    f = StarFunction.from_callables(StarGraph(m), grid, profiles)
    run = solve_star(coeffs(), f, cfg)
    want = _kirchhoff_march(coeffs(), f.values, cfg)
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
    cfg = OracleConfig(n=8.0, h=1.0 / 64.0, dt=1e-3, theta=0.5, t_final=0.5)
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
    cfg = OracleConfig(n=16.0, h=1.0 / 8.0, dt=1e-3, theta=0.5, t_final=0.1)
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
    theta=st.floats(min_value=0.5, max_value=1.0),
    model=st.sampled_from(["ou", "ho", "heat"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_star_solve_equals_line_solves_property(m, theta, model, seed):
    coeffs = {"ou": ou_coefficients, "ho": ho_coefficients, "heat": heat_coefficients}[model]()
    cfg = OracleConfig(n=2.0, h=1.0 / 8.0, dt=1e-2, theta=theta, t_final=0.1)
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


def test_star_solve_refuses_vertex_discontinuous_data():
    # the reflected extension is defined only for vertex-continuous data
    cfg = OracleConfig(n=4.0, h=1.0 / 16.0, dt=5e-3, theta=0.5, t_final=0.1)
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
    # values[i][a, b] is the kernel from x[a] to x[b]; the probes are nodes
    cfg = OracleConfig(n=6.0, h=1.0 / 32.0, dt=2e-3, theta=0.5, t_final=0.5)
    table = tabulate_kernel(extend_coefficients(ou_coefficients()), cfg, [0.25, 0.5])
    assert np.array_equal(table.x, cfg.grid())
    worst = 0.0
    for i, t in enumerate((0.25, 0.5)):
        for x in (0.0, 0.5, -1.0):
            for y in (0.25, -0.75, 1.5):
                ix, iy = (round((v + cfg.n) / cfg.h) for v in (x, y))
                assert table.x[ix] == x and table.x[iy] == y
                got = float(table.values[i][ix, iy])
                want = float(ou_line_kernel(t, x, y))
                worst = max(worst, abs(got - want))
    assert worst < 5e-4
    with pytest.raises(DomainError):
        tabulate_kernel(extend_coefficients(ou_coefficients()), cfg, [0.1234])
    with pytest.raises(DomainError):
        tabulate_kernel(extend_coefficients(ou_coefficients()), cfg, [0.5, 0.25])
    for times in ([math.nan], [math.inf], [0.2, math.nan]):
        with pytest.raises(NumericalInputError, match="finite"):
            tabulate_kernel(extend_coefficients(ou_coefficients()), cfg, times)


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
        run = solve_line_dirichlet(coeffs, hat, cfg)
        for ti, t in enumerate(times):
            assert np.array_equal(table.values[ti][:, j], run[round(t / cfg.dt)])


def test_parity_preservation_smoke():
    cfg = OracleConfig(n=6.0, h=1.0 / 32.0, dt=1e-3, theta=0.5, t_final=0.2)

    def even(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-x * x)

    line = extend_coefficients(ho_coefficients())
    final = solve_line_dirichlet(line, even(cfg.grid()), cfg)[-1]
    assert np.abs(final - final[::-1]).max() < 1e-12


def test_line_solve_returns_every_level():
    cfg = OracleConfig(n=4.0, h=1.0 / 16.0, dt=5e-3, theta=0.5, t_final=0.1)
    coeffs = extend_coefficients(heat_coefficients())
    x = cfg.grid()
    u0 = np.exp(-x * x)
    run = solve_line_dirichlet(coeffs, u0, cfg)
    # row k is the level at time k dt; row 0 keeps the data, ends included
    assert run.shape == (cfg.steps + 1, x.size)
    assert np.array_equal(run[0], u0)
    assert not run[1:, [0, -1]].any()
    # anything but one finite number per solver node is refused
    for bad in (u0[1:], u0[None, :], np.exp, "u0"):
        with pytest.raises((ShapeError, NumericalInputError)):
            solve_line_dirichlet(coeffs, bad, cfg)
    with pytest.raises(NumericalInputError):
        solve_line_dirichlet(coeffs, np.where(x == 0.0, np.nan, u0), cfg)
