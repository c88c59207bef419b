import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stargraph.errors import (
    InvalidGraphError,
    InvalidPointError,
    NumericalInputError,
    ShapeError,
    StencilError,
    VertexContinuityError,
)
from stargraph.geometry import (
    VERTEX_TOL,
    GridSpec,
    StarFunction,
    StarGraph,
    StarPoint,
    integrate_star,
    mu_density,
    simpson_weights,
    sup_distance,
    vertex_defects,
)


def test_star_graph_validation():
    assert StarGraph(1).m == 1
    assert StarGraph(7).m == 7
    for bad in (0, -2, 2.5, "3"):
        with pytest.raises(InvalidGraphError):
            StarGraph(bad)


def test_star_point_identifies_the_vertex():
    # radius zero is one point of the graph no matter which edge names it
    assert StarPoint(1, 0.0) == StarPoint(5, 0.0)
    assert hash(StarPoint(1, 0.0)) == hash(StarPoint(5, 0.0))
    assert StarPoint(2, 1.0) == StarPoint(2, 1.0)
    assert StarPoint(2, 1.0) != StarPoint(3, 1.0)
    with pytest.raises(InvalidPointError):
        StarPoint(1, -0.5)
    with pytest.raises(InvalidPointError):
        StarPoint(0, 1.0)


def test_grid_spec_basics():
    g = GridSpec(cutoff=6.0, points_per_edge=513)
    assert g.h == pytest.approx(6.0 / 512, rel=0, abs=0)
    nodes = g.nodes()
    assert nodes[0] == 0.0
    assert nodes[-1] == 6.0
    assert nodes.size == 513
    for bad in (1, 2.5, 3.0, True):
        with pytest.raises(ShapeError):
            GridSpec(cutoff=6.0, points_per_edge=bad)
    with pytest.raises(ShapeError):
        GridSpec(cutoff=-1.0, points_per_edge=65)
    assert GridSpec(cutoff=6.0, points_per_edge=np.int64(65)).nodes().size == 65


def test_mu_density_frozen_values():
    # vertex density is 2/(m sqrt(pi)): 1/sqrt(pi) for two edges
    assert mu_density(StarPoint(1, 0.0), 2) == pytest.approx(
        0.5641895835477563, rel=1e-15
    )
    assert mu_density(StarPoint(1, 0.0), 1) == pytest.approx(
        1.1283791670955126, rel=1e-15
    )
    # Gaussian decay along an edge
    assert mu_density(StarPoint(1, 3.0), 2) == pytest.approx(
        0.5641895835477563 * math.exp(-9.0), rel=1e-14
    )
    arr = mu_density(np.array([0.0, 1.0, 2.0]), 4)
    assert arr.shape == (3,)
    assert arr[0] == pytest.approx(2.0 / (4 * math.sqrt(math.pi)), rel=1e-15)
    for bad in (0, 2.5, True):
        with pytest.raises(InvalidGraphError):
            mu_density(1.0, bad)


def test_mu_is_a_probability_measure(grid):
    for m in (1, 2, 3, 5):
        one = StarFunction.constant(StarGraph(m), grid, 1.0)
        total = integrate_star(one)
        assert abs(total - 1.0) < 1e-10


def test_second_moment_of_mu(grid):
    # 0.5 for every edge count; frozen from adaptive quadrature of
    # m * (2/(m sqrt(pi))) x^2 exp(-x^2) on the half-line
    for m in (1, 2, 3):
        g = StarGraph(m)
        x = grid.nodes()
        f = StarFunction.from_samples(g, grid, np.tile(x * x, (m, 1)))
        assert integrate_star(f) == pytest.approx(0.5, abs=1e-10)


def test_simpson_weights_basics():
    w = simpson_weights(5, 0.5)
    assert w.sum() == pytest.approx(2.0, rel=1e-15)
    # classic 1-4-2-4-1 pattern scaled by h/3
    assert np.allclose(w, np.array([1, 4, 2, 4, 1]) * 0.5 / 3)
    with pytest.raises(ShapeError):
        simpson_weights(0, 0.1)
    with pytest.raises(ShapeError):
        simpson_weights(3, -0.1)


@given(
    coeffs=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
    n=st.integers(min_value=4, max_value=40),
)
def test_simpson_exact_on_cubics(coeffs, n):
    # both the pure-Simpson (even interval count) and the spliced variant
    # integrate cubics exactly up to rounding
    h = 2.0 / (n - 1)
    x = np.arange(n) * h
    poly = np.polynomial.polynomial
    vals = poly.polyval(x, coeffs)
    exact = poly.polyval(x[-1], poly.polyint(coeffs)) - 0.0
    w = simpson_weights(n, h)
    assert np.dot(w, vals) == pytest.approx(exact, abs=1e-12 * (1 + abs(exact)))


def test_star_function_construction(grid):
    g = StarGraph(2)
    x = grid.nodes()
    vals = np.stack([np.exp(-x), np.exp(-x)])
    f = StarFunction.from_samples(g, grid, vals, continuous_at_vertex=True)
    assert np.array_equal(f.values, vals)
    assert f.sup_norm() == 1.0

    # claiming continuity with mismatched vertex values must fail loudly
    bad = vals.copy()
    bad[1, 0] = 2.0
    with pytest.raises(VertexContinuityError):
        StarFunction.from_samples(g, grid, bad, continuous_at_vertex=True)
    # the vertex values may spread by 1e-9 times max(1, |vertex value|)
    bad[1, 0] = 1.0 + 1e-8
    with pytest.raises(VertexContinuityError):
        StarFunction.from_samples(g, grid, bad, continuous_at_vertex=True)
    bad[1, 0] = 1.0 + 1e-10
    near = StarFunction.from_samples(g, grid, bad, continuous_at_vertex=True)
    assert near.values[1, 0] == near.values[0, 0] == 1.0

    with pytest.raises(ShapeError):
        StarFunction.from_samples(g, grid, vals[:, :-1])
    with pytest.raises(NumericalInputError):
        StarFunction.from_samples(g, grid, np.full_like(vals, np.nan))


def test_from_callables_detects_continuity(grid):
    g = StarGraph(3)
    cont = StarFunction.from_callables(
        g, grid, tuple(lambda x: np.exp(-np.asarray(x) ** 2) for _ in range(3))
    )
    assert cont.continuous_at_vertex
    disc = StarFunction.from_callables(
        g,
        grid,
        (
            lambda x: np.ones_like(np.asarray(x, dtype=float)),
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        ),
    )
    assert not disc.continuous_at_vertex
    # one tolerance decides continuity, claimed or detected: a spread the
    # constructor accepts is detected as continuous, and snapped
    assert VERTEX_TOL == 1e-9
    for spread, continuous in ((5e-10, True), (2e-9, False)):
        f = StarFunction.from_callables(
            StarGraph(2), grid,
            (lambda x: np.ones_like(np.asarray(x, dtype=float)),
             lambda x, s=spread: np.full_like(np.asarray(x, dtype=float), 1.0 + s)),
        )
        assert f.continuous_at_vertex is continuous, spread
        assert bool(f.values[1, 0] == f.values[0, 0]) is continuous, spread


def test_evaluate_profiles(grid):
    g = StarGraph(2)
    f = StarFunction.from_callables(
        g, grid, (lambda x: np.asarray(x) * 0 + 1.0, lambda x: np.asarray(x) * 0 + 1.0)
    )
    out = f.evaluate_profiles(np.array([0.0, 2.0, 9.0]))
    assert out.shape == (2, 3)
    assert np.all(out == 1.0)
    sampled = StarFunction.from_samples(g, grid, f.values)
    with pytest.raises(ShapeError):
        sampled.evaluate_profiles(np.array([1.0]))


def test_csv_round_trip(tmp_path, grid, rng):
    g = StarGraph(3)
    vals = rng.normal(size=(3, grid.points_per_edge))
    vals[:, 0] = vals[0, 0]
    f = StarFunction.from_samples(g, grid, vals, continuous_at_vertex=True)
    path = tmp_path / "f.csv"
    f.to_csv(path)
    back = StarFunction.from_csv(path)
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(back.values, f.values)
    assert back.graph.m == 3
    assert back.continuous_at_vertex


def test_vertex_defects_measure_continuity_and_flux():
    # two edges sampled at h = 0.5 with outgoing slopes +1 and -1 balance exactly;
    # two slopes +1 leave flux 2, and shifting one edge leaves spread 1
    r = 0.5 * np.arange(5)
    continuity, flux = vertex_defects(np.stack([r, -r]), 0.5)
    assert continuity == 0.0 and flux == 0.0
    continuity, flux = vertex_defects(np.stack([r, r]), 0.5)
    assert continuity == 0.0 and flux == pytest.approx(2.0, rel=1e-15)
    continuity, _ = vertex_defects(np.stack([r, r + 1.0]), 0.5)
    assert continuity == 1.0
    with pytest.raises(StencilError):
        vertex_defects(np.stack([r[:2], -r[:2]]), 0.5)


def test_sup_distance_window(grid):
    g = StarGraph(2)
    x = grid.nodes()
    a = StarFunction.from_samples(g, grid, np.tile(np.zeros_like(x), (2, 1)))
    bump_far = np.where(x > 4.0, 1.0, 0.0)
    b = StarFunction.from_samples(g, grid, np.tile(bump_far, (2, 1)))
    assert sup_distance(a, b) == 1.0
    assert sup_distance(a, b, radius_max=3.0) == 0.0
    for bad in (-1.0, math.nan):
        with pytest.raises(InvalidPointError):
            sup_distance(a, b, radius_max=bad)
    with pytest.raises(ShapeError):
        sup_distance(a, StarFunction.constant(StarGraph(3), grid, 0.0))
