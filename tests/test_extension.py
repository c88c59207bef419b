import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stargraph.errors import (
    ExtensionError,
    FoldError,
    InvalidPointError,
    ShapeError,
    StencilError,
    VertexContinuityError,
)
from stargraph.extension import (
    CoefficientTriple,
    LineFunction,
    even_odd_split,
    extend_coefficients,
    fold_to_star,
    ho_coefficients,
    ou_coefficients,
    reflect_extend,
    symmetric_line_grid,
)
from stargraph.geometry import GridSpec, MeasureKind, StarFunction, StarGraph, integrate_star


def indicator_star(grid, m=3):
    """Vertex-continuous stand-in for the (1, 0, 0) edge indicator."""

    vals = np.zeros((m, grid.points_per_edge))
    vals[0, :] = 1.0
    vals[:, 0] = 1.0  # all edges share the vertex value
    return vals


def test_reflect_frozen_values(coarse_grid):
    # three edges, f = 1 on edge 1 and 0 elsewhere away from the vertex:
    # the extension of edge 1 equals 2/3 - 1 = -1/3 on the negative axis,
    # the extension of edge 2 equals 2/3 - 0 = +2/3 there
    g = StarGraph(3)
    prof_one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    prof_zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    f = StarFunction.from_callables(
        g, coarse_grid, (prof_one, prof_zero, prof_zero), continuous_at_vertex=False
    )
    # profiles disagree at the vertex, so the reflection must refuse
    with pytest.raises(VertexContinuityError):
        reflect_extend(f, 1)

    vals = indicator_star(coarse_grid)
    f = StarFunction.from_samples(StarGraph(3), coarse_grid, vals, continuous_at_vertex=True)
    line1 = reflect_extend(f, 1)
    line2 = reflect_extend(f, 2)
    center = line1.x.size // 2
    assert line1.values[center + 5] == 1.0
    assert line1.values[center - 5] == pytest.approx(-1.0 / 3.0, rel=1e-15)
    assert line2.values[center + 5] == 0.0
    assert line2.values[center - 5] == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert line1.is_symmetric_grid()
    assert np.array_equal(reflect_extend(f, np.int64(2)).values, line2.values)
    for bad in (1.5, True):
        with pytest.raises(InvalidPointError):
            reflect_extend(f, bad)


def test_reflect_explicit_grid_needs_profiles(coarse_grid):
    f = StarFunction.from_samples(
        StarGraph(2),
        coarse_grid,
        np.ones((2, coarse_grid.points_per_edge)),
        continuous_at_vertex=True,
    )
    with pytest.raises(ShapeError):
        reflect_extend(f, 1, x=symmetric_line_grid(9, 0.5))

    fc = StarFunction.from_callables(
        StarGraph(2),
        coarse_grid,
        (lambda x: np.exp(-np.asarray(x) ** 2),) * 2,
    )
    x = symmetric_line_grid(17, 0.25)
    line = reflect_extend(fc, 1, x=x)
    # both edges agree, so the extension is even
    assert np.allclose(line.values, line.values[::-1], rtol=0, atol=0)


def test_symmetric_line_grid_exact_negation():
    x = symmetric_line_grid(257, 1.0 / 64.0)
    assert np.array_equal(x, -x[::-1])
    assert x[x.size // 2] == 0.0


def test_even_odd_split_frozen(coarse_grid):
    vals = indicator_star(coarse_grid)
    f = StarFunction.from_samples(StarGraph(3), coarse_grid, vals, continuous_at_vertex=True)
    even, odd = even_odd_split(f)
    interior = slice(1, None)
    assert np.allclose(even.values[:, interior], 1.0 / 3.0, rtol=1e-15)
    assert np.allclose(odd.values[0, interior], 2.0 / 3.0, rtol=1e-15)
    assert np.allclose(odd.values[1, interior], -1.0 / 3.0, rtol=1e-15)
    assert even.continuous_at_vertex


@given(
    m=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_even_odd_recombines_exactly(m, seed):
    rng = np.random.default_rng(seed)
    grid = GridSpec(cutoff=3.0, points_per_edge=33)
    vals = rng.normal(size=(m, 33))
    vals[:, 0] = vals[0, 0]
    f = StarFunction.from_samples(StarGraph(m), grid, vals, continuous_at_vertex=True)
    even, odd = even_odd_split(f)
    scale = max(1.0, np.abs(vals).max())
    # two roundings (subtract, then add back) keep us within a few ulps
    assert np.abs(even.values + odd.values - f.values).max() < 1e-13 * scale
    # odd part sums to zero over edges at every radius
    assert np.abs(odd.values.sum(axis=0)).max() < 1e-12 * max(1.0, np.abs(vals).max())
    # pointwise product of even and odd parts sums to zero across edges,
    # which is the integrand of their inner product
    prod = (even.values * odd.values).sum(axis=0)
    assert np.abs(prod).max() < 1e-12 * max(1.0, np.abs(vals).max() ** 2)


@given(
    m=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fold_inverts_reflection(m, seed):
    rng = np.random.default_rng(seed)
    grid = GridSpec(cutoff=2.0, points_per_edge=17)
    vals = rng.normal(size=(m, 17))
    vals[:, 0] = vals[0, 0]
    f = StarFunction.from_samples(StarGraph(m), grid, vals, continuous_at_vertex=True)
    lines = [reflect_extend(f, i) for i in range(1, m + 1)]
    back = fold_to_star(lines, grid=grid)
    assert np.array_equal(back.values, f.values)
    assert back.continuous_at_vertex


def test_fold_tolerances():
    x = symmetric_line_grid(9, 0.5)
    up = LineFunction(x, x.copy())  # slope +1 through the origin
    down = LineFunction(x, -x)
    # continuity violated: values at the origin agree (0), but shift one line
    shifted = LineFunction(x, x + 1.0)
    with pytest.raises(FoldError):
        fold_to_star([up, shifted], continuity_tol=1e-6)
    # flux violated: two edges each with outgoing slope +1
    with pytest.raises(FoldError):
        fold_to_star([up, up], kirchhoff_tol=1e-6)
    # the same pair is accepted when no tolerance is requested
    folded = fold_to_star([up, up])
    assert folded.graph.m == 2
    # and the matched pair balances exactly
    balanced = fold_to_star([up, down], kirchhoff_tol=1e-12)
    assert balanced.values.shape == (2, 9)


def test_fold_grid_validation():
    x = symmetric_line_grid(9, 0.5)
    ln = LineFunction(x, np.zeros_like(x))
    other = LineFunction(x + 0.25, np.zeros_like(x))  # asymmetric grid
    with pytest.raises(ShapeError):
        fold_to_star([ln, other])
    with pytest.raises(ShapeError):
        fold_to_star([ln], grid=GridSpec(cutoff=2.0, points_per_edge=9))
    with pytest.raises(StencilError):
        fold_to_star([LineFunction(np.array([-0.5, 0.0, 0.5]), np.zeros(3))])


def test_line_function_validation():
    with pytest.raises(ShapeError):
        LineFunction(np.array([0.0, 1.0, 0.5]), np.zeros(3))
    with pytest.raises(ShapeError):
        LineFunction(np.array([0.0, 0.5, 1.5]), np.zeros(3))
    with pytest.raises(ShapeError):
        LineFunction(np.array([0.0]), np.array([1.0]))


def test_line_function_csv(tmp_path, rng):
    x = symmetric_line_grid(17, 0.125)
    ln = LineFunction(x, rng.normal(size=x.size))
    path = tmp_path / "line.csv"
    ln.to_csv(path)
    back = LineFunction.from_csv(path)
    assert np.array_equal(back.x, ln.x)
    assert np.array_equal(back.values, ln.values)


def test_extend_coefficients_parity():
    ext = extend_coefficients(ou_coefficients())
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.array_equal(ext.q(x), ext.q(-x))
    assert np.array_equal(ext.b(x), -ext.b(-x))
    assert np.array_equal(ext.c(x), ext.c(-x))
    # drift points toward the origin on both sides
    assert np.all(ext.b(np.array([1.0, 3.0])) < 0)
    assert np.all(ext.b(np.array([-1.0, -3.0])) > 0)

    ho = extend_coefficients(ho_coefficients())
    assert ho.c_sup_bound == 0.5
    assert ho.c(np.array([0.0]))[0] == 0.5


def test_extend_coefficients_rejections():
    bad_drift = CoefficientTriple(
        q=lambda x: np.full_like(np.asarray(x, dtype=float), 0.5),
        b=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        c=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c_sup_bound=0.0,
    )
    with pytest.raises(ExtensionError):
        extend_coefficients(bad_drift)

    bad_diffusion = CoefficientTriple(
        q=lambda x: np.asarray(x, dtype=float) - 1.0,  # vanishes and goes negative
        b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c_sup_bound=0.0,
    )
    with pytest.raises(ExtensionError):
        extend_coefficients(bad_diffusion)

    lying_bound = CoefficientTriple(
        q=lambda x: np.full_like(np.asarray(x, dtype=float), 0.5),
        b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        c_sup_bound=0.1,
    )
    with pytest.raises(ExtensionError):
        extend_coefficients(lying_bound)


def test_reflected_average_is_preserved(coarse_grid, rng):
    # the reflection construction preserves the edge sum: summing the
    # extensions over edges gives an even function on the line
    m = 4
    vals = rng.normal(size=(m, coarse_grid.points_per_edge))
    vals[:, 0] = vals[0, 0]
    f = StarFunction.from_samples(StarGraph(m), coarse_grid, vals, continuous_at_vertex=True)
    lines = [reflect_extend(f, i).values for i in range(1, m + 1)]
    total = np.sum(lines, axis=0)
    assert np.allclose(total, total[::-1], rtol=0, atol=1e-12)
