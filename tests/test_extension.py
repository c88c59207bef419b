import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stargraph.errors import DomainError
from stargraph.extension import (
    CoefficientTriple,
    extend_coefficients,
    ho_coefficients,
    ou_coefficients,
    reflect,
)
from stargraph.geometry import GridSpec, StarFunction, StarGraph
from stargraph.oracle import OracleConfig, solve_star


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
    vals = indicator_star(coarse_grid)
    mirrored = reflect(vals)
    assert mirrored.shape == vals.shape
    assert mirrored[0, 5] == pytest.approx(-1.0 / 3.0, rel=1e-15)
    assert mirrored[1, 5] == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert mirrored[2, 5] == pytest.approx(2.0 / 3.0, rel=1e-15)
    # at the shared vertex value the reflection is the identity
    assert np.allclose(mirrored[:, 0], 1.0, rtol=1e-15, atol=0)


@given(
    m=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_reflect_is_an_involution_keeping_the_edge_sum(m, seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(m, 17))
    mirrored = reflect(vals)
    scale = max(1.0, np.abs(vals).max())
    assert np.abs(reflect(mirrored) - vals).max() < 1e-13 * scale
    assert np.abs(mirrored.sum(axis=0) - vals.sum(axis=0)).max() < 1e-13 * scale


@given(
    m=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fold_inverts_reflection(m, seed):
    # solve_star marches the edge average and the deviations from it, and
    # its level 0 is the samples themselves, bit for bit
    rng = np.random.default_rng(seed)
    grid = GridSpec(cutoff=2.0, points_per_edge=17)
    vals = rng.normal(size=(m, 17))
    vals[:, 0] = vals[0, 0]
    f = StarFunction.from_samples(StarGraph(m), grid, vals, continuous_at_vertex=True)
    cfg = OracleConfig(n=2.0, h=grid.h, dt=1e-3, t_final=1e-3)
    assert np.array_equal(solve_star(ou_coefficients(), f, cfg).values[0], f.values)


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
    with pytest.raises(DomainError, match="drift must vanish at the vertex"):
        extend_coefficients(bad_drift)

    bad_diffusion = CoefficientTriple(
        q=lambda x: np.asarray(x, dtype=float) - 1.0,  # vanishes and goes negative
        b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c_sup_bound=0.0,
    )
    with pytest.raises(DomainError, match="diffusion coefficient must be positive, got q = -1"):
        extend_coefficients(bad_diffusion)

    lying_bound = CoefficientTriple(
        q=lambda x: np.full_like(np.asarray(x, dtype=float), 0.5),
        b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        c_sup_bound=0.1,
    )
    with pytest.raises(DomainError, match="reaction coefficient exceeds its declared bound"):
        extend_coefficients(lying_bound)


def test_reflected_average_is_preserved(coarse_grid, rng):
    # the reflection keeps the edge sum, so the sum of the m extended lines
    # is an even function on the line
    vals = rng.normal(size=(4, coarse_grid.points_per_edge))
    assert np.allclose(reflect(vals).sum(axis=0), vals.sum(axis=0), rtol=0, atol=1e-12)
