import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import eigh

from stargraph.errors import (
    AssemblyError,
    DomainError,
    InvalidPointError,
    ShapeError,
    StencilError,
)
from stargraph.geometry import GridSpec, StarFunction, StarGraph
from stargraph.kernels import OU, KernelSpec, TabulatedLineKernel, ou_line_kernel
from stargraph.semigroup import apply
from stargraph.spectral import (
    PolyGauss,
    RotationOperator,
    _edge_form,
    _tridiagonal,
    apply_generator,
    eigenbasis,
    form_spectrum,
    hermite,
    hermite_coefficients,
    multiplicity,
    trace_closed_form,
    trace_partial,
)


def test_hermite_frozen():
    assert hermite(0, 0.5) == 1.0
    assert hermite(1, 0.5) == 1.0
    assert hermite(2, 0.5) == -1.0  # 4 x^2 - 2 at x = 1/2
    assert hermite_coefficients(0) == (1.0,)
    assert hermite_coefficients(1) == (0.0, 2.0)
    assert hermite_coefficients(3) == (0.0, -12.0, 0.0, 8.0)
    with pytest.raises(DomainError):
        hermite(-1, 0.0)
    with pytest.raises(DomainError):
        hermite_coefficients(2.5)


@given(k=st.integers(min_value=0, max_value=12), x=st.floats(-4, 4))
def test_hermite_parity_and_consistency(k, x):
    direct = float(hermite(k, x))
    mirrored = float(hermite(k, -x))
    assert mirrored == pytest.approx(((-1.0) ** k) * direct, rel=1e-12, abs=1e-9)
    via_coeffs = float(
        np.polynomial.polynomial.polyval(x, np.asarray(hermite_coefficients(k)))
    )
    assert via_coeffs == pytest.approx(direct, rel=1e-10, abs=1e-8)


def test_poly_gauss_algebra():
    p = PolyGauss((1.0, 0.0, 1.0), gauss=1.0)  # (1 + x^2) e^{-x^2/2}
    d = p.derivative()
    assert d.coeffs == (0.0, 1.0, 0.0, -1.0)
    assert d.gauss == 1.0
    # trailing zeros are stripped so equality is well defined
    assert PolyGauss((1.0, 0.0, 0.0)).coeffs == (1.0,)
    assert PolyGauss((0.0, 0.0)).is_zero()
    q = p.times_x()
    assert q.coeffs == (0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ShapeError):
        p.plus(PolyGauss((1.0,), gauss=0.0))
    # adding a zero profile ignores the gauss mismatch
    assert p.plus(PolyGauss((0.0,), gauss=0.0)).coeffs == p.coeffs

    x = np.array([0.0, 0.5, -1.3])
    want = (1 + x * x) * np.exp(-0.5 * x * x)
    assert np.allclose(p(x), want, rtol=1e-15)


def test_generator_eigenrelation_exact():
    # drift generator: (H_k)'' / 2 - x (H_k)' = -k H_k with integer
    # coefficient arithmetic, so the identity holds without rounding
    for k in range(13):
        p = PolyGauss(hermite_coefficients(k))
        out = apply_generator("ou", _one_edge(p)).profiles[0]
        want = p.scaled(-float(k))
        assert out.coeffs == want.coeffs


def _one_edge(profile):
    grid = GridSpec(cutoff=6.0, points_per_edge=65)
    return StarFunction.from_callables(StarGraph(1), grid, (profile,))


def test_oscillator_annihilates_ground_state_exactly():
    g = PolyGauss((1.0,), gauss=1.0)
    out = apply_generator("harmonic_oscillator", _one_edge(g)).profiles[0]
    assert out.is_zero()


def test_eigenbasis_structure():
    grid = GridSpec(cutoff=6.0, points_per_edge=129)
    even = eigenbasis(3, 4, grid)
    assert even.eigenvalue == -4.0
    assert even.multiplicity == 1
    assert len(even.basis) == 1
    assert even.basis[0].continuous_at_vertex

    odd = eigenbasis(3, 5, grid)
    assert odd.multiplicity == 2
    assert len(odd.basis) == 2
    for b in odd.basis:
        assert b.values[:, 0].max() == 0.0  # odd polynomials vanish at the vertex
        assert np.abs(b.values.sum(axis=0)).max() < 1e-9

    lonely = eigenbasis(1, 3, grid)
    assert lonely.multiplicity == 0
    assert lonely.basis == ()

    assert multiplicity(6, 5) == 1
    assert multiplicity(7, 5) == 4
    for k, m in ((-1, 3), (1.5, 3), (True, 3), (1, 0), (1, -1), (1, 2.5), (1, True)):
        with pytest.raises(DomainError):
            multiplicity(k, m)


def test_generator_on_eigenbasis_is_scaling():
    grid = GridSpec(cutoff=6.0, points_per_edge=257)
    for m, k in ((2, 1), (3, 2), (3, 5)):
        datum = eigenbasis(m, k, grid)
        for b in datum.basis:
            g = apply_generator("ou", b)
            assert np.array_equal(g.values, datum.eigenvalue * b.values)


def test_semigroup_scales_eigenfunctions():
    grid = GridSpec(cutoff=6.0, points_per_edge=513)
    datum = eigenbasis(3, 2, grid)
    b = datum.basis[0]
    u = apply(OU, 3, 0.7, b)
    pred = math.exp(-2 * 0.7)
    window = grid.nodes() <= 4.0
    assert np.abs(u.values[:, window] - pred * b.values[:, window]).max() < 1e-10


def test_generator_grid_path():
    grid = GridSpec(cutoff=6.0, points_per_edge=513)
    x = grid.nodes()
    vals = np.tile(np.exp(-0.5 * x * x), (2, 1))
    f = StarFunction.from_samples(StarGraph(2), grid, vals, continuous_at_vertex=True)
    out = apply_generator("harmonic_oscillator", f)
    # the ground state is annihilated; only stencil error remains
    assert np.abs(out.values).max() < 1e-6

    tiny = GridSpec(cutoff=1.0, points_per_edge=5)
    g = StarFunction.constant(StarGraph(1), tiny, 1.0)
    g_plain = StarFunction.from_samples(StarGraph(1), tiny, g.values, continuous_at_vertex=True)
    with pytest.raises(StencilError):
        apply_generator("ou", g_plain)


def test_generator_kind_validation():
    grid = GridSpec(cutoff=2.0, points_per_edge=17)
    f = StarFunction.constant(StarGraph(1), grid, 1.0)
    with pytest.raises(DomainError):
        apply_generator("brownian", f)
    table = TabulatedLineKernel(
        times=np.array([0.5]),
        x=np.linspace(-2, 2, 17),
        values=np.zeros((1, 17, 17)),
    )
    with pytest.raises(DomainError):
        apply_generator(KernelSpec(tag="tabulated", table=table), f)
    # KernelSpec tags map to the closed-form generators; the constant is
    # killed up to stencil rounding
    out = apply_generator(OU, f)
    assert np.abs(out.values).max() < 1e-12


def test_rotation_operator():
    grid = GridSpec(cutoff=3.0, points_per_edge=33)
    vals = np.zeros((3, 33))
    vals[0, :] = 1.0
    vals[:, 0] = 1.0
    f = StarFunction.from_samples(StarGraph(3), grid, vals, continuous_at_vertex=True)
    rot = RotationOperator(3)
    g = rot(f)
    assert np.array_equal(g.values[1], f.values[0])
    assert np.array_equal(g.values[0], f.values[2])
    # three rotations return the original labeling
    h = rot(rot(rot(f)))
    assert np.array_equal(h.values, f.values)
    with pytest.raises(ShapeError):
        RotationOperator(4)(f)
    assert np.array_equal(rot(f, np.int64(-1)).values, rot(rot(f)).values)
    for bad in (1.5, True):
        with pytest.raises(InvalidPointError):
            rot(f, bad)


def _on_star(diag, off, m):
    """The one-edge matrix placed on m edges that share the vertex node."""

    n_edge = diag.size - 1
    interior = _tridiagonal(diag[1:], off[1:])
    out = np.zeros((1 + m * n_edge, 1 + m * n_edge))
    out[0, 0] = m * diag[0]
    out[0, 1::n_edge] = out[1::n_edge, 0] = off[0]
    for e in range(m):
        block = slice(1 + e * n_edge, 1 + (e + 1) * n_edge)
        out[block, block] = interior
    return out


def form_matrix(m, grid):
    """Dense stiffness and mass of the Dirichlet form on the m-edge star: the reference.

    The form is half the invariant-measure integral of products of edge
    derivatives; the vertex node is a single shared degree of freedom, which
    encodes continuity and yields the flux condition naturally.  All edges
    share one element table, so symmetry under edge permutation is exact.
    """

    c_m = 2.0 / (m * math.sqrt(math.pi))
    stiff_diag, stiff_off, mass_diag, mass_off = _edge_form(grid)
    return (
        _on_star(c_m * stiff_diag, c_m * stiff_off, m),
        _on_star(c_m * mass_diag, c_m * mass_off, m),
    )


def test_form_matrix_invariants():
    grid = GridSpec(cutoff=6.0, points_per_edge=96)
    for m in (1, 3):
        stiff, mass = form_matrix(m, grid)
        dim = 1 + m * (grid.points_per_edge - 1)
        assert stiff.shape == mass.shape == (dim, dim)
        assert np.array_equal(stiff, stiff.T)
        assert np.array_equal(mass, mass.T)
        # sum of all mass entries is the measure of the truncated star
        assert mass.sum() == pytest.approx(math.erf(6.0), rel=1e-12)
        # constants are in the kernel of the form
        assert np.abs(stiff.sum(axis=1)).max() < 1e-13
        assert np.all(np.diag(mass) > 0)
    with pytest.raises(AssemblyError):
        form_matrix(2, GridSpec(cutoff=1.0, points_per_edge=2))
    for m in (0, -1, 2.5, True):
        with pytest.raises(DomainError):
            form_spectrum(m, grid)
    # the star has 1 + m (n - 1) eigenvalues: 1 + 3 * 95 at m=3
    for count in (0, -1, 287, 2.5, True):
        with pytest.raises(DomainError):
            form_spectrum(3, grid, count=count)
    assert form_spectrum(3, grid, count=286).size == 286


def test_form_spectrum_clusters():
    grid = GridSpec(cutoff=6.0, points_per_edge=128)
    vals = form_spectrum(1, grid, count=3)
    # a single edge has no odd levels: 0, 2, 4
    assert np.abs(vals - np.array([0.0, 2.0, 4.0])).max() < 2e-2

    vals2 = form_spectrum(2, grid, count=4)
    assert np.abs(vals2 - np.array([0.0, 1.0, 2.0, 3.0])).max() < 2e-2

    # eight edges on a fine grid, far beyond what a dense star solve of
    # size 8193 could do here: levels 0..3 with multiplicities 1, 7, 1, 7
    vals8 = form_spectrum(8, GridSpec(cutoff=6.0, points_per_edge=1025), count=16)
    want8 = np.array([0.0] + [1.0] * 7 + [2.0] + [3.0] * 7)
    assert np.abs(vals8 - want8).max() < 2e-2


def test_form_spectrum_equals_dense_reference():
    # the sector split is exact: the same eigenvalues as the dense star pencil
    grid = GridSpec(cutoff=6.0, points_per_edge=65)
    for m in (1, 2, 3, 5, 8):
        dense = eigh(*form_matrix(m, grid), eigvals_only=True)
        split = form_spectrum(m, grid)
        assert split.shape == dense.shape == (1 + 64 * m,)
        assert np.all(np.abs(split - dense) <= 1e-9 * np.maximum(np.abs(dense), 1.0))
        low = form_spectrum(m, grid, count=10)
        assert np.abs(low - dense[:10]).max() <= 1e-9


def test_trace_closed_form_frozen():
    assert trace_closed_form(1.0, 2) == pytest.approx(1.5819767068693265, rel=1e-15)
    assert trace_closed_form(1.0, 1) == pytest.approx(1.1565176427496657, rel=1e-15)
    assert trace_closed_form(0.5, 5) == pytest.approx(5.420046209539214, rel=1e-15)
    for t in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="time"):
            trace_closed_form(t, 2)
    for m in (0, -3, 2.5):
        with pytest.raises(DomainError):
            trace_closed_form(1.0, m)


def test_trace_identity():
    for m in (1, 2, 3, 5):
        for t in (0.5, 1.0, 2.0):
            pair = trace_partial(t, m, 40)
            closed = trace_closed_form(t, m)
            assert pair.kernel_trace == pytest.approx(closed, abs=1e-10)
    # the eigenvalue sum converges to the same number
    pair = trace_partial(0.5, 3, 200)
    assert pair.partial_sum == pytest.approx(trace_closed_form(0.5, 3), abs=1e-12)


def test_trace_partial_edge_cases():
    pair = trace_partial(1.0, 3, 0)
    assert pair.partial_sum == 1.0  # the constant eigenfunction alone
    for t in (0.01, math.nan, math.inf):
        with pytest.raises(DomainError, match="time"):
            trace_partial(t, 2, 10)
    with pytest.raises(DomainError):
        trace_partial(1.0, 0, 10)
    with pytest.raises(DomainError):
        trace_partial(1.0, 2.5, 10)
    with pytest.raises(DomainError):
        trace_partial(1.0, 2, -1)
    with pytest.raises(DomainError):
        trace_partial(1.0, 3, 2.5)
    with pytest.raises(DomainError):
        trace_partial(1.0, 3, True)
