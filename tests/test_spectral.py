import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import eigh

from stargraph.errors import MIN_TIME, DomainError, ShapeError, StabilityError
from stargraph.geometry import GridSpec, StarFunction, StarGraph
from stargraph.kernels import HARMONIC, OU
from stargraph.semigroup import apply
import stargraph.spectral
from stargraph.spectral import (
    PolyGauss,
    _edge_form,
    _lanczos_lowest,
    _sturm_count,
    _tridiagonal,
    apply_generator,
    eigenbasis,
    form_spectrum,
    hermite_coefficients,
    multiplicity,
    trace_closed_form,
    trace_partial,
)


def hermite(k, x):
    return PolyGauss(hermite_coefficients(k))(x)


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
    # numpy's physicists' Hermite series is an independent evaluation
    via_series = float(np.polynomial.hermite.hermval(x, [0.0] * k + [1.0]))
    assert via_series == pytest.approx(direct, rel=1e-10, abs=1e-8)


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
        out = apply_generator(OU, _one_edge(p)).profiles[0]
        want = p.scaled(-float(k))
        assert out.coeffs == want.coeffs


def _one_edge(profile):
    grid = GridSpec(cutoff=6.0, points_per_edge=65)
    return StarFunction.from_callables(StarGraph(1), grid, (profile,))


def test_oscillator_annihilates_ground_state_exactly():
    g = PolyGauss((1.0,), gauss=1.0)
    out = apply_generator(HARMONIC, _one_edge(g)).profiles[0]
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
            g = apply_generator(OU, b)
            assert np.array_equal(g.values, datum.eigenvalue * b.values)


def test_semigroup_scales_eigenfunctions():
    grid = GridSpec(cutoff=6.0, points_per_edge=513)
    datum = eigenbasis(3, 2, grid)
    b = datum.basis[0]
    u = apply(OU, 3, 0.7, b, grid)
    pred = math.exp(-2 * 0.7)
    window = grid.nodes() <= 4.0
    assert np.abs(u.values[:, window] - pred * b.values[:, window]).max() < 1e-10


def test_generator_kind_validation():
    grid = GridSpec(cutoff=2.0, points_per_edge=17)
    f = StarFunction.from_callables(StarGraph(1), grid, (PolyGauss((1.0,)),))
    # a model is named by its KernelSpec only, never by a string tag
    for kind in ("brownian", "ou"):
        with pytest.raises(DomainError):
            apply_generator(kind, f)
    # the constant is killed by the drift generator
    out = apply_generator(OU, f)
    assert np.abs(out.values).max() < 1e-12
    # only exact profiles are differentiated: samples and plain callables are refused
    sampled = StarFunction.from_samples(StarGraph(1), grid, f.values, continuous_at_vertex=True)
    plain = StarFunction.constant(StarGraph(1), grid, 1.0)
    for g in (sampled, plain):
        with pytest.raises(ShapeError):
            apply_generator(OU, g)


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
    with pytest.raises(ShapeError, match="points per edge must be an integer >= 3, got 2"):
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


@given(
    m=st.integers(min_value=1, max_value=8),
    points=st.integers(min_value=9, max_value=129),
    cutoff=st.floats(min_value=3.0, max_value=8.0),
    data=st.data(),
)
def test_counted_spectrum_equals_dense_reference(m, points, cutoff, data):
    # small counts take the Lanczos path, large ones the dense sector solve
    grid = GridSpec(cutoff=cutoff, points_per_edge=points)
    dim = 1 + m * (points - 1)
    count = data.draw(st.one_of(st.integers(1, max(1, dim // 10)), st.integers(1, dim)))
    dense = eigh(*form_matrix(m, grid), eigvals_only=True)[:count]
    got = form_spectrum(m, grid, count=count)
    assert got.shape == (count,)
    assert np.all(np.abs(got - dense) <= 1e-10 * np.maximum(np.abs(dense), 1.0))


def test_sturm_count_matches_dense_counts():
    grid = GridSpec(cutoff=6.0, points_per_edge=65)
    stiff_diag, stiff_off, mass_diag, mass_off = _edge_form(grid)
    for lo in (0, 1):  # the even pencil and the odd one, its vertex row deleted
        pencil = (stiff_diag[lo:], stiff_off[lo:], mass_diag[lo:], mass_off[lo:])
        values = eigh(_tridiagonal(*pencil[:2]), _tridiagonal(*pencil[2:]), eigvals_only=True)
        for tau in (-1.0, 0.5, 1.5, 2.5, 7.0, 40.0, 1e3, 1e7):
            assert _sturm_count(*pencil, tau) == np.sum(values < tau), (lo, tau)


def test_lanczos_grows_its_basis_for_clustered_values():
    # values 1e-3 apart converge slowly, so the iteration outgrows its first
    # 2 count + 30 basis rows; the values still match the dense solve
    n, count = 400, 3
    pencil = (1e-3 * np.arange(n), np.zeros(n - 1), np.ones(n), np.zeros(n - 1))
    got = _lanczos_lowest(*pencil, count)
    dense = eigh(_tridiagonal(*pencil[:2]), _tridiagonal(*pencil[2:]), eigvals_only=True)
    assert np.abs(got - dense[:count]).max() <= 1e-12


def test_missed_eigenvalue_is_refused(monkeypatch):
    # a Lanczos run that skips the lowest value returns as many values as
    # asked, and the inertia count finds one more below the last of them
    def skips_lowest(a_diag, a_off, b_diag, b_off, count):
        return _lanczos_lowest(a_diag, a_off, b_diag, b_off, count + 1)[1:]

    monkeypatch.setattr(stargraph.spectral, "_lanczos_lowest", skips_lowest)
    with pytest.raises(StabilityError, match="the even sector has 3 eigenvalues .* returned 2"):
        form_spectrum(3, GridSpec(cutoff=6.0, points_per_edge=65), count=4)


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
    # the diagonal integrals of the Gaussian in closed form, from MIN_TIME on
    for t in np.geomspace(MIN_TIME, 700.0, 61):
        for m in range(1, 9):
            closed = trace_closed_form(t, m)
            assert trace_partial(t, m, 40).kernel_trace == pytest.approx(closed, rel=2e-15)
    # the eigenvalue sum converges to the same number
    pair = trace_partial(0.5, 3, 200)
    assert pair.partial_sum == pytest.approx(trace_closed_form(0.5, 3), abs=1e-12)


def _partial_sum_loop(t, m, terms):
    return math.fsum(multiplicity(k, m) * math.exp(-k * t) for k in range(terms + 1))


@pytest.mark.parametrize("t", [0.05, 0.3, 1.0, 4.0, 30.0])
@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_partial_sum_is_the_term_by_term_sum(t, m):
    # two geometric series in closed form against the sum over the levels
    for terms in (0, 1, 2, 7, 40, 500, 15000):
        want = _partial_sum_loop(t, m, terms)
        assert trace_partial(t, m, terms).partial_sum == pytest.approx(want, rel=1e-14)


def test_trace_partial_edge_cases():
    for t in (MIN_TIME, 0.01, 1.0, 700.0):
        assert trace_partial(t, 3, 0).partial_sum == 1.0  # the constant eigenfunction alone
    # below the 0.05 a quadrature once needed, both sides still answer
    pair = trace_partial(0.01, 2, 10)
    assert pair.partial_sum == pytest.approx(_partial_sum_loop(0.01, 2, 10), rel=1e-14)
    assert pair.kernel_trace == pytest.approx(trace_closed_form(0.01, 2), rel=2e-15)
    for t in (math.nan, math.inf):
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
