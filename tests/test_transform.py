import math

import numpy as np
import pytest

from stargraph.errors import DomainError
from stargraph.geometry import (
    GridSpec,
    StarFunction,
    StarGraph,
    integrate_star,
    sup_distance,
)
from stargraph.kernels import HARMONIC, OU
from stargraph.semigroup import apply
from stargraph.spectral import PolyGauss
from stargraph.transform import (
    TRUST_RADIUS,
    flat_factor,
    from_flat,
    ground_state,
    similarity_defect,
    to_flat,
)


def test_flat_factor_values():
    assert flat_factor(2) == pytest.approx(math.pi ** -0.25, rel=1e-15)
    assert flat_factor(1) == pytest.approx(math.sqrt(2.0 / math.sqrt(math.pi)), rel=1e-15)
    with pytest.raises(ValueError):
        flat_factor(0)
    with pytest.raises(DomainError):
        flat_factor(2.5)


def test_unit_maps_to_ground_state():
    grid = GridSpec(cutoff=6.0, points_per_edge=257)
    one = StarFunction.constant(StarGraph(2), grid, 1.0)
    flat = to_flat(one)
    # the constant becomes pi^{-1/4} e^{-x^2/2} on a two-edge star
    assert flat.values[0, 0] == pytest.approx(math.pi ** -0.25, rel=1e-14)
    x = grid.nodes()
    want = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    assert np.abs(flat.values - want).max() < 1e-14


def test_transform_is_isometry():
    grid = GridSpec(cutoff=6.0, points_per_edge=513)
    m = 3
    profiles = tuple(
        PolyGauss((0.0, 0.3 * (i + 1)), gauss=1.0) for i in range(m)
    )
    f = StarFunction.from_callables(StarGraph(m), grid, profiles)
    flat = to_flat(f)
    # squared mu-norm of f equals the flat squared Lebesgue norm
    f2 = StarFunction.from_samples(f.graph, grid, f.values**2, continuous_at_vertex=True)
    lhs = integrate_star(f2)
    x = grid.nodes()
    h = grid.h
    w = np.ones_like(x)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    rhs = float(((flat.values**2) * w).sum() * h / 3.0)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_round_trip_and_trust_radius():
    grid = GridSpec(cutoff=8.0, points_per_edge=513)
    f = StarFunction.from_callables(
        StarGraph(2),
        grid,
        (PolyGauss((1.0,), gauss=1.0), PolyGauss((1.0,), gauss=1.0)),
    )
    back = from_flat(to_flat(f))
    window = grid.nodes() <= TRUST_RADIUS
    assert np.abs(back.values[:, window] - f.values[:, window]).max() < 1e-13


def test_profile_algebra_awareness():
    grid = GridSpec(cutoff=6.0, points_per_edge=129)
    g = ground_state(3, grid)
    flat = to_flat(g)
    for p in flat.profiles:
        assert isinstance(p, PolyGauss)
        assert p.gauss == 2.0
        assert p.coeffs == (flat_factor(3),)


def test_ground_state_is_fixed():
    grid = GridSpec(cutoff=6.0, points_per_edge=513)
    g = ground_state(3, grid)
    u = apply(HARMONIC, 3, 0.8, g, grid)
    window = grid.nodes() <= 5.0
    assert np.abs(u.values[:, window] - g.values[:, window]).max() < 1e-10


def test_similarity_defect_small():
    grid = GridSpec(cutoff=8.0, points_per_edge=513)
    f = StarFunction.from_callables(
        StarGraph(3),
        grid,
        tuple(PolyGauss((1.0, 0.2 * i), gauss=1.0) for i in range(3)),
    )
    defect = similarity_defect(3, 0.5, f, grid)
    assert defect < 1e-10


def test_similarity_defect_matches_manual():
    grid = GridSpec(cutoff=8.0, points_per_edge=513)
    f = StarFunction.from_callables(
        StarGraph(2),
        grid,
        (PolyGauss((1.0,), gauss=1.0), PolyGauss((1.0, 0.5), gauss=1.0)),
    )
    t = 0.7
    lhs = apply(HARMONIC, 2, t, f, grid)
    rhs = to_flat(apply(OU, 2, t, from_flat(f), grid))
    manual = sup_distance(lhs, rhs, radius_max=TRUST_RADIUS)
    assert similarity_defect(2, t, f, grid) == pytest.approx(manual, abs=1e-15)


def test_similarity_defect_of_data_near_the_float_maximum():
    # from_flat multiplies by exp(+x^2/2) out to apply's reach (about 8.6),
    # which overflowed the constant 1e300 with a RuntimeWarning; both routes
    # are linear, so they run in the power-of-two units of errors.check_data
    # and the defect is 1e300 times the constant 1's
    grid = GridSpec(cutoff=6.0, points_per_edge=65)
    one, big = (similarity_defect(3, 0.5, StarFunction.constant(StarGraph(3), grid, c), grid)
                for c in (1.0, 1e300))
    assert big / 1e300 == pytest.approx(one, rel=1e-6)


def test_a_shared_profile_is_wrapped_once():
    # to_flat and from_flat wrap each distinct profile once, so a profile
    # shared by the edges stays shared, and geometry samples it once per
    # grid: 1000 edges called it 1001 times, and held 1000 wrapped PolyGauss
    grid = GridSpec(cutoff=6.0, points_per_edge=65)
    m = 1000
    calls = []

    def profile(x):
        calls.append(1)
        return np.exp(-np.square(x))

    f = StarFunction.from_callables(StarGraph(m), grid, (profile,) * m)
    assert len(calls) == 1
    similarity_defect(m, 0.5, f, grid)
    assert len(calls) <= 1 + 2  # once per route's apply
    flat = to_flat(ground_state(m, grid))
    assert len({id(p) for p in flat.profiles}) == 1
    assert isinstance(flat.profiles[0], PolyGauss)
    assert len({id(p) for p in from_flat(f).profiles}) == 1
