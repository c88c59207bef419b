import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stargraph.errors import (
    MAX_NODES,
    DomainError,
    ShapeError,
    StarGraphError,
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
    vertex_continuous,
    vertex_flux,
    vertex_slopes,
)
from stargraph.kernels import OU
from stargraph.semigroup import apply


def test_star_graph_validation():
    assert StarGraph(1).m == 1
    assert StarGraph(7).m == 7
    for bad in (0, -2, 2.5, "3", 2**40 + 1):
        with pytest.raises(DomainError, match="edge count must be an integer in 1..1099511627776"):
            StarGraph(bad)


def test_star_point_identifies_the_vertex():
    # radius zero is one point of the graph no matter which edge names it
    assert StarPoint(1, 0.0) == StarPoint(5, 0.0)
    assert hash(StarPoint(1, 0.0)) == hash(StarPoint(5, 0.0))
    assert StarPoint(2, 1.0) == StarPoint(2, 1.0)
    assert StarPoint(2, 1.0) != StarPoint(3, 1.0)
    with pytest.raises(DomainError, match="radius must be finite and >= 0, got -0.5"):
        StarPoint(1, -0.5)
    with pytest.raises(DomainError, match="edge index must be a positive integer, got 0"):
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
    with pytest.raises(DomainError, match="cutoff must be positive and finite, got -1.0"):
        GridSpec(cutoff=-1.0, points_per_edge=65)
    assert GridSpec(cutoff=6.0, points_per_edge=np.int64(65)).nodes().size == 65
    # a positive cutoff whose spacing underflows is no grid
    with pytest.raises(ShapeError, match=r"underflows to 0 \(cutoff=5e-324, points_per_edge=9\)"):
        GridSpec(cutoff=5e-324, points_per_edge=9)
    assert GridSpec(cutoff=5e-324, points_per_edge=2).h == 5e-324
    # more points than the node budget is no grid either; at the budget the
    # spec stands (its nodes are never built here)
    budget = r"points per edge must be at most 1.1e\+12 \(the node budget\), got 1.09951e\+12"
    with pytest.raises(ShapeError, match=budget):
        GridSpec(cutoff=6.0, points_per_edge=MAX_NODES + 1)
    assert GridSpec(cutoff=6.0, points_per_edge=MAX_NODES).points_per_edge == 2**40


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
        with pytest.raises(DomainError, match="edge count must be an integer in 1..1099511627776"):
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
    with pytest.raises(DomainError):
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
    # the vertex values may spread by 1e-9 times the data's peak, here 1
    bad[1, 0] = 1.0 + 1e-8
    with pytest.raises(VertexContinuityError):
        StarFunction.from_samples(g, grid, bad, continuous_at_vertex=True)
    bad[1, 0] = 1.0 + 1e-10
    near = StarFunction.from_samples(g, grid, bad, continuous_at_vertex=True)
    assert near.values[1, 0] == near.values[0, 0] == 1.0

    with pytest.raises(ShapeError):
        StarFunction.from_samples(g, grid, vals[:, :-1])
    with pytest.raises(DomainError, match="^data must be finite, got nan$"):
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


@given(
    m=st.integers(min_value=2, max_value=5),
    value=st.floats(min_value=1e-3, max_value=1e3) | st.floats(min_value=-1e3, max_value=-1e-3),
    share=st.floats(min_value=0.0, max_value=0.9) | st.floats(min_value=1.1, max_value=4.0),
)
def test_admission_routes_decide_continuity_alike(tmp_path_factory, m, value, share):
    # edges constant at one value, the last one nearer 0 by share * VERTEX_TOL
    # * peak, the data's max |sample| |value|: every way of building a
    # StarFunction reads the same continuity off the samples, and apply
    # accepts exactly the continuous
    graph, grid = StarGraph(m), GridSpec(cutoff=2.0, points_per_edge=9)
    levels = np.full(m, value)
    levels[-1] -= share * VERTEX_TOL * value
    vals = np.repeat(levels[:, None], grid.points_per_edge, axis=1)
    profiles = tuple(
        (lambda x, v=v: np.full_like(np.asarray(x, dtype=float), v)) for v in levels
    )
    routes = [
        StarFunction(graph, grid, vals),
        StarFunction.from_samples(graph, grid, vals),
        StarFunction.from_callables(graph, grid, profiles),
    ]
    path = tmp_path_factory.mktemp("route") / "f.csv"
    routes[0].to_csv(path)
    routes.append(StarFunction.from_csv(path))
    continuous = share < 1.0
    for f in routes:
        assert f.continuous_at_vertex is continuous
        if continuous:
            assert np.ptp(f.values[:, 0]) == 0.0
            apply(OU, m, 0.5, f, f.grid)
        else:
            with pytest.raises(VertexContinuityError):
                apply(OU, m, 0.5, f, f.grid)


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


def test_a_shared_profile_is_sampled_once(grid):
    # one callable on every edge (a constant, the ground state) is called once
    # per sampling, not once per edge
    m = 50
    calls = []

    def profile(x):
        calls.append(1)
        return np.exp(-np.square(x))

    f = StarFunction.from_callables(StarGraph(m), grid, (profile,) * m)
    assert len(calls) == 1
    u = apply(OU, m, 0.5, f, grid)
    assert len(calls) == 2
    assert np.all(f.values == f.values[0]) and np.all(u.values == u.values[0])


def test_a_profile_of_the_wrong_length_is_a_shape_error():
    grid = GridSpec(cutoff=2.0, points_per_edge=5)
    why = r"profile of edge {} returned shape \({},\) for radii of shape \({},\)"
    with pytest.raises(ShapeError, match=why.format(0, 3, 5)):
        StarFunction.from_callables(StarGraph(2), grid, (lambda x: np.zeros(3),) * 2)
    # right on the grid, wrong on apply's finer quadrature radii; one value
    # for all radii is a constant
    f = StarFunction.from_callables(StarGraph(2), grid, (lambda x: 1.0, lambda x: np.ones(5)))
    assert np.all(f.values == 1.0)
    with pytest.raises(ShapeError, match=why.format(1, 5, "\\d+")):
        apply(OU, 2, 0.5, f, grid)


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


def test_csv_refusals_name_the_file_and_row(tmp_path):
    # a field that does not parse, or an edge index below 1, is refused as a
    # malformed file (a StarGraphError), never as a bare ValueError
    header = "edge,radius,value\n"
    for text, refusal in ((header + "1,0,1\nx,1,1\n", "row 3 does not parse"),
                          (header + "1,0,zap\n", "row 2 does not parse"),
                          (header + "0,0,1\n0,1,1\n", "edge index 0 on row 2 is not >= 1")):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ShapeError, match=refusal) as caught:
            StarFunction.from_csv(path)
        assert isinstance(caught.value, StarGraphError)
        assert str(path) in str(caught.value)


def test_vertex_defects_measure_continuity_and_flux():
    # continuity is a check, not a measure: equal vertex samples pass and a
    # spread of 1 fails, so a StarFunction refuses it when built continuous
    r = 0.5 * np.arange(5)
    assert vertex_continuous(np.zeros(2), 0.0)
    assert not vertex_continuous(np.array([0.0, 1.0]), 1.0)
    with pytest.raises(VertexContinuityError):
        StarFunction.from_samples(
            StarGraph(2), GridSpec(cutoff=2.0, points_per_edge=5),
            np.stack([r, r + 1.0]), continuous_at_vertex=True,
        )
    # two edges sampled at h = 0.5 with outgoing slopes +1 and -1 balance
    # exactly, and two slopes +1 leave flux 2
    assert vertex_flux(np.stack([r, -r]), 0.5) == 0.0
    assert vertex_flux(np.stack([r, r]), 0.5) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(ShapeError, match="points per edge must be an integer >= 3, got 2"):
        vertex_flux(np.stack([r[:2], -r[:2]]), 0.5)
    # the stencil reads differences from the vertex value, so samples near the
    # float maximum overflow only where their slope does: 4 u1 alone would
    # overflow above 4.5e307
    with np.errstate(over="raise"):
        assert not vertex_slopes(np.full((2, 3), 1.7e308), 0.5).any()
        # a slope of 2^990 on samples 2^1023 + k 2^980 at h = 2^-10, exactly
        line = np.ldexp(1.0, 1023) + np.ldexp(np.arange(3.0), 980)
        assert vertex_slopes(line, 2.0**-10) == np.ldexp(1.0, 990)


def test_sup_distance_window(grid):
    g = StarGraph(2)
    x = grid.nodes()
    a = StarFunction.from_samples(g, grid, np.tile(np.zeros_like(x), (2, 1)))
    bump_far = np.where(x > 4.0, 1.0, 0.0)
    b = StarFunction.from_samples(g, grid, np.tile(bump_far, (2, 1)))
    assert sup_distance(a, b) == 1.0
    assert sup_distance(a, b, radius_max=3.0) == 0.0
    for bad in (-1.0, math.nan):
        with pytest.raises(DomainError, match="radius must be finite and >= 0"):
            sup_distance(a, b, radius_max=bad)
    with pytest.raises(ShapeError):
        sup_distance(a, StarFunction.constant(StarGraph(3), grid, 0.0))


def _normal_scales(*sizes):
    """The exponents k for which 2^k times every nonzero size stays normal and finite."""

    exponents = [math.frexp(abs(float(x)))[1] for x in sizes if x != 0.0]
    return -1021 - min(exponents), 1024 - max(exponents)


def test_vertex_continuity_is_read_relative_to_the_data_peak():
    # a jump as large as the data is refused at every scale: a floor of 1e-9
    # in absolute units took it as continuous below about 2^-30 and silently
    # overwrote the vertex
    graph, grid = StarGraph(2), GridSpec(cutoff=6.0, points_per_edge=33)
    jump = np.ones((2, 33))
    jump[1, 0] = 0.0
    # odd data +-1 whose vertex samples are +-1e-16, rounding of 0: continuous
    # at every scale, where 1e-9 * max(1, |vertex value|) refused them past 2^23
    odd = np.stack([np.ones(33), -np.ones(33)])
    odd[:, 0] = 1e-16, -1e-16
    for k in (0, -20, -40, -80, 20, 40, 60):
        f = StarFunction(graph, grid, np.ldexp(jump, k))
        assert not f.continuous_at_vertex, k
        with pytest.raises(VertexContinuityError, match="times the data's peak"):
            apply(OU, 2, 0.5, f, grid)
        g = StarFunction(graph, grid, np.ldexp(odd, k), continuous_at_vertex=True)
        assert g.values[1, 0] == g.values[0, 0] == math.ldexp(1e-16, k)
        assert apply(OU, 2, 0.5, g, grid).continuous_at_vertex
    # all-zero data are continuous
    assert StarFunction(graph, grid, np.zeros((2, 33))).continuous_at_vertex


@settings(max_examples=100)
@given(
    m=st.integers(min_value=2, max_value=4),
    base=st.just(0.0) | st.floats(min_value=0.01, max_value=1.0)
    | st.floats(min_value=-1.0, max_value=-0.01),
    peak=st.floats(min_value=0.5, max_value=4.0),
    share=st.floats(min_value=0.0, max_value=0.9) | st.floats(min_value=1.1, max_value=4.0),
    odd=st.booleans(),
    data=st.data(),
)
def test_vertex_continuity_is_scale_free(m, base, peak, share, odd, data):
    # edges of a peak >= |vertex value|, vertex samples spread by share *
    # VERTEX_TOL * peak around base (near 0 for odd data): the data times
    # any power of two that keeps them normal read the same continuity
    grid = GridSpec(cutoff=2.0, points_per_edge=5)
    vals = np.full((m, 5), peak)
    if odd:
        vals[1::2] *= -1.0
        base *= 1e-12
    vals[:, 0] = base
    vals[-1, 0] = base + share * VERTEX_TOL * peak
    lo, hi = _normal_scales(*vals.ravel())
    k = data.draw(st.integers(min_value=lo, max_value=hi))
    expect = StarFunction(StarGraph(m), grid, vals).continuous_at_vertex
    for scale in (lo, k, hi):
        f = StarFunction(StarGraph(m), grid, np.ldexp(vals, scale))
        assert f.continuous_at_vertex is expect, scale


def _two_grids_csv(path, h1, h2, n):
    rows = [f"{e},{j * h!r},1.0" for e, h in ((1, h1), (2, h2)) for j in range(n)]
    path.write_text("edge,radius,value\n" + "\n".join(rows) + "\n")
    return path


def test_csv_grids_are_compared_relative_to_their_size(tmp_path):
    # radii 0, 1e-13, 2e-13 and 0, 5e-13, 1e-12 are two grids, which an
    # absolute 1e-12 took as one with h = 1e-13
    path = _two_grids_csv(tmp_path / "f.csv", 1e-13, 5e-13, 3)
    with pytest.raises(ShapeError, match="different radial grids"):
        StarFunction.from_csv(path)
    # grids that differ by rounding of their size are one grid
    f = StarFunction.from_csv(_two_grids_csv(tmp_path / "g.csv", 1e-13, 1e-13 * (1 + 1e-12), 3))
    assert f.grid == GridSpec(cutoff=2e-13, points_per_edge=3)


@settings(max_examples=100)
@given(
    h=st.floats(min_value=0.01, max_value=100.0),
    n=st.integers(min_value=2, max_value=9),
    share=st.floats(min_value=0.0, max_value=0.9) | st.floats(min_value=1.1, max_value=4.0),
    data=st.data(),
)
def test_csv_grid_verdicts_are_scale_free(tmp_path_factory, h, n, share, data):
    # edge 2's spacing exceeds edge 1's by share * VERTEX_TOL: the files of
    # the grids times any power of two that keeps them normal read alike
    h2 = h * (1.0 + share * VERTEX_TOL)
    lo, hi = _normal_scales(h, (n - 1) * h2)
    k = data.draw(st.integers(min_value=lo, max_value=hi))
    folder = tmp_path_factory.mktemp("grids")
    verdicts = []
    for scale in (0, lo, k, hi):
        path = _two_grids_csv(folder / f"{scale}.csv", math.ldexp(h, scale),
                              math.ldexp(h2, scale), n)
        try:
            StarFunction.from_csv(path)
            verdicts.append("one grid")
        except ShapeError as exc:
            verdicts.append(str(exc).split(" in ")[0])
    assert verdicts == ["one grid" if share < 1.0 else "edges carry different radial grids"] * 4


def test_sup_distance_window_slack_is_relative():
    # on h = 1e-12, a window to 5e-11 ends at the node 5e-11: an absolute
    # slack of 1e-12 also counted the node at 5.1e-11
    grid = GridSpec(cutoff=1e-10, points_per_edge=101)
    x = grid.nodes()
    a = StarFunction(StarGraph(1), grid, np.zeros((1, 101)))
    b = StarFunction(StarGraph(1), grid, (x > x[50])[None].astype(float))
    assert sup_distance(a, b, radius_max=5e-11) == 0.0
    assert sup_distance(a, b, radius_max=5.1e-11) == 1.0


@settings(max_examples=100)
@given(
    cutoff=st.floats(min_value=0.01, max_value=100.0),
    points=st.integers(min_value=2, max_value=33),
    share=st.floats(min_value=-4.0, max_value=0.9) | st.floats(min_value=1.1, max_value=4.0),
    data=st.data(),
)
def test_sup_distance_windows_are_scale_free(cutoff, points, share, data):
    # a window ending share * VERTEX_TOL of its radius short of node j holds
    # it exactly when share < 1; the grid and window times any power of two
    # that keeps them normal give the same distance
    j = data.draw(st.integers(min_value=1, max_value=points - 1))
    graph = StarGraph(1)
    lo, hi = _normal_scales(cutoff / (points - 1), cutoff)
    k = data.draw(st.integers(min_value=lo, max_value=hi))
    distances = []
    for scale in (0, lo, k, hi):
        grid = GridSpec(cutoff=math.ldexp(cutoff, scale), points_per_edge=points)
        x = grid.nodes()
        a = StarFunction(graph, grid, np.zeros((1, points)))
        b = StarFunction(graph, grid, (x >= x[j])[None].astype(float))
        distances.append(sup_distance(a, b, radius_max=x[j] * (1.0 - share * VERTEX_TOL)))
    assert distances == [float(share < 1.0)] * 4
