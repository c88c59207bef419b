import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stargraph.errors import DomainError, StabilityError, VertexContinuityError
from stargraph.geometry import (
    GridSpec,
    StarFunction,
    StarGraph,
    integrate_star,
    simpson_weights,
    vertex_flux,
)
from stargraph.kernels import HARMONIC, OU, gaussian_form, line_kernel
from stargraph.semigroup import BAND_EXPONENT, TOLERANCE, _blocks, _column_factors
from stargraph.semigroup import _distinct_edges, _shared_factors, apply, evolve_sequence
from stargraph.transform import ground_state

# h = 1/64 puts the probe radii 0.5, 1, 2 on grid nodes
GRID8 = GridSpec(cutoff=8.0, points_per_edge=513)


def gauss_profile(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-x * x)


def xgauss_profile(x):
    x = np.asarray(x, dtype=float)
    return x * np.exp(-x * x)


def zero_profile(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def test_single_edge_frozen_values():
    # adaptive-quadrature values of the half-line evolution of e^{-y^2}
    # (direct plus reflected kernel, full diagonal weight at m=1)
    f = StarFunction.from_callables(StarGraph(1), GRID8, (gauss_profile,))
    u = apply(OU, 1, 0.5, f, GRID8)
    nodes = GRID8.nodes()
    j0 = 0
    j1 = int(round(1.0 / GRID8.h))
    assert u.values[0, j0] == pytest.approx(0.7827514527487522, abs=1e-11)
    assert u.values[0, j1] == pytest.approx(0.6247899683377954, abs=1e-11)
    u2 = apply(OU, 1, 1.0, f, GRID8)
    j2 = int(round(2.0 / GRID8.h))
    assert u2.values[0, j2] == pytest.approx(0.5477938964301402, abs=1e-11)
    assert nodes[j2] == 2.0

    uh = apply(HARMONIC, 1, 0.5, f, GRID8)
    assert uh.values[0, j1] == pytest.approx(0.45974341406550534, abs=1e-11)


def test_three_edge_frozen_values():
    # initial data y e^{-y^2} on edge 1 only (vertex-continuous);
    # frozen from adaptive quadrature of the direct/reflected combination
    f = StarFunction.from_callables(
        StarGraph(3), GRID8, (xgauss_profile, zero_profile, zero_profile)
    )
    u = apply(OU, 3, 0.5, f, GRID8)
    j1 = int(round(1.0 / GRID8.h))
    assert u.values[0, j1] == pytest.approx(0.25254314106295694, abs=1e-9)
    assert u.values[1, j1] == pytest.approx(0.02035792065880372, abs=1e-9)
    assert u.values[2, j1] == pytest.approx(0.02035792065880372, abs=1e-9)
    # the evolved function is continuous at the vertex with value frozen
    # from the same quadrature
    assert u.values[0, 0] == pytest.approx(0.09161182425028433, abs=1e-9)
    assert u.continuous_at_vertex
    vertex_col = u.values[:, 0]
    assert vertex_col.max() == vertex_col.min()


def test_requires_vertex_continuity(grid):
    vals = np.zeros((2, grid.points_per_edge))
    vals[0, :] = 1.0
    f = StarFunction.from_samples(StarGraph(2), grid, vals)
    # the refusal names the measured vertex spread and the tolerance
    with pytest.raises(VertexContinuityError, match=r"disagree by 1\.000e\+00 \(tolerance 1e-09"):
        apply(OU, 2, 0.5, f, grid)
    # continuity is read from the samples: a constant built with no flag is
    # accepted and evolves bit for bit as when continuity is asked for
    graph, coarse, ones = StarGraph(3), GridSpec(6.0, 65), np.ones((3, 65))
    asked = apply(OU, 3, 0.5, StarFunction(graph, coarse, ones, continuous_at_vertex=True),
                  coarse)
    for f in (StarFunction(graph, coarse, ones), StarFunction.from_samples(graph, coarse, ones)):
        assert f.continuous_at_vertex
        assert np.array_equal(apply(OU, 3, 0.5, f, coarse).values, asked.values)


def test_conservativity_smoke(grid):
    one = StarFunction.constant(StarGraph(3), grid, 1.0)
    u = apply(OU, 3, 0.7, one, grid)
    assert abs(u.values - 1.0).max() < 1e-10
    # an output grid far past the input's cutoff still sees all kernel mass
    one = StarFunction.constant(StarGraph(3), GridSpec(6.0, 129), 1.0)
    u = apply(OU, 3, 0.5, one, GridSpec(20.0, 129))
    assert abs(u.values - 1.0).max() < 1e-8


def test_an_output_grid_far_past_the_data():
    # rows whose band centres lie past the sample-backed data take the last
    # lattice column as their blocks' centre column; their factors stay
    # finite, and rows whose band misses the data read 0
    data = GridSpec(cutoff=6.0, points_per_edge=61)
    f = StarFunction(StarGraph(2), data, np.ones((2, 61)))
    vertex = apply(OU, 2, 0.05, f, data).values[0, 0]
    for far in (GridSpec(1e308, 9), GridSpec(1e300, 33), GridSpec(7.0, 29)):
        with np.errstate(over="ignore"):
            u = apply(OU, 2, 0.05, f, far).values
        assert np.all(np.isfinite(u)), far
        assert u[0, 0] == pytest.approx(vertex, abs=1e-14), far
        assert np.all(u[:, far.nodes() > 6.0 + 3.0] == 0.0), far


def test_positivity_and_contraction(grid, rng):
    vals = np.abs(rng.normal(size=(3, grid.points_per_edge)))
    vals[:, 0] = vals[0, 0]
    f = StarFunction.from_samples(StarGraph(3), grid, vals, continuous_at_vertex=True)
    u = apply(OU, 3, 0.4, f, grid)
    assert u.values.min() > -1e-12
    assert u.sup_norm() <= f.sup_norm() * (1 + 1e-12)


def test_invariant_measure_smoke(grid):
    # x^2 e^{-(x-2)^2} on one edge; frozen from adaptive quadrature against
    # the edge density 2/(3 sqrt(pi)) e^{-x^2}
    def bump(x):
        x = np.asarray(x, dtype=float)
        return x * x * np.exp(-((x - 2.0) ** 2))

    f = StarFunction.from_callables(StarGraph(3), grid, (bump, zero_profile, zero_profile))
    base = integrate_star(f)
    assert base == pytest.approx(0.07965507260269152, abs=1e-9)
    u = apply(OU, 3, 0.7, f, grid)
    assert integrate_star(u) == pytest.approx(base, abs=1e-9)


def test_rotation_commutes_with_the_flow(grid, rng):
    vals = rng.normal(size=(4, grid.points_per_edge))
    vals[:, 0] = vals[0, 0]
    f = StarFunction.from_samples(StarGraph(4), grid, vals, continuous_at_vertex=True)

    def rot(u):  # cyclic relabeling of the edges
        return StarFunction.from_samples(
            u.graph, u.grid, np.roll(u.values, 1, axis=0), continuous_at_vertex=True
        )

    left = apply(OU, 4, 0.5, rot(f), grid)
    right = rot(apply(OU, 4, 0.5, f, grid))
    # the edge sum is reordered by the rotation, so agreement is up to
    # a few ulps rather than bitwise
    assert np.abs(left.values - right.values).max() < 1e-14


def test_semigroup_law_smoke(grid):
    f = StarFunction.from_callables(
        StarGraph(2), grid, (gauss_profile, gauss_profile), continuous_at_vertex=True
    )
    direct = apply(OU, 2, 0.75, f, grid)
    # evolve to s, then from the sampled result to s + t
    mid = apply(OU, 2, 0.25, f, grid)
    composed = apply(OU, 2, 0.5, mid, grid)
    window = grid.nodes() <= 4.0
    defect = np.abs(direct.values[:, window] - composed.values[:, window]).max()
    assert defect < 1e-7


def test_vertex_defect_paths():
    g = ground_state(3, GRID8)
    sampled = StarFunction.from_samples(
        StarGraph(3), GRID8, g.values, continuous_at_vertex=True
    )
    assert np.ptp(sampled.values[:, 0]) == 0.0
    # one-sided stencil error only
    assert vertex_flux(sampled.values, sampled.grid.h) < 1e-4


def test_evolve_sequence_validation(grid):
    one = StarFunction.constant(StarGraph(2), grid, 1.0)
    with pytest.raises(DomainError, match="times must be strictly increasing"):
        evolve_sequence(OU, 2, [0.5, 0.5], one, grid)
    with pytest.raises(DomainError, match="times must be strictly increasing"):
        evolve_sequence(OU, 2, [1.0, 0.5], one, grid)
    # each time gets apply's own check and message
    with pytest.raises(DomainError, match="time must be >= 1e-08, got 0.0"):
        evolve_sequence(OU, 2, [0.0, 0.5], one, grid)
    snaps = evolve_sequence(OU, 2, [0.25, 0.75], one, grid)
    assert len(snaps) == 2
    assert abs(snaps[1].values - 1.0).max() < 1e-10


def test_output_flags(grid):
    f = StarFunction.from_callables(StarGraph(2), grid, (gauss_profile,) * 2)
    u = apply(HARMONIC, 2, 0.3, f, grid)
    assert u.continuous_at_vertex
    assert not u.has_profiles()


def dense_apply(spec, m, t, f):
    """Every kernel value on the input grid padded by 6.5 units: the reference contraction."""

    refine = 2 if f.has_profiles() else 1  # apply samples profiles twice as finely
    hq = f.grid.h / refine
    n_base = (f.grid.points_per_edge - 1) * refine + 1
    n_pad = math.ceil(6.5 / hq)
    n_pad += (n_base - 1 + n_pad) % 2
    y = np.arange(n_base + n_pad) * hq
    if f.has_profiles():
        vals = f.evaluate_profiles(y)
    else:
        vals = np.zeros((m, y.size))
        vals[:, : f.grid.points_per_edge] = f.values
    fw = vals * simpson_weights(y.size, hq)
    x = f.grid.nodes()
    k_direct = line_kernel(spec, t, x[:, None], y[None, :])
    k_refl = line_kernel(spec, t, x[:, None], -y[None, :])
    same = (k_direct - k_refl) @ fw.T
    shared = (2.0 / m) * (k_refl @ fw.sum(axis=0))
    return (same + shared[:, None]).T


# apply refuses a kernel narrower than R_STAR quadrature steps, where the
# predicted Simpson error (2/3) exp(-π² r² / 2) exceeds its tolerance 1e-8
R_STAR = math.sqrt(2.0 * math.log(2e8 / 3.0)) / math.pi


def width_over_step(spec, t, f):
    """r = σ / hq of apply's quadrature: profiles are sampled at half their grid step."""

    q = gaussian_form(spec, t)[2]
    return math.sqrt(0.5 / q) / (f.grid.h / (2 if f.has_profiles() else 1))


def time_at_width(spec, r, f):
    """The time at which apply's kernel on f is r quadrature steps wide (bisection in log t)."""

    lo, hi = math.log(1e-8), math.log(10.0)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if width_over_step(spec, math.exp(mid), f) < r else (lo, mid)
    return math.exp(hi)


def test_apply_refuses_what_it_cannot_resolve():
    # data the semigroup fixes (constant 1 for OU, the ground state for HO)
    # on either side of R_STAR = 1.9106: refused just below it, and within
    # 1e-8 of the data just above it, on both backings
    grid = GridSpec(cutoff=8.0, points_per_edge=513)
    inner = grid.nodes() <= 4.0
    fixed = ((OU, StarFunction.constant(StarGraph(3), grid, 1.0)),
             (HARMONIC, ground_state(3, grid)))
    for spec, profiled in fixed:
        for f in (profiled, StarFunction(profiled.graph, grid, profiled.values)):
            below, above = time_at_width(spec, 1.90, f), time_at_width(spec, 1.92, f)
            with pytest.raises(DomainError, match=(
                    "too narrow for the quadrature: its width is r = 1.9 quadrature steps, "
                    "which predicts a relative error of 1.22e-08, above the tolerance 1e-08")):
                apply(spec, 3, below, f, grid)
            u = apply(spec, 3, above, f, grid).values
            assert np.abs(u - f.values)[:, inner].max() <= 1e-8 * f.sup_norm()


def test_apply_equals_dense_reference(rng):
    # the banded contraction skips only kernel values below e^-40 of their
    # row's peak, so it agrees with the dense one to rounding; below R_STAR
    # apply refuses instead
    for points in (65, 513):
        grid = GridSpec(cutoff=6.0, points_per_edge=points)
        for m in (1, 2, 3, 8):
            graph = StarGraph(m)
            vals = rng.normal(size=(m, points))
            vals[:, 0] = vals[0, 0]
            profiles = tuple(
                (lambda x, a=0.4 * i: (1.0 + a * np.asarray(x)) * np.exp(-0.2 * np.asarray(x) ** 2))
                for i in range(m)
            )
            inputs = (
                StarFunction.from_samples(graph, grid, vals, continuous_at_vertex=True),
                StarFunction.from_callables(graph, grid, profiles, continuous_at_vertex=True),
            )
            for spec in (OU, HARMONIC):
                for t in (1e-3, 1e-2, 0.1, 1.0, 5.0):
                    for f in inputs:
                        if width_over_step(spec, t, f) < R_STAR:
                            with pytest.raises(DomainError, match="too narrow for the quadrature"):
                                apply(spec, m, t, f, grid)
                            continue
                        got = apply(spec, m, t, f, grid).values
                        want = dense_apply(spec, m, t, f)
                        scale = max(1.0, float(np.abs(got).max()))
                        assert np.abs(got - want).max() <= 1e-14 * scale
                        assert got[:, 0].max() == got[:, 0].min()


def test_ho_blocks_keep_the_split_form():
    # HO's blocks take their centre offset δ as (x - y) - μx, free of the
    # rounding of λ near 1.  The plain λx - y form reaches 3.4e-14 of scale on
    # this case (sample-backed, t = 3e-4, where λ = 1 - 4.5e-8 and r = 2.96);
    # the split form stays at 5.6e-16
    grid = GridSpec(cutoff=6.0, points_per_edge=1025)
    vals = np.random.default_rng(2).normal(size=(3, 1025))
    vals[:, 0] = vals[0, 0]
    f = StarFunction(StarGraph(3), grid, vals)
    got = apply(HARMONIC, 3, 3e-4, f, grid).values
    want = dense_apply(HARMONIC, 3, 3e-4, f)
    scale = max(1.0, float(np.abs(got).max()))
    assert np.abs(got - want).max() <= 5e-15 * scale


@pytest.mark.parametrize("spec, t, cutoff, points, refine", [
    (OU, 1e-3, 6.0, 1025, 1),
    (HARMONIC, 1e-3, 6.0, 1025, 2),  # λ = 1 - 5e-7
    (OU, 2.0, 6.0, 2049, 1),
    (HARMONIC, 2.0, 6.0, 2049, 2),
    (HARMONIC, 2.0, 0.375, 257, 2),  # a band of 24000 columns
], ids=["ou-sharp", "ho-sharp", "ou-wide", "ho-wide", "ho-one-row"])
def test_block_differences_are_the_explicit_form(spec, t, cutoff, points, refine):
    # apply's blocks are products of three factors, u (per row), v (per
    # column) and M (shared by every block); each product must be the
    # Gaussian exp(-q((x - y) - μx)^2) of gaussian_form at its lattice point
    # x = i·h, y = j·hq, within 1e-14 of the row peak, against a long-double
    # reference, and each block's columns must cover its rows' bands; up to
    # 17 blocks spread over the rows, the first and the last among them
    lam, mu, q, _ = gaussian_form(spec, t)
    b = math.sqrt(BAND_EXPONENT / q)
    grid = GridSpec(cutoff=cutoff, points_per_edge=points)
    hq = grid.h / refine
    intervals = math.ceil((lam * cutoff + b) / hq)
    N = intervals + intervals % 2
    c, delta, beta, u = _blocks(lam, mu, q, b, grid.h, hq, points, N)
    v = _column_factors(q, hq, delta, beta)
    M = _shared_factors(lam, q, grid.h, hq, u.shape[1], beta)
    rows = u.shape[1]
    x = np.arange(c.size * rows, dtype=np.longdouble) * grid.h
    worst = 0.0
    for k in {*range(0, c.size, max(1, c.size // 16)), c.size - 1}:
        i = slice(k * rows, min((k + 1) * rows, points))
        j = c[k] + beta
        inside = np.abs(j) <= N
        y = j[inside] * np.longdouble(hq)
        d = np.subtract.outer(x[i], y) - np.longdouble(mu) * x[i, None]
        want = np.exp(-np.longdouble(q) * d * d)
        got = (u[k, : i.stop - i.start, None] * v[k, inside]) * M[: i.stop - i.start, inside]
        worst = max(worst, float(np.abs(got - want).max()))
        band = np.clip(np.rint(np.array([lam * x[i][[0, -1]] - b, lam * x[i][[0, -1]] + b],
                                        dtype=float) / hq), -N, N)
        assert j[0] <= band[0].min() and j[-1] >= band[1].max(), k
    assert worst <= 1e-14, worst


@given(
    spec=st.sampled_from([OU, HARMONIC]),
    m=st.sampled_from([7, 13, 50]),
    points=st.sampled_from([129, 257, 513, 1025]),
    t=st.sampled_from([0.05, 0.1, 0.5, 2.0]),
    profiles=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_equal_edges_give_equal_rows(spec, m, points, t, profiles, seed):
    # edges with equal data share one distinct edge's product and its row,
    # where a call takes more than one product, and are each their own
    # product with the blocks where it takes one; either way their rows are
    # bit-for-bit equal.  As rows of one product, 56 of these 96 shapes once
    # gave equal edges rows that differed in the last bits
    rng = np.random.default_rng(seed)
    grid = GridSpec(cutoff=6.0, points_per_edge=points)
    if profiles:
        a = rng.uniform(0.1, 1.0)
        f = StarFunction.from_callables(StarGraph(m), grid,
                                        (lambda x: np.exp(-a * np.square(x)),) * m)
    else:
        f = StarFunction(StarGraph(m), grid, np.tile(rng.normal(size=points), (m, 1)))
    u = apply(spec, m, t, f, grid).values
    assert np.array_equal(u, np.broadcast_to(u[0], u.shape))


@given(
    spec=st.sampled_from([OU, HARMONIC]),
    profiles=st.booleans(),
    m=st.integers(min_value=1, max_value=8),
    points=st.integers(min_value=9, max_value=129),
    log_t=st.floats(min_value=math.log(1e-3), max_value=math.log(10.0)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_apply_equals_dense_reference_everywhere(spec, profiles, m, points, log_t, seed):
    # the same contract as above over the whole (model, backing, m, grid, t)
    # range, since apply evaluates its blocks in a different form than
    # line_kernel, which the reference calls
    rng = np.random.default_rng(seed)
    grid = GridSpec(cutoff=6.0, points_per_edge=points)
    graph = StarGraph(m)
    if profiles:
        slopes = rng.uniform(-1.0, 1.0, size=m)
        f = StarFunction.from_callables(graph, grid, tuple(
            (lambda x, a=a: (1.0 + a * np.asarray(x)) * np.exp(-0.2 * np.asarray(x) ** 2))
            for a in slopes
        ))
    else:
        vals = rng.normal(size=(m, points))
        vals[:, 0] = vals[0, 0]
        f = StarFunction(graph, grid, vals)
    t = math.exp(log_t)
    if width_over_step(spec, t, f) < R_STAR:
        with pytest.raises(DomainError, match="too narrow for the quadrature"):
            apply(spec, m, t, f, grid)
        return
    got = apply(spec, m, t, f, grid).values
    want = dense_apply(spec, m, t, f)
    scale = max(1.0, float(np.abs(got).max()))
    assert np.abs(got - want).max() <= 1e-14 * scale
    assert got[:, 0].max() == got[:, 0].min()


@given(
    spec=st.sampled_from([OU, HARMONIC]),
    profiles=st.booleans(),
    m=st.integers(min_value=1, max_value=8),
    points=st.integers(min_value=9, max_value=129),
    log_t=st.floats(min_value=math.log(1e-3), max_value=math.log(10.0)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_edges_sharing_a_profile_share_their_rows(spec, profiles, m, points, log_t, seed):
    # m edges drawn from 1..m distinct profiles: edges with one profile get
    # bit-for-bit equal rows, and every row agrees with the dense reference
    # as in test_apply_equals_dense_reference_everywhere
    rng = np.random.default_rng(seed)
    grid = GridSpec(cutoff=6.0, points_per_edge=points)
    kinds = rng.integers(0, rng.integers(1, m + 1), size=m)
    if profiles:
        pool = [(lambda x, a=a: (1.0 + a * np.asarray(x)) * np.exp(-0.2 * np.asarray(x) ** 2))
                for a in rng.uniform(-1.0, 1.0, size=m)]
        f = StarFunction.from_callables(StarGraph(m), grid, tuple(pool[k] for k in kinds))
    else:
        pool = rng.normal(size=(m, points))
        pool[:, 0] = pool[0, 0]
        f = StarFunction(StarGraph(m), grid, pool[kinds])
    t = math.exp(log_t)
    if width_over_step(spec, t, f) < R_STAR:
        with pytest.raises(DomainError, match="too narrow for the quadrature"):
            apply(spec, m, t, f, grid)
        return
    got = apply(spec, m, t, f, grid).values
    for k in set(kinds.tolist()):
        same = got[kinds == k]
        assert np.array_equal(same, np.broadcast_to(same[0], same.shape)), k
    want = dense_apply(spec, m, t, f)
    scale = max(1.0, float(np.abs(got).max()))
    assert np.abs(got - want).max() <= 1e-14 * scale


def test_distinct_edges_are_found_exactly():
    # rows are fingerprinted by their sums and confirmed exactly: equal sums
    # with other content stay apart, one row and rows that all differ need
    # no grouping, and equal rows share one distinct row
    for fw in (np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones((1, 5)), np.eye(4)):
        distinct, group = _distinct_edges(fw)
        assert distinct == slice(None) and group is None
    row = np.random.default_rng(3).normal(size=9)
    distinct, group = _distinct_edges(np.tile(row, (5, 1)))
    assert distinct.size == 1 and np.array_equal(group, np.zeros(5))
    fw = np.array([[1.0, 2.0], [2.0, 2.0], [1.0, 2.0], [2.0, 2.0], [2.0, 1.0]])
    distinct, group = _distinct_edges(fw)
    assert np.array_equal(fw[distinct][group], fw)
    assert distinct.size == 3 and group[0] == group[2] and group[1] == group[3]


def test_the_edge_search_compares_rows_in_groups():
    # 20000 equal rows and one of the same sum and other content: each row
    # is compared with its sum's first row a group of rows at a time, so the
    # search holds no gathered copy of the rows and no boolean array of their
    # shape, which together took 1.2 times the rows (now 0.11)
    row = np.random.default_rng(5).normal(size=64)
    fw = np.tile(row, (20001, 1))
    fw[-1, :2] = fw[-1, 1::-1]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        distinct, group = _distinct_edges(fw)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(distinct, [0, 20000]) and np.array_equal(fw[distinct][group], fw)
    assert peak <= fw.nbytes / 4, peak / fw.nbytes


# powers of two at the ends of the float range and at the edges of
# errors.DATA_WINDOW, and any between: samples in [0.5, 2.4] stay normal
# times 2^k for each
SCALES = st.one_of(st.sampled_from([-1021, -1000, -257, -256, 256, 257, 1000, 1020]),
                   st.integers(min_value=-1021, max_value=1020))


@given(
    spec=st.sampled_from([OU, HARMONIC]),
    profiles=st.booleans(),
    m=st.integers(min_value=1, max_value=8),
    points=st.integers(min_value=9, max_value=129),
    log_t=st.floats(min_value=math.log(1e-3), max_value=math.log(10.0)),
    k=SCALES,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_a_power_of_two_commutes_with_apply(spec, profiles, m, points, log_t, k, seed):
    # the semigroup is linear and a power of two is exact, so apply(2^k f)
    # is 2^k apply(f) bit for bit wherever the samples stay normal: apply
    # evolves data outside errors.DATA_WINDOW in units that bring their peak
    # into it.  Weighting subnormal samples, or evolving data near the float
    # maximum in plain units, once missed it
    rng = np.random.default_rng(seed)
    grid = GridSpec(cutoff=6.0, points_per_edge=points)
    if profiles:
        slopes = rng.uniform(0.2, 2.0, size=m)

        def data(scale):
            return StarFunction.from_callables(StarGraph(m), grid, tuple(
                (lambda x, a=a: np.ldexp(1.5 + 0.9 * np.sin(a * np.asarray(x, dtype=float)),
                                         scale))
                for a in slopes))
    else:
        vals = rng.uniform(0.5, 2.0, size=(m, points))
        vals[:, 0] = vals[0, 0]

        def data(scale):
            return StarFunction(StarGraph(m), grid, np.ldexp(vals, scale))
    t = math.exp(log_t)
    f = data(0)
    if width_over_step(spec, t, f) < R_STAR:
        return
    want = np.ldexp(apply(spec, m, t, f, grid).values, k)
    assert np.array_equal(apply(spec, m, t, data(k), grid).values, want)


def test_subnormal_data_are_the_rescaled_data():
    # samples with peak 2^-1040 to 2^-1060 are subnormal: weighted before
    # they were scaled, they missed the answer for the same samples times
    # 2^p by 5.5e-10 to 4.9e-4 relative, unrefused; scaled first, they give
    # it bit for bit
    grid = GridSpec(cutoff=6.0, points_per_edge=129)
    vals = np.random.default_rng(1).normal(size=(3, 129))
    vals[:, 0] = vals[0, 0]
    vals /= np.abs(vals).max()
    for p in (1040, 1050, 1060):
        tiny = StarFunction(StarGraph(3), grid, np.ldexp(vals, -p))
        want = apply(OU, 3, 0.5, StarFunction(StarGraph(3), grid, np.ldexp(tiny.values, p)), grid)
        assert np.array_equal(apply(OU, 3, 0.5, tiny, grid).values, np.ldexp(want.values, -p)), p


def test_data_near_the_float_maximum():
    # data far above errors.DATA_WINDOW are evolved in units of a power of
    # two and taken back after the products: the constant 1e308 answers
    # where the column factors (up to e^7) once overflowed its windows; the
    # samples end at 6, more than 8 kernel widths past every row of [0, 3]
    grid = GridSpec(cutoff=6.0, points_per_edge=33)
    inner = grid.nodes() <= 3.0
    for f, rows in ((StarFunction(StarGraph(1), grid, np.full((1, 33), 1e308)), inner),
                    (StarFunction.constant(StarGraph(1), grid, 1e308), slice(None))):
        for t in (0.3, 2.0):
            u = apply(OU, 1, t, f, grid).values
            assert np.abs(u - 1e308)[:, rows].max() <= TOLERANCE * 1e308, (f.has_profiles(), t)
    # HO grows by up to e^{t / 2}: an answer past the float maximum is refused
    f = StarFunction.constant(StarGraph(1), grid, 1.75e308)
    with pytest.raises(StabilityError, match="^the answer passes the float maximum$"):
        apply(HARMONIC, 1, 0.2, f, grid)


def test_many_distinct_edges_keep_the_windows_within_budget():
    # m times one block's columns exceeds half of BLOCK_VALUES, so the edges
    # are taken in groups: apply then holds its extension, its output and
    # the result, about 4.5 times the samples.  With one block's windows over
    # all 2000 edges at once it held 7.4 times
    m, points = 2000, 65
    grid = GridSpec(cutoff=6.0, points_per_edge=points)
    vals = np.random.default_rng(4).normal(size=(m, points))
    vals[:, 0] = vals[0, 0]
    f = StarFunction(StarGraph(m), grid, vals)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        apply(OU, m, 2.0, f, grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 6 * f.values.nbytes, peak / f.values.nbytes
