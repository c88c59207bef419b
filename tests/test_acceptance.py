"""Acceptance battery.

Each test checks one advertised guarantee of the package at its stated
tolerance and prints a single ``criterion NN ...: PASS/FAIL`` line with the
measured margin (run ``pytest -v -s tests/test_acceptance.py`` to see them).
"""

import math

import numpy as np

from stargraph.extension import extend_coefficients, ho_coefficients, ou_coefficients
from stargraph.geometry import (
    GridSpec,
    StarFunction,
    StarGraph,
    StarPoint,
    integrate_star,
    sup_distance,
)
from stargraph.kernels import HARMONIC, OU, line_kernel, star_kernel
from stargraph.oracle import OracleConfig, solve_line_dirichlet, solve_star
from stargraph.semigroup import apply
from stargraph.spectral import (
    PolyGauss,
    apply_generator,
    eigenbasis,
    form_spectrum,
    multiplicity,
    trace_closed_form,
    trace_partial,
)
from stargraph.transform import ground_state, similarity_defect

GRID6 = GridSpec(cutoff=6.0, points_per_edge=513)


def _report(number: int, name: str, margin: float, tolerance: float) -> None:
    status = "PASS" if margin <= tolerance else "FAIL"
    print(f"criterion {number:02d} {name}: {status} "
          f"(measured {margin:.3e}, tolerance {tolerance:.1e})")
    assert margin <= tolerance, f"{name}: {margin:.3e} > {tolerance:.1e}"


def _bump(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-2.0 * (x - 2.0) ** 2)


def test_criterion_01_two_edge_star_is_the_line():
    radii = np.arange(0.0, 3.5, 0.5)
    worst = 0.0
    for kind in (OU, HARMONIC):
        for t in (0.1, 0.7, 2.0):
            for xr in radii:
                for yr in radii:
                    for sx in (1.0, -1.0):
                        for sy in (1.0, -1.0):
                            x_edge = 1 if sx > 0 else 2
                            y_edge = 1 if sy > 0 else 2
                            star = star_kernel(
                                kind, 2, t, StarPoint(x_edge, xr), StarPoint(y_edge, yr)
                            )
                            direct = float(line_kernel(kind, t, sx * xr, sy * yr))
                            worst = max(worst, abs(star - direct))
    _report(1, "two-edge star reproduces the line kernel", worst, 1e-13)


def test_criterion_02_conservativity():
    worst = 0.0
    for m in (1, 2, 3, 5):
        one = StarFunction.constant(StarGraph(m), GRID6, 1.0)
        for t in (0.1, 1.0, 5.0):
            u = apply(OU, m, t, one, GRID6)
            worst = max(worst, float(np.abs(u.values - 1.0).max()))
    _report(2, "constants stay constant", worst, 1e-8)


def test_criterion_03_invariant_measure():
    def edge_bump(x):
        x = np.asarray(x, dtype=float)
        return x * x * np.exp(-((x - 2.0) ** 2))

    def decay(x):
        return np.exp(-np.asarray(x, dtype=float))

    def odd_profile(x):
        x = np.asarray(x, dtype=float)
        return x * np.exp(-x * x)

    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    m = 3
    battery = (
        (edge_bump, zero, zero),
        (decay,) * m,
        (odd_profile,) * m,
    )
    worst = 0.0
    for profiles in battery:
        f = StarFunction.from_callables(StarGraph(m), GRID6, profiles)
        base = integrate_star(f)
        for t in (0.1, 1.0, 5.0):
            u = apply(OU, m, t, f, GRID6)
            worst = max(worst, abs(integrate_star(u) - base))
    _report(3, "the Gaussian measure is invariant", worst, 1e-8)


def test_criterion_04_semigroup_law():
    grid = GridSpec(cutoff=10.0, points_per_edge=513)
    pairs = [(s, t) for s in (0.25, 0.5, 1.0) for t in (0.25, 0.5, 1.0)]
    worst = 0.0
    for kind in (OU, HARMONIC):
        for m in (1, 2, 3):
            f = StarFunction.from_callables(StarGraph(m), grid, (_bump,) * m)
            inner = {t: apply(kind, m, t, f, grid) for t in (0.25, 0.5, 1.0)}
            total = {
                st: apply(kind, m, st, f, grid)
                for st in sorted({s + t for s, t in pairs})
            }
            for s, t in pairs:
                composed = apply(kind, m, s, inner[t], grid)
                worst = max(worst, sup_distance(total[s + t], composed))
    _report(4, "one step of s+t equals steps of s and t", worst, 1e-6)


def test_criterion_05_finite_difference_reference():
    cfg = OracleConfig(n=8.0, h=1.0 / 64.0, dt=1e-3, t_final=1.0)
    grid = GridSpec(cutoff=8.0, points_per_edge=cfg.half_intervals + 1)
    coeffs = {"ou": ou_coefficients(), "ho": ho_coefficients()}
    kinds = {"ou": OU, "ho": HARMONIC}
    worst = 0.0
    for name in ("ou", "ho"):
        for m in (1, 2, 3):
            profiles = []
            for i in range(m):
                d = 0.5 - 0.3 * i
                profiles.append(
                    lambda x, d=d: np.exp(-0.5 * np.asarray(x) ** 2)
                    + d * np.asarray(x) * np.exp(-np.asarray(x) ** 2)
                )
            f = StarFunction.from_callables(StarGraph(m), grid, tuple(profiles))
            run = solve_star(coeffs[name], f, cfg)
            for t in (0.1, 0.5, 1.0):
                u_fd = run.at_time(t)
                u_kernel = apply(kinds[name], m, t, f, grid)
                worst = max(worst, sup_distance(u_fd, u_kernel, radius_max=3.0))
    _report(5, "finite differences agree with the kernel", worst, 1e-3)


def test_criterion_06_spectrum():
    grid = GridSpec(cutoff=6.0, points_per_edge=256)
    m = 3
    expected = []
    for k in range(6):
        expected.extend([float(k)] * multiplicity(k, m))
    numeric = form_spectrum(m, grid, count=len(expected))
    worst = float(np.abs(numeric - np.array(expected)).max())
    # cluster sizes: each eigenvalue within 0.05 of exactly one integer level
    sizes = [int(np.sum(np.abs(numeric - k) < 0.05)) for k in range(6)]
    assert sizes == [1, 2, 1, 2, 1, 2]

    # the analytic eigenbasis is exact: the generator output has the
    # coefficients of -k times the eigenfunction with no rounding at all,
    # and the samples are those exact profiles evaluated on the grid
    x = grid.nodes()
    for k in range(13):
        datum = eigenbasis(m, k, grid)
        for b in datum.basis:
            g = apply_generator(OU, b)
            for edge, p in enumerate(b.profiles):
                want = p.scaled(-float(k))
                assert g.profiles[edge].coeffs == want.coeffs
                assert g.profiles[edge].gauss == want.gauss
                assert np.array_equal(g.values[edge], want(x))
    _report(6, "eigenvalues cluster at the integers", worst, 0.05)


def test_criterion_07_trace_identity():
    worst = 0.0
    for m in (1, 2, 3, 5):
        for t in (0.5, 1.0, 2.0):
            pair = trace_partial(t, m, 40)
            worst = max(worst, abs(pair.kernel_trace - trace_closed_form(t, m)))
    _report(7, "kernel trace matches the closed form", worst, 1e-6)


def test_criterion_08_similarity():
    worst = 0.0
    for m in (1, 2, 3):
        battery = [
            StarFunction.constant(StarGraph(m), GRID6, 1.0),
            StarFunction.from_callables(StarGraph(m), GRID6, (_bump,) * m),
            StarFunction.from_callables(
                StarGraph(m),
                GRID6,
                tuple(PolyGauss((1.0, 0.2 * i), gauss=1.0) for i in range(m)),
            ),
        ]
        for f in battery:
            for t in (0.2, 1.0):
                worst = max(worst, similarity_defect(m, t, f, GRID6))

    fixed = 0.0
    for m in (1, 2, 3):
        g = ground_state(m, GRID6)
        for t in (0.2, 1.0):
            u = apply(HARMONIC, m, t, g, GRID6)
            fixed = max(fixed, sup_distance(u, g, radius_max=5.5))
    assert fixed <= 1e-10, f"ground state moved by {fixed:.3e}"
    _report(8, "both pictures evolve alike", worst, 1e-8)


def test_criterion_09_kernel_inequalities():
    radii = np.linspace(0.0, 3.0, 100)
    xg, yg = np.meshgrid(radii, radii, indexing="ij")
    domination_ok = True
    for kind in (OU, HARMONIC):
        for t in (0.1, 1.0):
            domination_ok = domination_ok and bool(
                np.all(line_kernel(kind, t, xg, yg) >= line_kernel(kind, t, xg, -yg))
            )
    assert domination_ok

    smallest = math.inf
    for m in (1, 2, 3, 5):
        for t in (0.1, 1.0):
            for x_edge, y_edge in ((1, 1), (1, min(2, m))):
                vals = np.array(
                    [
                        star_kernel(OU, m, t, StarPoint(x_edge, xr), StarPoint(y_edge, yr))
                        for xr in radii
                        for yr in radii
                    ]
                )
                smallest = min(smallest, float(vals.min()))
    assert smallest > 0.0, f"kernel reached {smallest}"
    _report(9, "reflection never beats the direct path", 0.0, 1.0)


def test_criterion_10_parity_preservation():
    cfg = OracleConfig(n=8.0, h=1.0 / 64.0, dt=1e-3, t_final=1.0)
    coeffs = extend_coefficients(ou_coefficients())

    def odd(x):
        x = np.asarray(x, dtype=float)
        return x * np.exp(-x * x)

    def even(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-x * x)

    x = cfg.grid()
    final = solve_line_dirichlet(coeffs, odd(x), cfg)[-1]
    worst = float(np.abs(final + final[::-1]).max())
    center = final.size // 2
    worst = max(worst, abs(final[center]))

    final = solve_line_dirichlet(coeffs, even(x), cfg)[-1]
    worst = max(worst, float(np.abs(final - final[::-1]).max()))
    _report(10, "odd stays odd and even stays even", worst, 1e-12)
