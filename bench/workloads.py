"""The benchmark's workloads: fixed rounds of seeded operations with checks.

A workload is a list of op makers.  One round calls every maker once, in
order, with the run's random generator; the generator picks times, data
coefficients and radii, never sizes, so every round of a workload does the
same amount of work whatever the seed.  Each op's ``run`` holds only calls
into stargraph and is what gets timed; its ``check`` compares the output
with the independent computations in ``reference`` and returns ``None``
when the output is right, or a description of what is wrong.

stargraph is reached through module attributes (``sg.apply``) at call time,
so that the per-layer tracer's wrappers are the functions actually called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import stargraph as sg

import reference as ref

# tolerances the package advertises in its acceptance battery
DECAY_TOL = 1e-6         # semigroup law, relative
CONSTANT_TOL = 1e-8      # constants stay constant
MASS_TOL = 1e-8          # the Gaussian measure is invariant
GROUND_TOL = 1e-10       # the oscillator ground state is fixed
SIMILARITY_TOL = 1e-8    # both pictures evolve alike
KERNEL_TOL = 1e-12       # closed-form kernels, relative to the table's largest value
FD_TOL = 1e-3            # finite differences against the kernel and the exact decay
SPECTRUM_TOL = 0.05      # eigenvalues cluster at the integers
TRACE_TOL = 1e-6         # kernel trace against the closed form

SMALL_T = 1e-5           # the time `stargraph evolve --times 1e-5` runs
SMALL_T_FAULT = "small-t quadrature"


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    # a fault the benchmark knows about: a wrong answer is counted as failed
    # but does not make the run incorrect, and a DomainError refusal passes
    known_fault: Optional[str] = None


def _spec(model: str):
    return sg.OU if model == "ou" else sg.HARMONIC


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _star_function(combo: ref.EigenCombination, grid, data: Optional[np.ndarray]):
    """Profile-backed when ``data`` is None, else backed by these samples."""

    graph = sg.StarGraph(combo.m)
    if data is None:
        return sg.StarFunction.from_callables(graph, grid, combo.profiles(),
                                              continuous_at_vertex=True)
    return sg.StarFunction.from_samples(graph, grid, data, continuous_at_vertex=True)


def _decay_error(u_values, combo, x, t, window) -> Optional[str]:
    err = ref.relative_error(u_values, combo.samples(x, t), x <= window)
    if not err <= DECAY_TOL:
        return f"t={t:.3g}: relative error {err:.3e} against exact e^(-kt) decay"
    return None


def _vertex_error(u_values) -> Optional[str]:
    col = u_values[:, 0]
    if np.ptp(col) > 1e-12 * max(1.0, float(np.abs(col).max())):
        return f"output not continuous at the vertex (spread {np.ptp(col):.3e})"
    return None


def _mass_error(u_values, h, want) -> Optional[str]:
    got = ref.gaussian_mass(u_values, h)
    if not abs(got - want) <= MASS_TOL:
        return f"Gaussian-measure mass {got:.12g}, want {want:.12g}"
    return None


# -- apply: eigenfunction combinations ------------------------------------------


def apply_maker(model: str, m: int, points: int, backing: str,
                t_range: tuple[float, float], window: float, mass: bool = False):
    """apply on a seeded combination of eigenfunctions, checked against exact decay."""

    def make(rng) -> Op:
        combo = ref.EigenCombination(rng, model, m)
        t = _log_uniform(rng, *t_range)
        cutoff = 6.0
        x = np.linspace(0.0, cutoff, points)
        data = combo.samples(x) if backing == "sample" else None

        def run():
            grid = sg.GridSpec(cutoff=cutoff, points_per_edge=points)
            return sg.apply(_spec(model), m, t, _star_function(combo, grid, data), grid)

        def check(u):
            return (_decay_error(u.values, combo, x, t, window)
                    or _vertex_error(u.values)
                    or (_mass_error(u.values, x[1], combo.mass) if mass else None))

        return Op(f"apply/{model}/m{m}/{backing}{points}", run, check)

    return make


def evolve_maker(model: str, m: int, points: int, backing: str, count: int):
    """evolve_sequence at ``count`` seeded times, each checked on [0, WINDOW]."""

    def make(rng) -> Op:
        combo = ref.EigenCombination(rng, model, m)
        times = sorted(_log_uniform(rng, 0.1, 5.0) for _ in range(count))
        x = np.linspace(0.0, 6.0, points)
        data = combo.samples(x) if backing == "sample" else None

        def run():
            grid = sg.GridSpec(cutoff=6.0, points_per_edge=points)
            f = _star_function(combo, grid, data)
            return sg.evolve_sequence(_spec(model), m, times, f, grid)

        def check(us):
            if len(us) != len(times):
                return f"{len(us)} snapshots for {len(times)} times"
            for t, u in zip(times, us):
                bad = _decay_error(u.values, combo, x, t, ref.WINDOW)
                if bad:
                    return bad
            return None

        return Op(f"evolve/{model}/m{m}/{backing}{points}x{count}", run, check)

    return make


def constant_maker(m: int, points: int):
    """apply on a seeded constant: the drift semigroup is conservative."""

    def make(rng) -> Op:
        c = float(rng.uniform(-2.0, 2.0))
        t = _log_uniform(rng, 0.1, 5.0)

        def run():
            grid = sg.GridSpec(cutoff=6.0, points_per_edge=points)
            f = sg.StarFunction.constant(sg.StarGraph(m), grid, c)
            return sg.apply(sg.OU, m, t, f, grid)

        def check(u):
            dev = float(np.abs(u.values - c).max())
            if not dev <= CONSTANT_TOL * max(1.0, abs(c)):
                return f"constant {c:.6g} moved by {dev:.3e}"
            return None

        return Op(f"constant/ou/m{m}/profile{points}", run, check)

    return make


def ground_state_maker(m: int, points: int):
    """The oscillator semigroup fixes exp(-x^2/2) pointwise."""

    def make(rng) -> Op:
        t = _log_uniform(rng, 0.1, 5.0)
        x = np.linspace(0.0, 6.0, points)

        def run():
            grid = sg.GridSpec(cutoff=6.0, points_per_edge=points)
            return sg.apply(sg.HARMONIC, m, t, sg.ground_state(m, grid), grid)

        def check(u):
            dev = float(np.abs(u.values - np.exp(-0.5 * x * x))[:, x <= 5.5].max())
            if not dev <= GROUND_TOL:
                return f"ground state moved by {dev:.3e} at t={t:.3g}"
            return None

        return Op(f"ground_state/ho/m{m}/profile{points}", run, check)

    return make


def similarity_maker(m: int, points: int):
    """Oscillator evolution equals the drift evolution conjugated by the flat map."""

    def make(rng) -> Op:
        combo = ref.EigenCombination(rng, "ho", m)
        t = _log_uniform(rng, 0.1, 5.0)

        def run():
            grid = sg.GridSpec(cutoff=6.0, points_per_edge=points)
            return sg.similarity_defect(m, t, _star_function(combo, grid, None), grid)

        def check(defect):
            if not 0.0 <= defect <= SIMILARITY_TOL:
                return f"similarity defect {defect:.3e} at t={t:.3g}"
            return None

        return Op(f"similarity/m{m}/profile{points}", run, check)

    return make


RADII = 3  # seeded radii per edge of a star_kernel table, the vertex included


def kernel_table_maker(model: str, m: int):
    """star_kernel on every pair of a seeded point set on edges 1 and 2.

    For m = 2 the reference is the line kernel at signed coordinates; for
    other m it is the reflection construction written out in ``reference``.
    """

    def make(rng) -> Op:
        t = _log_uniform(rng, 0.1, 5.0)
        rs = np.sort(rng.uniform(0.0, 3.0, RADII))
        rs[0] = 0.0  # always include the vertex
        points = [(e, float(r)) for e in (1, min(2, m)) for r in rs]
        pairs = [(p, q) for p in points for q in points]

        def run():
            spec = _spec(model)
            return [sg.star_kernel(spec, m, t, sg.StarPoint(*p), sg.StarPoint(*q))
                    for p, q in pairs]

        def check(values):
            if m == 2:
                want = [ref.two_edge_line(model, t, *p, *q) for p, q in pairs]
            else:
                want = [ref.star_kernel(model, m, t, *p, *q) for p, q in pairs]
            want = np.array(want)
            err = float(np.abs(np.array(values) - want).max() / np.abs(want).max())
            if not err <= KERNEL_TOL:
                return f"star kernel off its closed form by {err:.3e} (relative) at t={t:.3g}"
            return None

        return Op(f"star_kernel/{model}/m{m}/{len(pairs)}pairs", run, check)

    return make


# -- small-time fault -----------------------------------------------------------


def small_t_maker(kind: str):
    """apply at t = 1e-5 on 513 points, the case `stargraph evolve --times 1e-5` runs.

    Inputs do not depend on the seed.  ``one`` is the constant 1 on a
    3-star; ``h3`` is the odd eigenfunction H_3 on edge 1 and -H_3 on edge 2,
    checked on [0, 5].  An answer within tolerance passes, and so does a
    DomainError refusal.
    """

    m, points, cutoff = 3, 513, 6.0

    def make(rng) -> Op:
        x = np.linspace(0.0, cutoff, points)

        def h3(i):
            return lambda r: (1.0 if i == 0 else -1.0 if i == 1 else 0.0) * ref.hermite(3, r)

        def run():
            grid = sg.GridSpec(cutoff=cutoff, points_per_edge=points)
            graph = sg.StarGraph(m)
            if kind == "one":
                f = sg.StarFunction.constant(graph, grid, 1.0)
            else:
                f = sg.StarFunction.from_callables(graph, grid, tuple(h3(i) for i in range(m)),
                                                   continuous_at_vertex=True)
            return sg.apply(sg.OU, m, SMALL_T, f, grid)

        def check(u):
            if kind == "one":
                dev = float(np.abs(u.values - 1.0).max())
                if not dev <= CONSTANT_TOL:
                    return f"constant 1 came back as {float(u.values.min()):.4f}"
                return None
            want = np.stack([h3(i)(x) for i in range(m)]) * math.exp(-3.0 * SMALL_T)
            miss = float(np.abs(u.values - want)[:, x <= 5.0].max())
            if not miss <= DECAY_TOL * float(np.abs(want[:, x <= 5.0]).max()):
                return f"H_3 misses its exact decay by {miss:.3g} on [0, 5]"
            return None

        return Op(f"apply/ou/m3/small_t/{kind}", run, check, known_fault=SMALL_T_FAULT)

    return make


# -- spectrum ---------------------------------------------------------------------


LEVELS = 5  # integer eigenvalue clusters a spectrum op checks


def spectrum_maker(m: int, points: int):
    """form_spectrum and trace_partial: integer clusters and the trace identity."""

    expected = [float(k) for k in range(LEVELS) for _ in range(ref.multiplicity(k, m))]

    def make(rng) -> Op:
        cutoff = float(rng.uniform(5.5, 6.5))
        t = _log_uniform(rng, 0.3, 3.0)
        terms = int(rng.integers(40, 81))

        def run():
            grid = sg.GridSpec(cutoff=cutoff, points_per_edge=points)
            values = sg.form_spectrum(m, grid, count=len(expected) + 1)
            return values, sg.trace_partial(t, m, terms)

        def check(out):
            values, pair = out
            values = np.asarray(values)
            worst = float(np.abs(values[:-1] - expected).max())
            if not worst <= SPECTRUM_TOL:
                return f"eigenvalues miss the integers 1, m-1, 1, ... by {worst:.3e}"
            if not values[-1] >= LEVELS - SPECTRUM_TOL:
                return f"extra eigenvalue {values[-1]:.4f} inside the first {LEVELS} clusters"
            closed = ref.trace_closed(t, m)
            if not abs(pair.kernel_trace - closed) <= TRACE_TOL:
                return f"kernel trace {pair.kernel_trace:.12g}, closed form {closed:.12g}"
            gap = abs(pair.partial_sum - closed)
            if not gap <= ref.trace_tail(t, m, terms) + 1e-12 * closed:
                return f"partial sum misses the closed form by {gap:.3e}"
            return None

        return Op(f"spectrum/m{m}/points{points}", run, check)

    return make


# -- finite-difference oracle ---------------------------------------------------


ORACLE = dict(n=8.0, h=1.0 / 64.0, dt=1e-3, t_final=0.5)


def oracle_maker(model: str, m: int):
    """solve_star against apply (as `stargraph oracle` does) and the exact decay."""

    def make(rng) -> Op:
        combo = ref.EigenCombination(rng, model, m)
        n, h, dt, t = ORACLE["n"], ORACLE["h"], ORACLE["dt"], ORACLE["t_final"]
        x = np.arange(int(round(n / h)) + 1) * h
        mask = x <= ref.WINDOW

        def run():
            cfg = sg.OracleConfig(**ORACLE)
            grid = sg.GridSpec(cutoff=n, points_per_edge=cfg.half_intervals + 1)
            f = _star_function(combo, grid, None)
            coeffs = sg.ou_coefficients() if model == "ou" else sg.ho_coefficients()
            return sg.solve_star(coeffs, f, cfg), sg.apply(_spec(model), m, t, f, grid)

        def check(out):
            run, u_kernel = out
            final = run.values[-1]
            gap = float(np.abs(final - u_kernel.values)[:, mask].max())
            if not gap <= FD_TOL:
                return f"finite differences differ from the kernel by {gap:.3e}"
            for level in (len(run.times) // 2, len(run.times) - 1):
                err = ref.relative_error(run.values[level], combo.samples(x, run.times[level]),
                                         mask)
                if not err <= FD_TOL:
                    return (f"finite differences miss the exact decay at "
                            f"t={run.times[level]:.3g} by {err:.3e} (relative)")
            return None

        return Op(f"oracle/{model}/m{m}", run, check)

    return make


TABULATE = dict(n=4.0, h=1.0 / 16.0, dt=1e-2, t_final=0.5)


def tabulate_maker():
    """tabulate_kernel for the drift line against its closed form.

    Trapezoidal steps on a centered stencil are second order in h and dt;
    the table must match the closed form within 2 (h^2 + dt^2) times the
    kernel's size on the window |x|, |y| <= 2.
    """

    def make(rng) -> Op:
        t1 = float(rng.choice([0.2, 0.25, 0.3, 0.35, 0.4]))
        times = [t1, TABULATE["t_final"]]

        def run():
            cfg = sg.OracleConfig(**TABULATE)
            return sg.tabulate_kernel(sg.extend_coefficients(sg.ou_coefficients()), cfg, times)

        def check(table):
            x = np.asarray(table.x)
            xx, yy = np.meshgrid(x, x, indexing="ij")
            inner = (np.abs(xx) <= 2.0) & (np.abs(yy) <= 2.0)
            bound = 2.0 * (TABULATE["h"] ** 2 + TABULATE["dt"] ** 2)
            for i, t in enumerate(times):
                want = ref.ou_line(t, xx, yy)[inner]
                err = float(np.abs(table.values[i][inner] - want).max() / want.max())
                if not err <= bound:
                    return f"tabulated kernel off the closed form by {err:.3e} at t={t:.3g}"
            return None

        return Op("tabulate/ou/n4/h16", run, check)

    return make


# -- the workloads ----------------------------------------------------------------

SHARP = (1e-3, 0.05)

WORKLOADS = {
    # fine grids, narrow kernels: dense kernel values that are almost all negligible
    "apply_sharp": [
        apply_maker("ou", 3, 1025, "profile", SHARP, 4.0, mass=True),
        small_t_maker("one"),
        apply_maker("ho", 8, 1537, "sample", SHARP, 4.0),
        apply_maker("ho", 3, 1025, "profile", SHARP, 4.0),
        apply_maker("ou", 8, 1537, "sample", SHARP, 4.0, mass=True),
        small_t_maker("h3"),
        apply_maker("ou", 8, 1025, "profile", SHARP, 4.0, mass=True),
        apply_maker("ho", 3, 1537, "sample", SHARP, 4.0),
        apply_maker("ho", 8, 1025, "profile", SHARP, 4.0),
        apply_maker("ou", 3, 1537, "sample", SHARP, 4.0, mass=True),
    ],
    # coarse grids, wide kernels: per-call overhead around short computations
    "apply_wide": [
        apply_maker("ou", 1, 65, "profile", (0.1, 5.0), 3.0),
        apply_maker("ho", 2, 65, "profile", (0.1, 5.0), 3.0),
        apply_maker("ou", 3, 129, "sample", (0.1, 5.0), 3.0),
        apply_maker("ho", 4, 129, "sample", (0.1, 5.0), 3.0),
        apply_maker("ou", 6, 129, "profile", (0.1, 5.0), 3.0),
        apply_maker("ho", 8, 257, "sample", (0.1, 5.0), 3.0),
        evolve_maker("ou", 5, 65, "sample", 3),
        evolve_maker("ho", 7, 65, "profile", 2),
        kernel_table_maker("ou", 2),
        kernel_table_maker("ho", 5),
        ground_state_maker(3, 65),
        similarity_maker(4, 65),
        constant_maker(8, 65),
        apply_maker("ou", 7, 129, "sample", (0.1, 5.0), 3.0),
        kernel_table_maker("ho", 2),
    ],
    # dense generalized eigensolve and its Python assembly loop; every case
    # has 1 + m (points - 1) = 1279 to 1281 unknowns, so the ops cost alike
    "spectrum": [
        spectrum_maker(3, 427),
        spectrum_maker(5, 257),
        spectrum_maker(8, 161),
    ],
    # sequential banded line solves, one per edge per step
    "oracle": [
        oracle_maker("ou", 2),
        oracle_maker("ho", 3),
        oracle_maker("ou", 4),
        oracle_maker("ho", 5),
        oracle_maker("ou", 6),
        oracle_maker("ho", 7),
        oracle_maker("ou", 8),
        tabulate_maker(),
        oracle_maker("ho", 2),
        oracle_maker("ou", 3),
        oracle_maker("ho", 4),
        oracle_maker("ou", 5),
        oracle_maker("ho", 6),
        oracle_maker("ou", 7),
        oracle_maker("ho", 8),
    ],
}
