#!/usr/bin/env python3
"""Reference timings of single stargraph calls, outside the benchmark proper.

    python3 bench/baseline.py

Re-measures the cases of the baseline table in ROADMAP.md: ``apply`` at
129, 513 and 2049 points per edge (m = 3, t = 0.5, profile- and
sample-backed), ``solve_star`` at m = 3 and 8 (n = 8, h = 1/64, 500 steps)
and ``form_spectrum`` at (m, points) = (3, 256), (3, 1024) and (8, 512).
Each figure is the best of ``repeat`` wall-clock runs; the two largest
spectra allocate about 1 GB and run once.  BLAS threads follow the
environment, as for any other caller.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import stargraph as sg  # noqa: E402


def best(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return min(times)


def bump(x):
    return np.exp(-2.0 * (np.asarray(x, dtype=float) - 2.0) ** 2)


def main() -> int:
    print("case | seconds")
    for points in (129, 513, 2049):
        grid = sg.GridSpec(cutoff=6.0, points_per_edge=points)
        f = sg.StarFunction.from_callables(sg.StarGraph(3), grid, (bump,) * 3,
                                           continuous_at_vertex=True)
        fs = sg.StarFunction.from_samples(sg.StarGraph(3), grid, f.values,
                                          continuous_at_vertex=True)
        for label, g in (("profile", f), ("sample", fs)):
            secs = best(lambda: sg.apply(sg.OU, 3, 0.5, g, grid), 3)
            print(f"apply m=3 t=0.5 {points} points {label}-backed | {secs:.4g}")
    cfg = sg.OracleConfig(n=8.0, h=1.0 / 64.0, dt=1e-3, t_final=0.5)
    grid = sg.GridSpec(cutoff=8.0, points_per_edge=cfg.half_intervals + 1)
    for m in (3, 8):
        f = sg.StarFunction.from_callables(sg.StarGraph(m), grid, (bump,) * m,
                                           continuous_at_vertex=True)
        secs = best(lambda: sg.solve_star(sg.ou_coefficients(), f, cfg), 3)
        print(f"solve_star m={m} n=8 h=1/64 500 steps | {secs:.4g}")
    for m, points, repeat in ((3, 256, 3), (3, 1024, 1), (8, 512, 1)):
        grid = sg.GridSpec(cutoff=6.0, points_per_edge=points)
        secs = best(lambda: sg.form_spectrum(m, grid), repeat)
        print(f"form_spectrum m={m} {points} points | {secs:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
