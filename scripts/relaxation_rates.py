#!/usr/bin/env python3
"""Relaxation to equilibrium at two different exponential rates.

Evolves two initial conditions on the same star and tracks the sup-distance
to the equilibrium value (the mean against the invariant Gaussian measure):

* data supported on a single edge excites the odd modes, and the slowest of
  those decays like e^{-t};
* edge-symmetric data sees no odd modes at all (they need m >= 2 edges to
  disagree), so it relaxes at the even-mode rate e^{-2t}.

The fitted rate column converges to 1 and 2 respectively as t grows.
"""

import argparse
import math
import sys

import numpy as np

from stargraph.geometry import GridSpec, StarFunction, StarGraph, integrate_star
from stargraph.kernels import OU
from stargraph.semigroup import evolve_sequence


def _bump(x):
    x = np.asarray(x, dtype=float)
    return x * x * np.exp(-((x - 1.5) ** 2))


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _distances(m, times, f, grid):
    mean = integrate_star(f)
    snapshots = evolve_sequence(OU, m, times, f, grid)
    return [float(np.abs(u.values - mean).max()) for u in snapshots]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=3)
    parser.add_argument("--t-max", type=float, default=4.0)
    parser.add_argument("--steps", type=int, default=8)
    parser.add_argument("--cutoff", type=float, default=6.0)
    parser.add_argument("--points", type=int, default=513)
    args = parser.parse_args(argv)
    if args.m < 2:
        parser.error("need at least two edges for the symmetric/asymmetric split")

    grid = GridSpec(cutoff=args.cutoff, points_per_edge=args.points)
    times = [args.t_max * (i + 1) / args.steps for i in range(args.steps)]
    graph = StarGraph(args.m)

    lopsided = StarFunction.from_callables(
        graph, grid, (_bump,) + (_zero,) * (args.m - 1)
    )
    symmetric = StarFunction.from_callables(graph, grid, (_bump,) * args.m)

    d_lop = _distances(args.m, times, lopsided, grid)
    d_sym = _distances(args.m, times, symmetric, grid)

    print("t,dist_one_edge,rate_one_edge,dist_symmetric,rate_symmetric")
    for i, t in enumerate(times):
        if i == 0:
            r_lop = r_sym = float("nan")
        else:
            dt = times[i] - times[i - 1]
            r_lop = math.log(d_lop[i - 1] / d_lop[i]) / dt
            r_sym = math.log(d_sym[i - 1] / d_sym[i]) / dt
        print(f"{t:g},{d_lop[i]:.6e},{r_lop:.4f},{d_sym[i]:.6e},{r_sym:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
