"""Command-line front end.

Subcommands evolve an initial condition, tabulate kernels, compute spectra
and traces, run the finite-difference reference solver, and check the
structural identities (mass conservation, invariant measure, ground state).
Outputs are deterministic: floats carry 17 significant digits in CSV, JSON
is sorted and strict (a non-finite number is a numerical failure), and every
verdict is a {check, value, expected, tolerance, pass} record.  Exit codes:
0 success, 2 bad usage (a run too large to allocate among it), 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import StabilityError, StarGraphError, check_edges
from .extension import ho_coefficients, ou_coefficients
from .geometry import (
    GridSpec,
    StarFunction,
    StarGraph,
    StarPoint,
    integrate_star,
    sup_distance,
    vertex_flux,
)
from .kernels import HARMONIC, OU, star_kernel
from .oracle import OracleConfig, solve_star, truncation_study
from .semigroup import apply, evolve_sequence
from .spectral import form_spectrum, multiplicity, trace_closed_form, trace_partial
from .transform import ground_state, similarity_defect

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_MODELS = {"ou": OU, "ho": HARMONIC}
_COEFFS = {"ou": ou_coefficients, "ho": ho_coefficients}


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _short(v: float) -> str:
    """Compact float for names and slugs (full precision stays in the data)."""

    return f"{float(v):g}"


def _emit_json(payload, out: Path | None, name: str) -> None:
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # JSON has no NaN or infinity
        raise StabilityError(f"{name} would hold a non-finite number ({exc})") from exc
    if out is None:
        sys.stdout.write(text)
    else:
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)


def _emit_csv(header: str, rows, out: Path | None, name: str) -> None:
    text = header + "\n" + "".join(",".join(r) + "\n" for r in rows)
    if out is None:
        sys.stdout.write(text)
    else:
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)


def _verdict(check: str, value: float, expected: float, tolerance: float) -> dict:
    return {
        "check": check,
        "value": float(value),
        "expected": float(expected),
        "tolerance": float(tolerance),
        "pass": bool(abs(value - expected) <= tolerance),
    }


def _initial(name: str, m: int, grid: GridSpec) -> StarFunction:
    graph = StarGraph(m)
    if name == "one":
        return StarFunction.constant(graph, grid, 1.0)
    if name == "ground":
        return ground_state(m, grid)
    if name == "bump":
        def bump(x):
            x = np.asarray(x, dtype=float)
            return np.exp(-2.0 * (x - 2.0) ** 2)

        return StarFunction.from_callables(graph, grid, (bump,) * m, continuous_at_vertex=True)
    if name.startswith("file:"):
        try:
            f = StarFunction.from_csv(name[5:])
        except (OSError, ValueError, csv.Error) as exc:
            raise StarGraphError(f"cannot read initial data {name[5:]!r}: {exc}") from exc
        if f.graph.m != m:
            raise StarGraphError(
                f"initial data has {f.graph.m} edges but --m is {m}"
            )
        return f
    raise StarGraphError(
        f"unknown initial condition {name!r}; use one, ground, bump or file:PATH"
    )


def _parse_floats(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise StarGraphError(f"could not parse float list {text!r}") from exc
    if not values:
        raise StarGraphError(f"float list {text!r} holds no numbers")
    return values


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser, model: bool = True) -> None:
    if model:
        p.add_argument("--model", choices=sorted(_MODELS), default="ou")
    p.add_argument("--m", type=int, default=3, help="number of edges")
    p.add_argument("--out", type=Path, default=None, help="directory for output files")


def _add_grid(p: argparse.ArgumentParser, points: int = 513) -> None:
    p.add_argument("--cutoff", type=float, default=6.0)
    p.add_argument("--points", type=int, default=points)


# -- subcommands --------------------------------------------------------------


def cmd_evolve(args) -> int:
    grid = GridSpec(cutoff=args.cutoff, points_per_edge=args.points)
    f = _initial(args.init, args.m, grid)
    times = _parse_floats(args.times)
    spec = _MODELS[args.model]
    snapshots = evolve_sequence(spec, args.m, times, f, grid)
    summary = []
    for t, u in zip(times, snapshots):
        summary.append(
            {
                "time": t,
                "sup_norm": u.sup_norm(),
                "vertex_flux": float(vertex_flux(u.values, u.grid.h)),
                "mu_integral": integrate_star(u),
            }
        )
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            u.to_csv(args.out / f"evolve_{args.model}_t{_short(t)}.csv")
    _emit_json({"model": args.model, "m": args.m, "snapshots": summary}, args.out, "summary.json")
    return EXIT_OK


def cmd_kernel(args) -> int:
    spec = _MODELS[args.model]
    xs = _parse_floats(args.x)
    ys = _parse_floats(args.y)
    rows = []
    for xv in xs:
        for yv in ys:
            value = star_kernel(
                spec, args.m, args.t, StarPoint(args.x_edge, xv), StarPoint(args.y_edge, yv)
            )
            rows.append(
                (_fmt(args.t), str(args.x_edge), _fmt(xv), str(args.y_edge), _fmt(yv), _fmt(value))
            )
    _emit_csv("t,x_edge,x,y_edge,y,value", rows, args.out, "kernel.csv")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    grid = GridSpec(cutoff=args.cutoff, points_per_edge=args.points)
    if args.levels < 1:
        raise StarGraphError(f"--levels must be at least 1, got {args.levels}")
    check_edges(args.m)
    # levels 0, 2, 4, ... are simple and 1, 3, 5, ... have m - 1 values each
    count = (args.levels + 1) // 2 + (args.levels // 2) * (args.m - 1)
    dim = 1 + args.m * (args.points - 1)
    if count > dim:
        raise StarGraphError(
            f"--levels {args.levels} needs {count} eigenvalues, but {args.points} "
            f"points on {args.m} edges give only {dim}"
        )
    # one array, so a count beyond the memory fails at once, not after a long build
    mult = [multiplicity(k, args.m) for k in range(args.levels)]
    expected = np.repeat(np.arange(args.levels), mult)
    numeric = form_spectrum(args.m, grid, count=count)
    rows = []
    worst = 0.0
    for idx, (ev, k) in enumerate(zip(numeric, expected.tolist())):
        defect = abs(ev - k)
        worst = max(worst, defect)
        rows.append((str(idx), _fmt(ev), str(k), str(mult[k]), _fmt(defect)))
    _emit_csv("index,eigenvalue,level,multiplicity,defect", rows, args.out, "spectrum.csv")
    verdict = _verdict("spectrum_clusters_at_integers", worst, 0.0, args.tol)
    verdict["m"] = args.m
    verdict["levels"] = args.levels
    _emit_json(verdict, args.out, "spectrum_verdict.json")
    return EXIT_OK if verdict["pass"] else EXIT_NUMERIC


def cmd_trace(args) -> int:
    pair = trace_partial(args.t, args.m, args.terms)
    closed = trace_closed_form(args.t, args.m)
    verdict = _verdict("trace_matches_closed_form", pair.kernel_trace, closed, args.tol)
    verdict["m"] = args.m
    verdict["t"] = args.t
    verdict["partial_sum"] = pair.partial_sum
    verdict["partial_gap"] = abs(pair.partial_sum - closed)
    _emit_json(verdict, args.out, "trace_verdict.json")
    return EXIT_OK if verdict["pass"] else EXIT_NUMERIC


def _oracle_initial(m: int, grid: GridSpec) -> StarFunction:
    graph = StarGraph(m)  # refuses a bad edge count before the profiles are repeated

    def profile(x, d):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * x * x) + d * x * np.exp(-x * x)

    # edge i has odd weight 0.5 - 0.3 (i mod 4), so the data stay bounded at
    # every m: four profiles, each shared by its edges
    four = tuple((lambda x, d=0.5 - 0.3 * i: profile(x, d)) for i in range(4))
    return StarFunction.from_callables(graph, grid, four * (m // 4) + four[: m % 4])


def cmd_oracle(args) -> int:
    cfg = OracleConfig(n=args.n, h=args.h, dt=args.dt, t_final=args.t)
    grid = GridSpec(cutoff=float(args.n), points_per_edge=cfg.half_intervals + 1)
    f = _oracle_initial(args.m, grid)
    coeffs = _COEFFS[args.model]()

    if args.n_list:
        rows = truncation_study(coeffs, f, cfg, _parse_floats(args.n_list))
        _emit_csv(
            "n,t,sup_defect",
            [(_fmt(r.n), _fmt(r.t), _fmt(r.sup_defect)) for r in rows],
            args.out,
            "truncation.csv",
        )
        return EXIT_OK

    run = solve_star(coeffs, f, cfg)
    u_fd = run.at_time(args.t)
    u_kernel = apply(_MODELS[args.model], args.m, args.t, f, grid)
    window = min(args.window, float(args.n))
    defect = sup_distance(u_fd, u_kernel, radius_max=window)
    verdict = _verdict("evolution_matches_kernel_quadrature", defect, 0.0, args.tol)
    verdict["m"] = args.m
    verdict["model"] = args.model
    verdict["t"] = args.t
    verdict["window"] = window
    verdict["vertex_flux_final"] = float(run.kirchhoff_defects[-1])
    _emit_json(verdict, args.out, "oracle_verdict.json")
    return EXIT_OK if verdict["pass"] else EXIT_NUMERIC


def cmd_invariance(args) -> int:
    grid = GridSpec(cutoff=args.cutoff, points_per_edge=args.points)
    times = _parse_floats(args.times)
    verdicts = []
    if args.model == "ou":
        one = _initial("one", args.m, grid)
        bump = _initial("bump", args.m, grid)
        base = integrate_star(bump)
        for t in times:
            u = apply(OU, args.m, t, one, grid)
            verdicts.append(
                _verdict(f"constants_preserved_t{_short(t)}", u.sup_norm(), 1.0, args.tol)
            )
            v = apply(OU, args.m, t, bump, grid)
            verdicts.append(
                _verdict(
                    f"invariant_measure_preserved_t{_short(t)}", integrate_star(v), base, args.tol
                )
            )
        for t in times:
            verdicts.append(
                _verdict(
                    f"similar_pictures_agree_t{_short(t)}",
                    similarity_defect(args.m, t, one, grid),
                    0.0,
                    args.tol,
                )
            )
    else:
        g = ground_state(args.m, grid)
        for t in times:
            u = apply(HARMONIC, args.m, t, g, grid)
            verdicts.append(
                _verdict(f"ground_state_fixed_t{_short(t)}", sup_distance(u, g), 0.0, args.tol)
            )
    payload = {"m": args.m, "model": args.model, "verdicts": verdicts}
    _emit_json(payload, args.out, "invariance.json")
    return EXIT_OK if all(v["pass"] for v in verdicts) else EXIT_NUMERIC


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stargraph",
        description="Diffusion semigroups with Gaussian weight on a star of half-lines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="apply the semigroup at a list of times")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--times", default="0.1,1.0", help="comma-separated times")
    p.add_argument("--init", default="one", help="one, ground, bump or file:PATH")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("kernel", help="tabulate the transition kernel")
    _add_common(p)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--x-edge", type=int, default=1)
    p.add_argument("--y-edge", type=int, default=1)
    p.add_argument("--x", default="0,0.5,1,2", help="comma-separated radii")
    p.add_argument("--y", default="0,0.5,1,2", help="comma-separated radii")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("spectrum", help="eigenvalues of the discretized form")
    _add_common(p, model=False)
    _add_grid(p, points=256)
    p.add_argument("--levels", type=int, default=6)
    p.add_argument("--tol", type=_tolerance, default=0.05)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("trace", help="heat trace against the closed form")
    _add_common(p, model=False)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--terms", type=int, default=40)
    p.add_argument("--tol", type=_tolerance, default=1e-6)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("oracle", help="finite-difference reference vs kernel quadrature")
    _add_common(p)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--n", type=float, default=8.0, help="truncation radius")
    p.add_argument("--h", type=float, default=1.0 / 64.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--window", type=float, default=3.0)
    p.add_argument("--tol", type=_tolerance, default=1e-3)
    p.add_argument("--n-list", default=None, help="truncation radii for a convergence table")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("invariance", help="structural checks of the semigroup")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--times", default="0.1,1.0")
    p.add_argument("--tol", type=_tolerance, default=1e-8)
    p.set_defaults(func=cmd_invariance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # overflow to inf or NaN is reported through the results (strict JSON
        # refuses them with exit 3), not through numpy's warnings on stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except StabilityError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except StarGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: the run needs more memory than is available{detail}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
