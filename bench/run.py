#!/usr/bin/env python3
"""Benchmark of the stargraph package.

    python3 bench/run.py --workload apply_sharp --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --smoke

Each run starts ``CHILDREN`` fresh processes one after another, so one
caller runs at a time (a closed loop: each op starts when the previous one
returns).  Each child imports stargraph, runs one warm-up op and then whole
rounds of its workload's ops for its share of ``--seconds``, checking every
op's output.  The last line of standard output is one JSON object:

* ``--trace 0``: the end-to-end metrics ``setup_s`` (process start to the
  first timed op, median over the children), ``ops_per_s``, ``op_p50_s``
  and ``peak_rss_mb`` (median over the children);
* ``--trace 1``: the per-layer metrics, from wrappers the benchmark puts
  around every public function of every stargraph module.

``--smoke`` runs the first few ops of every workload once, with the same
checks, and exits non-zero when any check that is not a known fault fails.
The full record of each run is written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

WORKLOADS = ("apply_sharp", "apply_wide", "spectrum", "oracle")
CHILDREN = 3
CHILD_SLACK_S = 50.0  # a child's time limit beyond its share of --seconds
THREADS = 1

LAYER_METRICS = ("geometry", "extension", "kernels", "semigroup", "oracle", "spectral",
                 "transform", "bench")
FUNCTION_METRICS = ("spectral.form_matrix", "spectral.form_spectrum")
CALL_METRICS = ("kernels.star_kernel", "semigroup.apply", "oracle.solve_line_dirichlet")
COUNT_METRICS = ("kernels.line_kernel.evals", "oracle.banded_solves")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    # numpy and scipy each bundle an OpenBLAS, and each starts n - 1 helper
    # threads for n BLAS threads; the oracle's line solves run on a pool of
    # STARGRAPH_THREADS workers.  One of each keeps every process at a single
    # thread, within any core count, and keeps the tracer's span stack serial.
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "STARGRAPH_THREADS"):
        env[var] = str(THREADS)
    return env


def _run_child(workload: str, seed: int, child: int, seconds: float, trace: int,
               smoke: bool) -> tuple[dict, float]:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--child", str(child), "--seconds", str(seconds),
           "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(),
                          timeout=seconds + CHILD_SLACK_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark process for {workload} exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out, out["ready"] - started


def _tally(children: list[dict]) -> dict:
    """Attempted and failed ops, and whether every failure is a known fault."""

    attempted = failed = 0
    unexpected = False
    failures: dict[str, str] = {}
    for out in children:
        for index, _, error, known in out["ops"]:
            attempted += 1
            if error is not None:
                failed += 1
                unexpected = unexpected or not known
                failures.setdefault(out["classes"][index], error)
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "failures": failures}


def _end_to_end(children: list[dict], setups: list[float]) -> dict:
    times = [seconds for out in children for _, seconds, _, _ in out["ops"]]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(out["rss_mb"] for out in children),
                        "unit": "MB"},
    }


def _per_layer(children: list[dict]) -> dict:
    traces = [out["trace"] for out in children]
    ops = sum(t["ops"] for t in traces)

    def per_op(field: str, key: str) -> float:
        return sum(t[field].get(key, 0) for t in traces) / ops

    metrics = {"import.self_s": {"value": statistics.median(out["import_s"] for out in children),
                                 "unit": "s"}}
    for layer in LAYER_METRICS:
        metrics[f"{layer}.self_s"] = {"value": per_op("layer_self_s", layer), "unit": "s/op"}
    for name in FUNCTION_METRICS:
        metrics[f"{name}.self_s"] = {"value": per_op("self_s", name), "unit": "s/op"}
    for name in CALL_METRICS:
        metrics[f"{name}.calls"] = {"value": per_op("calls", name), "unit": "count/op"}
    for name in COUNT_METRICS:
        metrics[name] = {"value": per_op("counts", name), "unit": "count/op"}
    metrics["op.traced_s"] = {"value": sum(t["op_s"] for t in traces) / ops, "unit": "s/op"}
    return metrics


def _class_medians(children: list[dict]) -> dict:
    by_class: dict[str, list[float]] = {}
    for out in children:
        for index, seconds, _, _ in out["ops"]:
            by_class.setdefault(out["classes"][index], []).append(seconds)
    return {name: {"ops": len(ts), "median_s": statistics.median(ts)}
            for name, ts in by_class.items()}


def _write(name: str, record: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / name, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    children, setups = [], []
    for child in range(CHILDREN):
        out, setup = _run_child(workload, seed, child, seconds / CHILDREN, trace, False)
        children.append(out)
        setups.append(setup)
    tally = _tally(children)
    metrics = _per_layer(children) if trace else _end_to_end(children, setups)
    result = {"correct": tally["correct"], "attempted": tally["attempted"],
              "failed": tally["failed"], "metrics": metrics}
    _write(f"{workload}-seed{seed}-trace{trace}.json", {
        "result": result,
        "args": {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace},
        "machine": {"nproc": _nproc(), "blas_threads": THREADS,
                    "stargraph_threads": THREADS,
                    **children[0]["versions"]},
        "setups_s": setups,
        "failures": tally["failures"],
        "classes": _class_medians(children),
        "children": [{k: v for k, v in out.items() if k not in ("ops", "spans")}
                     for out in children],
        "spans_first_round": children[0].get("spans", []),
    })
    return result


def smoke(seed: int) -> dict:
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out, _ = _run_child(workload, seed, 0, 0.0, 0, True)
        tally = _tally([out])
        print(f"{workload}: {tally['attempted']} ops, {tally['failed']} failed"
              + "".join(f"\n  {name}: {err}" for name, err in tally["failures"].items()))
        total["correct"] = total["correct"] and tally["correct"]
        total["attempted"] += tally["attempted"]
        total["failed"] += tally["failed"]
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few ops of every workload, checked, untimed")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "stargraph" / "__init__.py").is_file():
        print(f"error: no stargraph sources at {SRC}", file=sys.stderr)
        return 2
    # byte-compile once so every child imports the way an installed package does
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)

    if args.smoke:
        result = smoke(args.seed)
    else:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    if args.smoke and not result["correct"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
