"""One benchmark process: import stargraph, warm up, run whole rounds of ops.

Started by ``run.py``, never by hand.  It prints one JSON line with the
moment it became ready (on the system-wide monotonic clock, so the parent
can subtract its own start time), the import time, every op's class, time
and failure, its peak resident set and, when traced, the tracer's totals.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

SMOKE_OPS = 3  # ops per workload in smoke mode


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--child", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    start = perf_counter()
    import stargraph
    import stargraph.cli  # noqa: F401  (every CLI call pays this import)
    import_s = perf_counter() - start

    import numpy as np
    import scipy

    from tracing import Tracer
    from workloads import WORKLOADS

    makers = WORKLOADS[args.workload]
    if args.smoke:
        makers = makers[:SMOKE_OPS]
    rng = np.random.default_rng([args.seed & (2**64 - 1), args.child])

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    if not args.smoke:
        warm = makers[0](rng)
        try:
            warm.run()
        except Exception:  # the timed ops report any failure
            pass
    ready = time.monotonic()

    classes: list[str] = []  # op name per maker, from the first round
    ops: list[list] = []  # [class index, seconds, failure or None, failure is the known fault]
    loop_start = perf_counter()
    while True:
        for index, make in enumerate(makers):
            op = make(rng)
            if len(classes) < len(makers):
                classes.append(op.name)
            ops.append([index, *_timed(op, tracer)])
        if tracer is not None:
            tracer.keep_spans = False  # spans of the first round only
        if perf_counter() - loop_start >= args.seconds:
            break

    out = {
        "ready": ready,
        "import_s": import_s,
        "classes": classes,
        "ops": ops,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "stargraph": stargraph.__version__,
        },
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


def _timed(op, tracer) -> tuple[float, str | None, bool]:
    """Run one op, timing only its calls into stargraph, then check the output.

    Returns the time, the failure or None, and whether the failure is the
    op's known fault: a wrong answer that ``check`` describes.  A crash, or
    a check that raises, is never the known fault.
    """

    import stargraph

    start = perf_counter()
    try:
        if tracer is None:
            result = op.run()
            seconds = perf_counter() - start
        else:
            result, seconds = tracer.op(op.name, op.run)
    except stargraph.DomainError as exc:
        if op.known_fault:
            return perf_counter() - start, None, False  # a refusal is an honest answer
        return perf_counter() - start, f"DomainError: {exc}", False
    except Exception as exc:  # any other failure is counted against the op
        return perf_counter() - start, f"{type(exc).__name__}: {exc}", False
    try:
        error = op.check(result)
    except Exception as exc:
        return seconds, f"check raised {type(exc).__name__}: {exc}", False
    return seconds, error, error is not None and op.known_fault is not None


if __name__ == "__main__":
    sys.exit(main())
