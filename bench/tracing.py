"""Per-layer tracing from outside the package.

``Tracer.install`` wraps every public function and every public method of
every public class in each stargraph module.  A module that imported a
function by name holds its own binding, so each binding is replaced:
``stargraph.semigroup.line_kernel`` gets the same wrapper as
``stargraph.kernels.line_kernel``.  ``solve_banded`` as bound in
``stargraph.oracle`` is counted, not timed, so its time stays in the
oracle layer.

A span is recorded only inside an op (``Tracer.op``).  A layer's self time
is its spans' durations minus the parts their child spans cover; the op's
own span belongs to the ``bench`` layer, so the layer self times of an op
add up to the traced op time.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import math
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("geometry", "extension", "kernels", "semigroup", "oracle", "spectral",
          "transform", "cli")


def _evals(args, kwargs) -> int:
    """Broadcast size of a line_kernel(spec, t, x, y) call."""

    x = kwargs.get("x", args[2] if len(args) > 2 else 0.0)
    y = kwargs.get("y", args[3] if len(args) > 3 else 0.0)
    return math.prod(np.broadcast_shapes(np.shape(x), np.shape(y)))


# extra counters computed from a call's arguments, keyed by span name
COUNTERS = {"kernels.line_kernel": ("kernels.line_kernel.evals", _evals)}


class Tracer:
    def __init__(self):
        self._open: list[list] = []  # per open span: [span id, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.ops = 0
        self.op_s = 0.0
        self.keep_spans = True
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self._next_id = 0

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> float:
        self._next_id += 1
        self._open.append([self._next_id, 0.0])
        return perf_counter()

    def _exit(self, name: str, layer: str, start: float) -> float:
        end = perf_counter()
        span_id, child = self._open.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.layer_self_s[layer] += duration - child
        self.calls[name] += 1
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[1] += duration
        if self.keep_spans:
            self.spans.append((span_id, parent[0] if parent else 0, name, start, end))
        return duration

    def op(self, name: str, run):
        """Run one op as a root span of the ``bench`` layer; return (result, seconds)."""

        start = self._enter()
        try:
            result = run()
        finally:
            seconds = self._exit(f"bench.{name}", "bench", start)
            self.ops += 1
            self.op_s += seconds
        return result, seconds

    def _wrap(self, fn, name: str, layer: str):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not self._open:
                return fn(*args, **kwargs)
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs)
            start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, layer, start)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _count(self, fn, name: str):
        def counted(*args, **kwargs):
            if self._open:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        import stargraph

        modules = {layer: importlib.import_module(f"stargraph.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj) and not issubclass(
                    obj, (BaseException, tuple, enum.Enum)
                ):
                    self._wrap_methods(obj, layer)
        for mod in (stargraph, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        oracle = modules["oracle"]
        oracle.solve_banded = self._count(oracle.solve_banded, "oracle.banded_solves")

    def _wrap_methods(self, cls, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self._wrap(obj.__func__, name, layer)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(obj.__func__, name, layer)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(obj, name, layer))

    # -- results -------------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "ops": self.ops,
            "op_s": self.op_s,
            "layer_self_s": dict(self.layer_self_s),
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
