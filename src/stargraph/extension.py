"""Reflection between star functions and line functions.

A continuous function on the star extends to one function per edge on the
whole line: the positive half-axis carries the edge itself, the negative
half-axis carries twice the edge average minus the edge.  Folding restricts
line functions back to the star and tests vertex consistency instead of
imposing it.  Second-order coefficients extend by parity: diffusion and
reaction evenly, drift oddly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ExtensionError,
    FoldError,
    InvalidPointError,
    NumericalInputError,
    ShapeError,
    StencilError,
    VertexContinuityError,
)
from .geometry import (
    GridSpec,
    StarFunction,
    StarGraph,
    is_integer,
    vertex_continuous,
    vertex_slopes,
)

__all__ = [
    "LineFunction",
    "CoefficientTriple",
    "ou_coefficients",
    "ho_coefficients",
    "reflect_extend",
    "extend_coefficients",
    "even_odd_split",
    "fold_to_star",
]


@dataclass
class LineFunction:
    """Samples on a symmetric uniform grid on [-L, L], optionally callable-backed."""

    x: np.ndarray
    values: np.ndarray
    profile: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.values.shape:
            raise ShapeError("x and values must be 1-D arrays of equal length")
        if self.x.size < 2:
            raise ShapeError("line grid needs >= 2 points")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.values))):
            raise NumericalInputError("line data must be finite")
        steps = np.diff(self.x)
        if np.any(steps <= 0):
            raise ShapeError("line grid must be strictly increasing")
        if np.any(np.abs(steps - steps[0]) > 1e-9 * steps[0]):
            raise ShapeError("line grid must be uniform")

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    def is_symmetric_grid(self, tol: float = 1e-12) -> bool:
        return bool(np.all(np.abs(self.x + self.x[::-1]) <= tol * max(1.0, -self.x[0])))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x", "value"])
            for xj, vj in zip(self.x, self.values):
                writer.writerow([f"{xj:.17g}", f"{vj:.17g}"])

    @classmethod
    def from_csv(cls, path) -> "LineFunction":
        xs: list[float] = []
        vs: list[float] = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header[:2]] != ["x", "value"]:
                raise ShapeError(f"expected header 'x,value' in {path}")
            for row in reader:
                if not row:
                    continue
                xs.append(float(row[0]))
                vs.append(float(row[1]))
        order = np.argsort(xs)
        return cls(np.asarray(xs)[order], np.asarray(vs)[order])


def symmetric_line_grid(half_points: int, h: float) -> np.ndarray:
    """Grid (j - M) h for j = 0..2M; negation-symmetric in exact floats."""

    m = half_points - 1
    return (np.arange(2 * m + 1) - m) * h


@dataclass(frozen=True)
class CoefficientTriple:
    """Coefficients of q u'' + b u' + c u with growth bound sup c <= c_sup_bound.

    The same type holds the edge coefficients and their parity extension to
    the line (see ``extend_coefficients``).
    """

    q: Callable[[np.ndarray], np.ndarray]
    b: Callable[[np.ndarray], np.ndarray]
    c: Callable[[np.ndarray], np.ndarray]
    c_sup_bound: float


def ou_coefficients() -> CoefficientTriple:
    """Drift toward the vertex with unit rate: q = 1/2, b = -x, c = 0."""

    return CoefficientTriple(
        q=lambda x: np.full_like(np.asarray(x, dtype=float), 0.5),
        b=lambda x: -np.asarray(x, dtype=float),
        c=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c_sup_bound=0.0,
    )


def ho_coefficients() -> CoefficientTriple:
    """Quadratic potential with unit ground energy: q = 1/2, b = 0, c = (1 - x^2)/2."""

    return CoefficientTriple(
        q=lambda x: np.full_like(np.asarray(x, dtype=float), 0.5),
        b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c=lambda x: 0.5 * (1.0 - np.square(np.asarray(x, dtype=float))),
        c_sup_bound=0.5,
    )


def reflect_extend(f: StarFunction, i: int, x: np.ndarray | None = None) -> LineFunction:
    """Extend the star function to the line as seen from edge ``i``.

    For x >= 0 the extension equals the edge itself; for x <= 0 it equals
    2/m times the sum over all edges minus edge ``i``, evaluated at -x.  The
    two clauses agree at the vertex exactly when f is continuous there.
    """

    m = f.graph.m
    if not is_integer(i):
        raise InvalidPointError(f"edge index must be an integer, got {i!r}")
    if i < 1 or i > m:
        raise ShapeError(f"edge must be in 1..{m}, got {i}")
    if not f.continuous_at_vertex:
        raise VertexContinuityError(
            "reflection extension requires a vertex-continuous function"
        )
    idx = i - 1

    profile = None
    if f.has_profiles():
        fns = f.profiles

        def profile(t, _fns=fns, _idx=idx, _m=m):
            t = np.asarray(t, dtype=float)
            r = np.abs(t)
            own = np.asarray(_fns[_idx](r), dtype=float)
            total = np.zeros_like(own)
            for fn in _fns:
                total = total + np.asarray(fn(r), dtype=float)
            return np.where(t >= 0, own, (2.0 / _m) * total - own)

    if x is None:
        n = f.grid.points_per_edge
        x = symmetric_line_grid(n, f.grid.h)
        own = f.values[idx]
        total = f.values.sum(axis=0)
        negative = (2.0 / m) * total - own
        values = np.concatenate([negative[:0:-1], own])
        return LineFunction(x, values, profile=profile)

    x = np.asarray(x, dtype=float)
    if profile is None:
        raise ShapeError(
            "evaluating the extension on an explicit grid requires callable profiles"
        )
    return LineFunction(x, profile(x), profile=profile)


def extend_coefficients(coeffs: CoefficientTriple) -> CoefficientTriple:
    """Extend edge coefficients to the line: q, c evenly and b oddly.

    The odd drift extension is well defined only when b vanishes at the
    vertex (tolerance 1e-12); ellipticity q > 0 and the growth bound
    c <= c_sup_bound are spot-checked on 1201 points of [0, 12].
    """

    r = np.linspace(0.0, 12.0, 1201)
    b0 = float(np.asarray(coeffs.b(np.zeros(1)), dtype=float)[0])
    if abs(b0) > 1e-12:
        raise ExtensionError(
            f"drift must vanish at the vertex for an odd extension, got b(0) = {b0:.3e}"
        )
    qs = np.asarray(coeffs.q(r), dtype=float)
    cs = np.asarray(coeffs.c(r), dtype=float)
    if not (np.all(np.isfinite(qs)) and np.all(np.isfinite(cs))):
        raise NumericalInputError("coefficients must be finite on the sample grid")
    if np.any(qs <= 0):
        raise ExtensionError("diffusion coefficient must be strictly positive")
    if np.any(cs > coeffs.c_sup_bound + 1e-12):
        raise ExtensionError(
            f"reaction coefficient exceeds its declared bound {coeffs.c_sup_bound}"
        )

    def q_ext(x, _q=coeffs.q):
        return np.asarray(_q(np.abs(np.asarray(x, dtype=float))), dtype=float)

    def b_ext(x, _b=coeffs.b):
        x = np.asarray(x, dtype=float)
        return np.sign(x) * np.asarray(_b(np.abs(x)), dtype=float)

    def c_ext(x, _c=coeffs.c):
        return np.asarray(_c(np.abs(np.asarray(x, dtype=float))), dtype=float)

    return CoefficientTriple(q=q_ext, b=b_ext, c=c_ext, c_sup_bound=coeffs.c_sup_bound)


def even_odd_split(f: StarFunction) -> tuple[StarFunction, StarFunction]:
    """Split into the edge-average part and the zero-edge-sum remainder.

    The even part carries the same profile on every edge; the odd part sums
    to zero across edges at every radius.  The two recombine to f exactly and
    are orthogonal in the invariant-measure inner product.
    """

    avg = f.values.mean(axis=0)
    even_values = np.broadcast_to(avg, f.values.shape)
    odd_values = f.values - avg

    even_profiles = odd_profiles = None
    if f.has_profiles():
        fns = f.profiles
        m = f.graph.m

        def avg_fn(x, _fns=fns, _m=m):
            x = np.asarray(x, dtype=float)
            total = np.zeros_like(x)
            for fn in _fns:
                total = total + np.asarray(fn(x), dtype=float)
            return total / _m

        even_profiles = tuple(avg_fn for _ in range(m))
        odd_profiles = tuple(
            (lambda x, _fn=fn, _avg=avg_fn: np.asarray(_fn(x), dtype=float) - _avg(x))
            for fn in fns
        )

    even = StarFunction(
        f.graph,
        f.grid,
        np.array(even_values),
        continuous_at_vertex=True,
        profiles=even_profiles,
    )
    odd = StarFunction(
        f.graph,
        f.grid,
        odd_values,
        continuous_at_vertex=f.continuous_at_vertex,
        profiles=odd_profiles,
    )
    return even, odd


def fold_to_star(
    lines: Sequence[LineFunction],
    *,
    grid: GridSpec | None = None,
    continuity_tol: float | None = None,
    kirchhoff_tol: float | None = None,
) -> StarFunction:
    """Restrict one line function per edge to the star.

    Consistency at the vertex (equal values; edge derivatives summing to
    zero, measured with one-sided second-order stencils) is tested against
    the caller-supplied tolerances; ``None`` records the defect but does not
    raise.
    """

    m = len(lines)
    if m < 1:
        raise ShapeError("need at least one line function")
    x = lines[0].x
    for ln in lines[1:]:
        if ln.x.shape != x.shape or np.any(np.abs(ln.x - x) > 1e-12 * max(1.0, float(x[-1]))):
            raise ShapeError("line functions live on different grids")
    scale = max(1.0, float(x[-1]))
    if np.any(np.abs(x + x[::-1]) > 1e-9 * scale):
        raise ShapeError("folding needs a symmetric line grid")
    if x.size % 2 == 0:
        raise ShapeError("symmetric grid must contain the origin")
    center = x.size // 2
    n = x.size - center

    values = np.stack([ln.values[center:] for ln in lines])
    vertex = values[:, 0]
    continuity_defect = float(vertex.max() - vertex.min())

    if n < 3:
        raise StencilError("vertex stencil needs >= 3 points per edge")
    kirchhoff_defect = float(abs(vertex_slopes(values, lines[0].h).sum()))

    if continuity_tol is not None and continuity_defect > continuity_tol:
        raise FoldError(
            f"vertex continuity defect {continuity_defect:.3e} exceeds "
            f"{continuity_tol:.3e} (flux defect {kirchhoff_defect:.3e})"
        )
    if kirchhoff_tol is not None and kirchhoff_defect > kirchhoff_tol:
        raise FoldError(
            f"vertex flux defect {kirchhoff_defect:.3e} exceeds "
            f"{kirchhoff_tol:.3e} (continuity defect {continuity_defect:.3e})"
        )

    if grid is None:
        grid = GridSpec(cutoff=float(x[-1]), points_per_edge=n)
    elif grid.points_per_edge != n or abs(grid.cutoff - float(x[-1])) > 1e-9 * scale:
        raise ShapeError(
            f"explicit grid ({grid.points_per_edge} points, cutoff {grid.cutoff})"
            f" does not match the lines ({n} points, cutoff {float(x[-1])})"
        )
    return StarFunction(
        StarGraph(m),
        grid,
        values,
        continuous_at_vertex=vertex_continuous(vertex, 1e-9),
    )
