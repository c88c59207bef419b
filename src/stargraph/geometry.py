"""Star graph geometry, grids, measures and quadrature.

A metric star graph with ``m`` edges is the disjoint union of ``m`` copies of
the half-line glued at the common origin (the vertex).  Points are addressed
by an edge index and a radius; all points of radius zero are identified.

Functions on the graph are stored as per-edge samples on a shared uniform
radial grid, optionally backed by per-edge callables so that consumers may
re-sample beyond the stored cutoff.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InvalidGraphError,
    InvalidPointError,
    NumericalInputError,
    ShapeError,
    StarGraphError,
    StencilError,
    VertexContinuityError,
)

__all__ = [
    "StarGraph",
    "StarPoint",
    "GridSpec",
    "StarFunction",
    "mu_density",
    "integrate_star",
    "sup_distance",
    "simpson_weights",
    "check_edge_count",
    "is_integer",
    "VERTEX_TOL",
    "vertex_continuous",
    "vertex_slopes",
    "vertex_defects",
]

SQRT_PI = math.sqrt(math.pi)

# vertex samples that spread by at most this share of max(1, |value|) are one
# vertex value, whether continuity is claimed or detected
VERTEX_TOL = 1e-9


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""

    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_edge_count(m, error: type[StarGraphError] = InvalidGraphError) -> None:
    """Raise ``error`` unless ``m`` is a positive integer (a bool is not one)."""

    if not is_integer(m) or m < 1:
        raise error(f"edge count must be a positive integer, got {m!r}")


@dataclass(frozen=True)
class StarGraph:
    """Star with ``m`` half-line edges."""

    m: int

    def __post_init__(self) -> None:
        check_edge_count(self.m)


class StarPoint:
    """Point on a star graph: an edge index (1-based) and a radius >= 0.

    All radius-zero points compare equal regardless of edge index.
    """

    __slots__ = ("edge", "radius")

    def __init__(self, edge: int, radius: float):
        if not is_integer(edge):
            raise InvalidPointError(f"edge index must be an integer, got {edge!r}")
        if edge < 1:
            raise InvalidPointError(f"edge index must be >= 1, got {edge}")
        radius = float(radius)
        if not math.isfinite(radius) or radius < 0:
            raise InvalidPointError(f"radius must be finite and >= 0, got {radius}")
        object.__setattr__(self, "edge", int(edge))
        object.__setattr__(self, "radius", radius)

    def __setattr__(self, name, value):
        raise AttributeError("StarPoint is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, StarPoint):
            return NotImplemented
        if self.radius == 0.0 and other.radius == 0.0:
            return True
        return self.edge == other.edge and self.radius == other.radius

    def __hash__(self) -> int:
        if self.radius == 0.0:
            return hash((0, 0.0))
        return hash((self.edge, self.radius))

    def __repr__(self) -> str:
        return f"StarPoint(edge={self.edge}, radius={self.radius})"


@dataclass(frozen=True)
class GridSpec:
    """Uniform radial grid on [0, cutoff] with ``points_per_edge`` nodes."""

    cutoff: float = 6.0
    points_per_edge: int = 513

    def __post_init__(self) -> None:
        if not math.isfinite(self.cutoff) or self.cutoff <= 0:
            raise ShapeError(f"cutoff must be positive and finite, got {self.cutoff}")
        if not is_integer(self.points_per_edge) or self.points_per_edge < 2:
            raise ShapeError(
                f"points_per_edge must be an integer >= 2, got {self.points_per_edge!r}"
            )

    @property
    def h(self) -> float:
        return self.cutoff / (self.points_per_edge - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.cutoff, self.points_per_edge)


def mu_density(p, m: int):
    """Density of the invariant probability measure w.r.t. edge Lebesgue measure.

    Per edge the density at radius r is (2 / (m sqrt(pi))) exp(-r^2); summed over
    the m edges it integrates to one.
    """

    check_edge_count(m)
    if isinstance(p, StarPoint):
        r = p.radius
    else:
        r = np.asarray(p, dtype=float)
        if np.any(~np.isfinite(r)) or np.any(r < 0):
            raise InvalidPointError("radii must be finite and >= 0")
    return (2.0 / (m * SQRT_PI)) * np.exp(-np.square(r))


def simpson_weights(n_points: int, h: float) -> np.ndarray:
    """Composite quadrature weights on a uniform grid, exact for cubics.

    Even interval counts use the composite Simpson rule; odd counts splice a
    3/8 block onto the final three intervals.  A single interval falls back to
    the trapezoid rule.
    """

    if n_points < 2:
        raise ShapeError(f"quadrature needs >= 2 points, got {n_points}")
    if not math.isfinite(h) or h <= 0:
        raise ShapeError(f"grid spacing must be positive, got {h}")
    intervals = n_points - 1
    w = np.zeros(n_points)
    if intervals == 1:
        w[:] = h / 2.0
        return w
    if intervals % 2 == 0:
        w[0] = w[-1] = h / 3.0
        w[1:-1:2] = 4.0 * h / 3.0
        w[2:-1:2] = 2.0 * h / 3.0
        return w
    # odd interval count: Simpson up to the last three intervals, 3/8 there
    head = intervals - 3
    if head > 0:
        w[0] = h / 3.0
        w[1:head:2] = 4.0 * h / 3.0
        w[2:head:2] = 2.0 * h / 3.0
        w[head] = h / 3.0
    w[head:] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    return w


def vertex_continuous(col: np.ndarray) -> bool:
    """Whether the vertex samples ``col`` spread by at most VERTEX_TOL * max(1, max |col|).

    Reads ``col`` in place, so a column view of a sample array costs no copy.
    """

    hi = float(col.max())
    lo = float(col.min())
    return hi - lo <= VERTEX_TOL * max(1.0, abs(hi), abs(lo))


def vertex_slopes(values: np.ndarray, h: float) -> np.ndarray:
    """Radial derivative at the vertex along the last axis, one-sided and second order."""

    return (-3.0 * values[..., 0] + 4.0 * values[..., 1] - values[..., 2]) / (2.0 * h)


def vertex_defects(values: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Continuity spread and absolute flux sum at the vertex of samples (..., edge, radius).

    The flux sums the edges' ``vertex_slopes``, so it needs >= 3 points per edge.
    """

    if values.shape[-1] < 3:
        raise StencilError("vertex stencil needs >= 3 points per edge")
    vertex = values[..., 0]
    continuity = vertex.max(axis=-1) - vertex.min(axis=-1)
    return continuity, np.abs(vertex_slopes(values, h).sum(axis=-1))


Profile = Callable[[np.ndarray], np.ndarray]


def _sample(profiles: tuple[Profile, ...], radii: np.ndarray) -> np.ndarray:
    """Evaluate per-edge callables on ``radii``, shape (len(profiles), radii.size)."""

    out = np.empty((len(profiles), radii.size))
    for i, fn in enumerate(profiles):
        out[i] = fn(radii)
    return out


class StarFunction:
    """Scalar function on a star graph, sampled per edge on a shared grid.

    ``values`` has shape (m, points_per_edge).  When the function is flagged
    continuous at the vertex the radius-zero sample is stored once and
    mirrored to every edge, so continuity is structural rather than checked
    downstream.  Optional per-edge ``profiles`` (callables of the radius)
    allow re-evaluation beyond the stored grid.
    """

    __slots__ = ("graph", "grid", "values", "continuous_at_vertex", "profiles",
                 "trusted_cutoff")

    def __init__(
        self,
        graph: StarGraph,
        grid: GridSpec,
        values: np.ndarray,
        *,
        continuous_at_vertex: bool = False,
        profiles: tuple[Profile, ...] | None = None,
        trusted_cutoff: float | None = None,
    ):
        values = np.array(values, dtype=float)
        if values.shape != (graph.m, grid.points_per_edge):
            raise ShapeError(
                f"values must have shape {(graph.m, grid.points_per_edge)}, "
                f"got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise NumericalInputError("values must be finite")
        if profiles is not None and len(profiles) != graph.m:
            raise ShapeError(
                f"need one profile per edge ({graph.m}), got {len(profiles)}"
            )
        if continuous_at_vertex:
            col = values[:, 0]
            if not vertex_continuous(col):
                raise VertexContinuityError(
                    f"vertex values disagree by {float(np.ptp(col)):.3e} "
                    f"(tolerance {VERTEX_TOL:.0e} times max(1, |vertex value|))"
                )
            values[:, 0] = col[0]
        values.flags.writeable = False
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "continuous_at_vertex", bool(continuous_at_vertex))
        object.__setattr__(self, "profiles", profiles)
        object.__setattr__(self, "trusted_cutoff", trusted_cutoff)

    def __setattr__(self, name, value):
        raise AttributeError("StarFunction is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_samples(
        cls,
        graph: StarGraph,
        grid: GridSpec,
        values: np.ndarray,
        *,
        continuous_at_vertex: bool = False,
    ) -> "StarFunction":
        return cls(graph, grid, values, continuous_at_vertex=continuous_at_vertex)

    @classmethod
    def from_callables(
        cls,
        graph: StarGraph,
        grid: GridSpec,
        profiles: Sequence[Profile],
        *,
        continuous_at_vertex: bool | None = None,
    ) -> "StarFunction":
        """Sample per-edge callables; vertex continuity is auto-detected when
        ``continuous_at_vertex`` is None."""

        profiles = tuple(profiles)
        if len(profiles) != graph.m:
            raise ShapeError(
                f"need one profile per edge ({graph.m}), got {len(profiles)}"
            )
        values = _sample(profiles, grid.nodes())
        if continuous_at_vertex is None:
            continuous_at_vertex = vertex_continuous(values[:, 0])
        return cls(
            graph,
            grid,
            values,
            continuous_at_vertex=continuous_at_vertex,
            profiles=profiles,
        )

    @classmethod
    def constant(cls, graph: StarGraph, grid: GridSpec, value: float) -> "StarFunction":
        value = float(value)
        profiles = tuple(
            (lambda x, v=value: np.full_like(np.asarray(x, dtype=float), v))
            for _ in range(graph.m)
        )
        return cls.from_callables(graph, grid, profiles, continuous_at_vertex=True)

    # -- basic queries -----------------------------------------------------

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    def has_profiles(self) -> bool:
        return self.profiles is not None

    def evaluate_profiles(self, radii: np.ndarray) -> np.ndarray:
        """Evaluate the backing callables on arbitrary radii, shape (m, len(radii))."""

        if self.profiles is None:
            raise ShapeError("this StarFunction has no callable profiles")
        return _sample(self.profiles, np.asarray(radii, dtype=float))

    # -- serialization -----------------------------------------------------

    def to_csv(self, path) -> None:
        nodes = self.grid.nodes()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["edge", "radius", "value"])
            for i in range(self.graph.m):
                for j, r in enumerate(nodes):
                    writer.writerow([i + 1, f"{r:.17g}", f"{self.values[i, j]:.17g}"])

    @classmethod
    def from_csv(cls, path) -> "StarFunction":
        per_edge: dict[int, list[tuple[float, float]]] = {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header] != ["edge", "radius", "value"]:
                raise ShapeError(f"expected header 'edge,radius,value' in {path}")
            for row in reader:
                if not row:
                    continue
                if len(row) != 3:
                    raise ShapeError(
                        f"row {reader.line_num} has {len(row)} fields, not 3, in {path}"
                    )
                edge, radius, value = int(row[0]), float(row[1]), float(row[2])
                if not math.isfinite(radius):
                    raise ShapeError(
                        f"radius {row[1]!r} on row {reader.line_num} is not finite in {path}"
                    )
                per_edge.setdefault(edge, []).append((radius, value))
        if not per_edge:
            raise ShapeError(f"no data rows in {path}")
        m = max(per_edge)
        if sorted(per_edge) != list(range(1, m + 1)):
            raise ShapeError(f"edge indices must cover 1..{m} in {path}")
        counts = {len(rows) for rows in per_edge.values()}
        if len(counts) != 1:
            raise ShapeError(f"edges carry different sample counts in {path}")
        n = counts.pop()
        if n < 2:
            raise ShapeError(f"need >= 2 samples per edge in {path}")
        values = np.empty((m, n))
        radii_ref = None
        for edge, rows in per_edge.items():
            rows.sort(key=lambda rv: rv[0])
            radii = np.array([rv[0] for rv in rows])
            if radii_ref is None:
                radii_ref = radii
            elif not np.allclose(radii, radii_ref, rtol=0.0, atol=1e-12):
                raise ShapeError(f"edges carry different radial grids in {path}")
            values[edge - 1] = [rv[1] for rv in rows]
        spacing = np.diff(radii_ref)
        if radii_ref[0] != 0.0 or np.any(np.abs(spacing - spacing[0]) > 1e-9 * spacing[0]):
            raise ShapeError(f"radial grid must be uniform starting at 0 in {path}")
        grid = GridSpec(cutoff=float(radii_ref[-1]), points_per_edge=n)
        continuous = vertex_continuous(values[:, 0])
        return cls(StarGraph(m), grid, values, continuous_at_vertex=continuous)


def integrate_star(f: StarFunction) -> float:
    """Integrate against the invariant probability measure over the truncated star."""

    g = f.grid
    w = simpson_weights(g.points_per_edge, g.h) * mu_density(g.nodes(), f.graph.m)
    return float(np.dot(f.values, w).sum())


def sup_distance(f: StarFunction, g: StarFunction, radius_max: float | None = None) -> float:
    """Supremum distance over shared grid nodes, optionally windowed to [0, radius_max]."""

    if f.graph.m != g.graph.m:
        raise ShapeError("functions live on stars with different edge counts")
    if f.grid != g.grid:
        raise ShapeError("functions are sampled on different grids")
    diff = np.abs(f.values - g.values)
    if radius_max is not None:
        if not radius_max >= 0:
            raise InvalidPointError(f"window radius must be >= 0, got {radius_max}")
        mask = f.grid.nodes() <= radius_max + 1e-12
        diff = diff[:, mask]
    return float(diff.max())
