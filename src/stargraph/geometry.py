"""Star graph geometry, grids, measures and quadrature.

A metric star graph with ``m`` edges is the disjoint union of ``m`` copies of
the half-line glued at the common origin (the vertex).  Points are addressed
by an edge index and a radius; all points of radius zero are identified.

Functions on the graph are stored as per-edge samples on a shared uniform
radial grid, optionally backed by per-edge callables so that consumers may
re-sample beyond the stored cutoff.

Two numbers are equal up to rounding when they differ by at most VERTEX_TOL
of their size, never of a fixed unit, so the verdict is the same for the
input in any power-of-two units that keep it normal and finite: vertex
samples are measured against the data's peak, radial grids against their
cutoff, and a window's edge against its radius.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError, VertexContinuityError, check_edges, check_integer
from .errors import check_finite, check_nodes, check_points, check_positive, check_radius

__all__ = [
    "StarGraph",
    "StarPoint",
    "GridSpec",
    "StarFunction",
    "mu_density",
    "integrate_star",
    "sup_distance",
    "simpson_weights",
    "VERTEX_TOL",
    "vertex_continuous",
    "vertex_slopes",
    "vertex_flux",
]

SQRT_PI = math.sqrt(math.pi)

# sizes that differ by at most this share of their size are equal up to
# rounding, math.isclose's default; vertex samples that spread by at most
# this share of the data's peak are one vertex value
VERTEX_TOL = 1e-9


@dataclass(frozen=True)
class StarGraph:
    """Star with ``m`` half-line edges."""

    m: int

    def __post_init__(self) -> None:
        check_edges(self.m)


class StarPoint:
    """Point on a star graph: an edge index (1-based) and a radius >= 0.

    All radius-zero points compare equal regardless of edge index.
    """

    __slots__ = ("edge", "radius")

    def __init__(self, edge: int, radius: float):
        object.__setattr__(self, "edge", check_integer("edge index", edge))
        object.__setattr__(self, "radius", check_radius(float(radius)))

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
    """Uniform radial grid on [0, cutoff] with 2 .. MAX_NODES ``points_per_edge``."""

    cutoff: float
    points_per_edge: int

    def __post_init__(self) -> None:
        check_positive("cutoff", self.cutoff)
        check_points(self.points_per_edge, 2)
        check_nodes("points per edge", self.points_per_edge)
        if not self.h > 0:
            raise ShapeError(
                f"grid spacing cutoff/(points_per_edge - 1) underflows to 0 "
                f"(cutoff={self.cutoff}, points_per_edge={self.points_per_edge})"
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

    check_edges(m)
    r = p.radius if isinstance(p, StarPoint) else check_radius(p)
    return (2.0 / (m * SQRT_PI)) * np.exp(-np.square(r))


def simpson_weights(n_points: int, h: float) -> np.ndarray:
    """Composite quadrature weights on a uniform grid, exact for cubics.

    Even interval counts use the composite Simpson rule; odd counts splice a
    3/8 block onto the final three intervals.  A single interval falls back to
    the trapezoid rule.
    """

    check_points(n_points, 2)
    check_positive("h", h)
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


def _spread(col: np.ndarray) -> float:
    return float(col.max()) - float(col.min())  # Python floats: inf, not a warning


def vertex_continuous(col: np.ndarray, peak: float) -> bool:
    """Whether the vertex samples ``col`` spread by at most VERTEX_TOL * ``peak``.

    ``peak`` is the data's max |sample|: the vertex rounds at the size of
    the data, not at its own, which odd data leave near 0.  All-zero data
    are continuous.  Reads ``col`` in place, so a column view costs no copy.
    """

    spread = _spread(col)
    return spread == 0.0 or spread / peak <= VERTEX_TOL


def vertex_slopes(values: np.ndarray, h: float) -> np.ndarray:
    """Radial derivative at the vertex along the last axis, one-sided and second order.

    The stencil (-3 u0 + 4 u1 - u2) / (2h) is taken in differences from u0,
    (2 (u1 - u0) - (u2 - u0) / 2) / h, so samples near the float maximum do
    not overflow where their slope does not.
    """

    u0 = values[..., 0]
    return (2.0 * (values[..., 1] - u0) - 0.5 * (values[..., 2] - u0)) / h


def vertex_flux(values: np.ndarray, h: float) -> np.ndarray:
    """Absolute Kirchhoff flux sum at the vertex of samples (..., edge, radius).

    The flux sums the edges' ``vertex_slopes``, so it needs >= 3 points per
    edge.  Continuity needs no measure: a vertex-continuous ``StarFunction``
    stores one vertex value by construction.
    """

    check_points(values.shape[-1], 3)
    return np.abs(vertex_slopes(values, h).sum(axis=-1))


def _disagreement(col: np.ndarray, peak: float) -> str:
    return (
        f"vertex values disagree by {_spread(col):.3e} "
        f"(tolerance {VERTEX_TOL:.0e} times the data's peak {peak:.3e})"
    )


Profile = Callable[[np.ndarray], np.ndarray]


def _sample(profiles: tuple[Profile, ...], radii: np.ndarray) -> np.ndarray:
    """Evaluate per-edge callables on ``radii``, shape (len(profiles), radii.size).

    A profile returns one value per radius, or one value for all of them.
    """

    out = np.empty((len(profiles), radii.size))
    first: dict[int, int] = {}  # a callable shared by edges is called once, on its first
    for i, fn in enumerate(profiles):
        j = first.setdefault(id(fn), i)
        if j < i:
            out[i] = out[j]
            continue
        row = fn(radii)
        if np.shape(row) not in ((), radii.shape):
            raise ShapeError(
                f"the profile of edge {i} returned shape {np.shape(row)} for radii of shape "
                f"{radii.shape}; a profile returns one value per radius"
            )
        out[i] = row
    return out


class StarFunction:
    """Scalar function on a star graph, sampled per edge on a shared grid.

    ``values`` has shape (m, points_per_edge).  Vertex continuity is read
    from the samples: when the radius-zero samples agree within VERTEX_TOL
    times the data's peak (``vertex_continuous``) they are stored as one
    value mirrored to every edge, and ``continuous_at_vertex`` is set, so
    continuity is structural rather than checked downstream.  Passing
    ``continuous_at_vertex=True`` asks for a ``VertexContinuityError`` when
    they do not agree.  Optional per-edge ``profiles`` (callables of the
    radius) allow re-evaluation beyond the stored grid.
    """

    __slots__ = ("graph", "grid", "values", "continuous_at_vertex", "profiles")

    def __init__(
        self,
        graph: StarGraph,
        grid: GridSpec,
        values: np.ndarray,
        *,
        continuous_at_vertex: bool = False,
        profiles: tuple[Profile, ...] | None = None,
    ):
        if profiles is not None and len(profiles) != graph.m:
            raise ShapeError(
                f"need one profile per edge ({graph.m}), got {len(profiles)}"
            )
        values = np.array(values, dtype=float)
        if values.shape != (graph.m, grid.points_per_edge):
            raise ShapeError(
                f"values must have shape {(graph.m, grid.points_per_edge)}, "
                f"got {values.shape}"
            )
        peak = check_finite(values)
        col = values[:, 0]
        continuous = vertex_continuous(col, peak)
        if continuous:
            values[:, 0] = col[0]
        elif continuous_at_vertex:
            raise VertexContinuityError(_disagreement(col, peak))
        values.flags.writeable = False
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "continuous_at_vertex", continuous)
        object.__setattr__(self, "profiles", profiles)

    def __setattr__(self, name, value):
        raise AttributeError("StarFunction is immutable")

    def require_continuous(self, context: str) -> None:
        """Raise VertexContinuityError, naming the vertex spread, unless continuous."""

        if not self.continuous_at_vertex:
            raise VertexContinuityError(
                f"{context}: {_disagreement(self.values[:, 0], self.sup_norm())}"
            )

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
        continuous_at_vertex: bool = False,
    ) -> "StarFunction":
        """Sample per-edge callables on the grid and keep them for re-sampling."""

        profiles = tuple(profiles)
        return cls(
            graph,
            grid,
            _sample(profiles, grid.nodes()),
            continuous_at_vertex=continuous_at_vertex,
            profiles=profiles,
        )

    @classmethod
    def constant(cls, graph: StarGraph, grid: GridSpec, value: float) -> "StarFunction":
        value = float(value)
        profiles = (lambda x: np.full_like(np.asarray(x, dtype=float), value),) * graph.m
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
                try:
                    edge, radius, value = int(row[0]), float(row[1]), float(row[2])
                except ValueError as exc:
                    raise ShapeError(
                        f"row {reader.line_num} does not parse in {path}: {exc}"
                    ) from exc
                if edge < 1:
                    raise ShapeError(
                        f"edge index {edge} on row {reader.line_num} is not >= 1 in {path}"
                    )
                if not math.isfinite(radius):
                    raise ShapeError(
                        f"radius {row[1]!r} on row {reader.line_num} is not finite in {path}"
                    )
                per_edge.setdefault(edge, []).append((radius, value))
        if not per_edge:
            raise ShapeError(f"no data rows in {path}")
        m = max(per_edge)
        if len(per_edge) != m:  # distinct indices >= 1 cover 1..m exactly when there are m
            raise ShapeError(f"edge indices must cover 1..{m} in {path}")
        counts = {len(rows) for rows in per_edge.values()}
        if len(counts) != 1:
            raise ShapeError(f"edges carry different sample counts in {path}")
        n = counts.pop()
        if n < 2:
            raise ShapeError(f"need >= 2 samples per edge in {path}")
        radii, values = np.empty((m, n)), np.empty((m, n))
        for edge, rows in per_edge.items():
            rows.sort(key=lambda rv: rv[0])
            radii[edge - 1], values[edge - 1] = np.array(rows).T
        # every edge's radii are edge 1's to within its size, the cutoff
        if np.any(np.abs(radii - radii[0]) > VERTEX_TOL * radii[0, -1]):
            raise ShapeError(f"edges carry different radial grids in {path}")
        spacing = np.diff(radii[0])
        if radii[0, 0] != 0.0 or np.any(np.abs(spacing - spacing[0]) > VERTEX_TOL * spacing[0]):
            raise ShapeError(f"radial grid must be uniform starting at 0 in {path}")
        grid = GridSpec(cutoff=float(radii[0, -1]), points_per_edge=n)
        return cls(StarGraph(m), grid, values)


def integrate_star(f: StarFunction) -> float:
    """Integrate against the invariant probability measure over the truncated star."""

    g = f.grid
    w = simpson_weights(g.points_per_edge, g.h) * mu_density(g.nodes(), f.graph.m)
    return float(np.dot(f.values, w).sum())


def sup_distance(f: StarFunction, g: StarFunction, radius_max: float | None = None) -> float:
    """Supremum distance over shared grid nodes, optionally windowed to [0, radius_max].

    A node past ``radius_max`` by at most VERTEX_TOL of it is in the window.
    """

    if f.graph.m != g.graph.m:
        raise ShapeError("functions live on stars with different edge counts")
    if f.grid != g.grid:
        raise ShapeError("functions are sampled on different grids")
    diff = np.abs(f.values - g.values)
    if radius_max is not None:
        # a window beyond the cutoff is the whole grid, also an infinite one
        radius_max = check_radius(min(radius_max, f.grid.cutoff))
        mask = f.grid.nodes() <= radius_max * (1.0 + VERTEX_TOL)
        diff = diff[:, mask]
    return float(diff.max())
