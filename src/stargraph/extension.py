"""Reflection between star functions and line functions.

A continuous function on the star extends to one function per edge on the
whole line: the positive half-axis carries the edge itself, the negative
half-axis carries twice the edge average minus the edge (``reflect``).  The
extension works on plain per-edge sample arrays: a line is restricted back
to the star by slicing it at its centre node, and ``geometry.vertex_flux``
measures how well the restricted edges still balance their fluxes there.
Edges that carry bitwise equal data extend to the same line, so they evolve
alike: ``_distinct_edges`` decides which edges those are, once, for both
``semigroup.apply`` and the oracle's star march, which evolve each distinct
edge once and give every edge its distinct edge's row.  Second-order
coefficients extend by parity: diffusion and reaction evenly, drift oddly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "CoefficientTriple",
    "ou_coefficients",
    "ho_coefficients",
    "reflect",
    "check_coefficients",
    "extend_coefficients",
]


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


def reflect(values: np.ndarray, edges=slice(None)) -> np.ndarray:
    """What each edge's line carries at -r: 2/m times the edge sum minus the edge.

    ``values`` holds per-edge samples with the edge along axis 0.  The edge
    average (the even sector) is kept and the deviations from it (the odd
    sectors) change sign.  ``edges`` (an index along axis 0) picks the lines
    returned; the sum runs over all m edges either way.
    """

    values = np.asarray(values, dtype=float)
    return (2.0 / values.shape[0]) * values.sum(axis=0) - values[edges]


def _distinct_edges(values):
    """The edges of ``values`` (edge along axis 0) up to bitwise equal ones:
    ``(distinct, group)``, with ``values[distinct][group]`` equal to
    ``values``, or ``(slice(None), None)`` when no two edges are equal.
    ``distinct`` holds each group's first edge, in order.  Edges that carry
    the same data are the same line, so they evolve alike.  Rows are
    fingerprinted by their sums, and every row is compared exactly with the
    first row of its sum; a row unlike that one (``[2, 1]`` after ``[1, 2]``)
    stays apart."""

    sums = values.sum(axis=1).tolist()
    first = dict(zip(reversed(sums), range(len(sums) - 1, -1, -1)))  # each sum's first row
    if len(first) == len(sums):
        return slice(None), None
    rep = np.fromiter(map(first.__getitem__, sums), np.intp, len(sums))
    apart = rep == np.arange(rep.size)
    # rows of at most 192 kB at a time, so the comparison holds no copy of
    # the rows and no boolean array of their shape
    step = max(1, 24576 // values.shape[1])
    for i in range(0, rep.size, step):
        rows = slice(i, i + step)
        apart[rows] |= (values[rows] != values[rep[rows]]).any(axis=1)
    distinct = np.flatnonzero(apart)
    if distinct.size == rep.size:
        return slice(None), None
    rep[distinct] = distinct
    group = np.empty_like(rep)
    group[distinct] = np.arange(distinct.size)
    return distinct, group[rep]


def check_coefficients(q: np.ndarray, *others) -> None:
    """Raise DomainError unless the diffusion samples ``q`` are positive and, with the
    samples and bounds ``others``, finite (their sum is checked, so it must not overflow)."""

    if not np.all(q > 0):  # NaN fails too
        raise DomainError(f"diffusion coefficient must be positive, got q = {np.min(q):.6g}")
    if not np.all(np.isfinite(sum(others, q))):
        raise DomainError("coefficients and c_sup_bound must be finite")


def extend_coefficients(coeffs: CoefficientTriple) -> CoefficientTriple:
    """Extend edge coefficients to the line: q, c evenly and b oddly.

    The odd drift extension is well defined only when b vanishes at the
    vertex (tolerance 1e-12); ``check_coefficients`` on q and c and the
    growth bound c <= c_sup_bound are spot-checked on 1201 points of [0, 12].
    """

    r = np.linspace(0.0, 12.0, 1201)
    b0 = float(np.asarray(coeffs.b(np.zeros(1)), dtype=float)[0])
    if abs(b0) > 1e-12:
        raise DomainError(
            f"drift must vanish at the vertex for an odd extension, got b(0) = {b0:.3e}"
        )
    qs = np.asarray(coeffs.q(r), dtype=float)
    cs = np.asarray(coeffs.c(r), dtype=float)
    check_coefficients(qs, cs)
    if np.any(cs > coeffs.c_sup_bound + 1e-12):
        raise DomainError(
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

