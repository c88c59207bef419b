"""Spectral structure of the star semigroups.

The generator spectrum is the nonpositive integers.  Even levels carry one
eigenfunction (the same Hermite polynomial on every edge, zero edge
derivative at the vertex); odd levels carry an (m-1)-dimensional space built
from differences of two edges (zero vertex value, flux balance by
cancellation).  The oracle's centred finite-difference stencil of the
generator maps polynomials of degree k to degree k, so its discrete levels
are the integers up to the truncation at the cutoff, with the same cluster
sizes; the sum of multiplicity-weighted exponentials matches the
on-diagonal kernel integral.  ``trace_partial`` gives both in closed form,
the sum as two finite geometric series and the integral from
``kernels.gaussian_form``.

The stencil splits the same way as the spectrum, into the oracle's two
sector stencils (``oracle._sector_stencils``): the even sector is the line
with the Neumann vertex row, and each of the m - 1 odd sectors is the line
with the vertex pinned.  ``form_spectrum`` makes each one symmetric by its
discrete density and solves it with ``scipy.linalg.eigh_tridiagonal``; by
interlacing, the lowest ``count`` star values need only about count/m
values of each sector, which bisection finds in O(n count/m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as P, polyutils

from .errors import ShapeError, StabilityError, check_edges, check_integer, check_points, check_time
from .extension import ou_coefficients
from .geometry import GridSpec, StarFunction, StarGraph
from .kernels import OU, KernelSpec, check_spec, gaussian_form
from .oracle import _sector_stencils

__all__ = [
    "PolyGauss",
    "SpectralDatum",
    "hermite_coefficients",
    "eigenbasis",
    "apply_generator",
    "form_spectrum",
    "multiplicity",
    "trace_closed_form",
    "trace_partial",
    "TracePair",
]


# -- analytic edge profiles -------------------------------------------------


@dataclass(frozen=True)
class PolyGauss:
    """p(x) exp(-a x^2 / 2) with exact coefficient arithmetic.

    a = 0 gives plain polynomials; differentiation, multiplication by x and
    linear combinations stay inside the class, so generator identities can
    be checked on coefficients instead of samples.
    """

    coeffs: tuple[float, ...]
    gauss: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(map(float, polyutils.trimseq(self.coeffs))))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = P.polyval(x, np.asarray(self.coeffs))
        if self.gauss != 0.0:
            out = out * np.exp(-0.5 * self.gauss * x * x)
        return out

    def derivative(self) -> "PolyGauss":
        c = np.asarray(self.coeffs)
        return PolyGauss(P.polysub(P.polyder(c), P.polymulx(self.gauss * c)), self.gauss)

    def times_x(self) -> "PolyGauss":
        return PolyGauss((0.0,) + self.coeffs, self.gauss)

    def scaled(self, a: float) -> "PolyGauss":
        return PolyGauss(tuple(a * c for c in self.coeffs), self.gauss)

    def plus(self, other: "PolyGauss") -> "PolyGauss":
        if other.gauss != self.gauss and other.coeffs != (0.0,) and self.coeffs != (0.0,):
            raise ShapeError("cannot add profiles with different Gaussian factors")
        gauss = self.gauss if self.coeffs != (0.0,) else other.gauss
        return PolyGauss(P.polyadd(self.coeffs, other.coeffs), gauss)

    def shift_gauss(self, delta: float) -> "PolyGauss":
        """Multiply by exp(-delta x^2 / 2)."""

        return PolyGauss(self.coeffs, self.gauss + delta)

    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)


# -- Hermite polynomials ----------------------------------------------------


def hermite_coefficients(k: int) -> tuple[float, ...]:
    """Coefficients (ascending) of the k-th physicists' Hermite polynomial.

    They are integers, exact in double precision through k = 28.
    """

    check_integer("level", k, least=0)
    return tuple(np.polynomial.hermite.herm2poly([0.0] * k + [1.0]).tolist())


# -- eigenbasis ---------------------------------------------------------------


@dataclass(frozen=True)
class SpectralDatum:
    eigenvalue: float
    multiplicity: int
    basis: tuple[StarFunction, ...]


def multiplicity(k: int, m: int) -> int:
    """Even levels are simple; odd levels have dimension m - 1."""

    check_edges(m)
    check_integer("level", k, least=0)
    return 1 if k % 2 == 0 else m - 1


def eigenbasis(m: int, k: int, grid: GridSpec) -> SpectralDatum:
    """Analytic eigenfunctions of the drift generator at eigenvalue -k.

    Even k: the Hermite polynomial on every edge (edge derivative vanishes
    at the vertex).  Odd k: differences of edge 1 and edge l (vertex value
    vanishes, edge derivatives cancel pairwise).  A one-edge star has no odd
    levels.
    """

    graph = StarGraph(m)
    prof = PolyGauss(hermite_coefficients(k))
    zero = PolyGauss((0.0,))
    basis: list[StarFunction] = []
    if k % 2 == 0:
        basis.append(
            StarFunction.from_callables(graph, grid, (prof,) * m, continuous_at_vertex=True)
        )
    else:
        for other in range(2, m + 1):
            profiles = [zero] * m
            profiles[0] = prof
            profiles[other - 1] = prof.scaled(-1.0)
            basis.append(
                StarFunction.from_callables(
                    graph, grid, tuple(profiles), continuous_at_vertex=True
                )
            )
    return SpectralDatum(eigenvalue=-float(k), multiplicity=multiplicity(k, m), basis=tuple(basis))


# -- generator application ----------------------------------------------------


def _apply_generator_profile(spec: KernelSpec, p: PolyGauss) -> PolyGauss:
    d1 = p.derivative()
    d2 = d1.derivative()
    if spec.tag == "ou":
        return d2.scaled(0.5).plus(d1.times_x().scaled(-1.0))
    # (f'' - x^2 f + f) / 2
    return d2.plus(p.times_x().times_x().scaled(-1.0)).plus(p).scaled(0.5)


def apply_generator(spec: KernelSpec, f: StarFunction) -> StarFunction:
    """Apply the generator edge by edge to exact ``PolyGauss`` profiles.

    Profiles are differentiated exactly (polynomial-with-Gaussian algebra),
    so eigen-identities hold at coefficient level.  A ``spec`` that is not a
    ``KernelSpec`` is refused with ``DomainError``, and input without a
    ``PolyGauss`` profile on every edge with ``ShapeError``.
    """

    check_spec(spec)
    if not (f.has_profiles() and all(isinstance(p, PolyGauss) for p in f.profiles)):
        raise ShapeError("the generator needs a PolyGauss profile on every edge")
    out_profiles = tuple(_apply_generator_profile(spec, p) for p in f.profiles)
    return StarFunction.from_callables(f.graph, f.grid, out_profiles)


# -- discretized spectrum ------------------------------------------------------


def _star_size(m: int, points: int) -> int:
    """The number of eigenvalues of the discretized star generator.

    The cutoff node is pinned, so the even sector has points - 1 rows, and
    each of the m - 1 odd sectors, whose vertex is pinned too, points - 2.
    """

    return (points - 1) + (m - 1) * (points - 2)


def _sector_values(
    stencil: tuple[np.ndarray, np.ndarray, np.ndarray], count: int | None
) -> np.ndarray:
    """Lowest ``count`` eigenvalues (all for None) of minus one sector stencil.

    The diagonal similarity by the square root of the stencil's discrete
    density, in which it is self-adjoint, gives rows i and i + 1 the
    coupling sqrt(lower[i+1] upper[i]) both ways; the symmetric tridiagonal
    matrix is solved by bisection for a count and by the MRRR driver for
    the whole spectrum.  A LAPACK failure raises ``StabilityError``.
    """

    from scipy.linalg import eigh_tridiagonal  # scipy.linalg loads when a solve runs

    lower, diag, upper = stencil
    off = np.sqrt(lower[1:] * upper[:-1])
    select = {} if count is None else {"select": "i", "select_range": (0, count - 1)}
    try:
        return eigh_tridiagonal(-diag, off, eigvals_only=True, **select)
    except np.linalg.LinAlgError as exc:
        raise StabilityError(f"the sector eigensolve failed: {exc}") from exc


def form_spectrum(m: int, grid: GridSpec, count: int | None = None) -> np.ndarray:
    """Ascending eigenvalues of minus the discretized OU generator on the m-edge star.

    The discretization is the oracle's centred stencil on the grid's nodes
    with Dirichlet ends at the cutoff, and the star's Kirchhoff vertex row
    2 q(0)/h^2 (mean of the edges' first nodes - u_0).  It maps polynomials
    of degree k to degree k, so its levels are the integers up to the
    truncation at the cutoff alone.  It splits exactly into an even sector
    (the same values on every edge: the line with the Neumann vertex row)
    and m - 1 copies of an odd sector (vertex value 0, edges summing to 0:
    the line with the vertex pinned), both from ``oracle._sector_stencils``,
    so two tridiagonal solves of size n - 1 and n - 2 (n points per edge)
    replace the star
    problem of size (n - 1) + (m - 1)(n - 2), and each odd value appears
    m - 1 times by construction.

    ``count`` keeps the lowest values, 1 .. (n - 1) + (m - 1)(n - 2) of
    them, checked before the stencil is built.  The odd matrix is the even
    one with the vertex row and column deleted, so by Cauchy interlacing
    e_j <= o_j <= e_{j+1}, and the merged list runs e_1, o_1 (m - 1 times),
    e_2, ...  Its lowest ``count`` values therefore use only the lowest
    (count - 1)//m + 1 even values and (count - 2)//m + 1 odd ones, found
    by bisection in O(n k) for k values; the whole spectrum takes O(n^2).
    The stencil refuses a cell Peclet number cutoff h > 1 (``DomainError``),
    and a solver failure raises ``StabilityError``.
    """

    check_edges(m)
    check_points(grid.points_per_edge, 3)
    if count is not None:
        check_integer("count", count, most=_star_size(m, grid.points_per_edge))
    h = grid.h
    # q = 1/2, b = -x and c = 0 are already parity-extended on the line
    even, odd = _sector_stencils(ou_coefficients(), np.concatenate(([-h], grid.nodes())), h)
    even_count = odd_count = count
    if count is not None:
        even_count = count if m == 1 else (count - 1) // m + 1
        odd_count = (count - 2) // m + 1
    vals = _sector_values(even, even_count)
    if m > 1 and odd_count != 0:
        # the odd stencil without its pinned vertex row
        odd_vals = _sector_values(tuple(row[1:] for row in odd), odd_count)
        vals = np.sort(np.concatenate([vals, np.repeat(odd_vals, m - 1)]))
    return vals[:count]


# -- trace --------------------------------------------------------------------


class TracePair(NamedTuple):
    partial_sum: float
    kernel_trace: float


def trace_closed_form(t: float, m: int) -> float:
    """(1 + (m-1) e^{-t}) / (1 - e^{-2t})."""

    t = check_time(t)
    check_edges(m)
    return (1.0 + (m - 1) * math.exp(-t)) / (-math.expm1(-2.0 * t))


def trace_partial(t: float, m: int, terms: int) -> TracePair:
    """Multiplicity-weighted partial sum and the on-diagonal kernel integral.

    The partial sum runs over the levels 0 .. ``terms``: two finite
    geometric series in e^{-2t}, the even levels with weight 1 and the odd
    ones with weight m - 1.  The kernel side integrates the star kernel
    along the diagonal with edge Lebesgue measure, m direct half-line
    integrals plus (2 - m) reflected ones.  On y = ±x the Gaussian of
    ``gaussian_form(OU, t)`` has (x - y) - μx = -μx or (1 + λ)x, so each is
    a half Gaussian integral in closed form.  Both take O(1) work at every
    time and term count.
    """

    t = check_time(t)
    check_edges(m)
    check_integer("term count", terms, least=0)
    # e^{-kt} is exactly 0.0 once kt > 746: later terms add nothing, and the
    # capped count converts to a float whatever the term count
    last = min(terms, int(746.0 / t))
    even = math.expm1(-2.0 * t * (last // 2 + 1))  # levels 0, 2, .., each once
    odd = math.expm1(-2.0 * t * ((last + 1) // 2))  # levels 1, 3, .., m - 1 times
    partial = (even + (m - 1) * math.exp(-t) * odd) / math.expm1(-2.0 * t)
    lam, mu, q, row = gaussian_form(OU, t)
    half = 0.5 * row(0.0) * math.sqrt(math.pi / q)
    return TracePair(partial_sum=partial, kernel_trace=half * (m / mu + (2.0 - m) / (1.0 + lam)))
