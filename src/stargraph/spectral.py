"""Spectral structure of the star semigroups.

The generator spectrum is the nonpositive integers.  Even levels carry one
eigenfunction (the same Hermite polynomial on every edge, zero edge
derivative at the vertex); odd levels carry an (m-1)-dimensional space built
from differences of two edges (zero vertex value, flux balance by
cancellation).  A piecewise-linear discretization of the Dirichlet form
reproduces the levels with the same cluster sizes, and the sum of
multiplicity-weighted exponentials matches the on-diagonal kernel integral.

The discrete form splits the same way as the spectrum: its even sector is the
one-edge form with the vertex node free, and each of its m - 1 odd sectors is
the one-edge form with the vertex node deleted.  ``form_spectrum`` solves
those two one-edge pencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh

from .errors import AssemblyError, DomainError, ShapeError
from .geometry import (
    GridSpec,
    StarFunction,
    StarGraph,
    check_edge_count,
    is_integer,
    simpson_weights,
)
from .kernels import KernelSpec, ou_line_kernel

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


def _strip(coeffs) -> tuple[float, ...]:
    coeffs = [float(c) for c in coeffs]
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs.pop()
    return tuple(coeffs)


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
        object.__setattr__(self, "coeffs", _strip(self.coeffs))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.polynomial.polynomial.polyval(x, np.asarray(self.coeffs))
        if self.gauss != 0.0:
            out = out * np.exp(-0.5 * self.gauss * x * x)
        return out

    def derivative(self) -> "PolyGauss":
        c = self.coeffs
        dp = [i * c[i] for i in range(1, len(c))] or [0.0]
        if self.gauss != 0.0:
            shifted = [0.0] + [self.gauss * ci for ci in c]
            n = max(len(dp), len(shifted))
            dp = [
                (dp[i] if i < len(dp) else 0.0) - (shifted[i] if i < len(shifted) else 0.0)
                for i in range(n)
            ]
        return PolyGauss(dp, self.gauss)

    def times_x(self) -> "PolyGauss":
        return PolyGauss((0.0,) + self.coeffs, self.gauss)

    def scaled(self, a: float) -> "PolyGauss":
        return PolyGauss(tuple(a * c for c in self.coeffs), self.gauss)

    def plus(self, other: "PolyGauss") -> "PolyGauss":
        if other.gauss != self.gauss and other.coeffs != (0.0,) and self.coeffs != (0.0,):
            raise ShapeError("cannot add profiles with different Gaussian factors")
        gauss = self.gauss if self.coeffs != (0.0,) else other.gauss
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        out = [
            (a[i] if i < len(a) else 0.0) + (b[i] if i < len(b) else 0.0)
            for i in range(n)
        ]
        return PolyGauss(out, gauss)

    def shift_gauss(self, delta: float) -> "PolyGauss":
        """Multiply by exp(-delta x^2 / 2)."""

        return PolyGauss(self.coeffs, self.gauss + delta)

    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)


# -- Hermite polynomials ----------------------------------------------------


def _check_nonnegative_int(value, what: str) -> None:
    """Raise DomainError unless ``value`` is a nonnegative integer (a bool is not one)."""

    if not is_integer(value) or value < 0:
        raise DomainError(f"{what} must be a nonnegative integer, got {value!r}")


def hermite_coefficients(k: int) -> tuple[float, ...]:
    """Coefficients (ascending) of the k-th physicists' Hermite polynomial.

    Recurrence H_{k+1} = 2x H_k - 2k H_{k-1}; all coefficients are integers,
    exact in double precision through the degrees used here.
    """

    _check_nonnegative_int(k, "level")
    prev = [1.0]
    if k == 0:
        return tuple(prev)
    cur = [0.0, 2.0]
    for j in range(1, k):
        nxt = [0.0] + [2.0 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= 2.0 * j * c
        prev, cur = cur, nxt
    return _strip(cur)


# -- eigenbasis ---------------------------------------------------------------


@dataclass(frozen=True)
class SpectralDatum:
    eigenvalue: float
    multiplicity: int
    basis: tuple[StarFunction, ...]


def multiplicity(k: int, m: int) -> int:
    """Even levels are simple; odd levels have dimension m - 1."""

    check_edge_count(m, DomainError)
    _check_nonnegative_int(k, "level")
    return 1 if k % 2 == 0 else m - 1


def eigenbasis(m: int, k: int, grid: GridSpec | None = None) -> SpectralDatum:
    """Analytic eigenfunctions of the drift generator at eigenvalue -k.

    Even k: the Hermite polynomial on every edge (edge derivative vanishes
    at the vertex).  Odd k: differences of edge 1 and edge l (vertex value
    vanishes, edge derivatives cancel pairwise).  A one-edge star has no odd
    levels.
    """

    if grid is None:
        grid = GridSpec()
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

    if not isinstance(spec, KernelSpec):
        raise DomainError(f"no closed-form generator for {spec!r}; pass OU or HARMONIC")
    if not (f.has_profiles() and all(isinstance(p, PolyGauss) for p in f.profiles)):
        raise ShapeError("the generator needs a PolyGauss profile on every edge")
    out_profiles = tuple(_apply_generator_profile(spec, p) for p in f.profiles)
    return StarFunction.from_callables(f.graph, f.grid, out_profiles)


# -- quadratic form -----------------------------------------------------------


# five-point panels: exact for the hat products, ~1e-11 relative for the
# Gaussian weight at the mesh widths used here; positive weights keep the
# assembled mass positive definite (erf-difference moments lose all relative
# accuracy in the far tail and can go negative there)
_GL_XI, _GL_W = np.polynomial.legendre.leggauss(5)
_GL_U = 0.5 * (_GL_XI + 1.0)
_GL_WU = 0.5 * _GL_W


def _edge_form(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Diagonals of the one-edge stiffness and mass for unit edge density.

    Returns the stiffness diagonal and off-diagonal, then the mass diagonal
    and off-diagonal, over the hat functions of one edge (node 0 is the
    vertex).  Every element is integrated at once on the Gauss panels.
    """

    if grid.points_per_edge < 3:
        raise AssemblyError("form assembly needs >= 3 points per edge")
    nodes = grid.nodes()
    a = nodes[:-1]
    h = np.diff(nodes)

    xq = a[None, :] + h[None, :] * _GL_U[:, None]
    wq = np.exp(-xq * xq) * (_GL_WU[:, None] * h[None, :])
    phi_r = _GL_U[:, None]
    phi_l = 1.0 - phi_r

    # local mass blocks on each element (left-left, left-right, right-right)
    ll = (phi_l * phi_l * wq).sum(axis=0)
    lr = (phi_l * phi_r * wq).sum(axis=0)
    rr = (phi_r * phi_r * wq).sum(axis=0)
    s = 0.5 * wq.sum(axis=0) / (h * h)  # half the |phi'|^2 weight integral

    # node j collects the left end of element j and the right end of j - 1
    stiff_diag = np.pad(s, (0, 1)) + np.pad(s, (1, 0))
    mass_diag = np.pad(ll, (0, 1)) + np.pad(rr, (1, 0))
    return stiff_diag, -s, mass_diag, lr


def _tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _sector_eigenvalues(
    stiff_diag: np.ndarray,
    stiff_off: np.ndarray,
    mass_diag: np.ndarray,
    mass_off: np.ndarray,
    count: int | None,
) -> np.ndarray:
    """Lowest ``count`` eigenvalues (all for None) of one tridiagonal pencil.

    The pencil is rescaled by its mass diagonal on the diagonals, before the
    dense matrices exist.
    """

    scale = 1.0 / np.sqrt(mass_diag)
    pair = scale[:-1] * scale[1:]
    a = _tridiagonal(stiff_diag * scale * scale, stiff_off * pair)
    b = _tridiagonal(mass_diag * scale * scale, mass_off * pair)
    if count is None or count >= mass_diag.size:
        return eigh(a, b, eigvals_only=True)
    return eigh(a, b, eigvals_only=True, subset_by_index=[0, count - 1])


def form_spectrum(m: int, grid: GridSpec, count: int | None = None) -> np.ndarray:
    """Ascending eigenvalues of the discretized form on the m-edge star.

    The P1 form splits exactly into an even sector (the same values on every
    edge: the one-edge pencil with the vertex node free) and m - 1 copies of
    an odd sector (vertex value 0, edges summing to 0: the one-edge pencil
    with the vertex node deleted).  The density factor c_m cancels, so two
    one-edge solves of size n and n - 1 replace the dense star problem of
    size 1 + m(n - 1), and each odd value appears m - 1 times by
    construction.  Each sector is rescaled by its mass diagonal before the
    generalized symmetric solve.  ``count`` keeps the lowest values; it must
    lie in 1 .. 1 + m(n - 1).
    """

    check_edge_count(m, DomainError)
    dim = 1 + m * (grid.points_per_edge - 1)
    if count is not None and (not is_integer(count) or not 1 <= count <= dim):
        raise DomainError(f"count must be an integer in 1..{dim}, got {count!r}")
    stiff_diag, stiff_off, mass_diag, mass_off = _edge_form(grid)
    if not np.all(mass_diag > 0):
        raise AssemblyError("mass matrix lost positivity; refine or shrink the grid")
    even = _sector_eigenvalues(stiff_diag, stiff_off, mass_diag, mass_off, count)
    odd = np.empty(0)
    if m > 1:
        odd = _sector_eigenvalues(
            stiff_diag[1:], stiff_off[1:], mass_diag[1:], mass_off[1:], count
        )
    vals = np.sort(np.concatenate([even, np.repeat(odd, m - 1)]))
    return vals if count is None else vals[:count]


# -- trace --------------------------------------------------------------------


class TracePair(NamedTuple):
    partial_sum: float
    kernel_trace: float


def trace_closed_form(t: float, m: int) -> float:
    """(1 + (m-1) e^{-t}) / (1 - e^{-2t})."""

    if not (math.isfinite(t) and t > 0):
        raise DomainError(f"time must be positive and finite, got {t}")
    check_edge_count(m, DomainError)
    return (1.0 + (m - 1) * math.exp(-t)) / (-math.expm1(-2.0 * t))


def _half_line_gaussian_quadrature(t: float, reflected: bool) -> float:
    """Integrate the drift kernel along the diagonal (or reflected diagonal)."""

    q = math.exp(-t)
    s = -math.expm1(-2.0 * t)
    sigma = math.sqrt(s / 2.0) / ((1.0 + q) if reflected else (1.0 - q))
    cutoff = 9.0 * sigma
    n = 513
    x = np.linspace(0.0, cutoff, n)
    w = simpson_weights(n, x[1] - x[0])
    y = -x if reflected else x
    return float(np.dot(w, ou_line_kernel(t, x, y)))


def trace_partial(t: float, m: int, terms: int) -> TracePair:
    """Multiplicity-weighted partial sum and the on-diagonal kernel integral.

    The kernel side integrates the star kernel along the diagonal with edge
    Lebesgue measure: m direct half-line integrals plus (2 - m) reflected
    ones.  Both converge to the closed form as terms and the quadrature
    window grow.
    """

    if not (math.isfinite(t) and t >= 0.05):
        raise DomainError(f"trace quadrature needs a finite time t >= 0.05, got {t}")
    check_edge_count(m, DomainError)
    _check_nonnegative_int(terms, "term count")
    partial = sum(multiplicity(k, m) * math.exp(-k * t) for k in range(terms + 1))
    direct = _half_line_gaussian_quadrature(t, reflected=False)
    refl = _half_line_gaussian_quadrature(t, reflected=True)
    return TracePair(partial_sum=float(partial), kernel_trace=m * direct + (2.0 - m) * refl)
