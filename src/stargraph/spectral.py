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
those two tridiagonal one-edge pencils.  By interlacing, the lowest ``count``
star values need only about count/m values of each sector.  A sector asked
for at most ``LANCZOS_SHARE`` of its size gets them from a shift-invert
Lanczos iteration, O(n k^2), checked by a Sylvester inertia count that raises
``AssemblyError`` on a missed eigenvalue; larger counts and the whole
spectrum come from a dense solve of the whole sector, O(n^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as P, polyutils

from .errors import AssemblyError, DomainError, ShapeError
from .geometry import (
    GridSpec,
    StarFunction,
    StarGraph,
    check_edge_count,
    is_integer,
    simpson_weights,
)
from .kernels import KernelSpec, check_spec, ou_line_kernel

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


def _check_nonnegative_int(value, what: str) -> None:
    """Raise DomainError unless ``value`` is a nonnegative integer (a bool is not one)."""

    if not is_integer(value) or value < 0:
        raise DomainError(f"{what} must be a nonnegative integer, got {value!r}")


def hermite_coefficients(k: int) -> tuple[float, ...]:
    """Coefficients (ascending) of the k-th physicists' Hermite polynomial.

    They are integers, exact in double precision through k = 28.
    """

    _check_nonnegative_int(k, "level")
    return tuple(np.polynomial.hermite.herm2poly([0.0] * k + [1.0]).tolist())


# -- eigenbasis ---------------------------------------------------------------


@dataclass(frozen=True)
class SpectralDatum:
    eigenvalue: float
    multiplicity: int
    basis: tuple[StarFunction, ...]


def _multiplicity(k: int, m: int) -> int:
    return 1 if k % 2 == 0 else m - 1


def multiplicity(k: int, m: int) -> int:
    """Even levels are simple; odd levels have dimension m - 1."""

    check_edge_count(m, DomainError)
    _check_nonnegative_int(k, "level")
    return _multiplicity(k, m)


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

    check_spec(spec)
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


# A sector count above this share of the sector size n goes to the dense
# solve.  The dense solve costs O(n^3) whatever the count; the Lanczos cost
# grows as n k^2 and, at these sizes, is mostly per-step overhead.  Per
# sector on one core (1 BLAS thread), dense against Lanczos for n/16, n/8
# and n/4 values: 129 nodes 1.1 ms against 0.8, 1.35 and 4.0 ms; 257 nodes
# 6.1 ms against 1.5, 5.2 and 7.3 ms; 513 nodes 33 ms against 7.6, 11.7 and
# 37 ms; 1025 nodes 370 ms against 14, 62 and 262 ms.  The break-even share
# grows with n, so one eighth loses at most ~0.3 ms on small grids.
LANCZOS_SHARE = 0.125

# Lanczos stops once every wanted Ritz value theta has residual at most
# this share of theta.  The residual bounds |theta - theta_true|, so each
# returned value sigma + 1/theta is within this share of 1 + |lambda| of the
# pencil's own, before the quadratic gain that isolated Ritz values enjoy.
LANCZOS_TOL = 1e-11

# The inertia check counts eigenvalues below the largest returned value
# plus this share of max(1, |value|): far above the Lanczos and the LDL^T
# rounding (~1e-11 at |A| ~ 1e5), far below the unit level spacing.
STURM_MARGIN = 1e-8


def _sturm_count(a_diag, a_off, b_diag, b_off, tau: float) -> int:
    """Number of eigenvalues of the tridiagonal pencil (A, B) below ``tau``.

    By Sylvester's law of inertia (B positive definite) this is the number
    of negative pivots in the LDL^T factorization of A - tau B.
    """

    diag = (a_diag - tau * b_diag).tolist()
    off_sq = ((a_off - tau * b_off) ** 2).tolist()
    tiny = np.finfo(float).tiny
    pivot = diag[0]
    negative = int(pivot < 0.0)
    for d, e2 in zip(diag[1:], off_sq):
        if pivot == 0.0:
            pivot = tiny
        pivot = d - e2 / pivot
        negative += pivot < 0.0
    return negative


def _lanczos_lowest(a_diag, a_off, b_diag, b_off, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues of the tridiagonal pencil (A, B), ascending.

    Shift-invert Lanczos with sigma = -1: T = A + B is positive definite
    (A semidefinite, B definite), so T^{-1} B is factored once with
    ``dpttrf`` and applied with ``dpttrs``.  The basis is B-orthonormal
    (classical Gram-Schmidt, applied twice) from a fixed start vector, so
    the values are reproducible.  The iteration stops when the ``count``
    largest Ritz values of T^{-1} B have converged, or when the Krylov
    space is the whole space.
    """

    from scipy.linalg.lapack import dpttrf, dpttrs, dstemr  # loaded when a solve runs

    n = a_diag.size
    t_diag, t_off, info = dpttrf(a_diag + b_diag, a_off + b_off)
    if info != 0:
        raise AssemblyError(f"the shifted sector pencil is not positive definite (info={info})")

    def times_b(v):
        out = b_diag * v
        out[1:] += b_off * v[:-1]
        out[:-1] += b_off * v[1:]
        return out

    rows = min(n, 2 * count + 30)  # convergence takes about 2 count + 20 steps
    basis, b_basis = np.empty((rows, n)), np.empty((rows, n))
    alpha, beta = np.empty(n), np.empty(n)
    w = np.random.default_rng(0).standard_normal(n)
    bw = times_b(w)
    norm = math.sqrt(w @ bw)
    for j in range(n):
        if j == rows:
            rows = min(n, 2 * rows)
            basis = np.concatenate([basis, np.empty((rows - j, n))])
            b_basis = np.concatenate([b_basis, np.empty((rows - j, n))])
        basis[j], b_basis[j] = w / norm, bw / norm
        w = dpttrs(t_diag, t_off, b_basis[j])[0]
        h = b_basis[: j + 1] @ w
        w -= h @ basis[: j + 1]
        h2 = b_basis[: j + 1] @ w
        w -= h2 @ basis[: j + 1]
        alpha[j] = h[j] + h2[j]
        bw = times_b(w)
        beta[j] = norm = math.sqrt(max(w @ bw, 0.0))
        if (j + 1) % count and j + 1 < n:
            continue  # a Ritz solve for count pairs costs up to about count steps
        # the count largest Ritz pairs (dstemr overwrites its off-diagonal)
        _, theta, ritz, info = dstemr(alpha[: j + 1], beta[: j + 1].copy(), 2, 0.0, 0.0,
                                      j + 2 - count, j + 1)
        if info != 0:
            raise AssemblyError(f"the Lanczos Ritz solve failed (dstemr info={info})")
        theta, last = theta[:count], ritz[j, :count]
        if j + 1 == n or np.all(np.abs(norm * last) <= LANCZOS_TOL * theta):
            break
    return -1.0 + 1.0 / theta[::-1]


def _sector_eigenvalues(
    stiff_diag: np.ndarray,
    stiff_off: np.ndarray,
    mass_diag: np.ndarray,
    mass_off: np.ndarray,
    count: int | None,
    sector: str,
) -> np.ndarray:
    """Lowest ``count`` eigenvalues (all for None) of one tridiagonal pencil.

    The pencil is rescaled by its mass diagonal on the diagonals.  All of
    its values, or a count above ``LANCZOS_SHARE`` of its size, come from
    the dense solve of the whole pencil; a smaller count from the Lanczos
    iteration, whose result an inertia count then confirms.
    """

    scale = 1.0 / np.sqrt(mass_diag)
    pair = scale[:-1] * scale[1:]
    a_diag, a_off = stiff_diag * scale * scale, stiff_off * pair
    b_diag, b_off = mass_diag * scale * scale, mass_off * pair
    if count is None or count > LANCZOS_SHARE * a_diag.size:
        from scipy.linalg import eigh  # loaded when a dense solve runs

        vals = eigh(_tridiagonal(a_diag, a_off), _tridiagonal(b_diag, b_off), eigvals_only=True)
        return vals[:count]
    vals = _lanczos_lowest(a_diag, a_off, b_diag, b_off, count)
    tau = vals[-1] + STURM_MARGIN * max(1.0, abs(vals[-1]))
    below = _sturm_count(a_diag, a_off, b_diag, b_off, tau)
    if below != count:
        raise AssemblyError(
            f"the {sector} sector has {below} eigenvalues below {tau:.6g}, but the "
            f"Lanczos iteration returned {count}; an eigenvalue was missed"
        )
    return vals


def form_spectrum(m: int, grid: GridSpec, count: int | None = None) -> np.ndarray:
    """Ascending eigenvalues of the discretized form on the m-edge star.

    The P1 form splits exactly into an even sector (the same values on every
    edge: the one-edge pencil with the vertex node free) and m - 1 copies of
    an odd sector (vertex value 0, edges summing to 0: the one-edge pencil
    with the vertex node deleted).  The density factor c_m cancels, so two
    one-edge solves of size n and n - 1 replace the dense star problem of
    size 1 + m(n - 1), and each odd value appears m - 1 times by
    construction.  Each sector is rescaled by its mass diagonal.

    ``count`` keeps the lowest values; it must lie in 1 .. 1 + m(n - 1).
    The odd pencil is the even one with the vertex row and column deleted,
    so by Cauchy interlacing e_j <= o_j <= e_{j+1}, and the merged list runs
    e_1, o_1 (m - 1 times), e_2, ...  Its lowest ``count`` values therefore
    use only the lowest (count - 1)//m + 1 even values and (count - 2)//m + 1
    odd ones.  A sector count up to ``LANCZOS_SHARE`` of the sector size is
    solved by shift-invert Lanczos on the tridiagonal pencil, O(n k^2) for k
    values, and confirmed by a Sylvester inertia count of A - tau B just
    above the largest value: a missed eigenvalue raises ``AssemblyError``.
    Larger counts, and the whole spectrum, come from one dense solve of each
    whole pencil, O(n^3).
    """

    check_edge_count(m, DomainError)
    dim = 1 + m * (grid.points_per_edge - 1)
    if count is not None and (not is_integer(count) or not 1 <= count <= dim):
        raise DomainError(f"count must be an integer in 1..{dim}, got {count!r}")
    stiff_diag, stiff_off, mass_diag, mass_off = _edge_form(grid)
    if not np.all(mass_diag > 0):
        raise AssemblyError("mass matrix lost positivity; refine or shrink the grid")
    even_count = odd_count = count
    if count is not None:
        even_count = count if m == 1 else (count - 1) // m + 1
        odd_count = (count - 2) // m + 1
    even = _sector_eigenvalues(stiff_diag, stiff_off, mass_diag, mass_off, even_count, "even")
    odd = np.empty(0)
    if m > 1 and odd_count != 0:
        odd = _sector_eigenvalues(
            stiff_diag[1:], stiff_off[1:], mass_diag[1:], mass_off[1:], odd_count, "odd"
        )
    vals = np.sort(np.concatenate([even, np.repeat(odd, m - 1)]))
    return vals[:count]


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
    partial = sum(_multiplicity(k, m) * math.exp(-k * t) for k in range(terms + 1))
    direct = _half_line_gaussian_quadrature(t, reflected=False)
    refl = _half_line_gaussian_quadrature(t, reflected=True)
    return TracePair(partial_sum=float(partial), kernel_trace=m * direct + (2.0 - m) * refl)
