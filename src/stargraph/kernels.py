"""Transition kernels on the line and their star-graph assembly.

Closed forms cover the drift-toward-origin diffusion (Gaussian kernel with
exponentially shrinking mean) and the quadratic-potential propagator.  On
the star the line kernel is combined through the reflection weights:
same-edge propagation adds the reflected part with weight (2 - m)/m to the
direct part, every other edge sees it with weight 2/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidPointError, NumericalInputError, ShapeError
from .geometry import StarPoint, check_edge_count

__all__ = [
    "MIN_TIME",
    "KernelSpec",
    "OU",
    "HARMONIC",
    "ou_line_kernel",
    "ho_line_kernel",
    "line_kernel",
    "kernel_band",
    "star_kernel",
]

# Smallest time any kernel accepts.  It does not mark where the quadrature in
# ``semigroup.apply`` can still resolve the kernel: that already fails at
# t = 1e-5 on 513 points, where constant 1 comes back as 0.848.
MIN_TIME = 1e-8

# kernel values farther than the band half-width from the band centre are
# below e^{-BAND_EXPONENT} of their row's peak
BAND_EXPONENT = 40.0


def _check_time(t: float) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise NumericalInputError(f"time must be finite, got {t}")
    if t < MIN_TIME:
        raise DomainError(f"time must be >= {MIN_TIME}, got {t}")
    return t


def _ou_values(t: float, x, y, out=None, spare=None):
    """OU kernel at a checked time, written into ``out`` when it is given.

    With ``out`` (the broadcast shape of x and y) every step writes in place,
    so a block of ``apply`` allocates nothing; ``spare`` is not used.
    Without it no ufunc is passed ``out=``: scalar calls stay on numpy
    scalars, where ``np.exp(..., out=)`` on 0-d arrays is three times slower
    and even ``out=None`` costs a third of a microsecond per ufunc.
    """

    s = -math.expm1(-2.0 * t)  # 1 - e^{-2t}, accurate for small t
    z = math.exp(-t) * x
    k = z - y if out is None else np.subtract(z, y, out=out)
    k *= k
    k /= -s  # -(z^2)/s to the last bit: IEEE division rounds |z^2|/s alike for either sign
    k = np.exp(k) if out is None else np.exp(k, out=out)
    k /= math.sqrt(math.pi * s)
    return k


def _ho_values(t: float, x, y, out=None, spare=None):
    """HO kernel at a checked time, written into ``out`` when it is given.

    ``spare``, a second buffer of the same shape, takes the (x + y)^2 term,
    so with both buffers a block of ``apply`` allocates nothing.
    """

    s = -math.expm1(-2.0 * t)
    e = math.exp(-t)
    # the exponent (4xye - (x^2 + y^2)(1 + e^2)) / (2s) as minus a sum of two
    # squares, -[(1 + e)^2 (x - y)^2 + (1 - e)^2 (x + y)^2] / (4s): no inf - inf
    # at huge radii, where it underflows to 0, and no cancellation at small t
    k = x - y if out is None else np.subtract(x, y, out=out)
    k *= k
    k *= -(1.0 + e) ** 2 / (4.0 * s)
    p = x + y if out is None else np.add(x, y, out=spare)
    p *= p
    p *= math.expm1(-t) ** 2 / (4.0 * s)
    k -= p
    k = np.exp(k) if out is None else np.exp(k, out=out)
    k /= math.sqrt(math.pi * s)
    return k


def ou_line_kernel(t: float, x, y):
    """Transition density of the unit-rate drift-to-origin diffusion.

    Gaussian in y with mean e^{-t} x and variance (1 - e^{-2t})/2; integrates
    to one over the line and converges to exp(-y^2)/sqrt(pi) as t grows.
    """

    return _ou_values(_check_time(t), np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def ho_line_kernel(t: float, x, y):
    """Propagator of the quadratic-potential operator (f'' - x^2 f + f)/2.

    Symmetric in (x, y); fixes the Gaussian ground state exp(-x^2/2).
    """

    return _ho_values(_check_time(t), np.asarray(x, dtype=float), np.asarray(y, dtype=float))


@dataclass(frozen=True)
class KernelSpec:
    """Which closed-form line kernel to use."""

    tag: str

    def __post_init__(self) -> None:
        if self.tag not in ("ou", "harmonic_oscillator"):
            raise ShapeError(f"unknown kernel tag {self.tag!r}")


OU = KernelSpec("ou")
HARMONIC = KernelSpec("harmonic_oscillator")


def check_spec(spec) -> None:
    """Raise DomainError unless ``spec`` is a ``KernelSpec``; a string tag is not one."""

    if not isinstance(spec, KernelSpec):
        raise DomainError(f"no closed-form kernel or generator for {spec!r}; pass OU or HARMONIC")


def kernel_writer(spec: KernelSpec):
    """The formula of the line kernel selected by ``spec``, as ``f(t, x, y, out, spare)``.

    ``t`` must already be checked.  ``apply`` passes two buffers of the
    broadcast shape of x and y, and the values are written into ``out``.
    """

    check_spec(spec)
    return _ou_values if spec.tag == "ou" else _ho_values


def line_kernel(spec: KernelSpec, t: float, x, y):
    """Evaluate the line kernel selected by ``spec`` (broadcasts over x, y)."""

    write = kernel_writer(spec)
    return write(_check_time(t), np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def kernel_band(spec: KernelSpec, t: float) -> tuple[float, float]:
    """Band centre factor λ and half-width b of the line kernel at time ``t``.

    Both closed forms are A(x) exp(-(λx - y)^2 / (2σ^2)) / sqrt(π s) with
    s = 1 - e^{-2t}: OU has λ = e^{-t}, σ^2 = s/2 and A = 1; HO has
    λ = 2e^{-t}/(1 + e^{-2t}), σ^2 = s/(1 + e^{-2t}).  For |λx - y| > b the
    kernel is below e^{-40} of its peak over y, so b = sqrt(80 σ^2).
    """

    check_spec(spec)
    t = _check_time(t)
    s = -math.expm1(-2.0 * t)
    e = math.exp(-t)
    if spec.tag == "ou":
        return e, math.sqrt(BAND_EXPONENT * s)
    return 2.0 * e / (1.0 + e * e), math.sqrt(2.0 * BAND_EXPONENT * s / (1.0 + e * e))


def star_kernel(spec: KernelSpec, m: int, t: float, x: StarPoint, y: StarPoint) -> float:
    """Transition kernel between two star points.

    Same-edge pairs combine the direct and reflected line kernels; distinct
    edges see only the reflected part with weight 2/m.  Radius-zero points
    give the same value on every edge because the line kernels are even in
    the second argument at the origin.
    """

    if not isinstance(x, StarPoint) or not isinstance(y, StarPoint):
        raise InvalidPointError("x and y must be StarPoint instances")
    check_edge_count(m, ShapeError)
    if x.edge > m or y.edge > m:
        raise InvalidPointError(
            f"point uses edge beyond the {m}-edge star: {x.edge}, {y.edge}"
        )
    # the vertex belongs to every edge; pin its label so the arithmetic
    # (and hence the rounding) cannot depend on which edge named it
    if x.radius == 0.0:
        x = StarPoint(y.edge, 0.0)
    elif y.radius == 0.0:
        y = StarPoint(x.edge, 0.0)
    # the weights of extension.reflect, written as scalars: an array round
    # trip through reflect would nearly double the cost of a call
    k_refl = line_kernel(spec, t, x.radius, -y.radius)
    if x.edge == y.edge:
        k_direct = line_kernel(spec, t, x.radius, y.radius)
        return float(k_direct + ((2.0 - m) / m) * k_refl)
    return float((2.0 / m) * k_refl)
