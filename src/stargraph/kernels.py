"""Transition kernels on the line and their star-graph assembly.

Both line kernels, the drift-toward-origin diffusion (OU) and the
quadratic-potential propagator (HO), are a row factor times one Gaussian in
λx - y, written (x - y) - μx (``gaussian_form``, OU's only formula; HO keeps
its exactly symmetric closed form).  On the star the line kernel is combined
through the reflection weights: same-edge propagation adds the reflected
part with weight (2 - m)/m to the direct part, every other edge sees it with
weight 2/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_edges, check_time
from .geometry import StarPoint

__all__ = [
    "KernelSpec",
    "OU",
    "HARMONIC",
    "line_kernel",
    "star_kernel",
]


def _ho_values(t: float, x, y):
    """Propagator of the quadratic-potential operator (f'' - x^2 f + f)/2 (HO).

    Symmetric in (x, y); fixes the Gaussian ground state exp(-x^2/2).  ``t``
    must already be checked.
    """

    s = -math.expm1(-2.0 * t)
    e = math.exp(-t)
    # the exponent (4xye - (x^2 + y^2)(1 + e^2)) / (2s) as minus a sum of two
    # squares, -[(1 + e)^2 (x - y)^2 + (1 - e)^2 (x + y)^2] / (4s): no inf - inf
    # at huge radii, where it underflows to 0, and no cancellation at small t
    k = x - y
    k *= k
    k *= -(1.0 + e) ** 2 / (4.0 * s)
    p = x + y
    p *= p
    p *= math.expm1(-t) ** 2 / (4.0 * s)
    k -= p
    k = np.exp(k)
    k /= math.sqrt(math.pi * s)
    return k


@dataclass(frozen=True)
class KernelSpec:
    """Which closed-form line kernel to use."""

    tag: str

    def __post_init__(self) -> None:
        if self.tag not in ("ou", "harmonic_oscillator"):
            raise DomainError(f"unknown kernel tag {self.tag!r}")


OU = KernelSpec("ou")
HARMONIC = KernelSpec("harmonic_oscillator")


def check_spec(spec) -> None:
    """Raise DomainError unless ``spec`` is a ``KernelSpec``; a string tag is not one."""

    if not isinstance(spec, KernelSpec):
        raise DomainError(f"no closed-form kernel or generator for {spec!r}; pass OU or HARMONIC")


def line_kernel(spec: KernelSpec, t: float, x, y):
    """Evaluate the line kernel selected by ``spec`` (broadcasts over x, y).

    ``OU`` gives the drift-to-origin transition density, the Gaussian of
    ``gaussian_form`` in y with mean e^{-t} x and variance (1 - e^{-2t})/2,
    which tends to exp(-y^2)/sqrt(pi); ``HARMONIC`` the quadratic-potential
    propagator in its symmetric closed form ``_ho_values``.
    """

    check_spec(spec)
    if spec.tag == "ou":
        _, mu, q, row = gaussian_form(spec, t)
        x = np.asarray(x, dtype=float)
        d = (x - np.asarray(y, dtype=float)) - mu * x
        return row(x) * np.exp((d * d) * -q)
    return _ho_values(check_time(t), np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def gaussian_form(spec: KernelSpec, t: float):
    """The line kernel at time ``t`` as a row factor times one Gaussian in λx - y.

    Both closed forms are A(x) exp(-(λx - y)^2 / (2σ^2)) / sqrt(π s) with
    s = 1 - e^{-2t}: OU has λ = e^{-t}, σ^2 = s/2 and A = 1; HO has
    λ = 2e^{-t}/(1 + e^{-2t}), σ^2 = s/(1 + e^{-2t}) and
    A(x) = exp(-s x^2 / (2(1 + e^{-2t}))).  Returns ``(λ, μ, q, row)``:
    λ, the centre λx of the Gaussian in y; μ = 1 - λ to full relative
    accuracy, also where λ rounds to 1; q = 1/(2σ^2); and ``row(x)``, the
    factor A(x)/sqrt(π s) of the output point.  Every consumer writes the
    difference as (x - y) - μx, which is exact near the centre and free of
    the rounding of λ.  The OU kernel, ``semigroup.apply``'s blocks and band
    and ``spectral.trace_partial``'s diagonal integrals are written from this
    form alone; HO's ``line_kernel`` keeps its exactly symmetric closed form.
    """

    check_spec(spec)
    t = check_time(t)
    s = -math.expm1(-2.0 * t)
    e = math.exp(-t)
    norm = 1.0 / math.sqrt(math.pi * s)
    if spec.tag == "ou":
        return e, -math.expm1(-t), 1.0 / s, lambda x: norm
    c = 1.0 + e * e
    a = s / (2.0 * c)
    return (2.0 * e / c, math.expm1(-t) ** 2 / c, c / (2.0 * s),
            lambda x: norm * np.exp(-a * np.square(x)))


def star_kernel(spec: KernelSpec, m: int, t: float, x: StarPoint, y: StarPoint) -> float:
    """Transition kernel between two star points.

    Same-edge pairs combine the direct and reflected line kernels; distinct
    edges see only the reflected part with weight 2/m.  Radius-zero points
    give the same value on every edge because the line kernels are even in
    the second argument at the origin.
    """

    if not isinstance(x, StarPoint) or not isinstance(y, StarPoint):
        raise DomainError("x and y must be StarPoint instances")
    check_edges(m)
    if x.edge > m or y.edge > m:
        raise DomainError(
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
