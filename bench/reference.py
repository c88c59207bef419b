"""Independent reference computations for the benchmark's output checks.

Nothing here imports stargraph: every value the benchmark compares against
is computed from a closed form or a standard rule written out below, so a
defect in the package cannot hide in its own reference.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_PI = math.sqrt(math.pi)

EVEN = (0, 2, 4)   # levels of an EigenCombination carried by every edge
ODD = (1, 3)       # levels carried by one edge against another
WINDOW = 3.0       # [0, WINDOW] is where each level's weight is set


def hermite(k: int, x) -> np.ndarray:
    """Physicists' Hermite polynomial H_k by the three-term recurrence."""

    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if k == 0:
        return prev
    cur = 2.0 * x
    for j in range(1, k):
        prev, cur = cur, 2.0 * x * cur - 2.0 * j * prev
    return cur


def ou_line(t: float, x, y) -> np.ndarray:
    """Drift-to-origin line kernel: Gaussian in y, mean e^{-t} x, variance s/2."""

    s = -math.expm1(-2.0 * t)
    z = math.exp(-t) * np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return np.exp(-z * z / s) / math.sqrt(math.pi * s)


def ho_line(t: float, x, y) -> np.ndarray:
    """Oscillator line kernel as the ground-state transform of the drift kernel.

    With U f = e^{-x^2/2} f the oscillator generator is U L U^{-1}, so its
    kernel is e^{-x^2/2} K_ou(t, x, y) e^{y^2/2}.
    """

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.exp(-0.5 * x * x) * ou_line(t, x, y) * np.exp(0.5 * y * y)


LINE = {"ou": ou_line, "ho": ho_line}


def star_kernel(model: str, m: int, t: float, x_edge: int, x: float,
                y_edge: int, y: float) -> float:
    """Reflection construction: direct part plus (2 - m)/m or 2/m times the image."""

    line = LINE[model]
    image = float(line(t, x, -y))
    if x_edge == y_edge:
        return float(line(t, x, y)) + (2.0 - m) / m * image
    return 2.0 / m * image


def two_edge_line(model: str, t: float, x_edge: int, x: float,
                  y_edge: int, y: float) -> float:
    """For m = 2 the star is the line: edge 1 is x > 0, edge 2 is x < 0."""

    sx = 1.0 if x_edge == 1 else -1.0
    sy = 1.0 if y_edge == 1 else -1.0
    return float(LINE[model](t, sx * x, sy * y))


def simpson(values: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson rule along the last axis (even interval count)."""

    n = values.shape[-1]
    if n < 3 or (n - 1) % 2:
        raise ValueError(f"Simpson needs an even number of intervals, got {n - 1}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return values @ w * (h / 3.0)


def gaussian_mass(values: np.ndarray, h: float) -> float:
    """Integral against the invariant probability measure (2 / (m sqrt(pi))) e^{-x^2}."""

    m, n = values.shape
    x = np.arange(n) * h
    density = 2.0 / (m * SQRT_PI) * np.exp(-x * x)
    return float(simpson(values * density, h).sum())


def multiplicity(k: int, m: int) -> int:
    """Even levels are simple; odd levels have the m - 1 edge differences."""

    return 1 if k % 2 == 0 else m - 1


def trace_closed(t: float, m: int) -> float:
    """Sum over k of multiplicity(k, m) e^{-kt}: (1 + (m - 1) e^{-t}) / (1 - e^{-2t})."""

    return (1.0 + (m - 1) * math.exp(-t)) / -math.expm1(-2.0 * t)


def trace_tail(t: float, m: int, terms: int) -> float:
    """Upper bound on the terms of the trace series beyond index ``terms``."""

    return max(1, m - 1) * math.exp(-(terms + 1) * t) / -math.expm1(-t)


def hermite_coefficients(k: int) -> np.ndarray:
    """Ascending power-basis coefficients of H_k, from the same recurrence."""

    prev, cur = np.array([1.0]), np.array([0.0, 2.0])
    if k == 0:
        return prev
    for j in range(1, k):
        prev, cur = cur, np.concatenate(([0.0], 2.0 * cur)) - 2.0 * j * np.pad(prev, (0, 2))
    return cur


class EigenCombination:
    """Sum of exact star eigenfunctions with seeded coefficients.

    Even level k (``EVEN``): a_k H_k on every edge.  Odd level k (``ODD``):
    b_k H_k on edge p and -b_k H_k on edge q.  Multiplied by e^{-x^2/2} for
    the oscillator.  Under either semigroup level k decays by exactly
    e^{-kt}.  Each level's weight is drawn relative to its own sup over
    [0, WINDOW], so no level drowns the others, and the sum is scaled so its
    sup there at t = 0 is one.
    """

    def __init__(self, rng: np.random.Generator, model: str, m: int):
        self.model = model
        self.m = m
        x = np.linspace(0.0, WINDOW, 301)
        gauss = np.exp(-0.5 * x * x) if model == "ho" else 1.0

        def weight(k: int) -> float:
            return rng.uniform(0.2, 1.0) / float(np.abs(hermite(k, x) * gauss).max())

        # level -> weight of H_k on each edge
        self.levels: dict[int, np.ndarray] = {}
        for k in EVEN:
            self.levels[k] = np.full(m, weight(k) * rng.choice((-1.0, 1.0)))
        if m >= 2:
            for k in ODD:
                p, q = rng.choice(m, size=2, replace=False)
                self.levels[k] = np.zeros(m)
                self.levels[k][p], self.levels[k][q] = (b := weight(k)), -b
        scale = float(np.abs(self.samples(x)).max())
        self.levels = {k: w / scale for k, w in self.levels.items()}
        self._profile_coeffs = self._coefficients(0.0)

    def _coefficients(self, t: float) -> np.ndarray:
        """(m, degree + 1) power-basis coefficients of every edge at time t."""

        out = np.zeros((self.m, max(self.levels) + 1))
        for k, w in self.levels.items():
            out[:, : k + 1] += np.outer(w * math.exp(-k * t), hermite_coefficients(k))
        return out

    def _evaluate(self, coeffs: np.ndarray, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.polynomial.polynomial.polyval(x, coeffs)
        return out * np.exp(-0.5 * x * x) if self.model == "ho" else out

    def samples(self, x, t: float = 0.0) -> np.ndarray:
        """(m, len(x)) values at time t."""

        return self._evaluate(self._coefficients(t).T, x).reshape(self.m, -1)

    def profiles(self) -> tuple:
        return tuple((lambda x, c=c: self._evaluate(c, x)) for c in self._profile_coeffs)

    @property
    def mass(self) -> float:
        """Invariant-measure mass: only the level-0 part carries any."""

        return float(self.levels[0][0])


def relative_error(got: np.ndarray, want: np.ndarray, mask=None) -> float:
    """sup |got - want| / sup |want|, optionally over masked columns."""

    if mask is not None:
        got = got[..., mask]
        want = want[..., mask]
    return float(np.abs(got - want).max() / np.abs(want).max())
