"""Exception types shared across the package, and one checker per kind of input.

Every refusal of an input is a ``StarGraphError`` (CLI exit 2), and one of
its three subclasses names what is wrong.  A numerical failure of a run is
a ``StabilityError`` (CLI exit 3).  Each kind of input has one checker,
which raises one type with one message template whichever entry point calls
it, and is never told which one does:

- a time >= MIN_TIME: ``check_time``, ``DomainError``;
- a kernel the quadrature resolves: ``check_resolved``, ``DomainError``;
- a positive finite size (cutoff, mesh, step): ``check_positive``, ``DomainError``;
- a radius >= 0: ``check_radius``, ``DomainError``;
- an edge count within MAX_NODES: ``check_edges``, ``DomainError``;
- another model integer (edge index, level, count): ``check_integer``, ``DomainError``;
- points per edge: ``check_points``, ``ShapeError``;
- the node budget MAX_NODES: ``check_nodes``, ``ShapeError``;
- strictly increasing times: ``check_increasing``, ``DomainError``;
- line coefficients: ``extension.check_coefficients``, ``DomainError``;
- finite data: ``check_finite``, which returns their peak, and the power of
  two they are evolved in: ``check_data``, both ``DomainError``.
"""

import math

import numpy as np

# Smallest time any kernel accepts.  Whether ``semigroup.apply`` resolves the
# kernel at a time depends on the grid as well, so ``check_resolved`` decides
# that per call: at t = 1e-5 on 513 points the kernel is far narrower than
# the quadrature step, and apply refuses it.
MIN_TIME = 1e-8

# The node budget: a grid or a quadrature grid with more nodes per edge, an
# oracle line or level count, or an edge count beyond it (8 TiB of samples
# each), is refused before anything is allocated.
MAX_NODES = 2**40

# Data whose peak lies outside [2^-DATA_WINDOW, 2^DATA_WINDOW] are evolved in
# units of the exact power of two that brings it to [1/2, 1).  In the window
# every inner quantity stays normal and finite: the oracle's symmetrizing
# scale (2^±512, its log-span capped at log(float max)) and deviation rows C
# (sqrt(m) <= 2^20 times the deviations), apply's column factors (e^40), the
# squares in the rank threshold's norm, and LAPACK gesdd's input (rescaled
# inexactly outside about 10^±138).
DATA_WINDOW = 256


class StarGraphError(ValueError):
    """Base class of every refused input."""


class DomainError(StarGraphError):
    """A value the model does not accept: a time, a size, a radius, an integer, data."""


class ShapeError(StarGraphError):
    """Data, grids or files whose layout does not fit: shapes, point counts, files."""


class VertexContinuityError(StarGraphError):
    """Edge values disagree at the vertex beyond tolerance."""


class StabilityError(RuntimeError):
    """A numerical failure: a growth bound broken, a value gone non-finite or
    a solver that did not converge."""


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""

    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_time(t) -> float:
    """``t`` as a float; raise DomainError unless it is finite and >= MIN_TIME."""

    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"time must be finite, got {t}")
    if t < MIN_TIME:
        raise DomainError(f"time must be >= {MIN_TIME}, got {t}")
    return t


def check_resolved(ratio: float, predicted: float, tolerance: float) -> None:
    """Raise DomainError unless a quadrature's ``predicted`` relative error is within ``tolerance``.

    ``ratio`` is the kernel width over the quadrature step, the one number
    the prediction depends on; the message names it so the caller can see how
    far to refine the grid or lengthen the time.
    """

    if not predicted <= tolerance:  # NaN fails too
        raise DomainError(
            f"the kernel is too narrow for the quadrature: its width is r = {ratio:.3g} "
            f"quadrature steps, which predicts a relative error of {predicted:.3g}, above "
            f"the tolerance {tolerance:.0e}; refine the grid or take a longer time"
        )


def check_positive(name: str, value) -> None:
    """Raise DomainError unless the size ``name`` is positive and finite."""

    if not 0 < value < math.inf:  # NaN fails too
        raise DomainError(f"{name} must be positive and finite, got {value}")


def check_radius(r):
    """``r`` as a float, or an array of floats; DomainError unless each is finite and >= 0."""

    if isinstance(r, (int, float)) and 0 <= r < math.inf:
        return float(r)  # the path of every StarPoint
    radii = np.asarray(r, dtype=float)
    bad = radii[~((radii >= 0) & (radii < math.inf))]
    if bad.size:
        raise DomainError(f"radius must be finite and >= 0, got {bad[0]}")
    return radii if radii.ndim else float(radii)


def check_integer(name: str, value, least: int = 1, most: int | None = None) -> int:
    """``value`` as an int; DomainError unless it is an integer (a bool is not) in least..most.

    ``least`` is 0 or 1 when there is no upper bound ``most``."""

    if not (_is_integer(value) and least <= value and (most is None or value <= most)):
        span = (f"an integer in {least}..{most}" if most is not None
                else "a positive integer" if least == 1 else "a nonnegative integer")
        got = repr(value)
        if len(got) > 40:  # name the size of a long value, not every digit
            got = (f"an integer of {len(str(abs(value)))} digits" if _is_integer(value)
                   else f"a {type(value).__name__} of {len(got)} characters")
        raise DomainError(f"{name} must be {span}, got {got}")
    return int(value)


def check_edges(m) -> int:
    """``m`` as an int; DomainError unless it is an edge count in 1..MAX_NODES."""

    return check_integer("edge count", m, most=MAX_NODES)


def check_points(n, least: int) -> None:
    """Raise ShapeError unless ``n`` points per edge is an integer >= ``least``."""

    if not (_is_integer(n) and n >= least):
        raise ShapeError(f"points per edge must be an integer >= {least}, got {n!r}")


def check_nodes(name: str, count) -> None:
    """Raise ShapeError unless ``count`` is within the node budget MAX_NODES (NaN is not)."""

    if not count <= MAX_NODES:
        raise ShapeError(
            f"{name} must be at most {MAX_NODES:.3g} (the node budget), got {count:.6g}"
        )


def check_increasing(times) -> None:
    """Raise DomainError, naming the first pair out of order, unless ``times`` increase strictly."""

    for earlier, later in zip(times, times[1:]):
        if later <= earlier:
            raise DomainError(f"times must be strictly increasing, got {earlier} then {later}")


def check_finite(values: np.ndarray) -> float:
    """The peak max |values| of data, the size their samples are compared at;
    DomainError unless they are finite, which the peak's scan finds too."""

    peak = max(values.max(), -values.min())
    if not peak < math.inf:  # NaN fails too
        raise DomainError(f"data must be finite, got {values[~np.isfinite(values)][0]}")
    return float(peak)


def check_data(values: np.ndarray) -> int:
    """The exponent k to evolve ``values`` in, as 2^k values, exactly (the
    semigroups are linear): 0 when their peak is 0 or within DATA_WINDOW.
    DomainError unless they are finite (``check_finite``)."""

    peak = check_finite(values)
    inside = peak == 0.0 or 2.0**-DATA_WINDOW <= peak <= 2.0**DATA_WINDOW
    return 0 if inside else -math.frexp(peak)[1]
