"""Exception types shared across the package: one per kind of mistake.

Every refusal of an input is a ``StarGraphError`` (CLI exit 2), and one of
its three subclasses names what is wrong.  A numerical failure of a run is
a ``StabilityError`` (CLI exit 3).
"""


class StarGraphError(ValueError):
    """Base class of every refused input."""


class DomainError(StarGraphError):
    """A value the model does not accept.

    Edge counts, edge indices, radii, times, non-finite or non-numeric data,
    and coefficients that break ellipticity, the drift-at-vertex condition or
    their declared growth bound.
    """


class ShapeError(StarGraphError):
    """Data, grids or files whose layout does not fit.

    Array shapes, grids with too few or too many points for what is asked of
    them, and malformed files.
    """


class VertexContinuityError(StarGraphError):
    """Edge values disagree at the vertex beyond tolerance."""


class StabilityError(RuntimeError):
    """A numerical failure: a growth bound broken, a value gone non-finite or
    a solver that did not converge."""
