"""Exception types shared across the package."""


class StarGraphError(ValueError):
    """Base class for domain and validation errors."""


class InvalidGraphError(StarGraphError):
    """Edge count is not a positive integer."""


class InvalidPointError(StarGraphError):
    """Point does not belong to the graph (bad edge index or radius)."""


class ShapeError(StarGraphError):
    """Array shapes or grids do not match the declared layout."""


class NumericalInputError(StarGraphError):
    """Non-finite or otherwise unusable numerical input."""


class VertexContinuityError(StarGraphError):
    """Edge values disagree at the vertex beyond tolerance."""


class ExtensionError(StarGraphError):
    """Coefficients cannot be extended to the line (parity obstruction)."""


class DomainError(StarGraphError):
    """Scalar argument outside the supported range (e.g. time too small)."""


class StencilError(StarGraphError):
    """Too few grid points for the requested finite-difference stencil."""


class AssemblyError(StarGraphError):
    """Finite-element assembly received an unusable grid."""


class StabilityError(RuntimeError):
    """Time stepper exceeded the theoretical growth bound."""
