"""Exception types shared across the package."""


class MwgError(ValueError):
    """Base class for all mwgraph errors: every rejection of an input or a
    parameter.  A ValueError, so callers that catch ValueError still catch it."""


class NonFiniteError(MwgError):
    """Input contains NaN or infinite entries."""


class NotSymmetricError(MwgError):
    """Matrix asymmetry exceeds the symmetry tolerance."""


class NotPsdError(MwgError):
    """Matrix is not positive semidefinite within tolerance."""


class DimMismatchError(MwgError):
    """Operands have incompatible dimensions."""


class IndexOutOfRangeError(MwgError):
    """A vertex index lies outside [0, n)."""


class ParseError(MwgError):
    """Malformed input file or document."""


class DegenerateEdgeError(MwgError):
    """An edge is a self-loop, or a truss edge has zero length."""


class NotScalarRegularError(MwgError):
    """Operation requires a dI-regular graph with d > 0."""


class EmptyOrFullSubsetError(MwgError):
    """Operation requires a nonempty proper vertex subset."""


class TooLargeError(MwgError):
    """Problem size exceeds the exhaustive-enumeration limit."""


class SingularVolumeError(MwgError):
    """vol(G) has an eigenvalue below the rank cutoff."""


class NotTightError(MwgError):
    """Projections do not sum to a scalar multiple of the identity."""


class NotProjectionError(MwgError):
    """A frame element is not an orthogonal projection."""


class NotColorableError(MwgError):
    """No proper edge coloring with the requested number of colors exists."""


class SampleShortfallError(MwgError):
    """Random sampling drew fewer graphs than requested within its attempt budget."""


class NotProperlyColoredError(MwgError):
    """Edge coloring violates properness or degree requirements."""


class NotProjectionWeightsError(MwgError):
    """Graph weights are not all orthogonal projections."""


class DomainError(MwgError):
    """Numeric argument outside the valid domain of a formula."""
