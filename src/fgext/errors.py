"""Exception types raised across the package."""


class FgextError(Exception):
    """Base class for all package errors."""


class DimensionOddError(FgextError, ValueError):
    """Matrix dimension is odd where an even (Majorana-paired) one is required."""


class DimensionMismatchError(FgextError, ValueError):
    """Operands have incompatible shapes."""


class NotAntisymmetricError(FgextError, ValueError):
    """Input deviates from antisymmetry beyond tolerance."""


class NotBonaFideError(FgextError, ValueError):
    """Matrix fails the covariance-matrix physicality condition I + iM >= 0."""

    def __init__(self, message, violating_eigenvalue=None):
        super().__init__(message)
        self.violating_eigenvalue = violating_eigenvalue


class InvalidParameterError(FgextError, ValueError):
    """Bad parameter to a standard-state constructor."""


class NegativeDeterminantError(FgextError, ValueError):
    """Overlap determinant is negative beyond numerical tolerance."""


class TooManyModesError(FgextError, ValueError):
    """A dense Fock-space representation beyond the hard mode cap, or a
    solver run whose estimated memory exceeds its byte cap."""


class OddSubsetError(FgextError, ValueError):
    """Majorana index subset has odd size."""


class IndexOutOfRangeError(FgextError, IndexError):
    """Majorana index outside the valid range."""


class WrongSplitError(FgextError, ValueError):
    """Operation requires a specific bipartition (e.g. one mode per side)."""


class OutOfRangeError(FgextError, ValueError):
    """Scalar argument outside its admissible interval."""


class NotCPError(FgextError, ValueError):
    """Channel pair (X, N) fails the complete-positivity condition."""

    def __init__(self, message, violating_eigenvalue=None):
        super().__init__(message)
        self.violating_eigenvalue = violating_eigenvalue


class SolverStalledError(FgextError, RuntimeError):
    """Feasibility solver exhausted its budget in the ambiguous margin band."""


class NotFeasibleError(FgextError, ValueError):
    """Extension construction requires a Feasible result."""


class ParseError(FgextError, ValueError):
    """Malformed covariance-matrix or channel text file."""
