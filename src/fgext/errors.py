"""Exception types: every refusal fgext raises is an FgextError, one class per failure."""


class FgextError(Exception):
    """Base class for all package errors; all but SolverStalledError are ValueErrors."""


class DimensionMismatchError(FgextError, ValueError):
    """Operands have incompatible shapes, or a dimension that must be even is odd."""


class NotAntisymmetricError(FgextError, ValueError):
    """Input deviates from antisymmetry beyond tolerance."""


class NotBonaFideError(FgextError, ValueError):
    """A state that is not physical: a covariance matrix failing I + iM >= 0, a
    dense density matrix failing its checks, or a pair with a negative overlap
    determinant. violating_eigenvalue, when given, is the spectral radius of iM
    (for NotCPError, λ_min of I + iN - XXᵀ)."""

    def __init__(self, message, violating_eigenvalue=None):
        super().__init__(message)
        self.violating_eigenvalue = violating_eigenvalue


class NotCPError(NotBonaFideError):
    """Channel pair (X, N) fails complete positivity, i.e. its Choi state is not bona fide."""


class InvalidParameterError(FgextError, ValueError):
    """A parameter outside its admissible set: a count, index, scalar, name or result."""


class TooManyModesError(FgextError, ValueError):
    """A dense Fock-space representation beyond the hard mode cap, or a
    solver run whose estimated memory exceeds its byte cap."""


class WrongSplitError(FgextError, ValueError):
    """Mode split that does not add up to the matrix or leaves a side without modes."""


class SolverStalledError(FgextError, RuntimeError):
    """Feasibility solver exhausted its budget in the ambiguous margin band."""


class ParseError(FgextError, ValueError):
    """Malformed covariance-matrix or channel text file, or command-line argument."""
