"""Exception types raised by the library.

Everything derives from EbchanError so callers can catch the whole family;
validation failures additionally derive from ValueError since they signal
bad input values.
"""

__all__ = [
    "ColumnSumViolation", "ConsistencyError", "ConvergenceFailure",
    "DimensionMismatch", "DocumentSyntaxError", "EbchanError",
    "KrausRankTooHigh", "NegativeEntry", "NotDensity", "NotHermitian",
    "NotPOVM", "NotPSD", "NotStochastic", "StationarySolveFailure",
    "SubsetCapExceeded", "TracePreservationViolation", "ValidationError",
    "ZeroEffect",
]


class EbchanError(Exception):
    """Base class for all library errors."""


class ValidationError(EbchanError, ValueError):
    """Input failed a structural or numerical validity check.

    ``pair_index`` identifies the offending (F, R) pair when the failure
    is local to one pair of a Holevo form; otherwise it is None.
    """

    def __init__(self, message, pair_index=None):
        super().__init__(message)
        self.pair_index = pair_index


class DimensionMismatch(ValidationError):
    """Operands have incompatible shapes."""


class NotHermitian(ValidationError):
    """Matrix is not Hermitian within tolerance."""


class NotPSD(ValidationError):
    """Matrix is not positive semidefinite within tolerance."""


class ZeroEffect(ValidationError):
    """A POVM effect is numerically zero."""


class NotPOVM(ValidationError):
    """Effects do not sum to the identity within tolerance."""


class NotDensity(ValidationError):
    """Matrix fails the density-matrix requirements (PSD with unit trace)."""


class NegativeEntry(ValidationError):
    """A matrix entry is negative beyond the clamping tolerance."""


class ColumnSumViolation(ValidationError):
    """A column of a stochastic matrix does not sum to one within tolerance."""


class NotStochastic(ValidationError):
    """Matrix is not a valid column-stochastic matrix."""


class KrausRankTooHigh(ValidationError):
    """A Kraus operator does not have numerical rank one."""


class TracePreservationViolation(ValidationError):
    """Kraus operators do not satisfy the trace-preservation identity."""


class ConvergenceFailure(EbchanError):
    """An iterative eigensolver failed to converge."""


class StationarySolveFailure(EbchanError):
    """No valid stationary distribution could be extracted."""


class SubsetCapExceeded(EbchanError):
    """Exact positivity analysis was requested above the subset budget."""


class ConsistencyError(EbchanError):
    """An internal cross-check that should hold by theory failed numerically."""


class DocumentSyntaxError(EbchanError, ValueError):
    """Channel document text is not syntactically valid.

    ``offset`` is the byte/character position reported by the JSON parser.
    """

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset
