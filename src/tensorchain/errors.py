"""Exception types shared across the package."""


class TensorChainError(Exception):
    """Base class for all package-specific errors.

    ``label`` names the kind of failure in the command-line error message.
    """

    label = "config error"


class ShapeError(TensorChainError, ValueError):
    """Operands have incompatible or invalid mode structure."""


class DomainError(TensorChainError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ValidationError(TensorChainError, ValueError):
    """A structural invariant of an input object is violated."""


class CapacityError(TensorChainError, RuntimeError):
    """The requested exact computation exceeds the configured budget."""

    label = "capacity error"


class WorkerError(TensorChainError, RuntimeError):
    """A forked worker ended without a usable result."""

    label = "worker error"


class DegenerateMetricError(TensorChainError, ValueError):
    """A zero distance pairs indices whose realizations differ."""

    label = "degenerate metric"


class InsufficientDataError(TensorChainError, ValueError):
    """Too few usable points to run the requested estimation."""

    label = "insufficient data"


class FitFailureError(TensorChainError, RuntimeError):
    """No feasible constants exist inside the search box."""

    label = "fit failure"

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class DegenerateOperatorWarning(UserWarning):
    """A sampling pattern selected no indices; the operator is vacuous."""
