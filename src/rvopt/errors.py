"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands have incompatible dimensions."""


class RepresentationError(ValueError):
    """Operation is not defined for this cone or set representation."""


class PreconditionError(ValueError):
    """A documented precondition of an operation is not met."""


class ValidationError(ValueError):
    """A problem document failed validation.

    The message starts with the offending field path, e.g. ``"k: required"``.
    """


class ConvergenceError(RuntimeError):
    """An iterative scheme ran out of budget.

    Carries the last iterate and its residual so callers can inspect how
    far the scheme got.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
