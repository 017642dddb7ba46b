"""Shared exception types."""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class SingularEvaluationError(ArithmeticError):
    """Log evaluation requested at (or numerically indistinguishable from) a zero."""

    def __init__(self, message: str, point: complex | None = None):
        super().__init__(message)
        self.point = point


class BoundaryProximityError(RuntimeError):
    """A contour passes too close to a zero; a caller that owns the window may
    inflate it about its center and retry."""


class QuadratureError(RuntimeError):
    """Contour quadrature failed to converge on an integer winding number."""


class ContinuationError(RuntimeError):
    """Branch tracking could not advance (step size underflow)."""

    def __init__(self, message: str, point: complex | None = None):
        super().__init__(message)
        self.point = point


class ClearanceError(InvalidInputError):
    """A path runs closer to a zero than its declared clearance."""


class MonodromyMismatchError(RuntimeError):
    """Measured loop multiplier disagrees with the predicted one."""
