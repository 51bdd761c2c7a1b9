"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so the classes matter more
than the messages: ShapeError for dimension mismatches, QmxFormatError
for unreadable matrix files, NonFiniteInputError, NotSymmetricError,
NotPositiveDefiniteError and ConvergenceError for numerical failures.
"""


class ShapeError(ValueError):
    """Inputs have inconsistent or unexpected dimensions."""


class QmxFormatError(OSError):
    """A .qmx file is truncated or its header is malformed."""


class NonFiniteInputError(ArithmeticError):
    """An input matrix holds a NaN or an infinity."""


class NotSymmetricError(ValueError):
    """A matrix required to be symmetric is not, beyond rounding."""


class NotPositiveDefiniteError(ArithmeticError):
    """A matrix required to be positive definite is not.

    ``index`` is the 1-based pivot at which factorization failed.
    """

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        if message is None:
            message = f"matrix is not positive definite (failing pivot {index})"
        super().__init__(message)


class ConvergenceError(RuntimeError):
    """An iterative routine ran out of iterations.

    ``last_estimate`` carries the best value seen before giving up.
    """

    def __init__(self, message: str, last_estimate: float):
        self.last_estimate = last_estimate
        super().__init__(message)


class EnumerationCapError(ValueError):
    """A brute-force enumeration would exceed the configured cell cap."""
