"""Exception taxonomy, aligned with the CLI exit codes.

ValueError (and subclasses raised by argument validation) -> exit 1;
FormatError -> exit 2; NumericalError subclasses -> exit 3.
"""

__all__ = [
    "FormatError",
    "RangeError",
    "NumericalError",
    "BracketError",
    "ConvergenceError",
    "DegenerateFitError",
    "OutOfDomainError",
]


class FormatError(Exception):
    """A file does not conform to its declared format."""

    def __init__(self, message: str, *, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class RangeError(FormatError):
    """Image values not representable in the requested output format."""


class NumericalError(Exception):
    """A numerical procedure failed to produce a result."""


class BracketError(NumericalError):
    """Root bracket does not straddle the target value."""


class ConvergenceError(NumericalError):
    """Iteration budget exhausted before reaching tolerance."""


class DegenerateFitError(NumericalError):
    """Regression/fit design matrix is rank-deficient."""


class OutOfDomainError(ValueError):
    """Argument outside the supported domain (no extrapolation)."""
