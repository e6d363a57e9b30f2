"""Exception hierarchy shared by all swphase modules."""
from __future__ import annotations

__all__ = ["SWPhaseError", "DomainError", "ValidationError", "InvalidStateError", "NumericalIntegrityError"]


class SWPhaseError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SWPhaseError, ValueError):
    """A numeric argument lies outside the mathematically admissible range."""


class ValidationError(SWPhaseError, ValueError):
    """An input object violates a structural requirement (shape, hermiticity, unitarity...)."""


class InvalidStateError(ValidationError):
    """A candidate density matrix is not positive semidefinite.

    The most negative eigenvalue found is attached as `min_eigenvalue` so
    callers can report how badly positivity failed.
    """

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class NumericalIntegrityError(SWPhaseError, ArithmeticError):
    """A quantity that must vanish identically (e.g. an imaginary residue) exceeded tolerance."""
