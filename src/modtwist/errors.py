"""Exception types shared across the package."""

__all__ = ["ParseError", "DomainError", "BudgetError", "VerificationError"]


class ParseError(ValueError):
    """Malformed word, matrix, or stone-word input."""


class DomainError(ValueError):
    """Input violates a precondition of the requested operation."""


class BudgetError(RuntimeError):
    """Requested computation exceeds the configured resource budget."""


class VerificationError(RuntimeError):
    """A computed result failed its own re-check."""
