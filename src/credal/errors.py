"""Exception types shared across the package."""


class CredalError(Exception):
    """Base class for errors raised by this package."""


class ParseError(CredalError, ValueError):
    """Raised on malformed formula or constraint text.

    Carries the character offset where parsing failed.
    """

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class DomainError(CredalError, ValueError):
    """Raised when a knowledge base lies outside a procedure's domain."""


class ConvergenceError(CredalError, RuntimeError):
    """Raised when an iterative solver exceeds its cycle budget."""
