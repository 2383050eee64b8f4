"""Exception types shared across the package."""

__all__ = ["DomainError", "Infeasible"]


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class Infeasible(DomainError):
    """No object with the requested properties exists."""
