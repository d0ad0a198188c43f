"""Exception types shared across the package."""

__all__ = ["InvalidInputError", "BracketError", "IterationLimitError"]


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class BracketError(RuntimeError):
    """A bisection bracket could not be established; enlarge the bracket."""


class IterationLimitError(RuntimeError):
    """A solver hit its iteration budget. Carries the last iterate, its certificate and a stack's first late ``row``."""

    def __init__(self, message, best=None, row=0):
        super().__init__(message)
        self.best = best
        self.row = row
