"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class BracketError(RuntimeError):
    """A bisection bracket could not be established; enlarge the bracket."""


class IterationLimitError(RuntimeError):
    """A solver hit its iteration budget. Carries the last iterate and its certificate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
