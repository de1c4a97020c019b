"""Exception types shared across the library."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge.

    For the censor and stationarity solvers this signals an internal
    defect, not a user error: the underlying equations have unique roots
    for all valid inputs.
    """
