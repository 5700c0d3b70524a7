"""Exception hierarchy shared across the toolchain."""


class JodscaleError(Exception):
    """Base class for every error raised by this package."""


class ParseError(JodscaleError):
    """A manifest or CSV file is malformed."""


class IntegrityError(JodscaleError):
    """Input data violates a structural invariant (unknown condition,
    duplicate condition, negative count, missing reference, ...)."""


class DisconnectedGraphError(JodscaleError):
    """The comparison graph (plus rating linkage) splits into more than one
    component, so a joint scale would be meaningless."""


class DegenerateDataError(JodscaleError):
    """A dataset carries no usable signal or has an unbounded likelihood,
    e.g. ratings that never differ within a condition."""


class ConvergenceError(JodscaleError):
    """The solve stopped for a reason other than ``converged`` (raised only
    under ``scale --strict``; otherwise the scale's ``reason`` reports it)."""


class DesignError(JodscaleError):
    """Pair selection is infeasible under the requested constraints."""


class UndefinedCorrelationError(JodscaleError):
    """Correlation is undefined because one input has zero variance.

    The RMSE is still well defined and is carried on the exception.
    """

    def __init__(self, message: str, rmse: float | None = None):
        super().__init__(message)
        self.rmse = rmse
