"""Shared exception types.

Everything numeric that can fail in a structured way raises one of these,
so the CLI can map failures to exit codes without string-matching.
"""


class MonoseeError(Exception):
    """Base class for package errors."""


class ConfigError(MonoseeError):
    """Invalid experiment configuration (unknown key, bad range, missing field)."""


class NonconvergenceError(MonoseeError):
    """An iterative solve ran out of iterations or stalled.

    Carries the residual history so callers can report or post-mortem it;
    a batched solve also records which ``replica`` failed (None otherwise),
    and the message then starts with it.  A resolvent error, and a
    stacked Picard solve's, lists every failed row in ``failures``,
    itself first (empty for other solves).
    """

    def __init__(self, message, residuals=None, replica=None):
        super().__init__(message)
        self.residuals = list(residuals) if residuals is not None else []
        self.replica = replica
        self.failures = []

    def __str__(self):
        text = super().__str__()
        return text if self.replica is None else \
            f"replica {self.replica}: {text}"


class RegressionError(MonoseeError):
    """Least-squares conditional-expectation fit is unusable (degenerate design)."""
