"""Exception types shared across the package.

Everything derives from TractrixError so callers can catch numeric failures
in one clause; the CLI maps these onto exit codes.
"""

from __future__ import annotations


class TractrixError(Exception):
    """Base class for all package errors."""


class ConfigError(TractrixError):
    """Scenario file is malformed or violates a documented precondition."""


class OutOfDomainError(TractrixError):
    """Point lies outside the chart's declared coordinate domain."""


class SingularChartError(TractrixError):
    """Chart metric is numerically singular at the requested point."""


class DomainExitError(TractrixError):
    """An integration left the chart domain; carries the exit point."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class StepTooLargeError(TractrixError):
    """Fixed-step integration violated its unit-speed drift budget."""


class NoConvergenceError(TractrixError):
    """Iterative solve (shooting / root polish) exhausted its iterations."""


class PoleLengthDriftError(TractrixError):
    """Simulated pole length drifted past the configured tolerance."""


class RecordOverflowError(TractrixError):
    """Trace would exceed the configured maximum number of records."""


class DomainViolationError(TractrixError):
    """Closed-form evaluation requested outside its validity interval."""


class MissingJacobiError(TractrixError):
    """Trace lacks the per-record Jacobi data a functional needs."""


class PoleTooLongError(TractrixError):
    """Shortening endpoints are closer than the pole length."""


class NotClosedError(TractrixError):
    """Loop shortening requires a closed (or periodically closed) curve."""


class UncertifiedBoundsError(TractrixError):
    """Curvature bounds do not certifiably cover the visited region."""


class HypothesisViolatedError(TractrixError):
    """A comparison check's geometric hypothesis fails on the input trace."""


class LowConfidenceFitError(TractrixError):
    """Log-linear fit fell below the R^2 confidence gate."""


class NonPositiveSampleError(TractrixError):
    """Log-linear fit window contains non-positive samples."""
