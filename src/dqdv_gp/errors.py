"""Exception hierarchy shared across the package."""


class DqdvGpError(Exception):
    """Base class for all package-specific errors."""


class FactorizationFailure(DqdvGpError):
    """A covariance matrix was not positive definite even after jitter."""


class AllStartsFailed(DqdvGpError):
    """Every hyperparameter optimization start failed to produce a model."""


class NonFinite(DqdvGpError):
    """The optimization objective, or the spread of a Q(V) curve's charge, is non-finite."""


class MalformedHeader(DqdvGpError):
    """CSV header is missing required columns."""


class NonMonotonicTime(DqdvGpError):
    """Timestamps go backwards within a cycle.

    Attributes
    ----------
    row : int
        1-based data-row index of the first offending sample.
    """

    def __init__(self, row):
        super().__init__(f"time not strictly increasing at data row {row}")
        self.row = row


class EmptyLog(DqdvGpError):
    """The log contains no usable samples."""


class NoChargeSegments(DqdvGpError):
    """No constant-current charge segment was found in the log."""


class TooFewPoints(DqdvGpError):
    """A Q(V) curve has fewer than 4 points, or no rise in charge, after cleaning."""


class RepeatedCycle(DqdvGpError):
    """One cycle label holds more than one constant-current charge run."""


class GridDoesNotReachThreshold(DqdvGpError):
    """Analysis grid tops out at or below the plating threshold voltage.

    The cycle cannot be assessed either way; this is distinct from a
    NoPlating verdict.
    """


class LabelMismatch(DqdvGpError):
    """Condition labels of verdicts and degradation rates do not intersect."""


class InvalidSpec(DqdvGpError):
    """Synthetic-data spec parameters are inconsistent."""
