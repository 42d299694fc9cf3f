"""Exception types shared across the package.

Everything raised on purpose derives from ``TplError`` so callers (and the CLI)
can distinguish our failures from genuine bugs.
"""


class TplError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TplError):
    """Invalid configuration: unknown keys, bad types, out-of-range values."""


# --- numerics ---------------------------------------------------------------

class NotSymmetric(TplError):
    """Matrix expected to be symmetric is not (beyond tolerance)."""


class NotPositiveDefinite(TplError):
    """Matrix is not positive definite even after ridge escalation."""


class EmptyInput(TplError):
    """An aggregate over an empty collection was requested."""


class NonPositiveTemperature(TplError):
    """Softmax temperature must be strictly positive."""


# --- data -------------------------------------------------------------------

class ParseError(TplError):
    """Malformed feature file or manifest; message carries the location."""


class WriteError(TplError):
    """An output file could not be written; the message names it."""


class DimensionMismatch(TplError):
    """Vector or matrix dimensions do not agree."""


class OverlappingLabelSets(TplError):
    """Two tasks claim the same class label."""


class NoDensityAvailable(TplError):
    """Exact density requested for data that has no generative description."""


# --- model / training -------------------------------------------------------

class UnknownTask(TplError):
    """Task id not present in the model."""


class UngatedTask(TplError):
    """A gate was asked of a task that has none (an ungated MLP task)."""


class ShapeMismatch(TplError):
    """Gradient or parameter structure does not match the network."""


class EmptyTrainingSet(TplError):
    """Training requested on a dataset with no samples."""


class NonFiniteLoss(TplError):
    """A training batch's loss is inf or nan; the message names task and epoch."""


class DegenerateCovariance(TplError):
    """Covariance estimation failed (no samples, or irrecoverably singular)."""


class EmptyBufferView(TplError):
    """A replay-buffer view holds no samples (no-replay fallback applies)."""


# --- evaluation / analysis --------------------------------------------------

class MissingNclPrefix(TplError):
    """Joint-training reference accuracies missing for a required prefix."""


class EmptyTestSet(TplError):
    """Evaluation requested on an empty test set."""


class EmptyClassList(TplError):
    """Score list for one side of the AUC is empty."""


class DegenerateVariance(TplError):
    """Correlation undefined: one of the variables is constant."""


class NoVariance(TplError):
    """Rank correlation undefined: scores carry no variation."""


class IntegrationFailure(TplError):
    """Adaptive quadrature did not reach the requested accuracy."""
