"""Exception hierarchy. Every error carries a short machine-readable code
that the CLI prints on its single error line."""


class PoseInnError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class DimensionError(PoseInnError):
    """Shapes or vector lengths do not agree."""

    code = "dimension"


class DomainError(PoseInnError):
    """Input value outside the mathematical domain of an operation."""

    code = "domain"


class NonFiniteError(PoseInnError):
    """A NaN or Inf appeared where only finite values are allowed."""

    code = "non_finite"


class TapeError(PoseInnError):
    """Misuse of the backward pass (e.g. a second pass from the same root)."""

    code = "tape"


class OptimizerError(PoseInnError):
    """Optimizer received a non-finite gradient or inconsistent state."""

    code = "optimizer"


class SamplingError(PoseInnError):
    """Pose sampling could not reach its target within the attempt budget."""

    code = "sampling"


class GenerationError(PoseInnError):
    """Scene or trajectory generation failed (e.g. no collision-free poses)."""

    code = "generation"


class CheckpointError(PoseInnError):
    """Checkpoint file is corrupt, truncated, or of an unsupported version."""

    code = "checkpoint"


class ConfigError(PoseInnError):
    """Config or manifest file is malformed, or contains unknown keys."""

    code = "config"


class ConditioningError(PoseInnError):
    """A covariance matrix is not a finite, symmetric, positive
    semidefinite matrix; or a model's condition does not fit: a
    conditional model got no condition vector, an unconditional one got
    one, or a conditional model was asked for full 6-D poses or for
    ``eval``, which has no pose prior per frame."""

    code = "conditioning"


class TrackingError(PoseInnError):
    """Sequential localization failed (e.g. missing condition input)."""

    code = "tracking"
