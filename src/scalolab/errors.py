"""Exception types shared across the package.

Two roots sort them by exit code: UserInputError (exit 2) for inputs the
theory or the configuration rejects, NumericError (exit 3) for numerical
procedures that failed on admissible input.  PreconditionError (exit 4)
stands apart.
"""


class UserInputError(ValueError):
    """An input (configuration, series, bank or model) the program rejects."""


class NumericError(RuntimeError):
    """A numerical procedure failed on admissible input."""


class BoundaryValueError(UserInputError):
    """Memory parameter sits on the lattice d = 1/2 - 1/(2q) where the
    power-law machinery picks up logarithmic corrections."""


class LongMemoryError(UserInputError):
    """The leading expansion rank q0 violates q0 < 1/(1 - 2d), so the
    transformed series is not long-range dependent."""


class SingularityError(UserInputError):
    """Evaluation requested at the spectral singularity lambda = 0."""


class NonIntegrabilityError(NumericError):
    """Quadrature of the transform's second moment fails to stabilise
    across refinement levels."""


class QuadratureError(NumericError):
    """A limit-constant integral did not converge within tolerance."""


class ScaleTooCoarseError(UserInputError):
    """Requested scale leaves fewer than one interior wavelet coefficient
    (or the filter would swallow the whole sample)."""


class DegenerateScalogramError(UserInputError):
    """A scalogram value of exactly zero makes the log-regression undefined."""


class FilterValidationError(UserInputError):
    """A filter bank failed an admissibility check, structural or too few
    vanishing moments for the model; the message names the assumption."""


class InvalidTargetError(UserInputError):
    """A hypothesised memory parameter admits no valid (d*, K*) split."""


class ConfigError(UserInputError):
    """Configuration rejected; the message carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class PreconditionError(RuntimeError):
    """An asymptotic side condition exceeded the enforcement threshold the
    configuration opted into."""
