"""Exception types shared across the package."""


class FramefitError(Exception):
    """Base class for all framefit errors."""


class DimensionMismatchError(FramefitError, ValueError):
    """Array shapes are inconsistent with the declared (M, N, P) dimensions."""


class RankDeficientError(FramefitError, ValueError):
    """The synthesis matrix does not have full row rank; the evaluation point
    is outside the domain where the columns form a frame."""


class NearSingularError(FramefitError, ValueError):
    """A query point is too close to a transmitter or receiver position."""


class MissingSecondOrderError(FramefitError, ValueError):
    """Second-order jet data was required but not present."""


class InvalidStepError(FramefitError, ValueError):
    """A finite-difference step size is zero or negative."""


class EmptyDomainError(FramefitError, ValueError):
    """No grid point lies inside the frame domain."""


class SingularHessianError(FramefitError, RuntimeError):
    """The Newton system remained unsolvable even after aggressive shifting."""


class LeftDomainError(FramefitError, RuntimeError):
    """An iterate or integration stage left the frame domain.

    Integration routines attach the completed prefix of the trajectory as the
    ``partial`` attribute when available.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class AllCandidatesFailedError(FramefitError, RuntimeError):
    """Every shooting candidate failed to integrate across the time window."""


class ScenarioParseError(FramefitError, ValueError):
    """A scenario, measurement or time-series file could not be read or parsed."""


class ScenarioValidationError(FramefitError, ValueError):
    """A scenario or time-series file parsed but violates an invariant."""
