"""Exception hierarchy shared by the whole toolkit.

Every error the library raises deliberately derives from
:class:`PidestabError` so callers (and the command line front end) can
translate failures into exit codes without string matching.
"""


class PidestabError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(PidestabError, ValueError):
    """A scenario or configuration document is malformed or inconsistent.

    Also a :class:`ValueError` so call sites validating plain parameter
    values can catch it without importing this module.
    """


class GammaOutOfRangeError(PidestabError):
    """Requested decay rate is not inside (0, growth bound)."""


class GammaExceedsDeltaError(PidestabError):
    """The shifted-system construction needs gamma strictly below the
    kernel decay rate; the shifted kernel would not fade otherwise."""


class AlphaRangeError(PidestabError):
    """Cost exponent outside the supported interval [0, 3/4]."""


class DegenerateSpectrumError(PidestabError):
    """Synthesis was asked to run on a spectrum whose root structure is
    degenerate (repeated or cross-branch colliding decay roots)."""

    def __init__(self, message, report=()):
        super().__init__(message)
        self.report = tuple(report)


class DegenerateRootError(PidestabError):
    """The closed-form modal solution needs two distinct decay roots."""


class DimensionMismatchError(PidestabError):
    """Matrix or vector shapes are inconsistent with the mode count."""


class IllConditionedTransformError(PidestabError):
    """The similarity transform to block form is numerically unreliable."""


class ActuatorSearchError(PidestabError):
    """Randomized actuator search exhausted its attempt budget."""

    def __init__(self, message, seed=None, attempts=None):
        super().__init__(message)
        self.seed = seed
        self.attempts = attempts


class RankConditionError(PidestabError):
    """One or more group slices of the transformed input matrix are rank
    deficient, so the unstable block is not steerable."""

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)


class GramianSingularError(PidestabError):
    """The steering Gramian is numerically singular."""


class HorizonTooSmallError(PidestabError):
    """The steering Gramian is invertible but so badly conditioned, or
    the verified steering control misses zero by so much, that the
    horizon is effectively too short."""


class NotStabilizableError(PidestabError):
    """No stabilizing solution of the algebraic Riccati equation exists
    for the supplied system."""


class SolverFailureError(PidestabError):
    """A matrix equation solver failed or returned an unusable result."""


class StepInstabilityError(PidestabError):
    """A simulated trajectory diverges: its state norm left the bound
    1e6 (1 + |y0|) at an output sample."""


class ForcingRangeError(PidestabError):
    """A forcing term is not representable through the actuator set."""


class NonpositiveAmplitudeError(PidestabError):
    """Fluid parameters lead to a nonpositive memory-kernel amplitude."""


class WindowTooShortError(PidestabError):
    """A rate-fit window contains too few samples to be meaningful."""


class DecayViolationError(PidestabError):
    """Closed-loop certification measured a decay rate below target."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate
