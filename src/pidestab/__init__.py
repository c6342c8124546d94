"""Feedback stabilization toolkit for diffusion equations whose damping
acts through an exponentially fading memory kernel.

The pipeline: describe the operator spectrum and kernel, split the modes
at a target decay rate, check steerability of the slow block, solve a
shifted regulator problem for a static feedback law, then simulate and
certify the achieved decay.
"""

from .exceptions import (
    ActuatorSearchError,
    AlphaRangeError,
    ConfigError,
    DecayViolationError,
    DegenerateRootError,
    DegenerateSpectrumError,
    DimensionMismatchError,
    ForcingRangeError,
    GammaExceedsDeltaError,
    GammaOutOfRangeError,
    GramianSingularError,
    HorizonTooSmallError,
    IllConditionedTransformError,
    NonpositiveAmplitudeError,
    NotStabilizableError,
    PidestabError,
    RankConditionError,
    SolverFailureError,
    StepInstabilityError,
    WindowTooShortError,
)
from .spectral import (
    MemoryKernel,
    ModalRootPair,
    Spectrum,
    SpectrumEntry,
    UnstablePartition,
    check_degeneracy,
    growth_bound,
    modal_roots,
    partition_spectrum,
)
from .synthesis import (
    ActuatorSet,
    CompanionSystem,
    NullControl,
    RankReport,
    TransformedSystem,
    build_companion,
    default_actuators,
    kalman_observability_check,
    min_energy_control,
    rank_conditions,
    recover_v,
    transform_and_group,
)
from .riccati import (
    DecayCertificate,
    RiccatiSolution,
    ShiftedSystem,
    build_shifted,
    certify_decay,
    embed_initial,
    make_closed_loop,
    rayleigh_bounds,
    shifted_coefficients,
    simulate_closed_loop,
    solve_are,
)
from .simulate import (
    ForcingField,
    RateFit,
    Trajectory,
    ZeroSignal,
    control_shift,
    fit_decay_rate,
    simulate_exact,
    simulate_ode,
    steady_state,
    translate_system,
)
from .fluids import (
    JeffreysParams,
    OldroydParams,
    indicator_actuators_1d,
    indicator_actuators_2d,
    jeffreys_reduce,
    model_spectrum,
    oldroyd_to_abstract,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
