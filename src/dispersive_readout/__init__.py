"""Simulation and fitting toolkit for cavity-dispersive readout of spin
ensembles: dispersive shifts of an inhomogeneously broadened ensemble,
reflection-phase signals, chopped-laser relaxation traces, phase-noise /
lock-in sensitivity estimates, and nonlinear least-squares parameter
recovery.
"""

from .errors import ConfigError, InvalidParameterError, SingularJacobianError
from .params import (
    CavityParams,
    ChopperCycle,
    LockinConfig,
    OptimizedDeviceParams,
    PhaseNoisePSD,
    PSDSegment,
    SpinEnsembleParams,
)
from .physics import (
    dawson,
    ensemble_dispersive_shift,
    optimized_phase_shift,
    photon_budget,
    reflection_phase,
    transition_frequency,
)
from .dynamics import PhaseTrace, PolarizationTrace, phase_trace, polarization_trace
from .noiselockin import (
    lockin_demodulate,
    psd_value,
    sensitivity,
    shot_noise_limit,
    simulate_readout,
    square_wave,
    synthesize_phase_noise,
)
from .fitting import (
    FitModel,
    FitResult,
    fit_exponential,
    fit_nonlinear,
    fit_reflection_phase,
    fit_shift_vs_field,
)
from .config import RunConfig, load_config

__version__ = "0.1.0"
