"""Randomized-benchmarking toolkit for incoherent and coherent leakage errors."""

__version__ = "0.1.0"

from .fitting import (
    DecayModel,
    FitNonConvergence,
    FitResult,
    fit,
    model_by_name,
)
from .gatesets import (
    ExactModel,
    GateSet,
    NoiseAssignment,
    TwirlProjector,
    average_noise,
    gate_dependence_epsilon,
    gateset_by_id,
    pauli_gateset,
    shelving_gateset,
    signed_design_gateset,
    twirl,
)
from .liouville import (
    DEFAULT_TOL,
    Channel,
    ChannelDiagnostics,
    SpaceSpec,
    cp_tp_diagnostics,
    transfer_matrix,
)
from .noise import (
    FilterParams,
    RandomStream,
    ShelvingParams,
    averaged_coherent_channel,
    filter_channel,
    sample_coherent_noise,
)
from .protocol import (
    ConfigError,
    DecayDataset,
    ExperimentConfig,
    SpamSpec,
    brute_force_expectation,
    decay_parameters,
    exact_expectations,
    predicted_expectation,
    run_experiment,
)
