"""Hidden Markov stochastic-volatility models of arbitrary chain order.

The smoothing engine works entirely with bounded conditional probabilities,
with no rescaling at any series length: a backward pass gives the conditional
posteriors, a forward pass chains them into joint window posteriors, and the
log-likelihood is the path identity averaged over those joints. Classic
scaled forward-backward recursions, a scaled forward recursion over lag
windows and exhaustive enumeration ship alongside as verification oracles.
"""

from .core import (
    InvalidParameterError,
    ModelConfig,
    ObservationSeries,
    ParameterSet,
    emission_matrix,
    param_count,
    reorder_states,
    simulate,
    validate,
)
from .recursion import (
    Prediction,
    StructuralZeroError,
    backward_pass,
    check_posteriors,
    forward_joint_pass,
    local_decode,
    log_likelihood,
    peel,
    predict,
    state_marginals,
    windowed_full_conditional,
)
from .oracle import (
    BruteForceResult,
    ForwardBackwardTables,
    brute_force_joint,
    bw_backward,
    bw_forward,
    bw_posteriors,
    lag_chain_loglik,
)
from .estimator import (
    DegenerateStateWarning,
    EMSettings,
    EstimationError,
    FitResult,
    GridSearchResult,
    bic,
    e_step,
    fit,
    grid_search,
    m_step,
    posterior_joints,
)
from .cli import CLIError, ingest, run

__version__ = "0.1.0"

__all__ = [
    "InvalidParameterError",
    "ModelConfig",
    "ObservationSeries",
    "ParameterSet",
    "emission_matrix",
    "param_count",
    "reorder_states",
    "simulate",
    "validate",
    "Prediction",
    "StructuralZeroError",
    "backward_pass",
    "check_posteriors",
    "forward_joint_pass",
    "local_decode",
    "log_likelihood",
    "peel",
    "predict",
    "state_marginals",
    "windowed_full_conditional",
    "BruteForceResult",
    "ForwardBackwardTables",
    "brute_force_joint",
    "bw_backward",
    "bw_forward",
    "bw_posteriors",
    "lag_chain_loglik",
    "DegenerateStateWarning",
    "EMSettings",
    "EstimationError",
    "FitResult",
    "GridSearchResult",
    "bic",
    "e_step",
    "fit",
    "grid_search",
    "m_step",
    "posterior_joints",
    "CLIError",
    "ingest",
    "run",
]
