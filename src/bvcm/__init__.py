"""Block vertex components model: generation, likelihood, posterior
inference and diagnostics for block-structured interaction networks."""

__version__ = "0.1.0"

from .core import (
    BlockAssignment,
    InteractionNetwork,
    ModelParams,
    SufficientStats,
    compute_stats,
    degree_distribution,
    log_ascending_factorial,
)
from .errors import BvcmError, DataError, NumericalError, UsageError
from .generator import (
    ArityLaw,
    GeneratorConfig,
    SimulationResult,
    simulate,
    simulate_conditional_iid,
    simulate_sequential,
)
from .gibbs import Chain, GibbsConfig, GibbsSampler, run_gibbs
from .likelihood import (
    ConditionalLogProb,
    LogProb,
    log_prob_conditional,
    log_prob_sequential,
    marginal_log_likelihood,
)
from .consistency import (
    BoundResult,
    LabelingQuality,
    degree_majority_update,
    estimate_gamma,
    misclassification_bound,
    restricted_misclassification,
)
from .metrics import (
    PosteriorMembership,
    cross_entropy_loss,
    hellinger_distance,
    powerlaw_diagnostic,
    sparsity_growth,
    standardized_l2,
)

__all__ = [
    "__version__",
    "ArityLaw",
    "BlockAssignment",
    "BoundResult",
    "BvcmError",
    "Chain",
    "ConditionalLogProb",
    "DataError",
    "GeneratorConfig",
    "GibbsConfig",
    "GibbsSampler",
    "InteractionNetwork",
    "LabelingQuality",
    "LogProb",
    "ModelParams",
    "NumericalError",
    "PosteriorMembership",
    "SimulationResult",
    "SufficientStats",
    "UsageError",
    "compute_stats",
    "cross_entropy_loss",
    "degree_distribution",
    "degree_majority_update",
    "estimate_gamma",
    "hellinger_distance",
    "log_ascending_factorial",
    "log_prob_conditional",
    "log_prob_sequential",
    "marginal_log_likelihood",
    "misclassification_bound",
    "powerlaw_diagnostic",
    "restricted_misclassification",
    "run_gibbs",
    "simulate",
    "simulate_conditional_iid",
    "simulate_sequential",
    "sparsity_growth",
    "standardized_l2",
]
