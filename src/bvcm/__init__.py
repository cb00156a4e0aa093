"""Block vertex components model: generation, likelihood, posterior
inference and diagnostics for block-structured interaction networks.

Each public name is imported from its module on first access (PEP 562),
so ``import bvcm`` loads no submodule.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "core": "BlockAssignment Chain InteractionNetwork ModelParams SufficientStats"
            " compute_stats degree_distribution",
    "errors": "BvcmError DataError NumericalError UsageError",
    "generator": "ArityLaw GeneratorConfig SimulationResult simulate"
                 " simulate_conditional_iid simulate_sequential",
    "gibbs": "GibbsConfig GibbsSampler run_gibbs",
    "likelihood": "LogProb log_prob_sequential marginal_log_likelihood",
    "consistency": "BoundResult degree_majority_update misclassification_bound"
                   " restricted_misclassification",
    "metrics": "PosteriorMembership cross_entropy_loss hellinger_distance"
               " powerlaw_diagnostic sparsity_growth standardized_l2",
}
# Public name -> the module that defines it.
_HOME = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
