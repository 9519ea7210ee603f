"""Multilevel Monte Carlo planning and execution toolkit.

Plans how many resolution levels to couple and how many samples to draw
on each, predicts the associated work and error bounds, estimates the
required statistical inputs from pilot runs, and executes the resulting
ensembles over pluggable stochastic models.
"""

from .executor import (
    DegenerateModelError,
    ModelEvaluationError,
    QoIModel,
    RunReport,
    pilot_estimate_parameters,
    run_classical_mc,
    run_mlmc,
)
from .models import (
    BurgersModel,
    BurgersSpec,
    GBMModel,
    GBMSpec,
    TopographySpec,
    TwoScaleModel,
    model_from_config,
)
from .planner import (
    CostRegime,
    Growth,
    LevelPlan,
    StrategyId,
    classify_cost_regime,
    plan_for_strategy,
)
from .stats import (
    LevelTermStats,
    SolutionParameters,
    estimate_alpha,
    estimate_fine_error,
    mc_mean,
    unbiased_variance,
)

__version__ = "0.1.0"

__all__ = [
    "BurgersModel",
    "BurgersSpec",
    "CostRegime",
    "DegenerateModelError",
    "GBMModel",
    "GBMSpec",
    "Growth",
    "LevelPlan",
    "LevelTermStats",
    "ModelEvaluationError",
    "QoIModel",
    "RunReport",
    "SolutionParameters",
    "StrategyId",
    "TopographySpec",
    "TwoScaleModel",
    "classify_cost_regime",
    "estimate_alpha",
    "estimate_fine_error",
    "mc_mean",
    "model_from_config",
    "pilot_estimate_parameters",
    "plan_for_strategy",
    "run_classical_mc",
    "run_mlmc",
    "unbiased_variance",
    "__version__",
]
