"""Rationality tests, sparse utility recovery, and accuracy prediction for
collections of stochastic classifiers.

The package tests whether a collection of agents (for example one classifier
checkpointed across training epochs or noise levels) behaves like utility
maximizers paying for information, reconstructs the sparsest utility and
cost model consistent with their choices, and uses the fitted model to
predict choice behavior at unseen noise levels.
"""

from .brp import (
    MarginReport,
    UtilityProfile,
    brp_max_margin,
    brp_sparsest,
    niac_residuals,
    nias_residuals,
    reconstruct_cost,
)
from .costs import PiecewiseAffineCost
from .dataset import (
    AgentChoiceMatrix,
    DecisionDataset,
    expected_value,
    ingest_softmax,
    joint_and_posterior,
    realized_value,
    validate_dataset,
)
from .lp import LinearProgram, LpSolution, LpStatus, solve_lp
from .predict import (
    NoiseFamily,
    PredictionOutcome,
    fit_family,
    interpolate_utility,
    predict_at,
    score_prediction,
)
from .sbrp import (
    SharedUtilitySolution,
    reconstruct_cost_compact,
    sbrp_max_margin,
    sbrp_residuals,
    sbrp_sparsest,
)
from .synth import (
    GroundTruth,
    OracleResult,
    assign_costs,
    generate_boundary_dataset,
    generate_feasible_dataset,
    generate_strategies,
    grid_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "AgentChoiceMatrix",
    "DecisionDataset",
    "GroundTruth",
    "LinearProgram",
    "LpSolution",
    "LpStatus",
    "MarginReport",
    "NoiseFamily",
    "OracleResult",
    "PiecewiseAffineCost",
    "PredictionOutcome",
    "SharedUtilitySolution",
    "UtilityProfile",
    "assign_costs",
    "brp_max_margin",
    "brp_sparsest",
    "expected_value",
    "fit_family",
    "generate_boundary_dataset",
    "generate_feasible_dataset",
    "generate_strategies",
    "grid_oracle",
    "ingest_softmax",
    "interpolate_utility",
    "joint_and_posterior",
    "niac_residuals",
    "nias_residuals",
    "predict_at",
    "realized_value",
    "reconstruct_cost",
    "reconstruct_cost_compact",
    "sbrp_max_margin",
    "sbrp_residuals",
    "sbrp_sparsest",
    "score_prediction",
    "solve_lp",
    "validate_dataset",
]
