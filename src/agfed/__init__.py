"""Deterministic federated-learning simulator with min-max domain weighting.

Trains a shared model against the worst-case mixture of per-domain
losses (agnostic federated averaging) next to a standard FedAvg
baseline, with simulated secure aggregation and communication-cost
accounting.
"""

from .client import LocalSGDConfig, client_update, compute_client_stats
from .core import (
    ClientDataset,
    Cohort,
    DomainStats,
    InvalidArgument,
    NumericError,
    mixture_uniform,
)
from .harness import (
    ExperimentConfig,
    compare_algorithms,
    emit_plots,
    read_metrics_csv,
    run_experiment,
    run_experiment_full,
)
from .models import ModelSpec
from .secagg import MaskedVector, PairwiseSeeds, SecureSum, mask_set
from .server import (
    AggregationSettings,
    AlgorithmConfig,
    RoundReport,
    ServerState,
    aggregate_params,
    compute_scaling,
    effective_counts,
    initial_state,
    lambda_update_eg,
    lambda_update_projected_sgd,
    project_simplex,
    run_round,
)
from .tasks import TaskConfig, gen_synthetic_classification, gen_toy_regression

__all__ = [
    "AggregationSettings",
    "AlgorithmConfig",
    "ClientDataset",
    "Cohort",
    "DomainStats",
    "ExperimentConfig",
    "InvalidArgument",
    "LocalSGDConfig",
    "MaskedVector",
    "ModelSpec",
    "NumericError",
    "PairwiseSeeds",
    "RoundReport",
    "SecureSum",
    "ServerState",
    "TaskConfig",
    "aggregate_params",
    "client_update",
    "compare_algorithms",
    "compute_client_stats",
    "compute_scaling",
    "effective_counts",
    "emit_plots",
    "gen_synthetic_classification",
    "gen_toy_regression",
    "initial_state",
    "lambda_update_eg",
    "lambda_update_projected_sgd",
    "mask_set",
    "mixture_uniform",
    "project_simplex",
    "read_metrics_csv",
    "run_experiment",
    "run_experiment_full",
    "run_round",
]
