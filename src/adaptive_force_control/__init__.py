"""Learning-based adaptive force control.

Fits exponential contact models to probing data, solves optimal
proportional-gain policies by fitted value iteration, trains a small
network that maps (reference force, measured force, stiffness) to a gain,
and closes the loop in a simulated 100 Hz pressing task with a three-mode
hybrid controller.
"""

from .contact import (
    ContactModel,
    DataConfig,
    FitReport,
    fit_exponential,
    generate_zone_data,
    load_zone_csv,
    save_zone_csv,
)
from .controller import (
    AdaptationModule,
    ConstantGainModule,
    HybridConfig,
    HybridController,
    Mode,
    hybrid_step,
)
from .mlp import (
    FeatureScaler,
    MlpParams,
    TrainConfig,
    TrainResult,
    build_dataset,
    forward,
    init_params,
    load_model,
    loss_and_gradient,
    save_model,
    train,
)
from .policy import (
    CostParams,
    GridSpec,
    PolicyTable,
    default_references,
    load_policy,
    policy_basename,
    save_policy,
    solve_policy,
    solve_policy_tabular,
)
from .pipeline import PipelineConfig, run_pipeline
from .sim import (
    EpisodeMetrics,
    EvalConfig,
    SimConfig,
    SimulationFault,
    Trajectory,
    compute_metrics,
    evaluate_suite,
    run_episode,
)
from .stiffness import StiffnessDetector
from .zones import ALL_ZONES, HELDOUT_ZONES, TRAINING_ZONES, get_zone

__version__ = "0.1.0"

__all__ = [
    "AdaptationModule",
    "ALL_ZONES",
    "ConstantGainModule",
    "ContactModel",
    "CostParams",
    "DataConfig",
    "EpisodeMetrics",
    "EvalConfig",
    "FeatureScaler",
    "FitReport",
    "GridSpec",
    "HELDOUT_ZONES",
    "HybridConfig",
    "HybridController",
    "MlpParams",
    "Mode",
    "PipelineConfig",
    "PolicyTable",
    "SimConfig",
    "SimulationFault",
    "StiffnessDetector",
    "TRAINING_ZONES",
    "TrainConfig",
    "TrainResult",
    "Trajectory",
    "build_dataset",
    "compute_metrics",
    "default_references",
    "evaluate_suite",
    "fit_exponential",
    "forward",
    "generate_zone_data",
    "get_zone",
    "hybrid_step",
    "init_params",
    "load_model",
    "load_policy",
    "load_zone_csv",
    "loss_and_gradient",
    "policy_basename",
    "run_episode",
    "run_pipeline",
    "save_model",
    "save_policy",
    "save_zone_csv",
    "solve_policy",
    "solve_policy_tabular",
    "train",
]
