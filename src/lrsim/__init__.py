"""Simulation and evaluation toolkit for source-level LR systems.

A synthetic evidence world (hierarchical Gaussian: sources drawn from
populations, measurements drawn around sources) is shared by eight ways of
computing a likelihood ratio for "trace and reference share a source".
Closed forms live in lrsystems, a sampling oracle that replays each
system's generative recipe lives in oracle, and harness/costmodel/cli
score the systems against each other with strictly proper scoring rules
and account for what each would cost to field.
"""

from .genmodel import (
    CaseBatch,
    ConfigError,
    Hypothesis,
    NoiseModel,
    PopulationModel,
    ScenarioKind,
    ScoreKind,
    WorldConfig,
    case_chunks,
    generate_cases,
    load_world,
    world_from_json_dict,
    world_to_json_dict,
)
from .lrsystems import (
    AnchorKind,
    CaseView,
    ProfileMode,
    SystemId,
    clamp_log10_lr,
    discrete_profile_lr,
    log_lr_batch,
    posterior_from_log10_lr,
)
from .oracle import (
    InsufficientPathsError,
    OracleComparison,
    OracleEstimate,
    PathBank,
    compare_closed_vs_oracle,
    default_evidence_grid,
    path_oracle,
)
from .scoring import (
    CalibrationReport,
    MeanScore,
    ScoringRule,
    calibration_report,
    honesty_check,
    scores_batch,
)
from .harness import (
    ALL_SYSTEMS,
    RANKING_CLAIMS,
    EvalReport,
    ExperimentConfig,
    Verdict,
    cs_update_ss_prior_experiment,
    ill_conditioning_experiment,
    run_experiment,
    total_expectation_check,
    verify_ranking,
)
from .costmodel import (
    DemandProfile,
    demand_table,
    feasibility_rank,
    tail_bound_check,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_SYSTEMS",
    "AnchorKind",
    "CalibrationReport",
    "CaseBatch",
    "CaseView",
    "ConfigError",
    "DemandProfile",
    "EvalReport",
    "ExperimentConfig",
    "Hypothesis",
    "InsufficientPathsError",
    "MeanScore",
    "NoiseModel",
    "OracleComparison",
    "OracleEstimate",
    "PathBank",
    "PopulationModel",
    "ProfileMode",
    "RANKING_CLAIMS",
    "ScenarioKind",
    "ScoreKind",
    "ScoringRule",
    "SystemId",
    "Verdict",
    "WorldConfig",
    "calibration_report",
    "case_chunks",
    "clamp_log10_lr",
    "compare_closed_vs_oracle",
    "cs_update_ss_prior_experiment",
    "default_evidence_grid",
    "demand_table",
    "discrete_profile_lr",
    "feasibility_rank",
    "generate_cases",
    "honesty_check",
    "ill_conditioning_experiment",
    "load_world",
    "log_lr_batch",
    "path_oracle",
    "posterior_from_log10_lr",
    "run_experiment",
    "scores_batch",
    "tail_bound_check",
    "total_expectation_check",
    "verify_ranking",
    "world_from_json_dict",
    "world_to_json_dict",
    "__version__",
]
