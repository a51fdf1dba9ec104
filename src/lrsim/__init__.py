"""Simulation and evaluation toolkit for source-level LR systems.

A synthetic evidence world (hierarchical Gaussian: sources drawn from
populations, measurements drawn around sources) is shared by eight ways of
computing a likelihood ratio for "trace and reference share a source".
Closed forms live in lrsystems, a sampling oracle that replays each
system's generative recipe lives in oracle, and harness/costmodel/cli
score the systems against each other with strictly proper scoring rules
and account for what each would cost to field.

`import lrsim` imports no submodule. A name of `__all__` is imported from
the submodule that _EXPORTS names for it when it is first read, as an
attribute or by `from lrsim import ...` (PEP 562), and then cached here; so
a program pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# each submodule and the names this package exports from it
_EXPORTS = {
    "genmodel": ("CaseBatch", "ConfigError", "Hypothesis", "NoiseModel",
                 "PopulationModel", "ScenarioKind", "ScoreKind", "WorldConfig",
                 "case_chunks", "generate_cases", "load_world",
                 "world_from_json_dict", "world_to_json_dict"),
    "lrsystems": ("AnchorKind", "CaseView", "ProfileMode", "SystemId",
                  "clamp_log10_lr", "discrete_profile_lr", "log_lr_batch",
                  "posterior_from_log10_lr"),
    "oracle": ("InsufficientPathsError", "OracleComparison", "OracleEstimate",
               "PathBank", "compare_grid", "compare_views", "default_evidence_grid",
               "estimate_views"),
    "scoring": ("CalibrationReport", "MeanScore", "ScoringRule",
                "calibration_report", "honesty_check", "scores_batch"),
    "harness": ("ALL_SYSTEMS", "RANKING_CLAIMS", "EvalReport", "Verdict",
                "cs_update_ss_prior_experiment", "ill_conditioning_experiment",
                "run_experiment", "tail_bound_check", "total_expectation_check",
                "verify_ranking"),
    "costmodel": ("DemandProfile", "demand_table", "feasibility_rank"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_OWNER), "__version__"]


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
