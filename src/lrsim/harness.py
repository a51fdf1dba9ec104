"""Paired Monte Carlo experiments over the implemented LR systems.

Every experiment scores stated posteriors with a proper scoring rule on the
same shared case set, so systems are compared pairwise on identical
evidence and the paired standard error is small where systems genuinely
agree.

Stated posteriors are built properly: a system's LR is multiplied by the
prior odds, and for common-source anchored systems also by the LR carried
by the anchor observation itself. On worlds where the anchoring is proper
that extra factor is identically one; on others dropping it is exactly the
ill-conditioning mistake that ill_conditioning_experiment demonstrates.
SSXASLR carries no evidential value by construction and is scored at the
prior.

Expected-performance claims form a partial order. Each claim is judged on
the paired mean score difference with a two-sided band of two standard
errors: Confirmed above the band, Violated below, Tie inside. Differences
below TIE_ATOL are ties regardless of the band, because analytically
identical systems reached through different formulas leave femto-scale
floating point residue with arbitrarily small paired SE.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .genmodel import (
    CaseBatch,
    ConfigError,
    ScenarioKind,
    WorldConfig,
    generate_cases,
    world_to_json_dict,
)
from .lrsystems import (
    LOG10_E,
    SPECIFIC_SOURCE,
    AnchorKind,
    SystemId,
    _log_ratio,
    anchor_log_lr_batch,
    clamp_log10_lr,
    log_lr_batch,
    posterior_from_log10_lr,
)
from .scoring import CalibrationReport, MeanScore, ScoringRule, calibration_report, mean_score, scores_batch

__all__ = [
    "ALL_SYSTEMS",
    "CsPriorReport",
    "EvalReport",
    "ExperimentConfig",
    "IllCondReport",
    "PairedDiff",
    "RANKING_CLAIMS",
    "RankingVerdict",
    "TIE_ATOL",
    "TotalExpectationReport",
    "Verdict",
    "cs_update_ss_prior_experiment",
    "ill_conditioning_experiment",
    "run_experiment",
    "system_posteriors",
    "total_expectation_check",
    "verify_ranking",
]

TIE_ATOL = 1e-9

ALL_SYSTEMS: tuple[SystemId, ...] = (
    SystemId.SSFLR, SystemId.SSYASLR, SystemId.SSSLR, SystemId.SSXASLR,
    SystemId.CSFLR, SystemId.CSYASLR, SystemId.CSXASLR, SystemId.CSSLR,
    SystemId.PriorOnly,
)

# (claim id, expected better, expected worse)
RANKING_CLAIMS: tuple[tuple[str, SystemId, SystemId], ...] = (
    ("SSFLR>=SSYASLR", SystemId.SSFLR, SystemId.SSYASLR),
    ("SSYASLR>=SSSLR", SystemId.SSYASLR, SystemId.SSSLR),
    ("SSSLR>=PriorOnly", SystemId.SSSLR, SystemId.PriorOnly),
    ("CSFLR>=CSYASLR", SystemId.CSFLR, SystemId.CSYASLR),
    ("CSFLR>=CSXASLR", SystemId.CSFLR, SystemId.CSXASLR),
    ("CSYASLR>=CSSLR", SystemId.CSYASLR, SystemId.CSSLR),
    ("CSXASLR>=CSSLR", SystemId.CSXASLR, SystemId.CSSLR),
    ("CSSLR>=PriorOnly", SystemId.CSSLR, SystemId.PriorOnly),
    ("SSFLR>=CSFLR", SystemId.SSFLR, SystemId.CSFLR),
    ("SSYASLR>=CSYASLR", SystemId.SSYASLR, SystemId.CSYASLR),
    ("SSSLR>=CSSLR", SystemId.SSSLR, SystemId.CSSLR),
)


class Verdict(str, Enum):
    Confirmed = "Confirmed"
    Tie = "Tie"
    Violated = "Violated"


@dataclass(frozen=True)
class ExperimentConfig:
    world: WorldConfig
    systems: tuple[SystemId, ...] = ALL_SYSTEMS
    rule: ScoringRule = ScoringRule.Logarithmic
    n_cases: int = 20_000
    master_seed: int = 0

    def validate(self) -> "ExperimentConfig":
        self.world.validate()
        if self.n_cases < 1_000:
            raise ConfigError(
                f"n_cases must be >= 1000 for ranking runs, got {self.n_cases}")
        if self.n_cases < 10_000:
            warnings.warn(
                "ranking verdicts are noisy below 10000 cases; expect "
                "spurious Ties", UserWarning, stacklevel=2)
        if len(set(self.systems)) != len(self.systems):
            raise ConfigError("systems must not repeat")
        return self


@dataclass(frozen=True)
class PairedDiff:
    mean_diff: float
    se_diff: float
    n: int

    @property
    def margin_in_se(self) -> float:
        """mean_diff in SEs; with no positive SE, 0 inside TIE_ATOL, else +/-inf."""
        if self.se_diff > 0:
            return self.mean_diff / self.se_diff
        return 0.0 if abs(self.mean_diff) <= TIE_ATOL else math.copysign(
            math.inf, self.mean_diff)


@dataclass(frozen=True)
class RankingVerdict:
    claim: str
    better: SystemId
    worse: SystemId
    mean_diff: float
    se_diff: float
    margin_in_se: float
    verdict: Verdict


@dataclass
class EvalReport:
    config: ExperimentConfig
    per_system: dict[SystemId, MeanScore]
    paired_diffs: dict[str, PairedDiff]
    calibration: dict[SystemId, CalibrationReport]
    ranking_verdicts: list[RankingVerdict]
    clamp_counts: dict[SystemId, int]
    case_table: dict[str, np.ndarray] = field(repr=False, default_factory=dict)

    @property
    def n_violated(self) -> int:
        return sum(1 for v in self.ranking_verdicts if v.verdict is Verdict.Violated)


# ---------------------------------------------------------------------------
# the pipeline: own LR, anchor term, clamp, posterior, paired margin

def _own_ln(system: SystemId, batch: CaseBatch, world: WorldConfig) -> np.ndarray:
    """A system's own natural-log LR on a batch; only SS systems see theta_r. A
    NaN cannot be scored, so it is bad input; +/-inf is legal, the clamp bounds it."""
    theta = batch.theta_r if system in SPECIFIC_SOURCE else None
    own = log_lr_batch(system, batch.x, batch.y, world, theta_r=theta)
    n_nan = int(np.count_nonzero(np.isnan(own)))
    if n_nan:
        raise ConfigError(
            f"{system.value} gave {n_nan} NaN log LRs of {own.shape[0]} on "
            f"the world {json.dumps(world_to_json_dict(world), sort_keys=True)}")
    return own


def _own_log10(system: SystemId, batch: CaseBatch, world: WorldConfig) -> np.ndarray:
    return _own_ln(system, batch, world) * LOG10_E


def _stated_log10(system: SystemId, own: np.ndarray, batch: CaseBatch,
                  world: WorldConfig) -> np.ndarray:
    """own plus the log10 LR the anchor observation carries, which only the
    common-source anchored systems leave out of their own LR."""
    if system is SystemId.CSYASLR:
        return own + anchor_log_lr_batch(batch.y, AnchorKind.Y, world) * LOG10_E
    if system is SystemId.CSXASLR:
        return own + anchor_log_lr_batch(batch.x, AnchorKind.X, world) * LOG10_E
    return own


def _posterior(log10_lr: np.ndarray, prior_h1: float) -> tuple[np.ndarray, int]:
    """Stated posterior from a log10 LR clamped to +/-12, and the clamp count."""
    clamped, n_clamped = clamp_log10_lr(log10_lr)
    return posterior_from_log10_lr(clamped, prior_h1), n_clamped


def system_posteriors(
    batch: CaseBatch,
    systems: tuple[SystemId, ...],
    believed_world: WorldConfig | None = None,
) -> tuple[dict[SystemId, np.ndarray], dict[SystemId, np.ndarray], dict[SystemId, int]]:
    """Own log10 LR, stated posterior and clamp count per system.

    believed_world lets an evaluator hold densities that differ from the
    generating world (used for miscalibration demonstrations); by default
    both coincide.
    """
    w = believed_world or batch.world
    own_log10: dict[SystemId, np.ndarray] = {}
    posteriors: dict[SystemId, np.ndarray] = {}
    clamps: dict[SystemId, int] = {}
    for system in systems:
        own_log10[system] = _own_log10(system, batch, w)
        posteriors[system], clamps[system] = _posterior(
            _stated_log10(system, own_log10[system], batch, w),
            batch.world.prior_h1)
    return own_log10, posteriors, clamps


def _verdict(claim: str, better: SystemId, worse: SystemId,
             diff: PairedDiff) -> RankingVerdict:
    band = 2.0 * diff.se_diff
    if diff.mean_diff > band and diff.mean_diff > TIE_ATOL:
        verdict = Verdict.Confirmed
    elif diff.mean_diff < -band and diff.mean_diff < -TIE_ATOL:
        verdict = Verdict.Violated
    else:
        verdict = Verdict.Tie
    return RankingVerdict(claim=claim, better=better, worse=worse,
                          mean_diff=diff.mean_diff, se_diff=diff.se_diff,
                          margin_in_se=diff.margin_in_se, verdict=verdict)


def verify_ranking(paired_diffs: dict[str, PairedDiff]) -> list[RankingVerdict]:
    """Judge each claim whose two systems were both run, from paired differences."""
    return [_verdict(claim, better, worse, paired_diffs[claim])
            for claim, better, worse in RANKING_CLAIMS
            if claim in paired_diffs]


def _paired_diff(a: np.ndarray, b: np.ndarray) -> PairedDiff:
    d = a - b
    n = int(d.shape[0])
    if n < 2:  # one case has no standard error
        raise ConfigError(
            f"a paired difference needs at least 2 cases, got {n}")
    se = float(np.std(d, ddof=1) / math.sqrt(n))
    return PairedDiff(mean_diff=float(d.mean()), se_diff=se, n=n)


def run_experiment(
    cfg: ExperimentConfig,
    believed_world: WorldConfig | None = None,
) -> EvalReport:
    """Generate one shared case set, score every system, judge the claims."""
    cfg.validate()
    batch = generate_cases(cfg.world, cfg.master_seed, cfg.n_cases)
    own_log10, posteriors, clamps = system_posteriors(
        batch, cfg.systems, believed_world=believed_world)
    is_h1 = batch.truth_h1.astype(bool)

    scores: dict[SystemId, np.ndarray] = {}
    per_system: dict[SystemId, MeanScore] = {}
    calibration: dict[SystemId, CalibrationReport] = {}
    for system in cfg.systems:
        s = scores_batch(cfg.rule, posteriors[system], is_h1)
        if np.isneginf(s).any():
            raise RuntimeError(
                f"{system.value} produced a -inf score; the log10 LR clamp "
                f"(+/-12) should prevent this, check prior_h1 and the clamp "
                f"configuration")
        scores[system] = s
        per_system[system] = mean_score(s)
        calibration[system] = calibration_report(posteriors[system], is_h1)

    paired: dict[str, PairedDiff] = {}
    for claim, better, worse in RANKING_CLAIMS:
        if better in scores and worse in scores:
            paired[claim] = _paired_diff(scores[better], scores[worse])

    case_table = {
        "case_id": np.arange(cfg.n_cases, dtype=np.int64),
        "truth": np.where(is_h1, "H1", "H2"),
        "r_theta": batch.theta_r,
        "x": batch.x,
        "y": batch.y,
    }
    for system in cfg.systems:
        with np.errstate(over="ignore"):
            case_table[f"{system.value}_lr"] = 10.0 ** np.clip(
                own_log10[system], -300, 300)
        case_table[f"{system.value}_posterior"] = posteriors[system]

    return EvalReport(
        config=cfg,
        per_system=per_system,
        paired_diffs=paired,
        calibration=calibration,
        ranking_verdicts=verify_ranking(paired),
        clamp_counts=clamps,
        case_table=case_table,
    )


# ---------------------------------------------------------------------------
# focused experiments

@dataclass(frozen=True)
class IllCondReport:
    """Naive versus proper posterior construction for CSXASLR evidence."""

    n_cases: int
    rule: ScoringRule
    identity_max_rel_err: float
    identity_ok: bool
    mean_naive: float
    mean_proper: float
    gap: float
    gap_se: float
    margin_in_se: float
    proper_beats_naive: bool


def ill_conditioning_experiment(
    world: WorldConfig,
    n_cases: int = 20_000,
    master_seed: int = 0,
    rule: ScoringRule = ScoringRule.Logarithmic,
) -> IllCondReport:
    """Quantify the cost of dropping the anchor LR term for CSXASLR.

    Three posterior constructions are compared on shared cases: (a) the
    anchored LR alone times prior odds, (b) the anchored LR times the
    trace-anchor LR times prior odds, (c) the joint closed form times prior
    odds. (b) and (c) must agree to floating point, compared in natural log
    where the LRs are computed; the mean score of (b) minus (a) is the price
    of ill-conditioning.
    """
    world.validate()
    if world.scenario is not ScenarioKind.ReferenceCrimeRelevant or (
            world.pop_c == world.pop_t):
        raise ConfigError(
            "ill-conditioning experiment needs ReferenceCrimeRelevant with "
            "popC != popT, otherwise the trace anchor carries no LR")
    batch = generate_cases(world, master_seed, n_cases)
    is_h1 = batch.truth_h1.astype(bool)

    naive_ln = _own_ln(SystemId.CSXASLR, batch, world)
    anchor_ln = anchor_log_lr_batch(batch.x, AnchorKind.X, world)
    joint_ln = _own_ln(SystemId.CSFLR, batch, world)
    max_rel_err = float(np.abs(np.expm1(naive_ln + anchor_ln - joint_ln)).max())
    naive = naive_ln * LOG10_E
    proper = naive + anchor_ln * LOG10_E

    s_naive = scores_batch(rule, _posterior(naive, world.prior_h1)[0], is_h1)
    s_proper = scores_batch(rule, _posterior(proper, world.prior_h1)[0], is_h1)
    diff = _paired_diff(s_proper, s_naive)
    return IllCondReport(
        n_cases=n_cases, rule=rule, identity_max_rel_err=max_rel_err,
        identity_ok=max_rel_err < 1e-9,
        mean_naive=float(s_naive.mean()), mean_proper=float(s_proper.mean()),
        gap=diff.mean_diff, gap_se=diff.se_diff, margin_in_se=diff.margin_in_se,
        proper_beats_naive=diff.mean_diff > 2.0 * diff.se_diff)


@dataclass(frozen=True)
class CsPriorReport:
    """Common-source update of a source-conditioned prior."""

    n_cases: int
    rule: ScoringRule
    populations_match: bool
    mean_baseline: float
    mean_updated_csflr: float
    mean_updated_csslr: float
    gap_csflr: float
    gap_csflr_se: float
    margin_csflr_in_se: float
    gap_csslr: float
    gap_csslr_se: float
    # ok is None in the descriptive (popC != popD) variant
    ok: bool | None


def cs_update_ss_prior_experiment(
    world: WorldConfig,
    n_cases: int = 20_000,
    master_seed: int = 0,
    rule: ScoringRule = ScoringRule.Logarithmic,
) -> CsPriorReport:
    """Does updating the suspect-conditioned prior by a common-source LR help?

    The baseline states P(H1 | suspect source); when popC == popD that
    equals the plain prior and the common-source feature update must beat
    it. When the populations differ the premise behind that guarantee
    breaks, so the gaps are reported without a pass judgement.
    """
    world.validate()
    matched = world.pop_c == world.pop_d
    if not matched and (world.pop_c.tau <= 0 or world.pop_d.tau <= 0):
        raise ConfigError(
            "the descriptive variant needs tau > 0 in popC and popD to "
            "evaluate the source-conditioned prior")
    batch = generate_cases(world, master_seed, n_cases)
    is_h1 = batch.truth_h1.astype(bool)

    if matched:
        r_term = np.zeros(n_cases)
    else:  # the density of the suspect source itself
        r_term = _log_ratio(batch.theta_r, (world.pop_c.mu, world.pop_c.tau**2),
                            (world.pop_d.mu, world.pop_d.tau**2)) * LOG10_E

    def scored(total_log10: np.ndarray) -> np.ndarray:
        return scores_batch(rule, _posterior(total_log10, world.prior_h1)[0], is_h1)

    s_base = scored(r_term)
    s_flr = scored(r_term + _own_log10(SystemId.CSFLR, batch, world))
    s_slr = scored(r_term + _own_log10(SystemId.CSSLR, batch, world))
    d_flr = _paired_diff(s_flr, s_base)
    d_slr = _paired_diff(s_slr, s_base)
    return CsPriorReport(
        n_cases=n_cases, rule=rule, populations_match=matched,
        mean_baseline=float(s_base.mean()),
        mean_updated_csflr=float(s_flr.mean()),
        mean_updated_csslr=float(s_slr.mean()),
        gap_csflr=d_flr.mean_diff, gap_csflr_se=d_flr.se_diff,
        margin_csflr_in_se=d_flr.margin_in_se,
        gap_csslr=d_slr.mean_diff, gap_csslr_se=d_slr.se_diff,
        ok=(d_flr.mean_diff > 2.0 * d_flr.se_diff) if matched else None)


@dataclass(frozen=True)
class TotalExpectationReport:
    lhs_mean: float
    rhs_mean: float
    gap: float
    gap_se: float
    gap_in_se: float
    n_samples: int


def total_expectation_check(
    world: WorldConfig,
    n_samples: int = 100_000,
    master_seed: int = 0,
    rule: ScoringRule = ScoringRule.Logarithmic,
) -> TotalExpectationReport:
    """Two estimators of the same expected score must agree within noise.

    The left side scores the score-only posterior against realised truth.
    The right side replaces the truth indicator by the exact posterior
    given the full evidence pair, which is the conditional expectation of
    the left side given that evidence. Their paired gap over shared samples
    is a standard-normal z value (reported as gap_in_se).
    """
    world.validate()
    batch = generate_cases(world, master_seed, n_samples)
    is_h1 = batch.truth_h1.astype(bool)
    _, p, _ = system_posteriors(batch, (SystemId.CSFLR, SystemId.CSSLR))
    p_joint, p_delta = p[SystemId.CSFLR], p[SystemId.CSSLR]

    lhs = scores_batch(rule, p_delta, is_h1)
    all_h1 = np.ones(n_samples, dtype=bool)
    rhs = (p_joint * scores_batch(rule, p_delta, all_h1)
           + (1.0 - p_joint) * scores_batch(rule, p_delta, ~all_h1))
    diff = _paired_diff(lhs, rhs)
    return TotalExpectationReport(
        lhs_mean=float(lhs.mean()), rhs_mean=float(rhs.mean()),
        gap=diff.mean_diff, gap_se=diff.se_diff, gap_in_se=diff.margin_in_se,
        n_samples=n_samples)
