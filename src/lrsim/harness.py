"""Monte Carlo experiments over the implemented LR systems.

Every experiment but tail_bound_check scores stated posteriors with a
proper scoring rule on the same shared case set, so systems are compared
pairwise on identical evidence and the paired standard error is small
where systems genuinely agree; tail_bound_check counts each system's LRs
beyond k and 1/k against the 1/k bound that any genuine LR obeys.
run_experiment, illcond and csprior summarise each chunk in _summarise;
total_expectation_check, which weighs scores by a posterior, keeps its own.

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

import functools
import json
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .genmodel import (
    CaseBatch,
    ConfigError,
    Hypothesis,
    ScenarioKind,
    ScoreKind,
    WorldConfig,
    case_chunks,
    check_count,
    fold_chunks,
    world_to_json_dict,
)
from .lrsystems import (
    LOG10_E,
    SYSTEMS,
    AnchorKind,
    SystemId,
    _log_ratio,
    anchor_log_lr_batch,
    clamp_log10_lr,
    log_lr_batch,
    posterior_from_log10_lr,
)
from .scoring import CalibrationReport, MeanScore, ScoringRule, calibration_report, scores_batch

__all__ = [
    "ALL_SYSTEMS",
    "CsPriorReport",
    "EvalReport",
    "IllCondReport",
    "K_VALUES",
    "PairedDiff",
    "RANKING_CLAIMS",
    "RankingVerdict",
    "TAIL_SYSTEMS",
    "TIE_ATOL",
    "TailBoundRow",
    "TotalExpectationReport",
    "Verdict",
    "case_table",
    "cs_update_ss_prior_experiment",
    "ill_conditioning_experiment",
    "run_experiment",
    "system_posterior",
    "tail_bound_check",
    "total_expectation_check",
    "verify_ranking",
]

TIE_ATOL = 1e-9

ALL_SYSTEMS: tuple[SystemId, ...] = tuple(SYSTEMS)
# the systems with an LR to bound, in ALL_SYSTEMS order: PriorOnly states none
TAIL_SYSTEMS = tuple(s for s in ALL_SYSTEMS if s is not SystemId.PriorOnly)

K_VALUES = (3.0, 10.0, 30.0, 100.0)  # tail_bound_check's LR thresholds

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

    @property
    def sign(self) -> int:
        """The one margin rule: +1 (-1) when the first side scores better
        (worse) by more than 2 SE and by more than TIE_ATOL, else 0."""
        band = max(2.0 * self.se_diff, TIE_ATOL)
        return int(self.mean_diff > band) - int(self.mean_diff < -band)


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
    """A ranking run's results, in ALL_SYSTEMS and RANKING_CLAIMS order. It
    keeps no cases: every result is a sum over the cases, accumulated one
    chunk at a time, and case_table draws the cases again from the run's
    arguments."""

    per_system: dict[SystemId, MeanScore]
    paired_diffs: dict[str, PairedDiff]
    calibration: dict[SystemId, CalibrationReport]
    ranking_verdicts: list[RankingVerdict]
    clamp_counts: dict[SystemId, int]

    @property
    def n_violated(self) -> int:
        return sum(1 for v in self.ranking_verdicts if v.verdict is Verdict.Violated)


# ---------------------------------------------------------------------------
# the pipeline: own LR, anchor term, clamp, posterior, paired margin

def _own_ln(system: SystemId, batch: CaseBatch, world: WorldConfig) -> np.ndarray:
    """A system's own natural-log LR on a batch; only SS systems see theta_r. A
    NaN cannot be scored, so it is bad input; +/-inf is legal, the clamp bounds it."""
    theta = batch.theta_r if SYSTEMS[system].specific_source else None
    own = log_lr_batch(system, batch.x, batch.y, world, theta_r=theta)
    n_nan = int(np.count_nonzero(np.isnan(own)))
    if n_nan:  # counted in this batch, which may be one chunk of the run
        raise ConfigError(
            f"{system.value} gave {n_nan} NaN log LRs in cases {batch.first} to "
            f"{batch.first + len(batch) - 1} on the world "
            f"{json.dumps(world_to_json_dict(world), sort_keys=True)}")
    return own


def _own_log10(system: SystemId, batch: CaseBatch, world: WorldConfig) -> np.ndarray:
    """A system's own log10 LR on a batch, with densities from world."""
    return _own_ln(system, batch, world) * LOG10_E


def system_posterior(
    system: SystemId,
    batch: CaseBatch,
    believed_world: WorldConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One system's own log10 LR, its stated posterior and the clamp count.

    The stated log10 LR is the own one plus, for the common-source anchored
    systems, the log10 LR the anchor observation carries; it is clamped to
    +/-12 and updates the generating world's prior odds. believed_world lets
    the evaluator hold densities that differ from the generating world (a
    miscalibrated evaluator); by default both coincide.
    """
    w = believed_world or batch.world
    own = _own_log10(system, batch, w)
    stated = own
    row = SYSTEMS[system]
    if not row.specific_source and row.anchor is not None:
        anchor = batch.x if row.anchor is AnchorKind.X else batch.y
        stated = own + anchor_log_lr_batch(anchor, row.anchor, w) * LOG10_E
    return (own, *_stated(stated, batch.world.prior_h1))


def _stated(log10_lr: np.ndarray, prior_h1: float) -> tuple[np.ndarray, int]:
    """The posterior stated from log10_lr clamped to +/-12, and the clamp
    count: every experiment's one step from a log10 LR to a posterior."""
    clamped, n_clamped = clamp_log10_lr(log10_lr)
    return posterior_from_log10_lr(clamped, prior_h1), n_clamped


def _scores(label: str, rule: ScoringRule, posterior: np.ndarray,
            is_h1: np.ndarray) -> np.ndarray:
    """Every experiment's one scoring step: a -inf score is refused, never averaged."""
    s = scores_batch(rule, posterior, is_h1)
    if np.isneginf(s).any():
        raise RuntimeError(
            f"{label} produced a -inf score, which the +/-12 log10 "
            f"LR clamp should prevent; check prior_h1")
    return s


def verify_ranking(paired_diffs: dict[str, PairedDiff]) -> list[RankingVerdict]:
    """Judge every claim of RANKING_CLAIMS, in order, from paired differences."""
    verdicts = []
    for claim, better, worse in RANKING_CLAIMS:
        d = paired_diffs[claim]
        verdict = {1: Verdict.Confirmed, -1: Verdict.Violated}.get(d.sign, Verdict.Tie)
        verdicts.append(RankingVerdict(claim=claim, better=better, worse=worse,
                                       mean_diff=d.mean_diff, se_diff=d.se_diff,
                                       margin_in_se=d.margin_in_se, verdict=verdict))
    return verdicts


@dataclass
class _Moments:
    """Count, mean and sum of squared deviations (m2) of a stream of arrays.

    Each array's moments (of) add to the running ones by the pairwise
    update of Chan, Golub & LeVeque, "Algorithms for computing the sample
    variance" (Am. Stat. 1983), so adding chunk moments in chunk order
    gives the same floats wherever each chunk's moments were computed. Over
    a single array, mean and se are those of np.mean and np.std(ddof=1) bit
    for bit.
    """

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @classmethod
    def of(cls, a: np.ndarray) -> _Moments:
        mean = float(a.mean())
        return cls(int(a.shape[0]), mean, float(np.sum((a - mean) ** 2)))

    def __add__(self, other: _Moments) -> _Moments:
        if not self.n:
            return _Moments(other.n, other.mean, other.m2)
        n = self.n + other.n
        delta = other.mean - self.mean
        return _Moments(n, self.mean + delta * other.n / n,
                        self.m2 + (other.m2 + delta * delta * self.n * other.n / n))

    @property
    def se(self) -> float:
        return math.sqrt(self.m2 / (self.n - 1)) / math.sqrt(self.n)

    def paired_diff(self) -> PairedDiff:
        if self.n < 2:  # one case has no standard error
            raise ConfigError(
                f"a paired difference needs at least 2 cases, got {self.n}")
        return PairedDiff(mean_diff=self.mean, se_diff=self.se, n=self.n)


def _source_prior(batch: CaseBatch, world: WorldConfig) -> np.ndarray:
    """The log10 LR of theta_r, popC against popD, that updates the prior to
    P(H1 | suspect source): zero when popC == popD."""
    if world.pop_c == world.pop_d:
        return np.zeros(len(batch))
    return _log_ratio(batch.theta_r, (world.pop_c.mu, world.pop_c.tau**2),
                      (world.pop_d.mu, world.pop_d.tau**2)) * LOG10_E


# the stated log10 LRs that are no system's own, by label: fn(batch, world)
_STATED = {
    "CSXASLR without its anchor term": lambda b, w: _own_log10(SystemId.CSXASLR, b, w),
    "the source-conditioned prior": _source_prior,
    "the CSFLR update": lambda b, w: _source_prior(b, w) + _own_log10(SystemId.CSFLR, b, w),
    "the CSSLR update": lambda b, w: _source_prior(b, w) + _own_log10(SystemId.CSSLR, b, w),
}


def _summarise(labels, pairs, rule: ScoringRule, believed_world, batch: CaseBatch):
    """One chunk's summary for fold_chunks: each label's score moments,
    clamp count and calibration bins, and for each (name, a, b) of pairs the
    moments of a's score minus b's; the scores are the arrays kept. A label
    is a SystemId, stated by system_posterior, or a key of _STATED, whose
    log10 LR uses believed_world's densities (by default the generating
    world's). Each label's posterior is dropped before the next is built."""
    scores, per_label = {}, {}
    for label in labels:
        if isinstance(label, SystemId):
            posterior, n_clamped = system_posterior(label, batch, believed_world)[1:]
        else:
            stated = _STATED[label](batch, believed_world or batch.world)
            posterior, n_clamped = _stated(stated, batch.world.prior_h1)
        s = scores[label] = _scores(getattr(label, "value", label), rule, posterior,
                                    batch.truth_h1)
        per_label[label] = (_Moments.of(s), n_clamped,
                            calibration_report(posterior, batch.truth_h1))
        del posterior  # before the next label's arrays are built
    paired = {name: _Moments.of(scores[a] - scores[b]) for name, a, b in pairs}
    return (per_label, paired), scores


def _ranking_count(n_cases: int) -> int:
    """n_cases as an int, refused below the 1000 cases of a ranking run."""
    n = check_count(n_cases, "n_cases")
    if n < 1_000:
        raise ConfigError(f"n_cases must be >= 1000 for ranking runs, got {n_cases}")
    return n


def run_experiment(
    world: WorldConfig,
    n_cases: int = 20_000,
    master_seed: int = 0,
    rule: ScoringRule = ScoringRule.Logarithmic,
    believed_world: WorldConfig | None = None,
) -> EvalReport:
    """Score ALL_SYSTEMS on one shared case set and judge RANKING_CLAIMS.
    It refuses fewer than 1000 cases, and below 10000 warns at the caller's line.

    The cases stream in chunks of 2**16, summarised by _summarise on up to
    two CPUs (see fold_chunks), the systems as its labels and the claims as
    its pairs; memory does not grow with n_cases. A run of one chunk gives
    exactly the whole-batch means and standard errors; over more chunks
    they agree to rounding, and the counts exactly.
    """
    if _ranking_count(n_cases) < 10_000:
        warnings.warn("ranking verdicts are noisy below 10000 cases; expect "
                      "spurious Ties", UserWarning, stacklevel=2)
    per_system, diffs = fold_chunks(
        functools.partial(_summarise, ALL_SYSTEMS, RANKING_CLAIMS, rule, believed_world),
        world, master_seed, n_cases)
    paired = {claim: d.paired_diff() for claim, d in diffs.items()}
    return EvalReport(
        per_system={s: MeanScore(mean=m.mean, se=m.se, n=m.n)
                    for s, (m, _, _) in per_system.items()},
        paired_diffs=paired,
        calibration={s: cal for s, (_, _, cal) in per_system.items()},
        ranking_verdicts=verify_ranking(paired),
        clamp_counts={s: n for s, (_, n, _) in per_system.items()},
    )


def case_table(world: WorldConfig, n_cases: int, master_seed: int) -> Iterator[dict]:
    """cases.csv as a stream of blocks, one per chunk: each case of
    run_experiment(world, n_cases, master_seed), drawn again, and the own LR
    (its log10 clipped to +/-300) and stated posterior of every system of
    ALL_SYSTEMS on it, as the run evaluated them. It checks its arguments as
    the run does, when called; nothing is drawn until the stream is read, and
    a stream walked again from one state yields the same blocks."""
    _ranking_count(n_cases)
    return (_case_block(batch) for batch in case_chunks(world, master_seed, n_cases))


def _case_block(batch: CaseBatch) -> dict:
    block = {
        "case_id": np.arange(batch.first, batch.first + len(batch), dtype=np.int64),
        "truth": np.where(batch.truth_h1, "H1", "H2"),
        "r_theta": batch.theta_r,
        "x": batch.x,
        "y": batch.y,
    }
    for system in ALL_SYSTEMS:
        own, posterior, _ = system_posterior(system, batch)
        block[f"{system.value}_lr"] = 10.0 ** np.clip(own, -300, 300)
        block[f"{system.value}_posterior"] = posterior
    return block


# ---------------------------------------------------------------------------
# focused experiments, streamed and scored as run_experiment is

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
    if (world.scenario is not ScenarioKind.ReferenceCrimeRelevant
            or world.pop_c == world.pop_t
            or world.score_kind is not ScoreKind.SignedDifference):
        raise ConfigError(
            "ill-conditioning experiment needs ReferenceCrimeRelevant with "
            "popC != popT (else the trace anchor carries no LR) and "
            "SignedDifference scores (else CSXASLR + anchor X is not CSFLR)")

    naive, proper = "CSXASLR without its anchor term", SystemId.CSXASLR

    def with_identity(batch: CaseBatch):
        naive_ln = _own_ln(SystemId.CSXASLR, batch, world)
        anchor_ln = anchor_log_lr_batch(batch.x, AnchorKind.X, world)
        joint_ln = _own_ln(SystemId.CSFLR, batch, world)
        rel_err = float(np.abs(np.expm1(naive_ln + anchor_ln - joint_ln)).max())
        del naive_ln, anchor_ln, joint_ln  # _summarise states (b) again
        summary, scores = _summarise((naive, proper), (("gap", proper, naive),),
                                     rule, None, batch)
        return (*summary, [rel_err]), scores

    per_label, diffs, rel_errs = fold_chunks(with_identity, world, master_seed, n_cases)
    max_rel_err = float(np.max(rel_errs))  # a NaN chunk makes it NaN
    diff = diffs["gap"].paired_diff()
    return IllCondReport(
        n_cases=n_cases, rule=rule, identity_max_rel_err=max_rel_err,
        identity_ok=max_rel_err < 1e-9,
        mean_naive=per_label[naive][0].mean, mean_proper=per_label[proper][0].mean,
        gap=diff.mean_diff, gap_se=diff.se_diff, margin_in_se=diff.margin_in_se,
        proper_beats_naive=diff.sign > 0)


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
    matched = world.pop_c == world.pop_d
    if not matched and (world.pop_c.tau <= 0 or world.pop_d.tau <= 0):
        raise ConfigError(
            "the descriptive variant needs tau > 0 in popC and popD to "
            "evaluate the source-conditioned prior")

    base, flr, slr = "the source-conditioned prior", "the CSFLR update", "the CSSLR update"
    pairs = ((flr, flr, base), (slr, slr, base))
    per_label, diffs = fold_chunks(functools.partial(_summarise, (base, flr, slr), pairs,
                                                     rule, None), world, master_seed, n_cases)
    d_flr, d_slr = diffs[flr].paired_diff(), diffs[slr].paired_diff()
    return CsPriorReport(
        n_cases=n_cases, rule=rule, populations_match=matched,
        mean_baseline=per_label[base][0].mean, mean_updated_csflr=per_label[flr][0].mean,
        mean_updated_csslr=per_label[slr][0].mean,
        gap_csflr=d_flr.mean_diff, gap_csflr_se=d_flr.se_diff,
        margin_csflr_in_se=d_flr.margin_in_se,
        gap_csslr=d_slr.mean_diff, gap_csslr_se=d_slr.se_diff,
        ok=d_flr.sign > 0 if matched else None)


@dataclass(frozen=True)
class TotalExpectationReport:
    lhs_mean: float
    rhs_mean: float
    gap: float
    gap_se: float
    gap_in_se: float
    n_cases: int


def total_expectation_check(
    world: WorldConfig,
    n_cases: int = 100_000,
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
    def summarise(batch: CaseBatch):
        p_joint, p_delta = (system_posterior(s, batch)[1]
                            for s in (SystemId.CSFLR, SystemId.CSSLR))
        lhs = _scores("CSSLR", rule, p_delta, batch.truth_h1)
        all_h1 = np.ones(len(batch), dtype=bool)
        rhs = (p_joint * _scores("CSSLR", rule, p_delta, all_h1)
               + (1.0 - p_joint) * _scores("CSSLR", rule, p_delta, ~all_h1))
        return (_Moments.of(lhs), _Moments.of(rhs), _Moments.of(lhs - rhs)), (lhs, rhs)

    lhs_m, rhs_m, gap = fold_chunks(summarise, world, master_seed, n_cases)
    diff = gap.paired_diff()
    return TotalExpectationReport(
        lhs_mean=lhs_m.mean, rhs_mean=rhs_m.mean,
        gap=diff.mean_diff, gap_se=diff.se_diff, gap_in_se=diff.margin_in_se,
        n_cases=n_cases)


# ---------------------------------------------------------------------------
# the LR tail bound: exceedances counted per system, not scored

@dataclass(frozen=True)
class TailBoundRow:
    """One tail check; the fields, in order, are the columns of tailbound.csv."""

    system: SystemId
    k: float
    side: str                   # "H2" (large LR) or "H1" (small LR)
    empirical_exceedance: float
    bound: float
    passed: bool


def tail_bound_check(
    world: WorldConfig,
    n_cases: int = 100_000,
    master_seed: int = 0,
    believed_world: WorldConfig | None = None,
) -> list[TailBoundRow]:
    """Check P(LR > k | H2) and P(LR < 1/k | H1) against 1/k plus noise, at
    each k of K_VALUES, for every system of TAIL_SYSTEMS.

    Draws n_cases cases per hypothesis, both from master_seed, in chunks of
    2**16 counted on up to two CPUs (see fold_chunks). Each chunk is drawn once
    for every system and counts each system's exceedances, one LR array at a
    time, into an int64 array that the chunks sum, so memory does not grow
    with n_cases. The counts over n_cases are the exceedances. An exceedance
    up to 1/k + 3 binomial standard errors passes. Passing believed_world
    makes the evaluator use densities that differ from the generating world;
    genuine LRs satisfy the bound, mis-believed ones generally break it. Rows
    run by system, k, then side (H2 first).
    """
    w = believed_world or world

    def beyond(log10_lr: np.ndarray, side: Hypothesis) -> list[int]:
        return [np.count_nonzero(log10_lr > math.log10(k) if side is Hypothesis.H2
                                 else log10_lr < -math.log10(k)) for k in K_VALUES]

    def summarise(side: Hypothesis, batch: CaseBatch):
        return np.array([beyond(_own_log10(s, batch, w), side) for s in TAIL_SYSTEMS],
                        dtype=np.int64), ()

    exceedances = ((fold_chunks(functools.partial(summarise, side), world, master_seed,
                                n_cases, force_truth=side) / n_cases).tolist()
                   for side in (Hypothesis.H2, Hypothesis.H1))
    rows = []
    for system, h2, h1 in zip(TAIL_SYSTEMS, *exceedances):
        for k, e2, e1 in zip(K_VALUES, h2, h1):
            p = 1.0 / k
            bound = p + 3.0 * math.sqrt(p * (1.0 - p) / n_cases)
            rows += [TailBoundRow(system, k, side, exc, bound, exc <= bound)
                     for side, exc in (("H2", e2), ("H1", e1))]
    return rows
