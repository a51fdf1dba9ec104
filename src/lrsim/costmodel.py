"""Experimental-demand accounting and LR tail-bound diagnostics.

The demand side is a symbolic calculator, not a simulation: it encodes the
documented measurement counts each class of LR system typically needs to
justify a target LR range, together with the scaling rule that a range of
[lr_min, lr_max] needs about ceil(1/lr_min) scores under H1 and
ceil(lr_max) scores under H2. Those bounds follow from tail inequalities
that hold for any genuine likelihood ratio:

    P(LR > k | H2) <= 1/k    and    P(LR < 1/k | H1) <= 1/k

tail_bound_check verifies both inequalities by simulation for any system,
which doubles as a miscalibration detector: feed it densities from the
wrong world and the bound breaks.

The numbers in the default table are order-of-magnitude conventions from
practice (20 background objects, 50 anchor categories, 3 repeats); they
are stored verbatim as constants rather than re-derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .genmodel import ConfigError, Hypothesis, WorldConfig, generate_cases
from .harness import _own_log10
from .lrsystems import SystemId

__all__ = [
    "ANCHOR_CATEGORIES",
    "BACKGROUND_OBJECTS",
    "CSFLR_REPEATS",
    "DemandProfile",
    "TailBoundRow",
    "TradeoffRow",
    "demand_table",
    "feasibility_rank",
    "tail_bound_check",
]

# Conventional sizes carried through the table.
BACKGROUND_OBJECTS = 20   # objects measured from a background population
ANCHOR_CATEGORIES = 50    # resolution of conditioning on the anchor value
CSFLR_REPEATS = 3         # repeated measurements per case for joint modeling
SHORTCUT_OBJECTS = 20     # same-source objects in the cross-comparison trick
SHORTCUT_BACKGROUND = 70  # background traces each is compared against

Count = int | str


@dataclass(frozen=True)
class DemandProfile:
    """What one class of LR system costs to run, for a target LR range.

    Counts are integers where the accounting is concrete and short strings
    where it is inherently symbolic. h1_scores / h2_scores are the score
    counts the construction yields (None for feature-based systems, which
    model densities rather than score distributions). The shortcut fields
    are only populated for the default target range, where the documented
    cross-comparison numbers apply. The fields, in order, are the columns
    of demand.csv.
    """

    system: SystemId
    per_case_source_measurements: Count
    per_case_trace_measurements: Count
    reusable_background_measurements: Count
    reusable: bool
    info_loss_dims: frozenset[str]
    required_h1_scores: int
    required_h2_scores: int
    h1_scores: int | None
    h2_scores: int | None
    shortcut_h1_comparisons: int | None
    shortcut_h2_comparisons: int | None
    notes: str


# Per informative system, in trade-off order (demand rank, then name): the
# demand rank (1 = least experimental effort), the evidence dimensions it
# averages out and its trade-off note.
_SYSTEMS: dict[SystemId, tuple[int, frozenset[str], str]] = {
    SystemId.CSSLR: (1, frozenset({"R", "X", "Y"}),
                     "cheapest to field; averages over every dimension"),
    SystemId.CSFLR: (2, frozenset({"R"}),
                     "near-top performance at a one-time, reusable cost"),
    SystemId.CSXASLR: (3, frozenset({"R", "Y"}), ""),
    SystemId.CSYASLR: (3, frozenset({"R", "X"}), ""),
    SystemId.SSSLR: (4, frozenset({"X", "Y"}), ""),
    SystemId.SSYASLR: (5, frozenset({"X"}), ""),
    SystemId.SSFLR: (6, frozenset(), "best performance; infeasible when "
                     "measurements are noisy and features exceed one"),
}


def demand_table(target_lr_min: float = 1.0 / 100.0,
                 target_lr_max: float = 1000.0) -> list[DemandProfile]:
    """Demand profiles for the seven informative systems, least demanding first.

    SSXASLR is omitted: its LR is constant, so there is nothing to model
    and no experiment to size.
    """
    # the score counts are ceil(1/min) and ceil(max): both must be finite
    if not (0.0 < target_lr_min < 1.0 < target_lr_max < math.inf
            and 1.0 / target_lr_min < math.inf):
        raise ConfigError(
            f"need 0 < target_lr_min < 1 < target_lr_max, both giving "
            f"finite score counts, got [{target_lr_min}, {target_lr_max}]")
    n_h1 = math.ceil(1.0 / target_lr_min)
    n_h2 = math.ceil(target_lr_max)
    default_range = (n_h1, n_h2) == (100, 1000)

    def profile(system, source, trace, background, reusable, notes,
                h1_scores=None, h2_scores=None, shortcut=(None, None)):
        return DemandProfile(system, source, trace, background, reusable,
                             _SYSTEMS[system][1], n_h1, n_h2,
                             h1_scores, h2_scores, *shortcut, notes)

    return [
        profile(
            SystemId.CSSLR, 1, 1, 2 * n_h1 + BACKGROUND_OBJECTS, True,
            f"least demanding: {2 * n_h1} same-population objects pair "
            f"into {n_h1} i.i.d. H1 scores; crossing them with "
            f"{BACKGROUND_OBJECTS} background objects gives "
            f"{2 * n_h1 * BACKGROUND_OBJECTS} (dependent) H2 scores; "
            f"everything reusable across cases",
            h1_scores=n_h1, h2_scores=2 * n_h1 * BACKGROUND_OBJECTS),
        profile(
            SystemId.CSFLR, CSFLR_REPEATS, CSFLR_REPEATS, BACKGROUND_OBJECTS,
            True,
            f"favourable trade-off: roughly {CSFLR_REPEATS} repeats per "
            f"case plus a one-time collection of ~{BACKGROUND_OBJECTS} "
            f"background references; only the source identity is "
            f"averaged out"),
        profile(
            SystemId.CSYASLR, 1, 1, ANCHOR_CATEGORIES * n_h1, True,
            f"conditioning on {ANCHOR_CATEGORIES} reference-anchor "
            f"categories needs {ANCHOR_CATEGORIES * n_h1} sources (plus "
            f"as many trace measurements, and the same again from the "
            f"suspect-side population when it differs) to keep {n_h1} "
            f"relevant H1 pairs; {BACKGROUND_OBJECTS} background "
            f"sources give {BACKGROUND_OBJECTS * n_h1} anchored H2 "
            f"scores; reusable but bulky",
            h1_scores=n_h1, h2_scores=BACKGROUND_OBJECTS * n_h1),
        profile(
            SystemId.CSXASLR, 1, 1, ANCHOR_CATEGORIES * n_h1, True,
            "same accounting as the reference-anchored variant, with "
            "the H2 side selected from the trace background population "
            "by closeness to the trace anchor",
            h1_scores=n_h1, h2_scores=BACKGROUND_OBJECTS * n_h1),
        profile(
            SystemId.SSSLR, n_h1, n_h1, BACKGROUND_OBJECTS, False,
            f"per case, {n_h1} reference and {n_h1} trace objects from "
            f"the suspect source give {n_h1} i.i.d. H1 scores; "
            f"{BACKGROUND_OBJECTS} reusable background traces give "
            f"{BACKGROUND_OBJECTS * n_h1} (dependent) H2 scores; a "
            f"cross-comparison shortcut trades i.i.d.-ness for far "
            f"fewer objects",
            h1_scores=n_h1, h2_scores=n_h2,
            shortcut=((SHORTCUT_OBJECTS * (SHORTCUT_OBJECTS - 1) // 2,
                       SHORTCUT_OBJECTS * SHORTCUT_BACKGROUND)
                      if default_range else (None, None))),
        profile(
            SystemId.SSYASLR, n_h1, 1, n_h2, False,
            f"per case, {n_h1} objects from the suspect source scored "
            f"against the fixed reference give the H1 side; {n_h2} "
            f"background trace measurements (reusable) give the H2 "
            f"side",
            h1_scores=n_h1, h2_scores=n_h2),
        profile(
            SystemId.SSFLR, "1 (exact measurement) or impractically many", 1,
            0, False,
            "no information loss, but the suspect-source density must "
            "be pinned down per case from reference measurements "
            "alone; with measurement randomness and more than one "
            "feature this is infeasible in practice"),
    ]


@dataclass(frozen=True)
class TradeoffRow:
    """One system's performance against its effort; the fields, in order,
    are the columns of tradeoff.csv."""

    system: SystemId
    performance_rank: int   # 1 + number of dimensions averaged out
    demand_rank: int        # 1 = least experimental effort
    info_loss_dims: frozenset[str]
    infeasible: bool
    favourable: bool
    notes: str


def feasibility_rank() -> list[TradeoffRow]:
    """Ordinal performance-versus-effort table, least demanding first.

    Performance rank is 1 plus the number of evidence dimensions a system
    averages over, which reproduces the empirical score ordering. Ties in
    either rank are genuine ties.
    """
    return [TradeoffRow(system=system, performance_rank=1 + len(dims),
                        demand_rank=demand, info_loss_dims=dims,
                        infeasible=system is SystemId.SSFLR,
                        favourable=system is SystemId.CSFLR, notes=notes)
            for system, (demand, dims, notes) in _SYSTEMS.items()]


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
    system: SystemId,
    world: WorldConfig,
    n_cases: int = 100_000,
    k_values: tuple[float, ...] = (3.0, 10.0, 30.0, 100.0),
    seed: int = 0,
    believed_world: WorldConfig | None = None,
) -> list[TailBoundRow]:
    """Check P(LR > k | H2) and P(LR < 1/k | H1) against 1/k plus noise.

    Simulates n_cases under each hypothesis, evaluates the system's own
    LR, and accepts an exceedance up to 1/k + 3 binomial standard errors.
    Both batches are drawn from seed: each check is valid alone, and the two
    share their random numbers. Passing believed_world makes the evaluator
    use densities that differ from the generating world; genuine LRs satisfy
    the bound, mis-believed ones generally break it.
    """
    world.validate()
    for k in k_values:
        if k < 1.0:
            raise ConfigError(f"k values must be >= 1, got {k}")
    w = believed_world or world
    log10_h2 = _own_log10(system, generate_cases(
        world, seed, n_cases, force_truth=Hypothesis.H2), w)
    log10_h1 = _own_log10(system, generate_cases(
        world, seed, n_cases, force_truth=Hypothesis.H1), w)

    rows = []
    for k in k_values:
        p = 1.0 / k
        bound = p + 3.0 * math.sqrt(p * (1.0 - p) / n_cases)
        log10_k = math.log10(k)
        for side, beyond in (("H2", log10_h2 > log10_k), ("H1", log10_h1 < -log10_k)):
            exc = float(np.mean(beyond))
            rows.append(TailBoundRow(system=system, k=k, side=side,
                                     empirical_exceedance=exc, bound=bound,
                                     passed=exc <= bound))
    return rows

