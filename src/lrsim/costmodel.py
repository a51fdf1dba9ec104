"""Experimental-demand accounting: what each class of LR system costs to run.

This is a symbolic calculator, not a simulation: it encodes the
documented measurement counts each class of LR system typically needs to
justify a target LR range, together with the scaling rule that a range of
[lr_min, lr_max] needs about ceil(1/lr_min) scores under H1 and
ceil(lr_max) scores under H2. Those bounds follow from tail inequalities
that hold for any genuine likelihood ratio:

    P(LR > k | H2) <= 1/k    and    P(LR < 1/k | H1) <= 1/k

harness.tail_bound_check verifies both inequalities by simulation.

The numbers in the default table are order-of-magnitude conventions from
practice (20 background objects, 50 anchor categories, 3 repeats); they
are stored verbatim as constants rather than re-derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .genmodel import ConfigError
from .lrsystems import NONTRIVIAL, SYSTEMS, SystemId

__all__ = [
    "ANCHOR_CATEGORIES",
    "BACKGROUND_OBJECTS",
    "CSFLR_REPEATS",
    "DemandProfile",
    "TradeoffRow",
    "demand_table",
    "feasibility_rank",
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
                             SYSTEMS[system].averaged_out, n_h1, n_h2,
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
    performance_rank: int   # information-order bound: 1 + dimensions averaged out
    demand_rank: int        # 1 = least experimental effort
    info_loss_dims: frozenset[str]
    infeasible: bool
    favourable: bool
    notes: str


def feasibility_rank() -> list[TradeoffRow]:
    """Ordinal performance-versus-effort table, least demanding first.

    Performance rank is 1 plus the number of evidence dimensions a system
    averages over, the information-order bound. It is not the measured
    score order (ROADMAP item 4): SSYASLR ties SSFLR on signed scores, and
    CSXASLR beats SSYASLR on absolute ones.
    """
    order = sorted(NONTRIVIAL, key=lambda s: (SYSTEMS[s].demand_rank, s.value))
    return [TradeoffRow(s, 1 + len(SYSTEMS[s].averaged_out), SYSTEMS[s].demand_rank,
                        SYSTEMS[s].averaged_out, s is SystemId.SSFLR,
                        s is SystemId.CSFLR, SYSTEMS[s].note) for s in order]
