"""Scoring rules for stated probabilities, all in reward orientation.

Higher is better throughout. Logarithmic and Brier are strictly proper: the
expected reward under a belief p is uniquely maximised by stating p. The
table rule is a deliberately broken counterexample used in tests and
demonstrations; under it a forecaster who believes 0.1 earns more by
stating 0.0.

A logarithmic score of a categorical mistake (stated probability exactly
zero on the realised hypothesis) is negative infinity. No mean is taken of
one: every experiment in harness scores through one step that refuses a
-inf score with a RuntimeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .genmodel import ConfigError

__all__ = [
    "CalibrationReport",
    "HONESTY_GRID_STEP",
    "HonestyReport",
    "IMPROPER_TABLE",
    "MIN_BIN_COUNT",
    "MeanScore",
    "N_BINS",
    "ScoringRule",
    "calibration_report",
    "expected_score",
    "honesty_check",
    "scores_batch",
]


class ScoringRule(str, Enum):
    Logarithmic = "Logarithmic"
    Brier = "Brier"
    ImproperTable3 = "ImproperTable3"


# Reward table of the improper rule: stated probability of the event in
# steps of 0.1, one payout row for the event happening and one for it not.
IMPROPER_TABLE = {
    "stated": np.round(np.linspace(0.0, 1.0, 11), 1),
    "if_h1": np.array(
        [0.0, 1.00, 1.30, 1.48, 1.60, 1.70, 1.78, 1.85, 1.90, 1.95, 3.0]),
    "if_h2": np.array(
        [3.0, 1.95, 1.90, 1.85, 1.78, 1.70, 1.60, 1.48, 1.30, 1.00, 0.0]),
}


def _probabilities(stated_p) -> np.ndarray:
    """stated_p as float64, refused unless every value lies in [0, 1]. One
    min and one max: NaN propagates through both, so it is refused too."""
    p = np.asarray(stated_p, dtype=np.float64)
    if p.size and not (0.0 <= p.min() and p.max() <= 1.0):
        raise ConfigError("stated probabilities must lie in [0, 1]")
    return p


def scores_batch(rule: ScoringRule, stated_p: np.ndarray, is_h1: np.ndarray) -> np.ndarray:
    """Score arrays of stated P(H1) against realised hypotheses."""
    if not isinstance(rule, ScoringRule):  # a str would match a member's value
        raise ConfigError(f"rule must be a ScoringRule, got {rule!r}")
    p = _probabilities(stated_p)
    h1 = np.asarray(is_h1, dtype=bool)
    if rule in (ScoringRule.Logarithmic, ScoringRule.Brier):
        # q, the probability stated for what happened, is where(h1, p, 1 - p)
        # bit for bit but for the sign of a zero q, which neither rule sees:
        # with p in [0, 1] both products are finite, so the unselected one
        # adds an exact zero
        q = np.subtract(1.0, p, out=np.empty_like(p))  # an array even for 0-d p
        q *= ~h1
        q += p * h1
        if rule is ScoringRule.Logarithmic:
            with np.errstate(divide="ignore"):
                return np.log2(q, out=q)
        np.subtract(1.0, q, out=q)
        np.square(q, out=q)
        q *= -2.0
        return q
    # ImproperTable3: the payout of the nearest tenth
    idx = np.clip(np.rint(p * 10).astype(np.int64), 0, 10)
    return np.where(h1, IMPROPER_TABLE["if_h1"][idx],
                    IMPROPER_TABLE["if_h2"][idx])


def expected_score(rule: ScoringRule, stated_p: float | np.ndarray,
                   believed_p: float | np.ndarray) -> float | np.ndarray:
    """Expected reward of stating stated_p while believing believed_p.

    The two arguments broadcast against each other; for two scalars the
    result is a float. A zero-probability branch contributes nothing even
    when its score is -inf, so degenerate beliefs stay well defined.
    """
    b = np.asarray(believed_p, dtype=np.float64)
    if b.size and not (0.0 <= b.min() and b.max() <= 1.0):
        raise ConfigError(f"believed_p must lie in [0, 1], got {believed_p!r}")
    if_h1, if_h2 = (scores_batch(rule, stated_p, h1) for h1 in (True, False))
    with np.errstate(invalid="ignore"):  # 0 * -inf, masked out
        total = (np.where(b > 0.0, b * if_h1, 0.0)
                 + np.where(b < 1.0, (1.0 - b) * if_h2, 0.0))
    return float(total) if total.ndim == 0 else total


HONESTY_GRID_STEP = 0.01  # honesty_check's spacing of believed and stated p


@dataclass(frozen=True)
class HonestyReport:
    rule: ScoringRule
    is_honest: bool
    counterexamples: list[tuple[float, float]]  # (believed, better stated)


def honesty_check(rule: ScoringRule) -> HonestyReport:
    """Verify that honest reporting maximises expected reward on the grid of
    step HONESTY_GRID_STEP over [0, 1].

    For every believed p on the grid the argmax over stated q of the
    expected score must sit at q == p, strictly: any other q whose expected
    score comes within numerical noise of the honest one is flagged. One
    believed x stated matrix holds every expected score; counterexamples
    are listed by believed p, then by stated q.
    """
    grid = np.round(np.arange(0.0, 1.0 + HONESTY_GRID_STEP / 2, HONESTY_GRID_STEP), 12)
    expected = expected_score(rule, grid[None, :], grid[:, None])
    honest = np.diag(expected)[:, None]
    tol = 1e-12 * np.maximum(1.0, np.abs(honest))
    flagged = (expected > honest - tol) & ~np.eye(grid.size, dtype=bool)
    counterexamples = [(float(grid[i]), float(grid[j]))
                       for i, j in zip(*np.nonzero(flagged))]
    return HonestyReport(rule=rule, is_honest=not counterexamples,
                         counterexamples=counterexamples)


@dataclass(frozen=True)
class MeanScore:
    mean: float
    se: float
    n: int


# Calibration uses N_BINS equal-width bins over [0, 1]. A bin with fewer than
# MIN_BIN_COUNT records is kept in the arrays but counts towards neither
# max_abs_gap nor the pass decision: a tiny bin carries no usable frequency.
N_BINS = 10
MIN_BIN_COUNT = 50


@dataclass(frozen=True)
class CalibrationReport:
    """Binned reliability summary of stated probabilities.

    It keeps per-bin sums, so the reports of disjoint sets of cases add up
    (a + b) to the report of their union.
    """

    bin_edges: np.ndarray
    bin_counts: np.ndarray
    sum_stated_p: np.ndarray
    h1_counts: np.ndarray

    def __add__(self, other: CalibrationReport) -> CalibrationReport:
        return CalibrationReport(
            bin_edges=self.bin_edges,
            bin_counts=self.bin_counts + other.bin_counts,
            sum_stated_p=self.sum_stated_p + other.sum_stated_p,
            h1_counts=self.h1_counts + other.h1_counts,
        )

    def _per_case(self, total: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.where(self.bin_counts > 0, total / self.bin_counts, np.nan)

    @property
    def mean_stated_p(self) -> np.ndarray:
        return self._per_case(self.sum_stated_p)

    @property
    def empirical_freq(self) -> np.ndarray:
        return self._per_case(self.h1_counts)

    @property
    def gaps(self) -> np.ndarray:
        return np.abs(self.mean_stated_p - self.empirical_freq)

    @property
    def binomial_se(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            p = self.mean_stated_p
            return np.sqrt(p * (1.0 - p) / self.bin_counts)

    @property
    def qualifying(self) -> np.ndarray:
        return self.bin_counts >= MIN_BIN_COUNT

    @property
    def max_abs_gap(self) -> float:
        q = self.qualifying
        if not q.any():
            return math.nan
        return float(self.gaps[q].max())

    def passes(self) -> bool:
        """Every qualifying bin's gap must stay under 3 binomial SEs."""
        q = self.qualifying
        if not q.any():
            return True
        return bool(np.all(self.gaps[q] < 3.0 * self.binomial_se[q]))


def calibration_report(stated_p: np.ndarray, is_h1: np.ndarray) -> CalibrationReport:
    """N_BINS equal-width reliability bins over [0, 1]."""
    p = _probabilities(stated_p)
    h1 = np.asarray(is_h1, dtype=bool)
    idx = (p * N_BINS).astype(np.int64)
    np.minimum(idx, N_BINS - 1, out=idx)
    # float64 even with no cases, where bincount ignores the weights' dtype
    sum_stated_p = np.bincount(idx, weights=p, minlength=N_BINS).astype(
        np.float64, copy=False)
    idx += N_BINS * h1  # H2 cases count in bins 0..N_BINS-1, H1 cases above
    counts = np.bincount(idx, minlength=2 * N_BINS)
    return CalibrationReport(
        bin_edges=np.linspace(0.0, 1.0, N_BINS + 1),
        bin_counts=counts[:N_BINS] + counts[N_BINS:],
        sum_stated_p=sum_stated_p,
        h1_counts=counts[N_BINS:],
    )
