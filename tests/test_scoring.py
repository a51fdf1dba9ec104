import math
from decimal import ROUND_HALF_UP, Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrsim.genmodel import ConfigError
from lrsim.scoring import (
    IMPROPER_TABLE,
    N_BINS,
    CalibrationReport,
    ScoringRule,
    calibration_report,
    expected_score,
    honesty_check,
    scores_batch,
)
from tests.conftest import same_bits


# ---------------------------------------------------------------------------
# pointwise values

def score(rule, stated_p, h1):
    """One case, scored on length-1 arrays."""
    (got,) = scores_batch(rule, np.array([stated_p]), np.array([h1]))
    return got


def test_log_rule_values():
    assert score(ScoringRule.Logarithmic, 1.0, True) == 0.0
    assert score(ScoringRule.Logarithmic, 0.5, True) == -1.0
    assert score(ScoringRule.Logarithmic, 0.5, False) == -1.0
    assert score(ScoringRule.Logarithmic, 0.25, True) == -2.0
    assert score(ScoringRule.Logarithmic, 0.0, True) == -math.inf
    assert score(ScoringRule.Logarithmic, 0.0, False) == 0.0


def test_brier_rule_values():
    assert score(ScoringRule.Brier, 1.0, True) == 0.0
    assert score(ScoringRule.Brier, 0.0, True) == -2.0
    assert score(ScoringRule.Brier, 0.7, True) == pytest.approx(-2 * 0.3**2)
    assert score(ScoringRule.Brier, 0.7, False) == pytest.approx(-2 * 0.7**2)


def test_table_rule_is_symmetric_lookup():
    h1 = IMPROPER_TABLE["if_h1"]
    h2 = IMPROPER_TABLE["if_h2"]
    assert len(h1) == len(h2) == 11
    np.testing.assert_array_equal(h1, h2[::-1])
    assert score(ScoringRule.ImproperTable3, 0.0, True) == 0.0
    assert score(ScoringRule.ImproperTable3, 1.0, True) == 3.0
    assert score(ScoringRule.ImproperTable3, 0.1, True) == 1.0
    assert score(ScoringRule.ImproperTable3, 0.1, False) == 1.95


def test_table_rule_worked_expectations():
    # believed 10%: honest reporting earns less than claiming certainty of H2
    honest = expected_score(ScoringRule.ImproperTable3, 0.1, 0.1)
    assert honest == pytest.approx(1.855, abs=1e-12)
    # displayed to two decimals the exact expectation 1.855 rounds to 1.86;
    # that has to be checked in decimal arithmetic because the nearest
    # double sits just below 1.855
    exact = Decimal("0.1") * Decimal("1.00") + Decimal("0.9") * Decimal("1.95")
    assert exact == Decimal("1.855")
    assert exact.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP) == Decimal("1.86")
    dishonest = expected_score(ScoringRule.ImproperTable3, 0.0, 0.1)
    assert dishonest == pytest.approx(0.1 * 0.0 + 0.9 * 3.0)
    assert dishonest == pytest.approx(2.7)
    assert dishonest > honest


def test_scores_batch_matches_scalar():
    p = np.array([0.2, 0.5, 0.9])
    is_h1 = np.array([True, False, True])
    for rule in ScoringRule:
        got = scores_batch(rule, p, is_h1)
        want = [score(rule, pi, h) for pi, h in zip(p, is_h1)]
        np.testing.assert_allclose(got, want, rtol=1e-14)


def test_scores_batch_rejects_out_of_range():
    with pytest.raises(ConfigError):
        scores_batch(ScoringRule.Brier, np.array([1.2]), np.array([True]))
    with pytest.raises(ConfigError):
        scores_batch(ScoringRule.Brier, np.array([-0.1]), np.array([True]))


@pytest.mark.parametrize("rule", [ScoringRule.Logarithmic, ScoringRule.Brier])
def test_scores_batch_rejects_nan(rule):
    with pytest.raises(ConfigError):
        scores_batch(rule, np.array([0.5, np.nan]), np.array([True, False]))


def test_scores_batch_refuses_a_rule_s_value():
    # "Logarithmic" once matched a rule under `in` and fell through the
    # `is` test to Brier scores
    for rule in ScoringRule:
        with pytest.raises(ConfigError, match=f"^rule must be a ScoringRule, "
                           f"got '{rule.value}'$"):
            scores_batch(rule.value, np.array([0.5]), np.array([True]))


def test_scores_batch_takes_no_cases():
    for rule in ScoringRule:
        assert scores_batch(rule, np.array([]), np.array([], dtype=bool)).shape == (0,)


def _select_scores(rule, p, h1):
    """The scores as they were computed before the branch-free form, with the
    probability of what happened selected per case. Kept as its reference."""
    q = np.where(h1, p, 1.0 - p)
    if rule is ScoringRule.Logarithmic:
        with np.errstate(divide="ignore"):
            return np.log2(q)
    return -2.0 * (1.0 - q) ** 2


# the edges of [0, 1], each under both hypotheses
_EDGE_CASES = [(p, h) for p in (0.0, -0.0, 1.0) for h in (True, False)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cases=st.lists(st.tuples(st.floats(0.0, 1.0), st.booleans()), max_size=40),
       rule=st.sampled_from([ScoringRule.Logarithmic, ScoringRule.Brier]))
def test_scores_batch_matches_the_select_form_bit_for_bit(cases, rule):
    p, h1 = (np.array(c) for c in zip(*(cases + _EDGE_CASES)))
    before = p.copy()
    assert same_bits(scores_batch(rule, p, h1), _select_scores(rule, p, h1))
    assert same_bits(p, before)  # the caller's array is not written
    assert same_bits(scores_batch(rule, p[0], h1[0]),
                     _select_scores(rule, p[0], h1[0]))  # 0-d input


# ---------------------------------------------------------------------------
# honesty

@pytest.mark.parametrize("rule", [ScoringRule.Logarithmic, ScoringRule.Brier])
def test_proper_rules_pass_honesty(rule):
    rep = honesty_check(rule)
    assert rep.is_honest
    assert rep.counterexamples == []


def test_table_rule_fails_honesty():
    rep = honesty_check(ScoringRule.ImproperTable3)
    assert not rep.is_honest
    # exaggerating a weak belief toward certainty is profitable
    assert any(b == pytest.approx(0.1) and s == pytest.approx(0.0)
               for b, s in rep.counterexamples)


@pytest.mark.parametrize("believed_p", [1.5, math.nan])
def test_expected_score_refuses_a_belief_outside_0_1(believed_p):
    # NaN fails the range check as any value outside [0, 1] does
    with pytest.raises(ConfigError, match=r"^believed_p must lie in \[0, 1\], "
                       rf"got {believed_p!r}$"):
        expected_score(ScoringRule.Logarithmic, 0.5, believed_p)


def test_expected_score_masks_impossible_branch():
    # zero belief in H1 times the -inf log score must contribute nothing
    assert expected_score(ScoringRule.Logarithmic, 0.0, 0.0) == 0.0
    assert expected_score(ScoringRule.Logarithmic, 1.0, 1.0) == 0.0
    assert expected_score(
        ScoringRule.Logarithmic, 0.0, 0.5) == -math.inf


# ---------------------------------------------------------------------------
# calibration

def _bernoulli_outcomes(p, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=p.shape) < p


def test_calibrated_probabilities_pass():
    rng = np.random.default_rng(1)
    p = rng.uniform(0.0, 1.0, size=50_000)
    rep = calibration_report(p, _bernoulli_outcomes(p, 2))
    assert rep.passes()
    assert rep.max_abs_gap < 0.02


def test_shifted_probabilities_fail():
    rng = np.random.default_rng(3)
    p = rng.uniform(0.1, 0.9, size=50_000)
    stated = np.clip(p + 0.15, 0.0, 1.0)
    rep = calibration_report(stated, _bernoulli_outcomes(p, 4))
    assert not rep.passes()


def test_small_bins_do_not_count():
    p = np.full(200, 0.731)
    outcomes = _bernoulli_outcomes(p, 5)
    rep = calibration_report(p, outcomes)
    assert rep.qualifying.sum() == 1     # everything lands in one bin
    assert rep.bin_counts.sum() == 200


def test_calibration_shapes():
    p = np.linspace(0.01, 0.99, 1000)
    rep = calibration_report(p, _bernoulli_outcomes(p, 6))
    assert len(rep.bin_edges) == 11
    assert len(rep.bin_counts) == 10
    assert rep.bin_counts.sum() == 1000
    assert isinstance(rep, CalibrationReport)


def test_calibration_reports_of_disjoint_cases_add_up():
    # the bins keep sums, so reports of pieces add to the report of the whole
    rng = np.random.default_rng(7)
    p = rng.uniform(0.0, 1.0, size=3_001)
    outcomes = _bernoulli_outcomes(p, 8)
    whole = calibration_report(p, outcomes)
    parts = [calibration_report(p[lo:lo + 1_000], outcomes[lo:lo + 1_000])
             for lo in range(0, 3_001, 1_000)]
    assert len(parts) == 4
    added = parts[0] + parts[1] + parts[2] + parts[3]
    assert np.array_equal(added.bin_edges, whole.bin_edges)
    assert np.array_equal(added.bin_counts, whole.bin_counts)
    assert np.array_equal(added.empirical_freq, whole.empirical_freq)
    np.testing.assert_allclose(added.mean_stated_p, whole.mean_stated_p,
                               rtol=1e-12, atol=0)
    assert added.passes() == whole.passes()


def _indexed_calibration(p, h1):
    """bin_counts, sum_stated_p and h1_counts as they were computed before
    one bincount gave both counts: the H1 counts from the indices selected
    by h1. Kept as the reference."""
    idx = np.minimum((p * N_BINS).astype(np.int64), N_BINS - 1)
    return (np.bincount(idx, minlength=N_BINS),
            # bincount of no indices is int64, whatever the weights
            np.bincount(idx, weights=p, minlength=N_BINS).astype(np.float64),
            np.bincount(idx[h1], minlength=N_BINS))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cases=st.lists(st.tuples(st.floats(0.0, 1.0), st.booleans()), max_size=200))
def test_calibration_report_matches_the_indexed_form_bit_for_bit(cases):
    p, h1 = (np.array(c) for c in zip(*(cases + _EDGE_CASES)))
    rep = calibration_report(p, h1)
    want = _indexed_calibration(p, h1)
    assert same_bits(rep.bin_counts, want[0])
    assert same_bits(rep.sum_stated_p, want[1])
    assert same_bits(rep.h1_counts, want[2])


@pytest.mark.parametrize("bad", [math.nan, -0.1, 1.1, math.inf, -math.inf])
def test_calibration_report_refuses_probabilities_outside_0_1(bad):
    with pytest.raises(ConfigError, match=r"must lie in \[0, 1\]"):
        calibration_report(np.array([0.5, bad, 0.25]), np.array([True, False, True]))


def test_calibration_report_takes_no_cases():
    p, h1 = np.array([]), np.array([], dtype=bool)
    rep = calibration_report(p, h1)
    got = (rep.bin_counts, rep.sum_stated_p, rep.h1_counts)
    assert all(same_bits(a, b) for a, b in zip(got, _indexed_calibration(p, h1)))
    assert rep.bin_counts.sum() == 0
    assert rep.sum_stated_p.dtype == np.float64
    assert rep.passes() and math.isnan(rep.max_abs_gap)
