import warnings
from collections import Counter

import numpy as np
import pytest

from lrsim.genmodel import ConfigError, NoiseModel, PopulationModel, ScenarioKind, generate_cases
from lrsim.harness import (
    ALL_SYSTEMS,
    RANKING_CLAIMS,
    ExperimentConfig,
    PairedDiff,
    Verdict,
    cs_update_ss_prior_experiment,
    ill_conditioning_experiment,
    run_experiment,
    system_posteriors,
    total_expectation_check,
    verify_ranking,
)
from lrsim.lrsystems import SystemId
from lrsim.scoring import ScoringRule
from tests.conftest import make_world


def _quiet_run(cfg, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return run_experiment(cfg, **kw)


def _small_cfg(world, n=2_000, seed=0, **kw):
    return ExperimentConfig(world=world, n_cases=n, master_seed=seed, **kw)


# ---------------------------------------------------------------------------
# configuration guard rails

def test_too_few_cases_is_an_error():
    with pytest.raises(ConfigError):
        ExperimentConfig(world=make_world(), n_cases=500).validate()


def test_moderate_case_count_warns():
    with pytest.warns(UserWarning, match="noisy"):
        ExperimentConfig(world=make_world(), n_cases=2_000).validate()


def test_duplicate_systems_rejected():
    cfg = ExperimentConfig(world=make_world(), n_cases=20_000,
                           systems=(SystemId.CSFLR, SystemId.CSFLR))
    with pytest.raises(ConfigError):
        cfg.validate()


# ---------------------------------------------------------------------------
# posterior construction

def test_prior_only_and_unit_lr_systems_state_the_prior():
    world = make_world(prior_h1=0.3)
    batch = generate_cases(world, 0, 2_000)
    _, posteriors, _ = system_posteriors(
        batch, (SystemId.PriorOnly, SystemId.SSXASLR))
    assert np.all(posteriors[SystemId.PriorOnly] == 0.3)
    assert np.all(posteriors[SystemId.SSXASLR] == 0.3)


def test_anchored_cs_posteriors_match_joint():
    # with the anchor term included, every common-source construction
    # states the same posterior as the joint feature system
    world = make_world()
    batch = generate_cases(world, 1, 2_000)
    _, posteriors, _ = system_posteriors(
        batch, (SystemId.CSFLR, SystemId.CSYASLR, SystemId.CSXASLR))
    np.testing.assert_allclose(posteriors[SystemId.CSYASLR],
                               posteriors[SystemId.CSFLR], rtol=1e-9)
    np.testing.assert_allclose(posteriors[SystemId.CSXASLR],
                               posteriors[SystemId.CSFLR], rtol=1e-9)


def test_posteriors_are_probabilities():
    world = make_world()
    batch = generate_cases(world, 2, 1_000)
    _, posteriors, clamps = system_posteriors(batch, ALL_SYSTEMS)
    for system, p in posteriors.items():
        assert np.all((p > 0.0) & (p < 1.0)), system
        assert clamps[system] >= 0


# ---------------------------------------------------------------------------
# ranking runs

def test_run_is_deterministic_and_order_invariant():
    world = make_world()
    a = _quiet_run(_small_cfg(world))
    b = _quiet_run(_small_cfg(world))
    shuffled = tuple(reversed(ALL_SYSTEMS))
    c = _quiet_run(_small_cfg(world, systems=shuffled))
    for system in ALL_SYSTEMS:
        assert a.per_system[system].mean == b.per_system[system].mean
        assert a.per_system[system].mean == c.per_system[system].mean
    for cid in a.paired_diffs:
        assert a.paired_diffs[cid] == c.paired_diffs[cid]


def test_default_world_has_no_violations():
    rep = _quiet_run(_small_cfg(make_world(), n=10_000))
    assert rep.n_violated == 0
    verdicts = {v.claim: v.verdict for v in rep.ranking_verdicts}
    # analytically identical pairs must come out as exact ties
    assert verdicts["SSFLR>=SSYASLR"] is Verdict.Tie
    assert verdicts["CSFLR>=CSYASLR"] is Verdict.Tie
    assert verdicts["CSFLR>=CSXASLR"] is Verdict.Tie
    assert verdicts["SSSLR>=PriorOnly"] is Verdict.Confirmed
    assert verdicts["SSFLR>=CSFLR"] is Verdict.Confirmed


def test_brier_rule_agrees_on_verdicts():
    rep = _quiet_run(_small_cfg(make_world(), n=10_000,
                                rule=ScoringRule.Brier))
    assert rep.n_violated == 0


def test_case_table_columns():
    rep = _quiet_run(_small_cfg(make_world(), n=2_000,
                                systems=(SystemId.CSFLR, SystemId.PriorOnly)))
    cols = list(rep.case_table)
    assert cols[:5] == ["case_id", "truth", "r_theta", "x", "y"]
    assert "CSFLR_lr" in cols and "CSFLR_posterior" in cols
    assert set(rep.case_table["truth"]) <= {"H1", "H2"}
    assert len(rep.case_table["case_id"]) == 2_000


def test_verify_ranking_skips_claims_of_absent_systems():
    rep = _quiet_run(_small_cfg(make_world(),
                                systems=(SystemId.CSFLR, SystemId.CSYASLR)))
    partial = verify_ranking(rep.paired_diffs)
    assert [v.claim for v in partial] == ["CSFLR>=CSYASLR"]
    assert [v.claim for v in rep.ranking_verdicts] == ["CSFLR>=CSYASLR"]


def test_verdict_noise_floor_forces_tie():
    # femto-scale mean difference with an even smaller SE is numerical
    # residue, not evidence
    diffs = {cid: PairedDiff(mean_diff=-3e-18, se_diff=1e-19, n=1000)
             for cid, _, _ in RANKING_CLAIMS}
    verdicts = verify_ranking(diffs)
    assert all(v.verdict is Verdict.Tie for v in verdicts)


def test_genuinely_better_system_is_confirmed():
    diffs = {cid: PairedDiff(mean_diff=0.05, se_diff=0.003, n=1000)
             for cid, _, _ in RANKING_CLAIMS}
    verdicts = verify_ranking(diffs)
    assert all(v.verdict is Verdict.Confirmed for v in verdicts)
    assert verdicts[0].margin_in_se == pytest.approx(0.05 / 0.003)


def test_sabotaged_beliefs_are_caught():
    world = make_world()
    believed = make_world(pop_t=PopulationModel(4.0, 1.0))
    rep = _quiet_run(_small_cfg(world, n=20_000), believed_world=believed)
    verdicts = {v.claim: v.verdict for v in rep.ranking_verdicts}
    assert verdicts["CSSLR>=PriorOnly"] is Verdict.Violated
    assert rep.n_violated > 0


def test_uninformative_world_ties_everything():
    weak = make_world(pop_c=PopulationModel(0.0, 0.5),
                      pop_d=PopulationModel(0.0, 0.5),
                      pop_t=PopulationModel(0.0, 0.5),
                      noise=NoiseModel(50.0),
                      scenario=ScenarioKind.DistinctionIrrelevant)
    rep = _quiet_run(_small_cfg(weak, n=5_000))
    counts = Counter(v.verdict for v in rep.ranking_verdicts)
    assert counts[Verdict.Tie] == len(RANKING_CLAIMS)


# ---------------------------------------------------------------------------
# focused experiments

def test_illcond_requires_informative_anchor():
    flat = make_world(pop_t=PopulationModel(0.0, 1.0),
                      scenario=ScenarioKind.DistinctionIrrelevant)
    with pytest.raises(ConfigError):
        ill_conditioning_experiment(flat, n_cases=2_000)


def test_illcond_identity_and_gap(illcond_world):
    rep = ill_conditioning_experiment(illcond_world, n_cases=5_000,
                                      master_seed=0)
    assert rep.identity_ok
    assert rep.identity_max_rel_err < 1e-9
    assert rep.proper_beats_naive
    assert rep.mean_proper > rep.mean_naive


def test_cs_prior_update_matched_populations():
    rep = cs_update_ss_prior_experiment(make_world(), n_cases=5_000,
                                        master_seed=0)
    assert rep.populations_match
    assert rep.ok is True
    assert rep.gap_csflr > 0
    assert rep.mean_updated_csslr > rep.mean_baseline


def test_cs_prior_update_descriptive_variant():
    world = make_world(scenario=ScenarioKind.TraceCrimeRelevant,
                       pop_t=PopulationModel(0.0, 1.0),
                       pop_d=PopulationModel(0.8, 1.0))
    rep = cs_update_ss_prior_experiment(world, n_cases=5_000, master_seed=0)
    assert not rep.populations_match
    assert rep.ok is None
    assert np.isfinite(rep.gap_csflr)


def test_total_expectation_within_noise():
    rep = total_expectation_check(make_world(), n_samples=20_000,
                                  master_seed=0)
    assert abs(rep.gap_in_se) < 3.0
    assert rep.gap_se > 0
    assert rep.n_samples == 20_000
