import dataclasses
import math
import os
import warnings
from collections import Counter

import numpy as np
import pytest

from lrsim import forked, harness
from lrsim.genmodel import ConfigError, NoiseModel, PopulationModel, ScenarioKind, generate_cases
from lrsim.harness import (
    ALL_SYSTEMS,
    RANKING_CLAIMS,
    PairedDiff,
    Verdict,
    cs_update_ss_prior_experiment,
    ill_conditioning_experiment,
    run_experiment,
    system_posterior,
    total_expectation_check,
    verify_ranking,
)
from lrsim.lrsystems import SYSTEMS, SystemId
from lrsim.scoring import MeanScore, ScoringRule, calibration_report, scores_batch
from tests.conftest import make_world, packaged_world, record_draws, same_bits, traced_peak


def _run(world, n_cases=2_000, **kw):
    """run_experiment, at 2000 cases unless told, without its small-run warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return run_experiment(world, n_cases, **kw)


# ---------------------------------------------------------------------------
# guard rails

def test_too_few_cases_is_an_error():
    with pytest.raises(ConfigError, match="^n_cases must be >= 1000 for ranking "
                       "runs, got 500$"):
        run_experiment(make_world(), 500)


@pytest.mark.parametrize("n_cases", [2000.9, 20_000.0, True])
def test_a_ranking_case_count_must_be_an_integer(n_cases):
    # a float once scored int(n_cases) cases, silently, after the warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"^n_cases must be an integer, "
                           rf"got {n_cases!r}$"):
            run_experiment(make_world(), n_cases)


def test_moderate_case_count_warns():
    # the warning names the caller's line, not run_experiment's
    with pytest.warns(UserWarning, match="noisy") as record:
        run_experiment(make_world(), 2_000)
    assert [w.filename for w in record] == [__file__]


# ---------------------------------------------------------------------------
# posterior construction

def test_prior_only_and_unit_lr_systems_state_the_prior():
    world = make_world(prior_h1=0.3)
    batch = generate_cases(world, 0, 2_000)
    for system in (SystemId.PriorOnly, SystemId.SSXASLR):
        assert np.all(system_posterior(system, batch)[1] == 0.3)


def test_anchored_cs_posteriors_match_joint():
    # with the anchor term included, every common-source construction
    # states the same posterior as the joint feature system
    world = make_world()
    batch = generate_cases(world, 1, 2_000)
    joint = system_posterior(SystemId.CSFLR, batch)[1]
    for system in (SystemId.CSYASLR, SystemId.CSXASLR):
        np.testing.assert_allclose(system_posterior(system, batch)[1], joint,
                                   rtol=1e-9)


def test_posteriors_are_probabilities():
    world = make_world()
    batch = generate_cases(world, 2, 1_000)
    for system in ALL_SYSTEMS:
        _, p, n_clamped = system_posterior(system, batch)
        assert np.all((p > 0.0) & (p < 1.0)), system
        assert n_clamped >= 0


# ---------------------------------------------------------------------------
# ranking runs

def test_run_is_deterministic_and_order_invariant(monkeypatch):
    # every run scores ALL_SYSTEMS, one system at a time: scoring them in
    # the reverse order changes no number
    world = make_world()
    a = _run(world)
    b = _run(world)
    monkeypatch.setattr(harness, "ALL_SYSTEMS", tuple(reversed(ALL_SYSTEMS)))
    c = _run(world)
    assert list(c.per_system) == list(reversed(ALL_SYSTEMS))
    for system in ALL_SYSTEMS:
        assert a.per_system[system].mean == b.per_system[system].mean
        assert a.per_system[system].mean == c.per_system[system].mean
    for cid in a.paired_diffs:
        assert a.paired_diffs[cid] == c.paired_diffs[cid]


def test_default_world_has_no_violations():
    rep = _run(make_world(), 10_000)
    assert rep.n_violated == 0
    verdicts = {v.claim: v.verdict for v in rep.ranking_verdicts}
    # analytically identical pairs must come out as exact ties
    assert verdicts["SSFLR>=SSYASLR"] is Verdict.Tie
    assert verdicts["CSFLR>=CSYASLR"] is Verdict.Tie
    assert verdicts["CSFLR>=CSXASLR"] is Verdict.Tie
    assert verdicts["SSSLR>=PriorOnly"] is Verdict.Confirmed
    assert verdicts["SSFLR>=CSFLR"] is Verdict.Confirmed


def test_brier_rule_agrees_on_verdicts():
    rep = _run(make_world(), 10_000, rule=ScoringRule.Brier)
    assert rep.n_violated == 0


def test_case_table_columns():
    # the report keeps no cases: cases.csv draws them again, one chunk at a
    # time, and rebuilds every system's LRs and posteriors
    world, n = make_world(), 2**16 + 5
    blocks = list(harness.case_table(world, n, 3))
    assert [len(b["case_id"]) for b in blocks] == [2**16, 5]
    table = {k: np.concatenate([b[k] for b in blocks]) for k in blocks[0]}
    assert list(table) == ["case_id", "truth", "r_theta", "x", "y",
                           *(f"{s.value}_{c}" for s in ALL_SYSTEMS
                             for c in ("lr", "posterior"))]
    assert len(table) == 23
    assert np.array_equal(table["case_id"], np.arange(n))
    batch = generate_cases(world, 3, n)
    assert np.array_equal(table["truth"], np.where(batch.truth_h1, "H1", "H2"))
    for name, column in (("r_theta", batch.theta_r), ("x", batch.x), ("y", batch.y)):
        assert np.array_equal(table[name], column), name
    for system in ALL_SYSTEMS:
        own, posterior, _ = system_posterior(system, batch)
        assert np.array_equal(table[f"{system.value}_lr"],
                              10.0 ** np.clip(own, -300, 300))
        assert np.array_equal(table[f"{system.value}_posterior"], posterior)


@pytest.mark.parametrize("n_cases", [0, 999, 10.7])
def test_case_table_refuses_what_the_run_refuses(tmp_path, monkeypatch, n_cases):
    # the cases of a run that cannot be run are refused when asked for, as
    # the run refuses them, before any chunk is drawn
    draws = record_draws(monkeypatch, tmp_path / "draws")
    with pytest.raises(ConfigError, match=r"^n_cases must be (>= 1000 for ranking "
                       rf"runs|an integer), got {n_cases!r}$"):
        harness.case_table(make_world(), n_cases, 0)
    assert draws() == []
    blocks = harness.case_table(make_world(), 1000, 0)
    assert draws() == []
    assert [len(b["case_id"]) for b in blocks] == [1000]


def _whole_batch(world, n_cases, master_seed=0, rule=ScoringRule.Logarithmic,
                 believed_world=None):
    """run_experiment's results computed on the whole batch at once: per
    system the mean score, the clamp count and the calibration, and per
    claim the paired score difference."""
    batch = generate_cases(world, master_seed, n_cases)
    scores, per_system, clamps, calibration = {}, {}, {}, {}
    for system in ALL_SYSTEMS:
        _, posterior, clamps[system] = system_posterior(system, batch, believed_world)
        s = scores[system] = scores_batch(rule, posterior, batch.truth_h1)
        per_system[system] = MeanScore(mean=float(s.mean()),
                                       se=float(np.std(s, ddof=1) / np.sqrt(s.size)),
                                       n=s.size)
        calibration[system] = calibration_report(posterior, batch.truth_h1)
    paired = {}
    for claim, better, worse in RANKING_CLAIMS:
        d = scores[better] - scores[worse]
        paired[claim] = PairedDiff(mean_diff=float(d.mean()),
                                   se_diff=float(np.std(d, ddof=1) / np.sqrt(d.size)),
                                   n=d.size)
    return per_system, clamps, calibration, paired


@pytest.mark.parametrize("believed", [None, make_world(pop_t=PopulationModel(2.0, 1.0))],
                         ids=["true-world", "believed-world"])
def test_run_scores_what_system_posterior_states(believed):
    # run_experiment reaches a system's stated posterior only through
    # system_posterior: in one chunk its means, clamp counts, calibration
    # and paired differences are those of the posteriors system_posterior
    # gives on the whole batch, exactly
    run = dict(world=make_world(), n_cases=2_000, believed_world=believed)
    rep = _run(**run)
    assert tuple(rep.per_system) == ALL_SYSTEMS
    per_system, clamps, calibration, paired = _whole_batch(**run)
    assert rep.per_system == per_system
    assert rep.clamp_counts == clamps
    assert rep.paired_diffs == paired
    for system in ALL_SYSTEMS:
        cal = calibration[system]
        for f in dataclasses.fields(cal):
            assert np.array_equal(getattr(rep.calibration[system], f.name),
                                  getattr(cal, f.name), equal_nan=True), system


@pytest.mark.parametrize("rule,believed", [
    (ScoringRule.Logarithmic, None),
    (ScoringRule.Brier, None),
    (ScoringRule.Logarithmic, make_world(pop_t=PopulationModel(2.0, 1.0))),
], ids=["log", "brier", "log-believed"])
def test_chunks_merge_to_the_whole_batch(rule, believed):
    # three chunks of 2^16 and one of 17 cases: the pairwise update gives
    # the whole batch's moments up to rounding, and the counts exactly
    run = dict(world=make_world(), n_cases=3 * 2**16 + 17, master_seed=4, rule=rule,
               believed_world=believed)
    rep = _run(**run)
    per_system, clamps, calibration, paired = _whole_batch(**run)
    assert rep.clamp_counts == clamps
    for system, want in per_system.items():
        got = rep.per_system[system]
        assert got.n == want.n == run["n_cases"]
        assert got.mean == pytest.approx(want.mean, rel=1e-12, abs=0), system
        assert got.se == pytest.approx(want.se, rel=1e-12, abs=0), system
        got_cal, want_cal = rep.calibration[system], calibration[system]
        assert np.array_equal(got_cal.bin_counts, want_cal.bin_counts)
        assert np.array_equal(got_cal.h1_counts, want_cal.h1_counts)
        np.testing.assert_allclose(got_cal.sum_stated_p, want_cal.sum_stated_p,
                                   rtol=1e-12, atol=0)
    for claim, want in paired.items():
        got = rep.paired_diffs[claim]
        assert got.n == want.n == run["n_cases"]
        assert got.mean_diff == pytest.approx(want.mean_diff, rel=1e-12, abs=0), claim
        assert got.se_diff == pytest.approx(want.se_diff, rel=1e-12, abs=0), claim


@pytest.mark.parametrize("n_trace,n_ref", [(1, 1), (64, 64)])
def test_run_holds_one_system_in_flight(default_world, monkeypatch, n_trace, n_ref):
    # only one chunk of cases and its scores, which the paired claims read,
    # outlive a system, so the peak is a few float64 columns of one chunk
    # and does not grow with the number of chunks. One process runs every
    # chunk, so that tracing sees them all
    monkeypatch.setattr(forked, "cpus", lambda: 1)
    world = dataclasses.replace(default_world, n_trace=n_trace, n_ref=n_ref)
    peaks = []
    for n in (2 * 2**16, 10 * 2**16):
        peaks.append(traced_peak(lambda: run_experiment(world, n)))
    assert peaks[0] <= 24 * 8 * 2**16, f"peak {peaks[0] / (8 * 2**16):.1f} chunk columns"
    assert peaks[1] <= 1.1 * peaks[0], peaks


def _peaks_on_one_and_two_cpus(monkeypatch, run):
    """This process's traced peak of run(n) at two chunks on one CPU, and at
    ten chunks on two CPUs, where a case worker summarises every other
    chunk and this process folds them all."""
    peaks = []
    for k, chunks in ((1, 2), (2, 10)):
        monkeypatch.setattr(forked, "cpus", lambda: k)
        peaks.append(traced_peak(lambda: run(chunks * 2**16)))
    return peaks


@pytest.mark.parametrize("n_trace,n_ref", [(1, 1), (64, 64)])
def test_run_holds_one_system_in_flight_on_two_cpus(default_world, monkeypatch,
                                                    n_trace, n_ref):
    world = dataclasses.replace(default_world, n_trace=n_trace, n_ref=n_ref)
    peaks = _peaks_on_one_and_two_cpus(
        monkeypatch, lambda n: run_experiment(world, n))
    assert peaks[1] <= 1.1 * peaks[0], peaks


# every experiment that scores cases, each on a world it accepts
EXPERIMENTS = {
    "rank": lambda n: run_experiment(make_world(), n),
    "illcond": lambda n: ill_conditioning_experiment(
        packaged_world("illcond_world.json"), n_cases=n),
    "csprior": lambda n: cs_update_ss_prior_experiment(make_world(), n_cases=n),
    "total-expectation": lambda n: total_expectation_check(make_world(), n_cases=n),
}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_every_experiment_refuses_a_neg_inf_score(monkeypatch, experiment):
    # a -inf score cannot be averaged: each experiment scores through the
    # one step that refuses it, where three of them once returned a -inf mean
    def with_neg_inf(rule, posterior, is_h1):
        s = scores_batch(rule, posterior, is_h1)
        s[0] = -np.inf
        return s

    monkeypatch.setattr(harness, "scores_batch", with_neg_inf)
    with pytest.raises(RuntimeError, match=r"^\S.* produced a -inf "
                       r"score, which the \+/-12 log10 LR clamp should "
                       r"prevent; check prior_h1$"):
        EXPERIMENTS[experiment](2_000)


@pytest.mark.parametrize("experiment,labels", [("rank", 9), ("illcond", 2), ("csprior", 3)])
def test_every_scored_label_is_binned_once_per_chunk(monkeypatch, experiment, labels):
    # rank, illcond and csprior take one per-label step: each label of each
    # chunk is binned for calibration once, where it is scored
    monkeypatch.setattr(forked, "cpus", lambda: 1)
    calls = []

    def recording(stated_p, is_h1):
        calls.append(len(stated_p))
        return calibration_report(stated_p, is_h1)

    monkeypatch.setattr(harness, "calibration_report", recording)
    EXPERIMENTS[experiment](2 * 2**16 + 5)
    assert calls == [2**16] * 2 * labels + [5] * labels


@pytest.mark.parametrize("experiment", ["illcond", "csprior"])
def test_focused_experiments_hold_one_chunk(monkeypatch, experiment):
    # illcond and csprior stream their cases as run_experiment does, so the
    # peak does not grow with the number of chunks (on one CPU, which runs
    # every chunk)
    monkeypatch.setattr(forked, "cpus", lambda: 1)
    peaks = [traced_peak(lambda: EXPERIMENTS[experiment](n))
             for n in (2 * 2**16, 10 * 2**16)]
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize("experiment", ["illcond", "csprior"])
def test_focused_experiments_hold_one_chunk_on_two_cpus(monkeypatch, experiment):
    peaks = _peaks_on_one_and_two_cpus(monkeypatch, EXPERIMENTS[experiment])
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_each_process_draws_only_the_chunks_it_summarises(tmp_path, monkeypatch,
                                                          experiment):
    # on two CPUs this process draws chunks 0 and 2 and the case worker
    # chunk 1: every chunk is drawn once, by the process that summarises it
    monkeypatch.setattr(forked, "cpus", lambda: 2)
    draws = record_draws(monkeypatch, tmp_path / "draws")
    EXPERIMENTS[experiment](2 * 2**16 + 1)
    drawn = {(pid == os.getpid(), chunk, n) for pid, _, _, chunk, n in draws()}
    assert len(draws()) == 3
    assert drawn == {(True, 0, 2**16), (False, 1, 2**16), (True, 2, 1)}


def _add(m, a):
    """The one-array update _Moments made before merge: the reference."""
    n_a, mean_a = int(a.shape[0]), float(a.mean())
    m2_a = float(np.sum((a - mean_a) ** 2))
    if not m.n:
        m.n, m.mean, m.m2 = n_a, mean_a, m2_a
        return
    n = m.n + n_a
    delta = mean_a - m.mean
    m.mean += delta * n_a / n
    m.m2 += m2_a + delta * delta * m.n * n_a / n
    m.n = n


@pytest.mark.parametrize("sizes", [[1], [7, 1], [2**16, 2**16, 17], [3, 1, 1, 250, 2]])
@pytest.mark.parametrize("seed", range(5))
def test_merging_chunk_moments_adds_the_chunks(sizes, seed):
    # a chunk's moments are computed wherever it is summarised and merged in
    # chunk order: the floats are those of adding the chunks one by one
    rng = np.random.default_rng(seed)
    chunks = [rng.normal(rng.normal(0.0, 100.0), 10 ** rng.uniform(-6, 6), n)
              for n in sizes]
    added, merged = harness._Moments(), harness._Moments()
    for chunk in chunks:
        _add(added, chunk)
        merged = merged + harness._Moments.of(chunk)
    assert merged.n == added.n == sum(sizes)
    assert same_bits(merged.mean, added.mean) and same_bits(merged.m2, added.m2)


def test_ranking_claims_are_the_information_order():
    # a system that averages out a strict subset of another's evidence
    # dimensions must score at least as well: the claims are the covering
    # pairs of that order, plus SSSLR>=PriorOnly, which it implies
    dims = {s: row.averaged_out for s, row in SYSTEMS.items()
            if row.averaged_out is not None}
    covering = {(a, b) for a in dims for b in dims if dims[a] < dims[b]
                and not any(dims[a] < dims[c] < dims[b] for c in dims)}
    claims = [(better, worse) for _, better, worse in RANKING_CLAIMS]
    assert len(covering) == 10 and len(set(claims)) == len(claims) == 11
    assert set(claims) == covering | {(SystemId.SSSLR, SystemId.PriorOnly)}
    for claim, better, worse in RANKING_CLAIMS:
        assert claim == f"{better.value}>={worse.value}"


def test_verdict_noise_floor_forces_tie():
    # femto-scale mean difference with an even smaller SE is numerical
    # residue, not evidence
    diffs = {cid: PairedDiff(mean_diff=-3e-18, se_diff=1e-19, n=1000)
             for cid, _, _ in RANKING_CLAIMS}
    verdicts = verify_ranking(diffs)
    assert all(v.verdict is Verdict.Tie for v in verdicts)


@pytest.mark.parametrize("mean_diff,margin,sign", [
    (1e-3, math.inf, 1), (-1e-3, -math.inf, -1), (1e-12, 0.0, 0), (-1e-12, 0.0, 0),
])
def test_a_paired_diff_with_no_spread_is_infinitely_many_se_or_a_tie(
        mean_diff, margin, sign):
    # with se_diff = 0 a difference beyond TIE_ATOL is +/-inf SEs, and one
    # inside it is no margin at all; the sign agrees with the margin
    d = PairedDiff(mean_diff=mean_diff, se_diff=0.0, n=1000)
    assert (d.margin_in_se, d.sign) == (margin, sign)


def test_genuinely_better_system_is_confirmed():
    diffs = {cid: PairedDiff(mean_diff=0.05, se_diff=0.003, n=1000)
             for cid, _, _ in RANKING_CLAIMS}
    verdicts = verify_ranking(diffs)
    assert all(v.verdict is Verdict.Confirmed for v in verdicts)
    assert verdicts[0].margin_in_se == pytest.approx(0.05 / 0.003)


def test_sabotaged_beliefs_are_caught():
    world = make_world()
    believed = make_world(pop_t=PopulationModel(4.0, 1.0))
    rep = _run(world, 20_000, believed_world=believed)
    verdicts = {v.claim: v.verdict for v in rep.ranking_verdicts}
    assert verdicts["CSSLR>=PriorOnly"] is Verdict.Violated
    assert rep.n_violated > 0


def test_uninformative_world_ties_everything():
    weak = make_world(pop_c=PopulationModel(0.0, 0.5),
                      pop_d=PopulationModel(0.0, 0.5),
                      pop_t=PopulationModel(0.0, 0.5),
                      noise=NoiseModel(50.0),
                      scenario=ScenarioKind.DistinctionIrrelevant)
    rep = _run(weak, 5_000)
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


def test_cs_prior_descriptive_variant_needs_a_spread_in_popd(tmp_path, monkeypatch):
    # popC != popD, so the baseline is a ratio of the two densities at the
    # suspect's source, and popD of tau = 0 has none; nothing is drawn
    world = make_world(scenario=ScenarioKind.TraceCrimeRelevant,
                       pop_t=PopulationModel(0.0, 1.0),
                       pop_d=PopulationModel(1.0, 0.0))
    draws = record_draws(monkeypatch, tmp_path / "draws")
    with pytest.raises(ConfigError, match="^the descriptive variant needs tau > 0 "
                       "in popC and popD to evaluate the source-conditioned prior$"):
        cs_update_ss_prior_experiment(world, n_cases=2_000)
    assert draws() == []


def test_total_expectation_within_noise():
    rep = total_expectation_check(make_world(), n_cases=20_000,
                                  master_seed=0)
    assert abs(rep.gap_in_se) < 3.0
    assert rep.gap_se > 0
    assert rep.n_cases == 20_000
