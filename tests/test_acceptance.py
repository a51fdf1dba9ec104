"""Package-level acceptance gate.

Each test checks one documented guarantee end to end at its stated
tolerance and prints a single PASS/FAIL line (visible under pytest -s, or
in the captured output on failure). Seeds and sizes are committed so every
run is reproducible; none of the tolerances here may be loosened without
revisiting the guarantee itself.
"""

import json
from decimal import ROUND_HALF_UP, Decimal

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import multivariate_normal, norm

from lrsim.cli import default_world, main
from lrsim.costmodel import demand_table, feasibility_rank
from lrsim.genmodel import Hypothesis, PopulationModel, generate_cases
from lrsim.harness import (
    RANKING_CLAIMS,
    TAIL_SYSTEMS,
    Verdict,
    ill_conditioning_experiment,
    run_experiment,
    tail_bound_check,
)
from lrsim.lrsystems import (
    LOG10_E,
    NONTRIVIAL,
    AnchorKind,
    ProfileMode,
    SystemId,
    anchor_log_lr_batch,
    discrete_profile_lr,
    log_lr_batch,
)
from lrsim.oracle import (
    PathBank,
    compare_views,
    default_evidence_grid,
    estimate_views,
)
from lrsim.scoring import IMPROPER_TABLE, ScoringRule, expected_score, honesty_check
from tests.conftest import make_world, packaged_world


def _line(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_ranking_claims_hold_across_seeds_and_rules():
    world = default_world()
    n_violated = 0
    worst = np.inf
    for seed in range(10):
        for rule in (ScoringRule.Logarithmic, ScoringRule.Brier):
            rep = run_experiment(world, 20_000, seed, rule)
            n_violated += rep.n_violated
            worst = min(worst, min(
                v.margin_in_se for v in rep.ranking_verdicts
                if abs(v.mean_diff) > 1e-9))
    _line("ranking", n_violated == 0,
          f"20 runs x 11 claims, {n_violated} Violated, worst non-tie "
          f"margin {worst:+.1f} SE")


# The claims that tie in each packaged world; every other claim is
# Confirmed, at every seed and rule. On signed scores, given the anchor,
# (anchor, x - y) is a one-to-one map of (x, y), so anchoring loses nothing.
EXACT_TIES = {
    "default_world.json": ("SSFLR>=SSYASLR", "CSFLR>=CSYASLR", "CSFLR>=CSXASLR"),
    "abs_world.json": (),
}


@pytest.mark.parametrize("name", sorted(EXACT_TIES))
def test_ranking_verdicts_are_exact_in_both_packaged_worlds(name):
    world = packaged_world(name)
    expected = {claim: Verdict.Tie if claim in EXACT_TIES[name]
                else Verdict.Confirmed for claim, _, _ in RANKING_CLAIMS}
    misses = []
    worst_margin = np.inf
    largest_tie = 0.0
    for seed in range(10):
        for rule in (ScoringRule.Logarithmic, ScoringRule.Brier):
            rep = run_experiment(world, 20_000, seed, rule)
            got = {v.claim: v.verdict for v in rep.ranking_verdicts}
            misses += [f"{c}@{seed}/{rule.value}" for c in expected
                       if got.get(c) is not expected[c]]
            for v in rep.ranking_verdicts:
                if expected[v.claim] is Verdict.Tie:
                    largest_tie = max(largest_tie, abs(v.mean_diff))
                else:
                    worst_margin = min(worst_margin, v.margin_in_se)
    _line(f"verdicts[{name}]", len(expected) == 11 and not misses,
          f"20 runs x 11 claims, {len(EXACT_TIES[name])} Tie and the rest "
          f"Confirmed; worst Confirmed margin {worst_margin:+.2f} SE, largest "
          f"Tie |diff| {largest_tie:.1e}; misses: {misses or 'none'}")


def test_trace_anchored_ss_system_is_unit():
    world = default_world()
    batch = generate_cases(world, 0, 10_000)
    loglr = log_lr_batch(SystemId.SSXASLR, batch.x, batch.y, world,
                         theta_r=batch.theta_r)
    exact = bool(np.all(loglr == 0.0))
    view = default_evidence_grid(SystemId.SSXASLR, world)[4]
    est = estimate_views(SystemId.SSXASLR, [view], PathBank(world, 0, 100_000))[0].lr
    _line("unit-lr", exact and 0.8 <= est <= 1.25,
          f"exact on 10^4 cases, oracle estimate {est:.4f} in [0.8, 1.25]")


def test_closed_forms_match_sampling_oracle():
    world = default_world()
    worst_ratio = 0.0
    worst_at = ""
    n_points = 0
    ok = True
    grids = {system: default_evidence_grid(system, world)
             for system in sorted(NONTRIVIAL, key=lambda s: s.value)}
    # point i runs at seed i, so the points of one seed share one bank
    for i in range(9):  # every grid is 3x3
        bank = PathBank(world, i, 1_000_000)
        for system, grid in grids.items():
            comp = compare_views(system, [grid[i]], bank)[0]
            n_points += 1
            ratio = (comp.abs_diff_log10 / comp.se_log10
                     if comp.se_log10 > 0 else np.inf)
            if ratio > worst_ratio:
                worst_ratio = ratio
                worst_at = f"{system.value}[{i}]"
            ok &= comp.within_3se
    _line("oracle", ok,
          f"{n_points} grid points at 10^6 paths, worst "
          f"|diff|/SE {worst_ratio:.2f} at {worst_at} (limit 3)")


def test_anchored_lr_times_anchor_lr_is_joint_lr():
    world = packaged_world("illcond_world.json")
    batch = generate_cases(world, 3, 100)
    joint = log_lr_batch(SystemId.CSFLR, batch.x, batch.y, world)
    worst = 0.0
    for system, kind, obs in (
            (SystemId.CSYASLR, AnchorKind.Y, batch.y),
            (SystemId.CSXASLR, AnchorKind.X, batch.x)):
        own = log_lr_batch(system, batch.x, batch.y, world)
        anchor = anchor_log_lr_batch(obs, kind, world)
        worst = max(worst, float(np.max(np.abs(np.expm1(own + anchor - joint)))))
    rep = ill_conditioning_experiment(world, n_cases=20_000, master_seed=0)
    _line("decomposition",
          worst < 1e-9 and rep.identity_ok and rep.proper_beats_naive,
          f"max rel err {worst:.2e} on 100 cases (limit 1e-9); proper beats "
          f"naive by {rep.margin_in_se:+.1f} SE (needs > 2)")


def test_cs_feature_terms_are_averaged_ss_terms():
    world = default_world()
    s_t2 = world.var_trace_mean
    s_r2 = world.var_ref_mean
    tau2_c = world.pop_c.tau ** 2
    rng = np.random.default_rng(4)
    pts = rng.uniform(-3.0, 3.0, size=(20, 2))

    def quad(f):
        val, _ = integrate.quad(f, -np.inf, np.inf, epsabs=0.0,
                                epsrel=1e-10, limit=200)
        return val

    worst = 0.0
    for x, y in pts:
        num_quad = quad(lambda t: norm.pdf(x, t, np.sqrt(s_t2))
                        * norm.pdf(y, t, np.sqrt(s_r2))
                        * norm.pdf(t, world.pop_c.mu, world.pop_c.tau))
        den_quad = (
            quad(lambda t: norm.pdf(x, t, np.sqrt(s_t2))
                 * norm.pdf(t, world.pop_t.mu, world.pop_t.tau))
            * quad(lambda t: norm.pdf(y, t, np.sqrt(s_r2))
                   * norm.pdf(t, world.pop_d.mu, world.pop_d.tau)))
        num_closed = multivariate_normal.pdf(
            [x, y], mean=[world.pop_c.mu] * 2,
            cov=[[s_t2 + tau2_c, tau2_c], [tau2_c, s_r2 + tau2_c]])
        den_closed = (norm.pdf(x, world.pop_t.mu,
                               np.sqrt(s_t2 + world.pop_t.tau ** 2))
                      * norm.pdf(y, world.pop_d.mu,
                                 np.sqrt(s_r2 + world.pop_d.tau ** 2)))
        closed = float(log_lr_batch(SystemId.CSFLR, np.array([x]),
                                    np.array([y]), world)[0])
        worst = max(worst,
                    abs(num_quad / num_closed - 1.0),
                    abs(den_quad / den_closed - 1.0),
                    abs(np.expm1(np.log(num_quad / den_quad) - closed)))
    _line("quadrature", worst < 1e-6,
          f"num, den and full LR on 20 points, worst rel err {worst:.2e} "
          f"(limit 1e-6)")


def test_scoring_rule_honesty():
    log_rep = honesty_check(ScoringRule.Logarithmic)
    brier_rep = honesty_check(ScoringRule.Brier)
    table_rep = honesty_check(ScoringRule.ImproperTable3)

    honest = expected_score(ScoringRule.ImproperTable3, 0.1, believed_p=0.1)
    dishonest = expected_score(ScoringRule.ImproperTable3, 0.0, believed_p=0.1)
    shown = Decimal("0.1") * Decimal("1.00") + Decimal("0.9") * Decimal("1.95")
    displayed = str(shown.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))
    ok = (log_rep.is_honest and not log_rep.counterexamples
          and brier_rep.is_honest and not brier_rep.counterexamples
          and not table_rep.is_honest and table_rep.counterexamples
          and honest == pytest.approx(1.855, abs=1e-12)
          and displayed == "1.86"
          and dishonest == pytest.approx(2.7, abs=1e-12)
          and dishonest > honest)
    _line("honesty", ok,
          f"log/brier honest on 0.01 grid; lookup table dishonest "
          f"(honest {displayed} < misreport {dishonest:.2f}) and fails the "
          f"check with {len(table_rep.counterexamples)} counterexamples")


def test_every_system_is_calibrated():
    rep = run_experiment(default_world(), 100_000, 0)
    fails = [s.value for s, c in rep.calibration.items() if not c.passes()]
    worst = max(c.max_abs_gap for c in rep.calibration.values())
    _line("calibration", not fails,
          f"9 systems at 10^5 cases, worst qualifying-bin gap {worst:.4f}, "
          f"failures: {fails or 'none'}")


def test_lr_tail_bounds():
    world = default_world()
    rows = tail_bound_check(world, n_cases=100_000, master_seed=0)
    n_fail = sum(not row.passed for row in rows)
    min_slack = min(row.bound - row.empirical_exceedance for row in rows)
    sab = tail_bound_check(
        world, n_cases=100_000, master_seed=0,
        believed_world=make_world(pop_t=PopulationModel(4.0, 1.0)))
    # judged on CSFLR alone: any other system's failing row would loosen the gate
    sab_breaks = any(not r.passed for r in sab if r.system is SystemId.CSFLR)
    _line("tail-bounds", n_fail == 0 and sab_breaks,
          f"{len(TAIL_SYSTEMS)} systems x k in (3,10,30,100) at 10^5 cases, "
          f"{n_fail} failures, min slack {min_slack:+.4f}; miscalibrated "
          f"fixture breaks the bound: {sab_breaks}")


def test_discrete_profile_decompositions():
    ok = True
    for gamma in (0.5, 0.1, 0.01):
        ss = discrete_profile_lr(gamma, ProfileMode.SpecificSource)
        cs = discrete_profile_lr(gamma, ProfileMode.CommonSource)
        ok &= (ss.lr == cs.lr == 1.0 / gamma
               and ss.term_match == 1.0 / gamma and ss.term_rarity == 1.0
               and cs.term_match == 1.0 / gamma and cs.term_rarity == 1.0)
    _line("discrete-profile", ok,
          "both decompositions give LR = 1/gamma exactly for gamma in "
          "(0.5, 0.1, 0.01)")


def test_demand_table_quoted_counts():
    t = {p.system: p for p in demand_table()}
    ranks = {r.system: r for r in feasibility_rank()}
    checks = {
        "shortcut 190/1400": (
            t[SystemId.SSSLR].shortcut_h1_comparisons == 190
            and t[SystemId.SSSLR].shortcut_h2_comparisons == 1400),
        "score-system 100/4000": (
            t[SystemId.CSSLR].h1_scores == 100
            and t[SystemId.CSSLR].h2_scores == 4000),
        "anchored 5000 sources": (
            t[SystemId.CSYASLR].reusable_background_measurements == 5000),
        "feature 3 repeats / 20 refs": (
            t[SystemId.CSFLR].per_case_source_measurements == 3
            and t[SystemId.CSFLR].reusable_background_measurements == 20),
        "flags": (ranks[SystemId.SSFLR].infeasible
                  and ranks[SystemId.CSFLR].favourable),
    }
    bad = [k for k, v in checks.items() if not v]
    _line("demand", not bad, f"quoted counts and flags, failures: "
          f"{bad or 'none'}")


def test_cli_reruns_are_byte_identical(tmp_path, capsys):
    argv = ["rank", "--cases", "20000", "--seed", "0"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    names = ("report.json", "cases.csv", "calibration.csv", "scores.csv")
    same = {n: (tmp_path / "a" / n).read_bytes() ==
            (tmp_path / "b" / n).read_bytes() for n in names}
    doc = json.loads((tmp_path / "a" / "report.json").read_text())
    _line("determinism",
          all(same.values()) and doc["verdict_counts"]["Violated"] == 0,
          f"identical invocations, byte-equal outputs: {same}")
