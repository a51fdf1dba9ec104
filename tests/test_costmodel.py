import pytest

import lrsim.costmodel as costmodel
from lrsim.costmodel import demand_table, feasibility_rank, tail_bound_check
from lrsim.genmodel import ConfigError, PopulationModel
from lrsim.harness import ALL_SYSTEMS, RANKING_CLAIMS
from lrsim.lrsystems import SystemId
from tests.conftest import make_world


def by_system(profiles):
    return {p.system: p for p in profiles}


# ---------------------------------------------------------------------------
# demand table

def test_default_table_order_and_membership():
    profiles = demand_table()
    order = [p.system for p in profiles]
    assert order == [SystemId.CSSLR, SystemId.CSFLR, SystemId.CSYASLR,
                     SystemId.CSXASLR, SystemId.SSSLR, SystemId.SSYASLR,
                     SystemId.SSFLR]
    assert SystemId.SSXASLR not in order


def test_default_table_counts():
    t = by_system(demand_table())

    cs_score = t[SystemId.CSSLR]
    assert cs_score.reusable_background_measurements == 220
    assert cs_score.h1_scores == 100
    assert cs_score.h2_scores == 4_000
    assert cs_score.per_case_source_measurements == 1
    assert cs_score.reusable

    cs_feature = t[SystemId.CSFLR]
    assert cs_feature.per_case_source_measurements == 3
    assert cs_feature.per_case_trace_measurements == 3
    assert cs_feature.reusable_background_measurements == 20
    assert cs_feature.h1_scores is None

    for system in (SystemId.CSYASLR, SystemId.CSXASLR):
        assert t[system].reusable_background_measurements == 5_000
        assert t[system].h2_scores == 2_000

    ss_score = t[SystemId.SSSLR]
    assert ss_score.per_case_source_measurements == 100
    assert ss_score.shortcut_h1_comparisons == 190
    assert ss_score.shortcut_h2_comparisons == 1_400
    assert not ss_score.reusable

    ss_anchored = t[SystemId.SSYASLR]
    assert ss_anchored.per_case_source_measurements == 100
    assert ss_anchored.per_case_trace_measurements == 1
    assert ss_anchored.reusable_background_measurements == 1_000

    ss_feature = t[SystemId.SSFLR]
    assert ss_feature.reusable_background_measurements == 0
    assert ss_feature.info_loss_dims == frozenset()
    assert isinstance(ss_feature.per_case_source_measurements, str)

    for p in t.values():
        assert p.required_h1_scores == 100
        assert p.required_h2_scores == 1_000


def test_table_scales_with_target_range():
    t = by_system(demand_table(target_lr_min=1 / 10, target_lr_max=10))
    assert t[SystemId.CSSLR].required_h1_scores == 10
    assert t[SystemId.CSSLR].required_h2_scores == 10
    assert t[SystemId.CSSLR].reusable_background_measurements == 40
    assert t[SystemId.CSSLR].h2_scores == 400
    # the documented cross-comparison numbers only apply at the default range
    assert t[SystemId.SSSLR].shortcut_h1_comparisons is None
    assert t[SystemId.SSSLR].shortcut_h2_comparisons is None


@pytest.mark.parametrize("lo,hi", [(0.0, 1000.0), (2.0, 1000.0),
                                   (0.01, 0.5), (-0.1, 10.0)])
def test_bad_target_range_rejected(lo, hi):
    with pytest.raises(ConfigError):
        demand_table(target_lr_min=lo, target_lr_max=hi)


# ---------------------------------------------------------------------------
# performance versus effort

def test_feasibility_rank_shape_and_flags():
    rows = feasibility_rank()
    assert [r.demand_rank for r in rows] == sorted(r.demand_rank for r in rows)
    assert rows[0].system is SystemId.CSSLR
    assert rows[0].performance_rank == 4
    assert rows[-1].system is SystemId.SSFLR
    assert rows[-1].infeasible and rows[-1].performance_rank == 1
    flagged = [r.system for r in rows if r.favourable]
    assert flagged == [SystemId.CSFLR]
    by_sys = {r.system: r for r in rows}
    assert by_sys[SystemId.CSYASLR].demand_rank == by_sys[SystemId.CSXASLR].demand_rank


def test_performance_ranks_agree_with_expected_ordering():
    perf = {r.system: r.performance_rank for r in feasibility_rank()}
    for _, better, worse in RANKING_CLAIMS:
        if better in perf and worse in perf:
            assert perf[better] <= perf[worse], (better, worse)


def test_performance_rank_counts_lost_dimensions():
    for row in feasibility_rank():
        assert row.performance_rank == 1 + len(row.info_loss_dims)


# ---------------------------------------------------------------------------
# tail bounds

def test_tail_bounds_hold_for_every_system():
    world = make_world()
    for system in ALL_SYSTEMS:
        rows = tail_bound_check(system, world, n_cases=20_000,
                                k_values=(3.0, 10.0, 30.0), seed=0)
        assert len(rows) == 6
        assert all(r.passed for r in rows), (system, rows)


def test_tail_bound_k_one_is_trivial():
    rows = tail_bound_check(SystemId.CSSLR, make_world(), n_cases=2_000,
                            k_values=(1.0,))
    assert all(r.passed for r in rows)
    assert rows[0].bound == 1.0


def test_tail_bound_rejects_k_below_one():
    with pytest.raises(ConfigError):
        tail_bound_check(SystemId.CSSLR, make_world(), n_cases=2_000,
                         k_values=(0.5,))


def test_wrong_beliefs_break_the_bound():
    world = make_world()
    believed = make_world(pop_t=PopulationModel(4.0, 1.0))
    rows = tail_bound_check(SystemId.CSFLR, world, n_cases=20_000,
                            k_values=(3.0, 10.0, 30.0), seed=0,
                            believed_world=believed)
    h2_rows = [r for r in rows if r.side == "H2"]
    assert any(not r.passed for r in h2_rows)


@pytest.mark.parametrize("seed", [5, 2**64 - 1])
def test_tail_bound_draws_both_hypotheses_from_its_seed(monkeypatch, seed):
    # drawing H1 from seed + 1 would reuse the H2 draws of the next seed
    seen = []
    generate = costmodel.generate_cases

    def recording(world, master_seed, n_cases, force_truth=None):
        seen.append((master_seed, force_truth.value))
        return generate(world, master_seed, n_cases, force_truth=force_truth)

    monkeypatch.setattr(costmodel, "generate_cases", recording)
    tail_bound_check(SystemId.CSSLR, make_world(), n_cases=2_000, seed=seed)
    assert sorted(seen) == [(seed, "H1"), (seed, "H2")]


def test_prior_only_never_exceeds():
    rows = tail_bound_check(SystemId.PriorOnly, make_world(), n_cases=2_000,
                            k_values=(3.0, 100.0))
    assert all(r.empirical_exceedance == 0.0 for r in rows)

