import os
import weakref

import pytest

import lrsim.forked as forked
import lrsim.genmodel as genmodel
import lrsim.harness as harness
from lrsim.costmodel import demand_table, feasibility_rank
from lrsim.genmodel import ConfigError, PopulationModel
from lrsim.harness import ALL_SYSTEMS, RANKING_CLAIMS, TAIL_SYSTEMS, tail_bound_check
from lrsim.lrsystems import SystemId
from tests.conftest import make_world, record_draws, traced_peak


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
    # every system with an LR, in the order of ALL_SYSTEMS, which is not SystemId's
    assert TAIL_SYSTEMS == tuple(s for s in ALL_SYSTEMS if s is not SystemId.PriorOnly)
    rows = tail_bound_check(make_world(), n_cases=20_000, master_seed=0)
    assert [r.system for r in rows] == [s for s in TAIL_SYSTEMS for _ in range(8)]
    assert all(r.passed for r in rows), [r for r in rows if not r.passed]


def test_wrong_beliefs_break_the_bound():
    world = make_world()
    believed = make_world(pop_t=PopulationModel(4.0, 1.0))
    rows = tail_bound_check(world, n_cases=20_000, master_seed=0, believed_world=believed)
    h2_rows = [r for r in rows if r.system is SystemId.CSFLR and r.side == "H2"]
    assert any(not r.passed for r in h2_rows)


def recording_chunks(monkeypatch, seen):
    """Route genmodel's chunk draws through a recorder that appends (seed,
    truth, chunk sizes) to seen for every stream of chunks drawn from chunk
    0 on. It sees this process's draws only, so it runs every chunk here."""
    monkeypatch.setattr(forked, "cpus", lambda: 1)
    cases = genmodel._cases

    def recording(world, master_seed, chunk, n, force_truth):
        if chunk == 0:
            seen.append((master_seed, force_truth.value, []))
        seen[-1][2].append(n)
        return cases(world, master_seed, chunk, n, force_truth)

    monkeypatch.setattr(genmodel, "_cases", recording)


@pytest.mark.parametrize("seed", [5, 2**64 - 1])
def test_tail_bound_draws_both_hypotheses_from_its_seed(monkeypatch, seed):
    # drawing H1 from seed + 1 would reuse the H2 draws of the next seed
    seen = []
    recording_chunks(monkeypatch, seen)
    tail_bound_check(make_world(), n_cases=2_000, master_seed=seed)
    assert sorted(seen) == [(seed, "H1", [2_000]), (seed, "H2", [2_000])]


def test_tail_bound_draws_each_hypothesis_once_for_every_system(monkeypatch):
    # each side's chunks are drawn once, and every system is scored on each
    seen = []
    recording_chunks(monkeypatch, seen)
    rows = tail_bound_check(make_world(), n_cases=2**17 + 9, master_seed=5)
    assert seen == [(5, "H2", [2**16, 2**16, 9]), (5, "H1", [2**16, 2**16, 9])]
    assert len(rows) == len(TAIL_SYSTEMS) * 4 * 2


def test_tail_bound_draws_each_hypothesis_once_on_two_cpus(tmp_path, monkeypatch):
    # over both processes each side's chunks are drawn once, each by the
    # process that counts it: chunks 0 and 2 here, chunk 1 in the case worker
    monkeypatch.setattr(forked, "cpus", lambda: 2)
    draws = record_draws(monkeypatch, tmp_path / "draws")
    rows = tail_bound_check(make_world(), n_cases=2**17 + 9, master_seed=5)
    assert sorted((truth, chunk, n, pid == os.getpid())
                  for pid, seed, truth, chunk, n in draws() if seed == 5) == [
        (truth, chunk, n, chunk != 1) for truth in ("H1", "H2")
        for chunk, n in ((0, 2**16), (1, 2**16), (2, 9))]
    assert len(draws()) == 6 and len(rows) == len(TAIL_SYSTEMS) * 4 * 2


def _holds_one_batch_and_one_lr_array(tmp_path, monkeypatch, k):
    """Check, on k CPUs, that each process draws a chunk while it holds only
    the one before, scores it once that one is gone, and asks for an LR
    array only once the last one is gone; an assertion failing in the case
    worker is raised here. Return
    the draws of every process and the LR arrays asked for in this one."""
    # gc.collect is never called: an object still alive is still referenced
    monkeypatch.setattr(forked, "cpus", lambda: k)
    draws = record_draws(monkeypatch, tmp_path / "draws")
    batches, arrays = [], []
    cases, own_log10 = genmodel._cases, harness._own_log10

    def tracking_cases(*args):
        batch = cases(*args)
        assert all(b() is None for b in batches[:-1])
        batches.append(weakref.ref(batch))
        return batch

    def tracking_own_log10(*args):
        assert all(a() is None for a in arrays)
        assert all(b() is None for b in batches[:-1])  # scored alone
        out = own_log10(*args)
        arrays.append(weakref.ref(out))
        return out

    monkeypatch.setattr(genmodel, "_cases", tracking_cases)
    monkeypatch.setattr(harness, "_own_log10", tracking_own_log10)
    tail_bound_check(make_world(), n_cases=2**17 + 9)
    return draws(), arrays


def test_tail_bound_holds_one_batch_and_one_lr_array_at_a_time(tmp_path, monkeypatch):
    # a chunk is scored alone; it is released once the next one is drawn
    draws, arrays = _holds_one_batch_and_one_lr_array(tmp_path, monkeypatch, 1)
    assert len(draws) == 2 * 3 and len(arrays) == 2 * 3 * len(TAIL_SYSTEMS)


def test_tail_bound_holds_one_batch_and_one_lr_array_on_two_cpus(tmp_path, monkeypatch):
    # this process scores chunks 0 and 2 of each side, the case worker chunk 1
    draws, arrays = _holds_one_batch_and_one_lr_array(tmp_path, monkeypatch, 2)
    assert len(draws) == 2 * 3 and len(arrays) == 2 * 2 * len(TAIL_SYSTEMS)


def test_tail_bound_memory_does_not_grow_with_n_cases(monkeypatch):
    # a chunk is scored one LR array at a time and released once the next
    # one is drawn: the peak at ten chunks per hypothesis is the peak at two
    # (on one CPU, which runs every chunk)
    monkeypatch.setattr(forked, "cpus", lambda: 1)
    world = make_world(n_trace=4, n_ref=16)
    peaks = [traced_peak(lambda: tail_bound_check(world, n_cases=n))
             for n in (2 * 2**16, 10 * 2**16)]
    assert peaks[0] <= 14 * 8 * 2**16, f"peak {peaks[0] / (8 * 2**16):.1f} chunk columns"
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_tail_bound_memory_does_not_grow_on_two_cpus(monkeypatch):
    # the case worker counts every other chunk, and this process folds them
    world = make_world(n_trace=4, n_ref=16)
    peaks = []
    for k, chunks in ((1, 2), (2, 10)):
        monkeypatch.setattr(forked, "cpus", lambda: k)
        peaks.append(traced_peak(
            lambda: tail_bound_check(world, n_cases=chunks * 2**16)))
    assert peaks[1] <= 1.1 * peaks[0], peaks
