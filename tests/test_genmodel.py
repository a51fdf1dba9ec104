import dataclasses
import json
import re

import numpy as np
import pytest

from lrsim.genmodel import (
    ConfigError,
    Hypothesis,
    NoiseModel,
    PopulationModel,
    ScenarioKind,
    ScoreKind,
    WorldConfig,
    case_chunks,
    fold_chunks,
    generate_cases,
    load_world,
    world_from_json_dict,
    world_to_json_dict,
)
from tests.conftest import case_columns, make_world


# ---------------------------------------------------------------------------
# validation

def test_population_rejects_negative_tau():
    with pytest.raises(ConfigError, match="popT.tau"):
        make_world(pop_t=PopulationModel(0.0, -0.1))


def test_noise_rejects_zero_sigma():
    with pytest.raises(ConfigError, match="noise.sigma"):
        make_world(noise=NoiseModel(0.0))


@pytest.mark.parametrize("change,message", [
    (dict(prior_h1=1.5), "prior_h1"),
    (dict(noise=NoiseModel(-0.5)), "noise.sigma"),
])
def test_an_invalid_world_cannot_be_built(change, message):
    # the constructor checks, and so dataclasses.replace does too
    fields = dict(pop_c=PopulationModel(0.0, 1.0), pop_d=PopulationModel(0.0, 1.0),
                  pop_t=PopulationModel(1.0, 1.0), noise=NoiseModel(0.5),
                  prior_h1=0.5, scenario=ScenarioKind.ReferenceCrimeRelevant,
                  score_kind=ScoreKind.SignedDifference)
    with pytest.raises(ConfigError, match=message):
        WorldConfig(**{**fields, **change})
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(WorldConfig(**fields), **change)


@pytest.mark.parametrize("prior", [0.0, 1.0, -0.2, 1.5])
def test_prior_must_be_interior(prior):
    with pytest.raises(ConfigError):
        make_world(prior_h1=prior)


@pytest.mark.parametrize("field", ["n_trace", "n_ref"])
def test_counts_must_be_positive(field):
    with pytest.raises(ConfigError):
        make_world(**{field: 0})


def test_scenario_constrains_populations():
    # reference drawn from the crime-relevant population: popD must equal popC
    with pytest.raises(ConfigError):
        make_world(pop_d=PopulationModel(0.5, 1.0))
    # trace crime-relevant: popT must equal popC
    with pytest.raises(ConfigError):
        make_world(scenario=ScenarioKind.TraceCrimeRelevant)
    make_world(scenario=ScenarioKind.TraceCrimeRelevant,
               pop_t=PopulationModel(0.0, 1.0),
               pop_d=PopulationModel(2.0, 0.5))
    with pytest.raises(ConfigError):
        make_world(scenario=ScenarioKind.DistinctionIrrelevant)
    make_world(scenario=ScenarioKind.DistinctionIrrelevant,
               pop_t=PopulationModel(0.0, 1.0))


def test_mean_variances():
    w = make_world(n_trace=4, n_ref=5)
    assert w.var_trace_mean == pytest.approx(0.25 / 4)
    assert w.var_ref_mean == pytest.approx(0.25 / 5)


# ---------------------------------------------------------------------------
# generation

def test_case_independent_of_batch_size():
    # cases are drawn in chunks of 2^16; the runs below end in the first
    # chunk, just past the boundary, and further into the second chunk
    w = make_world()
    small = case_columns(generate_cases(w, master_seed=1, n_cases=5))
    mid = case_columns(generate_cases(w, master_seed=1, n_cases=2**16 + 3))
    large = case_columns(generate_cases(w, master_seed=1, n_cases=2**16 + 500))
    for s, m, g in zip(small, mid, large):
        np.testing.assert_array_equal(s, g[:5])
        np.testing.assert_array_equal(m, g[:2**16 + 3])


@pytest.mark.parametrize("force_truth", [None, Hypothesis.H1, Hypothesis.H2],
                         ids=["mixed", "H1", "H2"])
@pytest.mark.parametrize("n", [5, 2**16, 2**16 + 3, 3 * 2**16 + 17])
def test_case_chunks_are_the_batch_in_pieces(n, force_truth):
    # the chunks are 2^16 cases each, the last one shorter, and together
    # they are generate_cases' batch bit for bit in every column
    w = make_world(n_trace=4, n_ref=16)
    chunks = list(case_chunks(w, 7, n, force_truth=force_truth))
    assert [len(c) for c in chunks] == [min(2**16, n - lo)
                                        for lo in range(0, n, 2**16)]
    whole = case_columns(generate_cases(w, 7, n, force_truth=force_truth))
    for column, parts in zip(whole, zip(*map(case_columns, chunks))):
        joined = np.concatenate(parts)
        assert joined.dtype == column.dtype
        assert np.array_equal(joined.view(np.uint8), column.view(np.uint8))


def test_case_chunks_check_their_arguments_when_called():
    w = make_world()
    with pytest.raises(ConfigError, match="n_cases"):
        case_chunks(w, 0, 0)
    with pytest.raises(ConfigError, match="force_truth"):
        case_chunks(w, 0, 10, force_truth="H1")


def test_truth_fraction_tracks_prior():
    w = make_world(prior_h1=0.2)
    batch = generate_cases(w, master_seed=0, n_cases=100_000)
    assert abs(batch.truth_h1.mean() - 0.2) < 0.005


def test_h1_difference_variance():
    w = make_world()
    batch = generate_cases(w, master_seed=3, n_cases=100_000,
                           force_truth=Hypothesis.H1)
    d = batch.x - batch.y
    assert abs(d.mean()) < 0.01
    assert abs(d.var() - 0.5) < 0.01   # sigma^2/n_trace + sigma^2/n_ref


def test_h2_trace_marginal():
    w = make_world()
    batch = generate_cases(w, master_seed=3, n_cases=100_000,
                           force_truth=Hypothesis.H2)
    assert abs(batch.x.mean() - 1.0) < 0.02
    assert abs(batch.x.var() - 1.25) < 0.02  # tau_T^2 + sigma^2


def test_measurement_means_have_reduced_variance():
    w = make_world(n_trace=4, n_ref=16)
    batch = generate_cases(w, master_seed=2, n_cases=200_000)
    sigma2 = w.noise.sigma**2
    assert abs((batch.x - batch.theta_trace).var() / (sigma2 / 4) - 1.0) < 0.01
    assert abs((batch.y - batch.theta_r).var() / (sigma2 / 16) - 1.0) < 0.01


def test_memory_does_not_grow_with_measurement_counts():
    batch = generate_cases(make_world(n_ref=10**6), master_seed=0, n_cases=1000)
    for column in case_columns(batch):
        assert column.shape == (1000,)


def test_force_truth_rejects_raw_ints():
    w = make_world()
    with pytest.raises(ConfigError):
        generate_cases(w, 0, 10, force_truth=1)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, 1.0, True, "0", None])
def test_a_seed_must_be_a_philox_key_word(seed):
    # numpy once drew seed 1's cases for 1.5 and refused -1 without naming it
    w = make_world()
    for draw in (generate_cases, case_chunks,
                 lambda *args: fold_chunks(lambda batch: (0, ()), *args)):
        with pytest.raises(ConfigError, match=r"^master_seed must be an integer "
                           rf"in \[0, 2\*\*64\), got {seed!r}$"):
            draw(w, seed, 10)


@pytest.mark.parametrize("n", [10.7, 10.0, np.float64(10.0), True, np.True_,
                               "10", None])
def test_a_case_count_must_be_an_integer(n):
    # int() once truncated 10.7 to 10 cases and True to 1, silently
    w = make_world()
    for draw in (generate_cases, case_chunks,
                 lambda *args: fold_chunks(lambda batch: (0, ()), *args)):
        with pytest.raises(ConfigError,
                           match=rf"^n_cases must be an integer, got {re.escape(repr(n))}$"):
            draw(w, 0, n)


@pytest.mark.parametrize("n", [10, np.int64(10), np.uint16(10)])
def test_a_numpy_case_count_is_a_count(n):
    assert len(generate_cases(make_world(), 0, n)) == 10


def test_n_cases_must_be_positive():
    with pytest.raises(ConfigError):
        generate_cases(make_world(), 0, 0)


# ---------------------------------------------------------------------------
# JSON round trip

def test_json_round_trip():
    w = make_world(n_trace=2)
    doc = world_to_json_dict(w)
    assert world_from_json_dict(json.loads(json.dumps(doc))) == w


def test_unknown_key_is_rejected_with_path():
    doc = world_to_json_dict(make_world())
    doc["popX"] = {"mu": 0, "tau": 1}
    with pytest.raises(ConfigError, match="popX"):
        world_from_json_dict(doc)


def test_missing_key_is_rejected():
    doc = world_to_json_dict(make_world())
    del doc["noise"]
    with pytest.raises(ConfigError, match="noise"):
        world_from_json_dict(doc)


def test_bad_scenario_value():
    doc = world_to_json_dict(make_world())
    doc["scenario"] = "Sideways"
    with pytest.raises(ConfigError, match="Sideways"):
        world_from_json_dict(doc)


def test_counts_default_to_one():
    doc = world_to_json_dict(make_world())
    del doc["n_trace"], doc["n_ref"]
    w = world_from_json_dict(doc)
    assert w.n_trace == 1 and w.n_ref == 1


def test_load_world_reports_line_and_column(tmp_path):
    p = tmp_path / "w.json"
    p.write_text('{\n  "popC": {"mu": 0.0 "tau": 1.0}\n}\n')
    with pytest.raises(ConfigError, match=r":2:\d+"):
        load_world(p)


def test_load_world_reads_file(tmp_path, default_world):
    p = tmp_path / "w.json"
    p.write_text(json.dumps(world_to_json_dict(default_world)))
    assert load_world(p) == default_world


def test_with_population_revalidates():
    w = make_world()
    w2 = dataclasses.replace(w, pop_t=PopulationModel(2.0, 1.0))
    assert w2.pop_t.mu == 2.0
    with pytest.raises(ConfigError):
        dataclasses.replace(w, pop_d=PopulationModel(3.0, 1.0))


def test_case_batch_truth_prior():
    batch = generate_cases(make_world(prior_h1=0.3), 0, 100_000)
    assert abs(batch.truth_h1.mean() - 0.3) < 0.01


def test_case_batch_forced_truth_rows_match_random_run():
    # forcing a hypothesis must not shift any other draw: rows whose random
    # truth already equals the forced one are bitwise unchanged
    w = make_world()
    rand = case_columns(generate_cases(w, 0, 5_000))
    h1 = case_columns(generate_cases(w, 0, 5_000, force_truth=Hypothesis.H1))
    h2 = case_columns(generate_cases(w, 0, 5_000, force_truth=Hypothesis.H2))
    assert rand[0].dtype == h1[0].dtype == h2[0].dtype == bool
    assert h1[0].all() and not h2[0].any()
    mask1 = rand[0]
    for field in range(1, 5):
        np.testing.assert_array_equal(rand[field][mask1], h1[field][mask1])
        np.testing.assert_array_equal(rand[field][~mask1], h2[field][~mask1])


def test_case_batch_h1_means():
    batch = generate_cases(make_world(n_trace=2, n_ref=3), 0, 200_000)
    is_h1 = batch.truth_h1
    assert is_h1.dtype == bool
    # under H1 the trace really comes from the suspect source
    np.testing.assert_array_equal(batch.theta_trace[is_h1], batch.theta_r[is_h1])
    assert abs(batch.x[is_h1].mean() - batch.theta_r[is_h1].mean()) < 0.01
    # under H2 the trace population is distinct (mu 1 here)
    assert abs(batch.x[~is_h1].mean() - 1.0) < 0.01
    assert abs(batch.theta_r.std() - 1.0) < 0.01
    assert batch.x.shape == batch.y.shape == (200_000,)
