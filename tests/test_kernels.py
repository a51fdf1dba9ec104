import numpy as np

from lrsim.genmodel import Hypothesis, generate_cases
from lrsim.kernels import stream_key
from tests.conftest import case_columns, make_world


def test_stream_key_depends_on_seed_and_index():
    assert stream_key(7, 3) == stream_key(7, 3)
    assert stream_key(7, 3) != stream_key(7, 4)
    assert stream_key(8, 3) != stream_key(7, 3)


def test_stream_keys_spread():
    # a counter RNG must not leave obvious structure between adjacent keys
    keys = np.array([stream_key(0, i) for i in range(10_000)], dtype=np.uint64)
    assert len(np.unique(keys)) == 10_000
    top_byte = (keys >> np.uint64(56)).astype(np.int64)
    counts = np.bincount(top_byte, minlength=256)
    assert counts.min() > 0


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
    assert h1[0].all() and not h2[0].any()
    mask1 = rand[0] == 1
    for field in range(1, 5):
        np.testing.assert_array_equal(rand[field][mask1], h1[field][mask1])
        np.testing.assert_array_equal(rand[field][~mask1], h2[field][~mask1])


def test_case_batch_h1_means():
    batch = generate_cases(make_world(n_trace=2, n_ref=3), 0, 200_000)
    is_h1 = batch.truth_h1.astype(bool)
    # under H1 the trace really comes from the suspect source
    np.testing.assert_array_equal(batch.theta_trace[is_h1], batch.theta_r[is_h1])
    assert abs(batch.x[is_h1].mean() - batch.theta_r[is_h1].mean()) < 0.01
    # under H2 the trace population is distinct (mu 1 here)
    assert abs(batch.x[~is_h1].mean() - 1.0) < 0.01
    assert abs(batch.theta_r.std() - 1.0) < 0.01
    assert batch.x.shape == batch.y.shape == (200_000,)
