import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrsim import oracle
from lrsim.genmodel import ConfigError, ScoreKind
from lrsim.lrsystems import (
    LOG10_E,
    NONTRIVIAL,
    SPECIFIC_SOURCE,
    SYSTEMS,
    AnchorKind,
    CaseView,
    SystemId,
    log_lr_batch,
)
from lrsim.oracle import (
    N_BLOCKS,
    N_BOOT,
    RECIPES,
    InsufficientPathsError,
    PathBank,
    _TermEstimate,
    _bootstrap_se,
    _quartiles,
    _silverman,
    _term_estimates,
    _term_samples,
    compare_views,
    default_evidence_grid,
    estimate_views,
    grid_groups,
    stream_key,
)
from tests.conftest import make_world, packaged_world, same_bits

FAST = 200_000  # paths


def _closed_log10(system, view, world):
    theta = (np.array([view.theta_r]) if system in SPECIFIC_SOURCE else None)
    return float(log_lr_batch(system, np.array([view.x_mean]),
                              np.array([view.y_mean]), world,
                              theta_r=theta)[0]) * LOG10_E


@pytest.mark.parametrize("system", sorted(NONTRIVIAL, key=lambda s: s.value))
def test_oracle_tracks_closed_form(system):
    world = make_world()
    view = default_evidence_grid(system, world)[4]
    comp = compare_views(system, [view], PathBank(world, 0, FAST))[0]
    # 4 SE at desk scale keeps the rate of false alarms negligible while
    # still catching any recipe that samples the wrong distribution
    assert comp.abs_diff_log10 < max(4.0 * comp.se_log10, 0.02)


def test_prior_only_has_no_grid_and_an_oracle_lr_of_one():
    # its row averages out x and y without an anchor, as CSSLR's does; the
    # row rules alone would give it CSSLR's grid and score recipes
    world = make_world()
    with pytest.raises(ConfigError, match="no evidence grid"):
        default_evidence_grid(SystemId.PriorOnly, world)
    bank = _RecordingBank(world, 0, 1_000)
    est = estimate_views(SystemId.PriorOnly, [CaseView(0.4, 0.1)], bank)[0]
    assert (est.lr, est.log10_lr, est.se_log10) == (1.0, 0.0, 0.0)
    assert (est.n_paths, est.accepted_num, est.accepted_den) == (1_000, 0, 0)
    assert not bank.read


@pytest.mark.parametrize("system,anchor", [
    (SystemId.CSXASLR, AnchorKind.Y),
    (SystemId.CSYASLR, AnchorKind.X),
    (SystemId.SSYASLR, AnchorKind.X),
])
def test_oracle_checks_the_system_table(monkeypatch, system, anchor):
    # the oracle samples by the row and the closed forms dispatch by name, so
    # a row with the wrong anchor fails the closed-vs-oracle check
    monkeypatch.setitem(SYSTEMS, system, SYSTEMS[system]._replace(anchor=anchor))
    world = make_world()
    bank = PathBank(world, 0, 300_000)
    outside = [not compare_views(system, [view], bank)[0].within_3se
               for view in default_evidence_grid(system, world)]
    assert outside == [True] * 9


def test_unit_lr_system_oracle_is_near_one():
    world = make_world()
    view = CaseView(x_mean=0.4, y_mean=0.1, theta_r=0.2)
    est = estimate_views(SystemId.SSXASLR, [view], PathBank(world, 0, 100_000))[0]
    assert 0.8 < est.lr < 1.25


def test_oracle_is_deterministic():
    world = make_world()
    view = default_evidence_grid(SystemId.CSSLR, world)[3]
    a = estimate_views(SystemId.CSSLR, [view], PathBank(world, 9, FAST))[0]
    b = estimate_views(SystemId.CSSLR, [view], PathBank(world, 9, FAST))[0]
    assert a.log10_lr == b.log10_lr
    assert a.se_log10 == b.se_log10


def test_oracle_seed_changes_draws():
    world = make_world()
    view = default_evidence_grid(SystemId.CSSLR, world)[3]
    a = estimate_views(SystemId.CSSLR, [view], PathBank(world, 1, FAST))[0]
    b = estimate_views(SystemId.CSSLR, [view], PathBank(world, 2, FAST))[0]
    assert a.log10_lr != b.log10_lr


def test_feature_bin_width_insensitivity(monkeypatch):
    world = make_world()
    view = default_evidence_grid(SystemId.CSFLR, world)[4]
    monkeypatch.setattr(oracle, "BIN_WIDTH", 0.1)
    wide = estimate_views(SystemId.CSFLR, [view], PathBank(world, 3, 400_000))[0]
    monkeypatch.setattr(oracle, "BIN_WIDTH", 0.05)
    narrow = estimate_views(SystemId.CSFLR, [view], PathBank(world, 3, 400_000))[0]
    se = np.hypot(wide.se_log10, narrow.se_log10)
    assert abs(wide.log10_lr - narrow.log10_lr) < max(4.0 * se, 0.05)


def test_anchor_tolerance_insensitivity(monkeypatch):
    world = make_world()
    view = default_evidence_grid(SystemId.CSYASLR, world)[4]
    monkeypatch.setattr(oracle, "ANCHOR_TOLERANCE", 0.05)
    loose = estimate_views(SystemId.CSYASLR, [view], PathBank(world, 4, 400_000))[0]
    monkeypatch.setattr(oracle, "ANCHOR_TOLERANCE", 0.025)
    tight = estimate_views(SystemId.CSYASLR, [view], PathBank(world, 4, 400_000))[0]
    se = np.hypot(loose.se_log10, tight.se_log10)
    assert abs(loose.log10_lr - tight.log10_lr) < max(4.0 * se, 0.05)


def test_absolute_score_oracle():
    world = make_world(score_kind=ScoreKind.AbsoluteDifference)
    view = CaseView(x_mean=0.9, y_mean=0.2)
    comp = compare_views(SystemId.CSSLR, [view], PathBank(world, 5, FAST))[0]
    assert comp.abs_diff_log10 < max(4.0 * comp.se_log10, 0.02)


def test_insufficient_accepted_paths_raises():
    world = make_world()
    # an anchor far in the tail leaves nothing inside the window
    view = CaseView(x_mean=0.0, y_mean=30.0)
    with pytest.raises(InsufficientPathsError):
        estimate_views(SystemId.CSYASLR, [view], PathBank(world, 0, 2_000))[0]


def test_path_oracle_lr_matches_closed_form():
    world = make_world()
    view = CaseView(x_mean=0.3, y_mean=0.1)
    lr = estimate_views(SystemId.CSSLR, [view], PathBank(world, 6, FAST))[0].lr
    closed = 10.0 ** _closed_log10(SystemId.CSSLR, view, world)
    assert lr == pytest.approx(closed, rel=0.15)


def test_oracle_estimate_fields():
    world = make_world()
    view = default_evidence_grid(SystemId.SSSLR, world)[0]
    est = estimate_views(SystemId.SSSLR, [view], PathBank(world, 7, FAST))[0]
    assert est.n_paths == FAST
    assert est.se_log10 > 0
    assert np.isfinite(est.log10_lr)
    assert est.accepted_num > 0 and est.accepted_den > 0


def test_default_grid_shapes():
    world = make_world()
    for system in NONTRIVIAL:
        grid = default_evidence_grid(system, world)
        assert len(grid) == 9
        has_theta = [v.theta_r is not None for v in grid]
        if system in SPECIFIC_SOURCE:
            assert all(has_theta)
        else:
            assert not any(has_theta)


def test_oracle_config_validation():
    world = make_world()
    with pytest.raises(ConfigError, match="n_paths must be >= 1000, got 10"):
        PathBank(world, 0, n_paths=10)


@pytest.mark.parametrize("seed", [-1, 1.7, 2**64, True])
def test_a_bank_seed_must_be_a_philox_key_word(seed):
    # -1 once drew the paths of seed 2**64 - 1, and 1.7 those of seed 1
    with pytest.raises(ConfigError, match=r"^seed must be an integer in "
                       rf"\[0, 2\*\*64\), got {seed!r}$"):
        PathBank(make_world(), seed, 1_000)


@pytest.mark.parametrize("n_paths", [1500.7, 2000.0, True, "2000"])
def test_a_bank_path_count_must_be_an_integer(n_paths):
    # int() once truncated 1500.7 to a bank of 1500 paths, silently
    with pytest.raises(ConfigError, match=r"^n_paths must be an integer, "
                       rf"got {re.escape(repr(n_paths))}$"):
        PathBank(make_world(), 0, n_paths)
    assert PathBank(make_world(), 0, np.int64(2000)).n_paths == 2000


def test_a_specific_source_oracle_needs_theta_r():
    bank = PathBank(make_world(), 0, 1_000)
    with pytest.raises(ConfigError, match="^SSSLR oracle requires theta_r"):
        estimate_views(SystemId.SSSLR, [CaseView(0.1, 0.2)], bank)[0]


def test_bank_columns_have_their_recipe_moments():
    w = make_world(n_trace=2, n_ref=3)
    bank = PathBank(w, 9, 200_000)
    st2, sr2 = w.var_trace_mean, w.var_ref_mean
    (dx, dy), (x, y) = bank.columns("ss_num"), bank.columns("cs_num")
    expected = [  # (column, mean, variance) of each recipe's columns
        (dx, 0.0, st2), (dy, 0.0, sr2),
        (x, w.pop_c.mu, w.pop_c.tau**2 + st2),
        (y, w.pop_c.mu, w.pop_c.tau**2 + sr2),
        (bank.columns("trace")[0], w.pop_t.mu, w.pop_t.tau**2 + st2),
        (bank.columns("ss_ref")[0], 0.0, sr2),
        (bank.columns("cs_ref")[0], w.pop_d.mu, w.pop_d.tau**2 + sr2),
    ]
    for col, mean, var in expected:
        z = (col - mean) / math.sqrt(var)
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.02
        assert abs(np.mean(z**3)) < 0.03            # symmetry
        assert abs(np.mean(z**4) - 3.0) < 0.15      # gaussian tails
    # x and y of cs_num share their source: covariance tau_c^2
    assert np.cov(x, y)[0, 1] == pytest.approx(w.pop_c.tau**2, abs=0.01)
    assert abs(np.corrcoef(dx, dy)[0, 1]) < 0.01


def test_bank_draws_each_recipe_once_and_read_only():
    bank = PathBank(make_world(), 0, 1_000)
    for recipe in RECIPES:
        first = bank.columns(recipe)
        assert bank.columns(recipe) is first
        assert not any(c.flags.writeable for c in first)
    with pytest.raises(ValueError):
        bank.columns("nope")


def test_a_built_bank_draws_nothing_more(monkeypatch):
    # the bank is drawn whole when it is built: every group of the grid
    # reads it, and none draws a recipe again
    world = make_world()
    bank = PathBank(world, 0, FAST)

    def no_draw(bank, recipe):
        raise AssertionError(f"{recipe} drawn after the bank was built")

    monkeypatch.setattr(PathBank, "_draw", no_draw)
    points = [p for system, _, views in grid_groups(world)
              for p in compare_views(system, views, bank)]
    assert len(points) == 63


class _RecordingBank(PathBank):
    def __init__(self, *args):
        super().__init__(*args)
        self.read: set[str] = set()

    def columns(self, recipe):
        self.read.add(recipe)
        return super().columns(recipe)


@pytest.mark.parametrize("system", sorted(set(NONTRIVIAL) | {SystemId.SSXASLR},
                                          key=lambda s: s.value))
def test_numerator_and_denominator_read_disjoint_recipes(system):
    # the numerator reads the known-source pair; the denominator reads the
    # trace unless x is anchored and the reference unless y is anchored
    row = SYSTEMS[system]
    ref = "ss_ref" if row.specific_source else "cs_ref"
    named = {"num": {"ss_num" if row.specific_source else "cs_num"},
             "den": {None: {"trace", ref}, AnchorKind.Y: {"trace"},
                     AnchorKind.X: {ref}}[row.anchor]}
    world = make_world()
    view = default_evidence_grid(system, world)[4]
    for term in ("num", "den"):
        bank = _RecordingBank(world, 0, 1_000)
        _term_samples(system, term, view, bank)
        assert bank.read == named[term]
    assert not named["num"] & named["den"]


def test_vectorised_bootstrap_matches_a_loop():
    world = make_world()
    system = SystemId.CSYASLR
    view = default_evidence_grid(system, world)[4]
    bank = PathBank(world, 3, 20_000)
    (num,) = _term_estimates(system, "num", [view], bank)
    (den,) = _term_estimates(system, "den", [view], bank)
    rng = np.random.default_rng(1)
    i = rng.integers(0, N_BLOCKS, (100, N_BLOCKS))
    j = rng.integers(0, N_BLOCKS, (100, N_BLOCKS))
    reps = []
    for b in range(100):
        dn = num.block_contrib[i[b]].sum() / (num.block_norm[i[b]].sum()
                                              * num.scale)
        dd = den.block_contrib[j[b]].sum() / (den.block_norm[j[b]].sum()
                                              * den.scale)
        reps.append(math.log10(dn) - math.log10(dd))
    # same sums; only log10 (numpy against libm) may differ in the last bit
    assert _bootstrap_se(system, num, den, i, j) == pytest.approx(
        float(np.std(reps, ddof=1)), rel=1e-12)


def test_empty_bootstrap_replicate_raises():
    # block 0 holds no matching path; a replicate of only block 0 is empty
    term = _TermEstimate(np.array([0.0, 2.0]), np.array([5.0, 5.0]), 0.1, 2)
    whole = np.array([[0, 1], [1, 0]])
    assert _bootstrap_se(SystemId.CSFLR, term, term, whole, whole) == 0.0
    with pytest.raises(InsufficientPathsError):
        _bootstrap_se(SystemId.CSFLR, term, term, np.zeros((2, 2), int), whole)


@st.composite
def _quartile_samples(draw):
    """n in [1, 2000] float64 samples: normal, or drawn from a pool of a few
    values (ties; one value is a constant sample) that is rich in 0.0 and
    -0.0, then kept as they are, folded to |v| or to -|v|."""
    n = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        loc, scale = draw(st.floats(-5.0, 5.0)), draw(st.floats(1e-3, 1e3))
        samples = rng.normal(loc, scale, n)
    else:
        value = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)
        pool = np.array(draw(st.lists(value, min_size=1, max_size=8)))
        samples = pool[rng.integers(0, len(pool), n)]
    fold = draw(st.sampled_from([None, 1.0, -1.0]))
    return samples if fold is None else fold * np.abs(samples)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_quartile_samples())
@example(np.full(3, -0.0))  # both quartiles halfway between two -0.0
@example(np.array([-0.0]))
@example(np.array([2.0, -1.0]))
def test_quartiles_are_numpys_percentiles(samples):
    # bit for bit, sign of zero too, wherever np.percentile's answer is a
    # function of the values: a sample that holds both 0.0 and -0.0 can put
    # either at a quartile's neighbour, in numpy by the order of the samples
    kept = samples.copy()
    want = np.percentile(samples, [75.0, 25.0])
    got = np.array(_quartiles(samples))
    assert same_bits(samples, kept)
    zeros = np.signbit(samples[samples == 0.0])
    if zeros.any() and not zeros.all():
        assert np.array_equal(got, want)
    else:
        assert same_bits(got, want)


@pytest.mark.parametrize("n", [300_000, 1_000_000])
def test_quartiles_of_path_sized_samples(n):
    # the oracle's own sizes: a kernel sample holds up to n_paths scores,
    # signed, or folded to |score| in an AbsoluteDifference world
    samples = np.random.default_rng(n).normal(0.3, 1.7, n)
    for s in (samples, np.abs(samples)):
        kept = s.copy()
        assert same_bits(np.array(_quartiles(s)), np.percentile(s, [75.0, 25.0]))
        assert same_bits(s, kept)


def test_zero_spread_has_no_bandwidth():
    with pytest.raises(InsufficientPathsError):
        _silverman(np.zeros(100))


def _estimate_bits(est):
    return est.lr, est.se_log10, est.accepted_num, est.accepted_den


@pytest.mark.parametrize("name", ["default_world.json", "abs_world.json"])
def test_shared_bandwidths_give_the_fresh_bank_estimates(monkeypatch, name):
    # views that share a kernel sample share its bandwidth within one call; a
    # key that left out something the sample depends on would hand a view
    # the sample of another, and its estimate would differ from the one it
    # gets alone on a fresh bank
    world = packaged_world(name)
    # few paths keep the fresh banks quick; the wide bin keeps abs_world's
    # CSFLR denominator above MIN_ACCEPTED at that count
    monkeypatch.setattr(oracle, "BIN_WIDTH", 0.3)

    def bank():
        return PathBank(world, 0, 60_000)

    for system in NONTRIVIAL:
        grid = default_evidence_grid(system, world)
        a = grid[4]  # off the grid, next to it: point 4's anchor, another score
        visits = [CaseView(a.x_mean, a.y_mean - 0.05, a.theta_r)
                  if SYSTEMS[system].anchor is AnchorKind.X else
                  CaseView(a.x_mean + 0.05, a.y_mean, a.theta_r)]
        if SYSTEMS[system].specific_source:  # the same point at another theta_r
            visits.append(CaseView(a.x_mean, a.y_mean, a.theta_r + 0.1))
        views = [*grid[:5], *visits, *grid[5:]]
        fresh = [_estimate_bits(estimate_views(system, [v], bank())[0]) for v in views]
        for order in (1, -1):
            grouped = estimate_views(system, views[::order], bank())
            assert [_estimate_bits(e) for e in grouped][::order] == fresh, system


def test_grid_groups_are_runs_of_shared_samples():
    # a feature point reads a bin of its own, an anchored system's row reads
    # one sample per term, and an unanchored score system's grid reads one
    world = make_world()
    groups = grid_groups(world)
    sizes = {s: [len(views) for t, _, views in groups if t is s] for s in NONTRIVIAL}
    for system, got in sizes.items():
        anchor = SYSTEMS[system].anchor
        assert got == ([1] * 9 if system in (SystemId.SSFLR, SystemId.CSFLR) else
                       [9] if anchor is None else [3, 3, 3]), system
    assert len(groups) == 29
    # in order, the groups are every system's grid, and each names its first point
    assert [(s, v) for s, _, views in groups for v in views] == [
        (s, v) for s in NONTRIVIAL for v in default_evidence_grid(s, world)]
    for system, first, views in groups:
        assert default_evidence_grid(system, world)[first] == views[0]


def test_grouped_views_raise_the_first_one_view_error():
    # the anchor at y_mean 30 lies in the tail, where the window holds too
    # few paths: the grouped call raises what that view raises alone, and
    # the views before it are compared as they are one at a time
    world = make_world()
    bank = PathBank(world, 0, 2_000)
    system = SystemId.CSYASLR
    far = CaseView(x_mean=0.0, y_mean=30.0)
    with pytest.raises(InsufficientPathsError) as alone:
        estimate_views(system, [far], bank)[0]
    views = [CaseView(0.1, 0.0), CaseView(0.3, 0.0), far, CaseView(0.2, 30.0)]
    with pytest.raises(InsufficientPathsError) as grouped:
        estimate_views(system, views, bank)
    assert str(grouped.value) == str(alone.value)
    assert compare_views(system, views[:2], bank) == [
        compare_views(system, [v], bank)[0] for v in views[:2]]


def test_points_on_one_bank_share_one_resample():
    world = make_world()
    bank = PathBank(world, 1, 20_000)
    i, j = bank.resamples()
    held = bank._resamples
    assert held.dtype == np.uint8 and held.shape == (2, N_BOOT, N_BLOCKS)
    assert i.dtype == j.dtype == np.intp
    # every point's SE is the bootstrap over that one draw
    for system in (SystemId.CSSLR, SystemId.CSYASLR, SystemId.SSSLR):
        view = default_evidence_grid(system, world)[4]
        (num,) = _term_estimates(system, "num", [view], bank)
        (den,) = _term_estimates(system, "den", [view], bank)
        assert estimate_views(system, [view], bank)[0].se_log10 == _bootstrap_se(
            system, num, den, i, j)
    assert bank._resamples is held
    # drawn as int64 from the bootstrap stream, i first, then j
    gen = np.random.Generator(np.random.Philox(key=int(stream_key(1, 0xB007))))
    for drawn in bank.resamples():
        np.testing.assert_array_equal(
            drawn, gen.integers(0, N_BLOCKS, (N_BOOT, N_BLOCKS)))


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
