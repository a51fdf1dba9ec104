import math

import numpy as np
import pytest

from lrsim.genmodel import ConfigError, ScoreKind
from lrsim.lrsystems import (
    LOG10_E,
    NONTRIVIAL,
    SPECIFIC_SOURCE,
    CaseView,
    SystemId,
    log_lr_batch,
)
from lrsim.oracle import (
    RECIPES,
    InsufficientPathsError,
    PathBank,
    PathOracleConfig,
    _TermEstimate,
    _bootstrap_se,
    _estimate_term,
    _silverman,
    _term_samples,
    compare_closed_vs_oracle,
    default_evidence_grid,
    path_oracle,
)
from tests.conftest import make_world

FAST = PathOracleConfig(n_paths=200_000)


def _closed_log10(system, view, world):
    theta = (np.array([view.theta_r]) if system in SPECIFIC_SOURCE else None)
    return float(log_lr_batch(system, np.array([view.x_mean]),
                              np.array([view.y_mean]), world,
                              theta_r=theta)[0]) * LOG10_E


@pytest.mark.parametrize("system", sorted(NONTRIVIAL, key=lambda s: s.value))
def test_oracle_tracks_closed_form(system):
    world = make_world()
    view = default_evidence_grid(system, world)[4]
    comp = compare_closed_vs_oracle(system, view, world, FAST, seed=0)
    # 4 SE at desk scale keeps the rate of false alarms negligible while
    # still catching any recipe that samples the wrong distribution
    assert comp.abs_diff_log10 < max(4.0 * comp.se_log10, 0.02)


def test_unit_lr_system_oracle_is_near_one():
    world = make_world()
    view = CaseView(x_mean=0.4, y_mean=0.1, theta_r=0.2)
    est = path_oracle(SystemId.SSXASLR, view, world,
                      PathOracleConfig(n_paths=100_000), seed=0)
    assert 0.8 < est.lr < 1.25


def test_oracle_is_deterministic():
    world = make_world()
    view = default_evidence_grid(SystemId.CSSLR, world)[3]
    a = path_oracle(SystemId.CSSLR, view, world, FAST, seed=9)
    b = path_oracle(SystemId.CSSLR, view, world, FAST, seed=9)
    assert a.log10_lr == b.log10_lr
    assert a.se_log10 == b.se_log10


def test_oracle_seed_changes_draws():
    world = make_world()
    view = default_evidence_grid(SystemId.CSSLR, world)[3]
    a = path_oracle(SystemId.CSSLR, view, world, FAST, seed=1)
    b = path_oracle(SystemId.CSSLR, view, world, FAST, seed=2)
    assert a.log10_lr != b.log10_lr


def test_feature_bin_width_insensitivity():
    world = make_world()
    view = default_evidence_grid(SystemId.CSFLR, world)[4]
    wide = path_oracle(SystemId.CSFLR, view, world,
                       PathOracleConfig(n_paths=400_000, bin_width=0.1), seed=3)
    narrow = path_oracle(SystemId.CSFLR, view, world,
                         PathOracleConfig(n_paths=400_000, bin_width=0.05),
                         seed=3)
    se = np.hypot(wide.se_log10, narrow.se_log10)
    assert abs(wide.log10_lr - narrow.log10_lr) < max(4.0 * se, 0.05)


def test_anchor_tolerance_insensitivity():
    world = make_world()
    view = default_evidence_grid(SystemId.CSYASLR, world)[4]
    loose = path_oracle(SystemId.CSYASLR, view, world,
                        PathOracleConfig(n_paths=400_000,
                                         anchor_tolerance=0.05), seed=4)
    tight = path_oracle(SystemId.CSYASLR, view, world,
                        PathOracleConfig(n_paths=400_000,
                                         anchor_tolerance=0.025), seed=4)
    se = np.hypot(loose.se_log10, tight.se_log10)
    assert abs(loose.log10_lr - tight.log10_lr) < max(4.0 * se, 0.05)


def test_absolute_score_oracle():
    world = make_world(score_kind=ScoreKind.AbsoluteDifference)
    view = CaseView(x_mean=0.9, y_mean=0.2)
    comp = compare_closed_vs_oracle(SystemId.CSSLR, view, world, FAST, seed=5)
    assert comp.abs_diff_log10 < max(4.0 * comp.se_log10, 0.02)


def test_insufficient_accepted_paths_raises():
    world = make_world()
    # an anchor far in the tail leaves nothing inside the window
    view = CaseView(x_mean=0.0, y_mean=30.0)
    cfg = PathOracleConfig(n_paths=2_000)
    with pytest.raises(InsufficientPathsError):
        path_oracle(SystemId.CSYASLR, view, world, cfg, seed=0)


def test_path_oracle_lr_matches_closed_form():
    world = make_world()
    view = CaseView(x_mean=0.3, y_mean=0.1)
    lr = path_oracle(SystemId.CSSLR, view, world, FAST, seed=6).lr
    closed = 10.0 ** _closed_log10(SystemId.CSSLR, view, world)
    assert lr == pytest.approx(closed, rel=0.15)


def test_oracle_estimate_fields():
    world = make_world()
    view = default_evidence_grid(SystemId.SSSLR, world)[0]
    est = path_oracle(SystemId.SSSLR, view, world, FAST, seed=7)
    assert est.n_paths == FAST.n_paths
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
    with pytest.raises(ConfigError):
        PathOracleConfig(n_paths=10).validate()
    with pytest.raises(ConfigError):
        PathOracleConfig(bin_width=0.0).validate()
    with pytest.raises(ConfigError):
        PathOracleConfig(anchor_tolerance=-1.0).validate()


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
    world = make_world()
    view = default_evidence_grid(system, world)[4]
    cfg = PathOracleConfig(n_paths=1_000)
    read = {}
    for term in ("num", "den"):
        bank = _RecordingBank(world, 0, cfg.n_paths)
        _term_samples(system, term, view, cfg, bank)
        read[term] = bank.read
    assert read["num"] and read["den"]
    assert not read["num"] & read["den"]


def test_vectorised_bootstrap_matches_a_loop():
    world = make_world()
    system = SystemId.CSYASLR
    view = default_evidence_grid(system, world)[4]
    cfg = PathOracleConfig(n_paths=20_000, n_blocks=50, n_boot=100)
    bank = PathBank(world, 3, cfg.n_paths)
    num = _estimate_term(system, "num", view, world, cfg, bank)
    den = _estimate_term(system, "den", view, world, cfg, bank)
    rng = np.random.default_rng(1)
    i = rng.integers(0, 50, (100, 50))
    j = rng.integers(0, 50, (100, 50))
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


def test_zero_spread_has_no_bandwidth():
    with pytest.raises(InsufficientPathsError):
        _silverman(np.zeros(100))


def test_bank_must_match_world_seed_and_paths():
    world = make_world()
    view = default_evidence_grid(SystemId.CSSLR, world)[4]
    bank = PathBank(world, 1, FAST.n_paths)
    shared = path_oracle(SystemId.CSSLR, view, world, FAST, seed=1, bank=bank)
    private = path_oracle(SystemId.CSSLR, view, world, FAST, seed=1)
    assert shared == private
    for seed, n_paths in ((2, FAST.n_paths), (1, FAST.n_paths + 1)):
        with pytest.raises(ValueError):
            path_oracle(SystemId.CSSLR, view, world,
                        PathOracleConfig(n_paths=n_paths), seed=seed, bank=bank)
