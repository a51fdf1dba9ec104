import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from lrsim.genmodel import (
    ConfigError,
    Hypothesis,
    NoiseModel,
    PopulationModel,
    ScenarioKind,
    ScoreKind,
    generate_cases,
)
from lrsim.lrsystems import (
    LOG10_E,
    LR_CLAMP_LOG10,
    NONTRIVIAL,
    SPECIFIC_SOURCE,
    SYSTEMS,
    AnchorKind,
    CaseView,
    ProfileMode,
    SystemId,
    _folded_logpdf,
    anchor_log_lr_batch,
    clamp_log10_lr,
    discrete_profile_lr,
    log_lr_batch,
    posterior_from_log10_lr,
)
from tests.conftest import make_world, packaged_world, same_bits


def _views(world, n, seed=0):
    batch = generate_cases(world, seed, n)
    return batch.x, batch.y, batch.theta_r


def _log10(system, x, y, world, theta=None):
    return log_lr_batch(system, x, y, world, theta_r=theta) * LOG10_E


# ---------------------------------------------------------------------------
# spot values against an independent route (scipy densities)

def test_ssflr_matches_direct_densities():
    w = make_world()
    x = np.array([0.3])
    th = 0.1
    st2 = w.var_trace_mean
    num = stats.norm.pdf(x[0], th, math.sqrt(st2))
    den = stats.norm.pdf(x[0], 1.0, math.sqrt(st2 + 1.0))
    got = _log10(SystemId.SSFLR, x, np.array([0.0]), w, np.array([th]))[0]
    assert got == pytest.approx(math.log10(num / den), rel=1e-12)


def test_csslr_matches_direct_densities():
    w = make_world()
    x, y = np.array([0.4]), np.array([-0.2])
    d = 0.6
    num = stats.norm.pdf(d, 0.0, math.sqrt(0.5))
    den = stats.norm.pdf(d, 1.0, math.sqrt(0.5 + 2.0))
    got = _log10(SystemId.CSSLR, x, y, w)[0]
    assert got == pytest.approx(math.log10(num / den), rel=1e-12)


def test_csflr_matches_bivariate_density():
    w = make_world()
    x, y = np.array([0.7]), np.array([0.1])
    cov = np.array([[1.25, 1.0], [1.0, 1.25]])   # tau_C^2 shared, +s^2 diag
    num = stats.multivariate_normal.pdf([x[0], y[0]], [0.0, 0.0], cov)
    den = (stats.norm.pdf(x[0], 1.0, math.sqrt(1.25))
           * stats.norm.pdf(y[0], 0.0, math.sqrt(1.25)))
    got = _log10(SystemId.CSFLR, x, y, w)[0]
    assert got == pytest.approx(math.log10(num / den), rel=1e-12)


def _folded_pdf(d, mean, var):
    """Density of |Z| at d >= 0 for Z of law (mean, var), from scipy."""
    sd = math.sqrt(var)
    return stats.norm.pdf(d, mean, sd) + stats.norm.pdf(-d, mean, sd)


def test_absolute_score_uses_folded_density():
    # each score system's laws of delta = x - y under both hypotheses,
    # written out from the world (popC = popD = N(0, 1), popT = N(1, 1),
    # measurement-mean variances 0.25), folded at |x - y|; at the second
    # point every mean that depends on the case is negative
    w = make_world(score_kind=ScoreKind.AbsoluteDifference)
    shrink = 1.0 / 1.25                        # tau^2 / (tau^2 + 0.25)
    for x, y, th in [(0.9, 0.1, 0.1), (-0.4, 1.5, 1.2), (2.3, -0.6, 0.4)]:
        d = abs(x - y)
        laws = {
            SystemId.SSSLR: ((0.0, 0.5), (1.0 - th, 1.5)),
            SystemId.CSSLR: ((0.0, 0.5), (1.0, 2.5)),
            SystemId.SSYASLR: ((th - y, 0.25), (1.0 - y, 1.25)),
            SystemId.CSYASLR: ((shrink * y - y, 0.25 + 0.25 * shrink),
                               (1.0 - y, 1.25)),
            SystemId.CSXASLR: ((x - shrink * x, 0.25 + 0.25 * shrink),
                               (x, 1.25)),
        }
        for system, (num, den) in laws.items():
            theta = np.array([th]) if system in SPECIFIC_SOURCE else None
            got = _log10(system, np.array([x]), np.array([y]), w, theta)[0]
            want = math.log10(_folded_pdf(d, *num) / _folded_pdf(d, *den))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14), (system, x)


def test_anchor_lr_matches_direct_densities():
    w = make_world()
    a = 0.6
    sr2 = w.var_ref_mean
    want = (stats.norm.pdf(a, 0.0, math.sqrt(sr2 + 1.0))
            / stats.norm.pdf(a, 0.0, math.sqrt(sr2 + 1.0)))
    got = np.exp(anchor_log_lr_batch(np.array([a]), AnchorKind.Y, w))[0]
    assert got == pytest.approx(want, rel=1e-12)
    st2 = w.var_trace_mean
    want_x = (stats.norm.pdf(a, 0.0, math.sqrt(st2 + 1.0))
              / stats.norm.pdf(a, 1.0, math.sqrt(st2 + 1.0)))
    got_x = np.exp(anchor_log_lr_batch(np.array([a]), AnchorKind.X, w))[0]
    assert got_x == pytest.approx(want_x, rel=1e-12)


# ---------------------------------------------------------------------------
# structural identities

def test_translation_invariance():
    w = make_world()
    shift = 7.3
    w2 = make_world(pop_c=PopulationModel(shift, 1.0),
                    pop_d=PopulationModel(shift, 1.0),
                    pop_t=PopulationModel(1.0 + shift, 1.0))
    x, y, th = _views(w, 500, seed=11)
    for system in NONTRIVIAL:
        t = th if system in SPECIFIC_SOURCE else None
        t2 = th + shift if t is not None else None
        a = _log10(system, x, y, w, t)
        b = _log10(system, x + shift, y + shift, w2, t2)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-11)


def test_reference_anchored_ss_equals_plain_ss():
    w = make_world()
    x, y, th = _views(w, 2_000, seed=1)
    a = _log10(SystemId.SSFLR, x, y, w, th)
    b = _log10(SystemId.SSYASLR, x, y, w, th)
    np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("system,kind,use_x", [
    (SystemId.CSYASLR, AnchorKind.Y, False),
    (SystemId.CSXASLR, AnchorKind.X, True),
])
def test_anchored_times_anchor_equals_joint(system, kind, use_x):
    w = make_world()
    x, y, _ = _views(w, 100, seed=2)
    anchored = _log10(system, x, y, w)
    anchor = anchor_log_lr_batch(x if use_x else y, kind, w) * LOG10_E
    joint = _log10(SystemId.CSFLR, x, y, w)
    rel_err = np.abs(np.expm1((anchored + anchor - joint) / LOG10_E))
    assert rel_err.max() < 1e-9


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(log10_sigma=st.floats(-12.0, 12.0),
       u=st.tuples(*[st.floats(-6.0, 6.0)] * 3),
       k=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
       scenario=st.sampled_from(ScenarioKind),
       score_kind=st.sampled_from(ScoreKind),
       n=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       seed=st.integers(0, 2**32))
def test_lrs_are_finite_and_factor_at_any_noise_to_spread_ratio(
        log10_sigma, u, k, scenario, score_kind, n, seed):
    # each population's tau is sigma * 10**u and its mean k spreads from 0;
    # the scenario then ties the populations it requires to be equal
    sigma = 10.0**log10_sigma
    pop_c, pop_d, pop_t = (
        PopulationModel(ki * math.hypot(sigma, sigma * 10.0**ui),
                        sigma * 10.0**ui) for ui, ki in zip(u, k))
    if scenario is not ScenarioKind.TraceCrimeRelevant:
        pop_d = pop_c
    if scenario is not ScenarioKind.ReferenceCrimeRelevant:
        pop_t = pop_c
    w = make_world(pop_c=pop_c, pop_d=pop_d, pop_t=pop_t,
                   noise=NoiseModel(sigma), scenario=scenario,
                   score_kind=score_kind, n_trace=n[0], n_ref=n[1])
    x, y, th = _views(w, 200, seed=seed)
    lr = {s: log_lr_batch(s, x, y, w, th if s in SPECIFIC_SOURCE else None)
          for s in SystemId}
    for system, v in lr.items():
        assert np.all(np.isfinite(v)), system
    if score_kind is ScoreKind.SignedDifference:
        joint = lr[SystemId.CSFLR]
        bound = 1e-9 * np.maximum(1.0, np.abs(joint))
        via_y = lr[SystemId.CSYASLR] + anchor_log_lr_batch(y, AnchorKind.Y, w)
        via_x = lr[SystemId.CSXASLR] + anchor_log_lr_batch(x, AnchorKind.X, w)
        assert np.all(np.abs(via_y - joint) <= bound)
        assert np.all(np.abs(via_x - joint) <= bound)


def _csflr_reference(x: float, y: float, w) -> float:
    """CSFLR's log LR from the bivariate normal density of (x, y), in 50
    significant digits; the 2*pi factors cancel between the hypotheses."""
    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=50)):
        st_, sr = D(w.var_trace_mean), D(w.var_ref_mean)
        tc, tt, td = (D(p.tau) ** 2 for p in (w.pop_c, w.pop_t, w.pop_d))
        vx, vy = st_ + tc, sr + tc
        det = vx * vy - tc * tc
        dx, dy = D(x) - D(w.pop_c.mu), D(y) - D(w.pop_c.mu)
        quad = (vy * dx * dx - 2 * tc * dx * dy + vx * dy * dy) / det
        vt, vd = st_ + tt, sr + td
        ex, ey = D(x) - D(w.pop_t.mu), D(y) - D(w.pop_d.mu)
        return float((vt.ln() + ex * ex / vt + vd.ln() + ey * ey / vd
                      - det.ln() - quad) / 2)


_PI_50 = decimal.Decimal("3.1415926535897932384626433832795028841971693993751")


def _folded_reference(v: float, m: float, var: float) -> float:
    """log[phi(v; m, var) + phi(v; -m, var)] in 50 significant digits, the
    larger exponent taken out so that neither density underflows."""
    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=50)):
        v_, m_, s2 = D(v), D(m), D(var)
        e1, e2 = (-(v_ - m_) ** 2 / (2 * s2), -(v_ + m_) ** 2 / (2 * s2))
        hi, lo = max(e1, e2), min(e1, e2)
        return float(hi + (1 + (lo - hi).exp()).ln() - (2 * _PI_50 * s2).ln() / 2)


def _folded_points():
    """(v, m, var) with v = 0, m = 0, negative m, var over [1e-6, 1e2] and
    2 v |m| / var over [1e-12, 1e6]."""
    rng = np.random.default_rng(30)
    var = 10.0 ** rng.uniform(-6, 2, 400)
    m = rng.choice([-1.0, 1.0], 400) * np.sqrt(var) * 10.0 ** rng.uniform(-3, 3, 400)
    fold = 10.0 ** rng.uniform(-12, 6, 400)        # 2 v |m| / var
    v = fold * var / (2.0 * np.abs(m))
    edges = [(0.0, 1.3, 0.5), (0.0, -2.0, 1e-6), (0.7, 0.0, 1.0), (0.0, 0.0, 1e2),
             (1e3, -1e-3, 2.0), (1e3, -1e-3, 2e-6)]   # the last two: 1 and 1e6
    return (np.concatenate([v, [e[0] for e in edges]]),
            np.concatenate([m, [e[1] for e in edges]]),
            np.concatenate([var, [e[2] for e in edges]]))


def _within_2e_15(got, want) -> bool:
    want = np.asarray(want)
    return bool(np.all(np.abs(got - want) <= 2e-15 * np.maximum(1.0, np.abs(want))))


def test_folded_logpdf_matches_a_50_digit_reference():
    # the folded term alone, one point at a time and over arrays of v and
    # of means; a fold past -745 underflows exp to 0, which must raise no
    # RuntimeWarning
    v, m, var = _folded_points()
    assert (2.0 * v * np.abs(m) / var).max() > 746.0
    want = np.array([_folded_reference(*p) for p in zip(v, m, var)])
    assert _within_2e_15([_folded_logpdf(*p) for p in zip(v, m, var)], want)
    for s2 in (1e-6, 1.0, 1e2):   # the edge points' variances
        at = var == s2
        assert _within_2e_15(_folded_logpdf(v[at], m[at], s2), want[at])
    grid_v = np.array([0.0, 1e-3, 0.5, 2.0, 40.0])
    for mean in (-3.0, 0.0, np.array([-3.0, -1e-3, 0.0, 0.2, 5.0])):
        ref = [_folded_reference(a, b, 0.3)
               for a, b in zip(grid_v, np.broadcast_to(mean, grid_v.shape))]
        assert _within_2e_15(_folded_logpdf(grid_v, mean, 0.3), ref)


@pytest.mark.parametrize("sigma", [0.5, 1e-2, 1e-4, 1e-6, 1e-8, 1e-12])
def test_csflr_matches_a_50_digit_bivariate_density(default_world, sigma):
    # the bivariate form's determinant cancels when sigma**2 << tau**2;
    # the engine's p(x) p(y | x) has no term that does
    w = dataclasses.replace(default_world, noise=NoiseModel(sigma))
    x, y, _ = _views(w, 200, seed=0)
    got = log_lr_batch(SystemId.CSFLR, x, y, w)
    want = np.array([_csflr_reference(a, b, w) for a, b in zip(x, y)])
    moderate = np.abs(want) <= 30.0
    assert moderate.sum() >= 50
    np.testing.assert_array_less(np.abs(got - want)[moderate], 1e-7)


def test_csslr_depends_only_on_delta():
    w = make_world()
    x, y, _ = _views(w, 200, seed=3)
    a = _log10(SystemId.CSSLR, x, y, w)
    # same difference carried by completely different absolute positions
    b = _log10(SystemId.CSSLR, x - y, np.zeros_like(y), w)
    np.testing.assert_array_equal(a, b)


def test_cs_feature_terms_average_ss_terms_by_quadrature():
    # integrating the known-source joint density over the population of
    # sources must reproduce the closed common-source numerator
    w = make_world()
    rng = np.random.default_rng(4)
    st = math.sqrt(w.var_trace_mean)
    sr = math.sqrt(w.var_ref_mean)
    for _ in range(100):
        xv = float(rng.normal(0.0, 1.2))
        yv = float(rng.normal(0.0, 1.2))
        num_quad, _ = integrate.quad(
            lambda t: (stats.norm.pdf(xv, t, st) * stats.norm.pdf(yv, t, sr)
                       * stats.norm.pdf(t, 0.0, 1.0)),
            -9, 9, epsabs=0.0, epsrel=1e-10, limit=200)
        cov = np.array([[1.25, 1.0], [1.0, 1.25]])
        num_closed = stats.multivariate_normal.pdf([xv, yv], [0.0, 0.0], cov)
        assert abs(num_quad / num_closed - 1.0) < 1e-6
        # and the full LR agrees with the engine through the same route
        den = (stats.norm.pdf(xv, 1.0, math.sqrt(1.25))
               * stats.norm.pdf(yv, 0.0, math.sqrt(1.25)))
        got = _log10(SystemId.CSFLR, np.array([xv]), np.array([yv]), w)[0]
        rel = abs(math.expm1((got - math.log10(num_quad / den)) / LOG10_E))
        assert rel < 1e-6


def test_reference_anchored_cs_approaches_ss_with_many_reference_measurements():
    # with enough reference measurements the source posterior collapses
    # onto the suspect source and the CS anchored system converges to the
    # SS one; the gap should shrink roughly with the reference variance
    gaps = []
    for n_ref in (2_500, 250_000):
        w = make_world(n_ref=n_ref)
        batch = generate_cases(w, 5, 200)
        cs = _log10(SystemId.CSYASLR, batch.x, batch.y, w)
        ss = _log10(SystemId.SSYASLR, batch.x, batch.y, w,
                    batch.theta_r)
        gaps.append(np.abs(cs - ss).max())
    assert gaps[0] < 0.2
    assert gaps[1] < gaps[0] / 5
    assert gaps[1] < 2e-2


# ---------------------------------------------------------------------------
# access control and trivial systems

def test_ss_requires_source_parameter():
    w = make_world()
    x, y, th = _views(w, 10)
    for system in SPECIFIC_SOURCE:
        with pytest.raises(ConfigError):
            log_lr_batch(system, x, y, w)


def test_cs_refuses_source_parameter():
    w = make_world()
    x, y, th = _views(w, 10)
    for system in (SystemId.CSFLR, SystemId.CSSLR, SystemId.CSYASLR,
                   SystemId.CSXASLR):
        with pytest.raises(ConfigError):
            log_lr_batch(system, x, y, w, theta_r=th)


def test_engines_refuse_a_member_s_value():
    # a str Enum matches its value under `in` but not under `is`: "CSSLR"
    # once fell through to the last branch and gave CSXASLR's LRs, and "Y"
    # gave the X anchor's
    w = make_world()
    x, y, th = _views(w, 10)
    for system in SystemId:
        with pytest.raises(ConfigError, match=f"^system must be a SystemId, "
                           f"got '{system.value}'$"):
            log_lr_batch(system.value, x, y, w,
                         theta_r=th if system in SPECIFIC_SOURCE else None)
    for kind in AnchorKind:
        with pytest.raises(ConfigError, match=f"^kind must be an AnchorKind, "
                           f"got '{kind.value}'$"):
            anchor_log_lr_batch(x, kind.value, w)


def test_system_table_agrees_with_the_system_names():
    # SS* is specific-source, *YAS*/*XAS* anchor on y/x, and the two
    # systems with LR one have nothing to field
    assert set(SYSTEMS) == set(SystemId)
    assert SPECIFIC_SOURCE == {s for s in SystemId if s.value.startswith("SS")}
    for system, row in SYSTEMS.items():
        kind = system.value[2] if system.value.endswith("ASLR") else None
        assert row.anchor == (AnchorKind(kind) if kind else None), system
    assert NONTRIVIAL == tuple(s for s in SystemId
                               if s not in (SystemId.SSXASLR, SystemId.PriorOnly))
    assert [s for s, row in SYSTEMS.items() if row.averaged_out is None] == [
        SystemId.SSXASLR]


def test_trace_anchored_ss_is_unit_lr():
    w = make_world()
    x, y, th = _views(w, 10_000, seed=6)
    lr = np.exp(log_lr_batch(SystemId.SSXASLR, x, y, w, theta_r=th))
    assert np.all(lr == 1.0)


def test_prior_only_is_unit_lr():
    w = make_world()
    x, y, _ = _views(w, 100)
    assert np.all(log_lr_batch(SystemId.PriorOnly, x, y, w) == 0.0)


def test_log_lr_batch_on_one_case():
    # one case as Python floats, the way the oracle comparison reads a
    # CaseView, against the same case as one-element arrays, for every
    # system in each packaged world: numpy's scalar and vector loops must
    # give the same bits
    for name in ("default_world.json", "abs_world.json", "illcond_world.json"):
        w = packaged_world(name)
        batch = generate_cases(w, 8, 500)
        for system in SystemId:
            specific = system in SPECIFIC_SOURCE
            want = log_lr_batch(system, batch.x, batch.y, w,
                                theta_r=batch.theta_r if specific else None)
            for i in range(len(batch)):
                view = CaseView(x_mean=float(batch.x[i]), y_mean=float(batch.y[i]),
                                theta_r=float(batch.theta_r[i]) if specific else None)
                got = log_lr_batch(system, view.x_mean, view.y_mean, w,
                                   theta_r=view.theta_r)
                one = log_lr_batch(system, batch.x[i:i + 1], batch.y[i:i + 1], w,
                                   theta_r=batch.theta_r[i:i + 1] if specific else None)
                assert np.shape(got) == () and one.shape == (1,)
                assert same_bits(np.float64(got), one[0]), (name, system, i)
                assert same_bits(one[0], want[i]), (name, system, i)
    view = CaseView(x_mean=float(batch.x[1]), y_mean=float(batch.y[1]))
    with pytest.raises(ConfigError):
        log_lr_batch(SystemId.SSFLR, view.x_mean, view.y_mean, w)


# ---------------------------------------------------------------------------
# posterior plumbing

def test_posterior_algebra():
    unit = posterior_from_log10_lr(np.array([0.0]), 0.3)[0]
    assert unit == pytest.approx(0.3, rel=1e-14)
    four = posterior_from_log10_lr(np.array([math.log10(4.0)]), 0.5)[0]
    assert four == pytest.approx(0.8, rel=1e-14)
    rng = np.random.default_rng(0)
    for _ in range(50):
        lr = float(rng.lognormal(0, 2))
        pr = float(rng.uniform(0.05, 0.95))
        want = lr * pr / (lr * pr + 1.0 - pr)
        got = posterior_from_log10_lr(np.array([math.log10(lr)]), pr)[0]
        assert got == pytest.approx(want, rel=1e-12)


def test_posterior_is_stable_at_extremes():
    p = posterior_from_log10_lr(np.array([-300.0, 300.0]), 0.5)
    assert np.all(np.isfinite(p))
    assert 0.0 <= p[0] < 1e-250
    assert p[1] == 1.0


def test_posterior_rejects_bad_inputs():
    for prior in (0.0, 1.0, -0.5):
        with pytest.raises(ConfigError):
            posterior_from_log10_lr(np.array([0.0]), prior)


def _select_posterior(log10_lr, prior_h1):
    """The posterior as it was computed before the branch-free form: both
    quotients built, then one selected per case. Kept as its reference."""
    log_odds = np.asarray(log10_lr, dtype=np.float64) / LOG10_E + math.log(
        prior_h1 / (1.0 - prior_h1))
    e = np.exp(-np.abs(log_odds))
    d = 1.0 + e
    return np.where(log_odds >= 0, 1.0 / d, e / d)


_EDGE_LOG10_LRS = [0.0, -0.0, 12.0, -12.0, math.inf, -math.inf, math.nan]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log10_lr=st.lists(st.floats(-300.0, 300.0), max_size=40),
       prior_h1=st.floats(1e-12, 1.0 - 1e-12))
def test_posterior_matches_the_select_form_bit_for_bit(log10_lr, prior_h1):
    arr = np.array(log10_lr + _EDGE_LOG10_LRS)
    before = arr.copy()
    got = posterior_from_log10_lr(arr, prior_h1)
    assert same_bits(got, _select_posterior(arr, prior_h1))
    assert same_bits(arr, before)  # the caller's array is not written
    assert same_bits(posterior_from_log10_lr(arr[1], prior_h1),
                     _select_posterior(arr[1], prior_h1))  # 0-d input


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(log10_lr=st.lists(st.floats(-30.0, 30.0), max_size=40))
def test_clamp_count_is_the_count_outside_twelve(log10_lr):
    arr = np.array(log10_lr + _EDGE_LOG10_LRS + [12.5, -12.5])
    assert clamp_log10_lr(arr)[1] == np.count_nonzero(np.abs(arr) > LR_CLAMP_LOG10)


def test_clamp_counts_and_bounds():
    arr = np.array([-20.0, -12.0, 0.0, 11.9, 15.0])
    clipped, n = clamp_log10_lr(arr)
    assert n == 2
    assert clipped.max() == LR_CLAMP_LOG10
    assert clipped.min() == -LR_CLAMP_LOG10
    np.testing.assert_array_equal(clipped[1:4], arr[1:4])


# ---------------------------------------------------------------------------
# the discrete illustration

@pytest.mark.parametrize("gamma", [0.5, 0.1, 0.01])
def test_discrete_profile_lr_decompositions(gamma):
    ss = discrete_profile_lr(gamma, ProfileMode.SpecificSource)
    cs = discrete_profile_lr(gamma, ProfileMode.CommonSource)
    assert ss.lr == pytest.approx(1.0 / gamma, rel=1e-12)
    assert cs.lr == pytest.approx(1.0 / gamma, rel=1e-12)
    assert ss.term_match == pytest.approx(1.0 / gamma)
    assert ss.term_rarity == 1.0
    assert cs.term_match == pytest.approx(1.0 / gamma)
    assert cs.term_rarity == 1.0  # gamma/gamma


def test_discrete_profile_rejects_bad_gamma():
    for gamma in (0.0, -0.5, 1.5):
        with pytest.raises(ConfigError):
            discrete_profile_lr(gamma, ProfileMode.SpecificSource)


@pytest.mark.parametrize("mode", [*(m.value for m in ProfileMode), "Specific", None])
def test_discrete_profile_refuses_anything_but_a_profile_mode(mode):
    # a member's value was once coerced, and an unknown string raised ValueError
    with pytest.raises(ConfigError, match=f"^mode must be a ProfileMode, got {mode!r}$"):
        discrete_profile_lr(0.5, mode)
