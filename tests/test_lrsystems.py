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
    AnchorKind,
    CaseView,
    ProfileMode,
    SystemId,
    anchor_log_lr_batch,
    clamp_log10_lr,
    discrete_profile_lr,
    log_lr_batch,
    posterior_from_log10_lr,
)
from tests.conftest import make_world


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


def test_absolute_score_uses_folded_density():
    w = make_world(score_kind=ScoreKind.AbsoluteDifference)
    x, y = np.array([0.9]), np.array([0.1])
    d = 0.8
    num = (stats.norm.pdf(d, 0.0, math.sqrt(0.5))
           + stats.norm.pdf(-d, 0.0, math.sqrt(0.5)))
    den = (stats.norm.pdf(d, 1.0, math.sqrt(2.5))
           + stats.norm.pdf(-d, 1.0, math.sqrt(2.5)))
    got = _log10(SystemId.CSSLR, x, y, w)[0]
    assert got == pytest.approx(math.log10(num / den), rel=1e-12)


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


@pytest.mark.parametrize("sigma", [0.5, 1e-2, 1e-4, 1e-6, 1e-8, 1e-12])
def test_csflr_matches_a_50_digit_bivariate_density(default_world, sigma):
    # the bivariate form's determinant cancels when sigma**2 << tau**2;
    # the engine's p(x) p(y | x) has no term that does
    w = dataclasses.replace(default_world, noise=NoiseModel(sigma)).validate()
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
    # one case as scalars, the way the oracle comparison reads a CaseView
    w = make_world()
    batch = generate_cases(w, 8, 3)
    view = CaseView(x_mean=float(batch.x[1]), y_mean=float(batch.y[1]))
    got = float(_log10(SystemId.CSFLR, view.x_mean, view.y_mean, w))
    want = _log10(SystemId.CSFLR, batch.x[1:2], batch.y[1:2], w)[0]
    assert got == pytest.approx(want, rel=1e-12)
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
