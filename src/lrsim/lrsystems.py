"""Closed-form likelihood-ratio engines for the hierarchical Gaussian world.

Eight system classes are implemented, crossed over three design axes:

* specific-source (SS*, the suspect source mean theta_r is known to the
  evaluator) versus common-source (CS*, theta_r is integrated out);
* feature-based (*F*, the evidence is the pair of measurement means) versus
  score-based (*S*, the evidence is collapsed to the comparison score
  delta = x_mean - y_mean, or its absolute value);
* for score systems, unanchored versus anchored on the reference mean
  (*YAS*) or on the trace mean (*XAS*), meaning the score density is
  conditioned on that observed value.

All engines work on measurement means. That is lossless here: the mean is a
sufficient statistic for a Gaussian source mean, and the within-source
residual factor of the full-data density cancels between numerator and
denominator. PriorOnly and SSXASLR both have LR identically one; SSXASLR
because its numerator and denominator describe the same generation path.
Every other engine is a sum of univariate normal (or folded normal)
log-density ratios.

Common-source evaluators never receive theta_r; the asymmetry is structural
in the batch API (a CaseView without theta_r) rather than a convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .genmodel import ConfigError, PopulationModel, ScoreKind, WorldConfig

__all__ = [
    "AnchorKind",
    "CaseView",
    "LR_CLAMP_LOG10",
    "ProfileLr",
    "SystemId",
    "anchor_log_lr_batch",
    "clamp_log10_lr",
    "discrete_profile_lr",
    "log_lr_batch",
    "posterior_from_log10_lr",
]

LOG10_E = math.log10(math.e)
LR_CLAMP_LOG10 = 12.0


class SystemId(str, Enum):
    """The eight LR system classes plus the no-evidence baseline."""

    SSFLR = "SSFLR"
    CSFLR = "CSFLR"
    SSSLR = "SSSLR"
    CSSLR = "CSSLR"
    SSYASLR = "SSYASLR"
    CSYASLR = "CSYASLR"
    SSXASLR = "SSXASLR"
    CSXASLR = "CSXASLR"
    PriorOnly = "PriorOnly"


SPECIFIC_SOURCE = frozenset(
    {SystemId.SSFLR, SystemId.SSSLR, SystemId.SSYASLR, SystemId.SSXASLR})
NONTRIVIAL = tuple(s for s in SystemId
                   if s not in (SystemId.SSXASLR, SystemId.PriorOnly))


class AnchorKind(str, Enum):
    X = "X"   # anchored on the trace measurement mean
    Y = "Y"   # anchored on the reference measurement mean


@dataclass(frozen=True)
class CaseView:
    """Evidence as one system sees it. theta_r is None for CS systems."""

    x_mean: float
    y_mean: float
    theta_r: float | None = None


# ---------------------------------------------------------------------------
# the engines: every LR is a ratio of univariate normal densities

def _norm_logpdf(x, mean, var):
    return -0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var)


def _log_ratio(v, num, den, folded=False):
    """log p_num(v) - log p_den(v) for two (mean, var) normal laws; folded
    takes the laws of |Z| instead, for v >= 0."""
    def logpdf(mean, var):
        if folded:
            return np.logaddexp(_norm_logpdf(v, mean, var),
                                _norm_logpdf(v, -mean, var))
        return _norm_logpdf(v, mean, var)
    return logpdf(*num) - logpdf(*den)


def _mean_law(pop: PopulationModel, var_mean: float):
    """(mean, var) of a measurement mean of variance var_mean taken on a
    source drawn from pop."""
    return pop.mu, var_mean + pop.tau**2


def _source_law(obs, pop: PopulationModel, var_obs: float):
    """(mean, var) of a source mean from pop given one observed mean of it
    with measurement variance var_obs."""
    tau_sq = pop.tau**2
    denom = tau_sq + var_obs
    return (tau_sq * obs + var_obs * pop.mu) / denom, tau_sq * var_obs / denom


def log_lr_batch(
    system: SystemId,
    x_mean: np.ndarray,
    y_mean: np.ndarray,
    world: WorldConfig,
    theta_r: np.ndarray | None = None,
) -> np.ndarray:
    """Natural-log LR of `system` for arrays of evidence.

    theta_r is required for specific-source systems and must be omitted for
    common-source ones; passing it the wrong way round is an error, not a
    silently ignored argument.
    """
    xb = np.asarray(x_mean, dtype=np.float64)
    yb = np.asarray(y_mean, dtype=np.float64)
    needs_r = system in SPECIFIC_SOURCE
    if needs_r and theta_r is None:
        raise ConfigError(f"{system.value} requires theta_r")
    if not needs_r and theta_r is not None:
        raise ConfigError(f"{system.value} must not be given theta_r")
    if system in (SystemId.PriorOnly, SystemId.SSXASLR):
        return np.zeros(np.broadcast(xb, yb).shape, dtype=np.float64)
    th = None if theta_r is None else np.asarray(theta_r, dtype=np.float64)
    st, sr = world.var_trace_mean, world.var_ref_mean
    c, d, t = world.pop_c, world.pop_d, world.pop_t

    # feature systems: the reference factor of SSFLR is shared by both
    # hypotheses and cancels; CSFLR is p(x) p(y | x), the trace-anchor
    # factor times the reference given the trace, a form in which nothing
    # cancels when sigma**2 << tau**2 (the bivariate determinant does)
    if system is SystemId.SSFLR:
        return _log_ratio(xb, (th, st), _mean_law(t, st))
    if system is SystemId.CSFLR:
        m, v = _source_law(xb, c, st)
        lr = _log_ratio(yb, (m, sr + v), _mean_law(d, sr))
        del m  # hold one full-length array fewer while the anchor runs
        lr += anchor_log_lr_batch(xb, AnchorKind.X, world)
        return lr

    # score systems: laws of delta = x - y, conditioned on the anchor if any
    folded = world.score_kind is ScoreKind.AbsoluteDifference
    delta = np.abs(xb - yb) if folded else xb - yb
    if system is SystemId.SSSLR:
        num, den = (0.0, st + sr), (t.mu - th, st + sr + t.tau**2)
    elif system is SystemId.CSSLR:
        num = (0.0, st + sr)
        den = (t.mu - d.mu, st + sr + t.tau**2 + d.tau**2)
    elif system is SystemId.SSYASLR:
        num, den = (th - yb, st), (t.mu - yb, st + t.tau**2)
    elif system is SystemId.CSYASLR:
        m, v = _source_law(yb, c, sr)
        m -= yb  # m becomes the numerator mean: no third full-length array
        num, den = (m, st + v), (t.mu - yb, st + t.tau**2)
    else:  # CSXASLR
        m, v = _source_law(xb, c, st)
        m = xb - m  # likewise
        num, den = (m, sr + v), (xb - d.mu, sr + d.tau**2)
    return _log_ratio(delta, num, den, folded)


# ---------------------------------------------------------------------------
# anchors and posteriors

def anchor_log_lr_batch(values: np.ndarray, kind: AnchorKind, world: WorldConfig) -> np.ndarray:
    """Log LR carried by the anchor observation itself.

    For a Y anchor this is the reference-mean density ratio popC vs popD;
    for an X anchor the trace-mean density ratio popC vs popT. Identically
    zero whenever the two populations coincide (proper conditioning).
    """
    a = np.asarray(values, dtype=np.float64)
    if kind is AnchorKind.Y:
        v, other = world.var_ref_mean, world.pop_d
    else:
        v, other = world.var_trace_mean, world.pop_t
    return _log_ratio(a, _mean_law(world.pop_c, v), _mean_law(other, v))


def posterior_from_log10_lr(log10_lr: np.ndarray, prior_h1: float) -> np.ndarray:
    """Vector posterior via log odds; stable for extreme LR magnitudes."""
    if not (0.0 < prior_h1 < 1.0):
        raise ConfigError(f"prior_h1 must be in (0, 1), got {prior_h1!r}")
    log_odds = np.asarray(log10_lr, dtype=np.float64) / LOG10_E + math.log(
        prior_h1 / (1.0 - prior_h1))
    out = np.empty_like(log_odds, dtype=np.float64)
    pos = log_odds >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-log_odds[pos]))
    enl = np.exp(log_odds[~pos])
    out[~pos] = enl / (1.0 + enl)
    return out


def clamp_log10_lr(log10_lr: np.ndarray) -> tuple[np.ndarray, int]:
    """Clip log10 LR into [-12, 12]; returns the clipped array and how many
    values were actually clipped. Clamping happens before any posterior
    conversion so log scores stay finite."""
    arr = np.asarray(log10_lr, dtype=np.float64)
    n_clamped = int(np.count_nonzero(np.abs(arr) > LR_CLAMP_LOG10))
    return np.clip(arr, -LR_CLAMP_LOG10, LR_CLAMP_LOG10), n_clamped


# ---------------------------------------------------------------------------
# discrete illustration

class ProfileMode(str, Enum):
    SpecificSource = "SpecificSource"
    CommonSource = "CommonSource"


@dataclass(frozen=True)
class ProfileLr:
    term_match: float
    term_rarity: float
    lr: float


def discrete_profile_lr(gamma: float, mode: ProfileMode | str) -> ProfileLr:
    """LR for a matching discrete profile with population frequency gamma.

    Both framings give lr = 1/gamma, but they decompose differently: the
    specific-source rarity term is 1/1 while the common-source one is
    gamma/gamma. The match term is 1/gamma in both.
    """
    mode = ProfileMode(mode)
    if not (0.0 < gamma <= 1.0):
        raise ConfigError(f"gamma must be in (0, 1], got {gamma!r}")
    term_match = 1.0 / gamma
    if mode is ProfileMode.SpecificSource:
        term_rarity = 1.0 / 1.0
    else:
        term_rarity = gamma / gamma
    return ProfileLr(term_match=term_match, term_rarity=term_rarity,
                     lr=term_match * term_rarity)
