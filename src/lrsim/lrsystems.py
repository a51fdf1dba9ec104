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

Common-source evaluators never receive theta_r; the asymmetry is structural
in the batch API (a CaseView without theta_r) rather than a convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .genmodel import ConfigError, ScoreKind, WorldConfig

__all__ = [
    "AnchorKind",
    "CaseView",
    "LR_CLAMP_LOG10",
    "PathOracleConfig",
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


@dataclass(frozen=True)
class PathOracleConfig:
    """Tuning of the sampling-path oracle (see lrsim.oracle)."""

    n_paths: int = 10**6
    bin_width: float = 0.1
    anchor_tolerance: float = 0.05
    bandwidth_factor: float | None = None  # None means Silverman's rule as is
    n_blocks: int = 200
    n_boot: int = 400
    min_accepted: int = 50

    def validate(self) -> "PathOracleConfig":
        if self.n_paths < 10**3:
            raise ConfigError(f"n_paths must be >= 1000, got {self.n_paths}")
        if not self.bin_width > 0:
            raise ConfigError(f"bin_width must be > 0, got {self.bin_width}")
        if not self.anchor_tolerance > 0:
            raise ConfigError(
                f"anchor_tolerance must be > 0, got {self.anchor_tolerance}")
        if self.bandwidth_factor is not None and not self.bandwidth_factor > 0:
            raise ConfigError(
                f"bandwidth_factor must be > 0, got {self.bandwidth_factor}")
        return self


# ---------------------------------------------------------------------------
# density helpers (log domain throughout)

def _norm_logpdf(x, mean, var):
    return -0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var)


def _folded_logpdf(d, mean, var):
    """Density of |Z| at d >= 0 for Z ~ Normal(mean, var)."""
    return np.logaddexp(_norm_logpdf(d, mean, var), _norm_logpdf(d, -mean, var))


def _score_logpdf(d, mean, var, kind: ScoreKind):
    if kind is ScoreKind.AbsoluteDifference:
        return _folded_logpdf(d, mean, var)
    return _norm_logpdf(d, mean, var)


def _bvn_logpdf(x, y, mx, my, vx, vy, cov):
    det = vx * vy - cov * cov
    dx = x - mx
    dy = y - my
    quad = (vy * dx * dx - 2.0 * cov * dx * dy + vx * dy * dy) / det
    return -0.5 * (np.log(4.0 * np.pi * np.pi * det) + quad)


def _posterior_given_obs(obs, mu0, tau_sq, obs_var):
    """Normal posterior of a source mean given one observed mean of it."""
    denom = tau_sq + obs_var
    m = (tau_sq * obs + obs_var * mu0) / denom
    v = tau_sq * obs_var / denom
    return m, v


# ---------------------------------------------------------------------------
# the eight engines, vectorised

def _ll_ssflr(xb, yb, th, w: WorldConfig):
    # reference factor is shared by both hypotheses and cancels
    st = w.var_trace_mean
    num = _norm_logpdf(xb, th, st)
    den = _norm_logpdf(xb, w.pop_t.mu, st + w.pop_t.tau**2)
    return num - den


def _ll_csflr(xb, yb, th, w: WorldConfig):
    st, sr = w.var_trace_mean, w.var_ref_mean
    tc2 = w.pop_c.tau**2
    num = _bvn_logpdf(xb, yb, w.pop_c.mu, w.pop_c.mu, st + tc2, sr + tc2, tc2)
    den = (_norm_logpdf(xb, w.pop_t.mu, st + w.pop_t.tau**2)
           + _norm_logpdf(yb, w.pop_d.mu, sr + w.pop_d.tau**2))
    return num - den


def _ll_ssslr(xb, yb, th, w: WorldConfig):
    st, sr = w.var_trace_mean, w.var_ref_mean
    d = _delta(xb, yb, w)
    num = _score_logpdf(d, 0.0, st + sr, w.score_kind)
    den = _score_logpdf(d, w.pop_t.mu - th, st + sr + w.pop_t.tau**2, w.score_kind)
    return num - den


def _ll_csslr(xb, yb, th, w: WorldConfig):
    st, sr = w.var_trace_mean, w.var_ref_mean
    d = _delta(xb, yb, w)
    num = _score_logpdf(d, 0.0, st + sr, w.score_kind)
    den = _score_logpdf(d, w.pop_t.mu - w.pop_d.mu,
                        st + sr + w.pop_t.tau**2 + w.pop_d.tau**2, w.score_kind)
    return num - den


def _ll_ssyaslr(xb, yb, th, w: WorldConfig):
    st = w.var_trace_mean
    d = _delta(xb, yb, w)
    num = _score_logpdf(d, th - yb, st, w.score_kind)
    den = _score_logpdf(d, w.pop_t.mu - yb, st + w.pop_t.tau**2, w.score_kind)
    return num - den


def _ll_csyaslr(xb, yb, th, w: WorldConfig):
    st, sr = w.var_trace_mean, w.var_ref_mean
    d = _delta(xb, yb, w)
    m, v = _posterior_given_obs(yb, w.pop_c.mu, w.pop_c.tau**2, sr)
    num = _score_logpdf(d, m - yb, st + v, w.score_kind)
    den = _score_logpdf(d, w.pop_t.mu - yb, st + w.pop_t.tau**2, w.score_kind)
    return num - den


def _ll_csxaslr(xb, yb, th, w: WorldConfig):
    st, sr = w.var_trace_mean, w.var_ref_mean
    d = _delta(xb, yb, w)
    m, v = _posterior_given_obs(xb, w.pop_c.mu, w.pop_c.tau**2, st)
    num = _score_logpdf(d, xb - m, sr + v, w.score_kind)
    den = _score_logpdf(d, xb - w.pop_d.mu, sr + w.pop_d.tau**2, w.score_kind)
    return num - den


def _delta(xb, yb, w: WorldConfig):
    d = xb - yb
    if w.score_kind is ScoreKind.AbsoluteDifference:
        d = np.abs(d)
    return d


_ENGINES = {
    SystemId.SSFLR: _ll_ssflr,
    SystemId.CSFLR: _ll_csflr,
    SystemId.SSSLR: _ll_ssslr,
    SystemId.CSSLR: _ll_csslr,
    SystemId.SSYASLR: _ll_ssyaslr,
    SystemId.CSYASLR: _ll_csyaslr,
    SystemId.CSXASLR: _ll_csxaslr,
}


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
    fn = _ENGINES[system]
    th = None if theta_r is None else np.asarray(theta_r, dtype=np.float64)
    return fn(xb, yb, th, world)


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
        v = world.var_ref_mean
        num = _norm_logpdf(a, world.pop_c.mu, v + world.pop_c.tau**2)
        den = _norm_logpdf(a, world.pop_d.mu, v + world.pop_d.tau**2)
    else:
        v = world.var_trace_mean
        num = _norm_logpdf(a, world.pop_c.mu, v + world.pop_c.tau**2)
        den = _norm_logpdf(a, world.pop_t.mu, v + world.pop_t.tau**2)
    return num - den


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
