"""Sampling-path oracle: estimate every system's LR by literally running it.

Each system's numerator and denominator describe a generation recipe for
evidence under one hypothesis. The oracle executes those recipes path by
path and turns the simulated evidence into a density estimate at the
observed case:

* feature systems match simulated measurement-mean pairs inside a square
  bin around the observed pair;
* unanchored score systems put a Gaussian kernel density over the simulated
  scores (with reflection at zero when scores are absolute differences);
* anchored score systems first keep only the paths whose anchor lands
  within a hard tolerance window of the observed anchor, then apply the
  kernel density to the surviving scores.

The ratio of the two density estimates is the oracle LR. It shares no code
with the closed forms in lrsim.lrsystems, which is the point: the two
routes validate each other. A block bootstrap over contiguous path blocks
supplies the standard error of log10(LR).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .genmodel import ScoreKind, WorldConfig
from .kernels import stream_key
from .lrsystems import (
    CaseView,
    PathOracleConfig,
    SystemId,
    evaluate,
    SPECIFIC_SOURCE,
)

__all__ = [
    "InsufficientPathsError",
    "OracleComparison",
    "OracleEstimate",
    "compare_closed_vs_oracle",
    "default_evidence_grid",
    "path_oracle",
    "path_oracle_lr",
]


class InsufficientPathsError(RuntimeError):
    """Too few paths matched the observed evidence to estimate a density."""


@dataclass(frozen=True)
class OracleEstimate:
    system: SystemId
    lr: float
    log10_lr: float
    se_log10: float
    n_paths: int
    accepted_num: int
    accepted_den: int


@dataclass(frozen=True)
class OracleComparison:
    system: SystemId
    view: CaseView
    closed_log10: float
    oracle_log10: float
    se_log10: float
    abs_diff_log10: float

    @property
    def within_3se(self) -> bool:
        return self.abs_diff_log10 < 3.0 * self.se_log10


def _normal_fields(key: np.uint64, n: int, k: int) -> list[np.ndarray]:
    """k independent arrays of n standard normals from one stream."""
    return [kernels.normals(key, 2 * n * i, n) for i in range(k)]


def _term_samples(system: SystemId, term: str, view: CaseView,
                  world: WorldConfig, cfg: PathOracleConfig, key: np.uint64):
    """Run the generation recipe of one term.

    Returns ("xy", xb, yb) for feature systems or ("delta", deltas, accept)
    where accept is a boolean mask (None when the recipe has no anchor
    window).
    """
    n = cfg.n_paths
    mc, tc = world.pop_c.mu, world.pop_c.tau
    md, td = world.pop_d.mu, world.pop_d.tau
    mt, tt = world.pop_t.mu, world.pop_t.tau
    st = world.noise.sigma / math.sqrt(world.n_trace)
    sr = world.noise.sigma / math.sqrt(world.n_ref)
    th = view.theta_r
    num = term == "num"

    if system is SystemId.SSFLR or system is SystemId.SSSLR:
        if num:
            z1, z2 = _normal_fields(key, n, 2)
            xb = th + st * z1
            yb = th + sr * z2
        else:
            z0, z1, z2 = _normal_fields(key, n, 3)
            xb = (mt + tt * z0) + st * z1
            yb = th + sr * z2
        if system is SystemId.SSFLR:
            return "xy", xb, yb
        return "delta", xb - yb, None

    if system is SystemId.CSFLR or system is SystemId.CSSLR:
        if num:
            z0, z1, z2 = _normal_fields(key, n, 3)
            r = mc + tc * z0
            xb = r + st * z1
            yb = r + sr * z2
        else:
            z0, z0b, z1, z2 = _normal_fields(key, n, 4)
            xb = (mt + tt * z0) + st * z1
            yb = (md + td * z0b) + sr * z2
        if system is SystemId.CSFLR:
            return "xy", xb, yb
        return "delta", xb - yb, None

    if system is SystemId.SSYASLR:
        if num:
            (z1,) = _normal_fields(key, n, 1)
            xb = th + st * z1
        else:
            z0, z1 = _normal_fields(key, n, 2)
            xb = (mt + tt * z0) + st * z1
        return "delta", xb - view.y_mean, None

    if system is SystemId.CSYASLR:
        if num:
            z0, z1, z2 = _normal_fields(key, n, 3)
            r = mc + tc * z0
            xb = r + st * z1
            yb = r + sr * z2
            accept = np.abs(yb - view.y_mean) <= cfg.anchor_tolerance
            return "delta", xb - view.y_mean, accept
        z0, z1 = _normal_fields(key, n, 2)
        xb = (mt + tt * z0) + st * z1
        return "delta", xb - view.y_mean, None

    if system is SystemId.CSXASLR:
        if num:
            z0, z1, z2 = _normal_fields(key, n, 3)
            r = mc + tc * z0
            xb = r + st * z1
            yb = r + sr * z2
            accept = np.abs(xb - view.x_mean) <= cfg.anchor_tolerance
            return "delta", view.x_mean - yb, accept
        z0, z2 = _normal_fields(key, n, 2)
        yb = (md + td * z0) + sr * z2
        return "delta", view.x_mean - yb, None

    if system is SystemId.SSXASLR:
        # numerator and denominator paths are the same recipe; only the
        # stream key differs, so the ratio hovers at one
        (z2,) = _normal_fields(key, n, 1)
        yb = th + sr * z2
        return "delta", view.x_mean - yb, None

    raise ValueError(f"no sampling recipe for {system!r}")


def _silverman(samples: np.ndarray, factor: float | None) -> float:
    sd = float(np.std(samples))
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    spread = min(sd, (q75 - q25) / 1.349) or sd
    h = 0.9 * spread * samples.shape[0] ** (-0.2)
    if factor is not None:
        h *= factor
    if not h > 0:
        raise InsufficientPathsError(
            "degenerate sample spread, kernel bandwidth would be zero")
    return h


@dataclass
class _TermEstimate:
    """Contributions and normalisers per bootstrap block, plus the scale."""

    block_contrib: np.ndarray
    block_norm: np.ndarray
    scale: float
    accepted: int

    @property
    def density(self) -> float:
        return float(self.block_contrib.sum()
                     / (self.block_norm.sum() * self.scale))


def _block_edges(n: int, n_blocks: int) -> np.ndarray:
    n_blocks = max(1, min(n_blocks, n))
    return (np.arange(n_blocks, dtype=np.int64) * n) // n_blocks


def _estimate_term(system, term, view, world, cfg, key) -> _TermEstimate:
    kind, *data = _term_samples(system, term, view, world, cfg, key)
    n = cfg.n_paths
    edges = _block_edges(n, cfg.n_blocks)
    ones = np.ones(n, dtype=np.float64)

    if kind == "xy":
        xb, yb = data
        half = cfg.bin_width / 2.0
        inside = ((np.abs(xb - view.x_mean) <= half)
                  & (np.abs(yb - view.y_mean) <= half))
        count = int(np.count_nonzero(inside))
        if count < cfg.min_accepted:
            raise InsufficientPathsError(
                f"{system.value} {term}: only {count} paths inside the "
                f"evidence bin (need {cfg.min_accepted}); widen bin_width or "
                f"raise n_paths")
        contrib = np.add.reduceat(inside.astype(np.float64), edges)
        norm = np.add.reduceat(ones, edges)
        return _TermEstimate(contrib, norm, cfg.bin_width**2, count)

    deltas, accept = data
    target = view.x_mean - view.y_mean
    reflect = world.score_kind is ScoreKind.AbsoluteDifference
    if reflect:
        deltas = np.abs(deltas)
        target = abs(target)
    if accept is None:
        kept = deltas
        accepted = n
        weights = ones
    else:
        kept = deltas[accept]
        accepted = int(kept.shape[0])
        if accepted < cfg.min_accepted:
            raise InsufficientPathsError(
                f"{system.value} {term}: only {accepted} paths accepted in "
                f"the anchor window (need {cfg.min_accepted}); widen "
                f"anchor_tolerance or raise n_paths")
        weights = accept.astype(np.float64)
    h = _silverman(kept, cfg.bandwidth_factor)
    z = (target - deltas) / h
    k = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    if reflect:
        z2 = (target + deltas) / h
        k = k + np.exp(-0.5 * z2 * z2) / math.sqrt(2.0 * math.pi)
    k = k * weights  # zero out rejected paths without reindexing blocks
    contrib = np.add.reduceat(k, edges)
    norm = np.add.reduceat(weights, edges)
    return _TermEstimate(contrib, norm, h, accepted)


def path_oracle(
    system: SystemId,
    view: CaseView,
    world: WorldConfig,
    cfg: PathOracleConfig | None = None,
    seed: int = 0,
) -> OracleEstimate:
    """Monte Carlo estimate of one system's LR on one case, with SE."""
    cfg = (cfg or PathOracleConfig()).validate()
    if system in SPECIFIC_SOURCE and view.theta_r is None:
        raise ValueError(f"{system.value} oracle requires theta_r in the view")
    if system is SystemId.PriorOnly:
        return OracleEstimate(system, 1.0, 0.0, 0.0, cfg.n_paths, 0, 0)

    num = _estimate_term(system, "num", view, world, cfg, stream_key(seed, 0))
    den = _estimate_term(system, "den", view, world, cfg, stream_key(seed, 1))
    lr = num.density / den.density

    rng = np.random.default_rng(int(stream_key(seed, 0xB007)))
    n_blocks = num.block_contrib.shape[0]
    reps = np.empty(cfg.n_boot, dtype=np.float64)
    for b in range(cfg.n_boot):
        i = rng.integers(0, n_blocks, n_blocks)
        j = rng.integers(0, n_blocks, n_blocks)
        dn = num.block_contrib[i].sum() / (num.block_norm[i].sum() * num.scale)
        dd = den.block_contrib[j].sum() / (den.block_norm[j].sum() * den.scale)
        if dn <= 0 or dd <= 0:
            raise InsufficientPathsError(
                f"{system.value}: a bootstrap replicate saw no matching "
                f"paths; raise n_paths")
        reps[b] = math.log10(dn) - math.log10(dd)
    se = float(np.std(reps, ddof=1))

    return OracleEstimate(
        system=system, lr=lr, log10_lr=math.log10(lr), se_log10=se,
        n_paths=cfg.n_paths, accepted_num=num.accepted,
        accepted_den=den.accepted)


def path_oracle_lr(system, view, world, cfg=None, seed: int = 0) -> float:
    """Plain LR value from the sampling-path oracle."""
    return path_oracle(system, view, world, cfg, seed).lr


def compare_closed_vs_oracle(
    system: SystemId,
    view: CaseView,
    world: WorldConfig,
    cfg: PathOracleConfig | None = None,
    seed: int = 0,
) -> OracleComparison:
    """Closed-form LR against the oracle on one evidence point."""
    est = path_oracle(system, view, world, cfg, seed)
    closed = evaluate(system, view, world)
    return OracleComparison(
        system=system, view=view,
        closed_log10=closed.log10_lr, oracle_log10=est.log10_lr,
        se_log10=est.se_log10,
        abs_diff_log10=abs(closed.log10_lr - est.log10_lr))


def default_evidence_grid(system: SystemId, world: WorldConfig) -> list[CaseView]:
    """A 3x3 evidence grid in the bulk of both terms' densities.

    Feature systems get a grid of measurement-mean pairs, unanchored score
    systems a score grid at fixed reference, anchored systems an anchor grid
    crossed with scores centred on the numerator's conditional mean.
    """
    th = world.pop_c.mu + 0.4 * max(world.pop_c.tau, world.noise.sigma)
    st2 = world.var_trace_mean
    sr2 = world.var_ref_mean
    tc2 = world.pop_c.tau**2
    absolute = world.score_kind is ScoreKind.AbsoluteDifference

    def offsets(scale: float) -> np.ndarray:
        return np.array([-1.1, 0.0, 1.1]) * scale

    views: list[CaseView] = []
    keep_theta = system in SPECIFIC_SOURCE
    if system in (SystemId.SSFLR, SystemId.CSFLR):
        vals = th + np.array([-0.6, -0.1, 0.4]) * max(1.0, world.pop_c.tau)
        for xv in vals:
            for yv in vals:
                views.append(CaseView(float(xv), float(yv), th if keep_theta else None))
        return views

    if system in (SystemId.SSSLR, SystemId.CSSLR):
        spread = math.sqrt(st2 + sr2)
        ds = (np.linspace(0.1, 1.3, 9) * spread if absolute
              else np.linspace(-1.0, 1.0, 9) * spread)
        for d in ds:
            views.append(CaseView(float(th + d), float(th),
                                  th if keep_theta else None))
        return views

    anchors = world.pop_c.mu + np.array([-0.3, 0.3, 0.9]) * max(
        1.0, world.pop_c.tau)
    if system is SystemId.SSYASLR:
        for a in anchors:
            centre = th - a
            for d in centre + offsets(0.5 * math.sqrt(st2)):
                views.append(CaseView(float(a + d), float(a), th))
        return views
    if system is SystemId.CSYASLR:
        for a in anchors:
            m = (tc2 * a + sr2 * world.pop_c.mu) / (tc2 + sr2)
            v = tc2 * sr2 / (tc2 + sr2)
            centre = m - a
            for d in centre + offsets(0.8 * math.sqrt(st2 + v)):
                views.append(CaseView(float(a + d), float(a), None))
        return views
    if system in (SystemId.CSXASLR, SystemId.SSXASLR):
        for a in anchors:
            if system is SystemId.CSXASLR:
                m = (tc2 * a + st2 * world.pop_c.mu) / (tc2 + st2)
                v = tc2 * st2 / (tc2 + st2)
                centre = a - m
                spread = 0.8 * math.sqrt(sr2 + v)
            else:
                centre = a - th
                spread = 0.5 * math.sqrt(sr2)
            for d in centre + offsets(spread):
                theta = th if system is SystemId.SSXASLR else None
                views.append(CaseView(float(a), float(a - d), theta))
        return views

    raise ValueError(f"no evidence grid for {system!r}")
