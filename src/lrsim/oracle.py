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

The ratio of the two density estimates is the oracle LR. Its estimates
share no code with the closed forms in lrsim.lrsystems, which is the
point: the two routes validate each other (default_evidence_grid only
reads the source posterior there, to place its points). A block
bootstrap over contiguous path blocks supplies the standard error of
log10(LR).

The paths come from a PathBank, which draws each of five recipes once per
(world, seed, n_paths) and serves every system and evidence point from
those draws (common random numbers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .genmodel import ConfigError, ScoreKind, WorldConfig
from .kernels import stream_key
from .lrsystems import (
    LOG10_E,
    SPECIFIC_SOURCE,
    CaseView,
    SystemId,
    _source_law,
    log_lr_batch,
)

__all__ = [
    "InsufficientPathsError",
    "OracleComparison",
    "OracleEstimate",
    "PathBank",
    "PathOracleConfig",
    "MIN_ACCEPTED",
    "RECIPES",
    "compare_closed_vs_oracle",
    "default_evidence_grid",
    "path_oracle",
]

# The path recipes a PathBank draws; a recipe's stream index is its position.
RECIPES = ("ss_num", "cs_num", "trace", "ss_ref", "cs_ref")
_BOOTSTRAP_STREAM = 0xB007
MIN_ACCEPTED = 50  # fewest paths a density estimate is made from
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class InsufficientPathsError(RuntimeError):
    """Too few paths matched the observed evidence to estimate a density."""


@dataclass(frozen=True)
class PathOracleConfig:
    """Tuning of the sampling-path oracle (see path_oracle)."""

    n_paths: int = 10**6
    bin_width: float = 0.1
    anchor_tolerance: float = 0.05
    n_blocks: int = 200
    n_boot: int = 400

    def validate(self) -> "PathOracleConfig":
        if self.n_paths < 10**3:
            raise ConfigError(f"n_paths must be >= 1000, got {self.n_paths}")
        if not self.bin_width > 0:
            raise ConfigError(f"bin_width must be > 0, got {self.bin_width}")
        if not self.anchor_tolerance > 0:
            raise ConfigError(
                f"anchor_tolerance must be > 0, got {self.anchor_tolerance}")
        return self


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


class PathBank:
    """Simulated evidence paths of one (world, seed, n_paths).

    Each recipe is drawn on first use from its own stream,
    Philox(key=stream_key(seed, RECIPES.index(recipe))), source first and
    measurement noise after, and is kept as read-only summed columns:

    * ss_num: trace and reference offsets st*z, sr*z around a known theta_r;
    * cs_num: x = r + st*z and y = r + sr*z around one source r = mc + tc*z;
    * trace:  (mt + tt*z) + st*z, a trace mean from a popT source;
    * ss_ref: sr*z, a reference offset around a known theta_r;
    * cs_ref: (md + td*z) + sr*z, a reference mean from a popD source.

    Within one system the numerator and the denominator read disjoint
    recipes, so the two terms stay independent. Evidence points that share
    a bank share their paths: each point's estimate and SE are valid alone,
    but estimates of different points are correlated and must not be pooled
    as independent.
    """

    def __init__(self, world: WorldConfig, seed: int, n_paths: int):
        self.world = world
        self.seed = int(seed)
        self.n_paths = int(n_paths)
        self._columns: dict[str, tuple[np.ndarray, ...]] = {}

    def columns(self, recipe: str) -> tuple[np.ndarray, ...]:
        """The recipe's columns, drawn the first time they are asked for."""
        cols = self._columns.get(recipe)
        if cols is None:
            cols = self._columns[recipe] = self._draw(recipe)
            for c in cols:
                c.flags.writeable = False
        return cols

    def _draw(self, recipe: str) -> tuple[np.ndarray, ...]:
        w, n = self.world, self.n_paths
        gen = np.random.Generator(np.random.Philox(
            key=int(stream_key(self.seed, RECIPES.index(recipe)))))

        def normal(scale: float, loc: float = 0.0) -> np.ndarray:
            z = gen.standard_normal(n)
            z *= scale
            z += loc
            return z

        st = w.noise.sigma / math.sqrt(w.n_trace)
        sr = w.noise.sigma / math.sqrt(w.n_ref)
        if recipe == "ss_num":
            return normal(st), normal(sr)
        if recipe == "cs_num":
            r = normal(w.pop_c.tau, w.pop_c.mu)
            x = normal(st)
            x += r
            y = normal(sr)
            y += r
            return x, y
        if recipe == "ss_ref":
            return (normal(sr),)
        if recipe == "trace":
            col = normal(w.pop_t.tau, w.pop_t.mu)
            col += normal(st)
        else:  # cs_ref
            col = normal(w.pop_d.tau, w.pop_d.mu)
            col += normal(sr)
        return (col,)


def _near(col: np.ndarray, centre: float, half_width: float) -> np.ndarray:
    """Mask of the paths whose value lies within half_width of centre."""
    inside = col >= centre - half_width
    inside &= col <= centre + half_width
    return inside


def _term_samples(system: SystemId, term: str, view: CaseView,
                  cfg: PathOracleConfig, bank: PathBank):
    """Read one term's simulated evidence from the bank.

    Returns ("bin", inside) for feature systems, where inside marks the
    paths in the evidence bin, or ("kde", deltas, accept) for score systems,
    where deltas is a fresh array of simulated scores. For anchored
    recipes accept is the anchor-window mask over all paths and deltas
    holds the scores of the accepted paths only, in path order; otherwise
    accept is None and deltas covers every path.
    """
    th = view.theta_r
    num = term == "num"

    if system in (SystemId.SSFLR, SystemId.SSSLR,
                  SystemId.CSFLR, SystemId.CSSLR):
        specific = system in SPECIFIC_SOURCE
        if num:
            xb, yb = bank.columns("ss_num" if specific else "cs_num")
        else:
            (xb,) = bank.columns("trace")
            (yb,) = bank.columns("ss_ref" if specific else "cs_ref")
        # the specific-source recipes other than trace are offsets around
        # theta_r: compare them with the observed offsets
        xs = th if specific and num else 0.0
        ys = th if specific else 0.0
        if system in (SystemId.SSFLR, SystemId.CSFLR):
            half = cfg.bin_width / 2.0
            return "bin", (_near(xb, view.x_mean - xs, half)
                           & _near(yb, view.y_mean - ys, half))
        deltas = xb - yb
        deltas += xs - ys
        return "kde", deltas, None

    if system is SystemId.SSYASLR:
        xb, xs = ((bank.columns("ss_num")[0], th) if num
                  else (bank.columns("trace")[0], 0.0))
        return "kde", xb + (xs - view.y_mean), None

    if system is SystemId.CSYASLR:
        if num:
            xb, yb = bank.columns("cs_num")
            accept = _near(yb, view.y_mean, cfg.anchor_tolerance)
            return "kde", xb[accept] - view.y_mean, accept
        (xb,) = bank.columns("trace")
        return "kde", xb - view.y_mean, None

    if system is SystemId.CSXASLR:
        if num:
            xb, yb = bank.columns("cs_num")
            accept = _near(xb, view.x_mean, cfg.anchor_tolerance)
            return "kde", view.x_mean - yb[accept], accept
        (yb,) = bank.columns("cs_ref")
        return "kde", view.x_mean - yb, None

    if system is SystemId.SSXASLR:
        # numerator and denominator paths follow the same recipe from
        # different streams, so the ratio hovers at one
        yb = bank.columns("ss_num")[1] if num else bank.columns("ss_ref")[0]
        return "kde", (view.x_mean - th) - yb, None

    raise ValueError(f"no sampling recipe for {system!r}")


def _silverman(samples: np.ndarray) -> float:
    sd = float(np.std(samples))
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    spread = min(sd, (q75 - q25) / 1.349) or sd
    h = 0.9 * spread * samples.shape[0] ** (-0.2)
    if not h > 0:
        raise InsufficientPathsError(
            "degenerate sample spread, kernel bandwidth would be zero")
    return h


def _kernel(target: float, deltas: np.ndarray, h: float,
            out: np.ndarray | None = None) -> np.ndarray:
    """Gaussian kernel of bandwidth h at target for each score in deltas;
    out may be deltas itself."""
    k = np.subtract(target, deltas, out=out)
    k /= h
    np.square(k, out=k)
    k *= -0.5
    np.exp(k, out=k)
    k *= _INV_SQRT_2PI
    return k


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

    def replicate_densities(self, idx: np.ndarray) -> np.ndarray:
        """Density of each bootstrap replicate; row b of idx lists the
        blocks replicate b resamples."""
        return (self.block_contrib[idx].sum(axis=1)
                / (self.block_norm[idx].sum(axis=1) * self.scale))


def _block_edges(n: int, n_blocks: int) -> np.ndarray:
    n_blocks = max(1, min(n_blocks, n))
    return (np.arange(n_blocks, dtype=np.int64) * n) // n_blocks


def _estimate_term(system, term, view, world, cfg, bank) -> _TermEstimate:
    kind, *data = _term_samples(system, term, view, cfg, bank)
    n = cfg.n_paths
    edges = _block_edges(n, cfg.n_blocks)
    block_sizes = np.diff(edges, append=n).astype(np.float64)

    if kind == "bin":
        (inside,) = data
        count = int(np.count_nonzero(inside))
        if count < MIN_ACCEPTED:
            raise InsufficientPathsError(
                f"{system.value} {term}: only {count} paths inside the "
                f"evidence bin (need {MIN_ACCEPTED}); widen bin_width or "
                f"raise n_paths")
        contrib = np.add.reduceat(inside, edges, dtype=np.float64)
        return _TermEstimate(contrib, block_sizes, cfg.bin_width**2, count)

    deltas, accept = data
    target = view.x_mean - view.y_mean
    reflect = world.score_kind is ScoreKind.AbsoluteDifference
    if reflect:
        np.abs(deltas, out=deltas)
        target = abs(target)
    accepted = deltas.shape[0]
    if accept is not None and accepted < MIN_ACCEPTED:
        raise InsufficientPathsError(
            f"{system.value} {term}: only {accepted} paths accepted in "
            f"the anchor window (need {MIN_ACCEPTED}); widen "
            f"anchor_tolerance or raise n_paths")
    h = _silverman(deltas)
    # deltas is this term's own array, so the last kernel overwrites it
    k = _kernel(target, deltas, h, out=None if reflect else deltas)
    if reflect:
        k += _kernel(-target, deltas, h, out=deltas)
    if accept is None:
        return _TermEstimate(np.add.reduceat(k, edges), block_sizes, h, n)
    # k holds the accepted paths only, in path order
    counts = np.add.reduceat(accept, edges)
    blocks = np.repeat(np.arange(edges.shape[0]), counts)
    contrib = np.bincount(blocks, weights=k, minlength=edges.shape[0])
    return _TermEstimate(contrib, counts.astype(np.float64), h, accepted)


def _bootstrap_se(system: SystemId, num: _TermEstimate, den: _TermEstimate,
                  i: np.ndarray, j: np.ndarray) -> float:
    """SE of log10(LR) over the replicates whose row b resamples the
    numerator's blocks i[b] and the denominator's blocks j[b]."""
    dn = num.replicate_densities(i)
    dd = den.replicate_densities(j)
    if not (np.all(dn > 0) and np.all(dd > 0)):
        raise InsufficientPathsError(
            f"{system.value}: a bootstrap replicate saw no matching "
            f"paths; raise n_paths")
    return float(np.std(np.log10(dn) - np.log10(dd), ddof=1))


def path_oracle(
    system: SystemId,
    view: CaseView,
    world: WorldConfig,
    cfg: PathOracleConfig | None = None,
    seed: int = 0,
    bank: PathBank | None = None,
) -> OracleEstimate:
    """Monte Carlo estimate of one system's LR on one case, with SE.

    Paths are read from bank, which must have been drawn for the same
    world, seed and n_paths; without one, a private bank is drawn.
    """
    cfg = (cfg or PathOracleConfig()).validate()
    if system in SPECIFIC_SOURCE and view.theta_r is None:
        raise ValueError(f"{system.value} oracle requires theta_r in the view")
    if system is SystemId.PriorOnly:
        return OracleEstimate(system, 1.0, 0.0, 0.0, cfg.n_paths, 0, 0)
    if bank is None:
        bank = PathBank(world, seed, cfg.n_paths)
    elif (bank.world, bank.seed, bank.n_paths) != (world, seed, cfg.n_paths):
        raise ValueError("the path bank was drawn for another world, seed "
                         "or n_paths")

    num = _estimate_term(system, "num", view, world, cfg, bank)
    den = _estimate_term(system, "den", view, world, cfg, bank)
    lr = num.density / den.density

    gen = np.random.Generator(np.random.Philox(
        key=int(stream_key(seed, _BOOTSTRAP_STREAM))))
    shape = (cfg.n_boot, num.block_contrib.shape[0])
    i = gen.integers(0, shape[1], shape)
    j = gen.integers(0, shape[1], shape)
    se = _bootstrap_se(system, num, den, i, j)

    return OracleEstimate(
        system=system, lr=lr, log10_lr=math.log10(lr), se_log10=se,
        n_paths=cfg.n_paths, accepted_num=num.accepted,
        accepted_den=den.accepted)


def compare_closed_vs_oracle(
    system: SystemId,
    view: CaseView,
    world: WorldConfig,
    cfg: PathOracleConfig | None = None,
    seed: int = 0,
    bank: PathBank | None = None,
) -> OracleComparison:
    """Closed-form LR against the oracle on one evidence point."""
    est = path_oracle(system, view, world, cfg, seed, bank)
    theta = view.theta_r if system in SPECIFIC_SOURCE else None
    closed = float(log_lr_batch(system, view.x_mean, view.y_mean, world,
                                theta_r=theta)) * LOG10_E
    return OracleComparison(
        system=system, view=view,
        closed_log10=closed, oracle_log10=est.log10_lr,
        se_log10=est.se_log10, abs_diff_log10=abs(closed - est.log10_lr))


def default_evidence_grid(system: SystemId, world: WorldConfig) -> list[CaseView]:
    """A 3x3 evidence grid in the bulk of both terms' densities.

    Feature systems get a grid of measurement-mean pairs, unanchored score
    systems a score grid at fixed reference, anchored systems an anchor grid
    crossed with scores centred on the numerator's conditional mean.
    """
    th = world.pop_c.mu + 0.4 * max(world.pop_c.tau, world.noise.sigma)
    st2 = world.var_trace_mean
    sr2 = world.var_ref_mean
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
            m, v = _source_law(a, world.pop_c, sr2)
            centre = m - a
            for d in centre + offsets(0.8 * math.sqrt(st2 + v)):
                views.append(CaseView(float(a + d), float(a), None))
        return views
    if system in (SystemId.CSXASLR, SystemId.SSXASLR):
        for a in anchors:
            if system is SystemId.CSXASLR:
                m, v = _source_law(a, world.pop_c, st2)
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
