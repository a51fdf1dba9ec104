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
point: the two routes validate each other. The oracle reads there only
each system's row of SYSTEMS, which picks among its own recipes and
estimators, and the source posterior, to place default_evidence_grid's
points; the closed forms dispatch by name, so the check covers the rows.
A block bootstrap over contiguous path blocks supplies the SE of log10(LR).

A PathBank is the oracle's whole context: the world, the seed, the path
count, the five recipes' paths, the bootstrap blocks and the bootstrap
resamples. All of them are drawn when the bank is built, and every system
and evidence point reads them (common random numbers).

One estimator, estimate_views, evaluates a system at a list of views and
builds each distinct kernel sample once per call; compare_views adds the
closed forms, and grid_groups cuts oracle-check's grid into runs of points
that share their samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .genmodel import ConfigError, ScoreKind, WorldConfig, check_count, check_seed
from .lrsystems import (
    LOG10_E,
    NONTRIVIAL,
    SYSTEMS,
    AnchorKind,
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
    "ANCHOR_TOLERANCE",
    "BIN_WIDTH",
    "MIN_ACCEPTED",
    "N_BLOCKS",
    "N_BOOT",
    "RECIPES",
    "compare_views",
    "default_evidence_grid",
    "estimate_views",
    "grid_groups",
    "stream_key",
]

# The path recipes a PathBank draws; a recipe's stream index is its position.
RECIPES = ("ss_num", "cs_num", "trace", "ss_ref", "cs_ref")
_BOOTSTRAP_STREAM = 0xB007
MIN_ACCEPTED = 50  # fewest paths a density estimate is made from
BIN_WIDTH = 0.1  # side of a feature system's square evidence bin
ANCHOR_TOLERANCE = 0.05  # half-width of an anchored system's anchor window
N_BLOCKS = 200  # contiguous path blocks the bootstrap resamples
N_BOOT = 400  # bootstrap replicates
# scores per piece of a folded term's reflected kernel, so that the term
# holds one kernel-sized buffer besides its sample, as an unfolded one does
_PIECE = 2**14
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_STREAM_SALT = 0xD6E8FEB86659FD93
_U64 = (1 << 64) - 1


def _mix64_int(z: int) -> int:
    """SplitMix64 finalizer on plain python integers."""
    z &= _U64
    z = ((z ^ (z >> 30)) * _MIX1) & _U64
    z = ((z ^ (z >> 27)) * _MIX2) & _U64
    return z ^ (z >> 31)


def stream_key(master_seed: int, index: int) -> np.uint64:
    """Philox key of stream `index` under `master_seed`; a pure function."""
    a = _mix64_int((int(master_seed) + _GOLD) & _U64)
    b = _mix64_int((int(index) + _STREAM_SALT) & _U64)
    return np.uint64(_mix64_int(a ^ b))


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
    """A closed form against the oracle at one evidence point; the fields, in
    order, are the columns of oracle.csv. grid_index is the point's place in
    default_evidence_grid; compare_views leaves it None."""

    system: SystemId
    grid_index: int | None
    closed_log10: float
    oracle_log10: float
    se_log10: float
    abs_diff_log10: float
    within_3se: bool


class PathBank:
    """The oracle's context: the paths of one (world, seed, n_paths) and its
    bootstrap blocks and draws.

    The bank is drawn whole when it is built: the bootstrap resamples from
    their own stream, then each recipe in RECIPES order from its own stream,
    Philox(key=stream_key(seed, RECIPES.index(recipe))), source first and
    measurement noise after, kept as read-only summed columns:

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

    def __init__(self, world: WorldConfig, seed: int, n_paths: int = 10**6):
        n = check_count(n_paths, "n_paths")
        if n < 10**3:
            raise ConfigError(f"n_paths must be >= 1000, got {n}")
        self.world = world
        self.seed = check_seed(seed, "seed")
        self.n_paths = n
        # the first path of each of the N_BLOCKS bootstrap blocks, and sizes
        self.edges = np.arange(N_BLOCKS, dtype=np.int64) * n // N_BLOCKS
        self.block_sizes = np.diff(self.edges, append=n).astype(np.float64)
        gen = np.random.Generator(np.random.Philox(
            key=int(stream_key(self.seed, _BOOTSTRAP_STREAM))))
        # uint8, made before the recipes' columns, copied out per call: other
        # layouts raised oracle-grid's peak RSS by 4% through heap holes
        self._resamples = np.empty((2, N_BOOT, N_BLOCKS), dtype=np.uint8)
        for r in self._resamples:  # i, then j
            r[...] = gen.integers(0, N_BLOCKS, (N_BOOT, N_BLOCKS))
        self._columns = {recipe: self._draw(recipe) for recipe in RECIPES}
        for cols in self._columns.values():
            for c in cols:
                c.flags.writeable = False

    def resamples(self) -> tuple[np.ndarray, np.ndarray]:
        """Intp copies of the bank's one draw of bootstrap block indices:
        replicate b resamples the numerator's i[b], the denominator's j[b]."""
        i, j = self._resamples
        return i.astype(np.intp), j.astype(np.intp)

    def columns(self, recipe: str) -> tuple[np.ndarray, ...]:
        """The recipe's read-only columns."""
        if recipe not in self._columns:
            raise ValueError(f"unknown recipe {recipe!r}; the recipes are "
                             f"{', '.join(RECIPES)}")
        return self._columns[recipe]

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


def _keeps_x_and_y(system: SystemId) -> bool:
    """Whether the system is a feature system: a bin on (x, y), not a kernel
    density on a score."""
    row = SYSTEMS[system]
    return row.anchor is None and not {"X", "Y"} & row.averaged_out


def _near(col: np.ndarray, centre: float, half_width: float) -> np.ndarray:
    """Mask of the paths whose value lies within half_width of centre."""
    inside = col >= centre - half_width
    inside &= col <= centre + half_width
    return inside


def _term_samples(system: SystemId, term: str, view: CaseView, bank: PathBank):
    """Read one term's simulated evidence from the bank, by the system's row.

    Returns inside for feature systems, the mask of the paths in the
    evidence bin, or (deltas, accept) for score systems, where deltas is a
    fresh array of simulated scores. For anchored
    recipes accept is the anchor-window mask over all paths and deltas
    holds the scores of the accepted paths only, in path order; otherwise
    accept is None and deltas covers every path.
    """
    row = SYSTEMS[system]
    specific, num = row.specific_source, term == "num"
    # x is a recipe's first column, y its last. Specific-source recipes other
    # than trace are offsets from theta_r: observed means shift by xs and ys
    x_recipe = y_recipe = "ss_num" if specific else "cs_num"
    if not num:
        x_recipe, y_recipe = "trace", "ss_ref" if specific else "cs_ref"
    xs = view.theta_r if specific and num else 0.0
    ys = view.theta_r if specific else 0.0
    # an anchor replaces its column by the observed value; only cs_num's x
    # and y share a source, so only it keeps the paths in the anchor window
    window, accept = num and not specific, None
    if row.anchor is AnchorKind.Y:
        xb = bank.columns(x_recipe)[0]
        if window:
            accept = _near(bank.columns(y_recipe)[-1], view.y_mean,
                           ANCHOR_TOLERANCE)
            xb = xb[accept]
        return xb + (xs - view.y_mean), accept
    if row.anchor is AnchorKind.X:  # SSXASLR: one recipe, two streams, LR 1
        yb = bank.columns(y_recipe)[-1]
        if window:
            accept = _near(bank.columns(x_recipe)[0], view.x_mean,
                           ANCHOR_TOLERANCE)
            yb = yb[accept]
        return (view.x_mean - ys) - yb, accept

    xb, yb = bank.columns(x_recipe)[0], bank.columns(y_recipe)[-1]
    if _keeps_x_and_y(system):
        half = BIN_WIDTH / 2.0
        return (_near(xb, view.x_mean - xs, half)
                & _near(yb, view.y_mean - ys, half))
    deltas = xb - yb
    deltas += xs - ys
    return deltas, None


def _quartiles(samples: np.ndarray) -> tuple[float, float]:
    """np.percentile(samples, [75.0, 25.0]), bit for bit, from one copy.

    Each quartile interpolates between the order statistics i = floor(v)
    and i + 1 at v = (n - 1) * q, as numpy's linear method does. A one-kth
    partition at i75 takes numpy's vectorised selection, where percentile's
    six kth indices take its generic one; the copy's prefix below i75 is
    partitioned again at i25, and each upper neighbour is the least value
    above its partition point. The sign of a zero quartile of samples that
    hold both 0.0 and -0.0 depends on their order, in numpy as here.
    """
    n = samples.shape[0]
    v75, v25 = (n - 1) * 0.75, (n - 1) * 0.25
    # numpy reads v >= n - 1, which happens at n = 1 only, as i = -1
    i75, i25 = min(math.floor(v75), n - 2), min(math.floor(v25), n - 2)
    c = np.partition(samples, i75)
    a75 = a25 = float(c[i75])
    b75 = b25 = float(c[i75 + 1:].min())
    if i25 < i75:
        c[:i75].partition(i25)
        a25, b25 = float(c[i25]), float(c[i25 + 1:i75 + 1].min())

    def lerp(a: float, b: float, g: float) -> float:  # numpy's _lerp
        d = b - a
        return b - d * (1.0 - g) if g >= 0.5 else a + d * g

    return lerp(a75, b75, v75 - i75), lerp(a25, b25, v25 - i25)


def _silverman(samples: np.ndarray) -> float:
    sd = float(np.std(samples))
    q75, q25 = _quartiles(samples)
    spread = min(sd, (q75 - q25) / 1.349) or sd
    h = 0.9 * spread * samples.shape[0] ** (-0.2)
    if not h > 0:
        raise InsufficientPathsError(
            "degenerate sample spread, kernel bandwidth would be zero; "
            "raise n_paths")
    return h


def _kernel(target: float, deltas: np.ndarray, h: float,
            out: np.ndarray) -> np.ndarray:
    """Gaussian kernel of bandwidth h at target for each score in deltas,
    written into out."""
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


def _runs(system: SystemId, views: list[CaseView]) -> list[tuple[int, list[CaseView]]]:
    """(index of its first view, its views) of each run of consecutive views
    whose terms read the same kernel samples. Both samples depend on theta_r
    and the anchored mean alone (see _term_samples), never on the score; a
    feature system's bin is its view's own, so its view is a run alone."""
    anchor = SYSTEMS[system].anchor
    runs, last = [], None
    for i, view in enumerate(views):
        key = None if _keeps_x_and_y(system) else (view.theta_r, (
            None if anchor is None else
            view.x_mean if anchor is AnchorKind.X else view.y_mean))
        if key is not None and key == last:
            runs[-1][1].append(view)
        else:
            runs.append((i, [view]))
        last = key
    return runs


def _term_estimates(system: SystemId, term: str, views: list[CaseView],
                    bank: PathBank) -> list[_TermEstimate]:
    """One term at each view of one run of _runs. A score term's kernel
    sample is built, folded for absolute-difference scores and given a
    Silverman bandwidth once, each view's kernel is written into one scratch
    buffer, and both are freed on return."""
    n, edges, block_sizes = bank.n_paths, bank.edges, bank.block_sizes
    if _keeps_x_and_y(system):
        (view,) = views
        inside = _term_samples(system, term, view, bank)
        count = int(np.count_nonzero(inside))
        if count < MIN_ACCEPTED:
            raise InsufficientPathsError(
                f"{system.value} {term}: only {count} paths inside the "
                f"evidence bin (need {MIN_ACCEPTED}); raise n_paths")
        contrib = np.add.reduceat(inside, edges, dtype=np.float64)
        return [_TermEstimate(contrib, block_sizes, BIN_WIDTH**2, count)]

    deltas, accept = _term_samples(system, term, views[0], bank)
    reflect = bank.world.score_kind is ScoreKind.AbsoluteDifference
    if reflect:
        np.abs(deltas, out=deltas)
    m = deltas.shape[0]
    if accept is not None and m < MIN_ACCEPTED:
        raise InsufficientPathsError(
            f"{system.value} {term}: only {m} paths accepted in "
            f"the anchor window (need {MIN_ACCEPTED}); raise n_paths")
    h = _silverman(deltas)
    if accept is not None:  # the accepted paths' blocks, in path order
        counts = np.add.reduceat(accept, edges)
        blocks = np.repeat(np.arange(N_BLOCKS), counts)
    # made after _silverman has freed the copies its sd and quartiles take
    scratch = np.empty(m)
    mirror = np.empty(min(m, _PIECE)) if reflect else None
    estimates = []
    for view in views:
        target = view.x_mean - view.y_mean
        if reflect:
            target = abs(target)
        k = _kernel(target, deltas, h, out=scratch)
        if reflect:  # the reflected kernel, a piece at a time: see _PIECE
            for lo in range(0, m, _PIECE):
                piece = deltas[lo:lo + _PIECE]
                k[lo:lo + _PIECE] += _kernel(-target, piece, h,
                                             out=mirror[:piece.shape[0]])
        estimates.append(
            _TermEstimate(np.add.reduceat(k, edges), block_sizes, h, n)
            if accept is None else
            _TermEstimate(np.bincount(blocks, weights=k, minlength=N_BLOCKS),
                          counts.astype(np.float64), h, m))
    return estimates


def _bootstrap_se(system: SystemId, num: _TermEstimate, den: _TermEstimate,
                  i: np.ndarray, j: np.ndarray) -> float:
    """SE of log10(LR) over the bootstrap replicates (i, j); see resamples."""
    dn = num.replicate_densities(i)
    dd = den.replicate_densities(j)
    if not (np.all(dn > 0) and np.all(dd > 0)):
        raise InsufficientPathsError(
            f"{system.value}: a bootstrap replicate saw no matching "
            f"paths; raise n_paths")
    return float(np.std(np.log10(dn) - np.log10(dd), ddof=1))


def estimate_views(system: SystemId, views: list[CaseView],
                   bank: PathBank) -> list[OracleEstimate]:
    """Monte Carlo estimates of one system's LR at each view, with SEs, from
    the bank's paths and bootstrap resamples.

    Each run of views that share their kernel samples (see _runs) builds
    each sample once: first the numerator at every view of the run, then
    the denominator, then the LR and bootstrap of each view in turn. Of a
    term's estimate only building its sample can fail, and a run's views
    share it, so this raises the error that estimating the views one by one
    raises first, and each estimate is, bit for bit, the one its view gets
    alone.
    """
    if system is SystemId.PriorOnly:
        return [OracleEstimate(system, 1.0, 0.0, 0.0, bank.n_paths, 0, 0)
                for _ in views]
    estimates = []
    for _, run in _runs(system, views):
        if SYSTEMS[system].specific_source and run[0].theta_r is None:
            raise ConfigError(f"{system.value} oracle requires theta_r in the view")
        nums = _term_estimates(system, "num", run, bank)
        dens = _term_estimates(system, "den", run, bank)
        for num, den in zip(nums, dens):
            lr = num.density / den.density
            se = _bootstrap_se(system, num, den, *bank.resamples())
            estimates.append(OracleEstimate(
                system=system, lr=lr, log10_lr=math.log10(lr), se_log10=se,
                n_paths=bank.n_paths, accepted_num=num.accepted,
                accepted_den=den.accepted))
    return estimates


def compare_views(system: SystemId, views: list[CaseView],
                  bank: PathBank) -> list[OracleComparison]:
    """Closed-form LRs against the oracle at each view (see
    estimate_views); grid_index is left None."""
    comparisons = []
    for view, est in zip(views, estimate_views(system, views, bank)):
        theta = view.theta_r if SYSTEMS[system].specific_source else None
        closed = float(log_lr_batch(system, view.x_mean, view.y_mean,
                                    bank.world, theta_r=theta)) * LOG10_E
        diff = abs(closed - est.log10_lr)
        comparisons.append(OracleComparison(
            system=system, grid_index=None,
            closed_log10=closed, oracle_log10=est.log10_lr,
            se_log10=est.se_log10, abs_diff_log10=diff,
            within_3se=diff < 3.0 * est.se_log10))
    return comparisons


def grid_groups(world: WorldConfig) -> list[tuple[SystemId, int, list[CaseView]]]:
    """oracle-check's grid as estimator calls: every NONTRIVIAL system's
    default_evidence_grid cut into runs of points that share both terms'
    kernel samples (see _runs), each as (system, grid index of its first
    point, its views). A feature system's point is a group of its own, an
    anchored system's anchor row is one, and an unanchored score system's
    whole grid is one."""
    return [(system, first, run) for system in NONTRIVIAL
            for first, run in _runs(system, default_evidence_grid(system, world))]


def default_evidence_grid(system: SystemId, world: WorldConfig) -> list[CaseView]:
    """A 3x3 evidence grid in the bulk of both terms' densities, placed by
    the system's row; PriorOnly has no evidence and no grid.

    Feature systems get a grid of measurement-mean pairs, unanchored score
    systems a score grid at fixed reference, anchored systems an anchor grid
    crossed with scores centred on the numerator's conditional mean.
    """
    if system is SystemId.PriorOnly:
        raise ConfigError(f"no evidence grid for {system!r}")
    row = SYSTEMS[system]
    th = world.pop_c.mu + 0.4 * max(world.pop_c.tau, world.noise.sigma)
    theta = th if row.specific_source else None
    st2, sr2 = world.var_trace_mean, world.var_ref_mean
    if _keeps_x_and_y(system):
        vals = th + np.array([-0.6, -0.1, 0.4]) * max(1.0, world.pop_c.tau)
        return [CaseView(float(xv), float(yv), theta) for xv in vals for yv in vals]
    if row.anchor is None:
        ds = (np.linspace(0.1, 1.3, 9)
              if world.score_kind is ScoreKind.AbsoluteDifference
              else np.linspace(-1.0, 1.0, 9)) * math.sqrt(st2 + sr2)
        return [CaseView(float(th + d), float(th), theta) for d in ds]

    x_anchor = row.anchor is AnchorKind.X
    # the variances of the anchored mean and of the other mean
    var_a, var_o = (st2, sr2) if x_anchor else (sr2, st2)
    anchors = world.pop_c.mu + np.array([-0.3, 0.3, 0.9]) * max(1.0, world.pop_c.tau)
    steps, views = np.array([-1.1, 0.0, 1.1]), []
    for a in anchors:  # the source mean's law given the anchor; theta_r is exact
        m, v = ((th, 0.0) if row.specific_source
                else _source_law(a, world.pop_c, var_a))
        spread = (0.5 if row.specific_source else 0.8) * math.sqrt(var_o + v)
        for d in (a - m if x_anchor else m - a) + steps * spread:
            views.append(CaseView(float(a), float(a - d), theta) if x_anchor
                         else CaseView(float(a + d), float(a), theta))
    return views
