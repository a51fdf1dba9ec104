"""Generative evidence world: hierarchical Gaussian sources and measurements.

A world holds three source populations. popC is the population the suspect
source is drawn from when the prosecution hypothesis H1 is true. Under the
defence hypothesis H2 the suspect source comes from popD and the trace was
left by an unknown source from popT. Source means are Normal(mu, tau^2) and
every measurement of a source adds Normal(0, sigma^2) noise.

One case consists of the mean x of n_trace measurements of the trace source,
the mean y of n_ref reference measurements of the suspect source, and the
truth label. Cases are drawn from counter-based Philox streams keyed by the
master seed, so case i is the same no matter how many cases are generated or
in which order.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .forked import ordered_map

__all__ = [
    "CaseBatch",
    "ConfigError",
    "Hypothesis",
    "NoiseModel",
    "PopulationModel",
    "ScenarioKind",
    "ScoreKind",
    "WorldConfig",
    "case_chunks",
    "check_count",
    "check_seed",
    "fold_chunks",
    "generate_cases",
    "load_world",
    "read_json",
    "world_from_json_dict",
    "world_to_json_dict",
]


class ConfigError(ValueError):
    """Raised when a configuration value or document is invalid."""


class Hypothesis(str, Enum):
    H1 = "H1"
    H2 = "H2"


class ScenarioKind(str, Enum):
    """Which population the prior-relevant constraint ties together.

    TraceCrimeRelevant: the trace-donor population is the crime-relevant one,
    so popC == popT. ReferenceCrimeRelevant: the suspect would have been
    sampled from the same pool under either hypothesis, so popC == popD.
    DistinctionIrrelevant: all three populations coincide.
    """

    TraceCrimeRelevant = "TraceCrimeRelevant"
    ReferenceCrimeRelevant = "ReferenceCrimeRelevant"
    DistinctionIrrelevant = "DistinctionIrrelevant"


class ScoreKind(str, Enum):
    SignedDifference = "SignedDifference"
    AbsoluteDifference = "AbsoluteDifference"


@dataclass(frozen=True)
class PopulationModel:
    """Normal(mu, tau^2) distribution of source means; tau may be zero."""

    mu: float
    tau: float


@dataclass(frozen=True)
class NoiseModel:
    """Measurement noise is Normal(0, sigma^2); sigma must be positive."""

    sigma: float


@dataclass(frozen=True)
class WorldConfig:
    """One evidence world. It checks every field when it is built, so no
    invalid world exists: a bad value raises ConfigError in the constructor,
    and so does dataclasses.replace."""

    pop_c: PopulationModel
    pop_d: PopulationModel
    pop_t: PopulationModel
    noise: NoiseModel
    prior_h1: float
    scenario: ScenarioKind
    score_kind: ScoreKind
    n_trace: int = 1
    n_ref: int = 1

    def __post_init__(self) -> None:
        pops = (("popC", self.pop_c), ("popD", self.pop_d), ("popT", self.pop_t))
        for label, pop in pops:
            if not math.isfinite(pop.mu):
                raise ConfigError(f"{label}.mu must be finite, got {pop.mu!r}")
            if not math.isfinite(pop.tau) or pop.tau < 0:
                raise ConfigError(
                    f"{label}.tau must be finite and >= 0, got {pop.tau!r}")
        sigma = self.noise.sigma
        if not math.isfinite(sigma) or sigma <= 0:
            raise ConfigError(f"noise.sigma must be finite and > 0, got {sigma!r}")
        if not (0.0 < self.prior_h1 < 1.0):
            raise ConfigError(
                f"prior_h1 must lie strictly inside (0, 1), got {self.prior_h1!r}")
        if not isinstance(self.scenario, ScenarioKind):
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if not isinstance(self.score_kind, ScoreKind):
            raise ConfigError(f"unknown score_kind {self.score_kind!r}")
        for name, value in (("n_trace", self.n_trace), ("n_ref", self.n_ref)):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        # the engines divide by these variances and take their logarithms, so
        # each must be a finite float and the noise ones must not underflow
        try:
            noise = (sigma**2, self.var_trace_mean, self.var_ref_mean)
            spread = tuple(pop.tau**2 for _, pop in pops)
        except OverflowError:  # a float or an int too large for a float
            noise, spread = (math.inf,), ()
        if not all(0.0 < v < math.inf for v in noise) or math.inf in spread:
            raise ConfigError(
                "tau**2, sigma**2, sigma**2/n_trace and sigma**2/n_ref must be "
                "finite floats, and the sigma terms > 0")
        for (label, pop), var in zip(pops, spread):
            if pop.tau > 0 and not var > 0:
                raise ConfigError(
                    f"{label}.tau must be 0 or large enough that tau**2 > 0, "
                    f"got {pop.tau!r}")
        if self.scenario is ScenarioKind.TraceCrimeRelevant and self.pop_c != self.pop_t:
            raise ConfigError("TraceCrimeRelevant requires popC == popT")
        if self.scenario is ScenarioKind.ReferenceCrimeRelevant and self.pop_c != self.pop_d:
            raise ConfigError("ReferenceCrimeRelevant requires popC == popD")
        if self.scenario is ScenarioKind.DistinctionIrrelevant and not (
                self.pop_c == self.pop_d == self.pop_t):
            raise ConfigError("DistinctionIrrelevant requires popC == popD == popT")

    # Per-role measurement-mean variances, used all over the LR engines.
    @property
    def var_trace_mean(self) -> float:
        return self.noise.sigma**2 / self.n_trace

    @property
    def var_ref_mean(self) -> float:
        return self.noise.sigma**2 / self.n_ref


@dataclass
class CaseBatch:
    """Column-oriented collection of cases sharing one WorldConfig.

    x and y are the means of the n_trace trace and n_ref reference
    measurements. Under the Gaussian model the mean is sufficient for the
    source mean, so single measurements are never drawn.
    """

    world: WorldConfig
    truth_h1: np.ndarray      # bool, True where H1 holds
    theta_r: np.ndarray       # suspect source mean
    theta_trace: np.ndarray   # actual trace source mean (== theta_r under H1)
    x: np.ndarray             # trace measurement mean, shape (n,)
    y: np.ndarray             # reference measurement mean, shape (n,)
    first: int = 0            # the run's index of the batch's first case

    def __len__(self) -> int:
        return int(self.truth_h1.shape[0])


# Each column of draws has its own Philox counter space, [0, column, chunk, 0]
# for chunks of _CHUNK cases, so case i depends only on (seed, i) and no
# column's draws depend on another's.
_CHUNK = 1 << 16
_TRUTH, _SUSPECT, _ALTERNATIVE, _TRACE_MEAN, _REF_MEAN = range(5)


def _column(seed: int, column: int, first_chunk: int, n: int,
            uniform: bool = False) -> np.ndarray:
    """Draws of one column for the n cases from first_chunk * _CHUNK on:
    [0, 1) uniforms or normals."""
    out = np.empty(n, dtype=np.float64)
    for chunk, start in enumerate(range(0, n, _CHUNK), start=first_chunk):
        gen = np.random.Generator(
            np.random.Philox(key=seed, counter=[0, column, chunk, 0]))
        part = out[start:start + _CHUNK]
        if uniform:
            gen.random(out=part)
        else:
            gen.standard_normal(out=part)
    return out


def check_seed(seed: int, name: str = "master_seed") -> int:
    """seed, refused unless it is an int (not a bool) in [0, 2**64), the
    values a Philox key word holds: numpy would alias a float or a larger
    int to another seed, or refuse a negative one without naming it."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError(f"{name} must be an integer in [0, 2**64), got {seed!r}")
    return seed


def check_count(n: int, name: str) -> int:
    """n as an int, refused unless it is a Python or numpy integer (not a
    bool): int() would truncate a float to another count silently."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {n!r}")
    return int(n)


def _size(master_seed: int, n_cases: int, force_truth: Hypothesis | None) -> int:
    """n_cases as an int, once it, master_seed and force_truth are checked."""
    check_seed(master_seed)
    n = check_count(n_cases, "n_cases")
    if n < 1:
        raise ConfigError(f"n_cases must be >= 1, got {n}")
    if force_truth is not None and not isinstance(force_truth, Hypothesis):
        raise ConfigError(
            f"force_truth must be a Hypothesis or None, got {force_truth!r}")
    return n


def _cases(world: WorldConfig, seed: int, first_chunk: int, n: int,
           force_truth: Hypothesis | None) -> CaseBatch:
    """The n cases from first_chunk * _CHUNK on: the one drawing body."""
    if force_truth is None:
        truth_h1 = _column(seed, _TRUTH, first_chunk, n, uniform=True) < world.prior_h1
    else:
        truth_h1 = np.full(n, force_truth is Hypothesis.H1)
    pop_c, pop_d, pop_t = world.pop_c, world.pop_d, world.pop_t
    z = _column(seed, _SUSPECT, first_chunk, n)
    theta_r = np.where(truth_h1, pop_c.mu + pop_c.tau * z, pop_d.mu + pop_d.tau * z)
    theta_alt = pop_t.mu + pop_t.tau * _column(seed, _ALTERNATIVE, first_chunk, n)
    theta_trace = np.where(truth_h1, theta_r, theta_alt)
    sigma = world.noise.sigma
    x = theta_trace + sigma / math.sqrt(world.n_trace) * _column(
        seed, _TRACE_MEAN, first_chunk, n)
    y = theta_r + sigma / math.sqrt(world.n_ref) * _column(
        seed, _REF_MEAN, first_chunk, n)
    return CaseBatch(world=world, truth_h1=truth_h1, theta_r=theta_r,
                     theta_trace=theta_trace, x=x, y=y, first=first_chunk * _CHUNK)


def generate_cases(
    world: WorldConfig,
    master_seed: int,
    n_cases: int,
    force_truth: Hypothesis | None = None,
) -> CaseBatch:
    """Generate n_cases cases; case i only depends on (master_seed, i).

    The whole-batch reference for case_chunks and fold_chunks. force_truth
    pins every case to one hypothesis; every other value of a case is the
    one it has in a mixed run with the same truth.
    """
    return _cases(world, master_seed, 0, _size(master_seed, n_cases, force_truth),
                  force_truth)


def case_chunks(
    world: WorldConfig,
    master_seed: int,
    n_cases: int,
    force_truth: Hypothesis | None = None,
) -> Iterator[CaseBatch]:
    """The cases of generate_cases(world, master_seed, n_cases, force_truth),
    in order, as consecutive batches of 2**16 cases (the last one shorter).

    Each batch is drawn only when the iterator reaches it, so a pipeline
    that keeps no batch past the next one holds at most two, whatever
    n_cases is. The arguments are checked when this is called.
    """
    n = _size(master_seed, n_cases, force_truth)
    return (_cases(world, master_seed, chunk, min(_CHUNK, n - start), force_truth)
            for chunk, start in enumerate(range(0, n, _CHUNK)))


def fold_chunks(
    summarise: Callable,
    world: WorldConfig,
    master_seed: int,
    n_cases: int,
    force_truth: Hypothesis | None = None,
):
    """The chunk-order sum of the summaries of the batches of
    case_chunks(world, master_seed, n_cases, force_truth), computed on up to
    forked.CAP CPUs (see forked.ordered_map). Each process draws, by index,
    only the chunks it summarises.

    summarise(batch) returns (summary, arrays). Summaries add by _plus: a
    tuple or dict adds item by item, and what is below adds by +. The
    arrays are kept with the batch until the process draws its next chunk,
    as a loop over case_chunks keeps them. Freed sooner, at the top of the
    heap, their memory would go back to the system and be faulted in again,
    about 8k minor page faults per chunk with glibc.
    """
    n = _size(master_seed, n_cases, force_truth)
    held = []

    def summary(chunk: int):
        batch = _cases(world, master_seed, chunk, min(_CHUNK, n - chunk * _CHUNK),
                       force_truth)
        held.clear()
        out, arrays = summarise(batch)
        held[:] = (batch, arrays)
        return out

    return functools.reduce(_plus, ordered_map(summary, range(-(-n // _CHUNK)),
                                               "case worker", "chunk"))


def _plus(a, b):
    if isinstance(a, tuple):
        return tuple(map(_plus, a, b))
    if isinstance(a, dict):
        return {key: _plus(a[key], b[key]) for key in a}
    return a + b


# ---------------------------------------------------------------------------
# JSON configuration

_POP_KEYS = {"mu", "tau"}
_NOISE_KEYS = {"sigma"}
_WORLD_KEYS = {"popC", "popD", "popT", "noise", "prior_h1", "scenario",
               "score_kind", "n_trace", "n_ref"}
_WORLD_REQUIRED = _WORLD_KEYS - {"n_trace", "n_ref"}


def _check_keys(doc: dict, allowed: set[str], required: set[str], path: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {path}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {path}")


def _number(doc: dict, key: str, path: str) -> float:
    """doc[key] as a float; only a JSON number (not a bool or a string)."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{path}.{key} is out of range: {value!r}") from None


def _pop_from_dict(doc: dict, path: str) -> PopulationModel:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be an object with mu and tau")
    _check_keys(doc, _POP_KEYS, _POP_KEYS, path)
    return PopulationModel(mu=_number(doc, "mu", path),
                           tau=_number(doc, "tau", path))


def world_from_json_dict(doc: dict, path: str = "world") -> WorldConfig:
    """Build a WorldConfig, which checks itself, from a parsed JSON object."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be a JSON object")
    _check_keys(doc, _WORLD_KEYS, _WORLD_REQUIRED, path)
    noise_doc = doc["noise"]
    if not isinstance(noise_doc, dict):
        raise ConfigError(f"{path}.noise must be an object with sigma")
    _check_keys(noise_doc, _NOISE_KEYS, _NOISE_KEYS, f"{path}.noise")
    try:
        scenario = ScenarioKind(doc["scenario"])
    except ValueError:
        raise ConfigError(
            f"{path}.scenario must be one of {[s.value for s in ScenarioKind]}, "
            f"got {doc['scenario']!r}") from None
    try:
        score_kind = ScoreKind(doc["score_kind"])
    except ValueError:
        raise ConfigError(
            f"{path}.score_kind must be one of {[s.value for s in ScoreKind]}, "
            f"got {doc['score_kind']!r}") from None
    return WorldConfig(
        pop_c=_pop_from_dict(doc["popC"], f"{path}.popC"),
        pop_d=_pop_from_dict(doc["popD"], f"{path}.popD"),
        pop_t=_pop_from_dict(doc["popT"], f"{path}.popT"),
        noise=NoiseModel(sigma=_number(noise_doc, "sigma", f"{path}.noise")),
        prior_h1=_number(doc, "prior_h1", path),
        scenario=scenario,
        score_kind=score_kind,
        n_trace=doc.get("n_trace", 1),
        n_ref=doc.get("n_ref", 1),
    )


def world_to_json_dict(world: WorldConfig) -> dict:
    return {
        "popC": {"mu": world.pop_c.mu, "tau": world.pop_c.tau},
        "popD": {"mu": world.pop_d.mu, "tau": world.pop_d.tau},
        "popT": {"mu": world.pop_t.mu, "tau": world.pop_t.tau},
        "noise": {"sigma": world.noise.sigma},
        "prior_h1": world.prior_h1,
        "scenario": world.scenario.value,
        "score_kind": world.score_kind.value,
        "n_trace": world.n_trace,
        "n_ref": world.n_ref,
    }


def read_json(path: str | Path):
    """Parse a UTF-8 JSON file; one that is not is bad input (ConfigError)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config not found: {path}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None


def load_world(path: str | Path) -> WorldConfig:
    """Load a WorldConfig from a JSON file (see read_json)."""
    return world_from_json_dict(read_json(path), path=str(path))
