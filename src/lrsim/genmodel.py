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

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "CaseBatch",
    "ConfigError",
    "Hypothesis",
    "NoiseModel",
    "PopulationModel",
    "ScenarioKind",
    "ScoreKind",
    "WorldConfig",
    "generate_cases",
    "load_world",
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

    def validate(self, label: str = "population") -> None:
        if not math.isfinite(self.mu):
            raise ConfigError(f"{label}.mu must be finite, got {self.mu!r}")
        if not math.isfinite(self.tau) or self.tau < 0:
            raise ConfigError(f"{label}.tau must be finite and >= 0, got {self.tau!r}")


@dataclass(frozen=True)
class NoiseModel:
    """Measurement noise is Normal(0, sigma^2); sigma must be positive."""

    sigma: float

    def validate(self) -> None:
        if not math.isfinite(self.sigma) or self.sigma <= 0:
            raise ConfigError(f"noise.sigma must be finite and > 0, got {self.sigma!r}")


@dataclass(frozen=True)
class WorldConfig:
    pop_c: PopulationModel
    pop_d: PopulationModel
    pop_t: PopulationModel
    noise: NoiseModel
    prior_h1: float
    scenario: ScenarioKind
    score_kind: ScoreKind
    n_trace: int = 1
    n_ref: int = 1

    def validate(self) -> "WorldConfig":
        """Check every field; returns self so call sites can chain."""
        self.pop_c.validate("popC")
        self.pop_d.validate("popD")
        self.pop_t.validate("popT")
        self.noise.validate()
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
            noise = (self.noise.sigma**2, self.var_trace_mean, self.var_ref_mean)
            spread = tuple(p.tau**2 for p in (self.pop_c, self.pop_d, self.pop_t))
        except OverflowError:  # a float or an int too large for a float
            noise, spread = (math.inf,), ()
        if not all(0.0 < v < math.inf for v in noise) or math.inf in spread:
            raise ConfigError(
                "tau**2, sigma**2, sigma**2/n_trace and sigma**2/n_ref must be "
                "finite floats, and the sigma terms > 0")
        if self.scenario is ScenarioKind.TraceCrimeRelevant and self.pop_c != self.pop_t:
            raise ConfigError("TraceCrimeRelevant requires popC == popT")
        if self.scenario is ScenarioKind.ReferenceCrimeRelevant and self.pop_c != self.pop_d:
            raise ConfigError("ReferenceCrimeRelevant requires popC == popD")
        if self.scenario is ScenarioKind.DistinctionIrrelevant and not (
                self.pop_c == self.pop_d == self.pop_t):
            raise ConfigError("DistinctionIrrelevant requires popC == popD == popT")
        return self

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
    truth_h1: np.ndarray      # uint8, 1 where H1 holds
    theta_r: np.ndarray       # suspect source mean
    theta_trace: np.ndarray   # actual trace source mean (== theta_r under H1)
    x: np.ndarray             # trace measurement mean, shape (n,)
    y: np.ndarray             # reference measurement mean, shape (n,)

    def __len__(self) -> int:
        return int(self.truth_h1.shape[0])


# Each column of draws has its own Philox counter space, [0, column, chunk, 0]
# for chunks of _CHUNK cases, so case i depends only on (seed, i) and no
# column's draws depend on another's.
_CHUNK = 1 << 16
_TRUTH, _SUSPECT, _ALTERNATIVE, _TRACE_MEAN, _REF_MEAN = range(5)


def _column(seed: int, column: int, n: int, uniform: bool = False) -> np.ndarray:
    """Draws of one column for cases 0..n-1: [0, 1) uniforms or normals."""
    out = np.empty(n, dtype=np.float64)
    for chunk, start in enumerate(range(0, n, _CHUNK)):
        gen = np.random.Generator(
            np.random.Philox(key=seed, counter=[0, column, chunk, 0]))
        part = out[start:start + _CHUNK]
        if uniform:
            gen.random(out=part)
        else:
            gen.standard_normal(out=part)
    return out


def generate_cases(
    world: WorldConfig,
    master_seed: int,
    n_cases: int,
    force_truth: Hypothesis | None = None,
) -> CaseBatch:
    """Generate n_cases cases; case i only depends on (master_seed, i).

    force_truth pins every case to one hypothesis; every other value of a
    case is the one it has in a mixed run with the same truth.
    """
    if n_cases < 1:
        raise ConfigError(f"n_cases must be >= 1, got {n_cases}")
    n = int(n_cases)
    if force_truth is None:
        truth_h1 = (_column(master_seed, _TRUTH, n, uniform=True)
                    < world.prior_h1).astype(np.uint8)
    elif isinstance(force_truth, Hypothesis):
        truth_h1 = np.full(n, force_truth is Hypothesis.H1, dtype=np.uint8)
    else:
        raise ConfigError(
            f"force_truth must be a Hypothesis or None, got {force_truth!r}")
    is_h1 = truth_h1.astype(bool)
    pop_c, pop_d, pop_t = world.pop_c, world.pop_d, world.pop_t
    z = _column(master_seed, _SUSPECT, n)
    theta_r = np.where(is_h1, pop_c.mu + pop_c.tau * z, pop_d.mu + pop_d.tau * z)
    theta_alt = pop_t.mu + pop_t.tau * _column(master_seed, _ALTERNATIVE, n)
    theta_trace = np.where(is_h1, theta_r, theta_alt)
    sigma = world.noise.sigma
    x = theta_trace + sigma / math.sqrt(world.n_trace) * _column(
        master_seed, _TRACE_MEAN, n)
    y = theta_r + sigma / math.sqrt(world.n_ref) * _column(
        master_seed, _REF_MEAN, n)
    return CaseBatch(world=world, truth_h1=truth_h1, theta_r=theta_r,
                     theta_trace=theta_trace, x=x, y=y)


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
    """Build and validate a WorldConfig from a parsed JSON object."""
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
    world = WorldConfig(
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
    return world.validate()


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


def load_world(path: str | Path) -> WorldConfig:
    """Load a WorldConfig from a JSON file, with line-anchored parse errors."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    return world_from_json_dict(doc, path=str(path))


def with_population(world: WorldConfig, **pops: PopulationModel) -> WorldConfig:
    """Copy of world with populations replaced (pop_c=, pop_d=, pop_t=).

    The copy is validated, so a replacement that contradicts the world's
    scenario is rejected rather than silently producing impossible data.
    """
    return replace(world, **pops).validate()
