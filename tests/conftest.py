import json
import os
import tracemalloc
from importlib import resources

import numpy as np
import pytest

import lrsim.genmodel as genmodel
from lrsim.genmodel import (
    NoiseModel,
    PopulationModel,
    ScenarioKind,
    ScoreKind,
    WorldConfig,
    world_from_json_dict,
)


def make_world(**overrides) -> WorldConfig:
    base = dict(
        pop_c=PopulationModel(0.0, 1.0),
        pop_d=PopulationModel(0.0, 1.0),
        pop_t=PopulationModel(1.0, 1.0),
        noise=NoiseModel(0.5),
        prior_h1=0.5,
        scenario=ScenarioKind.ReferenceCrimeRelevant,
        score_kind=ScoreKind.SignedDifference,
        n_trace=1,
        n_ref=1,
    )
    base.update(overrides)
    return WorldConfig(**base)


def same_bits(a, b) -> bool:
    """Equal shapes and dtypes, NaN where the other is NaN and every other
    value bit for bit, so that -0.0 and 0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if a.dtype.kind != "f":
        return bool(np.array_equal(a, b))
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b))
                and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


def case_columns(batch) -> tuple:
    return (batch.truth_h1, batch.theta_r, batch.theta_trace, batch.x, batch.y)


def traced_peak(fn) -> int:
    """The peak of memory traced in this process while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def record_draws(monkeypatch, path):
    """Route genmodel's chunk draws through a recorder that appends (pid,
    seed, truth, chunk, cases) to the file at path for every chunk any
    process draws; return a function that reads them back, in order per
    process."""
    cases = genmodel._cases

    def recording(world, seed, chunk, n, force_truth):
        with open(path, "a") as fh:  # one short append per draw
            fh.write(json.dumps([os.getpid(), seed, getattr(force_truth, "value", None),
                                 chunk, n]) + "\n")
        return cases(world, seed, chunk, n, force_truth)

    monkeypatch.setattr(genmodel, "_cases", recording)

    def read():
        if not os.path.exists(path):
            return []
        with open(path) as fh:
            return [tuple(json.loads(line)) for line in fh]
    return read


def packaged_world(name: str) -> WorldConfig:
    doc = json.loads(resources.files("lrsim.data").joinpath(name).read_text())
    return world_from_json_dict(doc)


@pytest.fixture
def default_world() -> WorldConfig:
    return packaged_world("default_world.json")


@pytest.fixture
def illcond_world() -> WorldConfig:
    return packaged_world("illcond_world.json")
