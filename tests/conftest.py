import json
from importlib import resources

import numpy as np
import pytest

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


def packaged_world(name: str) -> WorldConfig:
    doc = json.loads(resources.files("lrsim.data").joinpath(name).read_text())
    return world_from_json_dict(doc)


@pytest.fixture
def default_world() -> WorldConfig:
    return packaged_world("default_world.json")


@pytest.fixture
def illcond_world() -> WorldConfig:
    return packaged_world("illcond_world.json")
