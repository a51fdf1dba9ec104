"""Property tests: a world with one corruption is bad input to every command.

Each example starts from the packaged world and applies exactly one
corruption: a value of the wrong JSON type, a missing or an unknown key, a
number out of range, or a magnitude whose variance overflows or underflows a
float. Every command that reads a world must then exit 2 with an error line
and leave --out as it was.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrsim.cli import main

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

BASE = json.loads(
    resources.files("lrsim.data").joinpath("default_world.json").read_text())
POPS = ("popC", "popD", "popT")
NUMBERS = [(p, k) for p in POPS for k in ("mu", "tau")] + [
    ("noise", "sigma"), ("prior_h1",)]
LEAVES = NUMBERS + [("scenario",), ("score_kind",), ("n_trace",), ("n_ref",)]
OBJECTS = {(): set(BASE), **{(p,): {"mu", "tau"} for p in POPS},
           ("noise",): {"sigma"}}
NAMES = {"ReferenceCrimeRelevant", "TraceCrimeRelevant",
         "DistinctionIrrelevant", "SignedDifference", "AbsoluteDifference"}
# small sizes: a corruption that slipped through would still finish quickly
COMMANDS = [(c, "--cases", "1000") for c in
            ("rank", "illcond", "csprior", "tailbound", "calibrate")] + [
    ("oracle-check", "--paths", "1000")]

# A corruption is (path, value): set the key at path to value, or delete it
# when value is DELETE.
DELETE = object()

wrong_type = st.tuples(
    st.sampled_from(LEAVES + [(p,) for p in (*POPS, "noise")]),
    st.one_of(st.booleans(), st.none(),
              st.text(max_size=8).filter(lambda s: s not in NAMES),
              st.lists(st.integers(), max_size=2)))
missing = st.tuples(
    st.sampled_from([k for k in LEAVES if k[0] not in ("n_trace", "n_ref")]
                    + [(p,) for p in (*POPS, "noise")]),
    st.just(DELETE))
unknown = st.sampled_from(sorted(OBJECTS)).flatmap(lambda obj: st.tuples(
    st.text(min_size=1, max_size=8).filter(lambda k: k not in OBJECTS[obj])
    .map(lambda k: (*obj, k)),
    st.integers()))
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
out_of_range = st.one_of(
    st.tuples(st.sampled_from(NUMBERS), non_finite),
    st.tuples(st.sampled_from([(p, "tau") for p in POPS]),
              st.floats(max_value=-5e-324)),
    st.tuples(st.just(("noise", "sigma")), st.floats(max_value=0.0)),
    st.tuples(st.just(("prior_h1",)),
              st.floats(max_value=0.0) | st.floats(min_value=1.0)),
    st.tuples(st.sampled_from([("n_trace",), ("n_ref",)]),
              st.integers(max_value=0)))
# sigma**2 or tau**2 overflows past 1.34e154, sigma**2 underflows to 0.0
# below 1.5e-162, and a count past 2**1024 cannot become a float
extreme = st.one_of(
    st.tuples(st.sampled_from([("noise", "sigma")] + [(p, "tau") for p in POPS]),
              st.floats(min_value=1.35e154, max_value=1.7e308)),
    st.tuples(st.just(("noise", "sigma")),
              st.floats(min_value=5e-324, max_value=1e-162)),
    st.tuples(st.sampled_from([("n_trace",), ("n_ref",)]),
              st.integers(min_value=2**1024, max_value=2**1100)))


def corrupted(path, value) -> dict:
    doc = copy.deepcopy(BASE)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def snapshot(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(wrong_type, missing, unknown, out_of_range, extreme))
@example((("noise", "sigma"), 1e200))
@example((("popT", "tau"), 1e200))
@example((("n_trace",), 10**400))
@example((("noise", "sigma"), 1e-200))
def test_one_corruption_of_the_world_exits_2(corruption):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "world.json"
        config.write_text(json.dumps(corrupted(*corruption)))
        out = Path(tmp) / "out"
        out.mkdir()
        (out / "report.json").write_text("kept\n")
        before = snapshot(out)
        for command, size_flag, size in COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main([command, "--config", str(config), size_flag, size,
                             "--out", str(out), "--force"])
            assert code == 2, (command, corruption, err.getvalue())
            assert err.getvalue().startswith("error:"), (command, corruption)
            assert snapshot(out) == before, (command, corruption)
