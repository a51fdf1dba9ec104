import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lrsim.cli as cli
import lrsim.forked as forked
import lrsim.genmodel as genmodel
import lrsim.harness as harness
import lrsim.oracle as oracle
from lrsim.cli import main
from lrsim.costmodel import DemandProfile, TradeoffRow
from lrsim.genmodel import ConfigError, world_from_json_dict
from lrsim.harness import RankingVerdict, TailBoundRow, run_experiment
from lrsim.oracle import RECIPES, OracleComparison, PathBank

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(p)


DEFAULT_WORLD_DOC = {
    "popC": {"mu": 0.0, "tau": 1.0},
    "popD": {"mu": 0.0, "tau": 1.0},
    "popT": {"mu": 1.0, "tau": 1.0},
    "noise": {"sigma": 0.5},
    "prior_h1": 0.5,
    "scenario": "ReferenceCrimeRelevant",
    "score_kind": "SignedDifference",
    "n_trace": 1,
    "n_ref": 1,
}


# ---------------------------------------------------------------------------
# input validation

def test_missing_config_is_exit_2(tmp_path, capsys):
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe{}")
    for path, message in ((tmp_path / "nope.json", "config not found"),
                          (tmp_path, "cannot read config"),  # a directory
                          (latin, "cannot read config")):  # not UTF-8
        code, stdout, err = run(capsys, "rank", "--config", str(path),
                                "--out", str(tmp_path / "o"))
        assert code == 2
        assert message in err and stdout == ""


def test_malformed_json_reports_position(tmp_path, capsys):
    cfg = write_config(tmp_path, '{"popC": {')
    code, _, err = run(capsys, "rank", "--config", cfg,
                       "--out", str(tmp_path / "o"))
    assert code == 2
    assert f"{cfg}:1:" in err


# the retired wrapper's keys, and one misspelt key
_WRAPPER_KEYS = [{}, {"n_cases": 2000}, {"rule": "brier"},
                 {"systems": ["CSFLR", "CSYASLR"]}, {"n_case": 5000}]


def test_unknown_wrapper_key_rejected(tmp_path, capsys):
    # a config is a world: --cases and --rule set the size and the rule,
    # every run scores every system, and a {"world": ...} wrapper is bad
    # input to every command that reads a config, whatever it holds
    out = tmp_path / "o"
    out.mkdir()
    (out / "keep.txt").write_text("kept")
    for extra in _WRAPPER_KEYS:
        cfg = write_config(tmp_path, {"world": DEFAULT_WORLD_DOC, **extra})
        for command in ("rank", "illcond", "csprior", "tailbound", "oracle-check"):
            code, stdout, err = run(capsys, command, "--config", cfg,
                                    "--out", str(out))
            assert (code, stdout) == (2, ""), (command, extra)
            assert err == (f"error: unknown key(s) {sorted({'world', *extra})} "
                           f"in {cfg}\n")
            assert {p.name: p.read_text() for p in out.iterdir()} == {
                "keep.txt": "kept"}


def test_unknown_system_name_rejected(tmp_path, capsys):
    # a config names no systems: the wrapper is refused before any name is read
    cfg = write_config(tmp_path, {"world": DEFAULT_WORLD_DOC,
                                  "systems": ["CSFLR", "XYZ"]})
    code, _, err = run(capsys, "rank", "--config", cfg,
                       "--out", str(tmp_path / "o"))
    assert code == 2
    assert err == f"error: unknown key(s) ['systems', 'world'] in {cfg}\n"


def test_negative_seed_rejected(tmp_path, capsys):
    code, _, err = run(capsys, "rank", "--seed", "-1",
                       "--out", str(tmp_path / "o"))
    assert code == 2
    assert "seed" in err


def test_seed_beyond_64_bits_rejected(tmp_path, capsys):
    out = tmp_path / "o"
    code, _, err = run(capsys, "rank", "--seed", str(2**64), "--out", str(out))
    assert code == 2
    assert err.startswith("error:") and "seed" in err
    assert not out.exists()


@pytest.mark.parametrize("field,value", [("n_trace", 1.7), ("n_ref", True),
                                         ("n_trace", "2")])
def test_measurement_counts_must_be_json_integers(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, dict(DEFAULT_WORLD_DOC, **{field: value}))
    out = tmp_path / "o"
    code, _, err = run(capsys, "rank", "--config", cfg, "--out", str(out))
    assert code == 2
    assert err.startswith("error:") and field in err
    assert not out.exists()


@pytest.mark.parametrize("where,value", [
    (("noise", "sigma"), True), (("popC", "mu"), "0.0"),
    (("prior_h1",), "0.5"), (("popD", "tau"), None), (("popT", "mu"), 10**400),
])
def test_world_numbers_must_be_json_numbers(tmp_path, capsys, where, value):
    doc = json.loads(json.dumps(DEFAULT_WORLD_DOC))
    (doc[where[0]] if len(where) == 2 else doc)[where[-1]] = value
    out = tmp_path / "o"
    code, _, err = run(capsys, "rank", "--config",
                       write_config(tmp_path, doc), "--out", str(out))
    assert code == 2
    assert err.startswith("error:") and where[-1] in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["rank", "tailbound"])
@pytest.mark.parametrize("where,value", [
    (("noise", "sigma"), 1e200), (("popT", "tau"), 1e200),
    (("n_trace",), 10**400), (("noise", "sigma"), 1e-200),
    (("popT", "tau"), 1e-200),
])
def test_variances_that_overflow_or_underflow_are_rejected(
        tmp_path, capsys, command, where, value):
    # sigma**2 and tau**2 overflowed (exit 1), sigma**2 underflowed to 0.0
    # (tailbound passed on NaN LRs with exit 0), and a tau > 0 whose tau**2
    # underflows to 0.0 is a population of zero spread in disguise
    doc = json.loads(json.dumps(DEFAULT_WORLD_DOC))
    (doc[where[0]] if len(where) == 2 else doc)[where[-1]] = value
    out = tmp_path / "o"
    out.mkdir()
    (out / "keep.txt").write_text("kept")
    code, _, err = run(capsys, command, "--config", write_config(tmp_path, doc),
                       "--cases", "2000", "--out", str(out))
    assert code == 2
    tiny_tau = where[-1] == "tau" and value < 1
    assert err.startswith("error:")
    assert ("popT.tau" if tiny_tau else "sigma**2") in err
    assert [p.name for p in out.iterdir()] == ["keep.txt"]
    assert (out / "keep.txt").read_text() == "kept"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["rank", "illcond", "tailbound"])
def test_nan_lrs_are_bad_input_not_scores(tmp_path, capsys, command):
    # a valid world whose populations sit at opposite ends of the float range:
    # x - y overflows to inf and inf - inf is NaN. rank and illcond failed on
    # "stated probabilities must lie in [0, 1]", and tailbound passed with
    # "0 failures" because every comparison with NaN is false
    doc = dict(DEFAULT_WORLD_DOC, popC={"mu": -1e308, "tau": 1.0},
               popD={"mu": -1e308, "tau": 1.0}, popT={"mu": 1e308, "tau": 1.0})
    out = tmp_path / "o"
    out.mkdir()
    (out / "keep.txt").write_text("kept")
    code, stdout, err = run(capsys, command, "--config",
                            write_config(tmp_path, doc), "--cases", "2000",
                            "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:")
    assert re.search(r"[A-Z]+LR gave \d+ NaN log LRs in cases 0 to 1999 on the "
                     r"world ", err)
    assert '"mu": 1e+308' in err
    assert [p.name for p in out.iterdir()] == ["keep.txt"]
    assert (out / "keep.txt").read_text() == "kept"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["rank", "illcond", "tailbound"])
def test_nan_lrs_name_the_cases_they_counted(tmp_path, capsys, command):
    # above one chunk the refusal counts one chunk of cases; it once read
    # "32711 NaN log LRs of 65536", as if 65536 were the run
    doc = dict(DEFAULT_WORLD_DOC, popC={"mu": -1e308, "tau": 1.0},
               popD={"mu": -1e308, "tau": 1.0}, popT={"mu": 1e308, "tau": 1.0})
    code, _, err = run(capsys, command, "--config", write_config(tmp_path, doc),
                       "--cases", "131073", "--out", str(tmp_path / "o"))
    assert code == 2
    assert re.search(r"[A-Z]+LR gave \d+ NaN log LRs in cases 0 to 65535 on "
                     r"the world ", err)


def test_tiny_measurement_noise_ranks(tmp_path, capsys):
    # sigma**2 = 1e-16 next to tau**2 = 1: the common-source feature LR once
    # took the log of a bivariate determinant that cancelled to 0 or below
    doc = dict(DEFAULT_WORLD_DOC, noise={"sigma": 1e-8})
    out = tmp_path / "o"
    code, _, err = run(capsys, "rank", "--config", write_config(tmp_path, doc),
                       "--cases", "2000", "--out", str(out))
    assert code == 0, err
    report = json.loads((out / "report.json").read_text())
    assert all(math.isfinite(v["mean"]) for v in report["per_system"].values())


@pytest.mark.parametrize("command", ["rank", "illcond", "csprior",
                                     "tailbound"])
def test_cases_below_one_rejected(tmp_path, capsys, command):
    # one case has no paired standard error: illcond and csprior once wrote
    # NaN and Infinity into report.json and exited 1
    expected = {"0": "--cases", "-5": "--cases"}
    if command in ("illcond", "csprior"):
        expected["1"] = "at least 2 cases, got 1"
    for cases, message in expected.items():
        out = tmp_path / "o"
        code, stdout, err = run(capsys, command, "--cases", cases,
                                "--out", str(out))
        assert code == 2
        assert err.startswith("error:") and message in err
        assert stdout == ""
        assert not out.exists()


@pytest.mark.parametrize("command,size", [
    ("rank", 20_000), ("illcond", 20_000), ("csprior", 20_000),
    ("tailbound", 100_000), ("oracle-check", 300_000),
])
def test_each_command_runs_at_its_default_size(tmp_path, capsys, monkeypatch,
                                               command, size):
    # without --cases (or --paths) a command runs at its own default size,
    # and report.json records that size
    sizes = []

    def stub(args, world, n):
        sizes.append(n)
        return {}, {}, [], True

    spec = cli._COMMANDS[command]
    monkeypatch.setitem(cli._COMMANDS, command, dataclasses.replace(spec, run=stub))
    out = tmp_path / "o"
    assert run(capsys, command, "--format", "json", "--out", str(out))[0] == 0
    assert sizes == [size]
    assert json.loads((out / "report.json").read_text())[spec.size] == size


@pytest.mark.parametrize("n_cases", [True, 2000.0, 0])
def test_config_n_cases_must_be_a_positive_integer(tmp_path, capsys, n_cases):
    # --cases is the only run size: a config's n_cases, valid or not, is an
    # unknown key
    cfg = write_config(tmp_path, {"world": DEFAULT_WORLD_DOC,
                                  "n_cases": n_cases})
    out = tmp_path / "o"
    code, _, err = run(capsys, "rank", "--config", cfg, "--out", str(out))
    assert code == 2
    assert err.startswith("error:") and "n_cases" in err
    assert not out.exists()


def test_bad_demand_range_is_exit_2(tmp_path, capsys):
    # a bound whose score count would be infinite is out of range too
    for flag, value in (("--lr-min", "2.0"), ("--lr-max", "inf"),
                        ("--lr-max", "1e400"), ("--lr-min", "5e-324")):
        out = tmp_path / "o"
        code, _, err = run(capsys, "demand", flag, value, "--out", str(out))
        assert code == 2
        assert err.startswith("error:")
        assert not out.exists()


@pytest.mark.parametrize("systems", [[], 5, ["CSFLR", "CSFLR"], "CSFLR"])
def test_config_systems_must_be_distinct_system_names(tmp_path, capsys,
                                                      systems):
    # every run scores every system: a config's systems list, valid or not,
    # is an unknown key to every command
    cfg = write_config(tmp_path, {"world": DEFAULT_WORLD_DOC,
                                  "systems": systems})
    out = tmp_path / "o"
    for command in ("rank", "illcond", "csprior", "tailbound", "oracle-check"):
        code, stdout, err = run(capsys, command, "--config", cfg,
                                "--out", str(out))
        assert code == 2, command
        assert err.startswith("error:") and "systems" in err
        assert stdout == ""
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("demand", "--seed", "1"), ("demand", "--config", "world.json"),
    ("oracle-check", "--cases", "10"), ("tailbound", "--rule", "brier"),
])
def test_commands_take_only_the_flags_they_read(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_calibrate_is_no_command(tmp_path, capsys):
    # rank writes calibration.csv and the calibration block; there is no
    # second command over the same experiment
    out = tmp_path / "o"
    out.mkdir()
    (out / "calibration.csv").write_text("kept\n")
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--out", str(out)])
    assert exc.value.code == 2
    assert "invalid choice: 'calibrate'" in capsys.readouterr().err
    assert {p.name: p.read_text() for p in out.iterdir()} == {
        "calibration.csv": "kept\n"}


# ---------------------------------------------------------------------------
# overwrite policy

@pytest.mark.parametrize("argv,out", [
    (("demand",), "file"),
    (("rank", "--cases", "2000"), "file/sub"),
])
def test_out_under_a_file_is_refused_before_any_work(tmp_path, capsys,
                                                     monkeypatch, argv, out):
    (tmp_path / "file").write_text("kept\n")

    def no_work(*args, **kwargs):
        raise AssertionError("the command ran before --out was checked")

    monkeypatch.setattr(cli, "run_experiment", no_work)
    monkeypatch.setattr(cli, "demand_table", no_work)
    code, stdout, err = run(capsys, *argv, "--out", str(tmp_path / out))
    assert code == 2
    assert stdout == "" and "is not a directory" in err
    assert (tmp_path / "file").read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("fmt,existing", [("json", "report.json"),
                                          ("csv", "scores.csv"),
                                          ("both", "cases.csv")])
def test_out_clash_is_refused_before_any_case_is_drawn(tmp_path, capsys,
                                                       monkeypatch, fmt, existing):
    out = tmp_path / "o"
    out.mkdir()
    (out / existing).write_text("kept\n")
    drawn = []
    monkeypatch.setattr(genmodel, "_cases", lambda *a: drawn.append(a))
    code, stdout, err = run(capsys, "rank", "--cases", "1000000",
                            "--format", fmt, "--out", str(out))
    assert code == 2 and drawn == []
    assert stdout == "" and f"refusing to overwrite {existing} in" in err
    assert [p.name for p in out.iterdir()] == [existing]
    assert (out / existing).read_text() == "kept\n"


def test_out_clash_of_an_unchosen_format_is_no_clash(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    (out / "scores.csv").write_text("kept\n")
    assert run(capsys, "rank", "--cases", "1000", "--format", "json",
               "--out", str(out))[0] == 0
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "scores.csv"]
    assert (out / "scores.csv").read_text() == "kept\n"


def test_out_clash_made_during_the_run_is_still_refused(tmp_path, capsys,
                                                        monkeypatch):
    # the check before the run does not replace the one at writing time: a
    # file that appears while the command computes is not overwritten
    out = tmp_path / "o"

    def run_then_clash(*args, **kwargs):
        report = run_experiment(*args, **kwargs)
        out.mkdir()
        (out / "scores.csv").write_text("kept\n")
        return report

    monkeypatch.setattr(cli, "run_experiment", run_then_clash)
    code, stdout, err = run(capsys, "rank", "--cases", "1000", "--out", str(out))
    assert code == 2 and stdout == ""
    assert "refusing to overwrite scores.csv in" in err
    assert [p.name for p in out.iterdir()] == ["scores.csv"]
    assert (out / "scores.csv").read_text() == "kept\n"


def test_refuses_to_overwrite_then_force(tmp_path, capsys):
    out = str(tmp_path / "o")
    code, _, _ = run(capsys, "demand", "--out", out)
    assert code == 0
    code, _, err = run(capsys, "demand", "--out", out)
    assert code == 2
    assert "--force" in err
    code, _, _ = run(capsys, "demand", "--out", out, "--force")
    assert code == 0


# ---------------------------------------------------------------------------
# one driver, all-or-nothing outputs

SMALL_ARGS = {
    "rank": ("--cases", "2000"),
    "illcond": ("--cases", "2000"),
    "csprior": ("--cases", "2000"),
    "tailbound": ("--cases", "2000"),
    "demand": (),
    "oracle-check": ("--paths", "150000"),
}

CSV_FILES = {
    "rank": {"cases.csv", "calibration.csv", "scores.csv"},
    "illcond": {"illcond.csv"},
    "csprior": {"csprior.csv"},
    "tailbound": {"tailbound.csv"},
    "demand": {"demand.csv", "tradeoff.csv"},
    "oracle-check": {"oracle.csv"},
}


@pytest.mark.parametrize("command", sorted(SMALL_ARGS))
def test_every_command_writes_exactly_its_files(tmp_path, capsys, command):
    for fmt, files in (("json", {"report.json"}), ("csv", CSV_FILES[command]),
                       ("both", {"report.json"} | CSV_FILES[command])):
        runs = []
        for rerun in ("a", "b"):
            out = tmp_path / f"{fmt}-{rerun}"
            code, stdout, err = run(capsys, command, *SMALL_ARGS[command],
                                    "--format", fmt, "--out", str(out))
            assert code in (0, 1) and err == "", (fmt, err)
            # only the chosen files: no other format, no scratch directory
            assert {p.name for p in out.iterdir()} == files, fmt
            summary = [ln for ln in stdout.splitlines()
                       if not ln.startswith("wrote:")]
            runs.append((code, summary,
                         {n: (out / n).read_bytes() for n in files}))
        assert runs[0] == runs[1], fmt


@pytest.mark.parametrize("existing", [False, True])
def test_failed_flush_leaves_out_as_it_was(tmp_path, capsys, monkeypatch,
                                           existing):
    out = tmp_path / "new" / "o"
    before = {}
    if existing:
        assert run(capsys, "rank", "--cases", "1000", "--out", str(out))[0] == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

    def failing_write(path, rows):  # report.json is in; cases.csv breaks
        path.write_text("partial")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_write_csv", failing_write)
    code, stdout, err = run(capsys, "rank", "--cases", "2000", "--seed", "1",
                            "--force", "--out", str(out))
    assert code == 1
    assert err.startswith("error:") and "disk full" in err
    assert stdout == ""
    if existing:
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    else:
        assert not (tmp_path / "new").exists()


# ---------------------------------------------------------------------------
# one CSV writer

def _mixed_table(n):
    floats = np.linspace(-1.0, 1.0, n)
    floats[:3] = (np.nan, np.inf, 1e-300)
    mixed = [None, True, False, {"b": 1, "a": [0.5]}, 'say "x, y"', 2.5]
    mixed += [None] * (n - len(mixed))
    return {
        "f": floats,
        "i": np.arange(n, dtype=np.int64),
        "s": np.where(np.arange(n) % 2 == 0, "H1", "H2"),
        "b": np.arange(n) % 3 == 0,
        "mixed": mixed,
    }


def test_write_csv_formats_every_cell_in_one_place(tmp_path):
    n = cli._CSV_BLOCK + 3  # more rows than one block
    table = _mixed_table(n)
    floats = table["f"]
    path = tmp_path / "t.csv"
    cli._write_csv(path, table)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(table)
    want_mixed = ["", "true", "false", '{"a": [0.5], "b": 1}', 'say "x, y"',
                  "2.5"] + [""] * (n - 6)
    want = [[repr(float(floats[k])), str(k), "H1" if k % 2 == 0 else "H2",
             "true" if k % 3 == 0 else "false", want_mixed[k]]
            for k in range(n)]
    assert rows[1:] == want
    assert rows[1][0] == "nan" and rows[2][0] == "inf"


def _csv_module_text(table) -> str:
    """What csv.writer (QUOTE_MINIMAL, CRLF) writes for a table, with the
    cells lrsim gives it: an array as its tolist(), booleans as true/false
    and a dict as JSON."""
    def cell(v):
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        return json.dumps(v, sort_keys=True) if isinstance(v, dict) else v

    columns = [c.tolist() if isinstance(c, np.ndarray) else c
               for c in table.values()]
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(list(table))
    writer.writerows([cell(v) for v in row] for row in zip(*columns))
    return buf.getvalue()


_TEXT = st.text(st.one_of(st.sampled_from(list(',"\r\n ab')),
                          st.characters(blacklist_categories=("Cs",),
                                        blacklist_characters="\x00")),
                max_size=6)
_FLOATS = st.one_of(st.floats(width=64),  # nan, inf and subnormals included
                    st.sampled_from([-0.0, 5e-324, -2.2e-308, 1e308, -1e308,
                                     1e-308, math.inf, -math.inf, math.nan]))
_INT64 = st.one_of(st.integers(-2**63, 2**63 - 1),
                   st.sampled_from([-2**63, 2**63 - 1, 0, -1]))
_CELLS = st.one_of(
    st.none(), st.booleans(), st.booleans().map(np.bool_), _INT64,
    _INT64.map(np.int64), _FLOATS, _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32), _TEXT,
    st.dictionaries(_TEXT, st.one_of(st.none(), st.booleans(), _INT64,
                                     st.floats(allow_nan=False), _TEXT),
                    max_size=3))


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 6))
    names = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    kinds = {
        "int64": lambda: np.array(draw(st.lists(_INT64, min_size=n, max_size=n)),
                                  dtype=np.int64),
        "float64": lambda: np.array(draw(st.lists(_FLOATS, min_size=n,
                                                  max_size=n))),
        "float32": lambda: np.array(draw(st.lists(st.floats(width=32), min_size=n,
                                                  max_size=n)), dtype=np.float32),
        "uint64": lambda: np.array(draw(st.lists(st.integers(0, 2**64 - 1),
                                                 min_size=n, max_size=n)),
                                   dtype=np.uint64),
        "bool": lambda: np.array(draw(st.lists(st.booleans(), min_size=n,
                                               max_size=n)), dtype=bool),
        "str": lambda: np.array(draw(st.lists(_TEXT, min_size=n, max_size=n)),
                                dtype=str),
        "list": lambda: draw(st.lists(_CELLS, min_size=n, max_size=n)),
    }
    return {name: kinds[draw(st.sampled_from(sorted(kinds)))]()
            for name in names}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_tables())
@example({"": [None, "", None]})  # one column of empty cells, header included
@example({"x": np.array([], dtype=np.int64)})
@example({"i": np.array([-2**63, 2**63 - 1, 0]),
          "u": np.array([0, 2**64 - 1, 1], dtype=np.uint64),
          "f": np.array([np.nan, -np.inf, -0.0]),
          "g": np.array([5e-324, 1e308, 1e-308]),
          "s": [" lead", 'é,"\r\n', "\r"]})
@example({'a,"b"': [np.float64(0.1), np.float32(0.1), np.int64(-7), np.bool_(False),
                    {"k": [1, "x,y"]}]})
# each distinct value of a piece is formatted once: one float in two columns,
# 0.0 and -0.0 apart, NaN payloads and -nan all "nan", a repeated quoted text
@example({"a": np.array([0.1, 2.5, 0.1]), "b": np.array([2.5, 0.1, 0.1], dtype=np.float32),
          "c": np.array([0.1, 0.1, 0.1])})
@example({"z": np.array([0.0, -0.0, 0.0, -0.0]), "w": np.array([-0.0, 0.0, 1.0, 0.0])})
@example({"n": np.array([0x7FF8000000000001, 0x7FF0000000000002, 0xFFF8000000000000],
                        dtype=np.uint64).view(np.float64),
          "m": np.array([math.nan, -math.nan, 0.0])})
@example({"s": np.array(['a,"b"', "x", 'a,"b"', "\r\n", "x"]),
          "t": np.array(['a,"b"', "\r\n", 'a,"b"', "x", "y"])})
def test_write_csv_quotes_as_the_csv_module_does(table):
    # the CSV writer joins rows itself; its bytes are those of csv.writer
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        cli._write_csv(path, table)
        with path.open(newline="") as fh:
            assert fh.read() == _csv_module_text(table)


@pytest.mark.parametrize("table,lengths", [
    ({"a": np.arange(5), "b": np.arange(4.0)}, "a 5, b 4"),  # shorter inside one piece
    ({"a": np.arange(14), "b": np.arange(15)}, "a 14, b 15"),  # longer past a's last piece
    ({"a": [], "b": [1]}, "a 0, b 1"),  # the first column is empty
    ({"a": np.arange(3), "b": [1, 2, 3, 4]}, "a 3, b 4"),
    (lambda: iter([{"a": np.arange(9), "b": np.arange(9)},
                   {"a": np.arange(2), "b": np.arange(3)}]), "a 2, b 3"),  # a later block
], ids=["shorter", "longer-past-a-piece", "empty-first", "list-longer", "stream"])
def test_a_ragged_table_fails_and_leaves_out_as_it_was(tmp_path, monkeypatch,
                                                        table, lengths):
    # unequal columns once lost the longer columns' last rows without a word
    monkeypatch.setattr(cli, "_CSV_BLOCK", 7)
    out_dir = tmp_path / "o"
    out_dir.mkdir()
    (out_dir / "keep.txt").write_text("kept")
    outputs = cli._Outputs(out_dir, force=False)
    outputs.add("report.json", {"a": 1})
    outputs.add("t.csv", table() if callable(table) else table)
    # the error names the file and every column's length
    with pytest.raises(ValueError, match=rf"^t\.csv: columns of unequal length: {lengths}$"):
        outputs.flush()
    assert {p.name: p.read_text() for p in out_dir.iterdir()} == {"keep.txt": "kept"}
    assert outputs.written == []
    _assert_no_child_left()


def _ragged_stream(sizes):
    """A table stream of blocks of the given row counts, walked afresh by
    every process that writes it."""
    start = 0
    for n in sizes:
        rows = np.arange(start, start + n)
        yield {"row": rows, "half": rows / 2.0, "odd": rows % 2 == 1}
        start += n


def _forks(monkeypatch):
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _tied_floats(n):
    """Float columns that share values, as tied systems' posteriors do: two
    mostly-equal columns, whose values recur across pieces, a constant and
    an integer column."""
    a = np.round(np.sin(np.arange(n)), 1)
    a[5::11] = -0.0
    return {"a": a, "b": np.where(np.arange(n) % 3 == 0, a / 3, a),
            "c": np.full(n, 0.5), "i": np.arange(n)}


# (table, pieces of 7 rows): one piece; 10 pieces, a multiple of 2 but not
# of 3; 11 pieces, a multiple of neither; 13 pieces from blocks of 30, 1, 0
# and 44 rows, so that short pieces end blocks; 11 pieces of shared floats
@pytest.mark.parametrize("table,pieces", [
    (lambda: _mixed_table(6), 1),
    (lambda: _mixed_table(67), 10),
    (lambda: _mixed_table(75), 11),
    (lambda: _ragged_stream([30, 1, 0, 44]), 13),
    (lambda: _tied_floats(75), 11),
], ids=["one-piece", "ten-pieces", "eleven-pieces", "ragged-stream", "tied-floats"])
def test_write_csv_bytes_do_not_depend_on_the_formatters(tmp_path, monkeypatch,
                                                        table, pieces):
    reference = tmp_path / "ref.csv"
    cli._write_csv(reference, table())  # the default piece size
    monkeypatch.setattr(cli, "_CSV_BLOCK", 7)
    # the writer takes any number of formatters; the cap is only a policy
    monkeypatch.setattr(forked, "CAP", 3)
    forks = _forks(monkeypatch)
    for k in (1, 2, 3):
        monkeypatch.setattr(forked, "cpus", lambda: k)
        path = tmp_path / f"k{k}.csv"
        cli._write_csv(path, table())
        assert path.read_bytes() == reference.read_bytes(), k
        # a table of one piece never forks
        assert len(forks) == (k - 1 if pieces > 1 else 0), k
        _assert_no_child_left()
        forks.clear()


def test_write_csv_forks_at_most_one_formatter(tmp_path, monkeypatch):
    # memory and wall time are measured only for two processes, so a host
    # with more CPUs still uses two
    monkeypatch.setattr(cli, "_CSV_BLOCK", 7)
    monkeypatch.setattr(forked, "cpus", lambda: 8)
    forks = _forks(monkeypatch)
    cli._write_csv(tmp_path / "t.csv", _mixed_table(75))
    assert len(forks) == 1
    _assert_no_child_left()


def test_rank_cases_csv_is_the_same_on_one_and_two_cpus(tmp_path, capsys,
                                                        monkeypatch):
    # three chunks of cases, the last of one case, so the last piece is one row
    digests = []
    for k in (1, 2):
        monkeypatch.setattr(forked, "cpus", lambda: k)
        out = tmp_path / f"k{k}"
        assert run(capsys, "rank", "--cases", "131073", "--format", "csv",
                   "--out", str(out))[0] == 0
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in out.iterdir()})
    assert digests[0] == digests[1]
    _assert_no_child_left()


@pytest.mark.parametrize("argv", [
    ("rank", "--format", "json"),
    ("tailbound",),
    ("illcond", "--config", str(resources.files("lrsim.data") / "illcond_world.json")),
    ("csprior",),
], ids=["rank", "tailbound", "illcond", "csprior"])
def test_chunked_commands_are_the_same_on_one_and_two_cpus(tmp_path, capsys,
                                                          monkeypatch, argv):
    # three chunks of cases, the last of one case: on two CPUs a case worker
    # summarises chunk 1, and this process chunks 0 and 2
    forks = _forks(monkeypatch)
    runs = []
    for k in (1, 2):
        monkeypatch.setattr(forked, "cpus", lambda: k)
        out = tmp_path / f"k{k}"
        code, stdout, err = run(capsys, *argv, "--cases", "131073", "--seed", "3",
                                "--out", str(out))
        runs.append((code, stdout.replace(str(out), "OUT"), err,
                     {p.name: p.read_bytes() for p in out.iterdir()}))
        assert bool(forks) == (k == 2), k
        _assert_no_child_left()
    assert runs[0] == runs[1]


class ChunkWarning(Warning):
    """Warned by a chunk beyond the first in the test below."""


@pytest.mark.parametrize("fails", [False, True], ids=["warns", "fails"])
def test_a_later_chunk_warns_and_fails_as_on_one_cpu(tmp_path, capsys,
                                                     monkeypatch, fails):
    # chunk 1 is the case worker's on two CPUs. Its warning is shown once, at
    # its place, and not again for chunk 2 at the same line; its error is the
    # one a one-process run raises, before chunk 2's
    posterior = harness.system_posterior

    def later_chunks_warn(system, batch, world=None):
        if batch.first > 0:
            warnings.warn("a chunk beyond the first", ChunkWarning)
            if fails:
                raise ConfigError(f"chunk at case {batch.first} fails")
        return posterior(system, batch, world)

    monkeypatch.setattr(harness, "system_posterior", later_chunks_warn)
    forks = _forks(monkeypatch)
    runs = []
    for k in (1, 2):
        monkeypatch.setattr(forked, "cpus", lambda: k)
        runs.append(run(capsys, "rank", "--cases", "131073", "--format", "json",
                        "--out", str(tmp_path / "o"), "--force"))
        assert bool(forks) == (k == 2), k
        _assert_no_child_left()
    assert runs[0] == runs[1]
    code, _, err = runs[0]
    lines = ["warning: a chunk beyond the first"]
    if fails:
        assert code == 2
        lines.append("error: chunk at case 65536 fails")
    else:
        assert code == 0
    assert err.splitlines() == lines


def test_nan_refusal_reads_the_same_on_one_and_two_cpus(tmp_path):
    # the world of test_nan_lrs_name_the_cases_they_counted, run as its own
    # process, so that every warning is shown under the default filters
    doc = dict(DEFAULT_WORLD_DOC, popC={"mu": -1e308, "tau": 1.0},
               popD={"mu": -1e308, "tau": 1.0}, popT={"mu": 1e308, "tau": 1.0})
    config = write_config(tmp_path, doc)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    runs = []
    for k in (1, 2):
        script = ("import sys, lrsim.cli as cli, lrsim.forked as forked; "
                  f"forked.cpus = lambda: {k}; sys.exit(cli.main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", script, "illcond", "--config", config,
             "--cases", "131073", "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=120)
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs[0] == runs[1]
    code, stdout, err = runs[0]
    assert (code, stdout) == (2, "")
    assert re.search(r"\nerror: [A-Z]+LR gave \d+ NaN log LRs in cases 0 to 65535 "
                     r"on the world ", err)


# (where the second chunk of cases raises, extra cases beyond one chunk, the
# error): in every process, as a broken stream would; in this process alone,
# while the formatter waits to send piece 17 down a full pipe; in the forked
# formatter alone, before it sends its last piece (17) or after it
@pytest.mark.parametrize("failing,extra,error", [
    ("all", 1, "second chunk"),
    ("parent", 2 * 2**12 + 1, "second chunk"),
    ("formatter", 2**12 + 1, "CSV formatter 1 of 2 ended before piece 17"),
    ("formatter", 1, "1 of 1 CSV formatters failed"),
], ids=["every-process", "this-process", "formatter-before-its-last-piece",
        "formatter-after-its-last-piece"])
def test_a_stream_failing_after_the_fork_leaves_out_and_no_child(
        tmp_path, capsys, monkeypatch, failing, extra, error):
    parent = os.getpid()
    posterior = cli.system_posterior

    def failing_posterior(system, batch, world=None):
        here = "parent" if os.getpid() == parent else "formatter"
        if batch.first > 0 and failing in ("all", here):
            raise RuntimeError("second chunk")
        return posterior(system, batch, world)

    monkeypatch.setattr(cli, "system_posterior", failing_posterior)
    monkeypatch.setattr(forked, "cpus", lambda: 2)
    monkeypatch.setattr(cli, "_CSV_BLOCK", 2**12)
    forks = _forks(monkeypatch)
    out = tmp_path / "o"
    out.mkdir()
    (out / "keep.txt").write_text("kept")
    code, stdout, err = run(capsys, "rank", "--cases", str(2**16 + extra),
                            "--format", "csv", "--out", str(out))
    assert (code, stdout, err) == (1, "", f"error: RuntimeError: {error}\n")
    # two chunks of cases: the experiment forks a case worker, then cases.csv
    # forks its formatter
    assert len(forks) == 2
    assert [p.name for p in out.iterdir()] == ["keep.txt"]
    _assert_no_child_left()


def _children(pid):
    with open(f"/proc/{pid}/task/{pid}/children") as fh:
        return [int(c) for c in fh.read().split()]


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")  # a zombie has left; only its reaper is late


def _killed_leaves(out, argv, ready):
    """Run the CLI on two CPUs, whatever this host has, SIGKILL it once it
    has a forked child and ready() holds, and return the children that
    still run about 2 s later (after killing them, so that nothing is left
    running either way)."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    script = ("import sys, lrsim.cli as cli, lrsim.forked as forked; "
              "forked.cpus = lambda: 2; sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *argv, "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while not ((workers := _children(proc.pid)) and ready()):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
    finally:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 2.0
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in workers if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    return left


needs_children = pytest.mark.skipif(
    not hasattr(os, "fork")
    or not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="needs fork and /proc/<pid>/task/<pid>/children")


@needs_children
def test_killed_command_leaves_no_formatter(tmp_path):
    # killed while cases.csv is being written: the case worker of the
    # experiment is reaped by then, so the child is the formatter
    out = tmp_path / "o"
    assert _killed_leaves(
        out, ["rank", "--cases", "400000", "--format", "csv"],
        lambda: any(out.glob(".lrsim-*/cases.csv"))) == []
    # the killed run's scratch directory goes with the next run's flush
    assert [p.name[:7] for p in out.iterdir()] == [".lrsim-"]
    assert main(["demand", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "demand.csv", "report.json", "tradeoff.csv"]


def _dead_pid():
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()  # reaped, so the pid runs nothing until it is reused
    return proc.pid


def test_flush_removes_the_scratch_of_a_run_that_is_gone(tmp_path, capsys):
    out = tmp_path / "o"
    left = out / f".lrsim-{_dead_pid()}-x1y2z3"
    left.mkdir(parents=True)
    (left / "cases.csv").write_text("partial")
    assert run(capsys, "demand", "--out", str(out))[0] == 0
    assert not left.exists()


def test_flush_keeps_a_live_run_s_scratch_and_other_names(tmp_path, capsys):
    # a run still writing may be this process, or any other that runs; a
    # name without a pid, or a file, is not a scratch directory of this code
    out = tmp_path / "o"
    sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        kept = [out / f".lrsim-{os.getpid()}-a1", out / f".lrsim-{sleeper.pid}-b2",
                out / ".lrsim-zdpn7sbh", out / f".lrsim-{_dead_pid()}",
                out / f".lrsim-x{_dead_pid()}-c3"]
        for path in kept:
            path.mkdir(parents=True)
        (out / f".lrsim-{_dead_pid()}-file").write_text("not a directory")
        assert run(capsys, "demand", "--out", str(out))[0] == 0
    finally:
        sleeper.kill()
        sleeper.wait()
    assert all(path.is_dir() for path in kept)
    assert len([p for p in out.iterdir() if p.name.startswith(".lrsim-")]) == 6


@needs_children
def test_killed_command_leaves_no_case_worker(tmp_path):
    # killed while the experiment's chunks are being summarised
    assert _killed_leaves(tmp_path / "o",
                          ["rank", "--cases", "1000000", "--format", "json"],
                          lambda: True) == []


def test_importing_the_cli_loads_no_process_pool():
    # the forked formatters need neither, and importing them would add to
    # the start-up time of every command
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, lrsim.cli; print(sorted(m for m in "
         "('multiprocessing', 'concurrent.futures') if m in sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("doc", [
    # sigma 0.01 puts LR cells at the +/-300 exponent clip and clamps
    # posteriors, so the extremes are written too
    dict(DEFAULT_WORLD_DOC, noise={"sigma": 0.01}),
    # the folded score breaks the signed world's ties: fewer cells repeat
    json.loads((resources.files("lrsim.data") / "abs_world.json").read_text()),
], ids=["sigma-0.01", "abs-world"])
def test_cases_csv_round_trips_every_float_exactly(tmp_path, capsys, doc):
    out = tmp_path / "o"
    code, _, _ = run(capsys, "rank", "--config", write_config(tmp_path, doc),
                     "--cases", "2000", "--out", str(out))
    assert code == 0
    world = world_from_json_dict(doc)
    blocks = list(cli._case_table(world, 0, 2000))
    table = {k: np.concatenate([b[k] for b in blocks]) for k in blocks[0]}
    if doc["noise"]["sigma"] == 0.01:
        report = run_experiment(world, 2000, 0)
        lr = np.concatenate([v for k, v in table.items() if k.endswith("_lr")])
        assert np.isin(lr, (1e-300, 1e300)).sum() > 0
        assert sum(report.clamp_counts.values()) > 0
    with (out / "cases.csv").open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == list(table)
    for name, cells in zip(header, zip(*rows)):
        col = table[name]
        if col.dtype.kind == "f":
            got = np.array([float(c) for c in cells])
            assert np.array_equal(got.view(np.uint64), col.view(np.uint64)), name
        else:
            assert list(cells) == [str(v) for v in col.tolist()], name


@pytest.mark.parametrize("command,flags", [
    ("tailbound", [("rows", "passed")]),
    ("oracle-check", [("rows", "within_3se")]),
    ("demand", [("profiles", "reusable"), ("tradeoff", "infeasible"),
                ("tradeoff", "favourable")]),
])
def test_reports_hold_json_booleans_and_null(tmp_path, capsys, command, flags):
    out = tmp_path / "o"
    code, _, _ = run(capsys, command, *SMALL_ARGS[command], "--format", "json",
                     "--out", str(out))
    assert code in (0, 1)
    doc = json.loads((out / "report.json").read_text())

    def leaves(key, v):  # (key, value) of every scalar in the report
        if isinstance(v, dict):
            return [x for k, item in v.items() for x in leaves(k, item)]
        if isinstance(v, list):
            return [x for item in v for x in leaves(key, item)]
        return [(key, v)]

    # an empty tradeoff note is free text, not a missing value
    strings = {v for k, v in leaves(None, doc)
               if isinstance(v, str) and k != "notes"}
    assert not {"true", "false", ""} & strings
    for table, key in flags:
        assert all(isinstance(row[key], bool) for row in doc[table]), key
    if command == "demand":  # CSFLR models densities: no score counts
        assert doc["profiles"][1]["h1_scores"] is None


def _strict_json(text: str):
    """Parse text as JSON parsers outside Python do: NaN and Infinity are
    not JSON."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


# popT at 1e160 overflows when squared, so illcond's identity residual is NaN
_NAN_WORLD_DOC = dict(DEFAULT_WORLD_DOC, popT={"mu": 1e160, "tau": 1.0})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command,nan_world", [
    *((command, False) for command in sorted(SMALL_ARGS)),
    *((command, True) for command in ("rank", "illcond", "csprior", "tailbound")),
])
def test_every_report_is_strict_json(tmp_path, capsys, command, nan_world):
    config = ("--config", write_config(tmp_path, _NAN_WORLD_DOC)) if nan_world else ()
    out = tmp_path / "o"
    code, _, _ = run(capsys, command, *SMALL_ARGS[command], *config,
                     "--format", "json", "--out", str(out))
    assert code in (0, 1)
    _strict_json((out / "report.json").read_text())


def test_a_non_finite_report_number_is_null():
    # a paired margin is +/-inf with no spread, and a calibration gap NaN
    # when no bin qualifies
    doc = {"b": [math.inf, -math.inf, np.float64("nan")], "a": {"c": math.nan},
           "d": (1.5, 2), "e": None}
    assert _strict_json(cli._json_dumps(doc)) == {
        "a": {"c": None}, "b": [None, None, None], "d": [1.5, 2], "e": None}


# ---------------------------------------------------------------------------
# deterministic output

def test_rank_reruns_are_byte_identical(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(capsys, "rank", "--cases", "2000", "--out", a)[0] == 0
    assert run(capsys, "rank", "--cases", "2000", "--out", b)[0] == 0
    for name in ("report.json", "cases.csv", "calibration.csv", "scores.csv"):
        pa, pb = tmp_path / "a" / name, tmp_path / "b" / name
        assert pa.read_bytes() == pb.read_bytes(), name


def test_seed_changes_the_report(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run(capsys, "rank", "--cases", "2000", "--seed", "0", "--out", a)
    run(capsys, "rank", "--cases", "2000", "--seed", "1", "--out", b)
    assert (tmp_path / "a" / "report.json").read_bytes() != \
        (tmp_path / "b" / "report.json").read_bytes()


# ---------------------------------------------------------------------------
# command happy paths

def test_rank_outputs(tmp_path, capsys):
    out = tmp_path / "o"
    code, stdout, _ = run(capsys, "rank", "--cases", "2000", "--out", str(out))
    assert code == 0
    assert "claims:" in stdout and "0 Violated" in stdout
    assert "wrote:" in stdout
    doc = json.loads((out / "report.json").read_text())
    assert doc["command"] == "rank"
    assert doc["n_cases"] == 2000
    assert len(doc["verdicts"]) == 11
    assert sum(doc["verdict_counts"].values()) == 11
    assert doc["verdict_counts"]["Violated"] == 0
    assert len(doc["per_system"]) == 9
    assert all(set(v) == {"mean", "n", "se"} for v in doc["per_system"].values())
    header = (out / "cases.csv").read_text().splitlines()[0]
    assert header.startswith("case_id,truth,r_theta,x,y")
    assert "CSFLR_posterior" in header
    assert len((out / "cases.csv").read_text().splitlines()) == 2001


def test_rank_json_only_format(tmp_path, capsys):
    out = tmp_path / "o"
    code, _, _ = run(capsys, "rank", "--cases", "2000", "--out", str(out),
                     "--format", "json")
    assert code == 0
    assert (out / "report.json").exists()
    assert not (out / "cases.csv").exists()


def test_rank_json_builds_no_case_table(tmp_path, capsys, monkeypatch):
    # cases.csv is built only when CSV is written
    def refuse(report):
        raise AssertionError("case table built for --format json")

    monkeypatch.setattr(cli, "_case_table", refuse)
    out = tmp_path / "o"
    assert run(capsys, "rank", "--cases", "2000", "--format", "json",
               "--out", str(out))[0] == 0
    assert [p.name for p in out.iterdir()] == ["report.json"]


_RANK_CALIBRATION_SEED0 = (
    "18d27822aab12fd2260589192212e4076fabc30420c043fd3af6258652404aa2")
_RANK_CASES_SEED0 = (
    "82df60e56fb68c0ccc3edf8b763eb8dd1901140b66eb32102980706ff5e380d7")


@pytest.mark.parametrize("flags,digests", [
    (("--seed", "0"), {
        "calibration.csv": _RANK_CALIBRATION_SEED0,
        "cases.csv": _RANK_CASES_SEED0,
        "report.json":
            "aeb84792c5324708cf55235f56f352c74349c02771b35b5cb8a34b59b0072e2f",
        "scores.csv":
            "c581f26f142e65379a5b712d7e8677955fab07031d046ffc8b9314507bb842db"}),
    (("--seed", "7"), {
        "calibration.csv":
            "3f957431f54d0ab6075b9f30664fa58ead8b9f2070feb9db19aa3b52d71aab31",
        "cases.csv":
            "19dd0919de22799bf98457717b4319800f0deafa90a0e8ae6b7ccb8c5182ef28",
        "report.json":
            "58781f6f732911287ad1e2b3c889935b59d63c5ff9350e9d9c25a6bc05f65ce8",
        "scores.csv":
            "e5057af5e4ce642b366a56ec2512e7eb0f165831f630776f887659c2d6079797"}),
    (("--seed", "0", "--rule", "brier"), {
        "calibration.csv": _RANK_CALIBRATION_SEED0,
        "cases.csv": _RANK_CASES_SEED0,
        "report.json":
            "424d67fbbe339274987e80b5da2132090e4f1ab2bd982f35b7ac486b093941fe",
        "scores.csv":
            "7a452052ac2ef6f8e9f0d9c4b2f90a63f1b6b1c5e4378474dbb65154133ef1b7"}),
])
def test_rank_bytes_are_pinned(tmp_path, capsys, flags, digests):
    # the rule changes only the scores, so the cases and the calibration of
    # the stated posteriors are the same under both rules
    out = tmp_path / "o"
    assert run(capsys, "rank", "--cases", "10000", "--format", "both",
               *flags, "--out", str(out))[0] == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == digests


def test_rank_bytes_are_pinned_with_trace_and_reference_means(tmp_path, capsys):
    # the world of perfbench's rank-1m-json workload: x and y are means of
    # 4 trace and 16 reference measurements
    config = write_config(tmp_path, dict(DEFAULT_WORLD_DOC, n_trace=4, n_ref=16))
    out = tmp_path / "o"
    assert run(capsys, "rank", "--cases", "10000", "--format", "both",
               "--config", config, "--out", str(out))[0] == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == {
        "calibration.csv":
            "4e8959fdddefbd3e6e90ad0cc8bb26cc6dc4c5521ddd28181965c8b6f1310c9a",
        "cases.csv":
            "8587ab61f12baf0b3651af10a8be927be95854accc156cee84ed7046d9ea6618",
        "report.json":
            "1c8b7a984431e662ebd2d5680a46b75fce1e53effc69b0df3297cdf720cd7821",
        "scores.csv":
            "60bc485b274b674703157b20e259a4cce2c2c8f5c8eb9faca002da837ae6328e"}


@pytest.mark.parametrize("seed,rule,digests", [
    pytest.param("0", "log", {
        "calibration.csv":
            "470d167cf4ca01f95b7b4e1f89f9c47a907f687df4b45da70074d42d4ddffe5f",
        "cases.csv":
            "f2fe2ed87440e3d6070d43ed52db76e21ddecf5b9c7460c16b061a8c81d644c2",
        "report.json":
            "14a6dbdd50f0aafe15877a535809c4f27515815d2cb54a8398191b7272a01a5d",
        "scores.csv":
            "fe1b810371aa88ae4ac874bb85486341545d0f45f9789cf9781fe2255619cdd0"},
        id="0-digests0"),
    pytest.param("7", "log", {
        "calibration.csv":
            "ef67aa08c1b50f268a65b28fbdde205bf8d7e15c5cf726f0c16f317fc7409523",
        "cases.csv":
            "1a481ed36fda97bd944046b45442415d5b6b16a71c1eb22fb89f5ef22334ce67",
        "report.json":
            "a7b0ec3bf72d4dc3588c74b61188b30da4eecbdff883362d2758ebdc1761d861",
        "scores.csv":
            "df11ea1dd928869d490cbbbc49000bc0b626d9f6e35dd2d137777cc86714cdc1"},
        id="7-digests1"),
    # the Brier rule scores the merged chunks too: only report.json and
    # scores.csv differ from the log rule's run on the same cases
    pytest.param("0", "brier", {
        "calibration.csv":
            "470d167cf4ca01f95b7b4e1f89f9c47a907f687df4b45da70074d42d4ddffe5f",
        "cases.csv":
            "f2fe2ed87440e3d6070d43ed52db76e21ddecf5b9c7460c16b061a8c81d644c2",
        "report.json":
            "a7bad75fdd7274dcec299c4e64b370c0b8c013ddef660106bd57a2fc358b68fd",
        "scores.csv":
            "9d163e89108c39ba7406e1626a677757857efd408c3ec56617d626cf73dbfe70"},
        id="0-brier"),
])
def test_rank_bytes_are_pinned_above_one_chunk(tmp_path, capsys, seed, rule,
                                               digests):
    # 131073 cases are two chunks of 2^16 and one case: the report sums
    # merge across chunks, and cases.csv, whose values do not depend on
    # how the cases are chunked, has the bytes of the whole-batch run
    config = write_config(tmp_path, dict(DEFAULT_WORLD_DOC, n_trace=4, n_ref=16))
    out = tmp_path / "o"
    assert run(capsys, "rank", "--cases", "131073", "--format", "both",
               "--rule", rule, "--seed", seed, "--config", config,
               "--out", str(out))[0] == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == digests


# csprior's descriptive variant: the suspect-side population differs from
# the common-source one, so the baseline carries the suspect source's density
DESCRIPTIVE_WORLD_DOC = dict(DEFAULT_WORLD_DOC, popD={"mu": 1.0, "tau": 1.5},
                             popT={"mu": 0.0, "tau": 1.0},
                             scenario="TraceCrimeRelevant")


@pytest.mark.parametrize("command,world,seed,digests", [
    ("illcond", "illcond_world.json", "0", {
        "illcond.csv":
            "7b8a7bf7e106054e1c2456e536d67731e9c2d7b723871d243adfe461fa48812e",
        "report.json":
            "c72aebf62936530b40de6b128fa0401d594ce9f6af86831e87c1b8752c12f03b"}),
    ("illcond", "illcond_world.json", "7", {
        "illcond.csv":
            "3a82bc40a91cedb6c747fd1359cbfb322661c35130736bb5184e0aef8b43bcb8",
        "report.json":
            "67dfb52972a62b1e9cd7558319fd231c5b4a1b53d4d0ef6e06ddba43bc0adbd8"}),
    ("csprior", None, "0", {
        "csprior.csv":
            "f7c1fc255f353dc6217b031146af0c92399ff5653b798ebb0cf72c227fa26b44",
        "report.json":
            "fa69930f14bb7942def90e1961efe15fa1d3545adc99b3c192a4d2a2b41659cb"}),
    ("csprior", None, "7", {
        "csprior.csv":
            "634240f7df27bd11d93726c8f09b75226813248adcc031d3fccef25b88851b14",
        "report.json":
            "b8305d00933397f748fcf512996edea40bc1e9f3c3bcb7bd4bb555e33c671dc8"}),
    ("csprior", DESCRIPTIVE_WORLD_DOC, "0", {
        "csprior.csv":
            "2108e1d4b725e120221bfb40c4d9f84b9bd621098f0a3afe3e72538be03905fb",
        "report.json":
            "5ace39c3e6b9df2c2d3bd56c1c74c65d307ee8b2df6539044352d2250f6ac221"}),
    ("csprior", DESCRIPTIVE_WORLD_DOC, "7", {
        "csprior.csv":
            "a9495020069c5c59e2f63b89e8f7d1a90fbe000e1b571304ec48307c7a8ff01c",
        "report.json":
            "a6141db3921ede0efef114fe9d8004f384a0c8637ffe366eda7d4cb6178616ff"}),
], ids=["illcond-0", "illcond-7", "csprior-0", "csprior-7",
        "csprior-descriptive-0", "csprior-descriptive-7"])
def test_focused_experiment_bytes_are_pinned(tmp_path, capsys, command, world,
                                            seed, digests):
    # illcond and csprior score their own posterior constructions on shared
    # cases: the bytes move only when a stream, an LR, the clamp or a rule
    # changes
    if world is None:
        config = ()
    elif isinstance(world, str):  # a packaged world
        config = ("--config", str(resources.files("lrsim.data") / world))
    else:
        config = ("--config", write_config(tmp_path, world))
    out = tmp_path / "o"
    assert run(capsys, command, "--cases", "10000", "--format", "both",
               "--seed", seed, *config, "--out", str(out))[0] == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == digests


@pytest.mark.parametrize("command,world,seed,digests", [
    ("illcond", "illcond_world.json", "0", {
        "illcond.csv":
            "33905abfb2fc16be57adf54df9a775344b090121de9832dbaa1c8ccda2f125e5",
        "report.json":
            "476619ea0c14846014d2252e56e71af8d92d24c5714e8dabdfa98a3c71e6f64d"}),
    ("illcond", "illcond_world.json", "7", {
        "illcond.csv":
            "232a2439f49e7880f0849d1b44766f0c5afbcae89a1604f8ef6b77e9cfe3ad76",
        "report.json":
            "4dadcce03601c10b1ef429b70e90674eaced51e0346fe876b291926dd95b24dc"}),
    ("csprior", None, "0", {
        "csprior.csv":
            "bee1bf29820ef8e4942ba0f96d8c552d612053b138540a0404c4423e244eb15c",
        "report.json":
            "f27985dfe4e4e0ddad8f9e642f77783f4ebd86d34f91174179ff38c889eaa651"}),
    ("csprior", None, "7", {
        "csprior.csv":
            "1ddf222b11d2bc5e009c1e213bc3ce329538b1a8aef51b0c4bceb06187263bbd",
        "report.json":
            "2e3648ec76b211f67e46af116270c265826aa25a449de6760606d1d4b6e8a63b"}),
], ids=["illcond-0", "illcond-7", "csprior-0", "csprior-7"])
def test_focused_experiment_bytes_are_pinned_above_one_chunk(
        tmp_path, capsys, command, world, seed, digests):
    # 131073 cases are two chunks of 2^16 and one case: illcond and csprior
    # stream them as rank does, and their means merge across chunks
    config = (() if world is None
              else ("--config", str(resources.files("lrsim.data") / world)))
    out = tmp_path / "o"
    assert run(capsys, command, "--cases", "131073", "--format", "both",
               "--seed", seed, *config, "--out", str(out))[0] == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == digests


ABS_WORLD_DOC = dict(DEFAULT_WORLD_DOC, popT={"mu": 2.0, "tau": 1.0},
                     score_kind="AbsoluteDifference")


@pytest.mark.parametrize("world,seed,digests", [
    (None, 0, {
        "report.json":
            "18ae378e8b1101d2473ddb73807b36611e8fb58341cd0e388d86d77ed5bade45",
        "tailbound.csv":
            "59ed1c8994a70f482fa75cc54f71d99bd4f5b3672fd81920feb5c6ae1d578953"}),
    (None, 7, {
        "report.json":
            "5ea8f30beefd8ad5729d134c63e426285ba2cbff220e92416e7e9ba8f2635272",
        "tailbound.csv":
            "17e4b7f1cf6d41018dca619532eb5ed09bb7e406cff02bcdc426e10eed412e61"}),
    (ABS_WORLD_DOC, 0, {
        "report.json":
            "e0d7560e35c171a13285c28a6ba069984ef2ac36aca4a91b6e55edaba1a7d5ae",
        "tailbound.csv":
            "1a0444111ce66d748916f74183ebb4306dfa67ab95376ed2fa1a906ad1fef6b1"}),
    (ABS_WORLD_DOC, 7, {
        "report.json":
            "07d8581322a760df7a9d20bdd4f4853289af455a8ff7e997728e9301983eca06",
        "tailbound.csv":
            "f6f1309a876b624e5b30a09c976d3a0804d76e81ac0688e38fc52ebde66a1e97"}),
])
def test_tailbound_bytes_are_pinned(tmp_path, capsys, world, seed, digests):
    # every system is scored on one H2 and one H1 batch drawn from --seed:
    # the bytes move only when a stream, an LR or the order of rows changes
    config = () if world is None else ("--config", write_config(tmp_path, world))
    out = tmp_path / "o"
    assert run(capsys, "tailbound", "--cases", "20000", "--format", "both",
               "--seed", str(seed), *config, "--out", str(out))[0] == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == digests


@pytest.mark.parametrize("world,seed,digests", [
    (None, 0, {
        "report.json":
            "175a57fefb27d34f2a173139596f3074f37e8ac55e34cf168ba99533e38ea401",
        "tailbound.csv":
            "1a58cafe809fc21b9e85e19a16acab263eadb284aea663e820a24be58e1da3ab"}),
    (ABS_WORLD_DOC, 7, {
        "report.json":
            "caa51ee6ee3ee2333d52decc7407266a058dd4f4cda9088fd54576d24d524517",
        "tailbound.csv":
            "686246a8fd89c71dd4940a8bf9bbd150a611bded78bf2de37d0f46ddc13ca788"}),
], ids=["default-0", "abs-7"])
def test_tailbound_bytes_are_pinned_above_one_chunk(tmp_path, capsys, world,
                                                   seed, digests):
    # 140000 cases are three chunks per hypothesis: an exceedance counted
    # chunk by chunk is the whole-batch one, so the bytes are those of a
    # run that held each hypothesis' cases at once
    config = () if world is None else ("--config", write_config(tmp_path, world))
    out = tmp_path / "o"
    assert run(capsys, "tailbound", "--cases", "140000", "--format", "both",
               "--seed", str(seed), *config, "--out", str(out))[0] == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == digests


def test_few_cases_warn_in_one_line(tmp_path):
    # run as a command, under the default warning filters
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "lrsim.cli", "rank", "--cases", "2000",
         "--format", "json", "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ("warning: ranking verdicts are noisy below 10000 "
                           "cases; expect spurious Ties\n")


@pytest.mark.parametrize("doc,judged", [
    (dict(DEFAULT_WORLD_DOC, prior_h1=1e-300), 11),
    (DEFAULT_WORLD_DOC, None),
], ids=["tiny-prior", "default-world"])
def test_a_vacuous_ranking_warns_in_one_line(tmp_path, capsys, doc, judged):
    # a prior of 1e-300 leaves every claim a Tie: the run passes, and says
    # why. The default world at 10^4 cases confirms claims and does not warn.
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("default")  # a command's filters, not this module's
        code, _, err = run(capsys, "rank", "--cases", "10000", "--format", "json",
                           "--config", write_config(tmp_path, doc),
                           "--out", str(out))
    assert code == 0
    counts = json.loads((out / "report.json").read_text())["verdict_counts"]
    if judged is None:
        assert err == "" and counts["Confirmed"] > 0
    else:
        assert counts == {"Confirmed": 0, "Tie": judged, "Violated": 0}
        assert err == (f"warning: the ranking passes vacuously: {judged} "
                       f"claims judged, none Confirmed or Violated\n")


@pytest.mark.parametrize("cases,vacuous", [(1, 32), (4, 16), (5, 0)])
def test_a_vacuous_tail_bound_warns_in_one_line(tmp_path, capsys, cases, vacuous):
    # a bound 1/k + 3 SE of at least 1 passes any exceedance: at k = 3 for
    # up to 4 cases and at k = 10 for one, on both sides of 8 systems. The
    # run still passes with exit 0, and says why
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("default")  # a command's filters, not this module's
        code, stdout, err = run(capsys, "tailbound", "--cases", str(cases),
                                "--format", "json", "--out", str(out))
    assert code == 0 and "0 failures" in stdout
    rows = json.loads((out / "report.json").read_text())["rows"]
    assert sum(r["bound"] >= 1.0 for r in rows) == vacuous
    assert err == (f"warning: the tail bounds pass vacuously: {vacuous} of 64 "
                   f"checks have a bound of at least 1\n" if vacuous else "")


def test_illcond_command(tmp_path, capsys):
    text = resources.files("lrsim.data").joinpath(
        "illcond_world.json").read_text()
    cfg = write_config(tmp_path, text)
    out = tmp_path / "o"
    code, stdout, _ = run(capsys, "illcond", "--config", cfg,
                          "--cases", "5000", "--out", str(out))
    assert code == 0
    assert "identity max rel err" in stdout
    doc = json.loads((out / "report.json").read_text())
    assert doc["identity_ok"] is True
    assert doc["proper_beats_naive"] is True
    assert (out / "illcond.csv").exists()


def test_illcond_identity_holds_at_tiny_noise(tmp_path, capsys):
    # |log LR| reaches ~1e16 here; comparing the two sides in log10 once
    # reported "identity max rel err 1.00e+04 (FAIL)" and exited 1
    doc = json.loads(resources.files("lrsim.data").joinpath(
        "illcond_world.json").read_text())
    doc["noise"] = {"sigma": 1e-8}
    out = tmp_path / "o"
    code, stdout, err = run(capsys, "illcond", "--config",
                            write_config(tmp_path, doc), "--cases", "2000",
                            "--format", "json", "--out", str(out))
    assert code == 0, err
    assert "(ok)" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["identity_ok"] is True
    assert report["identity_max_rel_err"] < 1e-9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_illcond_fails_a_nan_identity(tmp_path, capsys):
    # popT at 1e160 overflows when squared: every LR is +/-inf and every
    # residual of the identity NaN. The max over chunks once dropped the NaN
    # and read "identity max rel err 0.00e+00 (ok)" with exit 0
    out = tmp_path / "o"
    code, stdout, _ = run(capsys, "illcond", "--config",
                          write_config(tmp_path, _NAN_WORLD_DOC),
                          "--cases", "2000", "--format", "json", "--out", str(out))
    assert code == 1
    assert "identity max rel err nan (FAIL)" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["identity_ok"] is False
    assert report["identity_max_rel_err"] is None  # JSON has no NaN


_ILLCOND_DOC = json.loads(resources.files("lrsim.data").joinpath(
    "illcond_world.json").read_text())


def test_illcond_rejects_flat_world(tmp_path, capsys):
    flat = dict(DEFAULT_WORLD_DOC, popT={"mu": 0.0, "tau": 1.0},
                scenario="DistinctionIrrelevant")
    # CSXASLR + anchor X = CSFLR holds for signed scores only: on absolute
    # ones the identity check once read 9.62e-01 (FAIL) and exited 1
    absolute = dict(_ILLCOND_DOC, score_kind="AbsoluteDifference")
    for doc, message in ((flat, "anchor"), (absolute, "SignedDifference")):
        cfg = write_config(tmp_path, doc)
        code, _, err = run(capsys, "illcond", "--config", cfg,
                           "--cases", "5000", "--out", str(tmp_path / "o"))
        assert code == 2
        assert message in err


def test_csprior_command(tmp_path, capsys):
    out = tmp_path / "o"
    code, stdout, _ = run(capsys, "csprior", "--cases", "5000",
                          "--out", str(out))
    assert code == 0
    assert "[ok]" in stdout
    doc = json.loads((out / "report.json").read_text())
    assert doc["ok"] is True
    assert doc["populations_match"] is True


def test_csprior_rejects_a_tau_whose_square_underflows(tmp_path, capsys):
    # popD.tau = 1e-200 is > 0, but tau**2 underflowed to 0.0 and csprior
    # failed on NaN posteriors ("stated probabilities must lie in [0, 1]")
    doc = dict(DEFAULT_WORLD_DOC, popT=DEFAULT_WORLD_DOC["popC"],
               popD={"mu": 0.5, "tau": 1e-200}, scenario="TraceCrimeRelevant")
    out = tmp_path / "o"
    code, stdout, err = run(capsys, "csprior", "--config",
                            write_config(tmp_path, doc), "--cases", "2000",
                            "--out", str(out))
    assert code == 2
    assert err.startswith("error:") and "popD.tau" in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [("illcond", "identity_ok"),
                                          ("csprior", "ok")])
def test_one_row_csv_writes_json_world_and_lowercase_bools(tmp_path, capsys,
                                                          command, flag):
    cfg = write_config(tmp_path, resources.files("lrsim.data").joinpath(
        "illcond_world.json").read_text())
    out = tmp_path / "o"
    code, _, _ = run(capsys, command, "--config", cfg, "--cases", "5000",
                     "--out", str(out))
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    with (out / f"{command}.csv").open(newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert list(row)[:5] == ["command", "world", "n_cases", "seed", "rule"]
    assert json.loads(row["world"]) == doc["world"]
    assert row[flag] == "true"
    assert "True" not in row.values() and "False" not in row.values()


def test_tailbound_command(tmp_path, capsys):
    out = tmp_path / "o"
    code, stdout, _ = run(capsys, "tailbound", "--cases", "5000",
                          "--out", str(out))
    assert code == 0
    assert "0 failures" in stdout
    doc = json.loads((out / "report.json").read_text())
    assert doc["all_pass"] is True
    # 8 informative systems, 4 k values, both tails
    assert len(doc["rows"]) == 64
    csv_text = (out / "tailbound.csv").read_text()
    assert csv_text.splitlines()[0] == \
        "system,k,side,empirical_exceedance,bound,passed"


def test_demand_command(tmp_path, capsys):
    out = tmp_path / "o"
    code, stdout, _ = run(capsys, "demand", "--out", str(out))
    assert code == 0
    assert "100 H1 / 1000 H2" in stdout
    demand_text = (out / "demand.csv").read_text()
    assert "190" in demand_text and "1400" in demand_text
    tradeoff_text = (out / "tradeoff.csv").read_text()
    assert tradeoff_text.splitlines()[1].startswith("CSSLR,4,1")


def test_demand_scaled_range(tmp_path, capsys):
    out = tmp_path / "o"
    code, stdout, _ = run(capsys, "demand", "--lr-min", "0.1",
                          "--lr-max", "10", "--out", str(out))
    assert code == 0
    assert "10 H1 / 10 H2" in stdout


def test_demand_report_profiles(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(capsys, "demand", "--format", "json", "--out", str(out))[0] == 0
    rows = json.loads((out / "report.json").read_text())["profiles"]
    by_sys = {r["system"]: r for r in rows}
    assert by_sys["SSSLR"]["shortcut_h1_comparisons"] == 190
    assert by_sys["SSFLR"]["info_loss_dims"] == "none"
    assert by_sys["CSSLR"]["info_loss_dims"] == "R+X+Y"
    assert by_sys["CSFLR"]["h1_scores"] is None
    assert by_sys["CSSLR"]["reusable"] is True
    assert by_sys["SSSLR"]["reusable"] is False
    assert all(r["notes"] for r in rows)


def test_demand_report_tradeoff(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(capsys, "demand", "--format", "json", "--out", str(out))[0] == 0
    rows = json.loads((out / "report.json").read_text())["tradeoff"]
    assert len(rows) == 7
    assert rows[0]["system"] == "CSSLR"
    assert rows[0]["infeasible"] is False
    assert {r["system"] for r in rows if r["favourable"] is True} == {"CSFLR"}
    assert {r["system"] for r in rows if r["infeasible"] is True} == {"SSFLR"}


_TRADEOFF_SHA256 = \
    "e3e9bd8badab6ba7329bd8e69a935e6d7bbf233a12138e66877de6caeb0a1df0"


@pytest.mark.parametrize("flags,digests", [
    ((), {
        "demand.csv":
            "a01c325fef20a336cbea2714629c2318309d03d53d0f2d038777801043e4f09c",
        "report.json":
            "84433656ef3964da1d5dde3c575b3a2a06bd76ef91099368332f6bc202fa0b1f",
        "tradeoff.csv": _TRADEOFF_SHA256}),
    (("--lr-min", "0.1", "--lr-max", "10"), {
        "demand.csv":
            "fcb9ff8319869bc800fddc3c1959038c2fca15267c494277f1dcea64aa85cc18",
        "report.json":
            "de784de4a30a2ea7b9fc43eecacacea3a44cd955bfc164541389e63322a2f576",
        "tradeoff.csv": _TRADEOFF_SHA256}),
])
def test_demand_bytes_are_pinned(tmp_path, capsys, flags, digests):
    # demand reads no world and draws nothing: its bytes never move
    out = tmp_path / "o"
    assert run(capsys, "demand", *flags, "--out", str(out))[0] == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == digests


def test_records_are_their_columns(tmp_path, capsys):
    # each record's fields, in order, are its CSV header and report keys
    def names(record):
        return [f.name for f in dataclasses.fields(record)]

    def header(path):
        with path.open(newline="") as fh:
            return next(csv.reader(fh))

    out = tmp_path / "o"
    assert run(capsys, "tailbound", "--cases", "2000", "--out",
               str(out / "t"))[0] == 0
    assert header(out / "t" / "tailbound.csv") == names(TailBoundRow)
    assert run(capsys, "demand", "--out", str(out / "d"))[0] == 0
    assert header(out / "d" / "demand.csv") == names(DemandProfile)
    assert header(out / "d" / "tradeoff.csv") == names(TradeoffRow)
    assert run(capsys, "oracle-check", "--paths", "150000", "--out",
               str(out / "o"))[0] == 0
    assert header(out / "o" / "oracle.csv") == names(OracleComparison)
    rows = json.loads((out / "o" / "report.json").read_text())["rows"]
    assert all(sorted(r) == sorted(names(OracleComparison)) for r in rows)
    assert run(capsys, "rank", "--cases", "2000", "--format", "json",
               "--out", str(out / "r"))[0] == 0
    verdicts = json.loads((out / "r" / "report.json").read_text())["verdicts"]
    assert all(sorted(v) == sorted(names(RankingVerdict)) for v in verdicts)


def test_oracle_check_command(tmp_path, capsys):
    out = tmp_path / "o"
    code, stdout, _ = run(capsys, "oracle-check", "--out", str(out))
    assert code == 0
    assert "all within 3 SE" in stdout
    doc = json.loads((out / "report.json").read_text())
    assert doc["all_within_3se"] is True
    assert len(doc["rows"]) == 63   # 7 informative systems x 9 grid points


def test_oracle_check_reads_one_bank_at_one_seed(tmp_path, capsys, monkeypatch):
    # every grid point reads the same paths, drawn once per recipe, at
    # --seed itself: no point borrows the streams of another seed. The
    # counts are this process's, so the grid runs in it alone
    monkeypatch.setattr(forked, "cpus", lambda: 1)
    calls, draws = [], []
    compare, draw = cli.compare_views, PathBank._draw

    def recording_compare(system, views, bank):
        calls.extend((bank.seed, bank) for _ in views)
        return compare(system, views, bank)

    def counting_draw(bank, recipe):
        draws.append(recipe)
        return draw(bank, recipe)

    monkeypatch.setattr(cli, "compare_views", recording_compare)
    monkeypatch.setattr(PathBank, "_draw", counting_draw)
    seed = 2**64 - 1
    code, _, _ = run(capsys, "oracle-check", "--seed", str(seed),
                     "--format", "json", "--out", str(tmp_path / "o"))
    assert code in (0, 1)
    assert len(calls) == 63
    assert {s for s, _ in calls} == {seed}
    assert len({id(b) for _, b in calls}) == 1
    assert sorted(draws) == sorted(RECIPES)


def test_oracle_check_draws_its_bank_once_before_forking(tmp_path, capsys,
                                                        monkeypatch):
    # on two CPUs every recipe is drawn once, in this process, before the
    # oracle worker forks: the worker reads this process's columns and
    # draws none of its own
    monkeypatch.setattr(forked, "cpus", lambda: 2)
    forks = _forks(monkeypatch)
    log, draw = tmp_path / "draws", PathBank._draw

    def recording_draw(bank, recipe):
        with open(log, "a") as fh:  # one short append per draw, from any process
            fh.write(f"{os.getpid()} {recipe}\n")
        return draw(bank, recipe)

    monkeypatch.setattr(PathBank, "_draw", recording_draw)
    code, _, _ = run(capsys, "oracle-check", "--paths", "150000", "--format",
                     "json", "--out", str(tmp_path / "o"))
    assert code in (0, 1)
    assert len(forks) == 1
    draws = [line.split() for line in log.read_text().splitlines()]
    assert sorted(recipe for _, recipe in draws) == sorted(RECIPES)
    assert {pid for pid, _ in draws} == {str(os.getpid())}
    _assert_no_child_left()


def test_oracle_check_computes_one_bandwidth_per_kernel_sample(
        tmp_path, capsys, monkeypatch):
    # a score term's kernel sample depends on the system, the term, theta_r
    # and the anchored mean, not on the score: 5 score systems x 9 points x
    # 2 terms read 22 distinct samples (SSSLR and CSSLR one per term, each
    # anchored system one per anchor and term), each built in one group.
    # The count is this process's, so the grid runs in it alone
    monkeypatch.setattr(forked, "cpus", lambda: 1)
    calls = []
    silverman = oracle._silverman

    def counting_silverman(samples):
        calls.append(samples.shape[0])
        return silverman(samples)

    monkeypatch.setattr(oracle, "_silverman", counting_silverman)
    code, _, _ = run(capsys, "oracle-check", "--format", "json",
                     "--out", str(tmp_path / "o"))
    assert code == 0
    assert len(calls) == 22


@pytest.mark.parametrize("argv", [
    ("--paths", "150000"),
    ("--config", str(resources.files("lrsim.data") / "abs_world.json"),
     "--paths", "150000"),
    # the first group too small for its paths is group 11 (CSFLR point 2),
    # which the oracle worker owns on two CPUs
    ("--paths", "80000"),
], ids=["default", "abs", "worker-fails"])
def test_oracle_check_is_the_same_on_one_and_two_cpus(tmp_path, capsys,
                                                      monkeypatch, argv):
    # 29 groups of grid points: on two CPUs the oracle worker checks the odd
    # ones and this process the even ones
    forks = _forks(monkeypatch)
    runs = []
    for k in (1, 2):
        monkeypatch.setattr(forked, "cpus", lambda: k)
        out = tmp_path / f"k{k}"
        code, stdout, err = run(capsys, "oracle-check", *argv, "--out", str(out))
        runs.append((code, stdout.replace(str(out), "OUT"), err,
                     {p.name: p.read_bytes() for p in out.iterdir()}
                     if out.exists() else None))
        assert bool(forks) == (k == 2), k
        _assert_no_child_left()
    assert runs[0] == runs[1]
    if argv[1] == "80000":
        assert runs[0][:3] == (2, "", "error: --paths 80000 is too few: CSFLR "
                               "num: only 47 paths inside the evidence bin "
                               "(need 50); raise --paths\n")


@pytest.mark.parametrize("config,paths,seed,digests", [
    (None, 150000, 0, {"oracle.csv":
         "3fba1d0d008b2bc049d0797e9fba6ad19b2f355f08f8b09b4177ed03b0cfabab",
         "report.json":
         "4a03f0e82bcc9460d9c4ed8766793b911b5bb9f9489eb9bc9244bc558dff9e63"}),
    (None, 150000, 3, {"oracle.csv":
         "cb7b325cd5195668d37d561fd1bcafc96359302209935452fd47e41ec4fef5fe",
         "report.json":
         "f255dd5d6e9d70cbc2ce64111f50435d5c103e21b74f84f02bc49bfd13a36af8"}),
    # folded scores: the reflected kernel density; CSFLR's denominator bin
    # needs more than the default 300000 paths in this world. Its closed
    # column follows the folded log-density's log1p(exp) form
    ("abs_world.json", 450000, 0, {"oracle.csv":
         "118e861c305dbcc0281a0489edc4d8fd61499e0c1ecfa95f6744f93f453a2f8d",
         "report.json":
         "1befc03cc3cd0c280aad830bce11ea6da1e3a3010eeb4c4130d4e51e7ea4d5f6"}),
    # the argv of perfbench's oracle-grid workload, which times this command
    (None, 300000, 0, {"oracle.csv":
         "7a50191d3c3dbadc6e869b2471c23f711282e75f065153c02a09c851d078a740",
         "report.json":
         "031805af5839e8ed131faaf835f0b792320fed512f73eb6d2119e5314d8f7fe2"}),
    ("illcond_world.json", 450000, 0, {"oracle.csv":
         "cd20a77e7ca53b7ed7b38674844b113d8d58e6e5bc7f061ea537bdedc7b8ac6c",
         "report.json":
         "35d663a8597556f6d806f0a363055dd8c307ec4f44ab53046d7cc02c191cc0fc"}),
])
def test_oracle_check_bytes_are_pinned(tmp_path, capsys, config, paths, seed,
                                       digests):
    # the path and bootstrap streams are keyed by the seed alone: the bytes
    # move only when a stream, the order of draws or an estimator changes
    out = tmp_path / "o"
    world = ([] if config is None else
             ["--config", str(resources.files("lrsim.data") / config)])
    assert run(capsys, "oracle-check", *world, "--paths", str(paths),
               "--seed", str(seed), "--out", str(out))[0] == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == digests


@pytest.mark.parametrize("argv,line", [
    # rank once named the library's n_cases, not the flag
    (("rank", "--cases", "999"),
     "error: --cases must be >= 1000 for ranking runs, got 999\n"),
    (("oracle-check", "--paths", "999"),
     "error: --paths must be >= 1000, got 999\n"),
], ids=["rank", "oracle-check"])
def test_a_size_error_names_its_flag(tmp_path, capsys, argv, line):
    out = tmp_path / "o"
    assert run(capsys, *argv, "--out", str(out)) == (2, "", line)
    assert not out.exists()


@pytest.mark.parametrize("paths,start,end", [
    # too few paths in an evidence bin is a too-small --paths, not an
    # evaluator failure: it once exited 1 and advised a bin_width the CLI
    # does not take
    ("20000", "error: --paths 20000 is too few: ", "; raise --paths\n"),
    # below the bank's floor the message once named n_paths, not the flag
    ("999", "error: --paths must be >= 1000, got 999", "got 999\n"),
    ("0", "error: --paths must be >= 1000, got 0", "got 0\n"),
    ("-5", "error: --paths must be >= 1000, got -5", "got -5\n"),
], ids=["20000", "999", "0", "-5"])
def test_oracle_check_too_few_paths_is_exit_2(tmp_path, capsys, paths, start,
                                              end):
    out = tmp_path / "o"
    out.mkdir()
    (out / "keep.txt").write_text("kept")
    code, stdout, err = run(capsys, "oracle-check", "--paths", paths,
                            "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith(start)
    assert err.endswith(end)
    assert "bin_width" not in err and "n_paths" not in err
    assert [p.name for p in out.iterdir()] == ["keep.txt"]
    assert (out / "keep.txt").read_text() == "kept"
