import csv
import dataclasses
import hashlib
import json
import math
import re
from importlib import resources

import numpy as np
import pytest

import lrsim.cli as cli
from lrsim.cli import main
from lrsim.costmodel import DemandProfile, TailBoundRow, TradeoffRow
from lrsim.genmodel import world_from_json_dict
from lrsim.harness import ExperimentConfig, RankingVerdict, run_experiment
from lrsim.oracle import RECIPES, PathBank

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
    code, _, err = run(capsys, "rank", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o"))
    assert code == 2
    assert "config not found" in err


def test_malformed_json_reports_position(tmp_path, capsys):
    cfg = write_config(tmp_path, '{"popC": {')
    code, _, err = run(capsys, "rank", "--config", cfg,
                       "--out", str(tmp_path / "o"))
    assert code == 2
    assert f"{cfg}:1:" in err


def test_unknown_wrapper_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"world": DEFAULT_WORLD_DOC, "n_case": 5000})
    code, _, err = run(capsys, "rank", "--config", cfg,
                       "--out", str(tmp_path / "o"))
    assert code == 2
    assert "n_case" in err


def test_unknown_system_name_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"world": DEFAULT_WORLD_DOC,
                                  "systems": ["CSFLR", "XYZ"]})
    code, _, err = run(capsys, "rank", "--config", cfg,
                       "--out", str(tmp_path / "o"))
    assert code == 2


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
    code, _, err = run(capsys, "calibrate", "--config",
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
    assert re.search(r"[A-Z]+LR gave \d+ NaN log LRs of 2000 on the world ", err)
    assert '"mu": 1e+308' in err
    assert [p.name for p in out.iterdir()] == ["keep.txt"]
    assert (out / "keep.txt").read_text() == "kept"


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
                                     "tailbound", "calibrate"])
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


@pytest.mark.parametrize("n_cases", [True, 2000.0, 0])
def test_config_n_cases_must_be_a_positive_integer(tmp_path, capsys, n_cases):
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
    cfg = write_config(tmp_path, {"world": DEFAULT_WORLD_DOC,
                                  "systems": systems})
    out = tmp_path / "o"
    for command in ("rank", "illcond", "csprior", "tailbound", "calibrate",
                    "oracle-check"):
        code, stdout, err = run(capsys, command, "--config", cfg,
                                "--out", str(out))
        assert code == 2, command
        assert err.startswith("error:") and "systems" in err
        assert stdout == ""
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("demand", "--seed", "1"), ("demand", "--config", "world.json"),
    ("calibrate", "--rule", "brier"), ("tailbound", "--rule", "brier"),
])
def test_commands_take_only_the_flags_they_read(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# overwrite policy

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
    "calibrate": ("--cases", "2000"),
    "oracle-check": ("--paths", "150000"),
}

CSV_FILES = {
    "rank": {"cases.csv", "calibration.csv", "scores.csv"},
    "illcond": {"illcond.csv"},
    "csprior": {"csprior.csv"},
    "tailbound": {"tailbound.csv"},
    "demand": {"demand.csv", "tradeoff.csv"},
    "calibrate": {"calibration.csv"},
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

def test_write_csv_formats_every_cell_in_one_place(tmp_path):
    n = cli._CSV_BLOCK + 3  # more rows than one block
    floats = np.linspace(-1.0, 1.0, n)
    floats[:3] = (np.nan, np.inf, 1e-300)
    mixed = [None, True, False, {"b": 1, "a": [0.5]}, 'say "x, y"', 2.5]
    mixed += [None] * (n - len(mixed))
    table = {
        "f": floats,
        "i": np.arange(n, dtype=np.int64),
        "s": np.where(np.arange(n) % 2 == 0, "H1", "H2"),
        "b": np.arange(n) % 3 == 0,
        "mixed": mixed,
    }
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


def test_cases_csv_round_trips_every_float_exactly(tmp_path, capsys):
    # sigma 0.01 puts LR cells at the +/-300 exponent clip and clamps
    # posteriors, so the extremes are written too
    doc = dict(DEFAULT_WORLD_DOC, noise={"sigma": 0.01})
    out = tmp_path / "o"
    code, _, _ = run(capsys, "rank", "--config", write_config(tmp_path, doc),
                     "--cases", "2000", "--out", str(out))
    assert code == 0
    report = run_experiment(ExperimentConfig(
        world=world_from_json_dict(doc), n_cases=2000, master_seed=0))
    table = report.case_table
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


def test_rank_honors_config_wrapper(tmp_path, capsys):
    cfg = write_config(tmp_path, {"world": DEFAULT_WORLD_DOC,
                                  "n_cases": 2000, "rule": "brier",
                                  "systems": ["CSFLR", "CSYASLR"]})
    out = tmp_path / "o"
    code, _, _ = run(capsys, "rank", "--config", cfg, "--out", str(out))
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["n_cases"] == 2000
    assert doc["rule"] == "Brier"
    assert sorted(doc["per_system"]) == ["CSFLR", "CSYASLR"]
    assert [v["claim"] for v in doc["verdicts"]] == ["CSFLR>=CSYASLR"]


def test_rank_cli_cases_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"world": DEFAULT_WORLD_DOC, "n_cases": 5000})
    out = tmp_path / "o"
    code, _, _ = run(capsys, "rank", "--config", cfg, "--cases", "2000",
                     "--out", str(out))
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["n_cases"] == 2000


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


def test_illcond_rejects_flat_world(tmp_path, capsys):
    flat = dict(DEFAULT_WORLD_DOC, popT={"mu": 0.0, "tau": 1.0},
                scenario="DistinctionIrrelevant")
    cfg = write_config(tmp_path, flat)
    code, _, err = run(capsys, "illcond", "--config", cfg,
                       "--cases", "5000", "--out", str(tmp_path / "o"))
    assert code == 2
    assert "anchor" in err


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
    assert run(capsys, "rank", "--cases", "2000", "--format", "json",
               "--out", str(out / "r"))[0] == 0
    verdicts = json.loads((out / "r" / "report.json").read_text())["verdicts"]
    assert all(sorted(v) == sorted(names(RankingVerdict)) for v in verdicts)


def test_calibrate_command(tmp_path, capsys):
    out = tmp_path / "o"
    code, stdout, _ = run(capsys, "calibrate", "--cases", "20000",
                          "--out", str(out))
    assert code == 0
    assert "FAIL" not in stdout
    doc = json.loads((out / "report.json").read_text())
    assert doc["all_pass"] is True
    assert len(doc["per_system"]) == 9


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
    # --seed itself: no point borrows the streams of another seed
    calls, draws = [], []
    compare, draw = cli.compare_closed_vs_oracle, PathBank._draw

    def recording_compare(*args, seed, bank):
        calls.append((seed, bank))
        return compare(*args, seed=seed, bank=bank)

    def counting_draw(bank, recipe):
        draws.append(recipe)
        return draw(bank, recipe)

    monkeypatch.setattr(cli, "compare_closed_vs_oracle", recording_compare)
    monkeypatch.setattr(PathBank, "_draw", counting_draw)
    seed = 2**64 - 1
    code, _, _ = run(capsys, "oracle-check", "--seed", str(seed),
                     "--format", "json", "--out", str(tmp_path / "o"))
    assert code in (0, 1)
    assert len(calls) == 63
    assert {s for s, _ in calls} == {seed}
    assert len({id(b) for _, b in calls}) == 1
    assert sorted(draws) == sorted(RECIPES)
