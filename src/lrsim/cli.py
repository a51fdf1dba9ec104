"""Command-line front end.

    lrsim <command> [--out DIR] [--format json|csv|both] [--force] [flags]

Commands:
    rank          score all systems on shared cases, judge the ranking claims
    illcond       naive vs proper use of a trace-anchored LR
    csprior       update a source-conditioned prior with common-source LRs
    tailbound     empirical LR tail probabilities against the 1/k bound
    demand        experimental-demand table and the trade-off ranking
    oracle-check  closed-form LRs against the sampling oracle on a grid

Each command takes only the flags its outputs depend on (see _COMMANDS).

Every output byte is a pure function of (command, config, seed, flags):
reports carry no timestamps and dict keys are sorted. Exit status: 0 when
all checks pass, 1 when a verdict or diagnostic fails, 2 for bad input.
Existing output files are not overwritten unless --force is given, and a
run that fails leaves --out as it found it.

Start-up imports genmodel and forked alone. Every other library name this
module reads is listed in _LAZY and bound into its globals by _bind, which
each function that reads such a name calls first, so a command loads only
the modules it runs: demand binds costmodel, oracle-check oracle, and the
others harness and scoring. A name already bound keeps its value, so that a
name rebound on this module before a command ran, as perfbench/traced.py
rebinds run_experiment and tail_bound_check, is the one the command calls.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import re
import shutil
import sys
import tempfile
import warnings
from dataclasses import dataclass, fields
from enum import Enum
from importlib import import_module, resources
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .forked import ordered_map
from .genmodel import (ConfigError, WorldConfig, load_world, world_from_json_dict,
                       world_to_json_dict)

_LAZY = {  # the names this module reads from each library module it binds
    "harness": ("TAIL_SYSTEMS", "Verdict", "case_table", "cs_update_ss_prior_experiment",
                "ill_conditioning_experiment", "run_experiment", "tail_bound_check"),
    "oracle": ("InsufficientPathsError", "PathBank", "compare_grid"),
    "costmodel": ("demand_table", "feasibility_rank"),
    "scoring": ("ScoringRule",),
}

_RULES = {"log": "Logarithmic", "brier": "Brier"}  # --rule: ScoringRule member


def _bind(*modules: str) -> None:
    """Import each module and bind the names _LAZY lists for it, unless bound
    already (setdefault). The globals are this module's own, not those of
    sys.modules["lrsim.cli"]: `python -m lrsim.cli` runs it as __main__."""
    for module in modules:
        lib = import_module(f".{module}", __package__)
        for name in _LAZY[module]:
            globals().setdefault(name, getattr(lib, name))


def __getattr__(name):
    """A name of _LAZY, read on this module before a command bound it (PEP
    562). A global read inside this module never gets here."""
    module = next((m for m, names in _LAZY.items() if name in names), None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(module)
    return globals()[name]


def default_world() -> WorldConfig:
    doc = json.loads(
        resources.files("lrsim.data").joinpath("default_world.json").read_text())
    return world_from_json_dict(doc)


def _finite(obj):
    """obj with every non-finite float as None: JSON has no NaN or Infinity."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _json_dumps(obj) -> str:
    """Strict JSON: a non-finite float is null, and any the walk missed
    fails the run instead of writing NaN."""
    return json.dumps(_finite(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


_CSV_BLOCK = 2**10  # rows formatted at a time, so a long table streams
_QUOTED = re.compile('[,"\r\n]').search  # a cell holding one of these is quoted


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return ""
    text = json.dumps(value, sort_keys=True) if isinstance(value, dict) else str(value)
    if _QUOTED(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _distinct_cells(keys: np.ndarray, dtype, cell) -> list:
    """cell(v) for every v of keys.view(dtype), as nested lists of keys'
    shape, with cell called once per distinct key: two values with one key
    must have one text."""
    distinct, inverse = np.unique(keys.ravel(), return_inverse=True)
    texts = np.array([*map(cell, distinct.view(dtype).tolist())], dtype=object)
    return texts[inverse].reshape(keys.shape).tolist()


def _cells(column) -> Iterable[str]:
    """The texts of a column that is not stacked with the floats of its piece."""
    if not isinstance(column, np.ndarray):
        return map(_cell, column)
    if column.dtype.kind in "SU":  # a few texts, many times: truth is H1 or H2
        return _distinct_cells(column, column.dtype, _cell)
    # a number's text never needs quotes: no Python call per cell
    return map(str if column.dtype.kind in "iuf" else _cell, column.tolist())


def _piece_text(columns: list) -> str:
    # the floats that tolist() makes Python floats; a longdouble is not one
    floats = [isinstance(c, np.ndarray) and c.dtype.kind == "f"
              and c.dtype.itemsize <= 8 for c in columns]
    if any(floats):
        # one float may fill many cells of a piece, in many columns; its bit
        # pattern is its key, so -0.0 and 0.0 keep their own texts
        stacked = np.stack([c for c, f in zip(columns, floats) if f], dtype=np.float64)
        texts = iter(_distinct_cells(stacked.view(np.int64), np.float64, str))
    cells = [next(texts) if f else _cells(c) for c, f in zip(columns, floats)]
    # a row of one empty cell is "", as a blank line would be no row
    rows = (",".join(row) or '""' for row in zip(*cells))
    return "\r\n".join([*rows, ""])


def _write_csv(path: Path, table) -> None:
    """Write a table under a header of its keys, one piece of _CSV_BLOCK rows
    at a time. A table is a dict of equal-length columns (numpy arrays or
    lists), or a stream of such dicts with the same keys, whose rows follow
    one another; columns of unequal length fail the write with a ValueError
    that names the file and every column's length. This is the only
    code that decides the CSV cell format: a number is Python's str, booleans
    are true/false, None is empty and a dict is JSON. Text is quoted as csv's
    QUOTE_MINIMAL does it, and rows end in CRLF.

    Each distinct value of a piece is formatted once, and its text fills
    every cell that holds it: floats by bit pattern across all the float
    columns of the piece, text per column. In cases.csv values repeat
    because SSXASLR and PriorOnly state constants and tied systems state
    bit-identical posteriors on most cases, so a default-world piece of
    2^10 rows holds 13,652 distinct floats in 21,504 float cells (63.5%;
    80.2% in the AbsoluteDifference world, whose folded score breaks those
    ties), and its truth column two texts.

    The pieces of a table are formatted by this process and, on two CPUs or
    more, by one forked formatter that takes every other piece (see
    forked.ordered_map). They are written in order as they come back: this
    process holds one formatted piece at a time, about 0.36 MB for 2^10 rows
    of cases.csv. The forked formatter walks the whole table stream
    (cases.csv's is harness.case_table), so a stream must yield the same
    blocks each time it is walked from the same state. The bytes depend on
    neither the fork nor the piece size."""
    blocks = iter((table,) if isinstance(table, dict) else table)
    first = next(blocks)
    names = list(first)

    def pieces():
        for block in itertools.chain((first,), blocks):
            lengths = [len(block[name]) for name in names]
            if len(set(lengths)) > 1:
                raise ValueError(f"{path.name}: columns of unequal length: "
                                 + ", ".join(map("{} {}".format, names, lengths)))
            for lo in range(0, lengths[0], _CSV_BLOCK):
                yield [block[name][lo:lo + _CSV_BLOCK] for name in names]

    with path.open("w", newline="") as text:
        text.write(_piece_text([[name] for name in names]))
        text.flush()  # the pieces go straight to the byte layer
        fh, encoding = text.buffer, text.encoding
        with contextlib.closing(ordered_map(
                lambda piece: _piece_text(piece).encode(encoding), pieces(),
                "CSV formatter", "piece")) as texts:
            fh.writelines(texts)


def _columns(rows: list[dict]) -> dict:
    """Rows of one shape as a table of columns."""
    return {k: [row[k] for row in rows] for k in rows[0]}


def _fields(record) -> dict:
    """A result record as a row: its fields, in order, are the report keys
    and CSV columns. An enum is written as its value, and a set of
    averaged-out evidence dimensions as R+X+Y (none when empty)."""
    row = {}
    for f in fields(record):
        v = getattr(record, f.name)
        if isinstance(v, Enum):
            v = v.value
        elif isinstance(v, frozenset):
            v = "+".join(sorted(v)) or "none"
        row[f.name] = v
    return row


def _gone(pid: int) -> bool:
    """Whether no process has this pid. On a platform without POSIX signals
    nothing is known to be gone."""
    if os.name != "posix":
        return False
    try:
        os.kill(pid, 0)  # signal 0 only asks whether the pid exists
    except ProcessLookupError:
        return True
    except (OSError, OverflowError):  # another user's process, or no pid
        return False
    return False


class _Outputs:
    """Collects (filename, payload) pairs, then refuses or writes them all.

    flush() streams every file into a scratch directory inside out_dir and
    moves them into place with os.replace, a rename within one file system,
    only when all are written. On a failure the scratch directory is
    removed, and so is every directory the flush created, so a failed write
    leaves out_dir as it was found. The scratch directory is named
    .lrsim-<pid>-..., so a flush removes those that a killed run left: the
    ones whose pid no longer runs, and no other.
    """

    def __init__(self, out_dir: Path, force: bool):
        # refused before any work: the nearest existing path must be a
        # directory; a dangling symlink exists, and is none
        near = next(d for d in (out_dir, *out_dir.parents) if os.path.lexists(d))
        if not near.is_dir():
            raise ConfigError(f"--out {out_dir}: {near} is not a directory")
        self.out_dir = out_dir
        self.force = force
        self.planned: list[tuple[str, object]] = []
        self.written: list[str] = []

    def refuse_clashes(self, names) -> None:
        """Refuse if any of names is a directory in out_dir, which no file
        replaces, and, unless forced, if any of names exists there."""
        paths = {n: self.out_dir / n for n in names}
        dirs = [n for n, p in paths.items() if p.is_dir() and not p.is_symlink()]
        if dirs:
            raise ConfigError(f"refusing to overwrite directory {', '.join(sorted(dirs))} "
                              f"in {self.out_dir} (not even with --force)")
        if not self.force:
            clashes = [n for n, p in paths.items() if os.path.lexists(p)]
            if clashes:
                raise ConfigError(
                    f"refusing to overwrite {', '.join(sorted(clashes))} in "
                    f"{self.out_dir} (pass --force to allow)")

    def add(self, name: str, payload) -> None:
        self.planned.append((name, payload))

    def flush(self) -> None:
        self.refuse_clashes(n for n, _ in self.planned)
        created = next((d for d in reversed((self.out_dir, *self.out_dir.parents))
                        if not d.exists()), None)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for left in self.out_dir.glob(".lrsim-*"):
            run = re.fullmatch(r"\.lrsim-(\d+)-.+", left.name)
            if run and left.is_dir() and _gone(int(run[1])):
                shutil.rmtree(left, ignore_errors=True)
        scratch = Path(tempfile.mkdtemp(prefix=f".lrsim-{os.getpid()}-",
                                        dir=self.out_dir))
        try:
            for name, payload in self.planned:
                if name.endswith(".json"):
                    (scratch / name).write_text(_json_dumps(payload))
                else:
                    _write_csv(scratch / name, payload)
            for name, _ in self.planned:
                os.replace(scratch / name, self.out_dir / name)
        except BaseException:
            shutil.rmtree(created or scratch, ignore_errors=True)
            raise
        scratch.rmdir()
        self.written = [str(self.out_dir / n) for n, _ in self.planned]


# ---------------------------------------------------------------------------
# commands: each computes (report body, CSV tables, summary lines, pass flag)

def _calibration_summary(report) -> dict:
    return {
        s.value: {"max_abs_gap": rep.max_abs_gap,
                  "qualifying_bins": int(np.sum(rep.qualifying)),
                  "passes": rep.passes()}
        for s, rep in report.calibration.items()}


def _calibration_table(report) -> dict:
    parts = [{
        "system": np.full(len(rep.bin_counts), system.value),
        "bin_lo": rep.bin_edges[:-1],
        "bin_hi": rep.bin_edges[1:],
        "count": rep.bin_counts,
        "mean_stated_p": rep.mean_stated_p,
        "empirical_freq": rep.empirical_freq,
        "gap": rep.gaps,
        "binomial_se": rep.binomial_se,
        "qualifying": rep.qualifying,
    } for system, rep in report.calibration.items()]
    return {k: np.concatenate([part[k] for part in parts]) for k in parts[0]}


def _rank(args, world, n):
    _bind("harness", "scoring")
    rule = ScoringRule[_RULES[args.rule]]
    report = run_experiment(world, n, args.seed, rule)
    counts = {v.value: sum(r.verdict is v for r in report.ranking_verdicts)
              for v in Verdict}
    if counts["Confirmed"] + counts["Violated"] == 0:
        warnings.warn(f"the ranking passes vacuously: "
                      f"{len(report.ranking_verdicts)} claims judged, none "
                      f"Confirmed or Violated", UserWarning)
    body = {
        "rule": rule.value,
        "per_system": {s.value: _fields(ms)
                       for s, ms in report.per_system.items()},
        "clamp_counts": {s.value: c for s, c in report.clamp_counts.items()},
        "paired_diffs": {claim: _fields(d)
                         for claim, d in report.paired_diffs.items()},
        "verdicts": [_fields(v) for v in report.ranking_verdicts],
        "verdict_counts": counts,
        "calibration": _calibration_summary(report),
    }
    tables = {
        "cases.csv": lambda doc: case_table(world, n, args.seed),
        "calibration.csv": lambda doc: _calibration_table(report),
        "scores.csv": lambda doc: _columns([
            {"system": s.value, "rule": rule.value,
             "mean_score": ms.mean, "se": ms.se, "n": ms.n,
             "n_clamped": report.clamp_counts[s]}
            for s, ms in report.per_system.items()]),
    }
    summary = [f"rank: {n} cases, seed {args.seed}, rule {rule.value}"]
    summary += [f"  {s.value:10s} {ms.mean:+.4f} +/- {ms.se:.4f}"
                for s, ms in report.per_system.items()]
    summary.append(f"claims: {counts['Confirmed']} Confirmed, "
                   f"{counts['Tie']} Tie, {counts['Violated']} Violated")
    return body, tables, summary, counts["Violated"] == 0


def _illcond(args, world, n):
    _bind("harness", "scoring")
    rep = ill_conditioning_experiment(world, n_cases=n, master_seed=args.seed,
                                      rule=ScoringRule[_RULES[args.rule]])
    summary = [
        f"illcond: identity max rel err {rep.identity_max_rel_err:.2e} "
        f"({'ok' if rep.identity_ok else 'FAIL'})",
        f"  naive {rep.mean_naive:+.4f}  proper {rep.mean_proper:+.4f}  "
        f"gap {rep.gap:+.4f} ({rep.margin_in_se:+.1f} SE)"]
    return (_fields(rep), {"illcond.csv": lambda doc: _columns([doc])},
            summary, rep.identity_ok and rep.proper_beats_naive)


def _csprior(args, world, n):
    _bind("harness", "scoring")
    rep = cs_update_ss_prior_experiment(world, n_cases=n, master_seed=args.seed,
                                        rule=ScoringRule[_RULES[args.rule]])
    verdict = ("descriptive" if rep.ok is None
               else "ok" if rep.ok else "FAIL")
    summary = [f"csprior: baseline {rep.mean_baseline:+.4f}  "
               f"+CSFLR {rep.mean_updated_csflr:+.4f} "
               f"({rep.margin_csflr_in_se:+.1f} SE)  [{verdict}]"]
    return (_fields(rep), {"csprior.csv": lambda doc: _columns([doc])},
            summary, rep.ok is not False)


def _tailbound(args, world, n):
    _bind("harness")
    rows = tail_bound_check(world, n_cases=n, master_seed=args.seed)
    n_fail = sum(not r.passed for r in rows)
    n_vacuous = sum(r.bound >= 1.0 for r in rows)  # no exceedance can fail these
    if n_vacuous:
        warnings.warn(f"the tail bounds pass vacuously: {n_vacuous} of "
                      f"{len(rows)} checks have a bound of at least 1", UserWarning)
    summary = [f"tailbound: {len(rows)} checks over {len(TAIL_SYSTEMS)} systems, "
               f"{n_fail} failures"]
    return ({"rows": [_fields(r) for r in rows], "all_pass": n_fail == 0},
            {"tailbound.csv": lambda doc: _columns(doc["rows"])},
            summary, n_fail == 0)


def _demand(args, world, n):
    _bind("costmodel")
    profiles = demand_table(args.lr_min, args.lr_max)
    tradeoff = feasibility_rank()
    body = {
        "target_lr_min": args.lr_min,
        "target_lr_max": args.lr_max,
        "profiles": [_fields(p) for p in profiles],
        "tradeoff": [_fields(r) for r in tradeoff],
    }
    summary = [f"demand: range [{args.lr_min:g}, {args.lr_max:g}] -> "
               f"{profiles[0].required_h1_scores} H1 / "
               f"{profiles[0].required_h2_scores} H2 scores"]
    for r in tradeoff:
        flags = ("infeasible" if r.infeasible
                 else "favourable" if r.favourable else "")
        summary.append(f"  {r.system.value:10s} perf {r.performance_rank} "
                       f"demand {r.demand_rank} {flags}")
    tables = {"demand.csv": lambda doc: _columns(doc["profiles"]),
              "tradeoff.csv": lambda doc: _columns(doc["tradeoff"])}
    return body, tables, summary, True


def _oracle_check(args, world, n_paths):
    _bind("oracle")
    try:
        points = compare_grid(PathBank(world, args.seed, n_paths))
    except InsufficientPathsError as e:  # too few paths is bad input, not a failure
        raise ConfigError(f"--paths {n_paths} is too few: {e}") from e
    all_ok = all(p.within_3se for p in points)
    worst = max(points, key=lambda p: p.abs_diff_log10 / p.se_log10
                if p.se_log10 > 0 else 0.0)
    summary = [
        f"oracle-check: {len(points)} grid points at {n_paths} paths, "
        f"{'all within 3 SE' if all_ok else 'DISAGREEMENT'}",
        f"  worst: {worst.system.value} point {worst.grid_index} "
        f"diff {worst.abs_diff_log10:.4f} vs SE {worst.se_log10:.4f}"]
    return ({"rows": [_fields(p) for p in points], "all_within_3se": all_ok},
            {"oracle.csv": lambda doc: _columns(doc["rows"])}, summary, all_ok)


@dataclass(frozen=True)
class _Spec:
    """One command. run(args, world, size) returns the report body, the CSV
    tables by file name, the summary lines and the pass flag. A table is a
    function from the finished report to its columns, or to a stream of
    column blocks that is read while the file is written, _CSV_BLOCK rows at
    a time (see _write_csv), called only when CSV is written; rank's
    cases.csv is the stream harness.case_table. The forked formatter walks
    a stream again, so it must yield the same blocks every time. tables
    names the CSV files, in the order they are written, so that a clash
    with --out is refused before the run. size is the report key of the run
    size and the dest of its flag (--cases or --paths); a command without
    one reads no world, so it takes no --config or --seed. cases is the
    --cases default, where the command takes --cases."""

    run: Callable
    flags: tuple[str, ...]  # the command's own flags; see _FLAGS
    tables: tuple[str, ...]
    size: str | None = None
    cases: int = 0


_COMMANDS = {
    "rank": _Spec(_rank, ("--cases", "--rule"),
                  ("cases.csv", "calibration.csv", "scores.csv"), "n_cases", 20_000),
    "illcond": _Spec(_illcond, ("--cases", "--rule"), ("illcond.csv",),
                     "n_cases", 20_000),
    "csprior": _Spec(_csprior, ("--cases", "--rule"), ("csprior.csv",),
                     "n_cases", 20_000),
    "tailbound": _Spec(_tailbound, ("--cases",), ("tailbound.csv",),
                       "n_cases", 100_000),
    "demand": _Spec(_demand, ("--lr-min", "--lr-max"),
                    ("demand.csv", "tradeoff.csv")),
    "oracle-check": _Spec(_oracle_check, ("--paths",), ("oracle.csv",), "n_paths"),
}

_FLAGS = {
    "--config": dict(help="world JSON (default: the packaged world)"),
    "--seed": dict(type=int, default=0),
    "--cases": dict(type=int, dest="n_cases"),  # default: _Spec.cases
    "--rule": dict(choices=sorted(_RULES), default="log"),
    "--lr-min": dict(type=float, default=1.0 / 100.0),
    "--lr-max": dict(type=float, default=1000.0),
    "--paths": dict(type=int, default=300_000, dest="n_paths"),
    "--out": dict(default="lrsim-out",
                  help="output directory (default: lrsim-out)"),
    "--format": dict(choices=("json", "csv", "both"), default="both"),
    "--force": dict(action="store_true",
                    help="overwrite existing output files"),
}


def _run(args, out: _Outputs) -> int:
    """Run one command: header, compute, write the chosen formats, summarise.

    The header keys come first because the one-row CSVs take their column
    order from the report's key order. The files to be written are checked
    against --out before any work, and again when they are written.
    """
    spec = _COMMANDS[args.command]
    names = [*(("report.json",) if args.format in ("json", "both") else ()),
             *(spec.tables if args.format in ("csv", "both") else ())]
    out.refuse_clashes(names)
    doc = {"command": args.command}
    world, size = None, None
    if spec.size is not None:
        world = default_world() if args.config is None else load_world(args.config)
        size = getattr(args, spec.size)  # --cases or --paths
        doc.update({"world": world_to_json_dict(world), spec.size: size,
                    "seed": args.seed})
    try:
        body, tables, summary, ok = spec.run(args, world, size)
    except ConfigError as e:  # the library names its parameter, not the flag
        raise ConfigError(str(e).replace("n_cases", "--cases")
                          .replace("n_paths", "--paths")) from e
    doc.update(body)
    for name in names:
        out.add(name, doc if name == "report.json" else tables[name](doc))
    out.flush()
    print("\n".join(summary))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrsim",
        description="simulate and evaluate source-level LR systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _COMMANDS.items():
        p = sub.add_parser(name)
        world_flags = ("--config", "--seed") if spec.size is not None else ()
        for flag in (*world_flags, "--out", "--format", "--force", *spec.flags):
            p.add_argument(flag, **_FLAGS[flag])
        if "--cases" in spec.flags:
            p.set_defaults(n_cases=spec.cases)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """A warning the filters let through, as one line naming no source file."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not 0 <= getattr(args, "seed", 0) < 2**64:
        print("error: --seed must lie in [0, 2**64)", file=sys.stderr)
        return 2
    try:
        # the filters stay as they are; only how a shown warning reads changes
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            out = _Outputs(Path(args.out), args.force)
            status = _run(args, out)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # evaluator failure: report and signal
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    if out.written:
        print("wrote: " + " ".join(out.written))
    return status


if __name__ == "__main__":
    sys.exit(main())
