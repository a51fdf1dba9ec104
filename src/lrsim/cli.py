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
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import shutil
import sys
import tempfile
import warnings
from dataclasses import dataclass, fields, replace
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .costmodel import demand_table, feasibility_rank, tail_bound_check
from .forked import ordered_map
from .genmodel import (ConfigError, WorldConfig, case_chunks, load_world, world_from_json_dict,
                       world_to_json_dict)
from .harness import (
    ALL_SYSTEMS,
    EvalReport,
    ExperimentConfig,
    Verdict,
    cs_update_ss_prior_experiment,
    ill_conditioning_experiment,
    run_experiment,
    system_posterior,
)
from .lrsystems import NONTRIVIAL, SystemId
from .oracle import (InsufficientPathsError, PathBank, compare_closed_vs_oracle,
                     default_evidence_grid)
from .scoring import ScoringRule

_RULES = {"log": ScoringRule.Logarithmic, "brier": ScoringRule.Brier}


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


def _cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return value  # csv writes None as an empty cell


def _cells(column) -> list:
    if isinstance(column, np.ndarray) and column.dtype != np.bool_:
        return column.tolist()  # numbers and strings: csv writes them as is
    return [_cell(v) for v in column]


def _csv_text(rows) -> str:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _piece_text(columns: list) -> str:
    return _csv_text(zip(*map(_cells, columns)))


def _write_csv(path: Path, table) -> None:
    """Write a table under a header of its keys, one piece of _CSV_BLOCK rows
    at a time. A table is a dict of equal-length columns (numpy arrays or
    lists), or a stream of such dicts with the same keys, whose rows follow
    one another. This is the only code that decides the CSV cell format:
    booleans are true/false, None is empty and a dict is JSON.

    The pieces of a table are formatted on up to forked.CAP of the CPUs this
    process may run on (see forked.ordered_map), and written in order as
    they come back: this process holds one formatted piece at a time, about
    0.36 MB for 2^10 rows of cases.csv. Every forked formatter walks the
    whole table stream, so a stream must yield the same blocks each time it
    is walked from the same state. The bytes depend on neither the number
    of formatters nor the piece size."""
    blocks = iter((table,) if isinstance(table, dict) else table)
    first = next(blocks)
    names = list(first)
    pieces = ([block[name][lo:lo + _CSV_BLOCK] for name in names]
              for block in itertools.chain((first,), blocks)
              for lo in range(0, len(block[names[0]]), _CSV_BLOCK))
    with path.open("w", newline="") as text:
        text.write(_csv_text([names]))
        text.flush()  # the pieces go straight to the byte layer
        fh, encoding = text.buffer, text.encoding
        with contextlib.closing(ordered_map(
                lambda piece: _piece_text(piece).encode(encoding), pieces,
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
        # refused before any work: the nearest existing path must be a directory
        near = next(d for d in (out_dir, *out_dir.parents) if d.exists())
        if not near.is_dir():
            raise ConfigError(f"--out {out_dir}: {near} is not a directory")
        self.out_dir = out_dir
        self.force = force
        self.planned: list[tuple[str, object]] = []
        self.written: list[str] = []

    def refuse_clashes(self, names) -> None:
        """Refuse, unless forced, if any of names already exists in out_dir."""
        if not self.force:
            clashes = [n for n in names if (self.out_dir / n).exists()]
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

def _calibration_summary(report: EvalReport) -> dict:
    return {
        s.value: {"max_abs_gap": rep.max_abs_gap,
                  "qualifying_bins": int(np.sum(rep.qualifying)),
                  "passes": rep.passes()}
        for s, rep in report.calibration.items()}


def _calibration_table(report: EvalReport) -> dict:
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


def _case_table(report: EvalReport) -> Iterator[dict]:
    """cases.csv as a stream of blocks, one per chunk of cases: each shared
    case, drawn again from the run's config, and every system's own LR (its
    log10 clipped to +/-300) and stated posterior on it, rebuilt under the
    world the run evaluated its LRs in. Nothing is drawn until the stream
    is read."""
    cfg = report.config
    start = 0
    for batch in case_chunks(cfg.world, cfg.master_seed, cfg.n_cases):
        block = {
            "case_id": np.arange(start, start + len(batch), dtype=np.int64),
            "truth": np.where(batch.truth_h1, "H1", "H2"),
            "r_theta": batch.theta_r,
            "x": batch.x,
            "y": batch.y,
        }
        for system in cfg.systems:
            own, posterior, _ = system_posterior(system, batch, report.believed_world)
            block[f"{system.value}_lr"] = 10.0 ** np.clip(own, -300, 300)
            block[f"{system.value}_posterior"] = posterior
        start += len(batch)
        yield block


def _rank(args, world, n):
    report = run_experiment(ExperimentConfig(
        world=world, rule=_RULES[args.rule], n_cases=n, master_seed=args.seed))
    rule = report.config.rule.value
    counts = {v.value: sum(r.verdict is v for r in report.ranking_verdicts)
              for v in Verdict}
    if counts["Confirmed"] + counts["Violated"] == 0:
        warnings.warn(f"the ranking passes vacuously: "
                      f"{len(report.ranking_verdicts)} claims judged, none "
                      f"Confirmed or Violated", UserWarning)
    body = {
        "rule": rule,
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
        "cases.csv": lambda doc: _case_table(report),
        "calibration.csv": lambda doc: _calibration_table(report),
        "scores.csv": lambda doc: _columns([
            {"system": s.value, "rule": rule,
             "mean_score": ms.mean, "se": ms.se, "n": ms.n,
             "n_clamped": report.clamp_counts[s]}
            for s, ms in report.per_system.items()]),
    }
    summary = [f"rank: {n} cases, seed {args.seed}, rule {rule}"]
    summary += [f"  {s.value:10s} {ms.mean:+.4f} +/- {ms.se:.4f}"
                for s, ms in report.per_system.items()]
    summary.append(f"claims: {counts['Confirmed']} Confirmed, "
                   f"{counts['Tie']} Tie, {counts['Violated']} Violated")
    return body, tables, summary, counts["Violated"] == 0


def _illcond(args, world, n):
    rep = ill_conditioning_experiment(world, n_cases=n, master_seed=args.seed,
                                      rule=_RULES[args.rule])
    summary = [
        f"illcond: identity max rel err {rep.identity_max_rel_err:.2e} "
        f"({'ok' if rep.identity_ok else 'FAIL'})",
        f"  naive {rep.mean_naive:+.4f}  proper {rep.mean_proper:+.4f}  "
        f"gap {rep.gap:+.4f} ({rep.margin_in_se:+.1f} SE)"]
    return (_fields(rep), {"illcond.csv": lambda doc: _columns([doc])},
            summary, rep.identity_ok and rep.proper_beats_naive)


def _csprior(args, world, n):
    rep = cs_update_ss_prior_experiment(world, n_cases=n, master_seed=args.seed,
                                        rule=_RULES[args.rule])
    verdict = ("descriptive" if rep.ok is None
               else "ok" if rep.ok else "FAIL")
    summary = [f"csprior: baseline {rep.mean_baseline:+.4f}  "
               f"+CSFLR {rep.mean_updated_csflr:+.4f} "
               f"({rep.margin_csflr_in_se:+.1f} SE)  [{verdict}]"]
    return (_fields(rep), {"csprior.csv": lambda doc: _columns([doc])},
            summary, rep.ok is not False)


def _tailbound(args, world, n):
    systems = tuple(s for s in ALL_SYSTEMS if s is not SystemId.PriorOnly)
    rows = tail_bound_check(systems, world, n_cases=n, seed=args.seed)
    n_fail = sum(not r.passed for r in rows)
    summary = [f"tailbound: {len(rows)} checks over {len(systems)} systems, "
               f"{n_fail} failures"]
    return ({"rows": [_fields(r) for r in rows], "all_pass": n_fail == 0},
            {"tailbound.csv": lambda doc: _columns(doc["rows"])},
            summary, n_fail == 0)


def _demand(args, world, n):
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
    # every point reads the same paths and bootstrap resamples, drawn once
    try:
        bank = PathBank(world, args.seed, n_paths)
    except ConfigError as e:  # the bank names its parameter, not the flag
        raise ConfigError(str(e).replace("n_paths", "--paths")) from e
    try:
        points = [replace(compare_closed_vs_oracle(system, view, bank), grid_index=i)
                  for system in NONTRIVIAL
                  for i, view in enumerate(default_evidence_grid(system, world))]
    except InsufficientPathsError as e:  # too few paths is bad input, not a failure
        raise ConfigError(f"--paths {n_paths} is too few: "
                          f"{str(e).partition(';')[0]}; raise --paths") from e
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
    a time (see _write_csv), called only when CSV is written. Every forked
    formatter walks a stream again, so it must yield the same blocks every
    time. tables names the CSV files, in the order they are written, so that
    a clash with --out is refused before the run. size is the report key of
    the run size and the dest of its flag (--cases or --paths); a command
    without one reads no world, so it takes no --config or --seed."""

    run: Callable
    flags: tuple[str, ...]  # the command's own flags; see _FLAGS
    tables: tuple[str, ...]
    size: str | None = None
    cases: int = 0  # default case count, when --cases is not given


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
    "--cases": dict(type=int, default=None, dest="n_cases"),
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
        if size is None:  # no --cases: the command's default
            size = spec.cases
        doc.update({"world": world_to_json_dict(world), spec.size: size,
                    "seed": args.seed})
    body, tables, summary, ok = spec.run(args, world, size)
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
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """A warning the filters let through, as one line naming no source file."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not 0 <= getattr(args, "seed", 0) < 2**64:
        print("error: --seed must lie in [0, 2**64)", file=sys.stderr)
        return 2
    if getattr(args, "n_cases", None) is not None and args.n_cases < 1:
        print("error: --cases must be an integer >= 1", file=sys.stderr)
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
