"""Command-line front end.

    lrsim <command> [--config FILE] [--seed N] [--out DIR]
                    [--format json|csv|both] [--cases N] [--rule log|brier]

Commands:
    rank          score all systems on shared cases, judge the ranking claims
    illcond       naive vs proper use of a trace-anchored LR
    csprior       update a source-conditioned prior with common-source LRs
    tailbound     empirical LR tail probabilities against the 1/k bound
    demand        experimental-demand table and the trade-off ranking
    calibrate     reliability of every system's stated posteriors
    oracle-check  closed-form LRs against the sampling oracle on a grid

Every output byte is a pure function of (command, config, seed, flags):
reports carry no timestamps and dict keys are sorted. Exit status: 0 when
all checks pass, 1 when a verdict or diagnostic fails, 2 for bad input.
Existing output files are not overwritten unless --force is given.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .costmodel import (
    demand_csv_rows,
    demand_table,
    feasibility_rank,
    tail_bound_check,
    tradeoff_csv_rows,
)
from .genmodel import ConfigError, WorldConfig, load_world, world_from_json_dict, world_to_json_dict
from .harness import (
    ALL_SYSTEMS,
    EvalReport,
    ExperimentConfig,
    Verdict,
    cs_update_ss_prior_experiment,
    ill_conditioning_experiment,
    run_experiment,
    total_expectation_check,
)
from .lrsystems import NONTRIVIAL, PathOracleConfig, SystemId
from .oracle import PathBank, compare_closed_vs_oracle, default_evidence_grid
from .scoring import ScoringRule

_RULES = {"log": ScoringRule.Logarithmic, "brier": ScoringRule.Brier}

_CASE_DEFAULTS = {
    "rank": 20_000,
    "illcond": 20_000,
    "csprior": 20_000,
    "tailbound": 100_000,
    "calibrate": 100_000,
}


def default_world() -> WorldConfig:
    doc = json.loads(
        resources.files("lrsim.data").joinpath("default_world.json").read_text())
    return world_from_json_dict(doc)


def _n_cases(args, settings: dict) -> int:
    """--cases if given, else the config's n_cases, else the default."""
    if args.cases is not None:
        return args.cases
    return settings.get("n_cases", _CASE_DEFAULTS[args.command])


def _load_config(path: str | None) -> tuple[WorldConfig, dict]:
    """World plus any experiment-level settings from the config file.

    A config file is either a bare world object or a wrapper with a
    "world" key and optional n_cases / rule / systems settings.
    """
    if path is None:
        return default_world(), {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config not found: {path}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    if "world" not in doc:
        return world_from_json_dict(doc, path=path), {}
    extra_keys = set(doc) - {"world", "n_cases", "rule", "systems"}
    if extra_keys:
        raise ConfigError(f"{path}: unknown keys {sorted(extra_keys)}")
    world = world_from_json_dict(doc["world"], path=f"{path}: world")
    settings = {}
    if "n_cases" in doc:
        n_cases = doc["n_cases"]
        if (isinstance(n_cases, bool) or not isinstance(n_cases, int)
                or n_cases < 1):
            raise ConfigError(f"{path}: n_cases must be a positive integer")
        settings["n_cases"] = doc["n_cases"]
    if "rule" in doc:
        if doc["rule"] not in _RULES:
            raise ConfigError(
                f"{path}: rule must be one of {sorted(_RULES)}, got {doc['rule']!r}")
        settings["rule"] = _RULES[doc["rule"]]
    if "systems" in doc:
        try:
            settings["systems"] = tuple(SystemId(s) for s in doc["systems"])
        except ValueError as e:
            raise ConfigError(f"{path}: systems: {e}") from e
    return world, settings


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_csv(path: Path, rows: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _claim_outputs(report: EvalReport) -> tuple[list[dict], dict[str, int]]:
    verdict_rows = []
    counts = {v.value: 0 for v in Verdict}
    for v in report.ranking_verdicts:
        counts[v.verdict.value] += 1
        verdict_rows.append({
            "claim": v.claim_id,
            "better": v.better.value,
            "worse": v.worse.value,
            "mean_diff": v.mean_diff,
            "se_diff": v.se_diff,
            "margin_in_se": v.margin_in_se,
            "verdict": v.verdict.value,
        })
    return verdict_rows, counts


def _report_dict(report: EvalReport, seed: int) -> dict:
    verdict_rows, counts = _claim_outputs(report)
    return {
        "command": "rank",
        "world": world_to_json_dict(report.config.world),
        "n_cases": report.config.n_cases,
        "seed": seed,
        "rule": report.config.rule.value,
        "per_system": {
            s.value: {"mean": ms.mean, "se": ms.se, "n": ms.n,
                      "n_neg_inf": ms.n_neg_inf}
            for s, ms in report.per_system.items()},
        "clamp_counts": {s.value: c for s, c in report.clamp_counts.items()},
        "paired_diffs": {
            cid: {"mean_diff": d.mean_diff, "se_diff": d.se_diff, "n": d.n}
            for cid, d in report.paired_diffs.items()},
        "verdicts": verdict_rows,
        "verdict_counts": counts,
        "calibration": {
            s.value: {"max_abs_gap": rep.max_abs_gap,
                      "qualifying_bins": int(np.sum(rep.qualifying)),
                      "passes": rep.passes()}
            for s, rep in report.calibration.items()},
    }


def _cases_rows(report: EvalReport) -> list[dict]:
    table = report.case_table
    cols = list(table.keys())
    n = len(table["case_id"])
    return [{c: table[c][i] for c in cols} for i in range(n)]


def _calibration_rows(report: EvalReport) -> list[dict]:
    rows = []
    for system, rep in report.calibration.items():
        for b in range(len(rep.bin_counts)):
            rows.append({
                "system": system.value,
                "bin_lo": rep.bin_edges[b],
                "bin_hi": rep.bin_edges[b + 1],
                "count": int(rep.bin_counts[b]),
                "mean_stated_p": rep.mean_stated_p[b],
                "empirical_freq": rep.empirical_freq[b],
                "gap": rep.gaps[b],
                "binomial_se": rep.binomial_se[b],
                "qualifying": str(bool(rep.qualifying[b])).lower(),
            })
    return rows


def _scores_rows(report: EvalReport) -> list[dict]:
    return [
        {"system": s.value, "rule": report.config.rule.value,
         "mean_score": ms.mean, "se": ms.se, "n": ms.n,
         "n_clamped": report.clamp_counts[s]}
        for s, ms in report.per_system.items()
    ]


class _Outputs:
    """Collects (filename, writer) pairs, then refuses or writes atomically."""

    def __init__(self, out_dir: Path, force: bool):
        self.out_dir = out_dir
        self.force = force
        self.planned: list[tuple[str, object]] = []
        self.written: list[str] = []

    def add(self, name: str, payload) -> None:
        self.planned.append((name, payload))

    def flush(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        if not self.force:
            clashes = [n for n, _ in self.planned
                       if (self.out_dir / n).exists()]
            if clashes:
                raise ConfigError(
                    f"refusing to overwrite {', '.join(sorted(clashes))} in "
                    f"{self.out_dir} (pass --force to allow)")
        for name, payload in self.planned:
            path = self.out_dir / name
            if name.endswith(".json"):
                path.write_text(_json_dumps(payload))
            else:
                _write_csv(path, payload)
            self.written.append(str(path))


def _formats(fmt: str) -> tuple[bool, bool]:
    return fmt in ("json", "both"), fmt in ("csv", "both")


# ---------------------------------------------------------------------------
# commands

def _cmd_rank(args, out: _Outputs) -> int:
    world, settings = _load_config(args.config)
    cfg = ExperimentConfig(
        world=world,
        systems=settings.get("systems", ALL_SYSTEMS),
        rule=_RULES[args.rule] if args.rule else settings.get(
            "rule", ScoringRule.Logarithmic),
        n_cases=_n_cases(args, settings),
        master_seed=args.seed,
    )
    report = run_experiment(cfg)
    _, counts = _claim_outputs(report)
    want_json, want_csv = _formats(args.format)
    if want_json:
        out.add("report.json", _report_dict(report, args.seed))
    if want_csv:
        out.add("cases.csv", _cases_rows(report))
        out.add("calibration.csv", _calibration_rows(report))
        out.add("scores.csv", _scores_rows(report))
    out.flush()

    print(f"rank: {cfg.n_cases} cases, seed {args.seed}, "
          f"rule {cfg.rule.value}")
    for s, ms in report.per_system.items():
        print(f"  {s.value:10s} {ms.mean:+.4f} +/- {ms.se:.4f}")
    print(f"claims: {counts['Confirmed']} Confirmed, {counts['Tie']} Tie, "
          f"{counts['Violated']} Violated")
    return 0 if counts["Violated"] == 0 else 1


def _cmd_illcond(args, out: _Outputs) -> int:
    world, settings = _load_config(args.config)
    rule = _RULES[args.rule] if args.rule else settings.get(
        "rule", ScoringRule.Logarithmic)
    n = _n_cases(args, settings)
    rep = ill_conditioning_experiment(world, n_cases=n,
                                      master_seed=args.seed, rule=rule)
    doc = {
        "command": "illcond",
        "world": world_to_json_dict(world),
        "n_cases": rep.n_cases,
        "seed": args.seed,
        "rule": rep.rule.value,
        "identity_max_rel_err": rep.identity_max_rel_err,
        "identity_ok": rep.identity_ok,
        "mean_naive": rep.mean_naive,
        "mean_proper": rep.mean_proper,
        "gap": rep.gap,
        "gap_se": rep.gap_se,
        "margin_in_se": rep.margin_in_se,
        "proper_beats_naive": rep.proper_beats_naive,
    }
    want_json, want_csv = _formats(args.format)
    if want_json:
        out.add("report.json", doc)
    if want_csv:
        out.add("illcond.csv", [doc])
    out.flush()
    print(f"illcond: identity max rel err {rep.identity_max_rel_err:.2e} "
          f"({'ok' if rep.identity_ok else 'FAIL'})")
    print(f"  naive {rep.mean_naive:+.4f}  proper {rep.mean_proper:+.4f}  "
          f"gap {rep.gap:+.4f} ({rep.margin_in_se:+.1f} SE)")
    return 0 if (rep.identity_ok and rep.proper_beats_naive) else 1


def _cmd_csprior(args, out: _Outputs) -> int:
    world, settings = _load_config(args.config)
    rule = _RULES[args.rule] if args.rule else settings.get(
        "rule", ScoringRule.Logarithmic)
    n = _n_cases(args, settings)
    rep = cs_update_ss_prior_experiment(world, n_cases=n,
                                        master_seed=args.seed, rule=rule)
    doc = {
        "command": "csprior",
        "world": world_to_json_dict(world),
        "n_cases": rep.n_cases,
        "seed": args.seed,
        "rule": rep.rule.value,
        "populations_match": rep.populations_match,
        "mean_baseline": rep.mean_baseline,
        "mean_updated_csflr": rep.mean_updated_csflr,
        "mean_updated_csslr": rep.mean_updated_csslr,
        "gap_csflr": rep.gap_csflr,
        "gap_csflr_se": rep.gap_csflr_se,
        "margin_csflr_in_se": rep.margin_csflr_in_se,
        "gap_csslr": rep.gap_csslr,
        "gap_csslr_se": rep.gap_csslr_se,
        "ok": rep.ok,
    }
    want_json, want_csv = _formats(args.format)
    if want_json:
        out.add("report.json", doc)
    if want_csv:
        out.add("csprior.csv", [doc])
    out.flush()
    verdict = ("descriptive" if rep.ok is None
               else "ok" if rep.ok else "FAIL")
    print(f"csprior: baseline {rep.mean_baseline:+.4f}  "
          f"+CSFLR {rep.mean_updated_csflr:+.4f} "
          f"({rep.margin_csflr_in_se:+.1f} SE)  [{verdict}]")
    return 0 if rep.ok is not False else 1


def _cmd_tailbound(args, out: _Outputs) -> int:
    world, settings = _load_config(args.config)
    n = _n_cases(args, settings)
    systems = settings.get("systems", tuple(
        s for s in ALL_SYSTEMS if s is not SystemId.PriorOnly))
    rows = []
    all_pass = True
    for system in systems:
        for r in tail_bound_check(system, world, n_cases=n, seed=args.seed):
            all_pass &= r.passed
            rows.append({
                "system": system.value, "k": r.k, "side": r.side,
                "empirical_exceedance": r.empirical_exceedance,
                "bound": r.bound, "passed": str(r.passed).lower(),
            })
    doc = {
        "command": "tailbound",
        "world": world_to_json_dict(world),
        "n_cases": n,
        "seed": args.seed,
        "rows": rows,
        "all_pass": all_pass,
    }
    want_json, want_csv = _formats(args.format)
    if want_json:
        out.add("report.json", doc)
    if want_csv:
        out.add("tailbound.csv", rows)
    out.flush()
    n_fail = sum(1 for r in rows if r["passed"] == "false")
    print(f"tailbound: {len(rows)} checks over {len(systems)} systems, "
          f"{n_fail} failures")
    return 0 if all_pass else 1


def _cmd_demand(args, out: _Outputs) -> int:
    profiles = demand_table(args.lr_min, args.lr_max)
    d_rows = demand_csv_rows(profiles)
    t_rows = tradeoff_csv_rows()
    doc = {
        "command": "demand",
        "target_lr_min": args.lr_min,
        "target_lr_max": args.lr_max,
        "profiles": d_rows,
        "tradeoff": t_rows,
    }
    want_json, want_csv = _formats(args.format)
    if want_json:
        out.add("report.json", doc)
    if want_csv:
        out.add("demand.csv", d_rows)
        out.add("tradeoff.csv", t_rows)
    out.flush()
    print(f"demand: range [{args.lr_min:g}, {args.lr_max:g}] -> "
          f"{d_rows[0]['required_h1_scores']} H1 / "
          f"{d_rows[0]['required_h2_scores']} H2 scores")
    for r in tradeoff_csv_rows():
        flags = ("infeasible" if r["infeasible"] == "true"
                 else "favourable" if r["favourable"] == "true" else "")
        print(f"  {r['system']:10s} perf {r['performance_rank']} "
              f"demand {r['demand_rank']} {flags}")
    return 0


def _cmd_calibrate(args, out: _Outputs) -> int:
    world, settings = _load_config(args.config)
    cfg = ExperimentConfig(
        world=world,
        systems=settings.get("systems", ALL_SYSTEMS),
        rule=_RULES[args.rule] if args.rule else settings.get(
            "rule", ScoringRule.Logarithmic),
        n_cases=_n_cases(args, settings),
        master_seed=args.seed,
    )
    report = run_experiment(cfg)
    all_pass = all(rep.passes() for rep in report.calibration.values())
    doc = {
        "command": "calibrate",
        "world": world_to_json_dict(world),
        "n_cases": cfg.n_cases,
        "seed": args.seed,
        "per_system": {
            s.value: {"max_abs_gap": rep.max_abs_gap,
                      "qualifying_bins": int(np.sum(rep.qualifying)),
                      "passes": rep.passes()}
            for s, rep in report.calibration.items()},
        "all_pass": all_pass,
    }
    want_json, want_csv = _formats(args.format)
    if want_json:
        out.add("report.json", doc)
    if want_csv:
        out.add("calibration.csv", _calibration_rows(report))
    out.flush()
    for s, rep in report.calibration.items():
        print(f"  {s.value:10s} max gap {rep.max_abs_gap:.4f} "
              f"{'ok' if rep.passes() else 'FAIL'}")
    return 0 if all_pass else 1


def _cmd_oracle_check(args, out: _Outputs) -> int:
    world, _ = _load_config(args.config)
    cfg = PathOracleConfig(n_paths=args.paths)
    # every point reads the same paths: the grid draws each recipe once
    bank = PathBank(world, args.seed, cfg.n_paths)
    rows = []
    all_ok = True
    for system in NONTRIVIAL:
        grid = default_evidence_grid(system, world)
        for i, view in enumerate(grid):
            comp = compare_closed_vs_oracle(system, view, world, cfg,
                                            seed=args.seed, bank=bank)
            all_ok &= comp.within_3se
            rows.append({
                "system": system.value, "grid_index": i,
                "closed_log10": comp.closed_log10,
                "oracle_log10": comp.oracle_log10,
                "se_log10": comp.se_log10,
                "abs_diff_log10": comp.abs_diff_log10,
                "within_3se": str(comp.within_3se).lower(),
            })
    doc = {
        "command": "oracle-check",
        "world": world_to_json_dict(world),
        "n_paths": args.paths,
        "seed": args.seed,
        "rows": rows,
        "all_within_3se": all_ok,
    }
    want_json, want_csv = _formats(args.format)
    if want_json:
        out.add("report.json", doc)
    if want_csv:
        out.add("oracle.csv", rows)
    out.flush()
    worst = max(rows, key=lambda r: r["abs_diff_log10"] / r["se_log10"]
                if r["se_log10"] > 0 else 0.0)
    print(f"oracle-check: {len(rows)} grid points at {args.paths} paths, "
          f"{'all within 3 SE' if all_ok else 'DISAGREEMENT'}")
    print(f"  worst: {worst['system']} point {worst['grid_index']} "
          f"diff {worst['abs_diff_log10']:.4f} vs SE {worst['se_log10']:.4f}")
    return 0 if all_ok else 1


_COMMANDS = {
    "rank": _cmd_rank,
    "illcond": _cmd_illcond,
    "csprior": _cmd_csprior,
    "tailbound": _cmd_tailbound,
    "demand": _cmd_demand,
    "calibrate": _cmd_calibrate,
    "oracle-check": _cmd_oracle_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrsim",
        description="simulate and evaluate source-level LR systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="world or experiment JSON "
                       "(default: the packaged world)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="lrsim-out",
                       help="output directory (default: lrsim-out)")
        p.add_argument("--format", choices=("json", "csv", "both"),
                       default="both")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing output files")
        if name not in ("demand", "oracle-check"):
            p.add_argument("--cases", type=int, default=None)
            p.add_argument("--rule", choices=sorted(_RULES), default=None)
        if name == "demand":
            p.add_argument("--lr-min", type=float, default=1.0 / 100.0)
            p.add_argument("--lr-max", type=float, default=1000.0)
        if name == "oracle-check":
            p.add_argument("--paths", type=int, default=300_000)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not 0 <= args.seed < 2**64:
        print("error: --seed must lie in [0, 2**64)", file=sys.stderr)
        return 2
    if getattr(args, "cases", None) is not None and args.cases < 1:
        print("error: --cases must be an integer >= 1", file=sys.stderr)
        return 2
    out = _Outputs(Path(args.out), args.force)
    try:
        status = _COMMANDS[args.command](args, out)
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
