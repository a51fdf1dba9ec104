"""Benchmark of the lrsim command-line tool.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1]

Run it from anywhere; it works in the checkout that contains it and runs the
package from that checkout's ``src/``. Each workload is a closed loop with one
client: every timed invocation is a fresh ``python -m lrsim.cli ...`` child,
started only after the previous one has ended, and the loop starts children
for about ``--seconds``: a round starts only while its expected midpoint
(from the median round so far) falls inside that time. Wall time, peak RSS
and exit status of a child come from ``os.wait4``.

The CPU speed of a shared host drifts by a third and more over tens of
seconds to minutes, for every process on it. So that runs made at
different moments compare, a run also runs a yardstick child
(perfbench/yardstick.py, a fixed computation in Python and numpy that uses
no lrsim code) at its start, once in every round between the children, and
at its end. It reports two times: that of its computation, and the rest of
its wall time, mostly starting an interpreter and importing numpy. Each
timed invocation is multiplied by YARDSTICK_NOMINAL_S / (mean of the two
computation times around it), and each set-up probe by STARTUP_NOMINAL_S /
(mean of the two start-up times around it); ``wall_s`` and ``setup_s`` are
the medians of the products, so they read as seconds on a host on which the
yardstick takes its nominal times. The raw medians and the yardstick times
are printed beside them.

A run of one workload:
 1. times fresh interpreters that import the CLI, build its parser and
    load the workload's config (perfbench/probe.py): ``setup_s`` is their
    scaled median. SETUP_PROBES run first, then PROBES_PER_ROUND before
    every timed invocation, so that the probes sample the whole run and not
    one moment of it;
 2. runs one untimed warm-up invocation, so that file caches are warm; its
    outputs are the reference every later invocation must match byte for
    byte, and they are checked against the workload's expected shape;
 3. with ``--trace 0``, loops plain invocations and reports the end-to-end
    metrics; with ``--trace 1``, loops pairs of a plain and a traced
    invocation (perfbench/traced.py) and reports per-layer metrics from the
    traced ones, plus the tracing overhead. One more traced invocation, run
    once after the warm-up, traces allocations for
    ``harness.run_experiment.peak_mb``; the timed traced invocations run
    without allocation tracing.

An invocation fails when it exits 2 or is stopped at the run's time limit;
exits 1 with an ``error:`` line or a traceback on stderr; misses or leaves
empty an expected output file; writes bytes that differ from the reference;
or, when traced, records spans that fail the tracer self-test. A
statistical verdict (exit 1 without an error line) is not a failure; it is
counted by the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--workload
all`` every workload runs in turn, a table of the end-to-end metrics follows,
and the exit status is 1 when any invocation failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
from traced import check_spans, self_times  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
WORLDS = "perfbench/worlds"

SETUP_PROBES = 2
PROBES_PER_ROUND = 1
# A run of one workload stops every child still running this long after it
# started, so that it ends within the 180 s a run may take.
RUN_LIMIT_S = 170
MB = 1e6
# About the median computation and start-up times of one yardstick child on
# the host the bounds were set on (2 vCPUs of an Intel Xeon, Python 3.11,
# numpy 2.4); they are only units of scale.
YARDSTICK_NOMINAL_S = 0.5
STARTUP_NOMINAL_S = 0.2


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    work: int            # units of work_per_s done by one invocation
    work_unit: str       # what one unit of work is
    outputs: dict        # file -> expected line count, or None for any
    report: dict         # report.json key -> expected value
    report_len: dict     # report.json key -> expected length


# Each workload loads a different layer: rank-csv is bound by cli row
# building and CSV writing (compute is a few percent); rank-1m-json is its
# mirror, bound by case generation at n_trace=4, n_ref=16, with 7 KB of
# output; oracle-grid is the only one running the oracle and no case
# generation; tailbound-abs is the only one running costmodel, regenerating
# two forced-truth batches per system (16 generate_cases calls) through the
# folded-density branch of lrsystems.
WORKLOADS = {
    "rank-csv": Workload(
        argv=("rank", "--cases", "100000", "--format", "both"),
        work=100_000 * 9, work_unit="case x system",
        outputs={"report.json": None, "cases.csv": 100_001,
                 "calibration.csv": 91, "scores.csv": 10},
        report={"command": "rank", "n_cases": 100_000},
        report_len={"per_system": 9, "verdicts": 11},
    ),
    "rank-1m-json": Workload(
        argv=("rank", "--cases", "1000000", "--format", "json",
              "--config", f"{WORLDS}/rank_1m.json"),
        work=1_000_000 * 9, work_unit="case x system",
        outputs={"report.json": None},
        report={"command": "rank", "n_cases": 1_000_000},
        report_len={"per_system": 9, "verdicts": 11},
    ),
    "oracle-grid": Workload(
        argv=("oracle-check", "--format", "both"),
        work=63 * 2 * 300_000, work_unit="path (63 points x 2 terms)",
        outputs={"report.json": None, "oracle.csv": 64},
        report={"command": "oracle-check", "n_paths": 300_000},
        report_len={"rows": 63},
    ),
    "tailbound-abs": Workload(
        argv=("tailbound", "--cases", "400000", "--format", "both",
              "--config", f"{WORLDS}/tailbound_abs.json"),
        work=2 * 400_000 * 8, work_unit="case x hypothesis x system",
        outputs={"report.json": None, "tailbound.csv": 65},
        report={"command": "tailbound", "n_cases": 400_000},
        report_len={"rows": 64},
    ),
}

# error_rate is always 0 on a healthy run and se_log10_median exists only
# for oracle-grid, so neither can be a metric of BENCHMARK.json (which needs
# nonzero values on every workload); both are printed with the others.
UNGATED = [("error_rate", "failed/attempted"), ("se_log10_median", "log10")]


def _stop(signum, frame):
    sys.exit(128 + signum)  # unwinds through run_child, which stops the child


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all; no result is printed."""


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    problems: list = field(default_factory=list)
    output_bytes: int = 0
    digest: str = ""
    report: dict | None = None
    trace: dict | None = None


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _expire(signum, frame):
    raise TimeoutError


def run_child(args: list[str], tag: str,
              deadline: float) -> tuple[float, int | None, float, str]:
    """Run `python args...` to completion or until the perf_counter()
    deadline: (wall_s, exit status or None if stopped at the deadline, max
    RSS MB, stderr). Standard output goes to a file in the work directory."""
    with open(WORK / f"{tag}.stdout", "wb") as out, \
            open(WORK / f"{tag}.stderr", "wb+") as err:
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        t0 = perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args],
                             _child_env(), file_actions=actions)
        reaped = None
        timed_out = False
        previous = signal.signal(signal.SIGALRM, _expire)
        try:
            signal.alarm(max(1, round(deadline - t0)))
            reaped = os.wait4(pid, 0)
        except TimeoutError:
            timed_out = True
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            if reaped is None:  # timed out or interrupted: stop the child
                os.kill(pid, signal.SIGKILL)
                reaped = os.wait4(pid, 0)
        wall = perf_counter() - t0
        _, raw, usage = reaped
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    status = None if timed_out else os.waitstatus_to_exitcode(raw)
    return wall, status, usage.ru_maxrss * 1024 / MB, stderr


def _digest(out_dir: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    total = 0
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        total += len(data)
        h.update(path.name.encode() + b"\0" + len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest(), total


def _check_shape(wl: Workload, out_dir: Path, seed: int) -> tuple[list, dict]:
    """Problems with the reference outputs, and the parsed report."""
    problems = []
    for name, lines in wl.outputs.items():
        if lines is None:
            continue
        with open(out_dir / name, "rb") as fh:
            got = sum(chunk.count(b"\n") for chunk in iter(
                lambda: fh.read(1 << 20), b""))
        if got != lines:
            problems.append(f"{name} has {got} lines, expected {lines}")
    try:
        report = json.loads((out_dir / "report.json").read_text())
    except ValueError as e:
        return problems + [f"report.json is not valid JSON: {e}"], {}
    for key, want in {**wl.report, "seed": seed}.items():
        if report.get(key) != want:
            problems.append(f"report.json {key}={report.get(key)!r}, "
                            f"expected {want!r}")
    for key, want in wl.report_len.items():
        if len(report.get(key, ())) != want:
            problems.append(f"report.json {key} has {len(report.get(key, ()))}"
                            f" entries, expected {want}")
    return problems, report


def invoke(wl: Workload, argv: list[str], seed: int, index: int,
           ref: Invocation | None, deadline: float, traced: bool = False,
           heap: bool = False) -> Invocation:
    """One CLI invocation into a fresh, empty --out, checked as described in
    the module docstring. ref is None for the warm-up (the reference); heap
    asks a traced invocation to trace allocations."""
    out_dir = WORK / f"out-{index}"
    cli_args = [*argv, "--out", str(out_dir)]
    if traced:
        spans_path = WORK / f"spans-{index}.json"
        args = [str(ROOT / "perfbench" / "traced.py"), str(spans_path),
                str(index), *(["--heap"] if heap else []), "--", *cli_args]
    else:
        args = ["-m", "lrsim.cli", *cli_args]
    wall, status, rss, stderr = run_child(args, f"inv-{index}", deadline)
    inv = Invocation(wall_s=wall, rss_mb=rss)
    p = inv.problems
    error_lines = [ln for ln in stderr.splitlines()
                   if ln.startswith("error:") or ln.startswith("Traceback")]
    if status is None:
        p.append(f"stopped after {wall:.1f} s at the run's time limit")
    elif status not in (0, 1):
        p.append(f"exit status {status}")
    elif status == 1 and error_lines:
        p.append("exit 1 with " + error_lines[0])
    missing = [n for n in wl.outputs
               if not (out_dir / n).is_file() or (out_dir / n).stat().st_size == 0]
    if missing:
        p.append("missing or empty outputs: " + ", ".join(missing))
    elif out_dir.is_dir():
        inv.digest, inv.output_bytes = _digest(out_dir)
        if ref is None:
            problems, inv.report = _check_shape(wl, out_dir, seed)
            p.extend(problems)
        elif inv.digest != ref.digest:
            p.append("output bytes differ from the first invocation")
    # The spans of a failed invocation are read too: the tracer counts the
    # exceptions, such as InsufficientPathsError, that made it fail.
    if traced and status is not None:
        try:
            inv.trace = json.loads(spans_path.read_text())
        except (OSError, ValueError) as e:
            p.append(f"no readable spans: {e}")
        else:
            p.extend(check_spans(inv.trace["spans"]))
            roots = [s for s in inv.trace["spans"] if s[0] == "cli.main"]
            if len(roots) != 1 or roots[0][2] - roots[0][1] > wall:
                p.append("traced cli.main span missing or longer than the "
                         "child")
    shutil.rmtree(out_dir, ignore_errors=True)
    return inv


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def probe_setup(argv: list[str], index: int,
                deadline: float) -> tuple[float, dict]:
    """Time one set-up child; return its wall time and what it reported."""
    wall, status, _, stderr = run_child(
        [str(ROOT / "perfbench" / "probe.py"), *argv], f"probe-{index}",
        deadline)
    if status != 0:
        raise SetupError(f"set-up probe exited {status}: "
                         f"{stderr.strip().splitlines()[-1:]}")
    return wall, json.loads((WORK / f"probe-{index}.stdout").read_text())


def yardstick(deadline: float) -> tuple[float, float]:
    """Run one perfbench/yardstick.py child; return the seconds of its
    computation and the rest of its wall time (start-up and exit)."""
    wall, status, _, stderr = run_child(
        [str(ROOT / "perfbench" / "yardstick.py")], "yardstick", deadline)
    if status != 0:
        raise SetupError(f"yardstick exited {status}: "
                         f"{stderr.strip().splitlines()[-1:]}")
    compute = float((WORK / "yardstick.stdout").read_text())
    return compute, wall - compute


def run_metadata(meta: dict, seed: int) -> dict:
    """Probe report plus machine and source identity; checks that the
    package was imported from this checkout."""
    lrsim_file = Path(meta["lrsim_file"]).resolve()
    if ROOT / "src" not in lrsim_file.parents:
        raise SetupError(f"imported lrsim from {lrsim_file}, not from "
                         f"{ROOT / 'src'}")
    return {**meta, "nproc": os.cpu_count(),
            "git_commit": _git_commit(), "seed": seed}


def layer_metrics(trace: dict, names: list[str]) -> dict:
    """Per-layer metrics of one traced invocation (trace.overhead_s aside)."""
    spans, c = trace["spans"], trace["counters"]
    own = self_times(spans)
    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    for span, s in zip(spans, own):
        calls[span[0]] = calls.get(span[0], 0) + 1
        selfs[span[0]] = selfs.get(span[0], 0.0) + s
    m = {}
    for name in names:
        layer, _, stat = name.rpartition(".")
        if stat == "self_s":
            m[name] = selfs.get(layer, 0.0)
        elif stat == "calls":
            m[name] = calls.get(layer, 0)
        else:
            m[name] = c.get(name, 0)
    write_s = c.get("cli.write_s", 0.0)
    paths = c.get("oracle.paths", 0)
    m.update({
        "cli.write_MBps": c.get("cli.output_bytes", 0) / MB / write_s
        if write_s > 0 else 0.0,
        "genmodel.generate_cases.batch_mb":
            c.get("genmodel.generate_cases.batch_bytes", 0) / MB,
        "oracle.accept_ratio": c.get("oracle.accepted", 0) / paths
        if paths else 0.0,
        "oracle.insufficient_paths": trace["errors"].get(
            "oracle.path_oracle:InsufficientPathsError", 0),
    })
    return m


def _median(values):
    # Empty only when every invocation failed; the result is then incorrect.
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 gated: list, per_layer: list):
    """Run one workload; return the result object, human-readable lines and
    every end-to-end metric."""
    deadline = perf_counter() + RUN_LIMIT_S
    wl = WORKLOADS[name]
    argv = [*wl.argv, "--seed", str(seed)]
    # Round r lies between yardsticks r and r + 1; round 0 is the set-up
    # probes and the warm-up, the later ones each a timed invocation and the
    # probes before it.
    yard = [yardstick(deadline)]
    setup_walls: list[list[float]] = [[]]
    for i in range(SETUP_PROBES):
        wall, meta = probe_setup(argv, i, deadline)
        setup_walls[0].append(wall)
    meta = run_metadata(meta, seed)
    ref = invoke(wl, argv, seed, 0, None, deadline)
    every = [ref]
    heap = None
    if trace:
        heap = invoke(wl, argv, seed, 1, ref, deadline, traced=True,
                      heap=True)
        every.append(heap)
    plain: list[Invocation] = []
    traced: list[Invocation] = []
    rounds: list[float] = []
    t0 = perf_counter()
    while True:
        start = perf_counter()
        yard.append(yardstick(deadline))
        setup_walls.append([
            probe_setup(argv, SETUP_PROBES + PROBES_PER_ROUND * len(plain) + i,
                        deadline)[0]
            for i in range(PROBES_PER_ROUND)])
        plain.append(invoke(wl, argv, seed, len(every), ref, deadline))
        every.append(plain[-1])
        if trace:
            traced.append(invoke(wl, argv, seed, len(every), ref, deadline,
                                 traced=True))
            every.append(traced[-1])
        rounds.append(perf_counter() - start)
        if (perf_counter() - t0 + _median(rounds) / 2 > seconds
                or perf_counter() >= deadline):
            break
    yard.append(yardstick(deadline))
    failed = [inv for inv in every if inv.problems]
    lines = [f"workload {name}: {' '.join(argv)}",
             "meta " + json.dumps(meta, sort_keys=True)]
    lines += [f"  FAILED invocation: {'; '.join(inv.problems)}"
              for inv in failed]

    walls = [inv.wall_s for inv in plain]
    compute = [c for c, _ in yard]
    startup = [s for _, s in yard]
    scales = [2 * YARDSTICK_NOMINAL_S / (a + b)
              for a, b in zip(compute, compute[1:])]
    wall_s = _median([w * k for w, k in zip(walls, scales[1:])])
    probes = [w for r in setup_walls for w in r]
    se = [row["se_log10"] for row in (ref.report or {}).get("rows", ())
          if "se_log10" in row]
    e2e = {
        "setup_s": _median([
            w * 2 * STARTUP_NOMINAL_S / (a + b)
            for r, a, b in zip(setup_walls, startup, startup[1:]) for w in r]),
        "wall_s": wall_s,
        "work_per_s": wl.work / wall_s,
        "peak_rss_mb": _median([inv.rss_mb for inv in plain]),
        "output_mb": ref.output_bytes / MB,
        "error_rate": len(failed) / len(every),
        "se_log10_median": _median(se) if se else None,
    }
    notes = {
        "setup_s": f"scaled median of {len(probes)} probes; raw median "
                   f"{_median(probes):.4g}",
        "wall_s": f"scaled median of {len(walls)}; raw median "
                  f"{_median(walls):.4g}, min {min(walls):.4g}, "
                  f"max {max(walls):.4g}",
        "work_per_s": f"work = {wl.work} {wl.work_unit}",
        "peak_rss_mb": f"median of {len(walls)}",
        "output_mb": "bytes written into --out",
        "error_rate": f"{len(failed)} of {len(every)} invocations",
        "se_log10_median": "median bootstrap SE over the grid in report.json",
    }
    lines.append(f"  yardstick        median {_median(compute):.4g} s of "
                 f"{len(compute)}, min {min(compute):.4g}, "
                 f"max {max(compute):.4g}; "
                 f"times scaled by {min(scales):.4g} to {max(scales):.4g}")
    lines.append(f"  start-up         median {_median(startup):.4g} s of "
                 f"{len(startup)}, min {min(startup):.4g}, "
                 f"max {max(startup):.4g}")
    lines.append("  invocations      raw/scaled s: " + " ".join(
        f"{w:.3f}/{w * k:.3f}" for w, k in zip(walls, scales[1:])))
    for metric, unit in gated + UNGATED:
        value = e2e[metric]
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        lines.append(f"  {metric:16s} {shown:24s} ({notes[metric]})")

    if trace:
        per_inv = [layer_metrics(inv.trace, [n for n, _ in per_layer])
                   for inv in traced if inv.trace]
        metrics = {}
        for metric, unit in per_layer:
            if metric == "trace.overhead_s":
                value = (_median([i.wall_s for i in traced])
                         - _median(walls))
            elif metric == "harness.run_experiment.peak_mb":
                value = (heap.trace or {}).get("counters", {}).get(
                    "harness.run_experiment.peak_bytes", 0) / MB
            else:
                value = _median([m[metric] for m in per_inv])
            metrics[metric] = {"value": value, "unit": unit}
        missing = sorted({h for inv in traced if inv.trace
                          for h in inv.trace["missing_hooks"]})
        if missing:
            lines.append("  hooks not found (metrics read 0): "
                         + ", ".join(missing))
        lines.append(f"  traced invocations: {len(per_inv)}")
        lines += [f"  {m:38s} {v['value']:.6g} {v['unit']}"
                  for m, v in metrics.items()]
    else:
        metrics = {m: {"value": e2e[m], "unit": unit}
                   for m, unit in gated}
    result = {"correct": not failed, "attempted": len(every),
              "failed": len(failed), "metrics": metrics}
    return result, lines, e2e


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    # Runs of the benchmark pass BENCHMARK.json's run_seconds here; without
    # the option a run uses that same value.
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "lrsim" / "cli.py").is_file():
        print(f"error: no lrsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The result reports, with their units, the metrics BENCHMARK.json
    # names: end_to_end with --trace 0, per_layer with --trace 1.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    signal.signal(signal.SIGTERM, _stop)
    os.chdir(ROOT)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    table = []
    any_failed = False
    try:
        for name in names:
            result, lines, e2e = run_workload(name, args.seed, seconds,
                                              bool(args.trace), gated, per_layer)
            any_failed |= not result["correct"]
            table.append((name, e2e))
            print("\n".join(lines), flush=True)
            print(json.dumps(result), flush=True)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if len(names) > 1:
        print(f"\n{'metric [unit]':34s}"
              + "".join(f"{name:>15s}" for name, _ in table))
        for m, unit in gated + UNGATED:
            print(f"{m + ' [' + unit + ']':34s}" + "".join(
                f"{'n/a' if e2e[m] is None else format(e2e[m], '.6g'):>15s}"
                for _, e2e in table))
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
