"""Run one lrsim command with timing wrappers around each layer's public calls.

    python3 perfbench/traced.py SPANS_JSON RUN_ID [--heap] -- <lrsim arguments>

This script imports the package, rebinds the module attributes through which
the layers call each other (for example ``lrsim.harness.generate_cases``) to
wrappers that record a span, calls ``lrsim.cli.main`` and exits with its
status. Spans (name, start, end, parent, run id) and counters stay in memory
until the command returns; then they are written to SPANS_JSON in one piece.
No file of the package is changed: the wrappers live only in this process.
With ``--heap``, ``harness.run_experiment`` also runs under tracemalloc and its
peak is counted; that slows every layer below it, so the benchmark takes
span times only from runs without ``--heap``.

Counters marked "computed" below are derived from argument and result sizes,
not measured: ``kernels.normals.count`` is the n argument summed over calls
and ``genmodel.generate_cases.batch_bytes`` sums the returned arrays' nbytes.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter
from types import SimpleNamespace


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, run_id];
    parent is the index of the enclosing span, or -1 for a root."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None):
        """Return fn timed as span `name`; after(result, *args) feeds counters."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None,
                          stack[-1] if stack else -1, self.run_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                self.errors[f"{name}:{type(e).__name__}"] += 1
                raise
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_spans(spans: list[list]) -> list[str]:
    """Problems with a finished trace: every span ended, children inside
    their parent, siblings disjoint, and self times >= 0. When these hold,
    the self times add up to the root spans by construction."""
    problems = []
    if not spans:
        return ["no spans recorded"]
    last_child_end: dict[int, float] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {i} {name} has no valid end")
            continue
        if parent >= 0:
            pname, pstart, pend, _, _ = spans[parent]
            if parent >= i or start < pstart or end > pend:
                problems.append(f"span {i} {name} is not inside parent {pname}")
            if start < last_child_end.get(parent, -math.inf):
                problems.append(f"span {i} {name} overlaps a sibling")
            last_child_end[parent] = end
    own = self_times(spans)
    for i, s in enumerate(own):
        if s < 0:
            problems.append(f"span {i} {spans[i][0]} has self time {s:.3g} s")
    return problems


def install(tr: Tracer, heap: bool) -> list[str]:
    """Rebind each layer's entry points to traced wrappers.

    Returns the hooks that could not be installed because the attribute does
    not exist; their metrics then read zero.
    """
    import lrsim.cli as cli
    import lrsim.costmodel as costmodel
    import lrsim.harness as harness
    import lrsim.kernels as kernels
    import lrsim.lrsystems as lrsystems
    import lrsim.oracle as oracle

    c = tr.counters
    missing: list[str] = []

    def rebind(name, attr, modules, after=None, prepare=None):
        found = [m for m in modules if hasattr(m, attr)]
        missing.extend(f"{m.__name__}.{attr}" for m in modules if m not in found)
        wrapped: dict[int, object] = {}
        for m in found:
            fn = getattr(m, attr)
            if id(fn) not in wrapped:
                inner = prepare(fn) if prepare else fn
                wrapped[id(fn)] = tr.wrap(name, inner, after)
            setattr(m, attr, wrapped[id(fn)])

    def add(key, value):
        c[key] += value

    def heap_peak(fn):
        # numpy reports its buffers to tracemalloc, so the traced peak covers
        # the case arrays; tracing runs only inside this call.
        def run(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                c["harness.run_experiment.peak_bytes"] = max(
                    c["harness.run_experiment.peak_bytes"], peak)
        return run

    def batch_done(batch, *args, **kwargs):
        add("genmodel.generate_cases.cases", len(batch))
        add("genmodel.generate_cases.batch_bytes", sum(  # computed
            a.nbytes for a in (batch.truth_h1, batch.theta_r,
                               batch.theta_trace, batch.x, batch.y)))

    def oracle_done(est, *args, **kwargs):
        add("oracle.paths", 2 * est.n_paths)
        add("oracle.accepted", est.accepted_num + est.accepted_den)

    rebind("harness.run_experiment", "run_experiment", [cli],
           after=lambda rep, *a, **k: add("harness.violated", rep.n_violated),
           prepare=heap_peak if heap else None)
    rebind("costmodel.tail_bound_check", "tail_bound_check", [cli],
           after=lambda rows, *a, **k: add(
               "costmodel.failed_bounds", sum(not r.passed for r in rows)))
    rebind("oracle.compare_closed_vs_oracle", "compare_closed_vs_oracle", [cli],
           after=lambda comp, *a, **k: add(
               "oracle.outside_3se", not comp.within_3se))
    rebind("oracle.path_oracle", "path_oracle", [oracle], after=oracle_done)
    rebind("lrsystems.evaluate", "evaluate", [oracle])
    rebind("genmodel.generate_cases", "generate_cases", [harness, costmodel],
           after=batch_done)
    rebind("lrsystems.log_lr_batch", "log_lr_batch",
           [harness, costmodel, lrsystems],
           after=lambda out, *a, **k: add("lrsystems.log_lr_batch.cases",
                                          getattr(out, "size", 1)))
    rebind("lrsystems.anchor_log_lr_batch", "anchor_log_lr_batch", [harness])
    rebind("lrsystems.posterior", "clamp_log10_lr", [harness],
           after=lambda out, *a, **k: add("lrsystems.clamped", out[1]))
    rebind("lrsystems.posterior", "posterior_from_log10_lr", [harness])
    rebind("scoring.scores_batch", "scores_batch", [harness],
           after=lambda out, *a, **k: add("scoring.scores_batch.cases",
                                          getattr(out, "size", 1)))
    rebind("scoring.calibration_report", "calibration_report", [harness])

    # kernels.active is the backend object genmodel and the oracle call
    # through; stand a proxy in for it whose kernels are traced.
    impl = getattr(kernels, "active", None)
    if impl is None:
        missing.append("lrsim.kernels.active")
    else:
        proxy = SimpleNamespace(**{k: getattr(impl, k) for k in dir(impl)
                                   if not k.startswith("__")})
        proxy.__name__ = "lrsim.kernels.active"
        rebind("kernels.case_batch", "case_batch", [proxy])
        rebind("kernels.normals", "normals", [proxy],
               after=lambda out, key, start, n, *a, **k: add(  # computed
                   "kernels.normals.count", n))
        kernels.active = proxy

    # Writing outputs stays inside cli.main's self time; it is timed as a
    # counter, not a span, so that cli.main.self_s covers rows plus writing.
    outputs = getattr(cli, "_Outputs", None)
    if outputs is None or not hasattr(outputs, "flush"):
        missing.append("lrsim.cli._Outputs.flush")
    else:
        flush = outputs.flush

        def timed_flush(self):
            t0 = perf_counter()
            try:
                return flush(self)
            finally:
                add("cli.write_s", perf_counter() - t0)
                add("cli.output_bytes",
                    sum(os.path.getsize(p) for p in self.written))

        outputs.flush = timed_flush
    return missing


def main(argv: list[str]) -> int:
    heap = argv[2:3] == ["--heap"]
    if len(argv) < 3 + heap or argv[2 + heap] != "--":
        print("usage: traced.py SPANS_JSON RUN_ID [--heap] -- "
              "<lrsim arguments>", file=sys.stderr)
        return 2
    spans_path, run_id, cli_argv = argv[0], int(argv[1]), argv[3 + heap:]
    import lrsim.cli

    tr = Tracer(run_id)
    missing = install(tr, heap)
    status = tr.wrap("cli.main", lrsim.cli.main)(cli_argv)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tr.spans, "counters": tr.counters,
                   "errors": tr.errors, "missing_hooks": missing}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
