"""Self-test of the benchmark's tracer and yardstick.

    python3 -m pytest perfbench/test_tracer.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from traced import Tracer, check_spans, self_times  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def test_nested_spans_pass_and_self_times_sum_to_root():
    tr = Tracer(run_id=7)
    leaf = tr.wrap("leaf", lambda: sum(range(1000)))
    mid = tr.wrap("mid", lambda: [leaf() for _ in range(3)])
    tr.wrap("root", lambda: (mid(), leaf()))()
    spans = tr.spans
    assert [s[0] for s in spans] == ["root", "mid", "leaf", "leaf", "leaf",
                                     "leaf"]
    assert [s[3] for s in spans] == [-1, 0, 1, 1, 1, 0]
    assert {s[4] for s in spans} == {7}
    assert check_spans(spans) == []
    own = self_times(spans)
    assert min(own) >= 0
    assert sum(own) == pytest.approx(spans[0][2] - spans[0][1], rel=1e-9)


def test_errors_are_counted_and_the_span_still_closes():
    tr = Tracer(run_id=0)

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.wrap("boom", boom)()
    assert tr.errors == {"boom:KeyError": 1}
    assert check_spans(tr.spans) == []


def test_broken_traces_are_reported():
    outside = [["root", 0.0, 1.0, -1, 0], ["child", 0.5, 1.5, 0, 0]]
    assert any("not inside" in p for p in check_spans(outside))
    overlap = [["root", 0.0, 3.0, -1, 0], ["a", 0.0, 2.0, 0, 0],
               ["b", 1.0, 2.5, 0, 0]]
    problems = check_spans(overlap)
    assert any("overlaps" in p for p in problems)
    assert any("self time" in p for p in problems)
    assert check_spans([]) == ["no spans recorded"]


def traced_run(tmp_path, *args, status=0):
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"),
         str(spans_path), "3", *args, "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == status, done.stderr
    return json.loads(spans_path.read_text())


def test_traced_cli_run_records_every_rank_layer(tmp_path):
    trace = traced_run(tmp_path, "--", "rank", "--cases", "2000",
                       "--format", "both")
    assert trace["missing_hooks"] == []
    assert check_spans(trace["spans"]) == []
    names = {s[0] for s in trace["spans"]}
    assert {"cli.main", "harness.run_experiment", "genmodel.generate_cases",
            "kernels.case_batch", "lrsystems.log_lr_batch",
            "lrsystems.anchor_log_lr_batch", "lrsystems.posterior",
            "scoring.scores_batch", "scoring.calibration_report"} <= names
    c = trace["counters"]
    assert c["genmodel.generate_cases.cases"] == 2000
    assert c["scoring.scores_batch.cases"] == 9 * 2000
    assert c["cli.output_bytes"] == sum(
        p.stat().st_size for p in (tmp_path / "out").iterdir())
    assert "harness.run_experiment.peak_bytes" not in c


def test_heap_run_counts_the_experiment_peak(tmp_path):
    trace = traced_run(tmp_path, "--heap", "--", "rank", "--cases", "2000",
                       "--format", "json")
    assert check_spans(trace["spans"]) == []
    assert trace["counters"]["harness.run_experiment.peak_bytes"] > 0


def test_failed_oracle_run_keeps_its_spans_and_errors(tmp_path):
    # 1000 paths leave too few inside an evidence bin: the CLI exits 1.
    trace = traced_run(tmp_path, "--", "oracle-check", "--paths", "1000",
                       "--format", "json", status=1)
    assert check_spans(trace["spans"]) == []
    metrics = run.layer_metrics(trace, ["oracle.insufficient_paths"])
    assert metrics["oracle.insufficient_paths"] == 1


def test_yardstick_prints_the_time_of_its_computation():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "yardstick.py")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert 0 < float(done.stdout) < 60
