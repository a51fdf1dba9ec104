import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ["lrsim", "lrsim.costmodel", "lrsim.forked", "lrsim.genmodel",
           "lrsim.harness", "lrsim.kernels", "lrsim.lrsystems", "lrsim.oracle",
           "lrsim.scoring"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


# the only private names one module may take from a sibling: harness states
# csprior's source-conditioned prior with the engines' normal log density
# ratio, and the oracle places its evidence grid with the engines' law of a
# source mean given one observed mean
SIBLING_PRIVATE_IMPORTS = {("harness", "lrsystems", "_log_ratio"),
                           ("oracle", "lrsystems", "_source_law")}


def test_no_module_imports_a_private_name_from_a_sibling():
    src = Path(__file__).resolve().parents[1] / "src" / "lrsim"
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level == 1 or (node.module or "").startswith("lrsim")):
                module = (node.module or "").removeprefix("lrsim.")
                found |= {(path.stem, module, alias.name)
                          for alias in node.names if alias.name.startswith("_")}
    assert found == SIBLING_PRIVATE_IMPORTS


def _calls(path: Path) -> set[tuple[str, str, str | None]]:
    """(callee, module, enclosing top-level or nested def) of every call by
    name or attribute in one module; None outside any def."""
    found = set()

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                found.add((name, path.stem, fn))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def _callers(callee: str) -> set[tuple[str, str | None]]:
    """(module, enclosing def) of every call of callee in the package."""
    src = Path(__file__).resolve().parents[1] / "src" / "lrsim"
    calls = set().union(*map(_calls, sorted(src.glob("*.py"))))
    return {(module, fn) for name, module, fn in calls if name == callee}


def test_every_experiment_takes_one_route_to_its_scores():
    # an experiment's cases come only from fold_chunks (cases.csv's from
    # case_chunks), a log10 LR becomes a posterior only in harness._stated,
    # and a posterior is scored only in harness._scores, which refuses a
    # -inf score; scoring's own uses of its rule stay inside
    assert _callers("fold_chunks") == {
        ("harness", "run_experiment"), ("harness", "ill_conditioning_experiment"),
        ("harness", "cs_update_ss_prior_experiment"),
        ("harness", "total_expectation_check"), ("harness", "tail_bound_check")}
    assert _callers("case_chunks") == {("cli", "_case_table")}
    assert {module for module, _ in _callers("_cases")} == {"genmodel"}
    assert {c for c in _callers("scores_batch") if c[0] != "scoring"} == {
        ("harness", "_scores")}
    assert _callers("clamp_log10_lr") == {("harness", "_stated")}
    assert _callers("posterior_from_log10_lr") == {("harness", "_stated")}
    assert _callers("generate_cases") == set()


def test_costmodel_is_the_demand_calculator_alone():
    # it simulates nothing: no array code and no experiment pipeline
    path = Path(__file__).resolve().parents[1] / "src" / "lrsim" / "costmodel.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {getattr(node, "module", None) or ""} | {a.name for a in node.names}
    assert not [n for n in names if n.split(".")[0] == "numpy"
                or n.split(".")[-1] == "harness"], names


def test_one_fork_path():
    # every fork of the package is ordered_map's, and only the chunk fold,
    # the CSV writer and the oracle grid map through it
    assert _callers("fork") == {("forked", "ordered_map")}
    assert _callers("ordered_map") == {("genmodel", "fold_chunks"),
                                       ("cli", "_write_csv"),
                                       ("cli", "_oracle_check")}


def test_one_oracle_estimator():
    # a term's estimate comes only from estimate_views, which only
    # compare_views calls, and a bank's paths are drawn only when it is built
    assert _callers("_term_estimates") == {("oracle", "estimate_views")}
    assert _callers("estimate_views") == {("oracle", "compare_views")}
    assert _callers("compare_views") == {("cli", "compare_group")}
    assert _callers("_draw") == {("oracle", "__init__")}


def test_one_world_loader():
    # a config file is a world, read and checked by load_world alone, which
    # only the command runner calls; the packaged world is built the same way
    assert _callers("load_world") == {("cli", "_run")}
    assert _callers("world_from_json_dict") == {("genmodel", "load_world"),
                                                ("cli", "default_world")}
    assert _callers("read_json") == {("genmodel", "load_world")}


def test_every_case_experiment_takes_one_call_shape():
    # a run's settings are its arguments, named alike in all five
    import lrsim
    from lrsim.harness import EvalReport

    for experiment in (lrsim.run_experiment, lrsim.ill_conditioning_experiment,
                       lrsim.cs_update_ss_prior_experiment,
                       lrsim.total_expectation_check, lrsim.tail_bound_check):
        names = list(inspect.signature(experiment).parameters)
        assert names[:3] == ["world", "n_cases", "master_seed"], experiment.__name__
    assert not hasattr(lrsim, "ExperimentConfig")
    assert "ExperimentConfig" not in lrsim.__all__
    assert [f.name for f in dataclasses.fields(EvalReport)] == [
        "per_system", "paired_diffs", "calibration", "ranking_verdicts",
        "clamp_counts"]
    assert list(inspect.signature(lrsim.PathBank).parameters) == [
        "world", "seed", "n_paths"]


def test_benchmark_probe_runs():
    # perfbench/probe.py imports lrsim.kernels for ACTIVE_BACKEND: the
    # module must stay until the probe stops reading it
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "perfbench/probe.py", "rank", "--cases", "1000"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "backend" in json.loads(proc.stdout.splitlines()[-1])
