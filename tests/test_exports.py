import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ["lrsim", "lrsim.costmodel", "lrsim.genmodel", "lrsim.harness",
           "lrsim.kernels", "lrsim.lrsystems", "lrsim.oracle", "lrsim.scoring"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


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
