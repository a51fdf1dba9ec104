import importlib

import pytest

MODULES = ["lrsim", "lrsim.costmodel", "lrsim.genmodel", "lrsim.harness",
           "lrsim.kernels", "lrsim.lrsystems", "lrsim.oracle", "lrsim.scoring"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
