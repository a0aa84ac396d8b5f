import importlib

import pytest


@pytest.mark.parametrize("module", [
    "photonsub", "photonsub.hds", "photonsub.pso", "photonsub.harness",
    "photonsub.homodyne_model", "photonsub.fock_core",
    "photonsub.ng_metrics", "photonsub.tomography"])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
