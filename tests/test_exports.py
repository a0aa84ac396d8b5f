import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", [
    "photonsub", "photonsub.hds", "photonsub.pso", "photonsub.harness",
    "photonsub.homodyne_model", "photonsub.fock_core",
    "photonsub.ng_metrics", "photonsub.tomography"])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_run_path_imports_no_scipy():
    # scipy is left to the two landscape helpers of ng_metrics and to tests;
    # a fresh interpreter that imports every package entry point loads none
    code = ("import sys, photonsub, photonsub.harness, photonsub.hds, "
            "photonsub.pso, photonsub.conformance, photonsub.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert out.stdout.strip() == "[]"
