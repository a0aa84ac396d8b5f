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
    # scipy is left to the tests: a fresh interpreter that imports every
    # module under src/photonsub loads none of it
    code = ("import pkgutil, sys, photonsub; "
            "mods = [m.name for m in pkgutil.walk_packages("
            "photonsub.__path__, 'photonsub.')]; "
            "[__import__(m) for m in mods]; "
            "print(len(mods), sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    count, loaded = out.stdout.strip().split(" ", 1)
    assert int(count) == len(list(SRC.glob("photonsub/**/*.py"))) - 1
    assert loaded == "[]"
