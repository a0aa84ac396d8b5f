"""Golden SHA-256 listings of the seed-300..309 run bundles.

The acceptance fixture runs `run_experiment(ExperimentConfig(seed=S,
herald_rate_hz=4e5))` for S = 300..309; `test_golden_bundle_listing`
compares every one of these bundles with `golden_bundles.json`.  The file
also records the host fingerprint it was made on, because the sampler and
the tomography go through BLAS and another BLAS build, core or thread
count may legitimately move the last bit.

Regenerate (a few minutes), after a change that moves outputs on purpose:

    PYTHONPATH=src python tests/golden_bundles.py

List the files that moved per seed, writing nothing; the exit status is
1 when any seed has a moved file:

    PYTHONPATH=src python tests/golden_bundles.py --diff
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from photonsub.parallel import openblas

GOLDEN = Path(__file__).with_name("golden_bundles.json")
SEEDS = tuple(range(300, 310))


def listing(run_dir) -> list:
    """Sorted "path sha256" lines of every file under run_dir."""
    root = Path(run_dir)
    return sorted(
        f"{p.relative_to(root).as_posix()} "
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}"
        for p in root.rglob("*") if p.is_file())


def _openblas(symbol, restype=ctypes.c_int):
    """Value of a no-argument OpenBLAS query, or None without the library."""
    fn = openblas(symbol, restype)
    return None if fn is None else fn()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def fingerprint() -> dict:
    """What the bundle bytes may legitimately depend on beyond the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = _openblas("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": core.decode() if core else None,
        "blas_threads": _openblas("scipy_openblas_get_num_threads64_"),
        "cpu": _cpu_model(),
    }


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def moved_files(expected: list, actual: list) -> list:
    """Paths whose hash changed, plus files missing on either side."""
    exp = dict(line.rsplit(" ", 1) for line in expected)
    act = dict(line.rsplit(" ", 1) for line in actual)
    return sorted(p for p in exp.keys() | act.keys()
                  if exp.get(p) != act.get(p))


def bundles() -> dict:
    """{seed: listing} of freshly run bundles for every seed in SEEDS."""
    from photonsub import harness as hx

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            run_dir = Path(tmp) / str(seed)
            hx.run_experiment(
                hx.ExperimentConfig(seed=seed, herald_rate_hz=4e5), run_dir)
            out[str(seed)] = listing(run_dir)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--diff", action="store_true",
                        help="print the moved paths per seed against the "
                             "stored listing instead of rewriting it; exit 1 "
                             "if any moved")
    args = parser.parse_args(argv)
    fresh = bundles()
    if args.diff:
        stored = load()["bundles"]
        moved = {seed: moved_files(stored.get(seed, []), lines)
                 for seed, lines in fresh.items()}
        for seed, files in moved.items():
            print(f"seed {seed}: {' '.join(files) if files else 'unchanged'}")
        return int(any(moved.values()))
    GOLDEN.write_text(json.dumps(
        {"fingerprint": fingerprint(), "bundles": fresh}, indent=1) + "\n")
    print(f"wrote {GOLDEN}: "
          + ", ".join(f"seed {s} {len(v)} files" for s, v in fresh.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
