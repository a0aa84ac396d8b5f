import json
import threading
import warnings

import numpy as np
import pytest

from photonsub import cli
from photonsub import fock_core as fc
from photonsub.harness import ExperimentConfig, save_config


@pytest.fixture()
def small_cfg(tmp_path):
    cfg = ExperimentConfig(pages=4096, shutter_bins=200_000,
                           class_targets={(1, 1): 300, (0, 0): 300},
                           herald_rate_hz=8e5, shot_noise_samples=3000,
                           zero_detection_rate=2 ** 12, max_iterations=80,
                           seed=9)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    return str(path)


def test_witness_command(tmp_path, capsys):
    st = fc.lossy_subtracted_state(
        fc.SubtractionModel(0.3, 0.14, 0.14, 0.55, 0.50, 1, 1), 6)
    p = tmp_path / "s.tms"
    st.save(p)
    assert cli.main(["witness", "--state", str(p)]) == 0
    out = capsys.readouterr().out
    assert "rank0plus" in out


def test_contours_command(tmp_path, capsys):
    out_file = tmp_path / "contours.txt"
    assert cli.main(["contours", "--out", str(out_file), "--step", "0.2"]) == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) > 10


def test_protocol_test_command(capsys):
    assert cli.main(["protocol-test", "--pages", "1024"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 6
    assert "[FAIL]" not in out


def test_protocol_test_over_sockets_stops_its_servers(capsys):
    # each check's TCP front end is stopped and its threads joined
    before = set(threading.enumerate())
    assert cli.main(["protocol-test", "--socket", "--pages", "1024"]) == 0
    assert set(threading.enumerate()) <= before
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 6


def test_calibrate_command(small_cfg, capsys):
    assert cli.main(["calibrate", "--config", small_cfg,
                     "--pulses", "1200"]) == 0
    out = capsys.readouterr().out
    assert "mode A: delay" in out and "query delays:" in out


@pytest.mark.slow
def test_acquire_then_reconstruct(small_cfg, tmp_path, capsys):
    out_dir = tmp_path / "data"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assert cli.main(["acquire", "--config", small_cfg,
                         "--out", str(out_dir)]) == 0
        with open(out_dir / "run_meta.txt") as fh:
            meta = json.load(fh)
        assert meta["class_counts"]["1,1"] >= 300
        assert cli.main(["reconstruct", "--config", small_cfg,
                         "--datasets", str(out_dir), "--cls", "1,1",
                         "--out", str(tmp_path / "rec.tms")]) == 0
    out = capsys.readouterr().out
    assert "F(vs expected)" in out
    assert (tmp_path / "rec.tms").exists()
    back = fc.TwoModeState.load(tmp_path / "rec.tms")
    back.validate()
