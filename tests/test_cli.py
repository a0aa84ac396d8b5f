import json
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonsub import cli
from photonsub import fock_core as fc
from photonsub.harness import ExperimentConfig, save_config
from photonsub.pso import RECORD_DTYPE, read_records, write_records


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


def _bad_state_dump(case) -> bytes:
    raw = fc.TwoModeState.vacuum(2).dump()
    if case == "truncated":
        return raw[:-8]
    if case == "huge cutoff":
        return raw[:5] + struct.pack("<I", 60000) + raw[9:]
    if case == "oversized":
        return raw + bytes(4 << 20)
    mat = np.zeros((9, 9), dtype=complex)
    if case == "trace 3":
        mat[4, 4] = 3.0                         # 3 |1,1><1,1|
    elif case == "non-Hermitian":
        mat[0, 0], mat[0, 1] = 1.0, 0.5
    elif case == "negative eigenvalue":
        mat[0, 0], mat[4, 4] = 1.5, -0.5
    else:
        mat[:] = np.nan
    return fc.TwoModeState(2, mat).dump()


@pytest.mark.parametrize("case", ["truncated", "huge cutoff", "all NaN",
                                  "oversized", "trace 3", "non-Hermitian",
                                  "negative eigenvalue"])
def test_bad_state_file_is_one_error_line(tmp_path, capsys, case):
    p = tmp_path / "s.tms"
    p.write_bytes(_bad_state_dump(case))
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["witness", "--state", str(p)])
    assert exit_info.value.code != 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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


@pytest.mark.parametrize("text", ['{"drive_a_hz": 1000.0}',
                                  '{"pages": "4096"}', '{"pages": 4096'])
def test_bad_config_is_one_error_line(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["calibrate", "--config", str(path)])
    assert exit_info.value.code != 0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_calibrate_command(small_cfg, capsys):
    assert cli.main(["calibrate", "--config", small_cfg,
                     "--pulses", "1200"]) == 0
    out = capsys.readouterr().out
    assert "mode A: delay" in out and "query delays:" in out


@pytest.mark.slow
def test_acquire_then_reconstruct(small_cfg, tmp_path, capsys):
    out_dir = tmp_path / "data"
    assert cli.main(["acquire", "--config", small_cfg,
                     "--out", str(out_dir)]) == 0
    with open(out_dir / "run_meta.txt") as fh:
        meta = json.load(fh)
    assert meta["class_counts"]["1,1"] >= 300
    # 300 records at n_c = 6 and an 80-iteration cap
    with pytest.warns(UserWarning, match="stopping bound"), \
            pytest.warns(UserWarning, match="below D"):
        assert cli.main(["reconstruct", "--config", small_cfg,
                         "--datasets", str(out_dir), "--cls", "1,1",
                         "--out", str(tmp_path / "rec.tms")]) == 0
    out = capsys.readouterr().out
    assert "F(vs expected)" in out
    assert (tmp_path / "rec.tms").exists()
    back = fc.TwoModeState.load(tmp_path / "rec.tms")
    back.validate()


GOOD_META = '{"shot_noise_scale": [1000.0, 1000.0]}'


def _dataset(tmp_path, meta=GOOD_META, records=50):
    """A run directory with `records` class-(1, 1) records."""
    run = tmp_path / "data"
    run.mkdir()
    rec = np.zeros(records, dtype=RECORD_DTYPE)
    rec["adc"] = np.random.default_rng(0).integers(-2000, 2000, (records, 4))
    write_records(run / "sig_1_1.part000.bin", rec)
    (run / "run_meta.txt").write_text(meta)
    return run


def _reconstruct_error(small_cfg, run, capsys, *extra) -> str:
    """reconstruct's stderr, which must be one error line with exit 2."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["reconstruct", "--config", small_cfg, "--datasets",
                  str(run), *extra])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def test_reconstruct_refuses_a_partial_record(small_cfg, tmp_path, capsys):
    run = _dataset(tmp_path)
    with open(run / "sig_1_1.part000.bin", "ab") as fh:
        fh.write(bytes(13))
    err = _reconstruct_error(small_cfg, run, capsys)
    assert "sig_1_1.part000.bin" in err and str(50 * 24 + 13) in err


@pytest.mark.parametrize("meta", [
    '{"shot_noise_scale": [1000.0, 1000.0]', "{}", "[1000.0, 1000.0]",
    '{"shot_noise_scale": [1000.0]}', '{"shot_noise_scale": [1000.0, -1.0]}',
    '{"shot_noise_scale": [1000.0, NaN]}',
    '{"shot_noise_scale": [1000.0, Infinity]}',
    '{"shot_noise_scale": [1000.0, "1000"]}',
    '{"shot_noise_scale": [true, 1000.0]}', "[" * 3000])
def test_reconstruct_refuses_bad_run_meta(small_cfg, tmp_path, capsys, meta):
    err = _reconstruct_error(small_cfg, _dataset(tmp_path, meta), capsys)
    assert "run_meta.txt" in err


def _state_bytes(n_c, weight, body) -> bytes:
    return b"TMST\x01" + struct.pack("<Id", n_c, weight) + body


def _flip(raw, at, value) -> bytes:
    at %= len(raw)
    return raw[:at] + bytes([value]) + raw[at + 1:]


_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers()
    | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.sampled_from(["shot_noise_scale", "delays"]) | st.text(max_size=4),
        kids, max_size=3), max_leaves=8)
_VALID_DUMPS = [fc.TwoModeState.vacuum(1).dump(), fc.TwoModeState(
    1, np.diag([0.5, 0.25, 0.125, 0.125]).astype(complex)).dump()]
_BUNDLE_BYTES = st.one_of(
    st.binary(max_size=4096),
    st.builds(_state_bytes, st.integers(0, 3) | st.integers(0, 2 ** 32 - 1),
              st.floats(), st.binary(max_size=2048)),
    st.integers(0, 2).flatmap(lambda n_c: st.builds(
        _state_bytes, st.just(n_c), st.floats(),
        st.binary(min_size=16 * (n_c + 1) ** 4,
                  max_size=16 * (n_c + 1) ** 4))),
    st.builds(_flip, st.sampled_from(_VALID_DUMPS), st.integers(0, 1 << 12),
              st.integers(0, 255)),
    st.sampled_from(_VALID_DUMPS),
    st.builds(lambda v: json.dumps({"shot_noise_scale": v}).encode(), _JSON),
    _JSON.map(lambda v: json.dumps(v).encode()),
    st.integers(1, 4000).map(lambda n: b"[" * n))


def _read_or_none(read, arg):
    try:
        return read(arg)
    except ValueError:
        return None


@given(raw=_BUNDLE_BYTES)
@settings(max_examples=300, deadline=None)
def test_bundle_reader_fuzz_valid_or_value_error(tmp_path_factory, raw):
    # the three readers of a run bundle's files turn any bytes into a
    # valid object or a ValueError, which the CLI prints as one error line
    path = tmp_path_factory.mktemp("fuzz") / "file"
    path.write_bytes(raw)
    state = _read_or_none(fc.TwoModeState.from_dump, raw)
    if state is not None:
        state.validate()
        assert state.n_c <= fc.MAX_CUTOFF and state.dump() == raw
    records = _read_or_none(read_records, path)
    if records is not None:
        assert records.dtype == RECORD_DTYPE and records.tobytes() == raw
    scale = _read_or_none(cli._shot_noise_scale, path)
    if scale is not None:
        assert len(scale) == 2 and all(0 < s < np.inf for s in scale)


@pytest.mark.parametrize("cls", ["1", "1,x", "1,1,1", "1.5,1"])
def test_reconstruct_refuses_a_bad_class(small_cfg, tmp_path, capsys, cls):
    _reconstruct_error(small_cfg, _dataset(tmp_path), capsys, "--cls", cls)


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_reconstruct_refuses_a_limit_below_one(small_cfg, tmp_path, capsys,
                                               limit):
    err = _reconstruct_error(small_cfg, _dataset(tmp_path), capsys,
                             "--limit", limit)
    assert "--limit" in err


def test_reconstruct_reads_limit_records(small_cfg, tmp_path, capsys):
    with pytest.warns(UserWarning, match="stopping bound"), \
            pytest.warns(UserWarning, match="below D"):
        assert cli.main(["reconstruct", "--config", small_cfg, "--datasets",
                         str(_dataset(tmp_path)), "--limit", "20"]) == 0
    assert "class (1, 1): 20 records" in capsys.readouterr().out
