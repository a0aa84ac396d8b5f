import ctypes
import dataclasses
import json
from math import pi
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from photonsub import fock_core as fc
from photonsub import ng_metrics as ng
from photonsub import harness as hx
from photonsub import parallel
from photonsub.harness import experiment
from photonsub.harness.calibration import MAX_LAG
from photonsub.harness.generator import (
    _STREAM_VACUUM_A, _STREAM_VACUUM_B, _STREAM_Z1, _STREAM_Z2, CHUNK,
    DRIVE_A, DRIVE_B, PIPELINE_COARSE_OFFSET, THERMAL_PULSE_PERIOD, WINDOW,
    StreamGenerator, _rng, tiled)
from photonsub.hds import ADC_MAX, ADC_MIN, DEFAULT_PAGES, HomodyneServer
from photonsub.pso import class_key, coincidence_pipeline, read_class
import golden_bundles
from oracles import quadrature_operator
from test_parallel import blas_threads, leftovers


# herald rate kept moderate: the accidental-coincidence rate grows
# quadratically with the simulated rate and would contaminate the tiny
# [1,1] dataset at the more aggressive settings used for plan-only tests
SMALL = hx.ExperimentConfig(pages=4096, shutter_bins=200_000,
                            class_targets={(1, 1): 1500, (0, 0): 1500},
                            herald_rate_hz=2e5, shot_noise_samples=4000,
                            zero_detection_rate=2 ** 13,
                            max_iterations=150, seed=5)
CONFIG_KEYS = [f.name for f in dataclasses.fields(hx.ExperimentConfig)]


def background_pair(gen, tau_lo, tau_hi):
    """The generator's correlated no-subtraction pair over mode times
    [tau_lo, tau_hi): server A sees it at tau + true_delay_a, B at
    tau + true_delay_b."""
    z1, z2 = (gen._z_stream(s, tau_lo, np.empty(tau_hi - tau_lo))
              for s in (_STREAM_Z1, _STREAM_Z2))
    x_b = np.empty(z1.size)
    for a in range(0, z1.size, WINDOW):     # _mix reads a window at a time
        gen._mix(tau_lo + a, *(x[a:a + WINDOW] for x in (z1, z2, x_b)))
    return z1, x_b


def whole_chunk_normals(seed, stream, tau_lo, tau_hi):
    """Normals of mode times [tau_lo, tau_hi) from whole-chunk draws."""
    c0 = tau_lo // CHUNK
    z = np.concatenate([
        _rng(seed, stream, c + (1 << 32)).standard_normal(CHUNK)
        for c in range(c0, (tau_hi - 1) // CHUNK + 1)])
    return z[tau_lo - c0 * CHUNK:tau_hi - c0 * CHUNK].copy()


def reference_epoch_words(gen, lo, hi, plan, epoch):
    """Both servers' words over [lo, hi), built from whole-chunk normals,
    modulo-gathered tables, the shutter vacuum and the herald overrides."""
    cfg = gen.config
    t = np.arange(lo, hi)
    tau = np.arange(np.lcm(DRIVE_A.period_samples, DRIVE_B.period_samples))
    th1 = DRIVE_A.evaluate(tau + cfg.true_delay_a)[0]
    th2 = DRIVE_B.evaluate(tau + cfg.true_delay_b)[0]
    rho = -gen._cov_amp * np.cos(th1 + th2) / (gen._sig_a * gen._sig_b)
    rho_perp = np.sqrt(1.0 - rho ** 2)
    d_lo, d_hi = sorted((cfg.true_delay_a, cfg.true_delay_b))
    z1, z2 = (whole_chunk_normals(cfg.seed, s, lo - d_hi, hi - d_lo)
              for s in (_STREAM_Z1, _STREAM_Z2))
    ta = t - cfg.true_delay_a - (lo - d_hi)     # index into z1, z2
    tb = t - cfg.true_delay_b - (lo - d_hi)
    pb = (t - cfg.true_delay_b) % tau.size
    xs = [z1[ta] * gen._sig_a,
          (rho[pb] * z1[tb] + rho_perp[pb] * z2[tb]) * gen._sig_b]
    hx = gen.heralded_draws(plan, stream_key=epoch)
    lit = ~plan.dark
    out = []
    for x, key, delay, vals, drive in zip(
            xs, (_STREAM_VACUUM_A, _STREAM_VACUUM_B),
            (cfg.true_delay_a, cfg.true_delay_b), hx, (DRIVE_A, DRIVE_B)):
        for s in range(lo, min(hi, cfg.shutter_bins), CHUNK):
            n = min(s + CHUNK, hi, cfg.shutter_bins) - s
            x[s - lo:s - lo + n] = np.sqrt(0.5) * _rng(
                cfg.seed, key, s).standard_normal(n)
        x[plan.coarse[lit] + delay - lo] = vals[lit]
        codes = np.clip(np.rint(cfg.adc_scale * x), ADC_MIN, ADC_MAX)
        drive_codes = drive.period_table[1][t % drive.period_samples]
        out.append(((codes.astype(np.int64) & 0xFFFF) << 16
                    | (drive_codes & 0xFFFF)).astype(np.uint32))
    return out


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        hx.save_config(SMALL, path)
        back = hx.load_config(path)
        assert back == SMALL

    def test_validation(self):
        with pytest.raises(ValueError):
            hx.ExperimentConfig(true_delay_a=100).validate()
        with pytest.raises(ValueError):
            hx.ExperimentConfig(server_offset_a=5).validate()
        with pytest.raises(ValueError):
            hx.ExperimentConfig(class_targets={(1, 1): 0}).validate()
        # the orchestrator's own settings are checked at load, before any
        # calibration runs
        with pytest.raises(ValueError):
            hx.ExperimentConfig(seed_window=(0, 2000, 1000)).validate()
        with pytest.raises(ValueError):
            hx.ExperimentConfig(hold_bins=-1).validate()
        with pytest.raises(ValueError):
            hx.ExperimentConfig(zero_detection_rate=2 ** 17 + 1).validate()

    def test_delay_bound_is_the_calibration_window(self):
        # calibration scans +/-MAX_LAG around the effective delay (true
        # delay + server offset - pipeline offset), so 61 + 2 is the top
        # edge and 62 + 2 would fail calibration instead of loading
        assert MAX_LAG == 61 + 2 - PIPELINE_COARSE_OFFSET
        hx.ExperimentConfig(true_delay_a=61, server_offset_a=2).validate()
        with pytest.raises(ValueError, match="true_delay_a"):
            hx.ExperimentConfig(true_delay_a=62, server_offset_a=2).validate()
        hx.ExperimentConfig(true_delay_b=-65, server_offset_b=0).validate()
        with pytest.raises(ValueError, match="true_delay_b"):
            hx.ExperimentConfig(true_delay_b=-66, server_offset_b=0).validate()

    @pytest.mark.parametrize("entry, key", [
        ({"drive_a_hz": 1000.0}, "drive_a_hz"),
        ({"pages": "4096"}, "pages"),
        ({"pages": 4096.0}, "pages"),
        ({"r": True}, "r"),
        ({"epsilon": float("nan")}, "epsilon"),
        ({"seed_window": [0, 0]}, "seed_window"),
        ({"class_targets": {"1": 10}}, "class_targets"),
        ({"class_targets": [10, 10]}, "class_targets"),
        ({"class_targets": {"5,5": 10}}, "class_targets"),
        ({"pages": DEFAULT_PAGES + 2}, "pages"),
        ({"n_c": 10 ** 6}, "n_c"),
        ({"herald_rate_hz": 1e12}, "herald_rate_hz"),
        ({"shot_noise_samples": 3_000_000}, "shot_noise_samples"),
        ({"shutter_bins": 10 ** 9}, "shutter_bins"),
        ({"r": 40.0, "R1": 0.0, "R2": 0.0}, "squeezing"),
    ])
    def test_load_refuses_naming_the_key(self, tmp_path, entry, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(entry))
        with pytest.raises(ValueError, match=key):
            hx.load_config(path)

    def test_load_refuses_oversized_and_deeply_nested_files(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": 1' + " " * (1 << 17) + "}")
        with pytest.raises(ValueError, match="at most"):
            hx.load_config(path)
        path.write_text("[" * 60_000 + "]" * 60_000)
        with pytest.raises(ValueError):
            hx.load_config(path)

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(
        st.sampled_from(CONFIG_KEYS + ["drive_a_hz", "records_per_file", ""]),
        st.integers(-2 ** 70, 2 ** 70) | st.integers(-3, 70_000)
        | st.floats() | st.booleans() | st.none() | st.text(max_size=4)
        | st.lists(st.integers(-5, 2000), max_size=4)
        | st.dictionaries(st.sampled_from(["1,1", "0,0", "2,1", "3,3", "x",
                                           "1,1,1"]),
                          st.integers(-2, 10 ** 6) | st.floats(0, 10)),
        max_size=6), st.booleans())
    def test_load_config_validates_or_raises_value_error(
            self, tmp_path_factory, entries, over_defaults):
        # random objects over the field names plus unknown keys, alone or
        # over a complete default file: a config that loads is valid, and
        # every other file raises ValueError
        path = tmp_path_factory.mktemp("cfg") / "cfg.json"
        hx.save_config(hx.ExperimentConfig(), path)
        base = json.loads(path.read_text()) if over_defaults else {}
        path.write_text(json.dumps({**base, **entries}))
        try:
            cfg = hx.load_config(path)
        except ValueError:
            return
        assert cfg.validate() is cfg

    def test_readme_config_example_is_the_schema(self, tmp_path):
        # the README's "Configuration file" example lists every field at
        # its default value, and loads
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Configuration file", 1)[1]
        block = section.split("```json", 1)[1].split("```", 1)[0]
        assert sorted(json.loads(block)) == sorted(CONFIG_KEYS)
        path = tmp_path / "cfg.json"
        path.write_text(block)
        assert hx.load_config(path) == hx.ExperimentConfig()


class TestGeneratorStatistics:
    def test_herald_class_frequencies_match_probabilities(self):
        # class frequencies over ~1e5 heralds track p_{n,m} up to binomial
        # fluctuations
        cfg = SMALL.with_overrides(herald_rate_hz=1e6)
        gen = StreamGenerator(cfg)
        plan = gen.plan_heralds(10_000, 10_000 + 110_000_00)
        n = plan.coarse.size
        assert n > 80_000
        classes, weights = gen._class_table
        for idx, cls in enumerate(classes):
            got = np.count_nonzero((plan.cls_n == cls[0])
                                   & (plan.cls_m == cls[1])) / n
            sigma = np.sqrt(weights[idx] * (1 - weights[idx]) / n)
            assert abs(got - weights[idx]) < 5 * sigma + 1e-6

    def test_detector_dead_time_enforced(self):
        cfg = SMALL.with_overrides(herald_rate_hz=5e6)
        gen = StreamGenerator(cfg)
        plan = gen.plan_heralds(0, 2_000_000)
        # close heralds survive (the hold filter's job), but no single
        # detector fires again inside its dead time
        assert np.diff(plan.coarse).min() <= 4
        coarse = plan.detector_subbins // 3
        key = plan.detector_sides * 3 + plan.detector_tree_idx
        for k in np.unique(key):
            tags = np.sort(coarse[key == k])
            if tags.size > 1:
                assert np.diff(tags).min() >= 4

    def test_distinct_detectors_per_herald(self):
        gen = StreamGenerator(SMALL)
        plan = gen.plan_heralds(500_000, 1_500_000)
        rep_keys = plan.detector_subbins * 8 + plan.detector_sides * 4 + \
            plan.detector_tree_idx
        assert np.unique(rep_keys).size == rep_keys.size

    def test_background_pair_covariance(self):
        # generator Gaussian background against operator moments of the
        # analytic no-subtraction state
        gen = StreamGenerator(SMALL)
        cfg = SMALL
        n = 400_000
        xa, xb = background_pair(gen, 10_000_000, 10_000_000 + n)
        t = np.arange(10_000_000, 10_000_000 + n)
        th1 = DRIVE_A.evaluate(t + cfg.true_delay_a)[0]
        th2 = DRIVE_B.evaluate(t + cfg.true_delay_b)[0]
        state = fc.lossy_subtracted_state(cfg.model(0, 0), 8)
        d = 9
        x_op = quadrature_operator(0.0, 8)
        var1 = np.real(np.trace(state.matrix @ np.kron(x_op @ x_op, np.eye(d))))
        assert xa.var() == pytest.approx(var1, rel=0.02)
        # covariance at a fixed joint phase bucket
        sel = np.abs(((th1 + th2) % (2 * pi)) - 0.3) < 0.05
        lam = cfg.model(0, 0).effective_squeezing
        expect = -np.sqrt(cfg.eta1 * cfg.eta2) * lam / (1 - lam ** 2) \
            * np.cos(0.3)
        got = np.mean(xa[sel] * xb[sel])
        assert got == pytest.approx(expect, abs=0.02)

    def test_background_chunk_independence(self):
        # the same tau range regenerates identically regardless of the
        # requested window
        gen = StreamGenerator(SMALL)
        a1, b1 = background_pair(gen, 4_194_200, 4_194_400)
        a2, b2 = background_pair(gen, 4_194_300, 4_194_350)
        np.testing.assert_array_equal(a1[100:150], a2)
        np.testing.assert_array_equal(b1[100:150], b2)

    @pytest.mark.parametrize("lo, hi", [(-250, 40), (0, 100), (95, 105),
                                        (37, 338), (-1_000_003, -999_000)])
    def test_periodic_slices_equal_the_modulo_gather(self, lo, hi):
        table = np.random.default_rng(2).random(100)
        np.testing.assert_array_equal(tiled(table, 1003)(lo, hi - lo),
                                      table[np.arange(lo, hi) % 100])

    def test_normals_drawn_in_pieces_equal_whole_chunk_draws(self):
        # windows that overlap, step back, skip ahead and cross chunk edges
        # read the same normals as one draw of each whole chunk
        gen = StreamGenerator(SMALL)
        whole = np.concatenate([
            _rng(SMALL.seed, 13, c + (1 << 32)).standard_normal(CHUNK)
            for c in (-1, 0, 1)])
        for lo, hi in ((-60, 1000), (900, 300_000), (299_950, 300_010),
                       (10, 20), (2_000_000, 2_000_100),
                       (CHUNK - 70, CHUNK + 5000), (CHUNK - 100, CHUNK - 10),
                       (-CHUNK + 5, 7), (-3, -3), (11, 11)):
            np.testing.assert_array_equal(gen._z_stream(13, lo,
                                                        np.empty(hi - lo)),
                                          whole[CHUNK + lo:CHUNK + hi])

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_window_pipeline_equals_whole_epoch_reference(self, n_workers,
                                                          monkeypatch):
        # a half of 2,048,000 words is not a multiple of WINDOW, and the
        # CHUNK edge at 2^22 falls inside a window of epoch 2; with two
        # workers each normal stream fills its two buffers on its own
        # thread, so a buffer handed out again too early shows up here
        monkeypatch.setattr(parallel, "workers", lambda: n_workers)
        cfg = SMALL.with_overrides(pages=4000)
        gen = StreamGenerator(cfg)
        servers = [HomodyneServer(pages=cfg.pages) for _ in range(2)]
        half = servers[0].buffer.half
        assert half % WINDOW and 2 * half < CHUNK < 3 * half
        for epoch in range(3):
            lo, hi = epoch * half, (epoch + 1) * half
            plan = gen.plan_heralds(max(lo, cfg.shutter_bins + 100) + 100,
                                    hi - 100)
            assert plan.coarse.size > 1000
            gen.fill_epoch(*servers, epoch, half, plan)
            expect = reference_epoch_words(gen, lo, hi, plan, epoch)
            for server, words in zip(servers, expect):
                got = server.buffer.read(np.arange(lo, hi) % (2 * half))
                np.testing.assert_array_equal(got, words)

    def test_heralded_sample_statistics_match_state(self):
        # chi-square of heralded x1 draws against the (1,1) state marginal
        cfg = SMALL
        gen = StreamGenerator(cfg)
        st = fc.lossy_subtracted_state(cfg.model(1, 1), cfg.n_c)
        n = 30_000
        coarse = np.arange(1_000_000, 1_000_000 + n * 40, 40)
        plan = hx.HeraldPlan(coarse=coarse,
                             cls_n=np.ones(n, dtype=np.int64),
                             cls_m=np.ones(n, dtype=np.int64),
                             dark=np.zeros(n, dtype=bool))
        x1, x2 = gen.heralded_draws(plan)
        th1 = DRIVE_A.evaluate(coarse + cfg.true_delay_a)[0]
        # variance against the operator moment, averaged over drive phases
        d = cfg.n_c + 1
        vars_op = []
        for th in np.linspace(0, 2 * pi, 24, endpoint=False):
            x_op = quadrature_operator(th, cfg.n_c)
            vars_op.append(np.real(np.trace(
                st.matrix @ np.kron(x_op @ x_op, np.eye(d)))))
        # the marginal variance is phase independent for this state
        assert np.ptp(vars_op) < 1e-10
        se = vars_op[0] * np.sqrt(2.0 / n)
        assert x1.var() == pytest.approx(vars_op[0], abs=6 * se)

    def test_determinism_bit_identical(self):
        gen1 = StreamGenerator(SMALL)
        gen2 = StreamGenerator(SMALL)
        p1 = gen1.plan_heralds(300_000, 500_000)
        p2 = gen2.plan_heralds(300_000, 500_000)
        np.testing.assert_array_equal(p1.coarse, p2.coarse)
        np.testing.assert_array_equal(p1.cls_n, p2.cls_n)
        a1, b1 = background_pair(gen1, 0, 50_000)
        a2, b2 = background_pair(gen2, 0, 50_000)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)
        d1 = gen1.heralded_draws(p1, stream_key=3)
        d2 = gen2.heralded_draws(p2, stream_key=3)
        np.testing.assert_array_equal(d1[0], d2[0])


class TestCalibration:
    @pytest.fixture(scope="class")
    def calibrated(self):
        rig = hx.build_rig(SMALL)
        delays, results = hx.run_delay_calibration(rig, pulses_wanted=1500)
        return rig, delays, results

    def test_recovers_effective_delays(self, calibrated):
        rig, delays, _ = calibrated
        expect = rig.config.effective_delays()
        assert abs(delays[0] - expect[0]) <= 1
        assert abs(delays[1] - expect[1]) <= 1

    def test_scans_leave_servers_running_and_unfilled(self, calibrated):
        # each side's scan runs on a halted server, which is resumed after;
        # nothing is written past the calibration span
        rig, _, _ = calibrated
        span = 1500 * THERMAL_PULSE_PERIOD + 200
        for server, offset in ((rig.server_a, SMALL.server_offset_a),
                               (rig.server_b, SMALL.server_offset_b)):
            assert not server.status().halted
            assert server.buffer.write_cursor == offset + span

    def test_snr_and_fwhm(self, calibrated):
        _, _, results = calibrated
        for res in results:
            assert res.snr >= 10
            assert 4 <= res.fwhm_bins <= 8

    def test_injected_delay_sweep(self):
        # a different injected delay pair is recovered exactly as well
        cfg = SMALL.with_overrides(true_delay_a=-23, true_delay_b=31,
                                   server_offset_a=0, server_offset_b=2)
        rig = hx.build_rig(cfg)
        delays, _ = hx.run_delay_calibration(rig, pulses_wanted=1200)
        expect = rig.config.effective_delays()
        assert abs(delays[0] - expect[0]) <= 1
        assert abs(delays[1] - expect[1]) <= 1

    def test_no_pulses_fails(self):
        with pytest.raises(hx.CalibrationFailedError):
            hx.thermal_calibration([], [])

    @pytest.mark.parametrize("seed", range(6))
    def test_cross_correlate_equals_the_per_tag_loop(self, seed):
        # duplicate detector and crossing tags, lags exactly at +/-max_lag,
        # unsorted and empty inputs
        rng = np.random.default_rng(seed)
        max_lag = int(rng.integers(0, 40))
        det = rng.integers(0, 2000, int(rng.integers(0, 400)))
        det = np.concatenate([det, det[:20], [500, 1500]])
        cross = rng.integers(0, 2000, int(rng.integers(0, 400)))
        cross = np.concatenate([cross, cross[:10], [500 - max_lag,
                                                    1500 + max_lag]])
        for d, c in ((det, cross), (det, cross[:0]), (det[:0], cross),
                     (det[:0], cross[:0])):
            lags, counts = hx.cross_correlate(d, c, max_lag=max_lag)
            expect = np.zeros(2 * max_lag + 1, dtype=np.int64)
            cs = np.sort(c)
            for tag in d:       # the per-tag loop
                near = cs[np.searchsorted(cs, tag - max_lag):np.searchsorted(
                    cs, tag + max_lag + 1)]
                expect[near - tag + max_lag] += 1
            np.testing.assert_array_equal(lags,
                                          np.arange(-max_lag, max_lag + 1))
            assert counts.dtype == np.int64
            np.testing.assert_array_equal(counts, expect)
        # the planted pairs put counts at both ends of the lag range
        counts = hx.cross_correlate(det, cross, max_lag=max_lag)[1]
        assert counts[0] >= 1 and counts[-1] >= 1

    def test_correlation_analysis_shapes(self):
        det = np.array([1000, 2000, 3000])
        cross = np.array([1010, 2010, 3010])
        lags, counts = hx.cross_correlate(det, cross, max_lag=20)
        assert lags.size == 41
        peak, snr, fwhm = hx.analyze_correlation(lags, counts)
        assert peak == 10
        assert counts[lags.tolist().index(10)] == 3


@pytest.mark.slow
class TestExperimentSmall:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("exp")
        before = leftovers()
        with pytest.warns(UserWarning, match="stopping bound"), \
                pytest.warns(UserWarning, match="below D"):
            report = hx.run_experiment(SMALL, out)
        return report, before, leftovers()

    @pytest.fixture(scope="class")
    def report(self, run):
        return run[0]

    def test_no_pool_thread_or_blas_pin_left(self, run):
        _, before, after = run
        assert after == before

    def test_conservation(self, report):
        assert report.conservation_ok

    def test_fidelity_alignment(self, report):
        # each reconstruction matches its own expected state best
        f = report.fidelities
        assert f["rec00_vs_exp00"] > f["rec00_vs_exp11"]
        assert f["rec11_vs_exp11"] > f["rec11_vs_exp00"]
        assert f["rec11_vs_exp11"] > 0.88

    def test_entanglement_ordering(self, report):
        assert report.log_negativities["rec11"] > \
            report.log_negativities["rec00"]
        assert report.log_negativities["exp00"] == pytest.approx(0.34, abs=0.01)
        assert report.log_negativities["exp11"] == pytest.approx(0.55, abs=0.01)

    def test_witness_classes(self, report):
        assert report.witness_measured.rank_class is ng.StellarRankClass.RANK0_PLUS
        assert report.witness_expected.rank_class is ng.StellarRankClass.RANK0_PLUS

    def test_shot_noise_scale_near_truth(self, report):
        # generator wrote codes at adc_scale per quadrature unit
        assert report.shot_noise_scale[0] == pytest.approx(
            SMALL.adc_scale, rel=0.05)
        assert report.shot_noise_scale[1] == pytest.approx(
            SMALL.adc_scale, rel=0.05)

    def test_report_files(self, report):
        run = Path(report.run_dir)
        payload = json.loads((run / "report.json").read_text())
        assert "fidelities" in payload
        assert set(payload["converged"]) == set(payload["final_bound"]) \
            == set(payload["floored_records_total"]) \
            == set(payload["psd_repairs"]) == {"00", "11"}
        assert all(isinstance(payload[key][cls], int)
                   for key in ("floored_records_total", "psd_repairs")
                   for cls in ("00", "11"))
        text = (run / "report.txt").read_text()
        assert "floored_records_total: " in text
        assert "psd_repairs: " in text
        assert (fc.TwoModeState.load(f"{run}/state_rec11.tms").n_c
                == SMALL.n_c)
        lines = (run / "rolling_11.csv").read_text().splitlines()
        assert lines[0] == "joint_phase_rad,variance"
        assert len(lines) > 100

    def test_rolling_variance_contrast(self, report):
        rows00 = np.loadtxt(f"{report.run_dir}/rolling_00.csv", skiprows=1,
                            delimiter=",")
        rows11 = np.loadtxt(f"{report.run_dir}/rolling_11.csv", skiprows=1,
                            delimiter=",")
        c00 = rows00[:, 1].max() / rows00[:, 1].min()
        c11 = rows11[:, 1].max() / rows11[:, 1].min()
        assert c11 > c00


@pytest.mark.slow
class TestDelayScan:
    def test_true_delay_wins(self, tmp_path, monkeypatch):
        cfg = SMALL.with_overrides(class_targets={(1, 1): 800, (0, 0): 800},
                                   zero_detection_rate=2 ** 12)
        offsets = [(0, 0), (3, 3), (-3, -3)]
        reconstructed = []          # per scan: {class: records analyzed}
        analyze = experiment.analyze_classes

        def counting_analyze(*args):
            results = analyze(*args)
            reconstructed.append({cls: res.data.size
                                  for cls, res in results.items()})
            return results

        monkeypatch.setattr(experiment, "analyze_classes", counting_analyze)
        with pytest.warns(UserWarning, match="stopping bound"), \
                pytest.warns(UserWarning, match="below D"):
            rows = hx.delay_scan(cfg, offsets, tmp_path,
                                 scan_targets=800, max_iterations=250)
        # each scan directory holds its records and their run_meta.txt
        assert len(reconstructed) == len(offsets)
        for (i, j), sizes in zip(offsets, reconstructed):
            run = tmp_path / f"scan_{i}_{j}"
            meta = json.loads((run / "run_meta.txt").read_text())
            for cls, n in sizes.items():
                assert n > 0
                assert (meta["class_counts"][class_key(cls)]
                        == read_class(run, cls).size == n)
        by_offset = {r.offset: r for r in rows}
        center = by_offset[(0, 0)]
        for off in ((3, 3), (-3, -3)):
            r = by_offset[off]
            # off the true delay the heralded samples are background, so
            # the [1,1] reconstruction looks like the (0,0) state
            assert r.fid["rec11_vs_exp00"] > r.fid["rec11_vs_exp11"]
            assert center.fid["rec11_vs_exp11"] > r.fid["rec11_vs_exp11"]
        assert center.log_negativity_11 > center.log_negativity_00
        table = (tmp_path / "delay_scan.txt").read_text().splitlines()
        assert table[0].endswith("converged(00) converged(11)")
        for line, r in zip(table[1:], rows):
            assert line.split()[-2:] == [str(int(r.converged["00"])),
                                         str(int(r.converged["11"]))]


class TestUnconditionalStatistics:
    def test_trace_over_heralds_is_background(self):
        # rare subtraction classes leave the unconditional variance at the
        # (0,0) state's value within sampling error
        gen = StreamGenerator(SMALL)
        xa, _ = background_pair(gen, 5_000_000, 5_400_000)
        lam = SMALL.model(0, 0).effective_squeezing
        var = 0.5 + SMALL.eta1 * lam ** 2 / (1 - lam ** 2)
        assert xa.var() == pytest.approx(var, rel=0.02)


@pytest.mark.slow
class TestFullDeterminism:
    def test_identical_seeds_bit_identical_outputs(self, tmp_path):
        # identical config + seeds: datasets and reports byte-identical
        cfg = SMALL.with_overrides(class_targets={(1, 1): 300, (0, 0): 300},
                                   shot_noise_samples=2000)
        with pytest.warns(UserWarning, match="stopping bound"), \
                pytest.warns(UserWarning, match="below D"):
            r1 = hx.run_experiment(cfg, tmp_path / "a")
            r2 = hx.run_experiment(cfg, tmp_path / "b")
        assert r1.fidelities == r2.fidelities
        assert r1.log_negativities == r2.log_negativities
        assert (tmp_path / "a/report.json").read_text() == \
            (tmp_path / "b/report.json").read_text()
        f1 = (tmp_path / "a/datasets/sig_1_1.part000.bin").read_bytes()
        f2 = (tmp_path / "b/datasets/sig_1_1.part000.bin").read_bytes()
        assert f1 == f2
        h1 = (tmp_path / "a/heralds.bin").read_bytes()
        h2 = (tmp_path / "b/heralds.bin").read_bytes()
        assert h1 == h2 and len(h1) > 0

    def test_bundle_independent_of_the_worker_count(self, tmp_path,
                                                    monkeypatch):
        # serial and threaded task_map and ahead write the same files; BLAS
        # runs on one thread in both, as inside task_map's tasks, since its
        # thread count may move the reconstructions' last bits
        cfg = SMALL.with_overrides(class_targets={(1, 1): 300, (0, 0): 300},
                                   shot_noise_samples=2000)
        put = parallel.openblas("scipy_openblas_set_num_threads64_", None,
                                [ctypes.c_int])
        before = blas_threads and blas_threads()
        listings = []
        try:
            if put is not None:
                put(1)
            for n in (1, 2):
                monkeypatch.setattr(parallel, "workers", lambda n=n: n)
                with pytest.warns(UserWarning, match="stopping bound"), \
                        pytest.warns(UserWarning, match="below D"):
                    hx.run_experiment(cfg, tmp_path / str(n))
                listings.append(golden_bundles.listing(tmp_path / str(n)))
        finally:
            if put is not None:
                put(before)
        assert listings[0] == listings[1]
