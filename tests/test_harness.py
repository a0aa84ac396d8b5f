import json
import warnings
from math import pi
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from photonsub import fock_core as fc
from photonsub import ng_metrics as ng
from photonsub import harness as hx
from photonsub.harness.generator import StreamGenerator
from photonsub.homodyne_model import quadrature_operator
from photonsub.pso import coincidence_pipeline


# herald rate kept moderate: the accidental-coincidence rate grows
# quadratically with the simulated rate and would contaminate the tiny
# [1,1] dataset at the more aggressive settings used for plan-only tests
SMALL = hx.ExperimentConfig(pages=4096, shutter_bins=200_000,
                            class_targets={(1, 1): 1500, (0, 0): 1500},
                            herald_rate_hz=2e5, shot_noise_samples=4000,
                            zero_detection_rate=2 ** 13,
                            max_iterations=150, seed=5)


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
        xa, xb = gen.background_pair(10_000_000, 10_000_000 + n)
        t = np.arange(10_000_000, 10_000_000 + n)
        th1 = gen.drive_a.evaluate(t + cfg.true_delay_a)[0]
        th2 = gen.drive_b.evaluate(t + cfg.true_delay_b)[0]
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
        a1, b1 = gen.background_pair(4_194_200, 4_194_400)
        a2, b2 = gen.background_pair(4_194_300, 4_194_350)
        np.testing.assert_array_equal(a1[100:150], a2)
        np.testing.assert_array_equal(b1[100:150], b2)

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
        th1 = gen.drive_a.evaluate(coarse + cfg.true_delay_a)[0]
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
        a1, b1 = gen1.background_pair(0, 50_000)
        a2, b2 = gen2.background_pair(0, 50_000)
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
        expect = rig.effective_delays()
        assert abs(delays[0] - expect[0]) <= 1
        assert abs(delays[1] - expect[1]) <= 1

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
        expect = rig.effective_delays()
        assert abs(delays[0] - expect[0]) <= 1
        assert abs(delays[1] - expect[1]) <= 1

    def test_no_pulses_fails(self):
        with pytest.raises(hx.CalibrationFailedError):
            hx.thermal_calibration([], [])

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
    def report(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("exp")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return hx.run_experiment(SMALL, out)

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
    def test_true_delay_wins(self, tmp_path):
        cfg = SMALL.with_overrides(class_targets={(1, 1): 800, (0, 0): 800},
                                   zero_detection_rate=2 ** 12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            rows = hx.delay_scan(cfg, [(0, 0), (3, 3), (-3, -3)], tmp_path,
                                 scan_targets=800, max_iterations=250)
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
        xa, _ = gen.background_pair(5_000_000, 5_400_000)
        lam = SMALL.model(0, 0).effective_squeezing
        var = 0.5 + SMALL.eta1 * lam ** 2 / (1 - lam ** 2)
        assert xa.var() == pytest.approx(var, rel=0.02)


@pytest.mark.slow
class TestFullDeterminism:
    def test_identical_seeds_bit_identical_outputs(self, tmp_path):
        # identical config + seeds: datasets and reports byte-identical
        cfg = SMALL.with_overrides(class_targets={(1, 1): 300, (0, 0): 300},
                                   shot_noise_samples=2000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
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
