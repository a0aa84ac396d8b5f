"""Experiment runner: calibration, acquisition, tomography, reports.

Wires the stream generator, two homodyne servers, the orchestrator engine
and the reconstruction into the full loop: thermal delay calibration,
shot-noise scaling, heralded acquisition with zero-detection reference
sampling, per-class tomography, and the fidelity / entanglement /
witness report.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .. import ng_metrics
from ..fock_core import lossy_subtracted_state
from ..hds import HdsClient, HomodyneServer, InProcessTransport
from ..parallel import task_map
from ..pso import (DatasetWriter, PsoConsole, PsoEngine, PsoRunConfig,
                   class_key, coincidence_pipeline)
from ..tomography import (ReconstructionReport, TomographyDataset,
                          reconstruct, rolling_variance)
from .calibration import thermal_calibration
from .config import ExperimentConfig
from .generator import (DRIVE_A, DRIVE_B, THERMAL_PULSE_PERIOD,
                        THERMAL_THRESHOLD_CODE, StreamGenerator, _rng,
                        herald_subbins)

_STREAM_SHOT = 21
_STREAM_ZERO = 22


@dataclass
class Rig:
    config: ExperimentConfig
    generator: StreamGenerator
    server_a: HomodyneServer
    server_b: HomodyneServer
    client_a: HdsClient
    client_b: HdsClient

    @property
    def half(self) -> int:
        return self.server_a.buffer.half


def build_rig(config: ExperimentConfig) -> Rig:
    gen = StreamGenerator(config)
    srv_a = HomodyneServer(pages=config.pages, page_map_seed=config.seed)
    srv_b = HomodyneServer(pages=config.pages, page_map_seed=config.seed + 1)
    return Rig(config=config, generator=gen, server_a=srv_a, server_b=srv_b,
               client_a=HdsClient(InProcessTransport(srv_a)),
               client_b=HdsClient(InProcessTransport(srv_b)))


# ---------------------------------------------------------------------------
# delay calibration
# ---------------------------------------------------------------------------

def run_delay_calibration(rig: Rig, pulses_wanted: int = 10_000):
    """Pulsed-thermal cross-correlation calibration, the two sides as two
    tasks, each on its own server, client and calibration stream.

    Returns ((delay_a, delay_b), (result_a, result_b)); delays are the
    effective query offsets including server start skew and the trigger
    pipeline offset.
    """
    cfg = rig.config
    span = min(pulses_wanted * THERMAL_PULSE_PERIOD + 200, rig.half - 100)

    def control(client, line):
        reply = client.control(line)
        if reply != "OK":
            raise RuntimeError(f"{line} failed: {reply}")

    def calibrate(side, server, client, offset):
        client.start_run(offset)
        subbins, sides = rig.generator.thermal_epoch(server, side, span)
        events = coincidence_pipeline(subbins, sides)
        # PSO tags live on the master clock; the server's start skew shows
        # up in the crossing tags and lands inside the measured delay
        det_tags = events["coarse"]
        # a halted server serves the written words of an unsealed half
        control(client, "HALT")
        client.set_config(mode="threshold", threshold=THERMAL_THRESHOLD_CODE,
                          slope_sign=+1)
        crossings = client.threshold_scan(0, 0, span)
        client.set_config(mode="samples")
        control(client, "RESUME")
        return thermal_calibration(det_tags, crossings)

    results = tuple(task_map(lambda args: calibrate(*args), (
        (0, rig.server_a, rig.client_a, cfg.server_offset_a),
        (1, rig.server_b, rig.client_b, cfg.server_offset_b))))
    return (results[0].peak_delay, results[1].peak_delay), results


# ---------------------------------------------------------------------------
# acquisition + tomography
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    config: ExperimentConfig
    delays: tuple
    calibration: tuple
    shot_noise_scale: tuple
    fidelities: dict
    log_negativities: dict
    witness_measured: ng_metrics.WitnessResult
    witness_expected: ng_metrics.WitnessResult
    iterations: dict
    converged: dict
    final_bound: dict
    floored_records_total: dict
    psd_repairs: dict
    conservation_ok: bool
    class_counts: dict
    run_dir: str = ""
    states: dict = field(default_factory=dict, repr=False)


def expected_states(config: ExperimentConfig, classes=((0, 0), (1, 1))):
    """{class: the lossy subtracted state its heralds should produce}."""
    return {cls: lossy_subtracted_state(config.model(*cls), config.n_c)
            for cls in classes}


@dataclass
class ClassAnalysis:
    data: TomographyDataset
    report: ReconstructionReport
    log_negativity: float
    fidelities: dict            # expected class -> F(reconstruction, it)


def analyze_classes(class_records: dict, scales, config: ExperimentConfig,
                    expected: dict) -> dict:
    """Map each class's records to calibrated quadratures and phases,
    reconstruct them with the config's iteration cap and epsilon, and
    compare with every expected state, one task per class.  Returns
    {class: ClassAnalysis}."""
    def analyze(records):
        adc = records["adc"].astype(np.float64)
        data = TomographyDataset(adc[:, 0] / scales[0], adc[:, 2] / scales[1],
                                 DRIVE_A.theta_from_code(adc[:, 1]),
                                 DRIVE_B.theta_from_code(adc[:, 3]),
                                 n_c=config.n_c)
        rep = reconstruct(data, max_iterations=config.max_iterations,
                          epsilon=config.epsilon)
        return ClassAnalysis(
            data, rep, ng_metrics.log_negativity(rep.rho),
            {ecls: ng_metrics.uhlmann_fidelity(rep.rho, estate)
             for ecls, estate in expected.items()})

    return dict(zip(class_records,
                    task_map(analyze, class_records.values())))


def _label(cls) -> str:
    return f"{cls[0]}{cls[1]}"


def _fidelity_table(results: dict) -> dict:
    return {f"rec{_label(cls)}_vs_exp{_label(ecls)}": f
            for cls, res in results.items()
            for ecls, f in res.fidelities.items()}


def run_acquisition(rig: Rig, delays, run_dir, max_epochs: int = 64):
    """Heralded acquisition until every class target fills; writes the
    dataset files and their run_meta.txt.

    Returns (engine, shot_noise_scales).
    """
    cfg = rig.config
    console = PsoConsole(cfg.pso_config(delays))
    writer = DatasetWriter(run_dir, class_targets=dict(cfg.class_targets))
    engine = PsoEngine(rig.client_a, rig.client_b, console, writer,
                       half_words=rig.half,
                       zero_rng=_rng(cfg.seed, _STREAM_ZERO))
    engine.start_run(cfg.server_offset_a, cfg.server_offset_b)

    margin = max(abs(delays[0]), abs(delays[1])) + cfg.hold_bins + 2
    scales = None
    for epoch in range(max_epochs):
        lo = epoch * rig.half
        hi = lo + rig.half
        herald_lo = max(lo, cfg.shutter_bins + margin) + margin
        plan = rig.generator.plan_heralds(herald_lo, hi - margin)
        rig.generator.fill_epoch(rig.server_a, rig.server_b, epoch,
                                 rig.half, plan)
        zero_lo = (cfg.shutter_bins + 2 * margin if epoch == 0
                   else lo + margin)
        engine.process_sealed_half(epoch, plan.detector_subbins,
                                   plan.detector_sides,
                                   zero_span=(zero_lo, hi - margin))
        if scales is None:
            a, b = engine.collect_shot_noise(
                (margin, cfg.shutter_bins - margin),
                cfg.shot_noise_samples, _rng(cfg.seed, _STREAM_SHOT))
            scales = (float(np.sqrt(2.0 * a.var())),
                      float(np.sqrt(2.0 * b.var())))
        if all(engine.writer.target_reached(cls)
               for cls in cfg.class_targets):
            break
    engine.flush_expired()
    engine.writer.finalize({"delays": list(delays),
                            "shot_noise_scale": list(scales)})
    return engine, scales


def run_experiment(config: ExperimentConfig, out_dir) -> ExperimentReport:
    """Full pipeline: calibrate, acquire, reconstruct, report."""
    os.makedirs(out_dir, exist_ok=True)
    rig = build_rig(config)
    delays, cal = run_delay_calibration(rig)
    run_dir = os.path.join(out_dir, "datasets")
    engine, scales = run_acquisition(rig, delays, run_dir)
    engine.save_heralds(os.path.join(out_dir, "heralds.bin"))

    expected = expected_states(config)
    records = {cls: engine.writer.load_class(cls) for cls in expected}
    # only the records and the ledger outlive acquisition: dropping the
    # engine and the rig frees both servers' ring buffers
    ledger = engine.report
    del engine, rig
    results = analyze_classes(records, scales, config, expected)
    for cls, res in results.items():
        # rolling variance of the summed joint quadrature, sorted by the
        # joint phase (window 500, shrunk for small desk runs)
        phase, var = rolling_variance(
            res.data, window=min(500, max(2, res.data.size // 2)))
        np.savetxt(os.path.join(out_dir, f"rolling_{_label(cls)}.csv"),
                   np.column_stack([phase, var]), fmt=("%.6f", "%.8f"),
                   delimiter=",", header="joint_phase_rad,variance",
                   comments="")

    reps = {_label(cls): res.report for cls, res in results.items()}
    exps = {f"exp{_label(cls)}": st for cls, st in expected.items()}
    report = ExperimentReport(
        config=config,
        delays=delays,
        calibration=cal,
        shot_noise_scale=scales,
        fidelities=_fidelity_table(results),
        log_negativities={
            **{f"rec{_label(c)}": r.log_negativity
               for c, r in results.items()},
            **{k: ng_metrics.log_negativity(st) for k, st in exps.items()}},
        witness_measured=ng_metrics.witness(reps["11"].rho),
        witness_expected=ng_metrics.witness(exps["exp11"]),
        iterations={k: r.iterations for k, r in reps.items()},
        converged={k: r.converged for k, r in reps.items()},
        final_bound={k: r.final_bound for k, r in reps.items()},
        floored_records_total={k: r.floored_records_total
                               for k, r in reps.items()},
        psd_repairs={k: r.psd_repairs for k, r in reps.items()},
        conservation_ok=ledger.conservation_holds(),
        class_counts=dict(ledger.class_counts),
        run_dir=str(out_dir),
        states={**{f"rec{k}": r.rho for k, r in reps.items()}, **exps},
    )
    _write_report(out_dir, report, ledger)
    return report


def _write_report(out_dir, report: ExperimentReport, ledger):
    for name, state in report.states.items():
        state.save(os.path.join(out_dir, f"state_{name}.tms"))
    payload = {
        "delays": list(report.delays),
        "shot_noise_scale": list(report.shot_noise_scale),
        "fidelities": report.fidelities,
        "log_negativities": report.log_negativities,
        "witness_measured": report.witness_measured.rank_class.value,
        "witness_expected": report.witness_expected.rank_class.value,
        "iterations": report.iterations,
        "converged": report.converged,
        "final_bound": report.final_bound,
        "floored_records_total": report.floored_records_total,
        "psd_repairs": report.psd_repairs,
        "conservation_ok": report.conservation_ok,
        "class_counts": {class_key(k): v
                         for k, v in report.class_counts.items()},
        "calibration": [
            {"peak_delay": c.peak_delay, "snr": c.snr, "fwhm": c.fwhm_bins}
            for c in report.calibration],
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write("experiment report\n=================\n")
        for key, val in payload.items():
            fh.write(f"{key}: {val}\n")
        fh.write("\nacquisition counters\n--------------------\n")
        fh.write(ledger.to_text() + "\n")


# ---------------------------------------------------------------------------
# delay scan
# ---------------------------------------------------------------------------

@dataclass
class DelayScanRow:
    offset: tuple
    log_negativity_00: float
    log_negativity_11: float
    fid: dict
    converged: dict


def delay_scan(config: ExperimentConfig, offsets, out_dir,
               scan_targets: int = 2500, max_iterations: int = 400):
    """Acquire and reconstruct at delay combinations D(i, j) around the
    calibrated point.  Calibration runs once; each offset's
    run_acquisition restarts both servers and generates every epoch again."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = config.with_overrides(class_targets={(1, 1): scan_targets,
                                               (0, 0): scan_targets},
                                max_iterations=max_iterations)
    rig = build_rig(cfg)
    delays, _ = run_delay_calibration(rig)

    expected = expected_states(cfg)
    rows = []
    for i, j in offsets:
        engine, sc = run_acquisition(
            rig, (delays[0] + i, delays[1] + j),
            os.path.join(out_dir, f"scan_{i}_{j}"), max_epochs=6)
        results = analyze_classes(
            {cls: engine.writer.load_class(cls) for cls in expected},
            sc, cfg, expected)
        rows.append(DelayScanRow(
            offset=(i, j),
            log_negativity_00=results[(0, 0)].log_negativity,
            log_negativity_11=results[(1, 1)].log_negativity,
            fid=_fidelity_table(results),
            converged={_label(k): r.report.converged
                       for k, r in results.items()}))
    _write_scan_table(os.path.join(out_dir, "delay_scan.txt"), rows)
    return rows


def _write_scan_table(path, rows):
    with open(path, "w") as fh:
        fh.write("# D(i,j)  E_N(00)  E_N(11)  F(r00,E00) F(r00,E11) "
                 "F(r11,E00) F(r11,E11) converged(00) converged(11)\n")
        for r in rows:
            fh.write(
                f"D({r.offset[0]},{r.offset[1]}) "
                f"{r.log_negativity_00:.4f} {r.log_negativity_11:.4f} "
                f"{r.fid['rec00_vs_exp00']:.4f} {r.fid['rec00_vs_exp11']:.4f} "
                f"{r.fid['rec11_vs_exp00']:.4f} {r.fid['rec11_vs_exp11']:.4f} "
                f"{int(r.converged['00'])} {int(r.converged['11'])}\n")


# ---------------------------------------------------------------------------
# throughput benchmark
# ---------------------------------------------------------------------------

def throughput_benchmark(duration_s: float = 10.0):
    """Loopback throughput of the full PSO processing chain.

    Streams synthetic coincidences (60,000 per half of a 2,048-page buffer)
    through ingest, trigger, filters, HDS queries and triage until the
    wall-clock budget elapses; returns a dict with the sustained event rate
    and the server health flags.
    """
    import tempfile

    srv_a = HomodyneServer(pages=2048, page_map_seed=7)
    srv_b = HomodyneServer(pages=2048, page_map_seed=8)
    client_a = HdsClient(InProcessTransport(srv_a))
    client_b = HdsClient(InProcessTransport(srv_b))
    half = srv_a.buffer.half
    console = PsoConsole(PsoRunConfig(delay_a=3, delay_b=5, hold_bins=3))
    with tempfile.TemporaryDirectory() as tmp:
        writer = DatasetWriter(tmp, records_per_file=100_000)
        engine = PsoEngine(client_a, client_b, console, writer,
                           half_words=half)
        engine.start_run()
        stride = max(half // 60_000, 8)
        base_coarse = np.arange(16, half - 16, stride)
        code = np.full(half, 1000, dtype=np.int64)
        drive = np.zeros(half, dtype=np.int64)
        t0 = time.perf_counter()
        processed = 0
        epoch = 0
        while time.perf_counter() - t0 < duration_s:
            srv_a.ingest_samples(code, drive)
            srv_b.ingest_samples(code, drive)
            coarse = epoch * half + base_coarse
            subbins = np.repeat(herald_subbins(coarse), 2)
            sides = np.tile(np.array([0, 1]), coarse.size)
            engine.process_sealed_half(epoch, subbins, sides)
            processed += coarse.size
            epoch += 1
        elapsed = time.perf_counter() - t0
        sa = srv_a.status()
        sb = srv_b.status()
        return {
            "events": processed,
            "seconds": elapsed,
            "events_per_second": processed / elapsed,
            "epochs": epoch,
            "integrity_ok": sa.data_queries_allowed and sb.data_queries_allowed,
            "conservation_ok": engine.report.conservation_holds(),
        }
