"""Command-line front end.

Subcommands: calibrate, acquire, reconstruct, scan-delays, witness,
contours, protocol-test.  Configuration comes from the JSON key-value file
documented in the README (defaults apply when omitted).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import ng_metrics
from .fock_core import TwoModeState
from .harness import (ExperimentConfig, analyze_classes, build_rig,
                      delay_scan, expected_states, load_config,
                      run_acquisition, run_delay_calibration, run_experiment,
                      throughput_benchmark)
from .pso import read_class


def _load_cfg(path) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    return load_config(path)


def cmd_calibrate(args):
    cfg = _load_cfg(args.config)
    rig = build_rig(cfg)
    delays, results = run_delay_calibration(rig, pulses_wanted=args.pulses)
    for side, res in zip("AB", results):
        print(f"mode {side}: delay {res.peak_delay} bins, "
              f"SNR {res.snr:.1f}, FWHM {res.fwhm_bins} bins")
    print(f"query delays: {delays[0]} {delays[1]}")
    return 0


def cmd_acquire(args):
    cfg = _load_cfg(args.config)
    rig = build_rig(cfg)
    delays, _ = run_delay_calibration(rig)
    engine, scales = run_acquisition(rig, delays, args.out)
    meta = engine.writer.finalize({"delays": list(delays),
                                   "shot_noise_scale": list(scales)})
    print(engine.report.to_text())
    print(f"datasets in {args.out}: "
          f"{json.dumps(meta['class_counts'], sort_keys=True)}")
    return 0


def cmd_reconstruct(args):
    cfg = _load_cfg(args.config)
    with open(os.path.join(args.datasets, "run_meta.txt")) as fh:
        meta = json.load(fh)
    cls = tuple(int(x) for x in args.cls.split(","))
    records = read_class(args.datasets, cls)[:args.limit]
    if not records.size:
        print(f"no dataset files for class {cls}", file=sys.stderr)
        return 1
    res = analyze_classes({cls: records}, meta["shot_noise_scale"], cfg,
                          expected_states(cfg, [cls]))[cls]
    rep = res.report
    print(f"class {cls}: {res.data.size} records, {rep.iterations} "
          f"iterations, converged {rep.converged}")
    print(f"F(vs expected) {res.fidelities[cls]:.4f}  "
          f"E_N {res.log_negativity:.4f}")
    if args.out:
        rep.rho.save(args.out)
        print(f"state written to {args.out}")
    return 0


def cmd_scan_delays(args):
    cfg = _load_cfg(args.config)
    offsets = []
    for part in args.offsets.split(";"):
        i, j = part.split(",")
        offsets.append((int(i), int(j)))
    rows = delay_scan(cfg, offsets, args.out, scan_targets=args.samples)
    for r in rows:
        print(f"D({r.offset[0]},{r.offset[1]}): "
              f"E_N(00)={r.log_negativity_00:.3f} "
              f"E_N(11)={r.log_negativity_11:.3f} "
              f"F(r11,E11)={r.fid['rec11_vs_exp11']:.3f}")
    print(f"table written to {os.path.join(args.out, 'delay_scan.txt')}")
    return 0


def cmd_witness(args):
    state = TwoModeState.load(args.state)
    res = ng_metrics.witness(state)
    print(f"F(|1,1>) = {res.fidelity_11:.6f}")
    print(f"stellar rank class: {res.rank_class.value}")
    return 0


def cmd_contours(args):
    table = ng_metrics.contour_table(lam_step=args.step, eta_step=args.step)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table)
        print(f"contour table written to {args.out}")
    else:
        print(table)
    return 0


def cmd_protocol_test(args):
    from . import hds
    from .conformance import LoopbackSocketTransport, run_protocol_checks

    factory = (LoopbackSocketTransport if args.socket
               else hds.InProcessTransport)
    results = run_protocol_checks(factory, pages=args.pages)
    failed = 0
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}"
              + (f" ({detail})" if detail else ""))
        failed += 0 if ok else 1
    if args.throughput:
        bench = throughput_benchmark(duration_s=args.throughput)
        ok = bench["events_per_second"] >= 1e5 and bench["integrity_ok"]
        print(f"[{'PASS' if ok else 'FAIL'}] throughput "
              f"{bench['events_per_second']:.0f} events/s over "
              f"{bench['seconds']:.1f}s")
        failed += 0 if ok else 1
    return 1 if failed else 0


def cmd_run(args):
    cfg = _load_cfg(args.config)
    report = run_experiment(cfg, args.out)
    print(json.dumps({
        "delays": list(report.delays),
        "fidelities": {k: round(v, 4) for k, v in report.fidelities.items()},
        "log_negativities": {k: round(v, 4)
                             for k, v in report.log_negativities.items()},
        "witness_measured": report.witness_measured.rank_class.value,
        "conservation_ok": report.conservation_ok,
    }, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="photonsub",
        description="Heralded photon-subtraction source twin: acquisition, "
                    "tomography and non-Gaussianity analysis")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("calibrate", help="thermal-pulse delay calibration")
    sp.add_argument("--config")
    sp.add_argument("--pulses", type=int, default=10_000)
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("acquire", help="run heralded acquisition to files")
    sp.add_argument("--config")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_acquire)

    sp = sub.add_parser("reconstruct", help="tomography from dataset files")
    sp.add_argument("--config")
    sp.add_argument("--datasets", required=True)
    sp.add_argument("--cls", default="1,1")
    sp.add_argument("--limit", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("scan-delays", help="fidelity/entanglement vs delay")
    sp.add_argument("--config")
    sp.add_argument("--offsets", default="0,0;0,1;1,0;-1,0;0,-1")
    sp.add_argument("--out", required=True)
    sp.add_argument("--samples", type=int, default=2500)
    sp.set_defaults(func=cmd_scan_delays)

    sp = sub.add_parser("witness", help="stellar-rank witness of a state dump")
    sp.add_argument("--state", required=True)
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("contours", help="fidelity contour table (text)")
    sp.add_argument("--out")
    sp.add_argument("--step", type=float, default=0.02)
    sp.set_defaults(func=cmd_contours)

    sp = sub.add_parser("protocol-test", help="wire-protocol conformance")
    sp.add_argument("--socket", action="store_true",
                    help="exercise TCP transport instead of in-process")
    sp.add_argument("--pages", type=int, default=2048)
    sp.add_argument("--throughput", type=float, default=0.0,
                    help="also run the loopback benchmark for this many "
                         "seconds")
    sp.set_defaults(func=cmd_protocol_test)

    sp = sub.add_parser("run", help="full experiment with report bundle")
    sp.add_argument("--config")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_run)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
