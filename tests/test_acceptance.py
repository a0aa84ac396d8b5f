"""Acceptance suite: one test per criterion, one printed verdict line each.

Criteria 4 and 5 share ten seeded full-pipeline runs at the nominal
operating point; expect the full module to take on the order of fifteen
minutes.
"""

import time
from dataclasses import replace
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

from photonsub import fock_core as fc
from photonsub import ng_metrics as ng
from photonsub import harness as hx
from photonsub.conformance import LoopbackSocketTransport, run_protocol_checks
from photonsub.pso.centroid import TRIGGER_BINS, in_trigger_bins
import golden_bundles
import landscape
from oracles import (centroid_bins, circuit_oracle,
                     closed_form_log_negativity, kraus_lossy_state,
                     naive_coefficient, naive_norm_sq, pure_ladder_amplitudes)


def verdict(num, label, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


# ---------------------------------------------------------------------------
# 1. closed forms vs brute-force oracles across the parameter grid
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::photonsub.fock_core.TruncationWarning")
def test_criterion_1_closed_forms_vs_oracles():
    t0 = time.time()
    worst_state = 0.0
    worst_scalar = 0.0
    for r in (0.1, 0.3, 0.6):
        for R in (0.05, 0.14, 0.5):
            for eta in (1.0, 0.8, 0.5):
                for n in range(3):
                    for m in range(3):
                        mdl = fc.SubtractionModel(r=r, R1=R, R2=R, eta1=eta,
                                                  eta2=eta, n_sub=n, m_sub=m)
                        c2 = fc.normalization_sq(mdl)
                        ref_c2 = naive_norm_sq(n, m, r, R, R)
                        worst_scalar = max(worst_scalar,
                                           abs(c2 - ref_c2) / ref_c2)
                        p = fc.success_probability(mdl)
                        worst_scalar = max(
                            worst_scalar,
                            abs(p - (1 - np.tanh(r) ** 2) * ref_c2) / p)
                        for k in range(max(n, m), max(n, m) + 5):
                            worst_scalar = max(
                                worst_scalar,
                                abs(fc.subtraction_coefficient(k, mdl)
                                    - naive_coefficient(k, n, m, r, R, R)))
                        st = fc.lossy_subtracted_state(mdl, n_c=6)
                        orc = circuit_oracle(mdl, n_c=6)
                        worst_state = max(worst_state, float(
                            np.abs(st.matrix - orc.matrix).max()))
                        psi = pure_ladder_amplitudes(n, m, r, R, R, dw=34)
                        ref = kraus_lossy_state(psi, eta, eta, n_c=6)
                        worst_state = max(worst_state, float(
                            np.abs(st.matrix - ref).max()))
                        if eta == 1.0:
                            pure = fc.pure_subtracted_state(
                                replace(mdl, n_sub=n, m_sub=m), n_c=6)
                            worst_state = max(worst_state, float(
                                np.abs(pure.matrix - orc.matrix).max()))
    dt = time.time() - t0
    ok = worst_state < 1e-10 and worst_scalar < 1e-10 and dt < 60
    assert verdict(1, "closed forms match circuit/Kraus oracles to 1e-10",
                   ok, f"state {worst_state:.1e}, scalar {worst_scalar:.1e}, "
                       f"{dt:.0f}s")


# ---------------------------------------------------------------------------
# 2. stellar-rank landscape
# ---------------------------------------------------------------------------

def test_criterion_2_stellar_rank_landscape():
    f0, l0 = landscape.max_fidelity_over_lambda(eta=1.0, n=0)
    f1, l1 = landscape.max_fidelity_over_lambda(eta=1.0, n=1)
    eta1 = landscape.minimal_transmissivity(1)
    eta2 = landscape.minimal_transmissivity(2)
    ok = (abs(f0 - 0.25) < 1e-6 and abs(l0 - 0.70711) < 1e-4
          and abs(f1 - 0.342) < 0.002 and abs(l1 - 0.464) < 0.002
          and abs(eta1 - 0.83) < 0.01 and abs(eta2 - 0.77) < 0.01)
    assert verdict(
        2, "stellar-rank maxima and minimal transmissivities", ok,
        f"maxF00={f0:.6f}@{l0:.5f} maxF11={f1:.4f}@{l1:.4f} "
        f"eta_min={eta1:.3f}/{eta2:.3f}")


# ---------------------------------------------------------------------------
# 3. entanglement closed forms
# ---------------------------------------------------------------------------

def test_criterion_3_entanglement_closed_forms():
    details = []
    literal_ok = True
    for lam in (0.1, 0.25, 0.4):
        m0 = fc.SubtractionModel(r=np.arctanh(lam), R1=0.0, R2=0.0)
        e0 = abs(ng.log_negativity(fc.pure_subtracted_state(m0, 12))
                 - closed_form_log_negativity(lam, False))
        m1 = fc.SubtractionModel(r=np.arctanh(lam / 0.9), R1=0.1, R2=0.1,
                                 n_sub=1, m_sub=1)
        e1 = abs(ng.log_negativity(fc.pure_subtracted_state(m1, 12))
                 - closed_form_log_negativity(lam, True))
        literal_ok &= e0 < 1e-6 and e1 < 1e-6
        details.append(f"lam={lam}: {e0:.1e}/{e1:.1e}")
    # machinery exactness: numeric PT against the truncated Schmidt sum
    mach_ok = True
    for lam in (0.1, 0.25, 0.4):
        m1 = fc.SubtractionModel(r=np.arctanh(lam / 0.9), R1=0.1, R2=0.1,
                                 n_sub=1, m_sub=1)
        st = fc.pure_subtracted_state(m1, 12)
        amps = np.sqrt([st.population(k, k) for k in range(13)])
        mach_ok &= abs(ng.log_negativity(st)
                       - 2 * np.log2(amps.sum())) < 1e-10
    lossy00 = ng.log_negativity(fc.lossy_subtracted_state(
        fc.SubtractionModel(0.3, 0.14, 0.14, 0.55, 0.50, 0, 0), 10))
    lossy11 = ng.log_negativity(fc.lossy_subtracted_state(
        fc.SubtractionModel(0.3, 0.14, 0.14, 0.55, 0.50, 1, 1), 10))
    lossy_ok = abs(lossy00 - 0.34) < 0.01 and abs(lossy11 - 0.55) < 0.01
    ok = literal_ok and mach_ok and lossy_ok
    assert verdict(
        3, "pure-state E_N closed forms at 1e-6 (n_c=12) and lossy "
           "E_N = 0.34/0.55 +/- 0.01", ok,
        "; ".join(details) + f"; PT-machinery exact: {mach_ok}; "
        f"lossy {lossy00:.4f}/{lossy11:.4f}"), \
        ("lambda=0.4 sub-cases exceed 1e-6: the n_c=12 ladder amplitude "
         "tail shifts E_N by ~2e-5 (0,0) and ~2e-4 (1,1); see the "
         "README's \"Install and test\" paragraph")


# ---------------------------------------------------------------------------
# 4 + 5. full-pipeline fidelity and entanglement ordering, ten seeded runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ten_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_runs")
    results = []
    # the ten runs raise no warning: none is filtered, so any that appears
    # shows in the test summary
    for seed in range(10):
        # herald rate raised above the 1000x default so ten runs fit
        # the suite budget; the drawn statistics are rate-independent
        cfg = hx.ExperimentConfig(seed=300 + seed, herald_rate_hz=4e5)
        rep = hx.run_experiment(cfg, out / f"run_{seed}")
        results.append(rep)
        print(f"  run {seed}: F11={rep.fidelities['rec11_vs_exp11']:.4f} "
              f"E_N rec11={rep.log_negativities['rec11']:.3f} "
              f"rec00={rep.log_negativities['rec00']:.3f}")
    return results


@pytest.mark.slow
def test_criterion_4_pipeline_fidelity(ten_runs):
    fids = [r.fidelities["rec11_vs_exp11"] for r in ten_runs]
    hits = sum(f >= 0.96 for f in fids)
    ok = hits >= 9
    assert verdict(4, "F(rec11, exp11) >= 0.96 in >= 9 of 10 runs", ok,
                   f"{hits}/10, fids {[f'{f:.3f}' for f in fids]}")


@pytest.mark.slow
def test_criterion_5_entanglement_ordering(ten_runs):
    pairs = [(r.log_negativities["rec11"], r.log_negativities["rec00"])
             for r in ten_runs]
    hits = sum(a > b for a, b in pairs)
    ok = hits >= 8
    assert verdict(5, "E_N(rec11) > E_N(rec00) in >= 8 of 10 runs", ok,
                   f"{hits}/10")


@pytest.mark.slow
def test_golden_bundle_listing(ten_runs):
    # the seed-300..309 bundles hash as committed; on a host with
    # another fingerprint (BLAS build, core or threads, numpy, CPU) a moved
    # file is reported as xfail, naming the files and the differing fields
    golden = golden_bundles.load()
    run_dirs = {r.config.seed: r.run_dir for r in ten_runs}
    moved = {seed: golden_bundles.moved_files(
                 lines, golden_bundles.listing(run_dirs[int(seed)]))
             for seed, lines in golden["bundles"].items()}
    detail = "; ".join(f"seed {seed}: {', '.join(files)}"
                       for seed, files in moved.items() if files)
    if not detail:
        return
    host = golden_bundles.fingerprint()
    differs = [k for k, v in golden["fingerprint"].items() if host.get(k) != v]
    if differs:
        pytest.xfail(f"host differs from the golden listing's in "
                     f"{', '.join(differs)}; moved: {detail}")
    pytest.fail(f"bundle files moved from tests/golden_bundles.json: {detail}")


@pytest.mark.slow
def test_every_written_state_loads(ten_runs):
    # loading validates trace, Hermiticity and PSD, so `photonsub
    # witness` accepts every state file a run writes
    for rep in ten_runs:
        paths = sorted(Path(rep.run_dir).glob("state_*.tms"))
        assert [p.name for p in paths] == [
            f"state_{name}.tms" for name in ("exp00", "exp11", "rec00",
                                             "rec11")]
        for path in paths:
            assert fc.TwoModeState.load(path).n_c == rep.config.n_c


# ---------------------------------------------------------------------------
# 6. delay calibration
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_delay_calibration():
    # pages sized so one half holds the ~1e4 thermal pulses at 100 kHz
    base = hx.ExperimentConfig(pages=20_000)
    ok = True
    details = []
    for da, db, oa, ob in ((-32, 32, 0, 2), (-7, 13, 1, 0), (17, 22, 1, 2),
                           (0, -19, 2, 1)):
        cfg = base.with_overrides(true_delay_a=da, true_delay_b=db,
                                  server_offset_a=oa, server_offset_b=ob)
        rig = hx.build_rig(cfg)
        delays, results = hx.run_delay_calibration(rig, pulses_wanted=10_000)
        expect = rig.config.effective_delays()
        for got, want, res in zip(delays, expect, results):
            ok &= abs(got - want) <= 1
            ok &= abs(res.fwhm_bins - 6) <= 2
            ok &= res.snr >= 10
        details.append(f"({da},{db})->({delays[0]},{delays[1]}) "
                       f"want {expect}")
    assert verdict(6, "injected delays recovered within 1 bin, FWHM 6+/-2, "
                      "SNR >= 10", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 7. protocol conformance over sockets
# ---------------------------------------------------------------------------

def test_criterion_7_protocol_conformance():
    results = run_protocol_checks(LoopbackSocketTransport, pages=2048)
    ok = all(passed for _, passed, _ in results)
    assert verdict(7, "wire-protocol conformance (round trip, placeholder "
                      "rate, typed errors)", ok,
                   "; ".join(f"{name}:{'ok' if p else 'FAIL'}"
                             for name, p, _ in results))


# ---------------------------------------------------------------------------
# 8. exhaustive centroid equivalence
# ---------------------------------------------------------------------------

def test_criterion_8_centroid_exhaustive():
    # every combined 9-bin pattern with total 1..12 (two sides of sum <= 6)
    pats = []

    def rec(prefix, remaining, idx):
        if idx == 8:
            pats.append(prefix + [remaining])
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, idx + 1)

    for total in range(1, 13):
        rec([], total, 0)
    pats = np.array(pats, dtype=np.int64)
    nums = (pats * np.arange(9)).sum(axis=1)
    tots = pats.sum(axis=1)
    got = centroid_bins(nums, tots)
    mismatches = int(np.count_nonzero(got != nums // tots))
    # the trigger's own two-rung test of the same centroids
    trigger_mismatches = int(np.count_nonzero(
        in_trigger_bins(nums, tots) != np.isin(nums // tots, TRIGGER_BINS)))
    ok = mismatches == 0 and trigger_mismatches == 0
    assert verdict(8, "division-free centroid equals floor oracle "
                      "exhaustively", ok,
                   f"{pats.shape[0]} patterns, {mismatches} mismatches, "
                   f"{trigger_mismatches} trigger-bin mismatches")


# ---------------------------------------------------------------------------
# 9. throughput
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_9_throughput():
    bench = hx.throughput_benchmark(duration_s=10.0)
    ok = (bench["events_per_second"] >= 1e5 and bench["integrity_ok"]
          and bench["conservation_ok"] and bench["seconds"] >= 10.0)
    assert verdict(9, "loopback >= 1e5 events/s for 10 s, no integrity "
                      "trips", ok,
                   f"{bench['events_per_second']:.0f} ev/s over "
                   f"{bench['seconds']:.1f}s, {bench['events']} events")


# ---------------------------------------------------------------------------
# 10. witness classification
# ---------------------------------------------------------------------------

def test_criterion_10_witness_classification():
    nominal = fc.lossy_subtracted_state(
        fc.SubtractionModel(0.3, 0.14, 0.14, 0.55, 0.50, 1, 1), 8)
    w_nominal = ng.witness(nominal)
    lam = 0.464
    lossless = fc.pure_subtracted_state(
        fc.SubtractionModel(np.arctanh(lam / 0.9), 0.1, 0.1, 1.0, 1.0, 1, 1),
        10)
    w_free = ng.witness(lossless)
    # threshold boundaries at +/- 1e-6
    d = 3

    def synth(f):
        m = np.zeros((d * d, d * d), dtype=complex)
        m[d + 1, d + 1] = f
        m[0, 0] = 1 - f
        return fc.TwoModeState(2, m)

    eps = 1e-6
    b_ok = (ng.witness(synth(0.25 - eps)).rank_class is ng.StellarRankClass.RANK0_PLUS
            and ng.witness(synth(0.25 + eps)).rank_class is ng.StellarRankClass.RANK1_PLUS
            and ng.witness(synth(0.532 - eps)).rank_class is ng.StellarRankClass.RANK1_PLUS
            and ng.witness(synth(0.532 + eps)).rank_class is ng.StellarRankClass.RANK2_PLUS)
    ok = (w_nominal.rank_class is ng.StellarRankClass.RANK0_PLUS
          and w_free.rank_class is ng.StellarRankClass.RANK1_PLUS
          and b_ok)
    assert verdict(10, "witness classes: lossy nominal state rank0+, "
                       "lossless lambda=0.464 rank1+, boundaries exact", ok,
                   f"nominal F11={w_nominal.fidelity_11:.4f} "
                   f"lossless F11={w_free.fidelity_11:.4f}")
