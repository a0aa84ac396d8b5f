"""Output checks computed apart from the program.

Only numpy and the benchmark's own inputs are used: the record layout,
the signature layout, the trigger timing and the slope-check rule are
taken from their documented definitions, and the tomography stopping
bound, fidelity and log negativity are recomputed from the files a run
writes.  Every check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import json
import os
import re
import struct

import numpy as np

from inputs import drive_steps_down, expected_words, homodyne_codes, drive_codes

# 24-byte little-endian record: signature u64, overflow u32, timetag u32,
# adc[4] i16 (A homodyne, A drive, B homodyne, B drive)
RECORD_DTYPE = np.dtype([("signature", "<u8"), ("overflow", "<u4"),
                         ("timetag", "<u4"), ("adc", "<i2", (4,))])
STATE_MAGIC = b"TMST\x01"
TRIGGER_OFFSET_SUBBINS = 6          # single-position centroid enters at index 6
PIPELINE_DEPTH_SUBBINS = 27
COARSE_OFFSET = -1                  # coarse tag of a herald in bin c is c - 1


def signature_sums(signature):
    """(side A count, side B count) from 64-bit signatures: each 32-bit half
    holds its side sum in bits 27..31."""
    s = np.asarray(signature, dtype=np.uint64)
    a = (s >> np.uint64(27)) & np.uint64(0x1F)
    b = (s >> np.uint64(59)) & np.uint64(0x1F)
    return a.astype(np.int64), b.astype(np.int64)


def read_dataset(run_dir) -> dict:
    """{(n, m): records in write order} from sig_<n>_<m>.part<k>.bin files."""
    parts = {}
    for name in os.listdir(run_dir):
        m = re.fullmatch(r"sig_(\d+)_(\d+)\.part(\d+)\.bin", name)
        if m:
            cls = (int(m.group(1)), int(m.group(2)))
            parts.setdefault(cls, []).append((int(m.group(3)), name))
    out = {}
    for cls, files in parts.items():
        chunks = []
        for _, name in sorted(files):
            with open(os.path.join(run_dir, name), "rb") as fh:
                chunks.append(np.frombuffer(fh.read(), dtype=RECORD_DTYPE))
        out[cls] = np.concatenate(chunks)
    return out


# ---------------------------------------------------------------------------
# orchestrator-loop
# ---------------------------------------------------------------------------

def check_orchestrator(heralds, emitted, records, capacity: int,
                       delays, ledger: dict) -> list:
    """Every isolated herald yields exactly one trigger event with the
    expected emit time and class; every isolated coincidence herald yields
    one record holding the pattern at tag + delay, or none where a drive
    steps down; the event ledger balances.

    heralds: dict of global arrays coarse, n, m, isolated.
    emitted: (emit_subbin, signature) of every triggered event.
    records: every record written, any class.
    """
    problems = []
    iso = heralds["isolated"]
    coarse = heralds["coarse"][iso]
    n = heralds["n"][iso]
    m = heralds["m"][iso]

    emit_at = (3 * coarse + 1 - TRIGGER_OFFSET_SUBBINS
               + PIPELINE_DEPTH_SUBBINS)
    emit, sig = emitted
    order = np.argsort(emit, kind="stable")
    emit = emit[order]
    sa, sb = signature_sums(sig[order])
    lo = np.searchsorted(emit, emit_at, side="left")
    hi = np.searchsorted(emit, emit_at, side="right")
    if np.any(hi - lo != 1):
        problems.append(f"{int(np.count_nonzero(hi - lo != 1))} isolated "
                        "heralds without exactly one trigger event")
    else:
        bad = (sa[lo] != n) | (sb[lo] != m)
        if np.any(bad):
            problems.append(f"{int(np.count_nonzero(bad))} trigger events "
                            "with the wrong signature class")

    coinc = (n > 0) & (m > 0)
    tag = coarse[coinc] + COARSE_OFFSET
    cn, cm = n[coinc], m[coinc]
    qa = (tag + delays[0]) % capacity
    qb = (tag + delays[1]) % capacity
    excluded = drive_steps_down(qa, 0) | drive_steps_down(qb, 1)
    key = (records["overflow"].astype(np.int64) * capacity
           + records["timetag"].astype(np.int64))
    order = np.argsort(key, kind="stable")
    key = key[order]
    rec = records[order]
    lo = np.searchsorted(key, tag, side="left")
    hi = np.searchsorted(key, tag, side="right")
    count = hi - lo
    if np.any(count[excluded] != 0):
        problems.append("records written for heralds the drive pattern "
                        "places on a step-down")
    want = ~excluded
    if np.any(count[want] != 1):
        problems.append(f"{int(np.count_nonzero(count[want] != 1))} isolated "
                        "coincidence heralds without exactly one record")
    else:
        got = rec[lo[want]]
        ra, rb = signature_sums(got["signature"])
        if np.any((ra != cn[want]) | (rb != cm[want])):
            problems.append("records with the wrong signature class")
        adc = got["adc"].astype(np.int64)
        expect = np.stack([homodyne_codes(qa[want], 0), drive_codes(qa[want], 0),
                           homodyne_codes(qb[want], 1), drive_codes(qb[want], 1)],
                          axis=1)
        bad = np.any(adc != expect, axis=1)
        if np.any(bad):
            problems.append(f"{int(np.count_nonzero(bad))} records whose ADC "
                            "values differ from the pattern at tag + delay")
    problems += check_ledger(ledger)
    return problems


def check_ledger(c: dict) -> list:
    """Every candidate (triggered minus gated out) ends in exactly one bin."""
    ends = (c["kept"] + c["hold dropped"] + c["seed dropped"] + c["deferred"]
            + c["placeholder excluded"])
    if ends != c["triggered"] - c["gated out"]:
        return [f"ledger does not balance: {ends} outcomes for "
                f"{c['triggered'] - c['gated out']} candidates"]
    return []


# ---------------------------------------------------------------------------
# wire-query
# ---------------------------------------------------------------------------

def check_words(tags, words, side: int = 0) -> list:
    """Each word equals the pattern at its buffer tag, or the placeholder
    exactly where the drive code steps down."""
    want = expected_words(tags, side)
    words = np.asarray(words, dtype=np.uint32)
    if words.shape != want.shape:
        return [f"{words.size} words for {want.size} tags"]
    bad = words != want
    if np.any(bad):
        return [f"{int(np.count_nonzero(bad))} of {want.size} words differ "
                "from the pattern"]
    return []


# ---------------------------------------------------------------------------
# nominal-run
# ---------------------------------------------------------------------------

def parse_counters(report_txt: str) -> dict:
    """Acquisition counters from report.txt ("name   value" lines)."""
    names = ("triggered", "gated out", "candidates", "hold dropped",
             "seed dropped", "deferred", "placeholder excluded", "kept")
    out = {}
    for line in report_txt.splitlines():
        mt = re.fullmatch(r"([a-z ]+?)\s+(\d+)", line.strip())
        if mt and mt.group(1) in names:
            out[mt.group(1)] = int(mt.group(2))
    missing = set(names) - set(out)
    if missing:
        raise ValueError(f"report.txt lacks counters {sorted(missing)}")
    return out


def read_state(path):
    """Density matrix from a state dump: magic, uint32 n_c, float64
    truncation weight, then the row-major complex128 matrix."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:5] != STATE_MAGIC:
        raise ValueError(f"{path} is not a state dump")
    n_c, _ = struct.unpack_from("<Id", raw, 5)
    d = (n_c + 1) ** 2
    mat = np.frombuffer(raw, dtype="<c16", count=d * d, offset=17)
    return n_c, mat.reshape(d, d).copy()


def _sqrt_psd(mat):
    w, v = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def fidelity(a, b) -> float:
    """Uhlmann fidelity (Tr |sqrt(a) sqrt(b)|)^2."""
    s = np.linalg.svd(_sqrt_psd(a) @ _sqrt_psd(b), compute_uv=False)
    return float(s.sum() ** 2)


def log_negativity(rho, n_c: int) -> float:
    """log2 of the trace norm of the partial transpose on mode 2."""
    d = n_c + 1
    pt = rho.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
    return float(np.log2(np.abs(np.linalg.eigvalsh(pt)).sum()))


def _oscillator(n_c: int, x):
    psi = np.empty((n_c + 1, x.size))
    psi[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_c:
        psi[1] = np.sqrt(2.0) * x * psi[0]
    for k in range(1, n_c):
        psi[k + 1] = (np.sqrt(2.0 / (k + 1)) * x * psi[k]
                      - np.sqrt(k / (k + 1.0)) * psi[k - 1])
    return psi


def stopping_bound(records, scales, n_c: int, rho) -> float:
    """lambda_max(R) - N for R = sum_i Pi_i / p_i at state rho.

    Quadratures are ADC codes over the shot-noise scale; phases map the
    14-bit drive code linearly onto [0, 2 pi).
    """
    adc = records["adc"].astype(np.float64)
    ns = np.arange(n_c + 1)
    vs = []
    for col, scale in ((0, scales[0]), (2, scales[1])):
        theta = ((adc[:, col + 1] + 8192.0) / 16384.0 * 2 * np.pi) % (2 * np.pi)
        vs.append(_oscillator(n_c, adc[:, col] / scale)
                  * np.exp(-1j * ns[:, None] * theta[None, :]))
    v = (vs[0][:, None, :] * vs[1][None, :, :]).reshape((n_c + 1) ** 2, -1).T
    p = np.clip(np.einsum("ij,ij->i", v.conj() @ rho, v).real, 1e-12, None)
    r = (v.T / p) @ v.conj()
    r = 0.5 * (r + r.conj().T)
    return float(np.linalg.eigvalsh(r)[-1] - len(records))


def check_calibration(delays, scales, cfg: dict) -> list:
    """Delays equal true delay + server offset + 1; shot-noise scales are
    within 2% of the ADC scale (vacuum variance 1/2)."""
    problems = []
    want = [cfg["true_delay_a"] + cfg["server_offset_a"] - COARSE_OFFSET,
            cfg["true_delay_b"] + cfg["server_offset_b"] - COARSE_OFFSET]
    if list(delays) != want:
        problems.append(f"calibrated delays {list(delays)}, expected {want}")
    for s in scales:
        if abs(s / cfg["adc_scale"] - 1.0) > 0.02:
            problems.append(f"shot-noise scale {s:.2f} is not within 2% of "
                            f"{cfg['adc_scale']}")
    return problems


def check_targets(data: dict, targets: dict) -> list:
    return [f"class {cls}: {data[cls].size if cls in data else 0} records, "
            f"target {target}"
            for cls, target in targets.items()
            if cls not in data or data[cls].size < target]


def check_nominal(out_dir, cfg: dict) -> list:
    """Checks of one run_experiment output bundle against the config.

    cfg keys: true_delay_a/b, server_offset_a/b, adc_scale, class_targets
    ({(n, m): count}), epsilon, n_c.
    """
    with open(os.path.join(out_dir, "report.json")) as fh:
        rep = json.load(fh)
    scales = rep["shot_noise_scale"]
    problems = check_calibration(rep["delays"], scales, cfg)
    data = read_dataset(os.path.join(out_dir, "datasets"))
    problems += check_targets(data, cfg["class_targets"])
    with open(os.path.join(out_dir, "report.txt")) as fh:
        problems += check_ledger(parse_counters(fh.read()))
    if problems:
        return problems

    states = {}
    for name in ("rec00", "rec11", "exp11"):
        n_c, states[name] = read_state(os.path.join(out_dir, f"state_{name}.tms"))
        if n_c != cfg["n_c"]:
            problems.append(f"state_{name} has cutoff {n_c}")
    if problems:
        return problems
    for cls in ((0, 0), (1, 1)):
        recs = data[cls][:cfg["class_targets"][cls]]
        bound = stopping_bound(recs, scales, cfg["n_c"],
                               states[f"rec{cls[0]}{cls[1]}"])
        if not bound < cfg["epsilon"] * len(recs):
            problems.append(f"class {cls} reconstruction not converged: "
                            f"bound {bound:.4g} >= {cfg['epsilon'] * len(recs):.4g}")
    f11 = fidelity(states["rec11"], states["exp11"])
    if f11 < 0.96:
        problems.append(f"F(rec11, exp11) = {f11:.4f} < 0.96")
    en00 = log_negativity(states["rec00"], cfg["n_c"])
    en11 = log_negativity(states["rec11"], cfg["n_c"])
    if not en11 > en00:
        problems.append(f"E_N(rec11) = {en11:.4f} is not above "
                        f"E_N(rec00) = {en00:.4f}")
    return problems
