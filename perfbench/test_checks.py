"""Self-tests of the benchmark's output checks: each check passes on a
correct output built here from the definitions, and fails on the same
output with one flipped word, one dropped record or one shifted delay.

    python3 -m pytest perfbench/test_checks.py -q
"""

import numpy as np
import pytest

import checks
import inputs

HALF = 8192
CAPACITY = 2 * HALF
DELAYS = (3, 5)


# ---------------------------------------------------------------------------
# wire-query
# ---------------------------------------------------------------------------

def test_words_pass_and_include_placeholders():
    tags = np.arange(1, 5000)
    words = inputs.expected_words(tags, 0)
    assert np.count_nonzero(words == inputs.PLACEHOLDER_WORD) > 0
    assert checks.check_words(tags, words) == []


def test_words_flipped_bit_fails():
    tags = np.arange(1, 5000)
    words = inputs.expected_words(tags, 0)
    words[1234] ^= np.uint32(1 << 7)
    assert checks.check_words(tags, words)


def test_words_dropped_word_fails():
    tags = np.arange(1, 5000)
    assert checks.check_words(tags, inputs.expected_words(tags, 0)[:-1])


def test_words_shifted_tag_fails():
    tags = np.arange(1, 5000)
    assert checks.check_words(tags, inputs.expected_words(tags + 1, 0))


# ---------------------------------------------------------------------------
# orchestrator-loop
# ---------------------------------------------------------------------------

def _pack(a, b):
    """Signature words carrying side sums a, b at sub-bin 6 of each side."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    lo = (np.minimum(a, 7) << np.uint64(18)) | (a << np.uint64(27))
    hi = (np.minimum(b, 7) << np.uint64(18)) | (b << np.uint64(27))
    return lo | (hi << np.uint64(32))


def _correct_outputs(delays=DELAYS):
    """What a correct orchestrator returns for the isolated heralds of two
    halves: the emitted events, the records and a balanced ledger."""
    halves = inputs.draw_heralds(7, 2, HALF)
    halves[0] = inputs.add_step_down_herald(halves[0], HALF, 0, 0, delays[0])
    halves[1] = inputs.add_step_down_herald(halves[1], HALF, HALF, 1, delays[1])
    heralds = {
        "coarse": np.concatenate([c + e * HALF
                                  for e, (c, _, _) in enumerate(halves)]),
        "n": np.concatenate([h[1] for h in halves]),
        "m": np.concatenate([h[2] for h in halves]),
        "isolated": np.concatenate([inputs.isolated(h[0]) for h in halves]),
    }
    iso = heralds["isolated"]
    coarse, n, m = heralds["coarse"][iso], heralds["n"][iso], heralds["m"][iso]
    emitted = (3 * coarse + 22, _pack(n, m))
    tag = coarse - 1
    qa = (tag + delays[0]) % CAPACITY
    qb = (tag + delays[1]) % CAPACITY
    keep = ((n > 0) & (m > 0) & ~inputs.drive_steps_down(qa, 0)
            & ~inputs.drive_steps_down(qb, 1))
    rec = np.zeros(int(keep.sum()), dtype=checks.RECORD_DTYPE)
    rec["signature"] = _pack(n[keep], m[keep])
    rec["overflow"] = tag[keep] // CAPACITY
    rec["timetag"] = tag[keep] % CAPACITY
    rec["adc"] = np.stack([inputs.homodyne_codes(qa[keep], 0),
                           inputs.drive_codes(qa[keep], 0),
                           inputs.homodyne_codes(qb[keep], 1),
                           inputs.drive_codes(qb[keep], 1)], axis=1)
    cand = int(np.count_nonzero((n > 0) & (m > 0)))
    ledger = {"triggered": coarse.size, "gated out": coarse.size - cand,
              "hold dropped": 0, "seed dropped": 0, "deferred": 0,
              "placeholder excluded": cand - rec.size, "kept": rec.size}
    return heralds, emitted, rec, ledger


def _check(heralds, emitted, rec, ledger):
    return checks.check_orchestrator(heralds, emitted, rec, CAPACITY, DELAYS,
                                     ledger)


def test_orchestrator_correct_output_passes():
    heralds, emitted, rec, ledger = _correct_outputs()
    assert ledger["placeholder excluded"] >= 2
    assert _check(heralds, emitted, rec, ledger) == []


def test_orchestrator_flipped_word_fails():
    heralds, emitted, rec, ledger = _correct_outputs()
    rec["adc"][rec.size // 2, 2] ^= 1
    assert _check(heralds, emitted, rec, ledger)


def test_orchestrator_dropped_record_fails():
    heralds, emitted, rec, ledger = _correct_outputs()
    assert _check(heralds, emitted, np.delete(rec, 3), ledger)


def test_orchestrator_shifted_delay_fails():
    heralds, emitted, _, ledger = _correct_outputs()
    _, _, shifted, _ = _correct_outputs((DELAYS[0] + 1, DELAYS[1]))
    assert _check(heralds, emitted, shifted, ledger)


def test_orchestrator_missing_trigger_event_fails():
    heralds, (emit, sig), rec, ledger = _correct_outputs()
    assert _check(heralds, (emit[1:], sig[1:]), rec, ledger)


def test_ledger_imbalance_fails():
    heralds, emitted, rec, ledger = _correct_outputs()
    ledger["kept"] -= 1
    assert _check(heralds, emitted, rec, ledger)


# ---------------------------------------------------------------------------
# nominal-run
# ---------------------------------------------------------------------------

CFG = {"true_delay_a": 17, "true_delay_b": 22, "server_offset_a": 1,
       "server_offset_b": 2, "adc_scale": 800.0}


def test_calibration_passes_and_shifted_delay_fails():
    assert checks.check_calibration([19, 25], [805.3, 808.1], CFG) == []
    assert checks.check_calibration([19, 26], [805.3, 808.1], CFG)
    assert checks.check_calibration([19, 25], [805.3, 830.0], CFG)


def test_targets_dropped_record_fails():
    data = {(1, 1): np.zeros(100, checks.RECORD_DTYPE)}
    assert checks.check_targets(data, {(1, 1): 100}) == []
    assert checks.check_targets({(1, 1): data[(1, 1)][1:]}, {(1, 1): 100})


def _converged_state(records, scales, n_c, iterations=3000):
    """Plain R rho R from the maximally mixed state, written out here as
    the reference the bound check is tested against."""
    d = (n_c + 1) ** 2
    rho = np.eye(d, dtype=complex) / d
    for _ in range(iterations):
        adc = records["adc"].astype(float)
        ns = np.arange(n_c + 1)
        vs = []
        for col, scale in ((0, scales[0]), (2, scales[1])):
            th = ((adc[:, col + 1] + 8192) / 16384 * 2 * np.pi) % (2 * np.pi)
            vs.append(checks._oscillator(n_c, adc[:, col] / scale)
                      * np.exp(-1j * ns[:, None] * th[None, :]))
        v = (vs[0][:, None, :] * vs[1][None, :, :]).reshape(d, -1).T
        p = np.einsum("ij,ij->i", v.conj() @ rho, v).real
        r = (v.T / p) @ v.conj()
        if np.linalg.eigvalsh(0.5 * (r + r.conj().T))[-1] - len(records) \
                < 1e-9 * len(records):
            return rho
        rho = r @ rho @ r
        rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
    raise AssertionError("reference iteration did not converge")


def test_stopping_bound_flags_a_flipped_record():
    rng = np.random.default_rng(3)
    rec = np.zeros(400, dtype=checks.RECORD_DTYPE)
    rec["adc"][:, 0] = np.rint(rng.normal(0, 0.9, 400) * 800)
    rec["adc"][:, 2] = np.rint(rng.normal(0, 0.8, 400) * 800)
    rec["adc"][:, 1] = rng.integers(-8192, 8192, 400)
    rec["adc"][:, 3] = rng.integers(-8192, 8192, 400)
    scales = (800.0, 800.0)
    rho = _converged_state(rec, scales, 1)
    eps_n = 1e-6 * rec.size
    assert checks.stopping_bound(rec, scales, 1, rho) < eps_n
    rec["adc"][17, 0] = -rec["adc"][17, 0] + 1500
    assert checks.stopping_bound(rec, scales, 1, rho) >= eps_n


def test_fidelity_and_log_negativity_reference_values():
    bell = np.zeros(4)
    bell[[0, 3]] = 2 ** -0.5                 # (|00> + |11>) / sqrt 2, n_c = 1
    rho = np.outer(bell, bell).astype(complex)
    mixed = np.eye(4, dtype=complex) / 4
    assert checks.log_negativity(rho, 1) == pytest.approx(1.0)
    assert checks.log_negativity(mixed, 1) == pytest.approx(0.0, abs=1e-12)
    assert checks.fidelity(rho, rho) == pytest.approx(1.0)
    assert checks.fidelity(rho, mixed) == pytest.approx(0.25)
