"""Physics-to-bits stream generator.

Turns the analytic subtracted states into synchronized detector-pulse and
dual-ADC sample streams.  Correlation is exact-bin: the quadrature pair of
a herald of class (n, m) is drawn jointly from the class state at the
instantaneous LO phases and written at herald + true delay on each server;
every other timetag carries a draw from the no-subtraction state, realized
through its exact Gaussian covariance and pairwise-correlated across
servers at the same relative shift.  Dark heralds leave the background in
place.  All randomness flows from counter-based Philox streams keyed by
(master seed, stream id, chunk index), so streams are bit-reproducible and
chunk-order independent.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from ..fock_core import lossy_subtracted_state, success_probability
from ..hds.server import HomodyneServer
from ..hds.words import ADC_MAX, ADC_MIN
from ..homodyne_model import PhaseDrive, QuadratureSampler
from ..parallel import ahead
from ..pso.pipeline import (SUBBINS_PER_COARSE, TREE_DETECTORS,
                            coincidence_pipeline)

CHUNK = 1 << 22  # background generation chunk, samples
WINDOW = 1 << 18  # generation and ingest window, samples; divides CHUNK
HERALD_SUBBIN = 1       # sub-bin of its coarse bin where a pulse lands
DEAD_TIME_BINS = 4      # per tree detector, coarse bins
DARK_HERALD_FRACTION = 0.01     # heralds that leave the background in place
SIDE_CLASS_CAP = 2              # heralded classes (n, m) have n, m <= cap
# LO phase drives: mode A slow, mode B fast, each with a 0.1% flyback
DRIVE_A = PhaseDrive(1_000.0)
DRIVE_B = PhaseDrive(10_000.0)
# pulsed-thermal calibration stream (thermal_epoch)
THERMAL_THRESHOLD_CODE = 4000
THERMAL_PULSE_PERIOD = 1000     # coarse bins: 100 kHz
_PULSE_WIDTH = 5                # bins per bump
_NOISE_CROSSING_RATE = 0.01     # single-bin spikes per bin
_DARK_TAG_FRACTION = 0.02       # dark detector tags per pulse

_STREAM_HERALDS = 11
_STREAM_CLASSES = 12
_STREAM_Z1 = 13
_STREAM_Z2 = 14
_STREAM_DRAWS = 15
_STREAM_VACUUM_A = 16
_STREAM_VACUUM_B = 17
_STREAM_CAL = 18


def periodic(table, lo: int, hi: int) -> np.ndarray:
    """table[t % len(table)] for t in [lo, hi), copied from contiguous
    slices instead of gathered."""
    n, out = table.size, np.empty(hi - lo, table.dtype)
    for t0 in range(lo - lo % n, hi, n):    # one slice per period touched
        a, b = max(lo, t0), min(hi, t0 + n)
        out[a - lo:b - lo] = table[a - t0:b - t0]
    return out


def _rng(seed, stream, counter=0) -> np.random.Generator:
    # counter-based stream: (seed, stream id) in one key word, the chunk
    # counter in the other, so any sub-stream regenerates independently
    return np.random.Generator(np.random.Philox(
        key=np.array([(seed << 16) + stream, counter], dtype=np.uint64)))


@dataclass
class HeraldPlan:
    coarse: np.ndarray
    cls_n: np.ndarray
    cls_m: np.ndarray
    dark: np.ndarray
    detector_subbins: np.ndarray = field(default=None)
    detector_sides: np.ndarray = field(default=None)
    detector_tree_idx: np.ndarray = field(default=None)


def herald_subbins(coarse):
    """300-MHz sub-bin of a detector pulse in each coarse bin."""
    return SUBBINS_PER_COARSE * coarse + HERALD_SUBBIN


# fixed trigger-pipeline offset: the coarse tag the trigger gives a lone
# herald that the generator placed in coarse bin 0 (see pso.pipeline)
PIPELINE_COARSE_OFFSET = int(coincidence_pipeline(
    herald_subbins(np.zeros(1, np.int64)), [0])["coarse"][0])


class StreamGenerator:
    """Sample and pulse streams of one ExperimentConfig (validated here)."""

    def __init__(self, config):
        self.config = config.validate()
        lam = config.model(0, 0).effective_squeezing
        self._lam = lam
        self._nbar = lam * lam / (1.0 - lam * lam)
        self._sig_a = np.sqrt(0.5 + config.eta1 * self._nbar)
        self._sig_b = np.sqrt(0.5 + config.eta2 * self._nbar)
        self._cov_amp = (np.sqrt(config.eta1 * config.eta2) * lam
                         / (1.0 - lam * lam))
        self._class_table = self._build_class_table()
        # one period of the background correlation at mode time tau and of
        # its complement, the drives' common period lcm(1e5, 1e4) samples
        tau = np.arange(np.lcm(DRIVE_A.period_samples, DRIVE_B.period_samples))
        th1 = DRIVE_A.evaluate(tau + config.true_delay_a)[0]
        th2 = DRIVE_B.evaluate(tau + config.true_delay_b)[0]
        self._rho_c = -self._cov_amp * np.cos(th1 + th2) / (
            self._sig_a * self._sig_b)
        self._rho_c_perp = np.sqrt(1.0 - self._rho_c ** 2)
        self._samplers: dict = {}
        self._z_state: dict = {}    # stream -> (chunk, rng, start, normals)

    # ------------------------------------------------------------------
    def _build_class_table(self):
        classes = [(n, m) for n in range(SIDE_CLASS_CAP + 1)
                   for m in range(SIDE_CLASS_CAP + 1)
                   if (n, m) != (0, 0)]
        weights = np.array([success_probability(self.config.model(n, m))
                            for n, m in classes])
        return classes, weights / weights.sum()

    def class_sampler(self, cls) -> QuadratureSampler:
        if cls not in self._samplers:
            state = lossy_subtracted_state(self.config.model(*cls),
                                           self.config.n_c)
            self._samplers[cls] = QuadratureSampler(state)
        return self._samplers[cls]

    # ------------------------------------------------------------------
    def plan_heralds(self, lo: int, hi: int) -> HeraldPlan:
        """Herald times, classes and dark flags over coarse bins [lo, hi).

        Arrival times are Poisson at the configured rate; heralds may fall
        arbitrarily close together (the orchestrator's hold filter deals
        with that), but each tree detector observes its dead time,
        silently missing photons that arrive too soon.
        """
        cfg = self.config
        rng = _rng(cfg.seed, _STREAM_HERALDS, lo)
        span = hi - lo
        rate_per_bin = cfg.herald_rate_hz / HomodyneServer.SAMPLE_RATE_HZ
        n = rng.poisson(rate_per_bin * span)
        coarse = np.sort(rng.integers(lo, hi, size=n).astype(np.int64))
        classes, weights = self._class_table
        pick = _rng(cfg.seed, _STREAM_CLASSES, lo)
        idx = pick.choice(len(classes), size=coarse.size, p=weights)
        cls = np.array(classes, dtype=np.int64)[idx] if coarse.size else \
            np.zeros((0, 2), dtype=np.int64)
        dark = pick.random(coarse.size) < DARK_HERALD_FRACTION
        plan = HeraldPlan(coarse=coarse, cls_n=cls[:, 0], cls_m=cls[:, 1],
                          dark=dark)
        self._attach_detector_pulses(plan, pick)
        return plan

    def _attach_detector_pulses(self, plan: HeraldPlan,
                                rng: np.random.Generator):
        """One pulse per subtracted photon on distinct tree detectors, all
        at the same fixed sub-bin of the herald's coarse bin.

        The trigger sums counts per side immediately, so the tree index
        matters only through the per-detector dead time; a detector
        hit again too soon drops the later pulse, which downgrades the
        apparent signature of that herald exactly as real inefficiency
        would.
        """
        h = plan.coarse.size
        base = herald_subbins(plan.coarse)
        empty = np.zeros(0, dtype=np.int64)
        parts = [(empty, empty, empty)]
        for side, counts in ((0, plan.cls_n), (1, plan.cls_m)):
            rep = np.repeat(np.arange(h), counts)
            if rep.size == 0:
                continue
            starts = np.cumsum(counts) - counts
            within = np.arange(rep.size) - np.repeat(starts, counts)
            # rotate a random starting detector: photons of one herald land
            # on distinct detectors since counts never exceed the tree
            first = rng.integers(0, TREE_DETECTORS, size=h)
            parts.append((base[rep], np.full(rep.size, side),
                          (first[rep] + within) % TREE_DETECTORS))
        (plan.detector_subbins, plan.detector_sides,
         plan.detector_tree_idx) = (np.concatenate(c) for c in zip(*parts))
        self._enforce_dead_time(plan)

    def _enforce_dead_time(self, plan: HeraldPlan):
        keep = np.ones(plan.detector_subbins.size, dtype=bool)
        coarse = plan.detector_subbins // SUBBINS_PER_COARSE
        det_key = plan.detector_sides * TREE_DETECTORS + plan.detector_tree_idx
        for key in np.unique(det_key):
            sel = np.nonzero(det_key == key)[0]
            tags = coarse[sel]
            order = np.argsort(tags, kind="stable")
            tags = tags[order]
            if tags.size < 2 or np.diff(tags).min() >= DEAD_TIME_BINS:
                continue
            alive = np.ones(sel.size, dtype=bool)
            last = -(DEAD_TIME_BINS + 1)
            for i, t in enumerate(tags):
                if t - last < DEAD_TIME_BINS:
                    alive[i] = False
                else:
                    last = t
            keep[sel[order]] = alive
        plan.detector_subbins = plan.detector_subbins[keep]
        plan.detector_sides = plan.detector_sides[keep]
        plan.detector_tree_idx = plan.detector_tree_idx[keep]

    # ------------------------------------------------------------------
    def heralded_draws(self, plan: HeraldPlan, stream_key: int = 0):
        """Joint (x1, x2) per non-dark herald at the sample-time phases."""
        cfg = self.config
        x1 = np.zeros(plan.coarse.size)
        x2 = np.zeros(plan.coarse.size)
        th1 = DRIVE_A.evaluate(plan.coarse + cfg.true_delay_a)[0]
        th2 = DRIVE_B.evaluate(plan.coarse + cfg.true_delay_b)[0]
        rng = _rng(cfg.seed, _STREAM_DRAWS, stream_key)
        # the classes present, in sorted order: they share one stream
        for cls in [(n, m) for n in np.unique(plan.cls_n).tolist()
                    for m in np.unique(plan.cls_m[plan.cls_n == n]).tolist()]:
            sel = ((plan.cls_n == cls[0]) & (plan.cls_m == cls[1])
                   & ~plan.dark)
            if not np.any(sel):
                continue
            sampler = self.class_sampler(cls)
            a, b = sampler.sample_batch(th1[sel], th2[sel], rng)
            x1[sel] = a
            x2[sel] = b
        return x1, x2

    # ------------------------------------------------------------------
    def _z_stream(self, stream: int, tau_lo: int, tau_hi: int) -> np.ndarray:
        """Chunk-keyed standard normals over mode-time indices; negative
        indices (pre-run tail shorter than a delay) stay reproducible."""
        out = np.empty(tau_hi - tau_lo)
        for c in range(tau_lo // CHUNK, (tau_hi - 1) // CHUNK + 1):
            a0 = max(tau_lo, c * CHUNK)
            a1 = min(tau_hi, (c + 1) * CHUNK)
            out[a0 - tau_lo:a1 - tau_lo] = self._chunk_normals(
                stream, c, a0 - c * CHUNK, a1 - c * CHUNK)
        return out

    def _chunk_normals(self, stream: int, c: int, i0: int, i1: int):
        """Normals [i0, i1) of chunk c, drawn in order from the chunk's
        generator: a normal takes a variable number of raw draws, so the
        stream cannot seek, but drawing it in pieces gives the same values
        as one call.  Each stream keeps its generator and the normals from
        its last i0 on, so consecutive windows, which overlap by the delay
        difference, draw each normal once."""
        chunk, rng, start, block = self._z_state.get(stream, (None,) * 4)
        if chunk != c or i0 < start:
            chunk, start, block = c, 0, np.zeros(0)
            rng = _rng(self.config.seed, stream, c + (1 << 32))
        drawn = start + block.size
        for lo in range(drawn, i0, WINDOW):     # skip ahead, keeping nothing
            rng.standard_normal(min(WINDOW, i0 - lo))
        block = np.concatenate([block[i0 - start:], rng.standard_normal(
            max(i1 - max(drawn, i0), 0))])
        self._z_state[stream] = (chunk, rng, i0, block)
        return block[:i1 - i0]

    def _mix(self, tau_lo: int, z1, z2):
        """(sig_a z1, sig_b (rho z1 + rho_perp z2)) from the two streams'
        normals from mode time tau_lo on, in place where it can be: fresh
        window-sized temporaries cost page faults on the ingesting thread."""
        tau_hi = tau_lo + z1.size
        x_b = periodic(self._rho_c, tau_lo, tau_hi)
        x_b *= z1
        t = periodic(self._rho_c_perp, tau_lo, tau_hi)
        t *= z2
        x_b += t
        x_b *= self._sig_b
        return self._sig_a * z1, x_b

    def to_codes(self, x) -> np.ndarray:
        code = np.asarray(x) * self.config.adc_scale
        code = np.rint(code, out=code).astype(np.int64)
        return np.clip(code, ADC_MIN, ADC_MAX, out=code)

    # ------------------------------------------------------------------
    def fill_epoch(self, server_a, server_b, epoch: int, half: int,
                   plan: HeraldPlan):
        """Generate and ingest one half-buffer of samples on both servers.

        The shutter window at the start of the run carries uncorrelated
        vacuum on both channels for shot-noise calibration.  Servers whose
        clocks started with a residual offset simply receive the stream
        later; their local tags shift accordingly.
        """
        cfg = self.config
        lo = epoch * half
        hi = lo + half
        # each channel carries its mode-time stream shifted by its own path
        # delay, so samples pair up at equal mode time; one pair over the
        # union of both mode-time windows serves both
        d_lo, d_hi = sorted((cfg.true_delay_a, cfg.true_delay_b))
        # heralded overrides prepared once per epoch; per channel: its
        # offset into the pair, the sorted sample positions of the non-dark
        # heralds and their draws, its drive and its server
        hx1 = hx2 = np.zeros(0)
        if plan.coarse.size:
            hx1, hx2 = self.heralded_draws(plan, stream_key=epoch)
        lit = ~plan.dark
        channels = [
            (d_hi - delay, plan.coarse[lit] + delay, x[lit], drive, server)
            for delay, x, drive, server in (
                (cfg.true_delay_a, hx1, DRIVE_A, server_a),
                (cfg.true_delay_b, hx2, DRIVE_B, server_b))]
        starts = range(lo, hi, WINDOW)

        def normals(stream):
            # a stream's windows, drawn a window ahead on one thread
            return closing(ahead(lambda w: self._z_stream(
                stream, w - d_hi, min(w + WINDOW, hi) - d_lo), starts))

        with normals(_STREAM_Z1) as z1s, normals(_STREAM_Z2) as z2s:
            for w_lo, z1, z2 in zip(starts, z1s, z2s):
                w_hi = min(w_lo + WINDOW, hi)
                # shutter-closed vacuum at the start of the run: one stream
                # per chunk, keyed by the chunk start, drawn window by window
                if (w_lo - lo) % CHUNK == 0:
                    vacuum = [_rng(cfg.seed, key, w_lo)
                              for key in (_STREAM_VACUUM_A, _STREAM_VACUUM_B)]
                n_shut = min(w_hi, cfg.shutter_bins) - w_lo
                for x, vac, (shift, pos, vals, drive, server) in zip(
                        self._mix(w_lo - d_hi, z1, z2), vacuum, channels):
                    x = x[shift:][:w_hi - w_lo]
                    if n_shut > 0:
                        x[:n_shut] = np.sqrt(0.5) * vac.standard_normal(n_shut)
                    i0, i1 = np.searchsorted(pos, (w_lo, w_hi))
                    x[pos[i0:i1] - w_lo] = vals[i0:i1]
                    server.ingest_samples(self.to_codes(x), periodic(
                        drive.period_table[1], w_lo, w_hi))

    # ------------------------------------------------------------------
    # thermal delay calibration streams
    # ------------------------------------------------------------------
    def thermal_epoch(self, server, side: int, half: int):
        """Pulsed-thermal calibration data for one server and side.

        Returns (detector_subbins, detector_sides).  Each 100-kHz pulse
        puts a detector tag at its onset bin and a noisy bump on the
        server's homodyne channel at onset + true delay; per-bin bump
        values straddle the threshold so crossings spread over the pulse.
        Sparse single-bin noise spikes set the accidental-coincidence
        floor that fixes the cross-correlation SNR scale.
        """
        cfg = self.config
        rng = _rng(cfg.seed, _STREAM_CAL, 1000 + side)
        delay = cfg.true_delay_a if side == 0 else cfg.true_delay_b
        a = rng.integers(-500, 500, size=half)
        onsets = np.arange(100, half - _PULSE_WIDTH - delay - 2,
                           THERMAL_PULSE_PERIOD)
        # bump: each bin independently above threshold with p = 0.45
        above = rng.random((onsets.size, _PULSE_WIDTH)) < 0.45
        amp = np.where(above, THERMAL_THRESHOLD_CODE
                       + rng.integers(100, 3000, size=above.shape),
                       rng.integers(0, 2000, size=above.shape))
        for j in range(_PULSE_WIDTH):
            a[onsets + delay + j] = amp[:, j]
        # single-bin noise spikes for the accidental floor
        n_noise = rng.poisson(_NOISE_CROSSING_RATE * half)
        noise_pos = rng.integers(0, half, size=n_noise)
        a[noise_pos] = THERMAL_THRESHOLD_CODE + 1000
        drive = DRIVE_A if side == 0 else DRIVE_B
        for lo in range(0, half, WINDOW):
            hi = min(lo + WINDOW, half)
            server.ingest_samples(np.clip(a[lo:hi], ADC_MIN, ADC_MAX),
                                  periodic(drive.period_table[1], lo, hi))
        # detector tags: pulse onsets plus a few dark counts
        n_dark = rng.poisson(_DARK_TAG_FRACTION * onsets.size)
        dark_tags = rng.integers(0, half, size=n_dark)
        tags = np.sort(np.concatenate([onsets, dark_tags]))
        return herald_subbins(tags), np.full(tags.size, side)
