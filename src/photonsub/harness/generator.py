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

Window pipeline: `fill_epoch` makes and ingests WINDOW samples at a time in
buffers it keeps for the epoch.  Each normal stream fills two buffers in
turn, a window ahead on its own `ahead` thread: window k + 2 reuses window
k's buffer, since `ahead` submits it only once the caller has asked for
window k + 1.  `_mix` forms the pair in place, tables are read as slices,
and codes are rounded and clipped in float into one int16 buffer.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from ..fock_core import lossy_subtracted_state, success_probability
from ..hds.buffer import SAMPLE_RATE_HZ
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
_Z_TAIL = 1024      # normals a stream keeps: more than any delay difference


def tiled(table, window: int):
    """Reader of table[t % len(table)] for t in [lo, lo + n <= window)."""
    period, data = len(table), np.resize(table, len(table) + window)
    return lambda lo, n: data[lo % period:lo % period + n]


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
        nbar = lam * lam / (1.0 - lam * lam)
        self._sig_a = np.sqrt(0.5 + config.eta1 * nbar)
        self._sig_b = np.sqrt(0.5 + config.eta2 * nbar)
        self._cov_amp = (np.sqrt(config.eta1 * config.eta2) * lam
                         / (1.0 - lam * lam))
        self._class_table = self._build_class_table()
        # one period of the background correlation at mode time tau and of
        # its complement, the drives' common period lcm(1e5, 1e4) samples
        tau = np.arange(np.lcm(DRIVE_A.period_samples, DRIVE_B.period_samples))
        th1 = DRIVE_A.evaluate(tau + config.true_delay_a)[0]
        th2 = DRIVE_B.evaluate(tau + config.true_delay_b)[0]
        rho = -self._cov_amp * np.cos(th1 + th2) / (self._sig_a * self._sig_b)
        # one period plus the longest read: a mix window, or a sample window
        span = WINDOW + abs(config.true_delay_a - config.true_delay_b)
        self._rho_c = tiled(rho, span)
        self._rho_c_perp = tiled(np.sqrt(1.0 - rho ** 2), span)
        self._drive_codes = [tiled(d.period_table[1].astype(np.int16), WINDOW)
                             for d in (DRIVE_A, DRIVE_B)]
        self._samplers: dict = {}
        self._z_state: dict = {}    # stream -> (chunk, rng, drawn, tail)

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
        rate_per_bin = cfg.herald_rate_hz / SAMPLE_RATE_HZ
        n = rng.poisson(rate_per_bin * span)
        coarse = np.sort(rng.integers(lo, hi, size=n).astype(np.int64))
        classes, weights = self._class_table
        pick = _rng(cfg.seed, _STREAM_CLASSES, lo)
        idx = pick.choice(len(classes), size=coarse.size, p=weights)
        cls = np.array(classes, dtype=np.int64)[idx]
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
        parts = [(np.zeros(0, dtype=np.int64),) * 3]
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
            sel = sel[np.argsort(coarse[sel], kind="stable")]
            tags = coarse[sel]
            if tags.size < 2 or np.diff(tags).min() >= DEAD_TIME_BINS:
                continue
            last = -(DEAD_TIME_BINS + 1)
            for i, t in zip(sel.tolist(), tags.tolist()):
                keep[i] = t - last >= DEAD_TIME_BINS
                last = t if keep[i] else last
        plan.detector_subbins = plan.detector_subbins[keep]
        plan.detector_sides = plan.detector_sides[keep]
        plan.detector_tree_idx = plan.detector_tree_idx[keep]

    # ------------------------------------------------------------------
    def heralded_draws(self, plan: HeraldPlan, stream_key: int = 0):
        """Joint (x1, x2) per non-dark herald at the sample-time phases."""
        cfg = self.config
        x1, x2 = np.zeros((2, plan.coarse.size))
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
            x1[sel], x2[sel] = self.class_sampler(cls).sample_batch(
                th1[sel], th2[sel], rng)
        return x1, x2

    # ------------------------------------------------------------------
    def _z_stream(self, stream: int, tau_lo: int, out) -> np.ndarray:
        """Fill `out` with the chunk-keyed standard normals of mode times
        [tau_lo, tau_lo + out.size), negative ones too, and return it.  A
        chunk's generator cannot seek (a normal takes a variable number of
        raw draws), but drawing in pieces gives the same values as one call:
        each stream keeps its generator, count drawn and last _Z_TAIL normals,
        so windows overlapping by the delay difference draw each once."""
        if out.size == 0:
            return out
        for t0 in range(tau_lo - tau_lo % CHUNK, tau_lo + out.size, CHUNK):
            i0 = max(tau_lo - t0, 0)        # chunk t0 // CHUNK from i0 on
            piece = out[t0 + i0 - tau_lo:t0 + CHUNK - tau_lo]
            chunk, rng, drawn, tail = self._z_state.get(stream, (None,) * 4)
            if chunk != t0 or i0 < drawn - tail.size:
                chunk, drawn, tail = t0, 0, np.zeros(0)
                rng = _rng(self.config.seed, stream, t0 // CHUNK + (1 << 32))
            while drawn < i0:   # skip ahead through `out`, before `piece`
                drawn += rng.standard_normal(out=out[:i0 - drawn]).size
            k = min(drawn - i0, piece.size)     # normals the tail holds
            piece[:k] = tail[tail.size - (drawn - i0):][:k]
            if k < piece.size:
                rng.standard_normal(out=piece[k:])
                drawn, tail = i0 + piece.size, piece[-_Z_TAIL:].copy()
            self._z_state[stream] = (chunk, rng, drawn, tail)
        return out

    def _mix(self, tau_lo: int, z1, z2, x_b):
        """The pair (sig_a z1, sig_b (rho z1 + rho_perp z2)) over mode times
        from tau_lo on, written over z1 and into x_b; z2 is scratch."""
        np.multiply(self._rho_c(tau_lo, z1.size), z1, out=x_b)
        z2 *= self._rho_c_perp(tau_lo, z1.size)
        x_b += z2
        x_b *= self._sig_b
        return np.multiply(z1, self._sig_a, out=z1), x_b

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
        lit = ~plan.dark
        channels = [
            (d_hi - delay, plan.coarse[lit] + delay, x[lit], drive, server)
            for delay, x, drive, server in zip(
                (cfg.true_delay_a, cfg.true_delay_b),
                self.heralded_draws(plan, stream_key=epoch),
                self._drive_codes, (server_a, server_b))]
        starts = range(lo, hi, WINDOW)
        x_b, codes = np.empty(WINDOW + d_hi - d_lo), np.empty(WINDOW, np.int16)

        def normals(stream):    # window k fills buffer k % 2 (module doc)
            bufs = np.empty((2, x_b.size))
            return closing(ahead(lambda k: self._z_stream(
                stream, starts[k] - d_hi, bufs[k % 2, :x_b.size - WINDOW
                                               + min(WINDOW, hi - starts[k])]),
                range(len(starts))))

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
                        self._mix(w_lo - d_hi, z1, z2, x_b[:z1.size]),
                        vacuum, channels):
                    x = x[shift:][:w_hi - w_lo]
                    if n_shut > 0:
                        vac.standard_normal(out=x[:n_shut])
                        x[:n_shut] *= np.sqrt(0.5)
                    i0, i1 = np.searchsorted(pos, (w_lo, w_hi))
                    x[pos[i0:i1] - w_lo] = vals[i0:i1]
                    x *= cfg.adc_scale
                    np.clip(np.rint(x, out=x), ADC_MIN, ADC_MAX, out=x)
                    codes[:x.size] = x
                    server.ingest_samples(codes[:x.size], drive(w_lo, x.size))

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
        codes = np.empty(WINDOW, np.int16)
        for lo in range(0, half, WINDOW):
            hi = min(lo + WINDOW, half)
            server.ingest_samples(np.clip(a[lo:hi], ADC_MIN, ADC_MAX,
                                          out=codes[:hi - lo]),
                                  self._drive_codes[side](lo, hi - lo))
        # detector tags: pulse onsets plus a few dark counts
        n_dark = rng.poisson(_DARK_TAG_FRACTION * onsets.size)
        dark_tags = rng.integers(0, half, size=n_dark)
        tags = np.sort(np.concatenate([onsets, dark_tags]))
        return herald_subbins(tags), np.full(tags.size, side)
