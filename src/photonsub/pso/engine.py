"""Photon-subtraction orchestrator: event filtering, HDS queries, triage.

The engine consumes triggered events half-buffer by half-buffer, mirroring
the hardware loop that waits for the timestamp counter to cross the half
boundary and then drains the event buffer.  For every kept event it
queries both homodyne servers at the event timetag plus the per-mode
calibrated delay, excludes placeholder (flyback) responses, and triages
the records into per-signature-class datasets.  Events whose query tags
have not sealed yet are retried on the next epoch; a staleness error
aborts the batch for that epoch, as the hardware does.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from ..hds import protocol as hds_protocol
from ..hds.buffer import DEFAULT_PAGES, PAGE_WORDS
from ..hds.words import is_placeholder, unpack_words
from ..textcontrol import ON_OFF, get_reply, parse, parse_set, show
from .centroid import SUM_MASK, signature_class
from .pipeline import (EVENT_DTYPE, TREE_DETECTORS, coincidence_gate,
                       coincidence_pipeline, hold_time_filter,
                       seed_rejection_filter, zero_detection_tags)
from .records import DatasetWriter, RunReport, build_records

HERALD_DTYPE = np.dtype([("emit_subbin", "<i8"), ("signature", "<u8")])
# widest query delay and hold window, coarse bins: the delay calibration
# scans this many lags either side, so it never reports a wider delay
MAX_DELAY_BINS = 64
# longest seed-window period: one overflow period of the largest buffer
MAX_SEED_PERIOD = DEFAULT_PAGES * PAGE_WORDS


@dataclass(frozen=True)
class PsoRunConfig:
    delay_a: int = 0
    delay_b: int = 0
    hold_bins: int = 3
    keep_leader: bool = False
    coincidence_only: bool = True
    seed_window_offset: int = 0
    seed_window_width: int = 0
    seed_window_period: int = 1000
    zero_detection_rate: int = 0          # per overflow period

    def __post_init__(self):
        """Range checks, then each filter's own setting checks, run here
        on no events."""
        for name, lo, hi in (
                ("delay_a", -MAX_DELAY_BINS, MAX_DELAY_BINS),
                ("delay_b", -MAX_DELAY_BINS, MAX_DELAY_BINS),
                ("hold_bins", 0, MAX_DELAY_BINS),
                ("seed_window_period", 1, MAX_SEED_PERIOD),
                ("seed_window_offset", 0, self.seed_window_period - 1)):
            if not lo <= getattr(self, name) <= hi:
                raise ValueError(f"{name} outside [{lo}, {hi}]")
        hold_time_filter((), self.hold_bins)
        seed_rejection_filter((), self.seed_window_offset,
                              self.seed_window_width, self.seed_window_period)
        zero_detection_tags(self.zero_detection_rate, (0, 0), 1, (), 0, None)


# the console's keys but SEEDWIN: key -> (PsoRunConfig field, its text
# forms); PsoRunConfig checks the ranges
SETTINGS = {
    "DELAYA": ("delay_a", int),
    "DELAYB": ("delay_b", int),
    "HOLD": ("hold_bins", int),
    "ZDR": ("zero_detection_rate", int),
    "KEEPLEADER": ("keep_leader", ON_OFF),
    "MODE": ("coincidence_only", {"COINC": True, "SINGLES": False}),
}


class PsoConsole:
    """Live text control over the run configuration.

    Mutations are atomic: the engine snapshots the configuration once per
    epoch, so a command never tears a half-processed batch.
    """

    def __init__(self, config: PsoRunConfig):
        self._config = config
        self._lock = threading.Lock()

    def snapshot(self) -> PsoRunConfig:
        with self._lock:
            return self._config

    def process_command(self, line: str) -> str:
        parts = line.strip().split()
        if not parts:
            return "ERR empty command"
        cmd, args = parts[0].upper(), parts[1:]
        try:
            with self._lock:
                if cmd == "GET":
                    return get_reply(SETTINGS, args, self._config)
                if cmd == "SET":
                    if args and args[0].upper() == "SEEDWIN":
                        self._config = self._seed_window(args[1:])
                    else:
                        name, value = parse_set(SETTINGS, args)
                        self._config = replace(self._config, **{name: value})
                    return "OK"
                if cmd == "STATUS":
                    return " ".join(
                        f"{key} {show(forms, getattr(self._config, field))}"
                        for key, (field, forms) in SETTINGS.items())
        except ValueError as err:
            return f"ERR {err}"
        return f"ERR unknown command {cmd}"

    def _seed_window(self, args) -> PsoRunConfig:
        """SET SEEDWIN OFF, or SET SEEDWIN <offset> <width> <period>."""
        if len(args) == 1 and args[0].upper() == "OFF":
            return replace(self._config, seed_window_width=0)
        if len(args) != 3:
            raise ValueError("SET SEEDWIN needs OFF or offset, width and "
                             "period")
        offset, width, period = (parse(int, text) for text in args)
        return replace(self._config, seed_window_offset=offset,
                       seed_window_width=width, seed_window_period=period)


class PsoEngine:
    """Acquisition controller bound to two homodyne-server clients."""

    def __init__(self, client_a, client_b, console: PsoConsole,
                 writer: DatasetWriter, half_words: int,
                 zero_rng: np.random.Generator | None = None):
        self.client_a = client_a
        self.client_b = client_b
        self.console = console
        self.writer = writer
        self.half = half_words
        self.capacity = 2 * half_words
        self.report = RunReport()
        self.heralds: list = []
        self._pending = np.zeros(0, dtype=EVENT_DTYPE)
        self._zero_rng = zero_rng or np.random.default_rng(0)

    # ------------------------------------------------------------------
    def start_run(self, offset_a: int = 0, offset_b: int = 0):
        """Start-pulse handshake: zero both server clocks, arm the
        tomography query mode, and verify the memory-overflow numbers came
        up aligned.

        Slope checking stays on for quadrature acquisition so flyback
        samples come back as placeholder words instead of phase garbage.
        """
        for client, offset in ((self.client_a, offset_a),
                               (self.client_b, offset_b)):
            client.start_run(offset)
            client.set_config(mode="samples", integration_window=1,
                              slope_check=True)
        sa = self.client_a.status()
        sb = self.client_b.status()
        if sa["overflow_number"] != sb["overflow_number"]:
            raise RuntimeError("servers came up with misaligned overflow numbers")

    def collect_shot_noise(self, span, n: int, rng: np.random.Generator):
        """Vacuum (shutter-closed) calibration samples from both servers.

        span is a global coarse-tag window inside the sealed half; returns
        (a_codes, b_codes) homodyne halves with placeholders dropped.
        """
        lo, hi = span
        tags = rng.integers(lo, hi, size=n)
        tags.sort()
        cfg = self.console.snapshot()
        out = []
        for client, delay in ((self.client_a, cfg.delay_a),
                              (self.client_b, cfg.delay_b)):
            q = tags + delay
            words = self._query_epoch_words(client, q)
            good = ~is_placeholder(words)
            a, _ = unpack_words(words[good])
            out.append(a.astype(np.float64))
        return out

    # ------------------------------------------------------------------
    def process_pulses(self, subbins, sides) -> np.ndarray:
        """Trigger stage: every centroid-valid window becomes an event and
        fires the herald output; gating happens downstream."""
        events = coincidence_pipeline(subbins, sides)
        self.report.triggered += events.size
        # a packed copy: a field view would keep the whole events alive
        self.heralds.append(
            events[list(HERALD_DTYPE.names)].astype(HERALD_DTYPE))
        return events

    def process_sealed_half(self, epoch: int, subbins, sides,
                            zero_span=None) -> dict:
        """Full per-epoch pass: filters, queries, triage, bookkeeping.

        epoch: global half index k (half k spans coarse tags
        [k*half, (k+1)*half)).  Pulses are the epoch's detector stream in
        300-MHz sub-bins; zero_span optionally restricts where
        zero-detection sampling may look (defaults to the whole half).
        """
        cfg = self.console.snapshot()
        all_events = self.process_pulses(subbins, sides)

        gate = coincidence_gate(all_events, cfg.coincidence_only)
        self.report.gated_out += int(np.count_nonzero(~gate))
        # any detection activity within the hold window spoils a held
        # event, including activity the save gate would discard
        keep = hold_time_filter(all_events["coarse"], cfg.hold_bins,
                                cfg.keep_leader)
        self.report.hold_dropped += int(np.count_nonzero(gate & ~keep))
        events = all_events.compress(gate & keep)

        keep = seed_rejection_filter(events["coarse"], cfg.seed_window_offset,
                                     cfg.seed_window_width,
                                     cfg.seed_window_period)
        self.report.seed_dropped += int(np.count_nonzero(~keep))
        events = np.concatenate([self._pending, events.compress(keep)],
                                dtype=EVENT_DTYPE)

        win_lo = epoch * self.half
        win_hi = win_lo + self.half
        margin = max(abs(cfg.delay_a), abs(cfg.delay_b))
        qa = events["coarse"] + cfg.delay_a
        qb = events["coarse"] + cfg.delay_b
        fits = (qa >= win_lo) & (qa < win_hi) & (qb >= win_lo) & (qb < win_hi)
        future = (qa >= win_hi) | (qb >= win_hi)
        expired = ~fits & ~future
        self._pending = events.compress(future)
        self.report.deferred += int(np.count_nonzero(expired))
        events = events.compress(fits)

        # zero-detection sampling in the gaps between detection events of
        # any kind, gated or not
        if zero_span is None:
            zero_span = (win_lo + margin + cfg.hold_bins + 1,
                         win_hi - margin - cfg.hold_bins - 1)
        ztags, attempts = zero_detection_tags(
            cfg.zero_detection_rate, zero_span, self.capacity,
            all_events["coarse"], cfg.hold_bins, self._zero_rng)
        self.report.zero_detection_attempted += attempts
        self.report.zero_detection_emitted += ztags.size

        stats = {"events": events.size, "zero": ztags.size}
        try:
            self._query_and_triage(events, ztags, cfg)
        except (hds_protocol.StaleEpochError, hds_protocol.ActiveHalfError):
            # abort this half-buffer batch; events retry on the next epoch
            self._pending = np.concatenate([self._pending, events],
                                           dtype=EVENT_DTYPE)
            stats["aborted"] = True
        return stats

    def herald_stream(self) -> np.ndarray:
        """Every herald output so far as one (emit_subbin, signature)
        record array, consumable in-process or dumped to a file."""
        return np.concatenate([np.zeros(0, dtype=HERALD_DTYPE), *self.heralds],
                              dtype=HERALD_DTYPE)

    def save_heralds(self, path):
        with open(path, "wb") as fh:
            fh.write(self.herald_stream().tobytes())

    def flush_expired(self):
        """Drop events still pending at end of run (counted as deferred)."""
        self.report.deferred += self._pending.size
        self._pending = np.zeros(0, dtype=EVENT_DTYPE)

    # ------------------------------------------------------------------
    def _query_epoch_words(self, client, global_tags):
        tags = np.asarray(global_tags, dtype=np.int64)
        if tags.size == 0:
            return np.zeros(0, dtype=np.uint32)
        epochs = tags // self.capacity
        if epochs.min() != epochs.max():
            raise hds_protocol.StaleEpochError(
                "query batch spans a memory-overflow boundary")
        ovf = int(epochs[0])
        buf_tags = tags % self.capacity
        return client.query_samples_batched(ovf, buf_tags)

    def _query_and_triage(self, events: np.ndarray, ztags: np.ndarray,
                          cfg: PsoRunConfig):
        all_coarse = np.concatenate([events["coarse"], ztags])
        if all_coarse.size == 0:
            return
        all_sig = np.concatenate([
            events["signature"], np.zeros(ztags.size, dtype=np.uint64)])
        order = np.argsort(all_coarse, kind="stable")
        all_coarse = all_coarse[order]
        all_sig = all_sig[order]
        is_zero = all_sig == 0

        words_a = self._query_epoch_words(self.client_a,
                                          all_coarse + cfg.delay_a)
        words_b = self._query_epoch_words(self.client_b,
                                          all_coarse + cfg.delay_b)
        bad = is_placeholder(words_a) | is_placeholder(words_b)
        n_bad = int(np.count_nonzero(bad))
        n_bad_zero = int(np.count_nonzero(bad & is_zero))
        self.report.placeholder_excluded += n_bad - n_bad_zero
        self.report.zero_detection_placeholder += n_bad_zero
        self.report.zero_detection_emitted -= n_bad_zero

        good = ~bad
        coarse = all_coarse[good]
        sig = all_sig[good]
        a_pair = unpack_words(words_a[good])
        b_pair = unpack_words(words_b[good])
        recs = build_records(sig, (coarse // self.capacity).astype(np.uint32),
                             (coarse % self.capacity).astype(np.uint32),
                             a_pair, b_pair)
        sa, sb = signature_class(sig)
        key = sa * (SUM_MASK + 1) + sb        # ascending in (n, m) order
        for k in np.unique(key):
            cls = divmod(int(k), SUM_MASK + 1)
            if max(cls) > TREE_DETECTORS:
                continue
            added = self.writer.add(cls, recs.compress(key == k))
            self.report.class_counts[cls] = self.report.class_counts.get(
                cls, 0) + added
        # kept counts detection events that survived to a response word,
        # whether or not their dataset still accepts records
        self.report.kept += int(np.count_nonzero(~is_zero & good))
