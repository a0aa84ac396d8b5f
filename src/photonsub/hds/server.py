"""Homodyne detection server: buffer, query engine, control plane, sockets.

The server ingests timetagged dual-ADC sample words into the paged ring
buffer and answers binary timetag queries for the sealed (not currently
written) half of the buffer.  Query processing modes: raw word, integrated
window, slope-checked (phase-drive flyback samples replaced by the
placeholder word), and a threshold-crossing scan for delay calibration.

Concurrency: a single writer ingests; readers are serialized per
connection and touch only sealed data.  Configuration commands take a lock
so acquisition threads always see a consistent snapshot.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import protocol as proto
from .buffer import DEFAULT_PAGES, OVERFLOW_MASK, PAGE_WORDS, RingBuffer
from .words import (ADC_MAX, ADC_MIN, PLACEHOLDER_WORD, WORD_DTYPE,
                    pack_words, sample_view, unpack_words)

INT16_MIN = -32768
INT16_MAX = 32767
# SET INTWIN ceiling: one page of words per integrated sample
MAX_INTEGRATION_WINDOW = PAGE_WORDS


@dataclass
class ServerConfig:
    integration_window: int = 1
    slope_check: bool = False
    threshold: int = 2000
    slope_sign: int = +1          # +1 rising, -1 falling
    mode: str = "samples"         # "samples" | "threshold"
    pace_realtime: bool = False   # sleep to approximate the 100-MHz rate


@dataclass
class StatusSnapshot:
    overflow_number: int
    current_timetag: int
    fifo_overflow: bool
    adc_out_of_range: bool
    clock_locked: bool
    halted: bool
    saturation_events: int

    @property
    def data_queries_allowed(self) -> bool:
        return not self.fifo_overflow and not self.adc_out_of_range \
            and self.clock_locked


class ConnectionState:
    """Per-connection parser state: the epoch set by the last keyword
    header, inherited by continuation batches."""

    def __init__(self):
        self.overflow = None


class HomodyneServer:
    SAMPLE_RATE_HZ = 100e6

    def __init__(self, pages: int = DEFAULT_PAGES, page_map_seed: int = 0,
                 config: ServerConfig | None = None):
        self.buffer = RingBuffer(pages=pages, page_map_seed=page_map_seed)
        self.config = config or ServerConfig()
        self._lock = threading.Lock()
        self._halted = False
        self._fifo_overflow = False
        self._adc_out_of_range = False
        self._clock_locked = True
        self._saturation_events = 0

    # ------------------------------------------------------------------
    # acquisition plane
    # ------------------------------------------------------------------
    def start_run(self, residual_offset: int = 0):
        """Start-pulse handshake: zero the timestamp clock.  The residual
        offset models the comparator-threshold-dependent start skew."""
        if not 0 <= residual_offset <= 2:
            raise ValueError("residual offset must be 0..2 coarse bins")
        with self._lock:
            self.buffer.reset(start_cursor=residual_offset)

    def ingest(self, words: np.ndarray):
        """Write a chunk of sample words at the current cursor."""
        if self._halted:
            raise RuntimeError("server is halted; RESUME before ingesting")
        words = np.asarray(words, dtype=WORD_DTYPE)
        samples = sample_view(words)
        if words.size and (samples.min() < ADC_MIN
                           or samples.max() > ADC_MAX):
            self._adc_out_of_range = True
        self.buffer.write(words)
        if self.config.pace_realtime:
            time.sleep(words.size / self.SAMPLE_RATE_HZ)

    def ingest_samples(self, adc_a, adc_b):
        self.ingest(pack_words(adc_a, adc_b))

    def inject_fault(self, kind: str):
        """Test hook mirroring the FPGA health checks."""
        if kind == "fifo_overflow":
            self._fifo_overflow = True
        elif kind == "adc_range":
            self._adc_out_of_range = True
        elif kind == "clock_unlock":
            self._clock_locked = False
        else:
            raise ValueError(f"unknown fault {kind!r}")

    # ------------------------------------------------------------------
    # epoch / half-buffer accounting
    # ------------------------------------------------------------------
    def status(self) -> StatusSnapshot:
        return StatusSnapshot(
            overflow_number=self.buffer.overflow_number,
            current_timetag=self.buffer.write_cursor,
            fifo_overflow=self._fifo_overflow,
            adc_out_of_range=self._adc_out_of_range,
            clock_locked=self._clock_locked,
            halted=self._halted,
            saturation_events=self._saturation_events,
        )

    def sealed_region(self):
        """((overflow, lo, hi)) describing the currently sealed half, or
        None before the first half fills."""
        buf = self.buffer
        if buf.write_cursor >= buf.half:
            return buf.overflow_number, 0, buf.half
        if buf.overflow_number == 0:
            return None
        return (buf.overflow_number - 1) & OVERFLOW_MASK, buf.half, buf.capacity

    def _classify(self, overflow: int, tags: np.ndarray) -> proto.Status:
        buf = self.buffer
        if tags.size and int(tags.max()) >= buf.capacity:
            return proto.Status.RANGE
        if self._halted:
            # full buffer readable; each tag's epoch must match the request
            epoch = np.where(tags < buf.write_cursor, buf.overflow_number,
                             (buf.overflow_number - 1) & OVERFLOW_MASK)
            return (proto.Status.OK if np.all(epoch == overflow)
                    else proto.Status.STALE_OVERFLOW)
        sealed = self.sealed_region()
        if sealed is not None:
            ovf, lo, hi = sealed
            if overflow == ovf and (tags.size == 0 or (
                    int(tags.min()) >= lo and int(tags.max()) < hi)):
                return proto.Status.OK
        # distinguish touching the live half from a stale epoch
        active_lo = 0 if buf.write_cursor < buf.half else buf.half
        active_hi = active_lo + buf.half
        in_active = (tags >= active_lo) & (tags < active_hi)
        if overflow == buf.overflow_number and bool(np.any(in_active)):
            return proto.Status.ACTIVE_HALF
        return proto.Status.STALE_OVERFLOW

    def _half_mark(self):
        """(overflow, upper half): changes whenever the sealed half does."""
        buf = self.buffer
        return buf.overflow_number, buf.write_cursor >= buf.half

    def _require_readable(self, overflow: int, tags: np.ndarray, what: str):
        """Raise the typed protocol error unless _classify answers OK;
        returns the writer's half mark from before the verdict."""
        mark = self._half_mark()
        verdict = self._classify(overflow, tags)
        if verdict is not proto.Status.OK:
            raise proto.STATUS_EXCEPTIONS.get(
                verdict, lambda m="": proto.ProtocolError(verdict, m))(
                f"{verdict.name} for {what}")
        return mark

    def _require_unmoved(self, mark, what: str):
        """STALE_OVERFLOW if the writer changed halves since `mark`: the
        words just read may already belong to a later epoch."""
        if self._half_mark() != mark:
            raise proto.StaleEpochError(f"writer changed halves during {what}")

    # ------------------------------------------------------------------
    # query engine
    # ------------------------------------------------------------------
    def query_samples(self, overflow: int, timetags) -> np.ndarray:
        """One response word per timetag in the configured mode."""
        st = self.status()
        if not st.data_queries_allowed:
            raise proto.IntegrityError("server integrity flags are set")
        tags = np.asarray(timetags, dtype=np.int64)
        with self._lock:
            cfg_window = self.config.integration_window
            cfg_slope = self.config.slope_check
        what = f"{tags.size} timetags"
        mark = self._require_readable(
            overflow, np.concatenate([tags, tags + cfg_window - 1])
            if cfg_window > 1 else tags, what)
        raw = self.buffer.read(tags)
        words = (self._integrated_words(tags, raw, cfg_window)
                 if cfg_window > 1 else raw)
        if cfg_slope:
            self._apply_slope_check(tags, raw, words)
        self._require_unmoved(mark, what)
        return words

    def _integrated_words(self, tags: np.ndarray, raw: np.ndarray,
                          window: int) -> np.ndarray:
        # raw holds offset 0; one pass per offset keeps memory at O(tags)
        acc = sample_view(raw).astype(np.int64)
        for offset in range(1, window):
            acc += sample_view(self.buffer.read(tags + offset))
        sat = np.any((acc < INT16_MIN) | (acc > INT16_MAX), axis=-1)
        if np.any(sat):
            self._saturation_events += int(np.count_nonzero(sat))
        words = np.empty_like(raw)
        sample_view(words)[...] = np.clip(acc, INT16_MIN, INT16_MAX, out=acc)
        return words

    def _apply_slope_check(self, tags: np.ndarray, raw: np.ndarray,
                           words: np.ndarray):
        """Overwrite flyback samples in `words` with the placeholder word.

        A timetag is in the flyback when the phase-drive code in `raw`, the
        words read at `tags`, decreases from the previous sample.  The
        neighbor is read raw from storage (the hardware reads SDRAM
        directly, with no half accounting)."""
        _, b_now = unpack_words(raw)
        _, b_prev = unpack_words(
            self.buffer.read(np.where(tags > 0, tags - 1, 0)))
        words[(b_now < b_prev) & (tags > 0)] = PLACEHOLDER_WORD

    def threshold_scan(self, overflow: int, start: int, end: int) -> np.ndarray:
        """Timetags in [start, end) where the homodyne ADC crosses the
        configured threshold with the configured slope.

        A crossing is strict: the previous sample on the wrong side, the
        current one at or beyond the threshold.  The scan must not span an
        overflow boundary."""
        st = self.status()
        if not st.data_queries_allowed:
            raise proto.IntegrityError("server integrity flags are set")
        if not (0 <= start < end <= self.buffer.capacity):
            raise proto.ProtocolError(proto.Status.RANGE, "bad scan range")
        tags = np.arange(start, end, dtype=np.int64)
        what = f"scan [{start}, {end})"
        mark = self._require_readable(overflow, tags, what)
        with self._lock:
            thr = self.config.threshold
            sign = self.config.slope_sign
        a, _ = unpack_words(self.buffer.read(tags))
        a = a.astype(np.int32)
        if sign >= 0:
            hits = (a[:-1] < thr) & (a[1:] >= thr)
        else:
            hits = (a[:-1] > thr) & (a[1:] <= thr)
        self._require_unmoved(mark, what)
        return (start + 1 + np.nonzero(hits)[0]).astype(WORD_DTYPE)

    # ------------------------------------------------------------------
    # binary protocol entry
    # ------------------------------------------------------------------
    def handle_request(self, body: np.ndarray,
                       conn: ConnectionState) -> np.ndarray:
        """One request frame in, exactly one response frame out."""
        body = np.asarray(body, dtype=WORD_DTYPE)
        ovf_echo = self.buffer.overflow_number
        if body.size == 0:
            return proto.encode_response(proto.Status.MALFORMED, ovf_echo)
        with self._lock:
            mode = self.config.mode
        if int(body[0]) == proto.KEYWORD:
            if body.size < 2:
                return proto.encode_response(proto.Status.MALFORMED, ovf_echo)
            conn.overflow = int(body[1])
            payload = body[2:]
        else:
            if body.size and int(body.max()) >= self.buffer.capacity:
                # cannot be a continuation batch: timetags never reach the
                # keyword range, so this is a bad keyword
                return proto.encode_response(proto.Status.KEYWORD_MISMATCH,
                                             ovf_echo)
            if conn.overflow is None:
                return proto.encode_response(proto.Status.KEYWORD_MISMATCH,
                                             ovf_echo)
            payload = body
        try:
            if mode == "threshold":
                if payload.size != 2:
                    return proto.encode_response(proto.Status.MALFORMED,
                                                 ovf_echo)
                out = self.threshold_scan(conn.overflow, int(payload[0]),
                                          int(payload[1]))
            else:
                out = self.query_samples(conn.overflow,
                                         payload.astype(np.int64))
        except proto.ProtocolError as err:
            return proto.encode_response(err.status, ovf_echo)
        return proto.encode_response(proto.Status.OK, conn.overflow, out)

    # ------------------------------------------------------------------
    # text control plane
    # ------------------------------------------------------------------
    def control(self, line: str) -> str:
        parts = line.strip().split()
        if not parts:
            return "ERR empty command"
        cmd = parts[0].upper()
        try:
            if cmd == "START":
                self.start_run(int(parts[1]) if len(parts) > 1 else 0)
                return "OK"
            with self._lock:
                if cmd == "STATUS":
                    st = self.status()
                    flags = []
                    if st.fifo_overflow:
                        flags.append("FIFO")
                    if st.adc_out_of_range:
                        flags.append("ADC")
                    if not st.clock_locked:
                        flags.append("UNLOCKED")
                    if st.halted:
                        flags.append("HALTED")
                    return (f"OVF {st.overflow_number} TT {st.current_timetag} "
                            f"SAT {st.saturation_events} "
                            f"FLAGS {','.join(flags) if flags else 'NONE'}")
                if cmd == "HALT":
                    self._halted = True
                    return "OK"
                if cmd == "RESUME":
                    self._halted = False
                    return "OK"
                if cmd == "SET":
                    return self._set(parts[1].upper(), parts[2:])
                if cmd == "GET":
                    return self._get(parts[1].upper())
        except (IndexError, ValueError) as err:
            return f"ERR {err}"
        return f"ERR unknown command {cmd}"

    def _set(self, key: str, args) -> str:
        if key == "INTWIN":
            w = int(args[0])
            if not 1 <= w <= MAX_INTEGRATION_WINDOW:
                return f"ERR window must be in [1, {MAX_INTEGRATION_WINDOW}]"
            self.config.integration_window = w
        elif key == "SLOPECHK":
            self.config.slope_check = args[0] not in ("0", "OFF", "off")
        elif key == "THRESH":
            self.config.threshold = int(args[0])
        elif key == "SLOPE":
            self.config.slope_sign = +1 if args[0].upper() == "RISING" else -1
        elif key == "MODE":
            mode = args[0].lower()
            if mode not in ("samples", "threshold"):
                return "ERR mode must be SAMPLES or THRESHOLD"
            self.config.mode = mode
        else:
            return f"ERR unknown key {key}"
        return "OK"

    def _get(self, key: str) -> str:
        vals = {
            "INTWIN": self.config.integration_window,
            "SLOPECHK": int(self.config.slope_check),
            "THRESH": self.config.threshold,
            "SLOPE": "RISING" if self.config.slope_sign >= 0 else "FALLING",
            "MODE": self.config.mode.upper(),
        }
        if key not in vals:
            return f"ERR unknown key {key}"
        return str(vals[key])


# ---------------------------------------------------------------------------
# socket front end
# ---------------------------------------------------------------------------

class HdsSocketServer:
    """TCP front end: a binary data port and a line-oriented control port."""

    def __init__(self, server: HomodyneServer, host: str = "127.0.0.1",
                 data_port: int = 0, control_port: int = 0):
        self.core = server
        self._data_srv = self._make_data_server(host, data_port)
        self._ctrl_srv = self._make_control_server(host, control_port)
        self.data_address = self._data_srv.server_address
        self.control_address = self._ctrl_srv.server_address
        self._threads = []

    def _make_data_server(self, host, port):
        core = self.core

        class DataHandler(socketserver.BaseRequestHandler):
            def handle(self):
                conn = ConnectionState()
                # a keyword header and one timetag per buffer word at most
                max_words = core.buffer.capacity + proto.REQUEST_HEADER_WORDS
                while True:
                    try:
                        body = proto.read_frame(self.request, max_words)
                    except proto.ProtocolError as err:
                        # oversized: answer, close, never read the body
                        reply = proto.encode_response(
                            err.status, core.buffer.overflow_number)
                        self.request.sendall(proto.frame_message(reply))
                        break
                    except ConnectionError:
                        break
                    if body is None:
                        break
                    reply = core.handle_request(body, conn)
                    self.request.sendall(proto.frame_message(reply))

        srv = socketserver.ThreadingTCPServer((host, port), DataHandler)
        srv.daemon_threads = True
        srv.allow_reuse_address = True
        return srv

    def _make_control_server(self, host, port):
        core = self.core

        class ControlHandler(socketserver.StreamRequestHandler):
            def handle(self):
                for raw in self.rfile:
                    line = raw.decode("ascii", "replace").strip()
                    if not line:
                        continue
                    reply = core.control(line)
                    self.wfile.write((reply + "\n").encode("ascii"))
                    self.wfile.flush()

        srv = socketserver.ThreadingTCPServer((host, port), ControlHandler)
        srv.daemon_threads = True
        srv.allow_reuse_address = True
        return srv

    def start(self):
        for srv in (self._data_srv, self._ctrl_srv):
            th = threading.Thread(target=srv.serve_forever, daemon=True)
            th.start()
            self._threads.append(th)
        return self

    def stop(self):
        """Stop the serve loops and join their threads; each connection
        handler ends when its client closes."""
        for srv in (self._data_srv, self._ctrl_srv):
            srv.shutdown()
            srv.server_close()
        for th in self._threads:
            th.join()
