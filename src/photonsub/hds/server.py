"""Homodyne detection server: buffer, query engine, control plane, sockets.

The server ingests timetagged dual-ADC sample pairs into the paged ring
buffer and answers binary timetag queries for the sealed (not currently
written) half of the buffer.  Query processing modes: raw word, integrated
window, slope-checked (phase-drive flyback samples replaced by the
placeholder word), and a threshold-crossing scan for delay calibration.

Concurrency: a single writer ingests; readers are serialized per
connection and touch only sealed data.  Configuration commands take a lock
so acquisition threads always see a consistent snapshot.
"""

from __future__ import annotations

import contextlib
import socket
import socketserver
import threading
from dataclasses import dataclass

import numpy as np

from ..textcontrol import ON_OFF, get_reply, parse, parse_set
from . import protocol as proto
from .buffer import DEFAULT_PAGES, OVERFLOW_MASK, PAGE_WORDS, RingBuffer
from .words import (ADC_MAX, ADC_MIN, DRIVE, HALF_DTYPE, PLACEHOLDER_WORD,
                    WORD_DTYPE, sample_view, unpack_words)

_HALF_RANGE = np.iinfo(HALF_DTYPE)  # an ADC half's range; sums saturate there
# SET INTWIN ceiling: one page of words per integrated sample
MAX_INTEGRATION_WINDOW = PAGE_WORDS
# seconds between a serve loop's checks for stop()
SERVE_POLL_S = 0.05
# words a threshold scan reads at a time, so a scan frame's memory is
# bounded whatever range it names
SCAN_BLOCK_WORDS = 16 * PAGE_WORDS


@dataclass
class ServerConfig:
    integration_window: int = 1
    slope_check: bool = False
    threshold: int = 2000
    slope_sign: int = +1
    mode: str = "samples"


# the control port's keys: key -> (ServerConfig field, its text forms)
SETTINGS = {
    "INTWIN": ("integration_window", range(1, MAX_INTEGRATION_WINDOW + 1)),
    "SLOPECHK": ("slope_check", ON_OFF),
    "THRESH": ("threshold", range(ADC_MIN, ADC_MAX + 1)),
    "SLOPE": ("slope_sign", {"RISING": +1, "FALLING": -1}),
    "MODE": ("mode", {"SAMPLES": "samples", "THRESHOLD": "threshold"}),
}


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
    def __init__(self, pages: int = DEFAULT_PAGES, page_map_seed: int = 0):
        self.buffer = RingBuffer(pages=pages, page_map_seed=page_map_seed)
        self.config = ServerConfig()
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

    def ingest_samples(self, adc_a, adc_b):
        """The one ingest entry: homodyne (a) and phase-drive (b) ADC codes,
        1-D integer arrays of one length, written at the cursor.  A code
        outside int16 raises and writes nothing; one outside 14 bits sets
        the ADC health flag."""
        if self._halted:
            raise RuntimeError("server is halted; RESUME before ingesting")
        a, b = np.asarray(adc_a), np.asarray(adc_b)
        if a.dtype.kind not in "iu" or b.dtype.kind not in "iu":
            raise TypeError("ADC samples must be integer arrays")
        if a.ndim != 1 or a.shape != b.shape:
            raise ValueError("ADC samples must be 1-D arrays of one length")
        # one min and one max per half; 0 is in range, so empty input passes
        lo = min(a.min(initial=0), b.min(initial=0))
        hi = max(a.max(initial=0), b.max(initial=0))
        if lo < _HALF_RANGE.min or hi > _HALF_RANGE.max:
            raise ValueError("ADC sample outside int16")
        self._adc_out_of_range |= bool(lo < ADC_MIN or hi > ADC_MAX)
        self.buffer.write(a, b)

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

    def _classify(self, overflow: int, lo: int, hi: int) -> proto.Status:
        """Verdict for a request whose timetags span [lo, hi] (lo > hi: no
        timetags).  A tag's epoch is monotone in the tag and the two halves
        are the ends of the buffer, so the span's ends decide every tag."""
        buf = self.buffer
        if lo < 0 or hi >= buf.capacity:
            return proto.Status.RANGE
        ovf = buf.overflow_number
        prev = (ovf - 1) & OVERFLOW_MASK
        if self._halted:
            # full buffer readable: tags below the cursor hold the current
            # epoch, the rest the one before; each must match the request
            return (proto.Status.OK if lo > hi
                    or (hi < buf.write_cursor and overflow == ovf)
                    or (lo >= buf.write_cursor and overflow == prev)
                    else proto.Status.STALE_OVERFLOW)
        # the sealed half: the lower one of this epoch while the writer is
        # in the upper, else the upper one of the epoch before, which does
        # not exist before the first wrap
        upper = buf.write_cursor >= buf.half
        sealed_lo = 0 if upper else buf.half
        if ((upper or ovf) and overflow == (ovf if upper else prev)
                and (lo > hi or sealed_lo <= lo <= hi < sealed_lo + buf.half)):
            return proto.Status.OK
        # distinguish touching the live half from a stale epoch
        active_lo = buf.half - sealed_lo
        if overflow == ovf and lo < active_lo + buf.half and hi >= active_lo:
            return proto.Status.ACTIVE_HALF
        return proto.Status.STALE_OVERFLOW

    def _half_mark(self):
        """(overflow, upper half): changes whenever the sealed half does."""
        buf = self.buffer
        return buf.overflow_number, buf.write_cursor >= buf.half

    def _require_intact(self):
        if (self._fifo_overflow or self._adc_out_of_range
                or not self._clock_locked):
            raise proto.IntegrityError("server integrity flags are set")

    def _require_readable(self, overflow: int, lo: int, hi: int):
        """Raise the typed protocol error unless _classify answers OK for
        the span [lo, hi]; returns the writer's half mark from before the
        verdict."""
        mark = self._half_mark()
        verdict = self._classify(overflow, lo, hi)
        if verdict is not proto.Status.OK:
            raise proto.status_error(
                verdict, f"{verdict.name} for timetags [{lo}, {hi}]")
        return mark

    def _require_unmoved(self, mark):
        """STALE_OVERFLOW if the writer changed halves since `mark`: the
        words just read may already belong to a later epoch."""
        if self._half_mark() != mark:
            raise proto.StaleEpochError("writer changed halves during a read")

    # ------------------------------------------------------------------
    # query engine
    # ------------------------------------------------------------------
    def query_samples(self, overflow: int, timetags) -> np.ndarray:
        """One response word per timetag in the configured mode.

        With slope checking on, a timetag is in the phase-drive flyback
        when its drive code is below that of the previous timetag; its
        word becomes the placeholder.  Timetag 0 has no previous sample.
        The previous sample is read raw from storage (the hardware reads
        SDRAM directly, with no half accounting)."""
        self._require_intact()
        tags = np.asarray(timetags, dtype=np.int64)
        with self._lock:
            window = self.config.integration_window
            slope = self.config.slope_check
        lo, hi = ((int(tags.min()), int(tags.max()) + window - 1)
                  if tags.size else (0, -1))
        mark = self._require_readable(overflow, lo, hi)
        # the words and, for the slope check, their predecessors in one
        # gather, a row each (as one flat vector the same gather made
        # 16,000-tag requests over the wire ~20% slower); timetag 0 is its
        # own predecessor, so never a flyback.  axis=None takes a scalar tag
        # too (np.stack builds the same rows, ~1.7 us slower per call), and
        # row 0 of a scalar is a 0-d view the flyback mask can write
        got = self.buffer.read(
            np.concatenate((tags, np.maximum(tags - 1, 0)), axis=None)
            .reshape(2, *tags.shape) if slope else tags)
        raw = got[0, ...] if slope else got
        words = (self._integrated_words(tags, raw, window)
                 if window > 1 else raw)
        if slope:
            drive = sample_view(got)[..., DRIVE]
            words[drive[0] < drive[1]] = PLACEHOLDER_WORD
        self._require_unmoved(mark)
        return words

    def _integrated_words(self, tags: np.ndarray, raw: np.ndarray,
                          window: int) -> np.ndarray:
        # raw holds offset 0; one pass per offset keeps memory at O(tags)
        acc = sample_view(raw).astype(np.int64)
        for offset in range(1, window):
            acc += sample_view(self.buffer.read(tags + offset))
        lo, hi = _HALF_RANGE.min, _HALF_RANGE.max
        sat = np.any((acc < lo) | (acc > hi), axis=-1)
        if np.any(sat):
            self._saturation_events += int(np.count_nonzero(sat))
        words = np.empty_like(raw)
        sample_view(words)[...] = np.clip(acc, lo, hi, out=acc)
        return words

    def threshold_scan(self, overflow: int, start: int, end: int) -> np.ndarray:
        """Timetags in [start, end) where the homodyne ADC crosses the
        configured threshold with the configured slope.

        A crossing is strict: the previous sample on the wrong side, the
        current one at or beyond the threshold.  The scan must not span an
        overflow boundary."""
        self._require_intact()
        if not (0 <= start < end <= self.buffer.capacity):
            raise proto.ProtocolError(proto.Status.RANGE, "bad scan range")
        mark = self._require_readable(overflow, start, end - 1)
        with self._lock:        # falling (-1): rising when negated
            thr, s = self.config.threshold, self.config.slope_sign
        hits = [np.zeros(0, dtype=np.int64)]
        # blocks overlap by one word: a crossing needs its previous sample
        for lo in range(start, end - 1, SCAN_BLOCK_WORDS):
            a, _ = unpack_words(self.buffer.read_range(
                lo, min(lo + SCAN_BLOCK_WORDS + 1, end)))
            a = s * a.astype(np.int32)
            hit = (a[:-1] < s * thr) & (a[1:] >= s * thr)
            hits.append(lo + 1 + np.nonzero(hit)[0])
        self._require_unmoved(mark)
        return np.concatenate(hits).astype(WORD_DTYPE)

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
            # a word beyond the buffer cannot be a continuation batch's
            # timetag (they never reach the keyword range): a bad keyword
            if (int(body.max()) >= self.buffer.capacity
                    or conn.overflow is None):
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
                out = self.query_samples(conn.overflow, payload)
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
        cmd, args = parts[0].upper(), parts[1:]
        try:
            if cmd == "START":
                self.start_run(parse(int, args[0]) if args else 0)
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
                    setattr(self.config, *parse_set(SETTINGS, args))
                    return "OK"
                if cmd == "GET":
                    return get_reply(SETTINGS, args, self.config)
        except ValueError as err:
            return f"ERR {err}"
        return f"ERR unknown command {cmd}"


# ---------------------------------------------------------------------------
# socket front end
# ---------------------------------------------------------------------------

class _DataHandler(socketserver.BaseRequestHandler):
    def handle(self):
        core = self.server.core
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


class _ControlHandler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:
            line = raw.decode("ascii", "replace").strip()
            if not line:
                continue
            reply = self.server.core.control(line)
            self.wfile.write((reply + "\n").encode("ascii"))
            self.wfile.flush()


class _TcpServer(socketserver.ThreadingTCPServer):
    """Thread-per-connection TCP server for `core` that keeps its open
    connections and their handler threads, so close() can end both."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, core: HomodyneServer):
        super().__init__(address, handler)
        self.core = core
        self._open = {}                   # connection socket -> handler
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address):
        th = threading.Thread(target=self.process_request_thread,
                              args=(request, client_address), daemon=True)
        with self._open_lock:
            self._open[request] = th
        th.start()

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.pop(request, None)
        super().shutdown_request(request)

    def close(self):
        """Close the listening socket, shut every open connection down so
        its handler sees end of stream, and join the handlers."""
        self.server_close()
        with self._open_lock:
            live = list(self._open.items())
        for sock, th in live:
            with contextlib.suppress(OSError):  # its handler closed it
                sock.shutdown(socket.SHUT_RDWR)
            th.join()


class HdsSocketServer:
    """TCP front end: a binary data port and a line-oriented control port."""

    def __init__(self, server: HomodyneServer, host: str = "127.0.0.1",
                 data_port: int = 0, control_port: int = 0):
        self._data_srv = _TcpServer((host, data_port), _DataHandler, server)
        self._ctrl_srv = _TcpServer((host, control_port), _ControlHandler,
                                    server)
        self.data_address = self._data_srv.server_address
        self.control_address = self._ctrl_srv.server_address
        self._threads = []

    def start(self):
        for srv in (self._data_srv, self._ctrl_srv):
            th = threading.Thread(target=srv.serve_forever,
                                  args=(SERVE_POLL_S,), daemon=True)
            th.start()
            self._threads.append(th)
        return self

    def stop(self):
        """Stop the serve loops, end the open connections and join every
        thread, whether or not clients are still connected."""
        for srv in (self._data_srv, self._ctrl_srv):
            srv.shutdown()
            srv.close()
        for th in self._threads:
            th.join()
