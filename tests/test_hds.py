import itertools
import os
import socket
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonsub import hds
from photonsub.hds import protocol as proto
from photonsub.hds.server import (MAX_INTEGRATION_WINDOW, SCAN_BLOCK_WORDS,
                                  SETTINGS)
from photonsub.hds.words import WORD_DTYPE
from photonsub.textcontrol import parse
from photonsub.homodyne_model import PhaseDrive
import hds_test_vectors as tv
import oracles


def make_server(pages=64, **cfg):
    srv = hds.HomodyneServer(pages=pages)
    srv.config = hds.ServerConfig(**cfg)
    srv.start_run()
    return srv


def fill_first_half(srv, a=None, b=None):
    """Ingest the first half's homodyne (a) and drive (b) samples, then one
    word more so H0 seals; returns the words H0 holds."""
    half = srv.buffer.half
    if a is None:
        a, b = np.arange(half) % 8191, (np.arange(half) * 7) % 8191
    srv.ingest_samples(a, b)
    # push the cursor past the half boundary so H0 seals
    srv.ingest_samples([0], [0])
    return oracles.pack_words(a, b)


def noise_samples(n, seed=0):
    """n samples of uniform 14-bit noise on each channel."""
    rng = np.random.default_rng(seed)
    return rng.integers(-8192, 8192, (2, n))


def oracle_state(srv):
    buf, cfg = srv.buffer, srv.config
    return oracles.HdsState(
        buf.data, buf.page_map, buf.write_cursor, buf.overflow_number,
        srv.status().halted, cfg.mode, cfg.integration_window,
        cfg.slope_check, cfg.threshold, cfg.slope_sign)


class TestWords:
    def test_pack_unpack_known(self):
        w = oracles.pack_words([-8192, 0, 8191], [8191, -1, -8192])
        a, b = hds.unpack_words(w)
        np.testing.assert_array_equal(a, [-8192, 0, 8191])
        np.testing.assert_array_equal(b, [8191, -1, -8192])
        # a strided input is read through a copy
        a, b = hds.unpack_words(np.repeat(w, 2)[::2])
        np.testing.assert_array_equal(a, [-8192, 0, 8191])
        np.testing.assert_array_equal(b, [8191, -1, -8192])

    @given(st.integers(-8192, 8191), st.integers(-8192, 8191))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, a, b):
        w = oracles.pack_words([a], [b])
        aa, bb = hds.unpack_words(w)
        assert int(aa[0]) == a and int(bb[0]) == b
        assert not hds.is_placeholder(w)[0]

    def test_placeholder_unreachable_by_sign_extension(self):
        # sweep the full 14-bit range: no packed word matches the marker
        vals = np.arange(-8192, 8192)
        w = oracles.pack_words(vals, np.zeros_like(vals))
        assert not hds.is_placeholder(w).any()
        assert hds.is_placeholder(np.array([hds.PLACEHOLDER_WORD]))[0]

    def test_range_validation(self):
        with pytest.raises(ValueError):
            oracles.pack_words([8192], [0])

    @pytest.mark.parametrize("dtype", [np.int16, np.int64, np.float64])
    def test_integer_and_float_input_pack_alike(self, dtype):
        # integer input is packed as it is, integer-valued floats through
        # int64; either way the words and the range check are the same
        rng = np.random.default_rng(4)
        a = rng.integers(-8192, 8192, 5000)
        b = rng.integers(-8192, 8192, 5000)
        np.testing.assert_array_equal(
            oracles.pack_words(a.astype(dtype), b.astype(dtype)),
            oracles.pack_words(a.tolist(), b.tolist()))
        for bad in (8192, -8193):
            with pytest.raises(ValueError, match="homodyne"):
                oracles.pack_words(np.array([0, bad], dtype),
                                   np.zeros(2, dtype))
            with pytest.raises(ValueError, match="phase-drive"):
                oracles.pack_words(np.zeros(2, dtype),
                                   np.array([bad, 0], dtype))

    def test_non_integer_input_converts_to_int64(self):
        x = np.array([-8192.9, -1.5, 0.7, 8191.9])
        np.testing.assert_array_equal(
            oracles.pack_words(x, x[::-1]),
            oracles.pack_words(x.astype(np.int64), x[::-1].astype(np.int64)))


class TestRingBuffer:
    def test_spec_address_arithmetic(self):
        # logical page/offset of the last timetag at the production geometry
        t = 69_119_999
        assert t >> 10 == 67_499
        assert t & 1023 == 1023
        buf = hds.RingBuffer()  # full size; zeros allocate lazily
        assert buf.capacity == 69_120_000
        phys = buf.physical_index(np.array([0, t]))
        assert phys[0] == buf.page_map[0] << 10
        assert phys[1] == (buf.page_map[67_499] << 10) | 1023

    def test_address_bijection_small(self):
        buf = hds.RingBuffer(pages=8)
        phys = buf.physical_index(np.arange(buf.capacity))
        assert np.unique(phys).size == buf.capacity

    def test_wrap_overflow_count(self):
        srv = make_server(pages=2)
        cap = srv.buffer.capacity
        zeros = np.zeros(cap + 5, dtype=np.int16)
        srv.ingest_samples(zeros, zeros)
        st = srv.status()
        assert st.overflow_number == 1
        assert st.current_timetag == 5

    @pytest.mark.parametrize("cursor", [0, 1, 2])
    def test_page_writes_match_per_word_reference(self, cursor):
        buf = hds.RingBuffer(pages=8, page_map_seed=3)
        buf.reset(start_cursor=cursor)
        ref = np.zeros(buf.capacity, dtype=np.uint32)
        rng = np.random.default_rng(cursor)
        t = cursor
        # single words, page edges, several pages, then across the wrap
        for size in (1, 1023, 1024, 1025, 3 * 1024 + 5, buf.capacity - 100):
            a, b = rng.integers(-2 ** 15, 2 ** 15, (2, size), dtype=np.int16)
            tags = (t + np.arange(size)) % buf.capacity
            ref[(buf.page_map[tags >> 10] << 10) | (tags & 1023)] = \
                oracles.pack_words(a, b, bits=16)
            buf.write(a, b)
            t = (t + size) % buf.capacity
            np.testing.assert_array_equal(buf.data, ref)
            assert buf.write_cursor == t
        assert buf.overflow_number == 1

    @pytest.mark.parametrize("cursor", [0, 777])
    def test_read_range_equals_read_of_arange(self, cursor):
        buf = hds.RingBuffer(pages=128, page_map_seed=5)
        buf.reset(start_cursor=cursor)
        rng = np.random.default_rng(cursor)
        buf.write(*hds.unpack_words(rng.integers(
            0, 2 ** 32, buf.capacity - cursor, dtype=np.uint64)
            .astype(np.uint32)))
        cap, half, block = buf.capacity, buf.half, SCAN_BLOCK_WORDS
        assert half % block == 0 and cap > 2 * block
        for lo, hi in ((0, 1), (0, 1024), (1023, 1025), (1000, 5000),
                       (half - 3, half + 3), (half - block, half + 1),
                       (block - 1, 2 * block + 1), (3 * block, 4 * block + 1),
                       (cap - 1024, cap), (cap - 5, cap), (0, cap),
                       (cursor, cursor + 2048), (10, 10), (cap, cap)):
            np.testing.assert_array_equal(buf.read_range(lo, hi),
                                          buf.read(np.arange(lo, hi)))
        for lo, hi in ((-1, 10), (cap - 10, cap + 1), (cap, cap + 1)):
            with pytest.raises(IndexError):
                buf.read_range(lo, hi)
            with pytest.raises(IndexError):
                buf.physical_index(np.arange(lo, hi))

    def test_overflow_mask_29_bits(self):
        buf = hds.RingBuffer(pages=2)
        buf.overflow_number = hds.OVERFLOW_MASK
        zeros = np.zeros(buf.capacity, dtype=np.int16)
        buf.write(zeros, zeros)
        assert buf.overflow_number == 0

    def test_reset_takes_fresh_zeroed_storage(self):
        buf = hds.RingBuffer(pages=8)
        buf.write(*hds.unpack_words(
            np.arange(1, buf.capacity // 2 + 1, dtype=np.uint32)))
        held = buf.read(np.arange(10))
        old = buf.data
        buf.reset(start_cursor=2)
        assert not buf.data.any()
        assert buf.write_cursor == 2 and buf.overflow_number == 0
        # a reader still holding the old storage reads what it held
        np.testing.assert_array_equal(old[buf.physical_index(np.arange(10))],
                                      held)

    def test_resident_only_where_written(self):
        # production geometry in a fresh process: writing one half, then
        # one half again after a reset, must not make the whole buffer
        # resident (scattered pages on huge-page storage would)
        out = subprocess.run(
            [sys.executable, "-c", _RESIDENCY_PROBE], capture_output=True,
            text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        growth, capacity, zeroed = map(int, out.stdout.split())
        assert zeroed == 1
        assert growth <= 0.6 * capacity * WORD_DTYPE.itemsize


_RESIDENCY_PROBE = """
import resource
import numpy as np
from photonsub.hds import RingBuffer, unpack_words

def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

piece = unpack_words(np.arange(1 << 20, dtype=np.uint32))
before = peak()
buf = RingBuffer()

def write_half():
    for lo in range(0, buf.half, piece[0].size):
        buf.write(*(x[:buf.half - lo] for x in piece))

write_half()
buf.reset(1)
write_half()
growth = peak() - before
buf.reset(1)
# after the growth is taken: on some kernels a read makes a page resident
print(growth, buf.capacity, int(not buf.data.any()))
"""


class TestIngest:
    @given(cursor=st.integers(0, 4 * hds.PAGE_WORDS - 1),
           n=st.integers(0, 12 * hds.PAGE_WORDS),
           bounds=st.lists(st.integers(-2 ** 15, 2 ** 15 - 1), min_size=4,
                           max_size=4),
           dtype=st.sampled_from([np.int16, np.int64]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_ingest_matches_the_per_word_reference(self, cursor, n, bounds,
                                                   dtype, seed):
        # int16 halves from a random start cursor, past a wrap for larger
        # n: the buffer holds the reference words and the flag says whether
        # any half lies outside 14 bits
        srv = make_server(pages=4)
        buf = srv.buffer
        buf.reset(start_cursor=cursor)
        rng = np.random.default_rng(seed)
        a, b = (rng.integers(min(lo, hi), max(lo, hi) + 1, n).astype(dtype)
                for lo, hi in (bounds[:2], bounds[2:]))
        srv.ingest_samples(a, b)
        ref = np.zeros(buf.capacity, dtype=np.uint32)
        last = slice(max(n - buf.capacity, 0), n)   # what a wrap left
        tags = (cursor + np.arange(n)[last]) % buf.capacity
        ref[(buf.page_map[tags >> 10] << 10) | (tags & 1023)] = \
            oracles.pack_words(a[last], b[last], bits=16)
        np.testing.assert_array_equal(buf.data, ref)
        assert buf.write_cursor == (cursor + n) % buf.capacity
        assert buf.overflow_number == (cursor + n) // buf.capacity
        halves = np.concatenate([a, b])
        assert srv.status().adc_out_of_range == bool(
            np.any((halves < -8192) | (halves > 8191)))

    def test_refused_input_changes_nothing(self):
        # a float, unequal, multi-dimensional, scalar or out-of-int16 input,
        # and any input to a halted server, raises and leaves the cursor,
        # the overflow number, the page data and the flags as they were
        srv = make_server(pages=4)
        srv.ingest_samples(*noise_samples(5000))
        cases = [
            (TypeError, np.array([0.7, -1.9]), np.array([0, 0])),
            (TypeError, [0, 0], [0.0, 1.0]),
            (TypeError, np.array([True]), np.array([0])),
            (ValueError, [0, 1], [0]),
            (ValueError, np.zeros((2, 2), int), np.zeros((2, 2), int)),
            (ValueError, np.int16(0), np.int16(0)),
            (ValueError, [0, 2 ** 15], [0, 0]),
            (ValueError, [0, 0], [-2 ** 15 - 1, 0]),
            (ValueError, np.array([8191], np.uint16),
             np.array([2 ** 16 - 1], np.uint16)),
        ]
        for error, a, b in cases:
            data, status = srv.buffer.data.copy(), srv.status()
            with pytest.raises(error):
                srv.ingest_samples(a, b)
            np.testing.assert_array_equal(srv.buffer.data, data)
            assert srv.status() == status, (a, b)
        srv.control("HALT")
        status = srv.status()
        with pytest.raises(RuntimeError, match="halted"):
            srv.ingest_samples([0], [0])
        assert srv.status() == status


class TestQueries:
    def test_bit_exact_round_trip(self):
        srv = make_server(pages=64)
        pattern = fill_first_half(srv)
        tags = np.arange(0, srv.buffer.half, 17)
        out = srv.query_samples(0, tags)
        np.testing.assert_array_equal(out, pattern[tags])

    def test_window_one_is_passthrough(self):
        srv = make_server(pages=64, integration_window=1)
        pattern = fill_first_half(srv)
        out = srv.query_samples(0, np.array([5, 100]))
        np.testing.assert_array_equal(out, pattern[[5, 100]])

    def test_integration_window_sums(self):
        srv = make_server(pages=64, integration_window=4)
        a = np.arange(srv.buffer.half) % 100
        b = np.full(srv.buffer.half, 3)
        fill_first_half(srv, a, b)
        out = srv.query_samples(0, np.array([10, 200]))
        aa, bb = hds.unpack_words(out)
        assert aa[0] == a[10:14].sum()
        assert bb[0] == 12

    def test_integration_saturates_and_flags(self):
        srv = make_server(pages=64, integration_window=8)
        a = np.full(srv.buffer.half, 8191)
        fill_first_half(srv, a, np.zeros_like(a))
        out = srv.query_samples(0, np.array([0]))
        aa, _ = hds.unpack_words(out)
        assert aa[0] == 32767
        assert srv.status().saturation_events == 1

    def test_integrated_words_match_grid_formula(self):
        srv = make_server(pages=64)
        rng = np.random.default_rng(3)
        half = srv.buffer.half
        fill_first_half(srv, rng.integers(-8192, 8192, half),
                        rng.integers(-8192, 8192, half))
        tags = rng.integers(0, half - 4, 500)
        for window in range(1, 5):
            assert srv.control(f"SET INTWIN {window}") == "OK"
            grid = tags[:, None] + np.arange(window)[None, :]
            a, b = hds.unpack_words(srv.buffer.read(grid.ravel()))
            a = np.clip(a.astype(np.int64).reshape(-1, window).sum(axis=1),
                        -32768, 32767)
            b = np.clip(b.astype(np.int64).reshape(-1, window).sum(axis=1),
                        -32768, 32767)
            expect = (((a & 0xFFFF) << 16) | (b & 0xFFFF)).astype(np.uint32)
            np.testing.assert_array_equal(srv.query_samples(0, tags), expect)

    @pytest.mark.parametrize("slope", [False, True])
    @pytest.mark.parametrize("window", [1, 4, 5, 8])
    def test_integrated_words_match_the_oracle(self, window, slope):
        # full-scale samples: windows of five and more saturate int16
        srv = make_server(pages=16, integration_window=window,
                          slope_check=slope)
        rng = np.random.default_rng(window)
        half = srv.buffer.half
        fill_first_half(
            srv, *rng.choice([-8192, -8000, 8000, 8191], size=(2, half)))
        tags = np.append(rng.integers(0, half - window + 1, 300), 0)
        state = oracle_state(srv)
        assert srv.query_samples(0, tags).tolist() == [
            oracles.hds_sample_word(state, int(t)) for t in tags]

    def test_active_half_refused(self):
        srv = make_server(pages=64)
        fill_first_half(srv)
        active_tag = srv.buffer.half + 5
        with pytest.raises(hds.ActiveHalfError):
            srv.query_samples(0, np.array([active_tag]))

    def test_stale_overflow_refused(self):
        srv = make_server(pages=64)
        fill_first_half(srv)
        with pytest.raises(hds.StaleEpochError):
            srv.query_samples(3, np.array([10]))

    def test_half_buffer_epoch_safety(self):
        # epoch-tagged pattern: a sealed-half query never returns words
        # written after its epoch
        srv = make_server(pages=4)
        cap = srv.buffer.capacity
        half = srv.buffer.half
        zeros = np.zeros(cap, dtype=np.int16)
        srv.ingest_samples(np.full(cap, 100), zeros)  # full wrap: overflow 1
        srv.ingest_samples(np.full(half, 200), zeros[:half])
        srv.ingest_samples([0], [0])           # cursor just past half
        # sealed half is H0 of the current epoch (value 200)
        out = srv.query_samples(1, np.arange(0, half, 97))
        aa, _ = hds.unpack_words(out)
        assert np.all(aa == 200)
        # the previous epoch's H1 data (value 100) is now stale
        with pytest.raises(hds.StaleEpochError):
            srv.query_samples(0, np.array([half + 3]))

    def test_integrity_fault_refuses_queries(self):
        srv = make_server(pages=64)
        fill_first_half(srv)
        srv.query_samples(0, np.array([1]))
        srv.inject_fault("fifo_overflow")
        with pytest.raises(hds.IntegrityError):
            srv.query_samples(0, np.array([1]))

    def test_halted_full_buffer_scan_allowed(self):
        srv = make_server(pages=4)
        pattern = fill_first_half(srv)
        srv.control("HALT")
        out = srv.query_samples(0, np.arange(0, srv.buffer.half, 13))
        np.testing.assert_array_equal(out,
                                      pattern[np.arange(0, srv.buffer.half, 13)])
        srv.control("RESUME")


class TestSlopeCheck:
    def _drive_filled_server(self, pages=2048):
        # 10-kHz sawtooth on the drive ADC channel
        srv = make_server(pages=pages, slope_check=True)
        drive = PhaseDrive(ramp_frequency_hz=10_000.0)
        half = srv.buffer.half
        t = np.arange(half + 1)
        _, code, _ = drive.evaluate(t)
        srv.ingest_samples(np.zeros_like(code), code)
        return srv, drive

    def test_placeholder_rate_point_one_percent(self):
        srv, drive = self._drive_filled_server()
        rng = np.random.default_rng(5)
        tags = rng.integers(1, srv.buffer.half, size=1_000_000)
        out = srv.query_samples(0, tags)
        rate = hds.is_placeholder(out).mean()
        assert rate == pytest.approx(0.001, rel=0.5)
        assert abs(rate - 0.001) < 0.0005

    def test_flyback_positions_exact(self):
        srv, drive = self._drive_filled_server(pages=256)
        period = drive.period_samples
        ramp = drive.ramp_samples
        tags = np.arange(ramp - 2, period + 2)
        out = srv.query_samples(0, tags)
        marked = hds.is_placeholder(out)
        expect = (tags >= ramp) & (tags < period)
        np.testing.assert_array_equal(marked, expect)

    def test_timetag_zero_is_never_a_flyback(self):
        # after a wrap the sample before tag 0 in time is the buffer's last
        # tag; a higher drive code there still leaves tag 0 alone
        srv = make_server(pages=4, slope_check=True)
        cap, half = srv.buffer.capacity, srv.buffer.half
        drive = np.zeros(cap, dtype=np.int64)
        drive[-1] = 8000
        srv.ingest_samples(np.zeros_like(drive), drive)        # epoch 0
        drive = np.zeros(half + 1, dtype=np.int64)
        drive[:3] = -8000, -8000, -8100
        srv.ingest_samples(np.zeros_like(drive), drive)        # epoch 1
        tags = np.arange(4)
        out = srv.query_samples(1, tags)
        np.testing.assert_array_equal(hds.is_placeholder(out),
                                      [False, False, True, False])
        state = oracle_state(srv)
        assert out.tolist() == [oracles.hds_sample_word(state, t)
                                for t in tags.tolist()]

    def test_page_start_compares_with_the_previous_logical_page(self):
        # a page's first tag compares with the last word of the logical
        # page before it, which the scattered page map stores elsewhere
        srv = make_server(pages=16, slope_check=True)
        half, pm = srv.buffer.half, srv.buffer.page_map
        drive = np.arange(half) - half // 2         # rising: no flyback ...
        drive[3 * hds.PAGE_WORDS] = -8000           # ... but at one page start
        fill_first_half(srv, np.zeros_like(drive), drive)
        starts = np.arange(hds.PAGE_WORDS, half, hds.PAGE_WORDS)
        out = srv.query_samples(0, starts)
        np.testing.assert_array_equal(starts[hds.is_placeholder(out)],
                                      [3 * hds.PAGE_WORDS])
        state = oracle_state(srv)
        assert out.tolist() == [oracles.hds_sample_word(state, t)
                                for t in starts.tolist()]
        # the word stored just before each page start is another logical
        # page's, and comparing with it would mark other page starts
        addr = pm[starts // hds.PAGE_WORDS] * hds.PAGE_WORDS
        assert np.all(pm[starts // hds.PAGE_WORDS - 1] + 1
                      != pm[starts // hds.PAGE_WORDS])
        _, stored_prev = hds.unpack_words(srv.buffer.data[addr - 1])
        assert np.any((drive[starts] < stored_prev)
                      != hds.is_placeholder(out))

    def test_slope_checked_query_reads_once(self):
        # the words and their predecessors come from one gather
        srv = make_server(pages=16, slope_check=True)
        fill_first_half(srv)
        read, calls = srv.buffer.read, []
        srv.buffer.read = lambda tags: calls.append(tags.size) or read(tags)
        srv.query_samples(0, np.array([0, 5, hds.PAGE_WORDS, 3000]))
        assert calls == [8]


class TestThresholdScan:
    def _pulse_server(self, n_pulses=100, period=500, width=5, amp=6000):
        srv = make_server(pages=512, mode="threshold", threshold=2000)
        half = srv.buffer.half
        a = np.zeros(half, dtype=np.int64)
        starts = 50 + np.arange(n_pulses) * period
        for s in starts:
            a[s:s + width] = amp
        srv.ingest_samples(a, np.zeros_like(a))
        srv.ingest_samples([0], [0])
        return srv, starts

    def test_constant_below_threshold_empty(self):
        srv = make_server(pages=64, mode="threshold", threshold=2000)
        fill_first_half(srv, np.full(srv.buffer.half, 100),
                        np.zeros(srv.buffer.half, dtype=np.int64))
        out = srv.threshold_scan(0, 0, srv.buffer.half)
        assert out.size == 0

    def test_pulse_train_counted_once_each(self):
        srv, starts = self._pulse_server(n_pulses=1000, period=260)
        out = srv.threshold_scan(0, 0, srv.buffer.half)
        assert out.size == 1000
        np.testing.assert_array_equal(np.sort(out), starts)

    def test_triangle_equal_slopes(self):
        srv = make_server(pages=256, mode="threshold", threshold=1500)
        half = srv.buffer.half
        period = 200
        saw = np.abs(((np.arange(half) % period) - period / 2))
        a = (saw * 60 - 3000).astype(np.int64)
        np.clip(a, -8192, 8191, out=a)
        srv.ingest_samples(a, np.zeros_like(a))
        srv.ingest_samples([0], [0])
        whole = (half // period) * period  # whole periods only
        rising = srv.threshold_scan(0, 0, whole)
        srv.config.slope_sign = -1
        falling = srv.threshold_scan(0, 0, whole)
        assert rising.size == falling.size > 0

    def test_full_half_scan_memory_bounded(self):
        # one 16-byte scan frame over a whole half allocates per block,
        # not per scanned word: a constant plus a multiple of the reply
        import tracemalloc
        srv, starts = self._pulse_server()
        tracemalloc.start()
        try:
            reply = srv.handle_request(
                proto.encode_scan(0, 0, srv.buffer.half),
                hds.ConnectionState())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        status, _, payload = proto.decode_response(reply)
        assert status is proto.Status.OK
        np.testing.assert_array_equal(payload, starts)
        assert peak < 2 ** 20 + 16 * reply.nbytes

    def test_block_edges_keep_every_crossing(self):
        # one-word spikes at the last word of a block and at the first word
        # of one, whose previous sample lies in the block before; scans
        # that start on and inside a block
        srv = make_server(pages=128, mode="threshold", threshold=2000)
        half = srv.buffer.half
        block = SCAN_BLOCK_WORDS
        edges = np.array([1, block - 1, block + 1, 2 * block, half - 1])
        a = np.zeros(half, dtype=np.int64)
        a[edges] = 6000
        fill_first_half(srv, a, np.zeros_like(a))
        for start in (0, block // 2, block):
            np.testing.assert_array_equal(srv.threshold_scan(0, start, half),
                                          edges[edges > start])
        assert srv.threshold_scan(0, 5, 6).size == 0

    def test_scan_must_not_span_epochs(self):
        srv, _ = self._pulse_server()
        srv.control("HALT")
        cursor = srv.buffer.write_cursor
        with pytest.raises(hds.StaleEpochError):
            srv.threshold_scan(0, cursor - 10, cursor + 10)


class TestProtocol:
    def test_request_response_via_handler(self):
        srv = make_server(pages=16)
        pattern = fill_first_half(srv)
        conn = hds.ConnectionState()
        body = proto.encode_query(0, np.arange(20))
        reply = srv.handle_request(body, conn)
        status, ovf, payload = proto.decode_response(reply)
        assert status is proto.Status.OK
        assert ovf == 0
        np.testing.assert_array_equal(payload, pattern[:20])
        # a keyword-only request for the sealed epoch is an empty query
        reply = srv.handle_request(proto.encode_query(0, []), conn)
        status, ovf, payload = proto.decode_response(reply)
        assert status is proto.Status.OK and ovf == 0 and payload.size == 0

    def test_keyword_mismatch_error_frame(self):
        srv = make_server(pages=64)
        fill_first_half(srv)
        conn = hds.ConnectionState()
        bad = np.array([0xDEADBEEF, 0, 1, 2], dtype=np.uint32)
        status, _, payload = proto.decode_response(srv.handle_request(bad, conn))
        assert status is proto.Status.KEYWORD_MISMATCH
        assert payload.size == 0

    def test_continuation_inherits_epoch(self):
        srv = make_server(pages=64)
        pattern = fill_first_half(srv)
        conn = hds.ConnectionState()
        r1 = srv.handle_request(proto.encode_query(0, np.arange(10)), conn)
        r2 = srv.handle_request(
            proto.encode_query(0, np.arange(10, 20), with_keyword=False), conn)
        _, _, p1 = proto.decode_response(r1)
        _, _, p2 = proto.decode_response(r2)
        np.testing.assert_array_equal(np.concatenate([p1, p2]), pattern[:20])

    def test_continuation_without_header_rejected(self):
        srv = make_server(pages=64)
        fill_first_half(srv)
        conn = hds.ConnectionState()
        status, _, _ = proto.decode_response(
            srv.handle_request(np.array([1, 2, 3], dtype=np.uint32), conn))
        assert status is proto.Status.KEYWORD_MISMATCH

    @pytest.mark.parametrize("mode, body", [
        ("samples", proto.encode_query(0, np.arange(10))),
        ("threshold", proto.encode_scan(0, 0, 100)),
    ])
    def test_read_racing_a_lap_is_stale(self, mode, body):
        srv = make_server(pages=4, mode=mode)
        fill_first_half(srv)
        half, read = srv.buffer.half, srv.buffer.read
        # queries read timetags, scans read ranges of them
        name = "read" if mode == "samples" else "read_range"
        original = getattr(srv.buffer, name)

        def lapping_read(*args):
            # the writer fills one more half between the verdict and the read
            srv.ingest_samples(np.full(half, 77), np.zeros(half, np.int64))
            return original(*args)

        setattr(srv.buffer, name, lapping_read)
        status, _, payload = proto.decode_response(
            srv.handle_request(body, hds.ConnectionState()))
        assert status is proto.Status.STALE_OVERFLOW and payload.size == 0
        # tag 0 already holds the epoch-1 word
        assert hds.unpack_words(read(np.array([0])))[0][0] == 77

    @pytest.mark.parametrize("cfg, lapped_read", [
        (dict(slope_check=True), 1),
        (dict(integration_window=3, slope_check=True), 3),
    ], ids=["slope", "window3"])
    def test_lap_during_a_slope_or_window_read_is_stale(self, cfg,
                                                        lapped_read):
        # the writer laps during the query's last read: the one gather of
        # words and slope neighbours, or the integrated window's third
        srv = make_server(pages=4, **cfg)
        fill_first_half(srv)
        half, read, calls = srv.buffer.half, srv.buffer.read, []

        def lapping_read(tags):
            calls.append(tags.size)
            if len(calls) == lapped_read:
                srv.ingest_samples(np.full(half, 77),
                                   np.zeros(half, np.int64))
            return read(tags)

        srv.buffer.read = lapping_read
        status, _, payload = proto.decode_response(srv.handle_request(
            proto.encode_query(0, np.arange(10)), hds.ConnectionState()))
        assert status is proto.Status.STALE_OVERFLOW and payload.size == 0
        assert len(calls) == lapped_read

    @pytest.mark.parametrize("halted", [False, True])
    @pytest.mark.parametrize("halves, extra",
                             [(0, 5), (1, 0), (1, 1), (2, 0), (2, 5),
                              (3, 1)])
    def test_epoch_edges_match_the_oracle(self, halves, extra, halted):
        # every verdict where it can change: at the half boundary, the
        # cursor and the buffer's ends, for sample queries and scans, with
        # the writer before the first wrap, at and past a half boundary
        srv = make_server(pages=4, slope_check=True)
        half, cap = srv.buffer.half, srv.buffer.capacity
        srv.ingest_samples(*noise_samples(halves * half + extra))
        if halted:
            srv.control("HALT")
        cursor = srv.buffer.write_cursor
        edges = sorted({0, half - 2, half - 1, half, half + 1,
                        max(cursor - 1, 0), cursor, cap - 1})
        for mode, window in (("samples", 1), ("samples", 2),
                             ("threshold", 1)):
            srv.config.mode, srv.config.integration_window = mode, window
            state = oracle_state(srv)
            payloads = (itertools.chain(itertools.combinations(edges, 1),
                                        itertools.combinations(edges, 2))
                        if mode == "samples" else
                        itertools.combinations(edges + [cap], 2))
            for tags in payloads:
                for ovf in (0, 1, hds.OVERFLOW_MASK):
                    body = proto.encode_query(ovf, tags)
                    status, echo, payload = proto.decode_response(
                        srv.handle_request(body, hds.ConnectionState()))
                    want = oracles.hds_reply(state, None, body)[:3]
                    assert [status, echo, payload.tolist()] == list(want), (
                        mode, window, tags, ovf)

    _CAP16 = 16 * hds.PAGE_WORDS
    _WORD = st.one_of(st.just(proto.KEYWORD), st.integers(0, 2),
                      st.integers(0, _CAP16 - 1),
                      st.integers(_CAP16, 2 ** 32 - 1),
                      st.integers(0, 2 ** 32 - 1))

    @given(frames=st.lists(st.lists(_WORD, max_size=12), min_size=1,
                           max_size=4),
           mode=st.sampled_from(["samples", "threshold"]),
           window=st.integers(1, 4), slope=st.booleans(),
           halted=st.booleans(), lapped=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_every_request_gets_one_response(self, frames, mode, window,
                                             slope, halted, lapped):
        # protocol totality: one well-formed reply per random frame, with
        # the status, echo and payload the tag-by-tag oracle derives
        srv = make_server(pages=16, mode=mode, integration_window=window,
                          slope_check=slope)
        fill_first_half(srv, *noise_samples(srv.buffer.half))
        if lapped:      # epoch 1 below the cursor, epoch 0 above it
            srv.ingest_samples(*noise_samples(srv.buffer.capacity, seed=1))
        if halted:
            srv.control("HALT")
        state = oracle_state(srv)
        conn, conn_overflow = hds.ConnectionState(), None
        for frame in frames:
            body = np.array(frame, dtype=np.uint32)
            status, echo, payload = proto.decode_response(
                srv.handle_request(body, conn))
            if status is proto.Status.OK and mode == "samples":
                keyed = body.size and body[0] == proto.KEYWORD
                assert payload.size == body.size - (2 if keyed else 0)
            *want, conn_overflow = oracles.hds_reply(state, conn_overflow,
                                                     body)
            assert [status, echo, payload.tolist()] == want

    def test_status_snapshot_fresh(self):
        srv = make_server(pages=64)
        st = srv.status()
        assert st.overflow_number == 0
        assert st.data_queries_allowed


class TestControlPlane:
    def test_set_get_round_trip(self):
        srv = make_server(pages=64)
        assert srv.control("SET INTWIN 4") == "OK"
        assert srv.control("GET INTWIN") == "4"
        assert srv.control("SET SLOPECHK 1") == "OK"
        assert srv.control("GET SLOPECHK") == "1"
        assert srv.control("SET MODE THRESHOLD") == "OK"
        assert srv.control("GET MODE") == "THRESHOLD"
        assert srv.control("SET SLOPE FALLING") == "OK"
        assert srv.control("GET SLOPE") == "FALLING"

    def test_unknown_command(self):
        srv = make_server(pages=64)
        assert srv.control("FROBNICATE").startswith("ERR")

    def test_status_line(self):
        srv = make_server(pages=64)
        line = srv.control("STATUS")
        assert line.startswith("OVF 0 TT ")
        srv.inject_fault("clock_unlock")
        assert "UNLOCKED" in srv.control("STATUS")

    def test_start_offset_checked_like_start_run(self):
        srv = make_server(pages=64)
        with pytest.raises(ValueError):
            srv.start_run(5)
        assert srv.control("START 5").startswith("ERR ")
        assert srv.control("START 2") == "OK"
        assert srv.status().current_timetag == 2

    def test_integration_window_bounded(self):
        srv = make_server(pages=64)
        assert srv.control("SET INTWIN 4") == "OK"
        for w in (MAX_INTEGRATION_WINDOW + 1, srv.buffer.half, 2 ** 70, 0, -3):
            assert srv.control(f"SET INTWIN {w}").startswith("ERR")
            assert srv.control("GET INTWIN") == "4"
        assert srv.control(f"SET INTWIN {MAX_INTEGRATION_WINDOW}") == "OK"
        assert srv.control("GET INTWIN") == str(MAX_INTEGRATION_WINDOW)

    # (key, SET text, GET reply), every key of the settings table
    _ROUND_TRIPS = [
        ("INTWIN", "7", "7"), ("INTWIN", str(MAX_INTEGRATION_WINDOW),
                               str(MAX_INTEGRATION_WINDOW)),
        ("INTWIN", "1", "1"),
        ("SLOPECHK", "on", "1"), ("SLOPECHK", "Off", "0"),
        ("SLOPECHK", "1", "1"), ("SLOPECHK", "0", "0"),
        ("THRESH", "-8192", "-8192"), ("THRESH", "8191", "8191"),
        ("THRESH", "1500", "1500"),
        ("SLOPE", "falling", "FALLING"), ("SLOPE", "Rising", "RISING"),
        ("MODE", "threshold", "THRESHOLD"), ("MODE", "Samples", "SAMPLES"),
    ]

    def test_every_key_round_trips(self):
        srv = make_server(pages=16)
        assert {key for key, _, _ in self._ROUND_TRIPS} == set(SETTINGS)
        for key, text, shown in self._ROUND_TRIPS:
            assert srv.control(f"SET {key} {text}") == "OK"
            assert srv.control(f"get {key.lower()}") == shown

    # (ServerConfig field, value), every field of the settings table
    _FIELD_VALUES = [
        ("integration_window", 7), ("integration_window", 1),
        ("slope_check", True), ("slope_check", False),
        ("threshold", -8192), ("threshold", 4000),
        ("slope_sign", -1), ("slope_sign", +1),
        ("mode", "threshold"), ("mode", "samples"),
    ]

    @pytest.mark.parametrize("transport", ["in-process", "socket"])
    def test_set_config_round_trips(self, transport):
        core = make_server(pages=16)
        wire = (hds.HdsSocketServer(core).start() if transport == "socket"
                else None)
        try:
            client = hds.HdsClient(
                hds.InProcessTransport(core) if wire is None else
                hds.SocketTransport(wire.data_address, wire.control_address))
            keys = {field: key for key, (field, _) in SETTINGS.items()}
            assert {name for name, _ in self._FIELD_VALUES} == set(keys)
            for name, value in self._FIELD_VALUES:
                client.set_config(**{name: value})
                got = getattr(core.config, name)
                assert got == value and type(got) is type(value)
                forms = SETTINGS[keys[name]][1]
                assert parse(forms, client.control(f"GET {keys[name]}")) \
                    == value
            with pytest.raises(ValueError, match="unknown config field"):
                client.set_config(slope="RISING")
            with pytest.raises(RuntimeError, match="control rejected mode"):
                client.set_config(mode="banana")
            assert core.config.mode == "samples"
            client.close()
        finally:
            if wire is not None:
                wire.stop()

    @pytest.mark.parametrize("command", [
        "SET SLOPE banana", "SET SLOPE up", "SET SLOPECHK false",
        "SET SLOPECHK yes", "SET SLOPECHK 2", "SET MODE banana",
        "SET MODE COINC", "SET THRESH 8192", "SET THRESH -8193",
        "SET THRESH 1e3", "SET INTWIN 1.5", "SET INTWIN 4 5",
        "SET SLOPE RISING FALLING"])
    def test_bad_value_is_refused(self, command):
        # any text but the key's own forms: ERR, and no setting moves
        srv = make_server(pages=16)
        assert srv.control(command).startswith("ERR ")
        assert srv.config == hds.ServerConfig()

    @pytest.mark.parametrize("text, on", [
        ("0", False), ("1", True), ("off", False), ("OFF", False),
        ("Off", False), ("on", True), ("ON", True), ("oN", True)])
    def test_slope_check_switch_spellings(self, text, on):
        srv = make_server(pages=16, slope_check=not on)
        assert srv.control(f"SET SLOPECHK {text}") == "OK"
        assert srv.config.slope_check is on

    @pytest.mark.parametrize("command, missing", [
        ("SET", "key"), ("SET INTWIN", "value"), ("set slope", "value"),
        ("GET", "key")])
    def test_missing_key_or_value_is_named(self, command, missing):
        reply = make_server(pages=16).control(command)
        assert reply.startswith("ERR ") and missing in reply

    _ARG = st.one_of(
        st.integers(-2 ** 80, 2 ** 80).map(str),
        st.sampled_from(["SAMPLES", "THRESHOLD", "RISING", "FALLING", "OFF",
                         "on", "0x10", "1e9", "nan", ""]),
        st.text(max_size=10))

    @given(verb=st.one_of(st.sampled_from(["STATUS", "HALT", "RESUME",
                                           "START", "SET", "GET", "set",
                                           "FROBNICATE"]),
                          st.text(max_size=8)),
           key=st.one_of(st.sampled_from(["INTWIN", "SLOPECHK", "THRESH",
                                          "SLOPE", "MODE", "NOPE"]),
                         st.text(max_size=8)),
           args=st.lists(_ARG, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_control_fuzz_one_reply(self, verb, key, args):
        srv = make_server(pages=16)
        fill_first_half(srv, *noise_samples(srv.buffer.half))
        reply = srv.control(" ".join([verb, key, *args]))
        assert isinstance(reply, str)
        assert srv.control("STATUS").startswith("OVF ")
        # whatever settings the command left, a sealed-half sample query
        # and a threshold scan each get one decodable reply
        tags = np.arange(0, srv.buffer.half, 97)
        for mode, body in (("samples", proto.encode_query(0, tags)),
                           ("threshold", proto.encode_scan(
                               0, 0, srv.buffer.half))):
            srv.config.mode = mode
            status, _, payload = proto.decode_response(
                srv.handle_request(body, hds.ConnectionState()))
            if status is proto.Status.OK and mode == "samples":
                assert payload.size == tags.size


class TestSocketTransport:
    def test_end_to_end_over_tcp(self):
        core = make_server(pages=64)
        pattern = fill_first_half(core)
        wire = hds.HdsSocketServer(core).start()
        try:
            client = hds.HdsClient(hds.SocketTransport(
                wire.data_address, wire.control_address))
            out = client.query_samples(0, np.arange(50))
            np.testing.assert_array_equal(out, pattern[:50])
            # batched continuation over the same connection
            tags = np.arange(0, 3000)
            out = client.query_samples_batched(0, tags, batch=1000)
            np.testing.assert_array_equal(out, pattern[tags])
            assert client.status()["overflow_number"] == 0
            assert client.control("GET MODE") == "SAMPLES"
            with pytest.raises(hds.StaleEpochError):
                client.query_samples(7, np.array([1]))
            client.close()
        finally:
            wire.stop()

    def test_oversized_frame_refused_unread(self):
        core = make_server(pages=16)
        pattern = fill_first_half(core)
        wire = hds.HdsSocketServer(core).start()
        try:
            # a 2^20-word header with a 12-byte body: the reply must come
            # without the server waiting for the announced 4 MiB
            with socket.create_connection(wire.data_address,
                                          timeout=3.0) as sock:
                sock.sendall(struct.pack("<I", 2 ** 20) + bytes(12))
                status, _, payload = proto.decode_response(
                    proto.read_frame(sock))
            assert status is proto.Status.MALFORMED and payload.size == 0
            # frames within the cap still pass
            client = hds.HdsClient(hds.SocketTransport(
                wire.data_address, wire.control_address))
            tags = np.arange(16_000) % core.buffer.half
            np.testing.assert_array_equal(client.query_samples(0, tags),
                                          pattern[tags])
            client.set_config(mode="threshold", threshold=4000,
                              slope_sign=+1)
            crossings = client.threshold_scan(0, 0, core.buffer.half)
            assert crossings.size > 0
            client.close()
        finally:
            wire.stop()

    def test_stop_ends_live_connections(self):
        import threading
        core = make_server(pages=16)
        wire = hds.HdsSocketServer(core).start()
        client = hds.HdsClient(hds.SocketTransport(
            wire.data_address, wire.control_address))
        try:
            assert client.status()["overflow_number"] == 0
            wire.stop()     # the client is still connected
            handlers = [t.name for t in threading.enumerate()
                        if "process_request_thread" in t.name]
            assert handlers == []
            with pytest.raises(ConnectionError):
                client.status()
        finally:
            client.close()

    def test_stop_returns_within_a_short_poll(self):
        import time
        for _ in range(3):
            wire = hds.HdsSocketServer(make_server(pages=16)).start()
            t0 = time.perf_counter()
            wire.stop()
            assert time.perf_counter() - t0 < 0.25

    def test_in_process_transport_equivalent(self):
        core = make_server(pages=64)
        pattern = fill_first_half(core)
        client = hds.HdsClient(hds.InProcessTransport(core))
        out = client.query_samples(0, np.arange(30))
        np.testing.assert_array_equal(out, pattern[:30])


@pytest.fixture(scope="class")
def traced_wire():
    """A 16-page server with a sealed first half behind its TCP front end,
    with tracemalloc on while the class runs."""
    import tracemalloc
    core = make_server(pages=16)
    fill_first_half(core)
    wire = hds.HdsSocketServer(core).start()
    tracemalloc.start()
    yield core, wire
    tracemalloc.stop()
    wire.stop()


class TestSocketFuzz:
    """Random frames over a raw socket to a real HdsSocketServer."""

    # herald-sized up to fragment-sized queries: keyword, overflow, tags
    _QUERY = st.tuples(st.integers(0, 1), st.integers(0, 4000),
                       st.integers(0, 2 ** 32 - 1)).map(
        lambda a: [proto.KEYWORD, a[0], *np.random.default_rng(a[2]).integers(
            0, TestProtocol._CAP16, size=a[1])])
    # allocation bound per frame: a multiple of the frame plus its reply,
    # plus a fixed allowance for the handler's per-request objects
    BYTES_PER_WIRE_BYTE = 16
    FIXED_BYTES = 64 * 1024

    @given(frames=st.lists(st.one_of(st.lists(TestProtocol._WORD,
                                              max_size=12), _QUERY),
                           min_size=1, max_size=4),
           window=st.integers(1, 4), slope=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_one_reply_per_frame_bounded_memory(self, traced_wire, frames,
                                                window, slope):
        import tracemalloc
        core, wire = traced_wire
        assert core.control(f"SET INTWIN {window}") == "OK"
        assert core.control(f"SET SLOPECHK {int(slope)}") == "OK"
        with socket.create_connection(wire.data_address,
                                      timeout=5.0) as sock:
            for frame in frames:
                body = np.array(frame, dtype=np.uint32)
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                sock.sendall(proto.frame_message(body))
                reply = proto.read_frame(sock)
                peak = tracemalloc.get_traced_memory()[1] - base
                status, _, payload = proto.decode_response(reply)
                if status is proto.Status.OK:
                    keyed = body.size and body[0] == proto.KEYWORD
                    assert payload.size == body.size - (2 if keyed else 0)
                wire_bytes = 4 * (body.size + reply.size + 2)
                assert peak <= (self.BYTES_PER_WIRE_BYTE * wire_bytes
                                + self.FIXED_BYTES)
            # every frame had its reply: the server sends nothing more
            sock.shutdown(socket.SHUT_WR)
            assert proto.read_frame(sock) is None


class TestConformance:
    def test_every_client_closed(self):
        from photonsub.conformance import run_protocol_checks

        class RecordingTransport(hds.InProcessTransport):
            closed = False

            def close(self):
                self.closed = True

        handed_out = []

        def factory(server):
            handed_out.append(RecordingTransport(server))
            return handed_out[-1]

        results = run_protocol_checks(factory, pages=2048)
        assert all(passed for _, passed, _ in results)
        assert len(handed_out) == 3
        assert all(t.closed for t in handed_out)


class TestMoreProtocolEdges:
    def test_out_of_range_timetag_status(self):
        srv = make_server(pages=64)
        fill_first_half(srv)
        conn = hds.ConnectionState()
        body = proto.encode_query(0, np.array([srv.buffer.capacity + 10],
                                              dtype=np.int64) % (2**32 - 1))
        # a keyworded request with an impossible timetag yields RANGE
        body = np.array([proto.KEYWORD, 0, srv.buffer.capacity + 10],
                        dtype=np.uint32)
        status, _, _ = proto.decode_response(srv.handle_request(body, conn))
        assert status is proto.Status.RANGE

    @pytest.mark.parametrize("halted", [False, True])
    def test_negative_timetag_is_range(self, halted):
        # the wire carries uint32 timetags, the Python API any integer
        srv = make_server(pages=4, integration_window=2, slope_check=True)
        fill_first_half(srv)
        if halted:
            srv.control("HALT")
        for tags in ([-1], [5, -1], [-2 ** 40]):
            with pytest.raises(hds.ProtocolError) as info:
                srv.query_samples(0, tags)
            assert info.value.status is proto.Status.RANGE

    @pytest.mark.parametrize("window", [1, 3])
    @pytest.mark.parametrize("slope", [False, True])
    def test_scalar_timetag_answers_one_word(self, slope, window):
        # a scalar tag answers the word a one-tag query answers, with
        # shape (), with slope checking on or off
        srv = make_server(pages=4, integration_window=window,
                          slope_check=slope)
        fill_first_half(srv, *noise_samples(srv.buffer.half))
        for tag in range(40):
            got = srv.query_samples(0, tag)
            assert np.shape(got) == ()
            assert got == srv.query_samples(0, [tag])[0]

    def test_adc_range_flag_per_half(self):
        # 8192 and -8193 in the homodyne half, then in the drive half
        for word in (0x2000_0000, 0xDFFF_0000, 0x0000_2000, 0x0000_DFFF):
            srv = make_server(pages=2)
            srv.ingest_samples(
                *hds.unpack_words(np.array([word], dtype=np.uint32)))
            assert srv.status().adc_out_of_range, hex(word)
        srv = make_server(pages=2)
        srv.ingest_samples([-8192, 8191, -8192, 8191],
                           [-8192, 8191, 8191, -8192])
        assert not srv.status().adc_out_of_range

    def test_adc_range_fault_from_crafted_word(self):
        srv = make_server(pages=64)
        srv.ingest_samples(
            *hds.unpack_words(np.array([hds.PLACEHOLDER_WORD], np.uint32)))
        assert srv.status().adc_out_of_range
        fill_first_half(srv)
        with pytest.raises(hds.IntegrityError):
            srv.query_samples(0, np.array([1]))

    @pytest.mark.parametrize("status, error", [
        (proto.Status.KEYWORD_MISMATCH, hds.KeywordMismatchError),
        (proto.Status.STALE_OVERFLOW, hds.StaleEpochError),
        (proto.Status.ACTIVE_HALF, hds.ActiveHalfError),
        (proto.Status.INTEGRITY, hds.IntegrityError),
        (proto.Status.MALFORMED, hds.ProtocolError),
        (proto.Status.RANGE, hds.ProtocolError),
    ])
    def test_every_status_reaches_the_client_as_its_error(self, status,
                                                          error):
        # each request fails on the server, which answers with its status;
        # the client raises the same error type the server raised
        srv = make_server(pages=64)
        fill_first_half(srv)
        client = hds.HdsClient(hds.InProcessTransport(srv))
        half = srv.buffer.half
        query = {
            # a continuation batch before any keyword header
            proto.Status.KEYWORD_MISMATCH:
                lambda: client.query_samples(0, [1], continue_epoch=True),
            proto.Status.STALE_OVERFLOW: lambda: client.query_samples(5, [1]),
            proto.Status.ACTIVE_HALF:
                lambda: client.query_samples(0, [half + 5]),
            proto.Status.INTEGRITY: lambda: client.query_samples(0, [1]),
            # a sample query's three tags where a scan wants two
            proto.Status.MALFORMED: lambda: client.query_samples(0, [1, 2, 3]),
            proto.Status.RANGE:
                lambda: client.query_samples(0, [srv.buffer.capacity]),
        }[status]
        if status is proto.Status.INTEGRITY:
            srv.inject_fault("fifo_overflow")
        if status is proto.Status.MALFORMED:
            client.set_config(mode="threshold")
        with pytest.raises(hds.ProtocolError) as info:
            query()
        assert type(info.value) is error
        assert info.value.status is status


class TestTestVectors:
    def test_dump_and_replay(self, tmp_path):
        srv = make_server(pages=64)
        pattern = fill_first_half(srv)
        rng = np.random.default_rng(4)
        tags = np.sort(rng.choice(srv.buffer.half, size=500, replace=False))
        path = tmp_path / "vectors.hdstv"
        tv.write_test_vectors(path, tags, pattern[tags])
        client = hds.HdsClient(hds.InProcessTransport(srv))
        matches, total = tv.replay_test_vectors(client, path)
        assert matches == total == 500

    def test_header_validation(self, tmp_path):
        bad = tmp_path / "junk"
        bad.write_bytes(b"NOPE")
        with pytest.raises(ValueError):
            tv.read_test_vectors(bad)


class TestConcurrentReaders:
    def test_sealed_half_reads_during_ingest(self):
        # readers hammer the sealed half while the writer fills the other
        import threading
        srv = make_server(pages=256)
        pattern = fill_first_half(srv)
        half = srv.buffer.half
        errors = []

        def reader():
            conn = hds.ConnectionState()
            rng = np.random.default_rng(threading.get_ident() % 2**32)
            for _ in range(50):
                tags = np.sort(rng.integers(0, half, size=256))
                reply = srv.handle_request(proto.encode_query(0, tags), conn)
                status, _, payload = proto.decode_response(reply)
                if status is not proto.Status.OK:
                    errors.append(status)
                elif not np.array_equal(payload, pattern[tags]):
                    errors.append("corrupt")

        def writer():
            for _ in range(20):
                chunk = min(2048, half // 20)
                zeros = np.zeros(chunk, dtype=np.int16)
                srv.ingest_samples(zeros, zeros)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_reads_while_the_writer_laps_are_whole_or_stale(self):
        # the writer laps again and again in 2,048-word chunks, one half
        # each, writing codes (h, -h) into half number h; readers query
        # whichever half is sealed when they look, so the writer laps into
        # the half they read.  A reply is that half's words or
        # STALE_OVERFLOW, never a word whose ADC columns (written in two
        # passes) come from different laps
        import collections
        import threading
        srv = make_server(pages=4)
        half = srv.buffer.half
        replies, wrong, done = collections.Counter(), [], threading.Event()

        def reader():
            conn = hds.ConnectionState()
            rng = np.random.default_rng(threading.get_ident() % 2**32)
            while not done.is_set():
                st = srv.status()
                upper = st.current_timetag >= half
                if not (upper or st.overflow_number):
                    continue                    # nothing sealed yet
                ovf = st.overflow_number - (not upper)
                h = 2 * ovf + (not upper)
                lo = (not upper) * half
                tags = lo + np.sort(rng.integers(0, half, 1024))
                status, _, payload = proto.decode_response(srv.handle_request(
                    proto.encode_query(ovf, tags), conn))
                replies[status] += 1
                if status is proto.Status.OK and np.any(
                        payload != oracles.pack_words(h, -h)):
                    wrong.append(h)

        def writer():
            for h in range(1200):
                codes = np.full(half, h, dtype=np.int16)
                srv.ingest_samples(codes, -codes)
            done.set()

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not wrong
        assert replies[proto.Status.OK] > 0
        assert set(replies) <= {proto.Status.OK, proto.Status.STALE_OVERFLOW}
