import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonsub import hds, pso
from photonsub.pso.centroid import TRIGGER_BINS, in_trigger_bins, pack_windows
from photonsub.pso.engine import SETTINGS
from oracles import (centroid_bins, centroid_division_oracle,
                     dense_window_scan, unpack_signature)


def window_centroid(counts):
    """centroid_bins of one 18-count window, side A's 9 sub-bins first;
    the sides are combined per sub-bin."""
    c = np.asarray(counts).reshape(2, 9).sum(axis=0)
    return int(centroid_bins([c @ np.arange(9)], [c.sum()])[0])


def pack_signature(a_counts, b_counts):
    """Signature words of (9,) or (n, 9) per-side counts, by pack_windows."""
    a, b = np.atleast_2d(a_counts, b_counts)
    return pack_windows(np.arange(0, a.size, 9), np.tile(np.arange(9), len(a)),
                        a.ravel(), b.ravel())


def compositions_up_to(total, bins=9):
    """All count vectors of length `bins` with 1 <= sum <= total."""
    out = []

    def rec(prefix, remaining, idx):
        if idx == bins - 1:
            out.append(prefix + [remaining])
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, idx + 1)

    for s in range(1, total + 1):
        rec([], s, 0)
    return np.array(out, dtype=np.int64)


class TestCentroid:
    def test_single_count(self):
        counts = np.zeros(18, dtype=int)
        counts[4] = 1
        assert window_centroid(counts) == 4

    def test_symmetric_pair(self):
        counts = np.zeros(18, dtype=int)
        counts[2] = 1
        counts[9 + 6] = 1  # other side, combined mean (2+6)/2 = 4
        assert window_centroid(counts) == 4

    def test_exhaustive_small_patterns(self):
        # all combined patterns with total <= 3 against the division oracle
        pats = compositions_up_to(3)
        for pat in pats:
            counts = np.concatenate([pat, np.zeros(9, dtype=int)])
            assert window_centroid(counts) == centroid_division_oracle(pat)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        pats = rng.integers(0, 4, size=(500, 9))
        pats[pats.sum(axis=1) == 0, 0] = 1
        nums = (pats * np.arange(9)).sum(axis=1)
        tots = pats.sum(axis=1)
        vec = centroid_bins(nums, tots)
        ref = [centroid_division_oracle(p) for p in pats]
        np.testing.assert_array_equal(vec, ref)


class TestSignature:
    def test_layout_round_trip(self):
        a = np.array([0, 1, 2, 3, 0, 0, 7, 0, 1])
        b = np.array([1, 0, 0, 0, 5, 0, 0, 2, 0])
        w = pack_signature(a, b)
        aa, bb, sa, sb = unpack_signature(w)
        np.testing.assert_array_equal(aa[0], a)
        np.testing.assert_array_equal(bb[0], b)
        assert sa[0] == a.sum()
        assert sb[0] == b.sum()
        # the run's class decoding reads the same sum fields
        np.testing.assert_array_equal(pso.signature_class(w), (sa, sb))

    def test_bit_positions(self):
        a = np.zeros(9, dtype=int)
        a[0] = 1
        w = int(pack_signature(a, np.zeros(9, dtype=int))[0])
        assert w & 0x7 == 1                      # sub-bin 0 at the LSB
        assert (w >> 27) & 0x1F == 1             # side sum field
        b = np.zeros(9, dtype=int)
        b[0] = 1
        w = int(pack_signature(np.zeros(9, dtype=int), b)[0])
        assert (w >> 32) & 0x7 == 1              # side B in the high word

    @given(st.lists(st.integers(0, 2), min_size=9, max_size=9),
           st.lists(st.integers(0, 2), min_size=9, max_size=9))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, a, b):
        w = pack_signature(np.array(a), np.array(b))
        aa, bb, sa, sb = unpack_signature(w)
        assert list(aa[0]) == a and list(bb[0]) == b


class TestPipeline:
    def test_coincidence_same_coarse_bin(self):
        # one A pulse and one B pulse in the same coarse bin -> one event
        # with side sums (1, 1)
        ev = pso.coincidence_pipeline([301, 301], [0, 1])
        assert ev.size == 1
        assert ev["sum_a"][0] == 1 and ev["sum_b"][0] == 1

    def test_isolated_single_pulse(self):
        ev = pso.coincidence_pipeline([900], [0])
        assert ev.size == 1
        assert ev["sum_a"][0] == 1 and ev["sum_b"][0] == 0
        # singles are gated out in coincidence mode, kept in singles mode
        assert not pso.coincidence_gate(ev, coincidence_only=True)[0]
        assert pso.coincidence_gate(ev, coincidence_only=False)[0]

    def test_pulses_nine_subbins_apart(self):
        # first alignment sees centroid outside the trigger; recorded later
        ev = pso.coincidence_pipeline([100, 109], [0, 1])
        ref = dense_window_scan([100, 109], [0, 1], span_end=120)
        assert ev.size == len(ref)
        for got_s, (exp_s, _, _) in zip(ev["alignment"], ref):
            assert got_s == exp_s

    def test_stream_equals_window_scan_oracle(self):
        for seed in (42, 0, 1, 2, 3):
            rng = np.random.default_rng(seed)
            n = 400
            subbins = np.sort(rng.integers(0, 6000, size=n))
            sides = rng.integers(0, 2, size=n)
            ev = pso.coincidence_pipeline(subbins, sides)
            ref = dense_window_scan(subbins, sides, span_end=6010)
            assert ev.size == len(ref)
            for e, (s, wa, wb) in zip(ev, ref):
                assert e["alignment"] == s
                # the trigger flag reaches the coarse domain 4 sub-bins
                # into the window; the herald leaves a fixed pipeline
                # depth later
                assert e["coarse"] == (s + 4) // 3
                assert e["emit_subbin"] == s + pso.PIPELINE_DEPTH_SUBBINS
                assert e["sum_a"] == wa.sum() and e["sum_b"] == wb.sum()
                aa, bb, _, _ = unpack_signature(e["signature"])
                np.testing.assert_array_equal(aa[0], wa)
                np.testing.assert_array_equal(bb[0], wb)

    def test_stacked_streams_equal_window_scan_signatures(self):
        # up to 24 pulses per sub-bin, mostly side B: 3-bit fields clip
        # at 7 and side-B sums of 16 or more set bit 63; every signature
        # is pack_signature of the oracle's window and unpacks to its
        # clipped counts, also for no pulses and for one
        rng = np.random.default_rng(8)
        subbins = np.repeat(rng.integers(0, 3000, size=80),
                            rng.integers(1, 25, size=80))
        stacked = (subbins, (rng.random(subbins.size) < 0.7).astype(int))
        clipped = bit63 = 0
        for subbins, sides in (stacked, ([], []), ([900], [1])):
            ev = pso.coincidence_pipeline(subbins, sides)
            ref = dense_window_scan(subbins, sides,
                                    span_end=max(subbins, default=0) + 10)
            assert ev.dtype == pso.EVENT_DTYPE and ev.size == len(ref)
            for e, (s, wa, wb) in zip(ev, ref):
                assert e["alignment"] == s
                assert e["sum_a"] == wa.sum() and e["sum_b"] == wb.sum()
                assert e["signature"] == pack_signature(wa, wb)[0]
                aa, bb, sa, sb = unpack_signature(e["signature"])
                np.testing.assert_array_equal(aa[0], np.minimum(wa, 7))
                np.testing.assert_array_equal(bb[0], np.minimum(wb, 7))
                assert (sa[0], sb[0]) == (min(wa.sum(), 31), min(wb.sum(), 31))
                clipped += max(wa.max(), wb.max()) > 7
                bit63 += int(e["signature"]) >> 63
        assert clipped and bit63

    def test_each_pulse_contributes_once(self):
        # a burst that could retrigger must consume its pulses
        ev = pso.coincidence_pipeline([50, 51, 52], [0, 1, 0])
        total_counted = int(ev["sum_a"].sum() + ev["sum_b"].sum())
        assert total_counted == 3

    def test_herald_latency_contract(self):
        rng = np.random.default_rng(1)
        subbins = np.sort(rng.integers(0, 100_000, size=300))
        sides = rng.integers(0, 2, size=300)
        ev = pso.coincidence_pipeline(subbins, sides)
        lat = ev["emit_subbin"] - ev["alignment"]
        assert np.all(lat == pso.PIPELINE_DEPTH_SUBBINS)


class TestHoldFilter:
    def test_gap_above_hold_kept(self):
        keep = pso.hold_time_filter(np.array([100, 104]), hold_bins=3)
        assert keep.all()

    def test_gap_one_drops_both(self):
        keep = pso.hold_time_filter(np.array([100, 101]), hold_bins=3)
        assert not keep.any()

    def test_keep_leader_flag(self):
        keep = pso.hold_time_filter(np.array([100, 101]), hold_bins=3,
                                    keep_leader=True)
        np.testing.assert_array_equal(keep, [True, False])

    def test_poisson_thinning_matches_analytic(self):
        rng = np.random.default_rng(7)
        rate = 0.01  # per bin
        n = 1_000_000
        gaps = rng.geometric(rate, size=n)
        tags = np.cumsum(gaps)
        hold = 3
        keep = pso.hold_time_filter(tags, hold_bins=hold)
        survive = keep.mean()
        # discrete analog of e^{-2 R hold}: both neighbor gaps > hold
        p_gap = (1 - rate) ** hold
        expect = p_gap ** 2
        assert survive == pytest.approx(expect, rel=0.05)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            pso.hold_time_filter(np.array([5, 3]), hold_bins=3)


class TestSeedFilter:
    def test_zero_width_identity(self):
        tags = np.arange(100)
        assert pso.seed_rejection_filter(tags, 10, 0, 50).all()

    def test_locked_train_fully_dropped(self):
        period = 1000
        tags = 40 + period * np.arange(200)  # all at phase 40
        keep = pso.seed_rejection_filter(tags, offset=38, width=5,
                                         period=period)
        assert not keep.any()

    def test_uniform_drop_fraction(self):
        rng = np.random.default_rng(3)
        tags = np.sort(rng.integers(0, 10_000_000, size=200_000))
        keep = pso.seed_rejection_filter(tags, offset=123, width=5,
                                         period=1000)
        dropped = 1 - keep.mean()
        assert dropped == pytest.approx(0.005, abs=0.001)

    def test_window_wraps_modulo_period(self):
        keep = pso.seed_rejection_filter(np.array([999, 0, 1]), offset=998,
                                         width=4, period=1000)
        assert not keep.any()


class TestZeroDetection:
    def test_rate_zero_emits_nothing(self):
        tags, attempts = pso.zero_detection_tags(
            0, (0, 10_000), 20_000, np.array([]), 3,
            np.random.default_rng(0))
        assert tags.size == 0 and attempts == 0

    def test_rate_cap_enforced(self):
        with pytest.raises(ValueError):
            pso.zero_detection_tags(2 ** 17 + 1, (0, 100), 200, np.array([]),
                                    3, np.random.default_rng(0))

    def test_never_within_hold_of_events(self):
        rng = np.random.default_rng(5)
        events = np.sort(rng.integers(0, 1_000_000, size=5000))
        tags, _ = pso.zero_detection_tags(2 ** 15, (0, 1_000_000), 2_000_000,
                                          events, 3, rng)
        assert tags.size > 0
        idx = np.searchsorted(events, tags)
        left = np.abs(tags - events[np.clip(idx - 1, 0, events.size - 1)])
        right = np.abs(events[np.clip(idx, 0, events.size - 1)] - tags)
        assert np.minimum(left, right).min() > 3

    def test_deterministic_given_seed(self):
        a, _ = pso.zero_detection_tags(1000, (0, 100_000), 200_000,
                                       np.array([50_000]), 3,
                                       np.random.default_rng(9))
        b, _ = pso.zero_detection_tags(1000, (0, 100_000), 200_000,
                                       np.array([50_000]), 3,
                                       np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)


@pytest.mark.slow
class TestCentroidExhaustive:
    def test_division_free_equals_floor_oracle_side_sums_6(self):
        # every combined pattern with total counts 1..12 (side sums <= 6
        # each); the division-free ladder must match floor division exactly
        pats = compositions_up_to(12)
        nums = (pats * np.arange(9)).sum(axis=1)
        tots = pats.sum(axis=1)
        got = centroid_bins(nums, tots)
        expect = nums // tots
        np.testing.assert_array_equal(got, expect)
        assert pats.shape[0] == 293_929
        # the trigger's two-rung test over the same patterns
        np.testing.assert_array_equal(in_trigger_bins(nums, tots),
                                      np.isin(expect, TRIGGER_BINS))


class TestConsole:
    def test_set_get(self):
        console = pso.PsoConsole(pso.PsoRunConfig())
        assert console.process_command("SET DELAYA 17") == "OK"
        assert console.process_command("GET DELAYA") == "17"
        assert console.process_command("SET MODE SINGLES") == "OK"
        assert console.process_command("GET MODE") == "SINGLES"
        assert console.process_command("SET SEEDWIN 10 5 1000") == "OK"
        assert console.snapshot().seed_window_width == 5
        assert console.process_command("SET SEEDWIN OFF") == "OK"
        assert console.snapshot().seed_window_width == 0

    # (key, SET text, GET reply), every key of the settings table
    _ROUND_TRIPS = [
        ("DELAYA", "-64", "-64"), ("DELAYA", "17", "17"),
        ("DELAYB", "64", "64"), ("DELAYB", "0", "0"),
        ("HOLD", "0", "0"), ("HOLD", "7", "7"),
        ("ZDR", "500", "500"), ("ZDR", "0", "0"),
        ("KEEPLEADER", "on", "1"), ("KEEPLEADER", "Off", "0"),
        ("KEEPLEADER", "1", "1"), ("KEEPLEADER", "0", "0"),
        ("MODE", "singles", "SINGLES"), ("MODE", "Coinc", "COINC"),
    ]

    def test_every_key_round_trips(self):
        console = pso.PsoConsole(pso.PsoRunConfig())
        assert {key for key, _, _ in self._ROUND_TRIPS} == set(SETTINGS)
        for key, text, shown in self._ROUND_TRIPS:
            assert console.process_command(f"SET {key} {text}") == "OK"
            assert console.process_command(f"get {key.lower()}") == shown
            assert f"{key} {shown}" in console.process_command("STATUS")

    def test_status_line_shows_every_key(self):
        console = pso.PsoConsole(pso.PsoRunConfig(delay_a=5, delay_b=-2))
        assert console.process_command("SET KEEPLEADER ON") == "OK"
        assert console.process_command("STATUS") == (
            "DELAYA 5 DELAYB -2 HOLD 3 ZDR 0 KEEPLEADER 1 MODE COINC")

    @pytest.mark.parametrize("command", [
        "SET MODE banana", "SET MODE SAMPLES", "SET KEEPLEADER no",
        "SET KEEPLEADER false", "SET KEEPLEADER 2", "SET DELAYA x",
        "SET HOLD 1.5", "SET ZDR 1 2", "SET SEEDWIN 1 2",
        "SET SEEDWIN OFF 5", "SET SEEDWIN 1 2 z"])
    def test_bad_value_is_refused(self, command):
        # any text but the key's own forms: ERR, and no setting moves
        console = pso.PsoConsole(pso.PsoRunConfig())
        assert console.process_command(command).startswith("ERR ")
        assert console.snapshot() == pso.PsoRunConfig()

    @pytest.mark.parametrize("text, on", [
        ("0", False), ("1", True), ("off", False), ("OFF", False),
        ("Off", False), ("on", True), ("ON", True), ("oN", True)])
    def test_keep_leader_switch_spellings(self, text, on):
        console = pso.PsoConsole(pso.PsoRunConfig(keep_leader=not on))
        assert console.process_command(f"SET KEEPLEADER {text}") == "OK"
        assert console.snapshot().keep_leader is on

    @pytest.mark.parametrize("command, missing", [
        ("SET", "key"), ("SET HOLD", "value"), ("set mode", "value"),
        ("SET SEEDWIN", "OFF or offset, width and period"),
        ("GET", "key")])
    def test_missing_key_or_value_is_named(self, command, missing):
        reply = pso.PsoConsole(pso.PsoRunConfig()).process_command(command)
        assert reply.startswith("ERR ") and missing in reply

    def test_snapshot_is_immutable(self):
        console = pso.PsoConsole(pso.PsoRunConfig())
        snap = console.snapshot()
        console.process_command("SET HOLD 7")
        assert snap.hold_bins == 3
        assert console.snapshot().hold_bins == 7

    def test_bad_command(self):
        console = pso.PsoConsole(pso.PsoRunConfig())
        assert console.process_command("SET NOPE 1").startswith("ERR")
        assert console.process_command("").startswith("ERR")

    @pytest.mark.parametrize("command", [
        "SET SEEDWIN 0 2000 1000", "SET SEEDWIN 0 5 0", "SET HOLD -1",
        "SET ZDR 999999999", "SET ZDR -5",
        # out-of-range integers: beyond int64, or beyond any delay the
        # calibration can report
        "SET SEEDWIN 5 3 99999999999999999999999",
        "SET SEEDWIN 99999999999999999999999 3 1000",
        "SET DELAYA 99999999999999999999999", "SET DELAYA 99999999999",
        "SET DELAYB -65", "SET HOLD 99999999999999999999999"])
    def test_settings_the_filters_refuse_are_refused(self, tmp_path,
                                                     command):
        # a setting the next half's filters would raise on never reaches
        # the engine: the console answers ERR and keeps its config
        servers, engine = _loopback_setup(tmp_path)
        status = engine.console.process_command("STATUS")
        assert engine.console.process_command(command).startswith("ERR")
        assert engine.console.process_command("STATUS") == status
        assert engine.console.snapshot() == pso.PsoRunConfig()
        coarse = np.arange(100, servers[0].buffer.half - 100, 50)
        stats = engine.process_sealed_half(
            0, np.repeat(coarse * 3 + 1, 2), np.tile([0, 1], coarse.size))
        assert stats["events"] == coarse.size

    _ARG = st.one_of(
        st.integers(-100, 2000).map(str),
        st.integers(-2 ** 80, 2 ** 80).map(str),
        st.sampled_from([2 ** 63, -2 ** 63 - 1, 10 ** 22]).map(str),
        st.sampled_from(["OFF", "off", "SINGLES", "COINC", "0x10", "1e9",
                         "nan", ""]),
        st.text(max_size=10))

    @given(verb=st.one_of(st.just("SET"),
                          st.sampled_from(["GET", "STATUS", "set",
                                           "FROBNICATE"]),
                          st.text(max_size=8)),
           key=st.one_of(st.sampled_from(["DELAYA", "DELAYB", "HOLD",
                                          "SEEDWIN"]),
                         st.sampled_from(["ZDR", "KEEPLEADER", "MODE",
                                          "NOPE"]),
                         st.text(max_size=8)),
           args=st.lists(_ARG, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_console_fuzz_then_one_half(self, tmp_path_factory, verb, key,
                                        args):
        # any command line gets one reply, and the next half processes
        # under whatever configuration the console then holds
        servers, engine = _loopback_setup(tmp_path_factory.mktemp("fuzz"))
        before = engine.console.snapshot()
        reply = engine.console.process_command(" ".join([verb, key, *args]))
        assert isinstance(reply, str)
        if reply.startswith("ERR"):
            assert engine.console.snapshot() == before
        coarse = np.arange(100, servers[0].buffer.half - 100, 50)
        stats = engine.process_sealed_half(
            0, np.repeat(coarse * 3 + 1, 2), np.tile([0, 1], coarse.size))
        assert 0 <= stats["events"] <= coarse.size


class TestRecords:
    def test_dtype_is_24_bytes(self):
        assert pso.RECORD_DTYPE.itemsize == 24

    def test_file_round_trip(self, tmp_path):
        rec = pso.build_records(
            signature=np.array([5, 9], dtype=np.uint64),
            overflow=np.array([1, 1]),
            timetag=np.array([100, 200]),
            adc_a_pair=(np.array([-5, 10]), np.array([3, 4])),
            adc_b_pair=(np.array([7, -8]), np.array([0, 1])))
        path = tmp_path / "x.bin"
        pso.write_records(path, rec)
        back = pso.read_records(path)
        np.testing.assert_array_equal(back, rec)
        assert path.stat().st_size == 48

    def test_dataset_writer_rolls_files(self, tmp_path):
        w = pso.DatasetWriter(tmp_path, records_per_file=10)
        rec = pso.build_records(np.zeros(25, dtype=np.uint64),
                                np.zeros(25), np.arange(25),
                                (np.zeros(25), np.zeros(25)),
                                (np.zeros(25), np.zeros(25)))
        w.add((1, 1), rec)
        meta = w.finalize()
        assert (tmp_path / "sig_1_1.part000.bin").exists()
        assert (tmp_path / "sig_1_1.part001.bin").exists()
        assert (tmp_path / "sig_1_1.part002.bin").exists()
        assert meta["class_counts"]["1,1"] == 25
        back = w.load_class((1, 1))
        np.testing.assert_array_equal(back["timetag"], np.arange(25))

    @pytest.mark.parametrize("records_per_file", [0, -3])
    def test_dataset_writer_refuses_files_of_no_records(self, tmp_path,
                                                         records_per_file):
        # a roll size below one would write empty files forever
        with pytest.raises(ValueError, match="records_per_file"):
            pso.DatasetWriter(tmp_path, records_per_file=records_per_file)

    def test_dataset_writer_files_match_one_write(self, tmp_path):
        # records added in uneven pieces land in the same part files as
        # the whole stream cut every records_per_file records
        rng = np.random.default_rng(3)
        n = 97
        rec = pso.build_records(rng.integers(0, 2 ** 63, n, dtype=np.uint64),
                                np.zeros(n), np.arange(n),
                                (rng.integers(-99, 99, n), np.zeros(n)),
                                (np.zeros(n), rng.integers(-99, 99, n)))
        w = pso.DatasetWriter(tmp_path, records_per_file=10)
        cuts = [0, 3, 4, 21, 22, 40, 75, n]
        for lo, hi in zip(cuts, cuts[1:]):
            w.add((1, 1), rec[lo:hi])
        np.testing.assert_array_equal(w.load_class((1, 1)), rec)
        w.finalize()
        for k in range(10):
            np.testing.assert_array_equal(
                pso.read_records(tmp_path / f"sig_1_1.part{k:03d}.bin"),
                rec[10 * k:10 * k + 10])

    def test_report_conservation(self):
        rep = pso.RunReport(triggered=100, gated_out=10, hold_dropped=4,
                            seed_dropped=2, deferred=1,
                            placeholder_excluded=3, kept=80)
        assert rep.conservation_holds()
        rep.kept = 79
        assert not rep.conservation_holds()
        assert "VIOLATED" in rep.to_text()


def _loopback_setup(tmp_path, pages=64, **cfg_kwargs):
    """Two small servers filled with a recognizable ramp; engine on top."""
    servers = []
    clients = []
    for seed in (1, 2):
        srv = hds.HomodyneServer(pages=pages, page_map_seed=seed)
        srv.start_run()
        half = srv.buffer.half
        a = (np.arange(half + 1) * (seed + 1)) % 8000
        srv.ingest_samples(a, np.zeros_like(a))
        servers.append(srv)
        clients.append(hds.HdsClient(hds.InProcessTransport(srv)))
    console = pso.PsoConsole(pso.PsoRunConfig(**cfg_kwargs))
    writer = pso.DatasetWriter(tmp_path, records_per_file=10_000)
    engine = pso.PsoEngine(clients[0], clients[1], console, writer,
                           half_words=servers[0].buffer.half)
    return servers, engine


class TestEngine:
    def test_loopback_records_bit_exact(self, tmp_path):
        servers, engine = _loopback_setup(tmp_path, delay_a=5, delay_b=9)
        half = servers[0].buffer.half
        rng = np.random.default_rng(0)
        coarse = np.sort(rng.choice(np.arange(100, half - 100, 10), size=200,
                                    replace=False))
        subbins = coarse * 3 + 1
        pulses = np.repeat(subbins, 2)
        sides = np.tile([0, 1], coarse.size)
        engine.process_sealed_half(0, pulses, sides,
                                   zero_span=(100, half - 100))
        recs = engine.writer.load_class((1, 1))
        assert recs.size == engine.report.class_counts[(1, 1)]
        # the ramp pattern lets every record's ADC value be recomputed from
        # its queried timetag
        a_expect = ((recs["timetag"].astype(np.int64) + 5) * 2) % 8000
        b_expect = ((recs["timetag"].astype(np.int64) + 9) * 3) % 8000
        np.testing.assert_array_equal(recs["adc"][:, 0], a_expect)
        np.testing.assert_array_equal(recs["adc"][:, 2], b_expect)
        assert engine.report.conservation_holds()

    def test_event_timetag_pipeline_offset(self, tmp_path):
        # a herald at coarse bin T with fixed sub-bin placement lands at
        # T - 1: the constant is absorbed by delay calibration
        servers, engine = _loopback_setup(tmp_path)
        ev = engine.process_pulses(np.array([3 * 500 + 1] * 2),
                                   np.array([0, 1]))
        assert ev["coarse"][0] == 499

    def test_deferred_events_retry_next_epoch(self, tmp_path):
        servers, engine = _loopback_setup(tmp_path, delay_a=50, delay_b=50)
        half = servers[0].buffer.half
        # herald near the end of half 0: query tags land in half 1
        coarse = np.array([half - 20])
        pulses = np.array([coarse[0] * 3 + 1] * 2)
        sides = np.array([0, 1])
        stats = engine.process_sealed_half(0, pulses, sides,
                                           zero_span=(100, 200))
        assert stats["events"] == 0
        assert engine._pending.size == 1
        # fill the second half so it seals, then the event processes
        for srv in servers:
            a = np.zeros(half, dtype=np.int16)
            srv.ingest_samples(a, a)
        engine.process_sealed_half(1, np.array([]), np.array([]),
                                   zero_span=(half + 100, half + 200))
        assert engine._pending.size == 0
        assert engine.report.class_counts.get((1, 1), 0) == 1
        assert engine.report.conservation_holds()

    def test_zero_detection_records_written(self, tmp_path):
        servers, engine = _loopback_setup(tmp_path, zero_detection_rate=1024)
        half = servers[0].buffer.half
        engine.process_sealed_half(0, np.array([]), np.array([]),
                                   zero_span=(100, half - 100))
        z = engine.writer.load_class((0, 0))
        assert z.size > 0
        assert engine.report.zero_detection_emitted == z.size
        assert np.all(z["signature"] == 0)

    def test_heralds_fire_before_gating(self, tmp_path):
        # the trigger output includes single-sided events even when the
        # save gate is in coincidence mode
        servers, engine = _loopback_setup(tmp_path)
        engine.process_sealed_half(0, np.array([900]), np.array([0]),
                                   zero_span=(100, 200))
        assert engine.herald_stream().size == 1
        assert engine.report.gated_out == 1
        assert engine.report.triggered == 1
        assert engine.report.conservation_holds()

    def test_herald_stream_is_packed_trigger_output(self, tmp_path):
        # one packed 16-byte (emit_subbin, signature) record per triggered
        # event, in trigger order across halves, gated out or not
        servers, engine = _loopback_setup(tmp_path)
        rng = np.random.default_rng(3)
        triggered = []
        for _ in range(3):
            subbins = np.sort(rng.integers(0, 30_000, size=200))
            triggered.append(engine.process_pulses(
                subbins, rng.integers(0, 2, size=200)))
        triggered = np.concatenate(triggered)
        stream = engine.herald_stream()
        assert stream.dtype == pso.engine.HERALD_DTYPE
        assert stream.itemsize == 16 and stream.flags.c_contiguous
        assert stream.size == triggered.size == engine.report.triggered
        np.testing.assert_array_equal(stream["emit_subbin"],
                                      triggered["emit_subbin"])
        np.testing.assert_array_equal(stream["signature"],
                                      triggered["signature"])

    def test_single_sided_neighbor_spoils_coincidence(self, tmp_path):
        # a gated-out single within the hold window still distorts the
        # coincidence and drops it
        servers, engine = _loopback_setup(tmp_path)
        coincidence = 3 * 500 + 1
        stray_single = 3 * 502 + 1  # two coarse bins later
        engine.process_sealed_half(
            0, np.array([coincidence, coincidence, stray_single]),
            np.array([0, 1, 0]), zero_span=(100, 200))
        assert engine.report.hold_dropped == 1
        assert engine.report.class_counts.get((1, 1), 0) == 0
        assert engine.report.conservation_holds()

    def test_shot_noise_collection(self, tmp_path):
        servers, engine = _loopback_setup(tmp_path)
        a, b = engine.collect_shot_noise((100, 1000), 200,
                                         np.random.default_rng(1))
        assert a.size == 200 and b.size == 200

    def test_class_target_stops_collection(self, tmp_path):
        servers, engine = _loopback_setup(tmp_path)
        engine.writer.class_targets[(1, 1)] = 5
        half = servers[0].buffer.half
        coarse = np.arange(100, 100 + 50 * 10, 10)
        pulses = np.repeat(coarse * 3 + 1, 2)
        sides = np.tile([0, 1], coarse.size)
        engine.process_sealed_half(0, pulses, sides, zero_span=(100, 200))
        first = engine.writer.counts[(1, 1)]
        assert first == 5
        assert engine.writer.target_reached((1, 1))
        # a later batch must not grow the dataset further
        coarse2 = coarse + 2000
        engine.process_sealed_half(0, np.repeat(coarse2 * 3 + 1, 2),
                                   np.tile([0, 1], coarse2.size),
                                   zero_span=(100, 200))
        assert engine.writer.counts[(1, 1)] == first
