"""Wire-protocol conformance checks, runnable over sockets or in process.

Each check returns (name, passed, detail); `run_protocol_checks` drives the
full list against a live server the way an external conformance rig would.
"""

from __future__ import annotations

from contextlib import closing

import numpy as np

from . import hds
from .homodyne_model import PhaseDrive


class LoopbackSocketTransport(hds.SocketTransport):
    """Socket transport to its own TCP front end for `server`; closing the
    transport stops the front end."""

    def __init__(self, server: hds.HomodyneServer):
        self.wire = hds.HdsSocketServer(server).start()
        super().__init__(self.wire.data_address, self.wire.control_address)

    def close(self):
        super().close()
        self.wire.stop()


def _fill_ramp(server: hds.HomodyneServer):
    half = server.buffer.half
    a = np.arange(half + 1) % 8000
    b = (np.arange(half + 1) * 3) % 8000
    server.ingest_samples(a, b)
    return a, b


ROUND_TRIP_TAGS = 16_384
SLOPE_CHECK_TAGS = 1_000_000


def check_round_trip(server, client):
    """Bit-exact echo of a written pattern across page boundaries."""
    a, b = _fill_ramp(server)
    rng = np.random.default_rng(1)
    span = min(server.buffer.half, 32 * hds.PAGE_WORDS)
    tags = np.sort(rng.choice(span, size=ROUND_TRIP_TAGS, replace=False))
    pages = np.unique(tags // hds.PAGE_WORDS)
    words = client.query_samples_batched(0, tags)
    aa, bb = hds.unpack_words(words)
    ok = (np.array_equal(aa, a[tags].astype(np.int16))
          and np.array_equal(bb, b[tags].astype(np.int16))
          and pages.size >= 4)
    return ("round-trip 16384 tags across page boundaries", bool(ok),
            f"{ROUND_TRIP_TAGS} tags over {pages.size} pages")


def check_keyword_mismatch(client):
    name = "keyword mismatch yields typed error frame"
    try:
        bad = np.array([0xDEADBEEF, 0, 1, 2, 3], dtype=np.uint32)
        status, _, _ = hds.protocol.decode_response(
            client.transport.request(bad))
        return (name, status is hds.Status.KEYWORD_MISMATCH,
                f"status {status.name}")
    except Exception as err:   # noqa: BLE001 - report, not raise
        return (name, False, str(err))


def _check_refused(name, error, client, overflow, tags):
    try:
        client.query_samples(overflow, np.array(tags))
        return (name, False, "no error raised")
    except error:
        return (name, True, error.__name__)
    except Exception as err:  # noqa: BLE001
        return (name, False, f"wrong error {err!r}")


def check_stale_overflow(client):
    return _check_refused("stale overflow refused", hds.StaleEpochError,
                          client, 12345, [1, 2, 3])


def check_active_half(server, client):
    return _check_refused("active-half access refused", hds.ActiveHalfError,
                          client, 0, [server.buffer.half + 7])


def check_continuation(server, client):
    a, _ = _fill_ramp(server)
    t1 = np.arange(100, 200)
    t2 = np.arange(200, 300)
    w1 = client.query_samples(0, t1)
    w2 = client.query_samples(0, t2, continue_epoch=True)
    aa, _ = hds.unpack_words(np.concatenate([w1, w2]))
    ok = np.array_equal(aa, a[np.concatenate([t1, t2])].astype(np.int16))
    return ("continuation batches share the keyword epoch", bool(ok), "")


def check_slope_placeholder_rate(server, client):
    """0.1% +/- 0.05% placeholder words with a 10-kHz drive, whose
    flyback is RESET_FRACTION = 0.001 of each period."""
    drive = PhaseDrive(ramp_frequency_hz=10_000.0)
    half = server.buffer.half
    t = np.arange(half + 1)
    code = drive.evaluate(t)[1]
    server.ingest_samples(np.zeros_like(code), code)
    client.set_config(slope_check=True)
    rng = np.random.default_rng(3)
    tags = rng.integers(1, half, size=SLOPE_CHECK_TAGS)
    # exercise the multi-message path on a large query
    words = client.query_samples_batched(0, np.sort(tags))
    client.set_config(slope_check=False)
    rate = float(hds.is_placeholder(words).mean())
    ok = abs(rate - 0.001) < 0.0005
    return ("slope-check placeholder rate 0.1% +/- 0.05%", ok,
            f"rate {rate:.5f}")


def run_protocol_checks(transport_factory, pages: int = 2048):
    """Run every conformance check against fresh servers.

    transport_factory(server) must return a client transport bound to the
    given server (in-process or socket).
    """
    results = []

    def fresh():
        srv = hds.HomodyneServer(pages=pages)
        srv.start_run()
        return srv, hds.HdsClient(transport_factory(srv))

    srv, cli = fresh()
    with closing(cli):
        results.append(check_round_trip(srv, cli))
        results.append(check_keyword_mismatch(cli))
        results.append(check_stale_overflow(cli))
        results.append(check_active_half(srv, cli))
    srv, cli = fresh()
    with closing(cli):
        results.append(check_continuation(srv, cli))
    srv, cli = fresh()
    with closing(cli):
        results.append(check_slope_placeholder_rate(srv, cli))
    return results
