"""Client-side access to a homodyne detection server.

Two transports share one interface: in-process (direct calls against a
HomodyneServer, used by the simulation harness for speed) and TCP sockets
(the real wire protocol).  Both keep per-connection parser state so
multi-message requests can continue an epoch without resending the keyword
header.
"""

from __future__ import annotations

import socket

import numpy as np

from . import protocol as proto
from ..textcontrol import show
from .server import SETTINGS, ConnectionState, HomodyneServer
from .words import WORD_DTYPE

QUERY_BATCH_WORDS = 16_000      # words per fragment of a large query


class InProcessTransport:
    def __init__(self, server: HomodyneServer):
        self.server = server
        self._conn = ConnectionState()

    def request(self, body: np.ndarray) -> np.ndarray:
        return self.server.handle_request(body, self._conn)

    def control(self, line: str) -> str:
        return self.server.control(line)

    def close(self):
        pass


class SocketTransport:
    def __init__(self, data_address, control_address, timeout: float = 10.0):
        self._data = socket.create_connection(data_address, timeout=timeout)
        self._ctrl = socket.create_connection(control_address, timeout=timeout)
        self._ctrl_file = self._ctrl.makefile("rw", encoding="ascii",
                                              newline="\n")

    def request(self, body: np.ndarray) -> np.ndarray:
        self._data.sendall(proto.frame_message(body))
        reply = proto.read_frame(self._data)
        if reply is None:
            raise ConnectionError("server closed the data connection")
        return reply

    def control(self, line: str) -> str:
        self._ctrl_file.write(line.strip() + "\n")
        self._ctrl_file.flush()
        reply = self._ctrl_file.readline()
        if not reply:
            raise ConnectionError("server closed the control connection")
        return reply.strip()

    def close(self):
        self._data.close()
        self._ctrl_file.close()
        self._ctrl.close()


class HdsClient:
    """Typed wrapper over a transport: queries raise protocol exceptions."""

    def __init__(self, transport):
        self.transport = transport

    # -- data plane ------------------------------------------------------
    def query_samples(self, overflow: int, timetags,
                      continue_epoch: bool = False) -> np.ndarray:
        body = proto.encode_query(overflow, np.asarray(timetags),
                                  with_keyword=not continue_epoch)
        return self._roundtrip(body)

    def query_samples_batched(self, overflow: int, timetags,
                              batch: int = QUERY_BATCH_WORDS) -> np.ndarray:
        """Large query split into keyword header + continuation batches,
        the way client drivers fragment big requests."""
        tags = np.asarray(timetags, dtype=WORD_DTYPE).ravel()
        out = [self.query_samples(overflow, tags[lo:lo + batch],
                                  continue_epoch=lo > 0)
               for lo in range(0, tags.size, batch)]
        if len(out) == 1:
            return out[0]
        return (np.concatenate(out) if out
                else np.zeros(0, dtype=WORD_DTYPE))

    def threshold_scan(self, overflow: int, start: int, end: int) -> np.ndarray:
        return self._roundtrip(proto.encode_scan(overflow, start, end))

    def _roundtrip(self, body: np.ndarray) -> np.ndarray:
        reply = self.transport.request(body)
        status, _, payload = proto.decode_response(reply)
        if status is not proto.Status.OK:
            raise proto.status_error(status, f"server returned {status.name}")
        return payload

    # -- control plane ----------------------------------------------------
    def control(self, line: str) -> str:
        return self.transport.control(line)

    def set_config(self, **fields) -> None:
        """SET each ServerConfig field, its value sent in the text form
        that GET shows."""
        keys = {field: (key, forms)
                for key, (field, forms) in SETTINGS.items()}
        for name, value in fields.items():
            if name not in keys:
                raise ValueError(f"unknown config field {name}")
            key, forms = keys[name]
            reply = self.control(f"SET {key} {show(forms, value)}")
            if reply != "OK":
                raise RuntimeError(f"control rejected {name}: {reply}")

    def status(self) -> dict:
        reply = self.control("STATUS")
        parts = reply.split()
        if parts[0] != "OVF":
            raise RuntimeError(f"unexpected status reply: {reply}")
        return {
            "overflow_number": int(parts[1]),
            "current_timetag": int(parts[3]),
            "saturation_events": int(parts[5]),
            "flags": [] if parts[7] == "NONE" else parts[7].split(","),
        }

    def start_run(self, residual_offset: int = 0):
        reply = self.control(f"START {residual_offset}")
        if reply != "OK":
            raise RuntimeError(f"start handshake failed: {reply}")

    def close(self):
        self.transport.close()
