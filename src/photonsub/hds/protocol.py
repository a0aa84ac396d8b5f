"""Binary wire protocol of the homodyne detection server.

All words are 32-bit little-endian.  Stream transport frames every message
in both directions with a single uint32 word count (the hardware's raw
protocol leaves stream delimiting to the client drivers; the length prefix
is this implementation's framing).

Request body (sample-query mode):
    [KEYWORD, overflow_number, timetag, timetag, ...]
A body that does not start with the keyword is a continuation batch:
    [timetag, timetag, ...]
and inherits the overflow number of the last keyword header seen on the
same connection.  In threshold-scan mode the body is
    [KEYWORD, overflow_number, start_timetag, end_timetag].

Response body:
    [KEYWORD, status, overflow_echo, count, payload...]
with `count` payload words (sample words, or crossing timetags for a
threshold scan).  Error responses carry count = 0 and a nonzero status.
"""

from __future__ import annotations

import enum
import struct

import numpy as np

from .words import WORD_DTYPE

KEYWORD = 0x48445351

REQUEST_HEADER_WORDS = 2
RESPONSE_HEADER_WORDS = 4


class Status(enum.IntEnum):
    OK = 0
    KEYWORD_MISMATCH = 1
    STALE_OVERFLOW = 2
    ACTIVE_HALF = 3
    INTEGRITY = 4
    MALFORMED = 5
    RANGE = 6


class ProtocolError(RuntimeError):
    def __init__(self, status: Status, message: str = ""):
        super().__init__(message or status.name)
        self.status = status


class KeywordMismatchError(ProtocolError):
    def __init__(self, msg=""):
        super().__init__(Status.KEYWORD_MISMATCH, msg)


class StaleEpochError(ProtocolError):
    def __init__(self, msg=""):
        super().__init__(Status.STALE_OVERFLOW, msg)


class ActiveHalfError(ProtocolError):
    def __init__(self, msg=""):
        super().__init__(Status.ACTIVE_HALF, msg)


class IntegrityError(ProtocolError):
    def __init__(self, msg=""):
        super().__init__(Status.INTEGRITY, msg)


STATUS_EXCEPTIONS = {
    Status.KEYWORD_MISMATCH: KeywordMismatchError,
    Status.STALE_OVERFLOW: StaleEpochError,
    Status.ACTIVE_HALF: ActiveHalfError,
    Status.INTEGRITY: IntegrityError,
}


def status_error(status: Status, message: str) -> ProtocolError:
    """The error a non-OK status raises: its own class where it has one,
    else a ProtocolError carrying the status."""
    exc = STATUS_EXCEPTIONS.get(status)
    return exc(message) if exc is not None else ProtocolError(status, message)


def encode_query(overflow: int, timetags,
                 with_keyword: bool = True) -> np.ndarray:
    tags = np.asarray(timetags, dtype=WORD_DTYPE).ravel()
    if not with_keyword:
        return tags
    frame = np.empty(REQUEST_HEADER_WORDS + tags.size, dtype=WORD_DTYPE)
    frame[:REQUEST_HEADER_WORDS] = KEYWORD, overflow
    frame[REQUEST_HEADER_WORDS:] = tags
    return frame


def encode_scan(overflow: int, start: int, end: int) -> np.ndarray:
    return np.array([KEYWORD, overflow, start, end], dtype=WORD_DTYPE)


def encode_response(status: Status, overflow: int,
                    payload=None) -> np.ndarray:
    count = 0 if payload is None else np.size(payload)
    frame = np.empty(RESPONSE_HEADER_WORDS + count, dtype=WORD_DTYPE)
    frame[:RESPONSE_HEADER_WORDS] = KEYWORD, int(status), overflow, count
    if count:
        frame[RESPONSE_HEADER_WORDS:] = np.ravel(payload)
    return frame


def decode_response(words: np.ndarray):
    """(status, overflow, payload); raises on malformed frames."""
    words = np.asarray(words, dtype=WORD_DTYPE)
    if words.size < RESPONSE_HEADER_WORDS:
        raise ValueError("short response frame")
    keyword, status, overflow, count = words[:RESPONSE_HEADER_WORDS].tolist()
    if keyword != KEYWORD:
        raise ValueError("response does not start with the protocol keyword")
    status = Status(status)
    if words.size != RESPONSE_HEADER_WORDS + count:
        raise ValueError("response payload length mismatch")
    return status, overflow, words[RESPONSE_HEADER_WORDS:]


def frame_message(words: np.ndarray) -> bytes:
    """Length-prefixed stream frame: uint32 count + words."""
    words = np.asarray(words, dtype=WORD_DTYPE).ravel()
    return struct.pack("<I", words.size) + words.tobytes()


def read_frame(sock, max_words: int | None = None) -> np.ndarray:
    """Read one length-prefixed frame from a socket; None on EOF.  A frame
    of more than max_words words raises MALFORMED before its body is read."""
    head = _read_exact(sock, 4)
    if head is None:
        return None
    (count,) = struct.unpack("<I", head)
    if max_words is not None and count > max_words:
        raise ProtocolError(Status.MALFORMED,
                            f"frame of {count} words exceeds {max_words}")
    body = _read_exact(sock, 4 * count)
    if body is None:
        raise ConnectionError("stream truncated inside a frame")
    return np.frombuffer(body, dtype=WORD_DTYPE).copy()


def _read_exact(sock, n: int):
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if got == 0:
                return None
            raise ConnectionError("stream truncated mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)
