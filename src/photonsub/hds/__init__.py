"""Homodyne detection server: paged ring buffer, binary timetag-query
protocol, and the client used by the orchestrator."""

from .buffer import DEFAULT_PAGES, OVERFLOW_MASK, PAGE_WORDS, RingBuffer
from .client import HdsClient, InProcessTransport, SocketTransport
from .protocol import (KEYWORD, ActiveHalfError, IntegrityError,
                       KeywordMismatchError, ProtocolError, StaleEpochError,
                       Status)
from .server import (ConnectionState, HdsSocketServer, HomodyneServer,
                     ServerConfig, StatusSnapshot)
from .words import (ADC_MAX, ADC_MIN, PLACEHOLDER_HALF, PLACEHOLDER_WORD,
                    is_placeholder, unpack_words)

__all__ = [
    "DEFAULT_PAGES", "PAGE_WORDS", "OVERFLOW_MASK", "RingBuffer",
    "HdsClient", "InProcessTransport", "SocketTransport",
    "KEYWORD", "Status", "ProtocolError", "KeywordMismatchError",
    "StaleEpochError", "ActiveHalfError", "IntegrityError",
    "HomodyneServer", "HdsSocketServer", "ServerConfig", "StatusSnapshot",
    "ConnectionState",
    "ADC_MIN", "ADC_MAX", "PLACEHOLDER_HALF", "PLACEHOLDER_WORD",
    "unpack_words", "is_placeholder",
]
