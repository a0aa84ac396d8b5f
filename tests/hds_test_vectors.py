"""HDS conformance-replay test vectors: (timetag, word) pair dumps.

File layout: ASCII header line "HDSTV1 <count>", then count little-endian
(uint32 timetag, uint32 word) pairs.  A replay ingests nothing; it queries
the listed timetags and compares the responses word for word.
"""

from __future__ import annotations

import numpy as np

from photonsub.hds.words import WORD_DTYPE

_PAIR_DTYPE = np.dtype([("timetag", "<u4"), ("word", "<u4")])


def write_test_vectors(path, timetags, words):
    tags = np.asarray(timetags, dtype=np.uint32)
    w = np.asarray(words, dtype=WORD_DTYPE)
    if tags.size != w.size:
        raise ValueError("timetags and words must pair up")
    rec = np.empty(tags.size, dtype=_PAIR_DTYPE)
    rec["timetag"] = tags
    rec["word"] = w
    with open(path, "wb") as fh:
        fh.write(f"HDSTV1 {tags.size}\n".encode("ascii"))
        fh.write(rec.tobytes())


def read_test_vectors(path):
    with open(path, "rb") as fh:
        header = fh.readline()
        if not header.startswith(b"HDSTV1 "):
            raise ValueError("not an HDS test-vector file")
        count = int(header.split()[1])
        rec = np.frombuffer(fh.read(count * _PAIR_DTYPE.itemsize),
                            dtype=_PAIR_DTYPE)
    return rec["timetag"].astype(np.int64), rec["word"].copy()


def replay_test_vectors(client, path, overflow: int = 0):
    """Query the dump's timetags; returns (matches, total)."""
    tags, words = read_test_vectors(path)
    got = client.query_samples_batched(overflow, tags)
    return int(np.count_nonzero(got == words)), int(tags.size)
