"""Division-free sub-bin centroid and the 64-bit detection signature.

The coincidence window spans nine 300-MHz sub-bins (three 100-MHz coarse
bins).  The weighted-average sub-bin of the combined counts is computed
without division by comparing the numerator sum(i * c_i) against the
precomputed thresholds k * sum(c_i); equality resolves to the lower bin,
which makes the result exactly floor(num / total).

Signature layout (64 bits): side A in the low word, side B in the high
word; within each word sub-bin 0 sits at the LSB in 3-bit fields
(bits 0..26) and the 5-bit side sum occupies bits 27..31.
"""

from __future__ import annotations

import numpy as np

WINDOW_SUBBINS = 9
TRIGGER_BINS = (4, 5, 6)
SUBBIN_FIELD_BITS = 3
SUM_SHIFT = 27
SUM_MASK = 0x1F
_SHIFTS = (SUBBIN_FIELD_BITS * np.arange(9)).astype(np.uint64)


def weighted_average_subbin(counts) -> int | None:
    """Centroid bin (0..8) of an 18-count window (9 per side), or None.

    counts: length-18 sequence, side A sub-bins first, then side B; counts
    are combined per sub-bin before the average.
    """
    c = np.asarray(counts, dtype=np.int64)
    if c.shape != (18,):
        raise ValueError("expected 18 sub-bin counts (9 per side)")
    combined = c[:9] + c[9:]
    total = int(combined.sum())
    if total == 0:
        return None
    num = int(np.dot(np.arange(9), combined))
    return int(centroid_bins([num], [total])[0])


def centroid_bins(numerators, totals) -> np.ndarray:
    """Vectorized threshold-ladder centroid; totals must be positive."""
    num = np.asarray(numerators, dtype=np.int64)
    tot = np.asarray(totals, dtype=np.int64)
    ks = np.arange(1, 9, dtype=np.int64)
    return (num[:, None] >= ks[None, :] * tot[:, None]).sum(axis=1)


def pack_signature(a_counts, b_counts) -> np.ndarray:
    """Pack per-side 9-bin count vectors into 64-bit signature words.

    Accepts (9,) or (n, 9) arrays; 3-bit fields clip at 7, side sums at 31.
    """
    a = np.atleast_2d(np.asarray(a_counts, dtype=np.uint64))
    b = np.atleast_2d(np.asarray(b_counts, dtype=np.uint64))
    if a.shape[1] != 9 or b.shape[1] != 9:
        raise ValueError("need 9 sub-bin counts per side")
    sum_a = np.minimum(a.sum(axis=1), SUM_MASK)
    sum_b = np.minimum(b.sum(axis=1), SUM_MASK)
    a = np.minimum(a, 7)
    b = np.minimum(b, 7)
    lo = (a << _SHIFTS[None, :]).sum(axis=1, dtype=np.uint64) \
        | (sum_a << np.uint64(SUM_SHIFT))
    hi = (b << _SHIFTS[None, :]).sum(axis=1, dtype=np.uint64) \
        | (sum_b << np.uint64(SUM_SHIFT))
    word = lo | (hi << np.uint64(32))
    return word if word.size > 1 else word.reshape(word.size)


def unpack_signature(words):
    """(a_counts, b_counts, sum_a, sum_b) from signature words."""
    w = np.atleast_1d(np.asarray(words, dtype=np.uint64))
    lo = w & np.uint64(0xFFFFFFFF)
    hi = w >> np.uint64(32)
    a = ((lo[:, None] >> _SHIFTS[None, :]) & np.uint64(7)).astype(np.int64)
    b = ((hi[:, None] >> _SHIFTS[None, :]) & np.uint64(7)).astype(np.int64)
    sum_a = ((lo >> np.uint64(SUM_SHIFT)) & np.uint64(SUM_MASK)).astype(np.int64)
    sum_b = ((hi >> np.uint64(SUM_SHIFT)) & np.uint64(SUM_MASK)).astype(np.int64)
    return a, b, sum_a, sum_b


def signature_class(words):
    """(n, m) side-sum pair per signature word."""
    _, _, sa, sb = unpack_signature(words)
    return sa, sb
