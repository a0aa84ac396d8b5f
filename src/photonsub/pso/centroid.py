"""Division-free sub-bin centroid and the 64-bit detection signature.

The coincidence window spans nine 300-MHz sub-bins (three 100-MHz coarse
bins).  Whether the weighted-average sub-bin floor(num / total) of the
combined counts, num = sum(i * c_i), is a trigger bin is decided without
division, by comparing num against the thresholds k * total of the two
ladder rungs around TRIGGER_BINS.

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


def in_trigger_bins(numerators, totals) -> np.ndarray:
    """Whether each centroid is a trigger bin, by the two ladder rungs
    around TRIGGER_BINS; totals must be positive."""
    return ((TRIGGER_BINS[0] * totals <= numerators)
            & (numerators < (TRIGGER_BINS[-1] + 1) * totals))


def pack_windows(starts, index, a_counts, b_counts) -> np.ndarray:
    """Signature words of windows listed by their occupied sub-bins.

    Window k owns the flat entries from starts[k] up to the next start
    (the last one up to the end), at least one, each sub-bin at most
    once: index is the sub-bin (0..8) and a_counts, b_counts the side
    counts there.  3-bit fields clip at 7, side sums at 31.
    """
    shifts = (SUBBIN_FIELD_BITS * np.asarray(index)).astype(np.uint64)
    words = []
    for counts in (a_counts, b_counts):
        c = np.asarray(counts, dtype=np.uint64)
        fields = np.bitwise_or.reduceat(np.minimum(c, 7) << shifts, starts)
        total = np.minimum(np.add.reduceat(c, starts), SUM_MASK)
        words.append(fields | (total << np.uint64(SUM_SHIFT)))
    return words[0] | (words[1] << np.uint64(32))


def signature_class(words):
    """(n, m) side-sum pair per signature word, from its sum fields."""
    w = np.atleast_1d(np.asarray(words, dtype=np.uint64))
    return tuple(((w >> np.uint64(offset + SUM_SHIFT)) & np.uint64(SUM_MASK))
                 .astype(np.int64) for offset in (0, 32))
