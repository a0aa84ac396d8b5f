"""Event-forming pipeline: sliding-window coincidence trigger and the
hold-time, seed-rejection and zero-detection stages.

The trigger emulates the hardware exactly: the 9-sub-bin window slides one
sub-bin per clock; when the combined-count centroid lands in the middle
bins {4, 5, 6} the event is recorded with the full signature at that
alignment and the contributing pulses are consumed.  The herald output
fires a fixed pipeline depth after the trigger alignment.

Pulses separated by more than the window length can never interact, so
every pulse cluster is scanned independently, all of them in lockstep:
each step tests one alignment per live cluster, reading its window sums
as differences of prefix sums over the occupied sub-bins.
"""

from __future__ import annotations

import warnings

import numpy as np

from .centroid import (TRIGGER_BINS, WINDOW_SUBBINS, in_trigger_bins,
                       pack_windows)

PIPELINE_DEPTH_SUBBINS = 27
SUBBINS_PER_COARSE = 3        # 300-MHz sub-bins per 100-MHz coarse bin
TREE_DETECTORS = 3            # detectors per side: at most 3 counts register
ZERO_DETECTION_RATE_CAP = 2 ** 17
# one triggered event; alignment is the window start and emit_subbin the
# herald output time, both in 300-MHz sub-bins; coarse is the 100-MHz
# timetag; signature is the packed 64-bit detection signature.  Select
# records with take/compress: they copy whole records, where indexing a
# structured array copies field by field at 2-4x the cost
EVENT_DTYPE = np.dtype([("alignment", "<i8"), ("coarse", "<i8"),
                        ("signature", "<u8"), ("emit_subbin", "<i8"),
                        ("sum_a", "<i8"), ("sum_b", "<i8")])


def coincidence_pipeline(subbins, sides) -> np.ndarray:
    """Run the trigger over a pulse stream.

    subbins: absolute 300-MHz times, int; sides: 0 for A, 1 for B.  Pulses
    need not be sorted.  Every triggered event is returned as an
    EVENT_DTYPE record, in time order (the coincidence/singles gate is a
    downstream save filter).
    """
    subbins = np.asarray(subbins, dtype=np.int64)
    sides = np.asarray(sides, dtype=np.int64)
    if subbins.shape != sides.shape:
        raise ValueError("subbins and sides must have equal shapes")
    if subbins.size == 0:
        return np.zeros(0, dtype=EVENT_DTYPE)
    pos, idx = np.unique(subbins, return_inverse=True)
    ca = np.bincount(idx[sides == 0], minlength=pos.size)
    cb = np.bincount(idx[sides == 1], minlength=pos.size)
    # counts of the occupied sub-bins [i, j) are pa[j] - pa[i], and so
    # on; the position-weighted sums may wrap around in int64, which
    # cancels in a window's small centroid numerator
    pa, pb, px = (np.concatenate(([0], np.cumsum(c)))
                  for c in (ca, cb, (ca + cb) * pos))
    # per live cluster: the window start s, the first unconsumed occupied
    # sub-bin i at or after it, and the cluster's end; the scan starts at
    # the first window that reaches the cluster
    end = np.append(np.nonzero(np.diff(pos) >= WINDOW_SUBBINS)[0] + 1,
                    pos.size)
    i = np.insert(end[:-1], 0, 0)
    s = pos[i] - (WINDOW_SUBBINS - 1)
    hits = []
    while i.size:
        # windows with every count past the last trigger bin cannot trigger
        s = np.maximum(s, pos[i] - TRIGGER_BINS[-1])
        j = np.searchsorted(pos, s + WINDOW_SUBBINS)
        tot = pa[j] - pa[i] + pb[j] - pb[i]
        hit = in_trigger_bins(px[j] - px[i] - s * tot, tot)
        hits.append((s[hit], i[hit], j[hit]))
        # a trigger consumes the window; otherwise the window start moves
        # past the sub-bin at s
        i = np.where(hit, j, i + (pos[i] == s))
        live = i < end
        s, i, end = s[live] + 1, i[live], end[live]
    s, i, j = (np.concatenate(x) for x in zip(*hits))
    order = np.argsort(s, kind="stable")
    s, i, j = s[order], i[order], j[order]
    ev = np.empty(s.size, dtype=EVENT_DTYPE)
    ev["alignment"] = s
    # the trigger flag crosses into the 100-MHz domain at a fixed offset
    # from the window start; calibration absorbs the absolute value
    ev["coarse"] = (s + 4) // SUBBINS_PER_COARSE
    # packed from the occupied sub-bins of every triggered window, flattened
    n = j - i
    starts = np.cumsum(n) - n
    at = np.repeat(i - starts, n) + np.arange(n.sum())
    ev["signature"] = pack_windows(starts, pos[at] - np.repeat(s, n),
                                   ca[at], cb[at])
    ev["emit_subbin"] = s + PIPELINE_DEPTH_SUBBINS
    ev["sum_a"] = pa[j] - pa[i]
    ev["sum_b"] = pb[j] - pb[i]
    return ev


def coincidence_gate(events: np.ndarray, coincidence_only: bool) -> np.ndarray:
    """Save-gate mask: both sides present, or any event in singles mode."""
    if coincidence_only:
        return (events["sum_a"] > 0) & (events["sum_b"] > 0)
    return np.ones(events.size, dtype=bool)


def hold_time_filter(coarse_tags, hold_bins: int = 3,
                     keep_leader: bool = False) -> np.ndarray:
    """Mask of events surviving the hold-time check.

    An event is dropped when another event lands within hold_bins coarse
    bins after it; by default both offenders are dropped (a too-close
    follower distorts the leader's signature into a partial double
    subtraction).  keep_leader retains the earlier event instead.
    """
    t = np.asarray(coarse_tags, dtype=np.int64)
    if hold_bins < 0:
        raise ValueError("hold_bins must be >= 0")
    if t.size <= 1 or hold_bins == 0:
        return np.ones(t.size, dtype=bool)
    if np.any(np.diff(t) < 0):
        raise ValueError("coarse tags must be sorted")
    gap_next = np.diff(t)
    too_close_next = np.concatenate([gap_next <= hold_bins, [False]])
    if keep_leader:
        return ~np.concatenate([[False], gap_next <= hold_bins])
    too_close_prev = np.concatenate([[False], gap_next <= hold_bins])
    return ~(too_close_next | too_close_prev)


def seed_rejection_filter(coarse_tags, offset: int, width: int,
                          period: int) -> np.ndarray:
    """Mask of events outside the phase-stabilization seed window.

    Drops tags whose position modulo the seed period falls inside
    [offset, offset + width); width 0 disables the filter.
    """
    t = np.asarray(coarse_tags, dtype=np.int64)
    if width == 0:
        return np.ones(t.size, dtype=bool)
    if not 0 <= width < period:
        raise ValueError("need 0 <= width < period")
    phase = (t - offset) % period
    return ~(phase < width)


def zero_detection_tags(rate_per_overflow: int, span, overflow_period: int,
                        event_tags, hold_bins: int,
                        rng: np.random.Generator):
    """Synthetic no-subtraction sample times inside [span[0], span[1]).

    Candidates are laid out at the configured rate with sub-stride jitter,
    then any candidate within the hold window of a real event is discarded
    (they would not have been saved as zero-detection data).  Returns
    (tags, attempt_count).
    """
    if rate_per_overflow < 0:
        raise ValueError("rate must be non-negative")
    if rate_per_overflow > ZERO_DETECTION_RATE_CAP:
        raise ValueError(
            f"zero-detection rate {rate_per_overflow} exceeds the "
            f"2^17 per-overflow cap")
    lo, hi = span
    if rate_per_overflow == 0 or hi <= lo:
        return np.zeros(0, dtype=np.int64), 0
    stride = overflow_period / rate_per_overflow
    n = int((hi - lo) / stride)
    base = lo + (np.arange(n) + rng.random(n) * 0.5) * stride
    cands = np.unique(base.astype(np.int64))
    cands = cands[(cands >= lo) & (cands < hi)]
    ev = np.sort(np.asarray(event_tags, dtype=np.int64))
    if ev.size:
        right = np.searchsorted(ev, cands)
        left = right - 1
        d_right = np.where(right < ev.size, ev[np.minimum(right, ev.size - 1)]
                           - cands, np.iinfo(np.int64).max)
        d_left = np.where(left >= 0, cands - ev[np.maximum(left, 0)],
                          np.iinfo(np.int64).max)
        clear = (np.minimum(d_left, d_right) > hold_bins)
        cands = cands[clear]
    if n and cands.size < n // 2:
        warnings.warn(
            f"zero-detection rate infeasible: {cands.size} of {n} attempts "
            "found a clear gap", stacklevel=2)
    return cands, n
