"""Event-forming pipeline: sliding-window coincidence trigger and the
hold-time, seed-rejection and zero-detection stages.

The trigger emulates the hardware exactly: the 9-sub-bin window slides one
sub-bin per clock; when the combined-count centroid lands in the middle
bins {4, 5, 6} the event is recorded with the full signature at that
alignment and the contributing pulses are consumed.  The herald output
fires a fixed pipeline depth after the trigger alignment.

Pulses separated by more than the window length can never interact, so the
scan runs per pulse cluster; single-position clusters (the overwhelmingly
common case) take a closed-form vectorized path.
"""

from __future__ import annotations

import warnings

import numpy as np

from .centroid import TRIGGER_BINS, centroid_bins, pack_signature

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


def _events(s, signature, sum_a, sum_b) -> np.ndarray:
    """EVENT_DTYPE records of the windows starting at sub-bins s."""
    s = np.asarray(s, dtype=np.int64)
    ev = np.empty(s.size, dtype=EVENT_DTYPE)
    ev["alignment"] = s
    # the trigger flag crosses into the 100-MHz domain at a fixed offset
    # from the window start; calibration absorbs the absolute value
    ev["coarse"] = (s + 4) // SUBBINS_PER_COARSE
    ev["signature"] = signature
    ev["emit_subbin"] = s + PIPELINE_DEPTH_SUBBINS
    ev["sum_a"] = sum_a
    ev["sum_b"] = sum_b
    return ev


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
    # counts per occupied sub-bin and side; clusters split where gaps
    # exceed the window
    pos_sorted, idx = np.unique(subbins, return_inverse=True)
    ca = np.bincount(idx[sides == 0], minlength=pos_sorted.size)
    cb = np.bincount(idx[sides == 1], minlength=pos_sorted.size)
    gap_break = np.nonzero(np.diff(pos_sorted) > 8)[0]
    cluster_starts = np.concatenate(([0], gap_break + 1))
    cluster_ends = np.concatenate((gap_break + 1, [pos_sorted.size]))

    single = cluster_ends - cluster_starts == 1
    one = cluster_starts[single]
    rows = []
    for st, en in zip(cluster_starts[~single], cluster_ends[~single]):
        rows += _scan_cluster(pos_sorted[st:en], ca[st:en], cb[st:en])
    out = np.concatenate(
        [_single_position_events(pos_sorted[one], ca[one], cb[one]),
         _events(*zip(*rows)) if rows else np.zeros(0, dtype=EVENT_DTYPE)],
        dtype=EVENT_DTYPE)
    return out.take(np.argsort(out["alignment"], kind="stable"))


def _single_position_events(pos, ca, cb) -> np.ndarray:
    """All counts at one sub-bin: the centroid equals the position index,
    which first enters the trigger set at window index 6."""
    a9 = np.zeros((pos.size, 9), dtype=np.int64)
    b9 = np.zeros((pos.size, 9), dtype=np.int64)
    a9[:, 6] = ca
    b9[:, 6] = cb
    return _events(pos - 6, pack_signature(a9, b9), ca, cb)


def _scan_cluster(pos, ca, cb) -> list:
    """Alignment-by-alignment scan of one pulse cluster with consumption;
    one (alignment, signature, sum_a, sum_b) row per triggered window."""
    lo = int(pos[0]) - 8
    hi = int(pos[-1])
    width = hi - lo + 9
    a = np.zeros(width, dtype=np.int64)
    b = np.zeros(width, dtype=np.int64)
    a[pos - lo] = ca
    b[pos - lo] = cb
    idx = np.arange(9)
    rows = []
    for s in range(0, width - 8):
        wa = a[s:s + 9]
        wb = b[s:s + 9]
        tot = int(wa.sum() + wb.sum())
        if tot == 0:
            continue
        num = int(np.dot(idx, wa) + np.dot(idx, wb))
        cen = int(centroid_bins([num], [tot])[0])
        if cen in TRIGGER_BINS:
            rows.append((lo + s, int(pack_signature(wa, wb)[0]),
                         int(wa.sum()), int(wb.sum())))
            a[s:s + 9] = 0
            b[s:s + 9] = 0
    return rows


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
