"""Photon-subtraction/quadrature-sample delay calibration.

Cross-correlates PSO detector tags from a pulsed thermal stream against
HDS threshold-crossing tags; the peak lag is the effective per-mode delay
(true electrical/optical delay plus server start skew plus the fixed
trigger-pipeline offset), which is what acquisition queries must use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the scan spans every query delay the orchestrator takes
from ..pso.engine import MAX_DELAY_BINS as MAX_LAG

PEAK_HALFWIDTH = 6      # lags this close to the peak stay out of the floor
MIN_SNR = 5.0


class CalibrationFailedError(RuntimeError):
    pass


@dataclass
class CalibrationResult:
    peak_delay: int
    snr: float
    fwhm_bins: int
    lags: np.ndarray
    counts: np.ndarray


def cross_correlate(det_tags, crossing_tags, max_lag: int = MAX_LAG):
    """Counts of (crossing - detector) lags in +/-max_lag, per distinct tag."""
    det = np.asarray(det_tags, dtype=np.int64)
    cross = np.sort(np.asarray(crossing_tags, dtype=np.int64))
    cross = cross[np.diff(cross, prepend=cross[:1] - 1) > 0]
    lags = np.arange(-max_lag, max_lag + 1)
    lo = np.searchsorted(cross, det - max_lag)
    n = np.searchsorted(cross, det + max_lag + 1) - lo
    # pair j < n[i] of detector tag i reads crossing tag lo[i] + j
    owner = np.repeat(np.arange(det.size), n)
    at = lo[owner] + np.arange(owner.size) - (np.cumsum(n) - n)[owner]
    return lags, np.bincount(cross[at] - det[owner] + max_lag,
                             minlength=lags.size)


def analyze_correlation(lags, counts):
    """(peak_lag, snr, fwhm) from a cross-correlation histogram.

    SNR is the peak over the mean of lags farther than PEAK_HALFWIDTH
    from the peak; FWHM is the contiguous run around the peak at or above
    half maximum.
    """
    if counts.sum() == 0:
        raise CalibrationFailedError("no coincidences in the scan window")
    ipk = int(counts.argmax())
    peak = counts[ipk]
    off = np.abs(np.arange(counts.size) - ipk) > PEAK_HALFWIDTH
    floor = counts[off].mean() if np.any(off) else 0.0
    snr = peak / max(floor, 1.0)
    half = peak / 2.0
    left = ipk
    while left > 0 and counts[left - 1] >= half:
        left -= 1
    right = ipk
    while right < counts.size - 1 and counts[right + 1] >= half:
        right += 1
    return int(lags[ipk]), float(snr), int(right - left + 1)


def thermal_calibration(det_tags, crossing_tags) -> CalibrationResult:
    """Peak-delay estimate from detector and threshold-crossing tags."""
    if len(det_tags) == 0 or len(crossing_tags) == 0:
        raise CalibrationFailedError("no pulses to correlate")
    lags, counts = cross_correlate(det_tags, crossing_tags)
    peak, snr, fwhm = analyze_correlation(lags, counts)
    if snr < MIN_SNR:
        raise CalibrationFailedError(
            f"cross-correlation SNR {snr:.1f} below the minimum {MIN_SNR}")
    return CalibrationResult(peak_delay=peak, snr=snr, fwhm_bins=fwhm,
                             lags=lags, counts=counts)
