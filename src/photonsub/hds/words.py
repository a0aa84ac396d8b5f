"""32-bit sample-word layout of the homodyne detection server.

Each little-endian word carries two signed 14-bit ADC samples, sign-extended
to int16: in its `(..., 2)` int16 view (`sample_view`) the homodyne sample is
`[..., 1]` (the high half), the phase-drive sample `[..., 0]`; ingest writes
the halves through that view.  The placeholder half 0x8000 (-32768) cannot
arise from sign-extending any 14-bit value, so rejected samples are always
distinguishable from data.
"""

from __future__ import annotations

import numpy as np

ADC_MIN = -8192
ADC_MAX = 8191

PLACEHOLDER_HALF = 0x8000
PLACEHOLDER_WORD = np.uint32((PLACEHOLDER_HALF << 16) | PLACEHOLDER_HALF)

WORD_DTYPE = np.dtype("<u4")
HALF_DTYPE = np.dtype("<i2")
HOMODYNE, DRIVE = 1, 0


def sample_view(words) -> np.ndarray:
    """(..., 2) int16 view of the words; it shares memory with `words` only
    when that is a contiguous WORD_DTYPE array (other input is copied)."""
    w = np.ascontiguousarray(words, dtype=WORD_DTYPE)
    return w.view(HALF_DTYPE).reshape(np.shape(words) + (2,))


def unpack_words(words):
    """(adc_a, adc_b) as sign-extended int16 views of the words."""
    view = sample_view(words)
    return view[..., HOMODYNE], view[..., DRIVE]


def is_placeholder(words) -> np.ndarray:
    """True where the homodyne half carries the rejected-sample marker."""
    return sample_view(words)[..., HOMODYNE] == np.iinfo(HALF_DTYPE).min
