"""Paged sample ring buffer with memory-overflow bookkeeping.

The buffer holds one 32-bit word per 100-MHz timetag across 67,500 pages of
1024 words (69,120,000 words, 0.6912 s per wrap).  Timetags map to storage
through a page table, mirroring scattered physical page allocation: address
= page_map[t / 1024] * 1024 + t mod 1024.  A 29-bit counter increments on
every wrap and anchors query validity.  A write takes the two ADC halves
of its words and puts each into its int16 column of the page rows.

Storage is an anonymous mapping that the kernel zeroes page by page on
first touch, so only pages written since the last reset are resident; a
page of 1024 words is one 4-KiB memory page.  The mapping alone opts out of
transparent huge pages: otherwise one scattered write per 2-MiB huge page
would make the whole buffer resident (numpy asks for huge pages on every
large array).
"""

from __future__ import annotations

import mmap

import numpy as np

from .words import DRIVE, HOMODYNE, WORD_DTYPE, sample_view

SAMPLE_RATE_HZ = 100e6      # timetag clock: one word per 10-ns bin
DEFAULT_PAGES = 67_500
PAGE_BITS = 10
PAGE_WORDS = 1 << PAGE_BITS
OVERFLOW_BITS = 29
OVERFLOW_MASK = (1 << OVERFLOW_BITS) - 1


def _zeroed_words(n: int) -> np.ndarray:
    """n zero words in a fresh, lazily zeroed anonymous mapping; dropping
    the last array over it unmaps it."""
    mm = mmap.mmap(-1, n * WORD_DTYPE.itemsize)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        mm.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(mm, dtype=WORD_DTYPE)


class RingBuffer:
    def __init__(self, pages: int = DEFAULT_PAGES, page_map_seed: int = 0):
        if pages < 2 or pages % 2:
            raise ValueError("page count must be an even number >= 2")
        self.pages = pages
        self.capacity = pages * PAGE_WORDS
        self.half = self.capacity // 2
        # scattered-allocation emulation: a fixed pseudo-random page table
        rng = np.random.default_rng(page_map_seed)
        self.page_map = rng.permutation(pages).astype(np.int64)
        self.data = _zeroed_words(self.capacity)
        self.write_cursor = 0
        self.overflow_number = 0

    def physical_index(self, timetags) -> np.ndarray:
        t = np.asarray(timetags, dtype=np.int64)
        if t.size and (t.min() < 0 or t.max() >= self.capacity):
            raise IndexError("timetag outside buffer capacity")
        # in place: three full-length temporaries instead of five (about
        # 5% more words/s on 16,000-tag requests over the wire)
        idx = self.page_map[t >> PAGE_BITS]
        idx <<= PAGE_BITS
        idx |= t & (PAGE_WORDS - 1)
        return idx

    def write(self, adc_a: np.ndarray, adc_b: np.ndarray):
        """Append homodyne (a) and phase-drive (b) samples, 1-D arrays of
        one length, at the cursor.  No piece (whole pages, or part of one)
        crosses a half boundary, and the cursor moves once both columns of
        a piece are written, so it shows a half as active before any sample
        lands in it."""
        rows = sample_view(self.data).reshape(self.pages, PAGE_WORDS, 2)
        pos = 0
        while pos < adc_a.size:
            page, off = divmod(self.write_cursor, PAGE_WORDS)
            left = adc_a.size - pos
            if off == 0 and left >= PAGE_WORDS:     # whole pages
                k = min(left, self.half - self.write_cursor % self.half) \
                    // PAGE_WORDS
                n = k * PAGE_WORDS
            else:                                   # part of one page
                k, n = 1, min(left, PAGE_WORDS - off)
            pages = self.page_map[page:page + k]
            for col, x in ((HOMODYNE, adc_a), (DRIVE, adc_b)):
                rows[pages, off:off + n // k, col] = \
                    x[pos:pos + n].reshape(k, -1)
            self.write_cursor += n
            pos += n
            if self.write_cursor == self.capacity:
                self.write_cursor = 0
                self.overflow_number = (self.overflow_number + 1) & OVERFLOW_MASK

    def read(self, timetags) -> np.ndarray:
        return self.data[self.physical_index(timetags)]

    def read_range(self, lo: int, hi: int) -> np.ndarray:
        """read(np.arange(lo, hi)), gathered as the whole pages it spans."""
        if lo < hi and (lo < 0 or hi > self.capacity):
            raise IndexError("timetag outside buffer capacity")
        p0, off = divmod(lo, PAGE_WORDS)
        pages = self.page_map[p0:-(-hi // PAGE_WORDS)]  # the pages spanned
        return self.data.reshape(self.pages, PAGE_WORDS)[pages].ravel()[
            off:off + hi - lo]

    def reset(self, start_cursor: int = 0):
        """Start-pulse handshake: zero the clock, optionally with the
        comparator-dependent residual offset as the initial cursor.  Fresh
        storage replaces the old, which a concurrent reader may still hold."""
        if not 0 <= start_cursor < self.capacity:
            raise ValueError("start cursor outside capacity")
        self.data = _zeroed_words(self.capacity)
        self.write_cursor = start_cursor
        self.overflow_number = 0
