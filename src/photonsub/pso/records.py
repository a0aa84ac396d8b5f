"""Acquisition record format, dataset files and the run report.

One record per kept event, 24 bytes little-endian: the 64-bit detection
signature, the 32-bit memory-overflow number, the 32-bit timetag, then the
four signed 16-bit ADC halves (server A homodyne, server A phase drive,
server B homodyne, server B phase drive).  Datasets roll to a new file per
signature class every `records_per_file` records.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

RECORD_DTYPE = np.dtype([
    ("signature", "<u8"),
    ("overflow", "<u4"),
    ("timetag", "<u4"),
    ("adc", "<i2", (4,)),
])
assert RECORD_DTYPE.itemsize == 24


def build_records(signature, overflow, timetag, adc_a_pair, adc_b_pair):
    """Assemble records from column arrays; adc pairs are (homodyne, drive)."""
    n = len(signature)
    rec = np.empty(n, dtype=RECORD_DTYPE)
    rec["signature"] = signature
    rec["overflow"] = overflow
    rec["timetag"] = timetag
    rec["adc"][:, 0] = adc_a_pair[0]
    rec["adc"][:, 1] = adc_a_pair[1]
    rec["adc"][:, 2] = adc_b_pair[0]
    rec["adc"][:, 3] = adc_b_pair[1]
    return rec


def write_records(path, records: np.ndarray):
    with open(path, "wb") as fh:
        fh.write(np.ascontiguousarray(records, dtype=RECORD_DTYPE).tobytes())


def read_records(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) % RECORD_DTYPE.itemsize:
        raise ValueError(f"{path}: {len(raw)} bytes is not a whole number "
                         f"of {RECORD_DTYPE.itemsize}-byte records")
    return np.frombuffer(raw, dtype=RECORD_DTYPE).copy()


def class_key(cls) -> str:
    """The class (n, m) as the text "n,m" that files and reports key by."""
    return f"{cls[0]},{cls[1]}"


def parse_class_key(text: str):
    """Inverse of class_key; ValueError for text that is not "n,m"."""
    try:
        n, m = text.split(",")
        return int(n), int(m)
    except ValueError:
        raise ValueError(f'{text[:20]!r} is not "n,m"') from None


def _part_name(cls, idx: int) -> str:
    return f"sig_{cls[0]}_{cls[1]}.part{idx:03d}.bin"


def read_class(run_dir, cls) -> np.ndarray:
    """Every record of one (n, m) class in a run directory, in write order."""
    parts = [np.zeros(0, dtype=RECORD_DTYPE)]
    while os.path.exists(
            path := os.path.join(run_dir, _part_name(cls, len(parts) - 1))):
        parts.append(read_records(path))
    return np.concatenate(parts)


class DatasetWriter:
    """Routes records into per-signature-class rolling files."""

    def __init__(self, run_dir, records_per_file: int = 10_000,
                 class_targets: dict | None = None):
        if records_per_file < 1:
            raise ValueError("records_per_file must be >= 1")
        self.run_dir = str(run_dir)
        os.makedirs(self.run_dir, exist_ok=True)
        self.records_per_file = records_per_file
        self.class_targets = dict(class_targets or {})
        self._pending: dict = {}    # class -> record arrays not yet in a file
        self._file_index: dict = {}
        self.counts: dict = {}
        self.files: list = []

    def target_reached(self, cls) -> bool:
        tgt = self.class_targets.get(cls)
        return tgt is not None and self.counts.get(cls, 0) >= tgt

    def add(self, cls, records: np.ndarray) -> int:
        """Append records of one (n, m) class, rolling files as needed; a
        class with a target admits only the first records it still misses.
        Returns how many were admitted."""
        tgt = self.class_targets.get(cls)
        if tgt is not None:
            records = records[:max(tgt - self.counts.get(cls, 0), 0)]
        if records.size == 0:
            return 0
        self.counts[cls] = self.counts.get(cls, 0) + records.size
        parts = self._pending.setdefault(cls, [])
        parts.append(records)
        n = sum(p.size for p in parts)
        full = n - n % self.records_per_file
        if full:
            # one join per file roll, not one per add
            buf = np.concatenate(parts, dtype=RECORD_DTYPE)
            for lo in range(0, full, self.records_per_file):
                self._flush(cls, buf[lo:lo + self.records_per_file])
            parts[:] = [buf[full:]] if full < n else []
        return records.size

    def _flush(self, cls, chunk):
        idx = self._file_index.get(cls, 0)
        name = _part_name(cls, idx)
        path = os.path.join(self.run_dir, name)
        write_records(path, chunk)
        self._file_index[cls] = idx + 1
        self.files.append(name)

    def finalize(self, metadata: dict | None = None):
        for cls, parts in self._pending.items():
            if parts:
                self._flush(cls, np.concatenate(parts, dtype=RECORD_DTYPE))
            parts.clear()
        meta = {
            "record_layout": "signature u64, overflow u32, timetag u32, "
                             "adc[4] i16 (A homodyne, A drive, B homodyne, "
                             "B drive), little-endian, 24 bytes",
            "records_per_file": self.records_per_file,
            "class_counts": {class_key(k): v for k, v in self.counts.items()},
            "files": self.files,
        }
        meta.update(metadata or {})
        with open(os.path.join(self.run_dir, "run_meta.txt"), "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
        return meta

    def load_class(self, cls) -> np.ndarray:
        """Read back every record of one class, in write order."""
        return np.concatenate([read_class(self.run_dir, cls),
                               *self._pending.get(cls, ())],
                              dtype=RECORD_DTYPE)


@dataclass
class RunReport:
    """Event-conservation bookkeeping for one acquisition run."""

    triggered: int = 0
    gated_out: int = 0
    hold_dropped: int = 0
    seed_dropped: int = 0
    deferred: int = 0
    placeholder_excluded: int = 0
    kept: int = 0
    zero_detection_attempted: int = 0
    zero_detection_emitted: int = 0
    zero_detection_placeholder: int = 0
    class_counts: dict = field(default_factory=dict)

    @property
    def candidates(self) -> int:
        """Events that passed the save gate and entered the filter chain."""
        return self.triggered - self.gated_out

    def conservation_holds(self) -> bool:
        return (self.kept + self.hold_dropped + self.seed_dropped
                + self.deferred + self.placeholder_excluded == self.candidates)

    def to_text(self) -> str:
        lines = [
            f"triggered            {self.triggered}",
            f"gated out            {self.gated_out}",
            f"candidates           {self.candidates}",
            f"hold dropped         {self.hold_dropped}",
            f"seed dropped         {self.seed_dropped}",
            f"deferred             {self.deferred}",
            f"placeholder excluded {self.placeholder_excluded}",
            f"kept                 {self.kept}",
            f"zero-detection       {self.zero_detection_emitted} of "
            f"{self.zero_detection_attempted} attempts "
            f"({self.zero_detection_placeholder} placeholder-excluded)",
            f"conservation         "
            f"{'OK' if self.conservation_holds() else 'VIOLATED'}",
        ]
        for cls in sorted(self.class_counts):
            lines.append(f"  class {cls}: {self.class_counts[cls]}")
        return "\n".join(lines)
