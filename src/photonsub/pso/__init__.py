"""Photon-subtraction orchestrator: trigger pipeline, filters, records."""

from .centroid import signature_class
from .engine import PsoConsole, PsoEngine, PsoRunConfig
from .pipeline import (EVENT_DTYPE, PIPELINE_DEPTH_SUBBINS, coincidence_gate,
                       coincidence_pipeline, hold_time_filter,
                       seed_rejection_filter, zero_detection_tags)
from .records import (RECORD_DTYPE, DatasetWriter, RunReport, build_records,
                      class_key, parse_class_key, read_class, read_records,
                      write_records)

__all__ = [
    "signature_class",
    "PsoConsole", "PsoEngine", "PsoRunConfig",
    "EVENT_DTYPE", "PIPELINE_DEPTH_SUBBINS", "coincidence_pipeline",
    "coincidence_gate", "hold_time_filter", "seed_rejection_filter",
    "zero_detection_tags",
    "RECORD_DTYPE", "DatasetWriter", "RunReport", "build_records",
    "class_key", "parse_class_key", "read_class", "read_records",
    "write_records",
]
