"""Physics-to-bits generator and experiment runner."""

from .calibration import (CalibrationFailedError, CalibrationResult,
                          analyze_correlation, cross_correlate,
                          thermal_calibration)
from .config import ExperimentConfig, load_config, save_config
from .experiment import (DelayScanRow, ExperimentReport, Rig,
                         analyze_classes, build_rig, delay_scan,
                         expected_states, run_acquisition,
                         run_delay_calibration, run_experiment,
                         throughput_benchmark)
from .generator import HeraldPlan, StreamGenerator

__all__ = [
    "ExperimentConfig", "load_config", "save_config",
    "StreamGenerator", "HeraldPlan",
    "CalibrationResult", "CalibrationFailedError", "thermal_calibration",
    "cross_correlate", "analyze_correlation",
    "Rig", "build_rig", "run_delay_calibration", "run_acquisition",
    "run_experiment", "delay_scan", "throughput_benchmark",
    "analyze_classes", "expected_states", "ExperimentReport", "DelayScanRow",
]
