"""Experiment configuration: physics, acquisition geometry, seeds.

The flat key-value JSON schema (one key per field, arrays for pairs) is
documented in the README; `load_config` / `save_config` round-trip it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

from ..fock_core import SubtractionModel
from ..pso import PsoRunConfig

DEFAULT_CLASS_TARGETS = {(1, 1): 10_000, (0, 0): 10_000}


@dataclass(frozen=True)
class ExperimentConfig:
    # physics (nominal source operating point)
    r: float = 0.3
    R1: float = 0.14
    R2: float = 0.14
    eta1: float = 0.55
    eta2: float = 0.50
    n_c: int = 6

    # timing truth (coarse 100-MHz bins); server offsets model the
    # comparator-dependent start skew
    true_delay_a: int = 17
    true_delay_b: int = 22
    server_offset_a: int = 1
    server_offset_b: int = 2

    # acquisition plane
    pages: int = 67_500
    # the hardware's ~20 heralds/s scaled up 1000x in simulated time;
    # raise further (config) when wall time matters more than realism
    herald_rate_hz: float = 2e4
    dark_herald_fraction: float = 0.01
    zero_detection_rate: int = 2 ** 17   # per overflow period
    hold_bins: int = 3
    seed_window: tuple = (0, 0, 1000)    # offset, width, period; width 0 off
    shutter_bins: int = 2_000_000        # shot-noise window at run start
    shot_noise_samples: int = 20_000
    adc_scale: float = 800.0             # ADC codes per quadrature unit
    records_per_file: int = 10_000
    class_targets: dict = field(default_factory=lambda: dict(DEFAULT_CLASS_TARGETS))
    side_class_cap: int = 2              # generator draws classes n,m <= cap

    # phase drives (A side slow, B side fast)
    drive_a_hz: float = 1_000.0
    drive_b_hz: float = 10_000.0
    reset_fraction: float = 0.001

    # tomography
    max_iterations: int = 2000
    epsilon: float = 1e-6

    # determinism
    seed: int = 2026

    # wall-clock pacing of ingest (off for desk runs)
    pace_realtime: bool = False

    def model(self, n_sub: int, m_sub: int) -> SubtractionModel:
        return SubtractionModel(r=self.r, R1=self.R1, R2=self.R2,
                                eta1=self.eta1, eta2=self.eta2,
                                n_sub=n_sub, m_sub=m_sub)

    def pso_config(self, delays) -> PsoRunConfig:
        """The orchestrator settings of this run at the given query delays."""
        offset, width, period = self.seed_window
        return PsoRunConfig(
            delay_a=delays[0], delay_b=delays[1], hold_bins=self.hold_bins,
            seed_window_offset=offset, seed_window_width=width,
            seed_window_period=period,
            zero_detection_rate=self.zero_detection_rate)

    def validate(self) -> "ExperimentConfig":
        if min(self.class_targets.values(), default=1) < 1:
            raise ValueError("dataset size targets must be >= 1")
        if self.herald_rate_hz < 0 or self.dark_herald_fraction < 0:
            raise ValueError("rates must be non-negative")
        if not (0 <= self.server_offset_a <= 2 and 0 <= self.server_offset_b <= 2):
            raise ValueError("server offsets must be 0..2 bins")
        if abs(self.true_delay_a) > 64 or abs(self.true_delay_b) > 64:
            raise ValueError("true delays must stay within +/-64 bins")
        self.pso_config((0, 0))     # the orchestrator's checks, before a run
        return self

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs).validate()


def save_config(config: ExperimentConfig, path):
    d = asdict(config)
    d["class_targets"] = {f"{k[0]},{k[1]}": v
                          for k, v in config.class_targets.items()}
    d["seed_window"] = list(config.seed_window)
    with open(path, "w") as fh:
        json.dump(d, fh, indent=2, sort_keys=True)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        d = json.load(fh)
    if "class_targets" in d:
        d["class_targets"] = {tuple(int(x) for x in k.split(",")): v
                              for k, v in d["class_targets"].items()}
    if "seed_window" in d:
        d["seed_window"] = tuple(d["seed_window"])
    return ExperimentConfig(**d).validate()
