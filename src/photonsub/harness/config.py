"""Experiment configuration: physics, acquisition geometry, seeds.

The flat key-value JSON schema (one key per field, arrays for pairs) is
documented in the README; `load_config` / `save_config` round-trip it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from numbers import Integral, Real

from ..fock_core import MAX_CUTOFF, SubtractionModel
from ..hds import DEFAULT_PAGES, PAGE_WORDS
from ..hds.buffer import SAMPLE_RATE_HZ
from ..pso import PsoRunConfig, class_key, parse_class_key
from .calibration import MAX_LAG
from .generator import PIPELINE_COARSE_OFFSET, SIDE_CLASS_CAP

DEFAULT_CLASS_TARGETS = {(1, 1): 10_000, (0, 0): 10_000}
MAX_CONFIG_BYTES = 1 << 16      # a full config is under 1 kB


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
    zero_detection_rate: int = 2 ** 17   # per overflow period
    hold_bins: int = 3
    seed_window: tuple = (0, 0, 1000)    # offset, width, period; width 0 off
    shutter_bins: int = 2_000_000        # shot-noise window at run start
    shot_noise_samples: int = 20_000
    adc_scale: float = 800.0             # ADC codes per quadrature unit
    class_targets: dict = field(default_factory=lambda: dict(DEFAULT_CLASS_TARGETS))

    # tomography
    max_iterations: int = 2000
    epsilon: float = 1e-6

    # determinism
    seed: int = 2026

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

    def effective_delays(self):
        """Ground-truth effective delays the calibration should recover:
        true delay plus server start skew minus the trigger-pipeline
        offset."""
        return (
            self.true_delay_a + self.server_offset_a - PIPELINE_COARSE_OFFSET,
            self.true_delay_b + self.server_offset_b - PIPELINE_COARSE_OFFSET)

    def validate(self) -> "ExperimentConfig":
        for f in fields(self):
            _check_type(f.name, getattr(self, f.name), f.type)
        delays = self.effective_delays()
        for ok, problem in (
                (0 < self.model(0, 0).effective_squeezing < 1,
                 "r, R1, R2: effective squeezing outside (0, 1)"),
                (1 <= self.n_c <= MAX_CUTOFF, f"n_c outside [1, {MAX_CUTOFF}]"),
                (2 <= self.pages <= DEFAULT_PAGES and self.pages % 2 == 0,
                 f"pages odd or outside [2, {DEFAULT_PAGES}]"),
                (0 <= self.herald_rate_hz <= SAMPLE_RATE_HZ,
                 "herald_rate_hz outside [0, the sample rate]"),
                (1 <= self.shot_noise_samples <= self.shutter_bins
                 <= self.pages * PAGE_WORDS // 2,
                 "shot_noise_samples, shutter_bins: not 1 <= samples <= "
                 "shutter <= one buffer half"),
                (self.adc_scale > 0, "adc_scale not positive"),
                (self.epsilon > 0, "epsilon not positive"),
                (self.max_iterations >= 1, "max_iterations below 1"),
                (min(self.class_targets.values(), default=1) >= 1,
                 "class_targets: a dataset size target below 1"),
                (all(0 <= n <= SIDE_CLASS_CAP for k in self.class_targets
                     for n in k),
                 f"class_targets: a class (n, m) outside [0, {SIDE_CLASS_CAP}]"),
                (0 <= self.server_offset_a <= 2, "server_offset_a outside 0..2"),
                (0 <= self.server_offset_b <= 2, "server_offset_b outside 0..2"),
                (abs(delays[0]) <= MAX_LAG, f"true_delay_a: effective delay "
                 f"{delays[0]} outside the +/-{MAX_LAG}-bin calibration scan"),
                (abs(delays[1]) <= MAX_LAG, f"true_delay_b: effective delay "
                 f"{delays[1]} outside the +/-{MAX_LAG}-bin calibration scan"),
                (0 <= self.seed < 1 << 48, "seed outside [0, 2^48)")):
            if not ok:
                raise ValueError(problem)
        self.pso_config((0, 0))     # the orchestrator's checks, before a run
        return self

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs).validate()


def _is_int(v) -> bool:
    return isinstance(v, Integral) and not isinstance(v, bool)


def _check_type(key, value, kind):
    """ValueError naming the key unless value has its field's type."""
    if kind == "int":
        ok = _is_int(value)
    elif kind == "float":
        # exact comparison: refuses nan, inf and ints no float can hold
        ok = (isinstance(value, Real) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max)
    elif kind == "tuple":
        ok = (isinstance(value, tuple) and len(value) == 3
              and all(map(_is_int, value)))
    else:
        ok = isinstance(value, dict) and all(
            isinstance(k, tuple) and len(k) == 2 and all(map(_is_int, k))
            and _is_int(v) for k, v in value.items())
    if not ok:
        want = {"int": "an integer", "float": "a finite number",
                "tuple": "three integers",
                "dict": 'a map of "n,m" classes to integers'}[kind]
        raise ValueError(f"{key} must be {want}, got {type(value).__name__}")


def save_config(config: ExperimentConfig, path):
    d = asdict(config)
    d["class_targets"] = {class_key(k): v
                          for k, v in config.class_targets.items()}
    d["seed_window"] = list(config.seed_window)
    with open(path, "w") as fh:
        json.dump(d, fh, indent=2, sort_keys=True)


def read_json(path):
    """The JSON value of a settings file (a config or a run_meta.txt);
    ValueError for a file of over MAX_CONFIG_BYTES or invalid JSON."""
    with open(path, "rb") as fh:
        raw = fh.read(MAX_CONFIG_BYTES + 1)
    if len(raw) > MAX_CONFIG_BYTES:
        raise ValueError(f"a settings file holds at most {MAX_CONFIG_BYTES} "
                         f"bytes")
    try:
        return json.loads(raw)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def load_config(path) -> ExperimentConfig:
    """Read a JSON config file; ValueError naming the key on any bad entry."""
    d = read_json(path)
    if not isinstance(d, dict):
        raise ValueError("a config file holds one JSON object")
    unknown = sorted(d.keys() - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise ValueError(f"unknown config key {unknown[0][:40]!r}")
    if isinstance(d.get("class_targets"), dict):
        try:
            d["class_targets"] = {parse_class_key(k): v
                                  for k, v in d["class_targets"].items()}
        except ValueError as exc:
            raise ValueError(f"class_targets key {exc}") from None
    if isinstance(d.get("seed_window"), list):
        d["seed_window"] = tuple(d["seed_window"])
    return ExperimentConfig(**d).validate()
