"""Span recorder for the traced run, and the per-layer metrics derived
from its spans.

The recorder wraps public entry points of the program from outside: it
replaces each name in the namespace its caller looks it up in (a class
attribute for methods, the calling module's global for functions) and
puts the original back on exit.  Spans are kept in memory, one list per
run, with a per-thread stack for parents, so spans recorded in socket
server threads stay correct.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    thread: int = 0
    attrs: dict = field(default_factory=dict)
    child_time: float = 0.0
    overhead: float = 0.0           # recorder time outside the wrapped call

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Context manager that records spans around the wrapped entry points.

    targets: (owner, attribute, span name, attrs function or None); the
    attrs function gets (result, args, kwargs) and returns a dict of
    counts stored on the span.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list = []
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, fn, name, attrs_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            stack = self._stack()
            span = Span(name, 0.0, parent=stack[-1] if stack else None,
                        thread=threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.duration
                self.spans.append(span)
            if attrs_fn is not None:
                span.attrs = attrs_fn(result, args, kwargs)
            span.overhead = (span.start - entered
                             + time.perf_counter() - span.end)
            return result
        return traced

    def __enter__(self):
        for owner, attr, name, attrs_fn in self.targets:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, attrs_fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        return False

    def dump(self, path):
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": ids.get(id(s.parent)), "thread": s.thread,
                    "attrs": s.attrs}) + "\n")


def program_targets():
    """Every entry point the traced run wraps, where its callers find it."""
    from photonsub import ng_metrics
    from photonsub.harness import experiment, generator
    from photonsub.hds import HdsClient, HomodyneServer
    from photonsub.homodyne_model import PhaseDrive, QuadratureSampler
    from photonsub.hds.words import PLACEHOLDER_WORD
    from photonsub.pso import DatasetWriter, PsoEngine

    def ingest_attrs(_res, args, kwargs):
        return {"words": int(np.size(args[1]))}

    def query_attrs(res, _args, _kwargs):
        return {"words": int(res.size),
                "placeholders": int(np.count_nonzero(res == PLACEHOLDER_WORD))}

    def trigger_attrs(res, _args, _kwargs):
        return {"triggered": int(res.size)}

    def add_attrs(_res, args, _kwargs):
        return {"records": int(np.size(args[2]))}

    def reconstruct_attrs(res, args, _kwargs):
        return {"n": int(args[0].size), "d": (args[0].n_c + 1) ** 2,
                "iterations": int(res.iterations)}

    return [
        (experiment, "run_delay_calibration", "harness.calibration", None),
        (generator.StreamGenerator, "plan_heralds", "generator.plan_heralds", None),
        (generator.StreamGenerator, "fill_epoch", "generator.fill_epoch", None),
        (generator.StreamGenerator, "heralded_draws",
         "generator.heralded_draws", None),
        (QuadratureSampler, "sample_batch", "homodyne_model.sample_batch", None),
        (PhaseDrive, "evaluate", "homodyne_model.drive_evaluate", None),
        (HomodyneServer, "ingest_samples", "hds.ingest", ingest_attrs),
        (HdsClient, "query_samples", "hds.query", query_attrs),
        (HdsClient, "threshold_scan", "hds.client_scan", None),
        (HomodyneServer, "handle_request", "hds.handle_request", None),
        (HomodyneServer, "threshold_scan", "hds.threshold_scan", None),
        (PsoEngine, "process_sealed_half", "pso.half", None),
        (PsoEngine, "process_pulses", "pso.trigger", trigger_attrs),
        (DatasetWriter, "add", "pso.records_add", add_attrs),
        (DatasetWriter, "load_class", "pso.load_class", None),
        (experiment, "reconstruct", "tomography.reconstruct", reconstruct_attrs),
        (experiment, "lossy_subtracted_state", "fock_core.expected_states", None),
        (generator, "lossy_subtracted_state", "fock_core.expected_states", None),
        (ng_metrics, "uhlmann_fidelity", "ng_metrics", None),
        (ng_metrics, "log_negativity", "ng_metrics", None),
        (ng_metrics, "witness", "ng_metrics", None),
    ]


# Per-layer metric names, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "calibration.s": "s",
    "generator.fill_self_s": "s",
    "generator.heralded_draws_s": "s",
    "generator.plan_heralds_s": "s",
    "generator.samples": "count",
    "homodyne_model.sample_batch_s": "s",
    "homodyne_model.drive_evaluate_s": "s",
    "hds.ingest_s": "s",
    "hds.ingest_words": "count",
    "hds.query_s": "s",
    "hds.queries": "count",
    "hds.query_words": "count",
    "hds.placeholder_words": "count",
    "hds.threshold_scan_s": "s",
    "hds.handle_request_s": "s",
    "hds.wire_overhead_s": "s",
    "pso.trigger_s": "s",
    "pso.triggered": "count",
    "pso.half_self_s": "s",
    "pso.kept_ratio": "ratio",
    "pso.records_add_s": "s",
    "pso.records_written": "count",
    "pso.records_useful_ratio": "ratio",
    "pso.load_class_s": "s",
    "tomography.s": "s",
    "tomography.iterations_00": "count",
    "tomography.iterations_11": "count",
    "tomography.ms_per_iteration": "ms",
    "tomography.gflop_per_s": "GFLOP/s",
    "fock_core.expected_states_s": "s",
    "ng_metrics.s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def rrhor_flops(n: int, d: int, iterations: int) -> float:
    """Computed, not counted: per iteration the two N x D x D complex
    products (probabilities and R) and the two D x D x D complex products
    of R rho R, 8 real flops per complex multiply-add; the eigenvalue
    solves are left out."""
    return iterations * (16.0 * n * d * d + 16.0 * d ** 3)


def layer_metrics(spans, traced_wall: float, rounds: int, kept: int,
                  candidates: int, iterations=(0, 0)) -> dict:
    """Per-layer metrics per traced round.

    Times are self times (span minus its children) unless the name says
    otherwise: hds.query_s, hds.handle_request_s and hds.threshold_scan_s
    are whole calls, and hds.wire_overhead_s is client round trips minus
    server-side request handling.  trace.coverage is the share of traced
    wall time that the recorded spans' self times cover.  trace.overhead_s
    is the recorder's own time outside the wrapped calls, measured in
    every wrapper: on a 2-core box whose speed drifts by tens of percent
    over seconds, traced minus untraced wall time would mostly measure
    the drift.
    """
    def select(name):
        return [s for s in spans if s.name == name]

    def self_s(name):
        return sum(s.self_time for s in select(name))

    def total_s(name):
        return sum(s.duration for s in select(name))

    def attr(name, key, parent=None):
        return sum(s.attrs.get(key, 0) for s in select(name)
                   if parent is None
                   or (s.parent is not None and s.parent.name == parent))

    recon = select("tomography.reconstruct")
    tomo = self_s("tomography.reconstruct")
    iters = sum(s.attrs["iterations"] for s in recon)
    flops = sum(rrhor_flops(s.attrs["n"], s.attrs["d"], s.attrs["iterations"])
                for s in recon)
    written = attr("pso.records_add", "records")
    useful = sum(s.attrs["n"] for s in recon)
    per_round = {
        "calibration.s": self_s("harness.calibration"),
        "generator.fill_self_s": self_s("generator.fill_epoch"),
        "generator.heralded_draws_s": self_s("generator.heralded_draws"),
        "generator.plan_heralds_s": self_s("generator.plan_heralds"),
        "generator.samples": attr("hds.ingest", "words",
                                  parent="generator.fill_epoch"),
        "homodyne_model.sample_batch_s": self_s("homodyne_model.sample_batch"),
        "homodyne_model.drive_evaluate_s":
            self_s("homodyne_model.drive_evaluate"),
        "hds.ingest_s": self_s("hds.ingest"),
        "hds.ingest_words": attr("hds.ingest", "words"),
        "hds.query_s": total_s("hds.query"),
        "hds.queries": len(select("hds.query")),
        "hds.query_words": attr("hds.query", "words"),
        "hds.placeholder_words": attr("hds.query", "placeholders"),
        "hds.threshold_scan_s": total_s("hds.threshold_scan"),
        "hds.handle_request_s": total_s("hds.handle_request"),
        "hds.wire_overhead_s": (total_s("hds.query") + total_s("hds.client_scan")
                                - total_s("hds.handle_request")),
        "pso.trigger_s": self_s("pso.trigger"),
        "pso.triggered": attr("pso.trigger", "triggered"),
        "pso.half_self_s": self_s("pso.half"),
        "pso.records_add_s": self_s("pso.records_add"),
        "pso.records_written": written,
        "pso.load_class_s": self_s("pso.load_class"),
        "tomography.s": tomo,
        "fock_core.expected_states_s": self_s("fock_core.expected_states"),
        "ng_metrics.s": self_s("ng_metrics"),
        "trace.overhead_s": sum(s.overhead for s in spans),
    }
    out = {k: v / rounds for k, v in per_round.items()}
    out.update({
        "pso.kept_ratio": kept / candidates if candidates else 0.0,
        "pso.records_useful_ratio": useful / written if written else 0.0,
        "tomography.iterations_00": iterations[0],
        "tomography.iterations_11": iterations[1],
        "tomography.ms_per_iteration": 1e3 * tomo / iters if iters else 0.0,
        "tomography.gflop_per_s": flops / tomo / 1e9 if tomo else 0.0,
        "trace.coverage": (sum(s.self_time for s in spans
                               if s.thread == threading.get_ident())
                           / traced_wall),
    })
    return {k: {"value": out[k], "unit": u} for k, u in PER_LAYER.items()}
