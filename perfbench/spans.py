"""In-memory span tracing of turnplan's public functions, for the traced run.

Each traced function is replaced, for the duration of `Tracer.patched()`, in
every turnplan module namespace that binds it: `turnplan.cli` calls its own
`generate_waypoints` name, `turnplan.metrics` calls `sequencing.plan_waypoints`
through the module, and both lookups must hit the wrapper. Spans are kept in
a list (name, start, end, parent, request, counts) and written out at the end.
A span's self time is its duration minus that of its children; calls are
sequential on one thread, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

MODULES = ("angles", "geometry", "clustering", "sequencing", "metrics", "bench", "cli")


def _waypoint_counts(result) -> dict:
    return {"points": len(result)}


def _cluster_counts(result) -> dict:
    return {"clusters": len(result), "size_max": max(len(c.members) for c in result)}


def _matrix_counts(result) -> dict:
    return {"cells": result.n * result.n, "bytes": result.d.nbytes}


# (module, function, counts taken from the result)
TRACED = (
    ("geometry", "generate_waypoints", _waypoint_counts),
    ("geometry", "load_part_layout", None),
    ("clustering", "cluster_points", _cluster_counts),
    ("clustering", "order_clusters", None),
    ("sequencing", "plan_waypoints", None),
    ("sequencing", "distance_matrix", _matrix_counts),
    ("sequencing", "greedy_sequence", None),
    ("sequencing", "baseline_angle_sequence", None),
    ("sequencing", "save_plan", None),
    ("metrics", "ssp_distance", None),
    ("cli", "main", None),
)

REQUEST = "request"
PEAK_ALLOC_SPAN = "sequencing.plan_waypoints"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    request: int = -1
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans of wrapped calls made while a request is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request = -1
        self._requests = 0
        self.measure_alloc = False
        self.peak_alloc_bytes: list[int] = []

    def begin_request(self) -> None:
        """Open a request's root span; requests are numbered in the order they begin."""
        self._request = self._requests
        self._requests += 1
        self._open(REQUEST)

    def end_request(self) -> None:
        self._close(self._stack[-1], None)
        self._request = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, request=self._request))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int, counts) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if counts:
            span.counts = counts

    def wrap(self, name: str, fn, counter):
        def traced(*args, **kwargs):
            if self._request < 0:
                return fn(*args, **kwargs)
            index = self._open(name)
            result = None
            try:
                if self.measure_alloc and name == PEAK_ALLOC_SPAN:
                    result = self._call_measuring_alloc(fn, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index, counter(result) if counter and result is not None else None)

        return traced

    def _call_measuring_alloc(self, fn, args, kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.peak_alloc_bytes.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    @contextmanager
    def patched(self):
        """Swap every binding of a traced function in turnplan's namespaces."""
        modules = [importlib.import_module("turnplan")]
        modules += [importlib.import_module(f"turnplan.{m}") for m in MODULES]
        wrappers = {}
        for module_name, fn_name, counter in TRACED:
            original = getattr(importlib.import_module(f"turnplan.{module_name}"), fn_name)
            wrappers[id(original)] = (original, self.wrap(f"{module_name}.{fn_name}",
                                                         original, counter))
        saved = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        try:
            yield self
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def layer_metrics(spans: list[Span], pass_len: int, n_requests: int,
                  peak_alloc_bytes: list[int]) -> dict:
    """Per-layer metrics from the traced requests, as {name: (value, unit)}.

    Times are means per request over every traced request. Counts come from
    the first pass (requests 0..pass_len-1), whose inputs are fixed by the
    seed, so they repeat exactly.
    """
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    exclusive: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    size_max = 0
    points = 0
    for span, span_self in zip(spans, own):
        total[span.name] += span.end - span.start
        exclusive[span.name] += span_self
        points += span.counts.get("points", 0)
        if span.request < pass_len:
            counts[f"{span.name}.calls"] += 1
            for key, value in span.counts.items():
                counts[f"{span.name}.{key}"] += value
            size_max = max(size_max, span.counts.get("size_max", 0))

    def ms(name: str, table: dict) -> tuple[float, str]:
        return 1000.0 * table[name] / n_requests, "ms"

    def per_request(key: str, unit: str = "count") -> tuple[float, str]:
        return counts[key] / pass_len, unit

    gen = "geometry.generate_waypoints"
    return {
        f"{gen}.ms": ms(gen, total),
        f"{gen}.us_per_point": (1e6 * total[gen] / points if points else 0.0, "us"),
        f"{gen}.calls_per_request": per_request(f"{gen}.calls"),
        "geometry.load_part_layout.ms": ms("geometry.load_part_layout", total),
        "clustering.cluster_points.ms": ms("clustering.cluster_points", total),
        "clustering.order_clusters.ms": ms("clustering.order_clusters", total),
        "clustering.clusters_per_request": per_request("clustering.cluster_points.clusters"),
        "clustering.cluster_size_max": (size_max, "count"),
        "sequencing.plan_waypoints.self_ms": ms("sequencing.plan_waypoints", exclusive),
        "sequencing.distance_matrix.ms": ms("sequencing.distance_matrix", total),
        "sequencing.greedy_sequence.ms": ms("sequencing.greedy_sequence", total),
        "sequencing.baseline_angle_sequence.ms": ms("sequencing.baseline_angle_sequence", total),
        "sequencing.distance_matrix.cells": per_request("sequencing.distance_matrix.cells"),
        "sequencing.distance_matrix.bytes_computed":
            per_request("sequencing.distance_matrix.bytes", "B"),
        "sequencing.plan_waypoints.peak_alloc_mb":
            (max(peak_alloc_bytes, default=0) / 2**20, "MB"),
        "sequencing.save_plan.ms": ms("sequencing.save_plan", total),
        "metrics.ssp_distance.ms": ms("metrics.ssp_distance", total),
        "cli.main.self_ms": ms("cli.main", exclusive),
    }
