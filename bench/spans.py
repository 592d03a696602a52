"""Span recorder for the traced run, installed from outside the package.

``Tracer`` replaces the public names that ``biatrium.pipeline`` looks up in
its module namespace (and ``surface_points``/``hd95`` in
``biatrium.metrics``) with wrappers that record one span per call, and
counts ``LabelMap`` constructions.  Everything is restored on exit.  Spans
are kept in memory; ``per_case_metrics`` turns them into per-case self
times and counts.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import biatrium.core
import biatrium.metrics
import biatrium.pipeline

#: (module, attribute) -> span name.  The span name's prefix is the layer.
WRAPPED = {
    (biatrium.pipeline, "run_case"): "pipeline.run_case",
    (biatrium.pipeline, "invoke_backend"): "pipeline.invoke_backend",
    (biatrium.pipeline, "read_volume"): "nifti.read_volume",
    (biatrium.pipeline, "read_labelmap"): "nifti.read_labelmap",
    (biatrium.pipeline, "write_volume"): "nifti.write_volume",
    (biatrium.pipeline, "write_placement"): "nifti.write_placement",
    (biatrium.pipeline, "mclahe"): "mclahe.mclahe",
    (biatrium.pipeline, "standardize"): "geometry.standardize",
    (biatrium.pipeline, "downsample_mean"): "geometry.downsample_mean",
    (biatrium.pipeline, "bbox_from_mask"): "geometry.bbox_from_mask",
    (biatrium.pipeline, "crop_window"): "geometry.crop_window",
    (biatrium.pipeline, "stitch"): "geometry.stitch",
    (biatrium.pipeline, "evaluate_case"): "metrics.evaluate_case",
    (biatrium.metrics, "surface_points"): "metrics.surface_points",
    (biatrium.metrics, "hd95"): "metrics.hd95",
}

#: Span name -> per-layer metric holding its self time.
SELF_MS = {
    "nifti.read_volume": "nifti.read_volume_ms",
    "nifti.read_labelmap": "nifti.read_labelmap_ms",
    "nifti.write_volume": "nifti.write_volume_ms",
    "nifti.write_placement": "nifti.write_placement_ms",
    "mclahe.mclahe": "mclahe.ms",
    "geometry.standardize": "geometry.standardize_ms",
    "geometry.downsample_mean": "geometry.downsample_ms",
    "geometry.bbox_from_mask": "geometry.bbox_ms",
    "geometry.crop_window": "geometry.crop_window_ms",
    "geometry.stitch": "geometry.stitch_ms",
    "metrics.evaluate_case": "metrics.evaluate_ms",
    "metrics.surface_points": "metrics.surface_points_ms",
    "metrics.hd95": "metrics.hd95_ms",
    "pipeline.run_case": "pipeline.unaccounted_ms",
}
BACKEND_MS = ("pipeline.coarse_backend_ms", "pipeline.fine_backend_ms")
COUNTS = ("nifti.bytes_read", "nifti.bytes_written", "pipeline.backend_spawns",
          "pipeline.scratch_bytes", "metrics.surface_voxels", "core.labelmap_count")
#: Every per-case metric, in report order.
PER_CASE = (tuple(SELF_MS.values()) + BACKEND_MS + COUNTS
            + ("pipeline.case_wall_ms", "pipeline.case_cpu_ms", "pipeline.case_queue_ms"))


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    case: str | None
    thread: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Context manager: wraps on enter, restores on exit.

    ``trace_id`` prefixes every case id, so repeats of one case stay apart;
    set it before each traced ``run_pipeline`` call.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.labelmaps: dict[str, int] = defaultdict(int)
        self.trace_id = ""
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for (module, attr), name in WRAPPED.items():
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))
        cls = biatrium.core.LabelMap
        post_init = cls.__post_init__
        self._saved.append((cls, "__post_init__", post_init))
        tracer = self

        def counted(lm):
            stack = tracer._stack()
            if stack:
                with tracer._lock:
                    tracer.labelmaps[stack[-1].case] += 1
            post_init(lm)

        cls.__post_init__ = counted
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            case = (f"{tracer.trace_id}{args[1].case_id}" if name == "pipeline.run_case"
                    else parent.case if parent else None)
            with tracer._lock:
                span_id = next(tracer._ids)
            span = Span(id=span_id, name=name, start=0.0,
                        parent=parent.id if parent else None, case=case,
                        thread=threading.get_ident())
            if name == "pipeline.invoke_backend":
                span.attrs["kind"] = args[0].kind
            stack.append(span)
            cpu0 = time.thread_time()
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if name == "pipeline.run_case":
                    span.attrs["cpu_ms"] = (time.thread_time() - cpu0) * 1000.0
                with tracer._lock:
                    tracer.spans.append(span)
            if name.startswith("nifti."):
                path = args[0] if name.startswith("nifti.read") else args[1]
                span.attrs["bytes"] = os.path.getsize(path)
            elif name == "metrics.surface_points":
                span.attrs["points"] = len(out)
            return out

        return wrapper

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times in ms from the first span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as f:
            for s in sorted(self.spans, key=lambda s: s.start):
                d = asdict(s)
                d["start"] = round((s.start - t0) * 1000.0, 3)
                d["end"] = round((s.end - t0) * 1000.0, 3)
                f.write(json.dumps(d) + "\n")


def self_times_ms(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover.  Children run
    on their parent's thread, one after another, so their durations add."""
    child_ms: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_ms[s.parent] += (s.end - s.start) * 1000.0
    return {s.id: (s.end - s.start) * 1000.0 - child_ms[s.id] for s in spans}


def per_case_metrics(tracer: Tracer, starts: dict[str, float]) -> dict[str, float]:
    """Mean over traced cases of every metric in ``PER_CASE``.

    ``starts`` maps each trace id to the perf_counter value at which its
    ``run_pipeline`` call began, for the queueing time.
    """
    spans = tracer.spans
    selfs = self_times_ms(spans)
    by_id = {s.id: s for s in spans}
    per_case: dict[str, dict[str, float]] = defaultdict(lambda: dict.fromkeys(PER_CASE, 0.0))
    backends: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        if s.case is None:
            continue
        m = per_case[s.case]
        if s.name in SELF_MS:
            m[SELF_MS[s.name]] += selfs[s.id]
        if s.name == "pipeline.run_case":
            m["pipeline.case_wall_ms"] = (s.end - s.start) * 1000.0
            m["pipeline.case_cpu_ms"] = s.attrs["cpu_ms"]
            trace_id = s.case.split(":", 1)[0] + ":"
            m["pipeline.case_queue_ms"] = (s.start - starts[trace_id]) * 1000.0
        elif s.name == "pipeline.invoke_backend":
            backends[s.case].append(s)
            m["pipeline.backend_spawns"] += s.attrs["kind"] == "external-command"
        elif s.name.startswith("nifti."):
            under_backend = (s.parent is not None
                             and by_id[s.parent].name == "pipeline.invoke_backend")
            if under_backend:
                m["pipeline.scratch_bytes"] += s.attrs.get("bytes", 0)
            key = "nifti.bytes_read" if s.name.startswith("nifti.read") else "nifti.bytes_written"
            m[key] += s.attrs.get("bytes", 0)
        elif s.name == "metrics.surface_points":
            m["metrics.surface_voxels"] += s.attrs.get("points", 0)
    for case, calls in backends.items():
        # the chain calls the coarse backend first, then the fine backend
        for metric, s in zip(BACKEND_MS, sorted(calls, key=lambda s: s.start)):
            per_case[case][metric] += selfs[s.id]
    for case, n in tracer.labelmaps.items():
        per_case[case]["core.labelmap_count"] = n
    n_cases = len(per_case)
    return {k: sum(m[k] for m in per_case.values()) / max(n_cases, 1) for k in PER_CASE}
