"""Measured process of the benchmark: runs ``run_pipeline`` in a loop.

Usage: python worker.py JOB.json RESULT.json

``run.py`` writes the job (config, expected outputs, run length) and starts
this script in a fresh interpreter, so the process's peak RSS belongs to the
workload alone.  The loop is closed: the next repeat starts when the last
one has been checked and its outputs removed.  With tracing on, traced and
untraced repeats alternate, and the isolated layer calls run at the end.
"""
from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from biatrium.core import LabelMap, Volume
from biatrium.mclahe import mclahe
from biatrium.pipeline import config_from_dict, run_pipeline

from check import check_repeat
from spans import Tracer, per_case_metrics

MIN_REPEATS = 2
LABELMAP_REPEATS = 5


def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped children (the external
    backend's interpreters)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def isolated_layers(shape) -> dict[str, float]:
    """Layer calls on fixed inputs: MCLAHE on the seeded random volume of
    acceptance criterion 9, and one LabelMap construction.  tracemalloc runs
    only here, around a second MCLAHE call, never in a timed repeat."""
    rng = np.random.default_rng(3)
    vol = Volume(data=rng.random(shape, dtype=np.float32), spacing=(0.625, 0.625, 2.5))
    t0 = time.perf_counter()
    mclahe(vol)
    mclahe_ms = (time.perf_counter() - t0) * 1000.0
    tracemalloc.start()
    try:
        mclahe(vol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    labels = rng.integers(0, 4, size=shape, dtype=np.uint8)
    lm_ms = []
    for _ in range(LABELMAP_REPEATS):
        t0 = time.perf_counter()
        LabelMap(data=labels, spacing=vol.spacing)
        lm_ms.append((time.perf_counter() - t0) * 1000.0)
    return {
        "mclahe.isolated_ms": mclahe_ms,
        "mclahe.peak_mb": peak / 1e6,
        "mclahe.peak_ratio": peak / vol.data.nbytes,
        "core.labelmap_ms": statistics.median(lm_ms),
    }


def main(job_path: str, result_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    cfg = config_from_dict(job["config"])
    tracer = Tracer() if job["trace"] else None
    starts: dict[str, float] = {}
    repeats = []
    reference = None
    deadline = time.perf_counter() + job["seconds"]
    while len(repeats) < MIN_REPEATS or time.perf_counter() < deadline:
        traced = tracer is not None and len(repeats) % 2 == 0
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        if traced:
            tracer.trace_id = f"r{len(repeats)}:"
            starts[tracer.trace_id] = t0
            with tracer:
                result = run_pipeline(cfg, workers=job["workers"])
        else:
            result = run_pipeline(cfg, workers=job["workers"])
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0

        failures, hashes = check_repeat(result, cfg, job["cases"], job["exact"], reference)
        reference = reference or hashes
        out_dir = Path(cfg.output_dir)
        mask_bytes = [(out_dir / cid / "mask.nii.gz").stat().st_size
                      for cid, f in failures.items() if not f]
        shutil.rmtree(out_dir)
        repeats.append({
            "traced": traced, "wall_s": wall, "cpu_s": cpu, "cases": len(result.cases),
            "failures": {k: v for k, v in failures.items() if v},
            "hashes": hashes, "mask_bytes": mask_bytes,
        })

    doc = {"repeats": repeats}
    if tracer is not None:
        doc["layers"] = per_case_metrics(tracer, starts)
        doc["layers"].update(isolated_layers(tuple(job["isolated_shape"])))
        tracer.dump(job["spans_path"])
    Path(result_path).write_text(json.dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
