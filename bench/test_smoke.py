"""Smoke test of the benchmark itself at a tiny size (64x64x16 grids).

Run from the repository root:  python3 -m pytest bench/test_smoke.py
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
for p in (str(SRC), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import biatrium.pipeline  # noqa: E402
from biatrium.nifti import read_labelmap, write_nifti  # noqa: E402
from biatrium.pipeline import config_from_dict, run_pipeline  # noqa: E402

from check import check_repeat, sha256  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import make_workload, write_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)$")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {m.group(1): m.group(3) for m in map(METRIC_LINE.match, lines) if m}
    expected["failed_frac"] = "ratio"
    assert {k: printed.get(k) for k in expected} == expected


def _set_up(tmp_path, monkeypatch, workload):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    w = make_workload(workload, 11, inputs, tmp_path / "out", tiny=True)
    cases = write_inputs(w)["cases"]
    for c in w.cases:
        if c.gt:
            cases[c.case_id]["gt_sha256"] = sha256(c.gt)
    monkeypatch.setenv("PYTHONPATH", str(SRC))
    monkeypatch.setenv("BIATRIUM_TMPDIR", str(tmp_path))
    return w, config_from_dict(w.config), cases


@pytest.mark.parametrize("corruption", ["relabel", "truncate"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_mask_fails_the_check(tmp_path, monkeypatch, workload, corruption):
    w, cfg, cases = _set_up(tmp_path, monkeypatch, workload)
    result = run_pipeline(cfg, workers=w.workers)
    failures, reference = check_repeat(result, cfg, cases, w.exact, None)
    assert not any(failures.values()), failures
    again, _ = check_repeat(result, cfg, cases, w.exact, reference)
    assert not any(again.values()), again

    victim = result.cases[0].case_id
    mask = Path(cfg.output_dir) / victim / "mask.nii.gz"
    if corruption == "relabel":
        lm = read_labelmap(mask, classes=cfg.class_map)
        data = lm.data.copy()
        data[0, 0, 0] = 1 if data[0, 0, 0] == 0 else 0
        write_nifti(mask, data, lm.spacing)
    else:
        mask.write_bytes(mask.read_bytes()[:100])
    failures, _ = check_repeat(result, cfg, cases, w.exact, reference)
    assert failures[victim]
    assert not any(v for k, v in failures.items() if k != victim)


def test_tracer_keeps_every_span_under_thread_contention(tmp_path, monkeypatch):
    w, cfg, _ = _set_up(tmp_path, monkeypatch, "batch_small")
    original = biatrium.pipeline.run_case
    tracer = Tracer()
    tracer.trace_id = "r0:"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer:
            result = run_pipeline(cfg, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert biatrium.pipeline.run_case is original
    assert all(c.ok for c in result.cases)
    # every case takes the same path, so a lost update shows as a mismatch
    spans_per_case = Counter(s.case for s in tracer.spans)
    assert len(spans_per_case) == len(w.cases)
    assert len(set(spans_per_case.values())) == 1
    assert set(tracer.labelmaps) == set(spans_per_case)
    assert len(set(tracer.labelmaps.values())) == 1
