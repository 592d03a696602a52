"""End-to-end benchmark of the biatrium pipeline.

Usage (from the repository root):

    python3 bench/run.py --workload paper_builtin --seed 1 --seconds 12 --trace 0

Workloads: paper_builtin, paper_external, batch_small (see workloads.py for
why each exists).  The benchmark imports biatrium from this tree's ``src/``,
writes phantom inputs made from ``--seed`` under ``.benchwork/`` (set-up,
timed as ``setup_s``), then starts ``worker.py`` in a fresh interpreter that
runs ``run_pipeline`` in a closed loop for ``--seconds`` (at least two
repeats), checks every output, and reports back.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs a separate traced loop and prints the
per-layer metrics.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give every
metric by name and unit, the machine and input facts, and the output
hashes.  Spans and a detail record are kept in ``.benchwork/results/``.
``--tiny`` shrinks every grid to 64x64x16 for the smoke test.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"

SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 160


def _units(trace: int) -> dict[str, str]:
    """Name -> unit of every metric this mode reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _l3_bytes() -> int | None:
    try:
        n = os.sysconf(194)  # glibc's _SC_LEVEL3_CACHE_SIZE
    except (ValueError, OSError):
        return None
    return n if n > 0 else None


def _facts(w, setup: dict) -> dict:
    import numpy
    import scipy
    shape = next(iter(setup["cases"].values()))["shape"]
    voxels = shape[0] * shape[1] * shape[2]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l3_bytes": _l3_bytes(),
        "cases": len(w.cases),
        "workers": w.workers,
        "input_shape": shape,
        # computed from the array sizes, not measured traffic
        "input_float32_bytes_per_case": voxels * 4,
        "mclahe_float64_bytes_per_case": voxels * 8,
        "input_file_bytes": sum(os.path.getsize(c.image) for c in w.cases),
        "gt_file_bytes": sum(os.path.getsize(c.gt) for c in w.cases if c.gt),
    }


def _run_worker(job: dict, run_dir: Path, scratch: Path) -> dict:
    job_path = run_dir / "job.json"
    result_path = run_dir / "worker_result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["BIATRIUM_TMPDIR"] = str(scratch)
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"),
                             str(job_path), str(result_path)],
                            env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"worker did not finish in {WORKER_TIMEOUT_S} s")
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    try:
        units = _units(args.trace)
    except (OSError, ValueError, KeyError) as e:
        print(f"bench: cannot read the metric list from BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    if not (SRC / "biatrium" / "__init__.py").is_file():
        print(f"bench: no biatrium sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import biatrium
    if Path(biatrium.__file__).resolve().parent != SRC / "biatrium":
        print(f"bench: imported biatrium from {biatrium.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import NAMES, make_workload, write_inputs
    from check import sha256
    if args.workload not in NAMES:
        print(f"bench: unknown workload {args.workload!r}; choose from {NAMES}", file=sys.stderr)
        return 2

    run_dir = WORK / f"run-{os.getpid()}"
    results = WORK / "results"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        inputs, scratch = run_dir / "inputs", run_dir / "scratch"
        for d in (inputs, scratch, results):
            d.mkdir(parents=True, exist_ok=True)
        w = make_workload(args.workload, args.seed, inputs, run_dir / "out", tiny=args.tiny)
        setups = [write_inputs(w) for _ in range(SETUP_REPEATS)]
        setup = setups[-1]
        cases = setup["cases"]
        if w.exact:
            for c in w.cases:
                cases[c.case_id]["gt_sha256"] = sha256(c.gt)
        facts = _facts(w, setup)
        job = {
            "config": w.config, "workers": w.workers, "exact": w.exact, "cases": cases,
            "seconds": args.seconds, "trace": args.trace,
            "isolated_shape": cases[w.cases[0].case_id]["shape"] if args.tiny
            else [576, 576, 48],
            "spans_path": str(results / f"{tag}.spans.jsonl"),
        }
        res = _run_worker(job, run_dir, scratch)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
    except (OSError, RuntimeError, ValueError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    repeats = res["repeats"]
    attempted = sum(r["cases"] for r in repeats)
    failed = sum(len(r["failures"]) for r in repeats)
    plain = [r for r in repeats if not r["traced"]]
    case_s = statistics.median(r["wall_s"] / r["cases"] for r in plain)
    generate_ms = statistics.median(g * 1000.0 for s in setups for g in s["generate_s"])
    if args.trace:
        traced_case_s = statistics.median(r["wall_s"] / r["cases"] for r in repeats if r["traced"])
        metrics = dict(res["layers"])
        metrics["phantom.generate_ms"] = generate_ms
        metrics["trace.overhead_ms"] = (traced_case_s - case_s) * 1000.0
    else:
        mask_bytes = [b for r in repeats for b in r["mask_bytes"]]
        metrics = {
            "case_s": case_s,
            "case_cpu_s": statistics.median(r["cpu_s"] / r["cases"] for r in plain),
            "peak_rss_mb": peak_rss_mb,
            "mask_kb": statistics.mean(mask_bytes) / 1000.0 if mask_bytes else 0.0,
            # failed_frac is 0 on a healthy tree, so it cannot carry a bound
            # relative to its median; the bound sits on its complement
            "ok_frac": 1.0 - failed / attempted,
            "setup_s": statistics.median(s["setup_s"] for s in setups),
        }
    if set(metrics) != set(units):
        print(f"bench: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(repeats)} repeats x {repeats[0]['cases']} cases, {w.workers} worker(s)")
    print("# facts " + json.dumps(facts))
    print("# hashes " + json.dumps(repeats[0]["hashes"]))
    for r in repeats:
        for cid, why in r["failures"].items():
            print(f"# FAILED {cid}: {'; '.join(why)}")
    print(f"metric failed_frac = {failed / attempted!r} ratio")
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]!r} {unit}")

    (results / f"{tag}.json").write_text(json.dumps(
        {"facts": facts, "metrics": metrics, "repeats": repeats,
         "setups": setups}, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
