"""Acceptance suite: ten numbered criteria, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every criterion re-derives its expected values through the
independent oracles in oracles.py rather than trusting the package.
"""
import time

import numpy as np

from backends import COMPONENT_SPLIT_FINE
from biatrium import (
    AsymLossParams,
    ConfusionCounts,
    MclaheParams,
    MetricRow,
    PhantomSpec,
    Volume,
    asym_loss,
    confusion_counts,
    config_from_dict,
    crop_window,
    dice,
    generate,
    grad_check,
    hausdorff,
    hd95,
    mclahe,
    read_report_csv,
    run_pipeline,
    standardize,
    stitch,
    surface_points,
    write_report_csv,
    write_volume,
)
from biatrium.mclahe import _row_tables
from biatrium.nifti import read_nifti, write_nifti
from conftest import random_blobby_labels
from oracles import (
    bce,
    brute_confusion,
    brute_dice,
    brute_hausdorff,
    brute_hd95,
    brute_surface_points,
    clip_redistribute,
    focal,
    global_hist_eq,
    mapping_from_hist,
)


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:2d} {status} {name}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_01_loss_reductions():
    t0 = time.perf_counter()
    ps = np.linspace(1e-6, 1.0 - 1e-6, 100)
    bce_params = AsymLossParams(gamma_pos=0.0, gamma_neg=0.0, margin=0.0)
    focal_params = AsymLossParams(gamma_pos=2.0, gamma_neg=2.0, margin=0.0)
    worst = 0.0
    for y in (0, 1):
        for p in ps:
            p = float(p)
            worst = max(worst, abs(asym_loss(y, p, bce_params) - bce(y, p)))
            worst = max(worst, abs(asym_loss(y, p, focal_params) - focal(y, p, 2.0)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    _line(1, "loss matches BCE and focal on 200-point grid", ok,
          f"worst abs diff {worst:.2e}, {elapsed:.3f} s")


def test_criterion_02_gradient_check():
    t0 = time.perf_counter()
    ok_grad, worst = grad_check(n=1000, seed=0, h=1e-6, tol=1e-5)
    elapsed = time.perf_counter() - t0
    ok = ok_grad and worst < 1e-5 and elapsed < 1.0
    _line(2, "analytic gradient vs central differences, 1000 samples", ok,
          f"worst rel err {worst:.2e}, {elapsed:.3f} s")


def test_criterion_03_metric_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    failures = []
    for i in range(100):
        shape = tuple(int(rng.integers(4, 25)) for _ in range(3))
        spacing = tuple(float(rng.uniform(0.4, 3.0)) for _ in range(3))
        pred = random_blobby_labels(rng, shape, spacing=spacing)
        gt = random_blobby_labels(rng, shape, spacing=spacing)
        for code in (1, 2, 3):
            c = confusion_counts(pred, gt, code)
            if (c.tp, c.fp, c.fn) != brute_confusion(pred.data, gt.data, code):
                failures.append(f"counts vol {i} class {code}")
            if dice(c) != brute_dice(c.tp, c.fp, c.fn):
                failures.append(f"dice vol {i} class {code}")
            a = surface_points(pred, code)
            b = surface_points(gt, code)
            oa = brute_surface_points(pred.data, spacing, code)
            ob = brute_surface_points(gt.data, spacing, code)
            for label, got, ref in (
                ("hd95", hd95(a, b), brute_hd95(oa, ob)),
                ("hd", hausdorff(a, b), brute_hausdorff(oa, ob)),
            ):
                if not (got == ref or abs(got - ref) <= 1e-9):
                    failures.append(f"{label} vol {i} class {code}: {got} vs {ref}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"too slow: {elapsed:.1f} s")
    _line(3, "Dice/HD95/HD equal brute-force oracle on 100 volumes",
          not failures, "; ".join(failures) or f"{elapsed:.1f} s")


def test_criterion_04_hand_values():
    d = dice(ConfusionCounts(tp=2, fp=1, fn=1))
    h = hd95(np.array([[0.0, 0.0, 0.0]]), np.array([[3.0, 4.0, 0.0]]))
    ok = abs(d - 2.0 / 3.0) < 1e-12 and h == 5.0
    _line(4, "Dice(2,1,1) = 2/3 and singleton HD95 = 5.0 mm", ok,
          f"dice {d!r}, hd95 {h!r}")


def test_criterion_05_mclahe_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    failures = []

    flat = mclahe(Volume(data=np.full((24, 20, 12), 0.37, dtype=np.float32),
                         spacing=(1, 1, 1)))
    if np.unique(flat.data).size != 1:
        failures.append("constant volume not constant")

    data = rng.random((24, 20, 12), dtype=np.float32)
    single = mclahe(Volume(data=data, spacing=(1, 1, 1)),
                    MclaheParams(kernel_size=(24, 20, 12), n_bins=128, clip_limit=1.0))
    ref = global_hist_eq(data, 128)
    gap = float(np.abs(single.data.astype(np.float64) - ref).max())
    if gap > 1.0 / 128.0:
        failures.append(f"single-tile vs global HE gap {gap}")

    for _ in range(10):
        hist = rng.integers(0, 50, size=64)
        if hist.sum() == 0:
            hist[3] = 5
        clipped = clip_redistribute(hist, int(hist.sum()), 0.05)
        table = mapping_from_hist(clipped)
        if np.any(np.diff(table) < 0):
            failures.append("clipped mapping not monotone")
    for _ in range(5):
        shape = tuple(int(rng.integers(6, 30)) for _ in range(3))
        bins = np.minimum((rng.random(shape) * 32).astype(np.int32), 31)
        nt = tuple(-(-s // 3) for s in shape)
        tables = np.stack([_row_tables(bins, tx, (3, 3, 3), nt, 32, 0.01)
                           for tx in range(nt[0])])
        if np.any(np.diff(tables, axis=-1) < 0):
            failures.append("tile mapping not monotone")

    for _ in range(50):
        shape = tuple(int(rng.integers(4, 28)) for _ in range(3))
        out = mclahe(Volume(data=rng.random(shape, dtype=np.float32),
                            spacing=(1, 1, 1)))
        if out.shape != shape or out.data.min() < 0.0 or out.data.max() > 1.0:
            failures.append(f"range/shape violated on {shape}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"too slow: {elapsed:.1f} s")
    _line(5, "MCLAHE constant/global-HE/monotone/range properties",
          not failures, "; ".join(failures) or f"{elapsed:.1f} s")


def test_criterion_06_geometry_round_trip():
    rng = np.random.default_rng(13)
    failures = []
    for i in range(50):
        shape = tuple(int(rng.integers(4, 28)) for _ in range(3))
        target = tuple(int(rng.integers(3, 32)) for _ in range(3))
        window = tuple(int(rng.integers(2, 20)) for _ in range(3))
        center = tuple(int(rng.integers(0, t)) for t in target)
        v = Volume(data=np.arange(np.prod(shape), dtype=np.float32).reshape(shape),
                   spacing=(1, 1, 1))
        std, p1 = standardize(v, target, pad_value=-1.0)
        win, p2 = crop_window(std, center, window, pad_value=-1.0)
        back = stitch(stitch(win.data, p2, fill_value=-1.0), p1, fill_value=-1.0)
        surviving = back != -1.0
        if not np.array_equal(back[surviving], v.data[surviving]):
            failures.append(f"round trip {i} moved a voxel")
            break

    big = Volume(data=np.zeros((640, 640, 44), dtype=np.float32), spacing=(1, 1, 1))
    _, place = standardize(big, (576, 576, 48))
    if place.offset != (32, 32, -2):
        failures.append(f"offset {place.offset} != (32, 32, -2)")
    _line(6, "50 standardize/crop/stitch round trips + center-rule offset",
          not failures, "; ".join(failures))


def test_criterion_07_phantom_end_to_end(tmp_path):
    t0 = time.perf_counter()
    failures = []
    spec = PhantomSpec()
    vol, gt = generate(spec)
    image_path = tmp_path / "image.nii.gz"
    gt_path = tmp_path / "gt.nii.gz"
    write_volume(vol, image_path)
    write_volume(gt, gt_path)
    factors = (4, 4, 1)
    window = (128, 128, 48)
    margin = 8

    # oracle backend files: coarse = block-wise any-foreground, fine = the
    # ground truth cropped to the window the pipeline will choose
    fg = gt.data != 0
    coarse = fg.reshape(48, 4, 48, 4, 48, 1).any(axis=(1, 3, 5)).astype(np.uint8)
    coarse_path = tmp_path / "coarse_oracle.nii.gz"
    write_nifti(coarse_path, coarse, tuple(s * f for s, f in zip(spec.spacing, factors)))

    nz = np.nonzero(coarse)
    lo = [int(a.min()) * f for a, f in zip(nz, factors)]
    hi = [(int(a.max()) + 1) * f for a, f in zip(nz, factors)]
    lo = [max(0, v - margin) for v in lo]
    hi = [min(b, v + margin) for v, b in zip(hi, spec.shape)]
    center = tuple((a + b + 1) // 2 for a, b in zip(lo, hi))
    gt_f32 = Volume(data=gt.data.astype(np.float32), spacing=spec.spacing)
    gt_win, _ = crop_window(gt_f32, center, window)
    fine_path = tmp_path / "fine_oracle.nii.gz"
    write_nifti(fine_path, gt_win.data.astype(np.uint8), spec.spacing)

    base = {
        "cases": [{"case_id": "oracle", "image": str(image_path), "gt": str(gt_path)}],
        "output_dir": str(tmp_path / "out_copy"),
        "standard_shape": list(spec.shape),
        "coarse_factors": list(factors),
        "fine_window": list(window),
        "bbox_margin_vox": margin,
        "mclahe": None,
        "coarse_backend": {"kind": "copy-file", "source_path": str(coarse_path)},
        "fine_backend": {"kind": "copy-file", "source_path": str(fine_path)},
    }
    result = run_pipeline(config_from_dict(base))
    case = result.cases[0]
    if case.status != "ok":
        failures.append(f"copy-file run failed: {case.error}")
    for row in case.metrics:
        if row.dice != 1.0 or row.hd95_mm != 0.0:
            failures.append(f"copy-file {row.class_name}: dice {row.dice}, "
                            f"hd95 {row.hd95_mm}")

    # threshold coarse stage plus an external command that reconstructs the
    # classes from the noise-free intensity levels
    script = tmp_path / "fine_seg.py"
    script.write_text(COMPONENT_SPLIT_FINE)
    thr = dict(base)
    thr["cases"] = [{"case_id": "thr", "image": str(image_path), "gt": str(gt_path)}]
    thr["output_dir"] = str(tmp_path / "out_thr")
    thr["coarse_backend"] = {"kind": "threshold", "threshold": 0.5}
    thr["fine_backend"] = {"kind": "external-command",
                           "command_template": f"python3 {script} {{input}} {{output}}"}
    result = run_pipeline(config_from_dict(thr))
    case = result.cases[0]
    if case.status != "ok":
        failures.append(f"threshold run failed: {case.error}")
    else:
        fg_idx = np.argwhere(fg)
        lo_roi, hi_roi = case.roi_box.lo, case.roi_box.hi
        covered = all(lo_roi[ax] <= fg_idx[:, ax].min()
                      and fg_idx[:, ax].max() < hi_roi[ax] for ax in range(3))
        if not covered:
            failures.append(f"roi box {lo_roi}..{hi_roi} misses foreground")
        for row in case.metrics:
            if not row.dice > 0.9:
                failures.append(f"threshold {row.class_name}: dice {row.dice}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"too slow: {elapsed:.1f} s")
    dices = ", ".join(f"{r.class_name} {r.dice:.3f}" for r in case.metrics)
    _line(7, "phantom end-to-end: oracle backends exact, threshold > 0.9",
          not failures, "; ".join(failures) or f"{dices}; {elapsed:.1f} s")


def test_criterion_08_nifti_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    failures = []
    for i in range(20):
        shape = tuple(int(rng.integers(2, 18)) for _ in range(3))
        spacing = tuple(float(rng.uniform(0.2, 4.0)) for _ in range(3))
        arrays = {
            "uint8": rng.integers(0, 256, size=shape).astype(np.uint8),
            "int16": rng.integers(-32768, 32768, size=shape).astype(np.int16),
            "float32": ((rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7))
                        .astype(np.float32)),
        }
        for dname, arr in arrays.items():
            for suffix in (".nii", ".nii.gz"):
                path = tmp_path / f"v{i}_{dname}{suffix}"
                write_nifti(path, arr, spacing)
                back, sp_back, _ = read_nifti(path)
                if back.dtype != arr.dtype or back.tobytes() != arr.tobytes():
                    failures.append(f"{dname}{suffix} payload differs (vol {i})")
                if any(s != float(np.float32(v)) for s, v in zip(sp_back, spacing)):
                    failures.append(f"{dname}{suffix} spacing differs (vol {i})")
    _line(8, "NIfTI round trip bit-exact, 3 dtypes, plain and gzip",
          not failures, "; ".join(failures) or "120 files")


def test_criterion_09_performance(tmp_path):
    rng = np.random.default_rng(3)
    big = Volume(data=rng.random((576, 576, 48), dtype=np.float32),
                 spacing=(0.625, 0.625, 2.5))
    t0 = time.perf_counter()
    mclahe(big)
    t_mclahe = time.perf_counter() - t0

    spec = PhantomSpec()
    vol, _ = generate(spec)
    image_path = tmp_path / "image.nii.gz"
    write_volume(vol, image_path)
    doc = {
        "cases": [{"case_id": "perf", "image": str(image_path)}],
        "output_dir": str(tmp_path / "out"),
        "coarse_backend": {"kind": "threshold", "threshold": 0.5},
        "fine_backend": {"kind": "threshold", "threshold": 0.5},
    }
    result = run_pipeline(config_from_dict(doc))
    case = result.cases[0]
    ok_run = case.status == "ok"
    t_pipeline = sum(ms for stage, ms in case.timings_ms.items()
                     if not stage.endswith("_backend")) / 1000.0
    ok = t_mclahe < 30.0 and ok_run and t_pipeline < 60.0
    _line(9, "MCLAHE 576x576x48 < 30 s; pipeline stages < 60 s/case", ok,
          f"mclahe {t_mclahe:.2f} s, pipeline {t_pipeline:.2f} s")


def test_criterion_10_report_fidelity(tmp_path):
    fixture = {"wall": (55.91, 5.10), "right_atrium": (86.12, 6.77),
               "left_atrium": (88.15, 5.81)}
    rows = [MetricRow("fixture", name, pct / 100.0, hd)
            for name, (pct, hd) in fixture.items()]
    path = tmp_path / "table_row.csv"
    write_report_csv(rows, path, percent=True)
    text = path.read_text()
    failures = []
    for name, (pct, hd) in fixture.items():
        if f"{pct!r}" not in text or f"{hd!r}" not in text:
            failures.append(f"{name} not written as shortest repr")
    back = read_report_csv(path)
    for row, (name, (pct, hd)) in zip(back, fixture.items()):
        if row.dice != pct or row.hd95_mm != hd:
            failures.append(f"{name} parsed back as {row.dice}/{row.hd95_mm}")
    _line(10, "percent CSV holds the reference fixture row losslessly",
          not failures, "; ".join(failures) or text.splitlines()[1])
