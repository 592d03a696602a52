"""Output check for one ``run_pipeline`` repeat.

A case passes when it ends ``ok``, its ``result.json`` ROI box covers the
phantom foreground (mapped onto the standard grid), its ``mask.nii.gz``
reads back as a label map of the input's shape, and its mask hash matches
the first repeat of the run.  On the exact workload every class must also
score Dice 1.0 and HD95 0.0 and the mask must equal the ground-truth file
byte for byte.  A ``summary.csv`` that differs from the first repeat fails
every case of the repeat.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from biatrium.core import NiftiFormatError
from biatrium.nifti import read_labelmap


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def standard_offset(shape, standard_shape) -> list[int]:
    """Where input voxel 0 lands on the standard grid per axis: the
    low-side pad (positive) or minus the low-side crop of a centred
    pad/crop."""
    return [(t - s) // 2 if t >= s else -((s - t) // 2) for s, t in zip(shape, standard_shape)]


def _case_failures(case, out_dir: Path, expect: dict, standard_shape, exact: bool,
                   classes: dict) -> tuple[list[str], str | None]:
    if case.status != "ok":
        return [f"status {case.status}: {case.error}"], None
    failures = []
    case_dir = out_dir / case.case_id
    doc = json.loads((case_dir / "result.json").read_text(encoding="utf-8"))
    roi = doc.get("roi_box")
    off = standard_offset(expect["shape"], standard_shape)
    if roi is None:
        failures.append("no ROI box in result.json")
    elif not all(roi["lo"][a] <= expect["fg_lo"][a] + off[a]
                 and expect["fg_hi"][a] + off[a] <= roi["hi"][a] for a in range(3)):
        failures.append(f"ROI box {roi} misses the foreground")
    mask = case_dir / "mask.nii.gz"
    try:
        shape = read_labelmap(mask, classes=classes).shape
    except (OSError, ValueError, NiftiFormatError) as e:
        failures.append(f"mask unreadable: {e}")
        return failures, None
    if list(shape) != expect["shape"]:
        failures.append(f"mask shape {shape}, expected {expect['shape']}")
    digest = sha256(mask)
    if exact:
        fg_classes = {name for name, code in classes.items() if code != 0}
        if {m.class_name for m in case.metrics} != fg_classes:
            failures.append("not every class was evaluated")
        for m in case.metrics:
            if m.dice != 1.0 or m.hd95_mm != 0.0:
                failures.append(f"{m.class_name}: dice {m.dice}, hd95 {m.hd95_mm}")
        if digest != expect["gt_sha256"]:
            failures.append("mask differs from the ground truth")
    return failures, digest


def check_repeat(result, cfg, cases: dict, exact: bool,
                 reference: dict | None) -> tuple[dict[str, list[str]], dict]:
    """Check every case of one repeat.

    ``cases`` holds, per case id, the input shape, the foreground box
    (``fg_lo``/``fg_hi``, input-grid voxels) and, on the exact workload,
    ``gt_sha256``.  ``reference`` is the hash record of the run's first
    repeat, or None for the first repeat itself.  Returns the failures per
    case id (empty lists for passing cases) and this repeat's hash record.
    """
    out_dir = Path(cfg.output_dir)
    failures: dict[str, list[str]] = {}
    hashes = {"masks": {}, "summary_csv": sha256(result.summary_csv)}
    for case in result.cases:
        f, digest = _case_failures(case, out_dir, cases[case.case_id], cfg.standard_shape,
                                   exact, cfg.class_map)
        hashes["masks"][case.case_id] = digest
        if reference is not None and digest != reference["masks"].get(case.case_id):
            f.append("mask hash differs from the first repeat")
        failures[case.case_id] = f
    if reference is not None and hashes["summary_csv"] != reference["summary_csv"]:
        for f in failures.values():
            f.append("summary.csv hash differs from the first repeat")
    return failures, hashes
