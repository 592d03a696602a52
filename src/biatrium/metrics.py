"""Per-class segmentation metrics: Dice overlap and surface distances in mm.

Distances use the nearest-rank 95th percentile (no interpolation) over the
pooled bidirectional nearest-neighbor distances, so every value is exactly
reproducible by a brute-force all-pairs scan.  Point sets default to region
surfaces (voxels with at least one 6-neighbor outside the class); the
full-region variant is available through ``point_mode="region"``.

Empty-region rows are flagged rather than silently averaged: both regions
empty gives Dice 1.0 / distance 0.0 with flag "empty"; exactly one empty
gives Dice 0.0 / distance inf with flag "pred_empty" or "gt_empty".
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import DEFAULT_CLASS_MAP, LabelMap

__all__ = [
    "ConfusionCounts",
    "MetricRow",
    "confusion_counts",
    "dice",
    "surface_points",
    "region_points",
    "hd95",
    "hausdorff",
    "evaluate_case",
    "format_float",
    "write_report_csv",
    "read_report_csv",
]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int

    def __post_init__(self):
        if self.tp < 0 or self.fp < 0 or self.fn < 0:
            raise ValueError(f"counts must be non-negative, got {self}")


@dataclass(frozen=True)
class MetricRow:
    """One evaluated (case, class) pair.  ``flags`` is "" for a normal row."""

    case_id: str
    class_name: str
    dice: float
    hd95_mm: float
    flags: str = ""


def confusion_counts(pred: LabelMap, gt: LabelMap, class_code: int) -> ConfusionCounts:
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    p = pred.data == class_code
    g = gt.data == class_code
    tp = int(np.count_nonzero(p & g))
    fp = int(np.count_nonzero(p)) - tp
    fn = int(np.count_nonzero(g)) - tp
    return ConfusionCounts(tp=tp, fp=fp, fn=fn)


def dice(c: ConfusionCounts) -> float:
    """2tp / (2tp + fp + fn); a class absent from both maps scores 1.0."""
    denom = 2 * c.tp + c.fp + c.fn
    if denom == 0:
        return 1.0
    return 2.0 * c.tp / denom


def surface_points(m: LabelMap, class_code: int) -> np.ndarray:
    """Centers (mm) of class voxels with >= 1 of 6 face-neighbors outside
    the class; out-of-bounds neighbors count as outside.  Shape (n, 3)."""
    cls = m.data == class_code
    if not cls.any():
        return np.empty((0, 3), dtype=np.float64)
    padded = np.pad(cls, 1, mode="constant", constant_values=False)
    interior = (
        padded[:-2, 1:-1, 1:-1] & padded[2:, 1:-1, 1:-1]
        & padded[1:-1, :-2, 1:-1] & padded[1:-1, 2:, 1:-1]
        & padded[1:-1, 1:-1, :-2] & padded[1:-1, 1:-1, 2:]
    )
    idx = np.argwhere(cls & ~interior)
    return idx.astype(np.float64) * np.asarray(m.spacing, dtype=np.float64)


def region_points(m: LabelMap, class_code: int) -> np.ndarray:
    """Centers (mm) of every class voxel.  Shape (n, 3)."""
    idx = np.argwhere(m.data == class_code)
    return idx.astype(np.float64) * np.asarray(m.spacing, dtype=np.float64)


def _pooled_distance(a, b, pick) -> float:
    """``pick`` of the sorted nearest-neighbor distances between point sets
    ``a`` and ``b``, both directions pooled.  Both sets empty -> 0.0;
    exactly one empty -> inf."""
    a, b = (np.asarray(p, dtype=np.float64).reshape(-1, 3) for p in (a, b))
    if len(a) == 0 or len(b) == 0:
        return 0.0 if len(a) == len(b) else float("inf")
    d_ab, _ = cKDTree(b).query(a, k=1)
    d_ba, _ = cKDTree(a).query(b, k=1)
    pooled = np.concatenate([np.atleast_1d(d_ab), np.atleast_1d(d_ba)])
    pooled.sort()
    return float(pick(pooled))


def hd95(a: np.ndarray, b: np.ndarray) -> float:
    """Nearest-rank 95th percentile of pooled bidirectional NN distances.

    Rank = ceil(0.95 n) computed in exact integer arithmetic.  Both sets
    empty -> 0.0; exactly one empty -> inf.
    """
    return _pooled_distance(a, b, lambda d: d[(95 * d.size + 99) // 100 - 1])


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Max over both directed supremum distances; empty rules as hd95."""
    return _pooled_distance(a, b, lambda d: d[-1])


def evaluate_case(pred: LabelMap, gt: LabelMap, classes: dict[str, int] | None = None,
                  case_id: str = "case", point_mode: str = "surface") -> list[MetricRow]:
    """One MetricRow per foreground class, in class-map order."""
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    if pred.spacing != gt.spacing:
        raise ValueError(f"spacing mismatch: pred {pred.spacing} vs gt {gt.spacing}")
    if point_mode not in ("surface", "region"):
        raise ValueError(f"point_mode must be 'surface' or 'region', got {point_mode!r}")
    points = surface_points if point_mode == "surface" else region_points

    rows = []
    for name, code in (DEFAULT_CLASS_MAP if classes is None else classes).items():
        if code == 0:
            continue
        c = confusion_counts(pred, gt, code)
        pred_empty = (c.tp + c.fp) == 0
        gt_empty = (c.tp + c.fn) == 0
        if pred_empty and gt_empty:
            rows.append(MetricRow(case_id, name, 1.0, 0.0, "empty"))
        elif pred_empty or gt_empty:
            flag = "pred_empty" if pred_empty else "gt_empty"
            rows.append(MetricRow(case_id, name, 0.0, float("inf"), flag))
        else:
            d = dice(c)
            h = hd95(points(pred, code), points(gt, code))
            rows.append(MetricRow(case_id, name, d, h, ""))
    return rows


def format_float(x: float) -> str:
    """Shortest decimal string that parses back to the identical float."""
    return repr(float(x))


def write_report_csv(rows: list[MetricRow], path, percent: bool = False) -> None:
    """Columns case_id,class,dice,hd95_mm,flags; ``percent`` scales Dice by
    100.  Numbers are written so that float() recovers them exactly."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["case_id", "class", "dice", "hd95_mm", "flags"])
        for r in rows:
            d = r.dice * 100.0 if percent else r.dice
            w.writerow([r.case_id, r.class_name, format_float(d),
                        format_float(r.hd95_mm), r.flags])


def read_report_csv(path) -> list[MetricRow]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append(MetricRow(
                case_id=rec["case_id"],
                class_name=rec["class"],
                dice=float(rec["dice"]),
                hd95_mm=float(rec["hd95_mm"]),
                flags=rec["flags"],
            ))
    return rows
