"""Per-class segmentation metrics: Dice overlap and surface distances in mm.

Distances use the nearest-rank 95th percentile (no interpolation) over the
pooled bidirectional nearest-neighbor distances, so every value is exactly
reproducible by a brute-force all-pairs scan.  Point sets default to region
surfaces (voxels with at least one 6-neighbor outside the class); the
full-region variant is available through ``point_mode="region"``.

Empty-region rows are flagged rather than silently averaged: both regions
empty gives Dice 1.0 / distance 0.0 with flag "empty"; exactly one empty
gives Dice 0.0 / distance inf with flag "pred_empty" or "gt_empty".

``evaluate_case`` works inside the bounding box of the two maps' union
foreground and queries nearest neighbours only for points that are in one
set but not the other; its rows equal those of the full-grid composition
of ``confusion_counts``, ``surface_points``/``region_points`` and ``hd95``
float for float.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_CLASS_MAP, EmptyMaskError, LabelMap
from .geometry import bbox_from_mask

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


def _surface_mask(cls: np.ndarray) -> np.ndarray:
    """Voxels of the boolean mask ``cls`` with >= 1 of 6 face-neighbors
    outside it; out-of-bounds neighbors count as outside."""
    padded = np.pad(cls, 1, mode="constant", constant_values=False)
    interior = (
        padded[:-2, 1:-1, 1:-1] & padded[2:, 1:-1, 1:-1]
        & padded[1:-1, :-2, 1:-1] & padded[1:-1, 2:, 1:-1]
        & padded[1:-1, 1:-1, :-2] & padded[1:-1, 1:-1, 2:]
    )
    return cls & ~interior


def _centers_mm(mask: np.ndarray, spacing, origin=(0, 0, 0)) -> np.ndarray:
    """Centers (mm) of the voxels set in ``mask``, a window whose voxel 0
    sits at parent voxel ``origin``.  The origin is added to the integer
    indices before scaling, so a window's centers are bit-identical to the
    parent grid's."""
    idx = np.argwhere(mask) + np.asarray(origin, dtype=np.intp)
    return idx.astype(np.float64) * np.asarray(spacing, dtype=np.float64)


def surface_points(m: LabelMap, class_code: int) -> np.ndarray:
    """Centers (mm) of class voxels with >= 1 of 6 face-neighbors outside
    the class; out-of-bounds neighbors count as outside.  Shape (n, 3)."""
    return _centers_mm(_surface_mask(m.data == class_code), m.spacing)


def region_points(m: LabelMap, class_code: int) -> np.ndarray:
    """Centers (mm) of every class voxel.  Shape (n, 3)."""
    return _centers_mm(m.data == class_code, m.spacing)


def _pooled_distance(a, b, pick, a_in_b=None, b_in_a=None) -> float:
    """``pick`` of the sorted nearest-neighbor distances between point sets
    ``a`` and ``b``, both directions pooled.  Both sets empty -> 0.0;
    exactly one empty -> inf.

    ``a_in_b``/``b_in_a`` optionally flag, per point, those known to lie in
    the other set too.  Their distance is exactly 0.0, so it is pooled
    without a query, leaving the multiset, and therefore the pick,
    unchanged."""
    a, b = (np.asarray(p, dtype=np.float64).reshape(-1, 3) for p in (a, b))
    if len(a) == 0 or len(b) == 0:
        return 0.0 if len(a) == len(b) else float("inf")
    pooled = []
    for query, in_other, points in ((a, a_in_b, b), (b, b_in_a, a)):
        if in_other is not None:
            pooled.append(np.zeros(np.count_nonzero(in_other)))
            query = query[~in_other]
        if len(query):
            from scipy.spatial import cKDTree  # a slow import; only this needs it

            pooled.append(np.atleast_1d(cKDTree(points).query(query, k=1)[0]))
    pooled = np.concatenate(pooled)
    pooled.sort()
    return float(pick(pooled))


def _rank95(d: np.ndarray) -> float:
    return d[(95 * d.size + 99) // 100 - 1]


def hd95(a: np.ndarray, b: np.ndarray) -> float:
    """Nearest-rank 95th percentile of pooled bidirectional NN distances.

    Rank = ceil(0.95 n) computed in exact integer arithmetic.  Both sets
    empty -> 0.0; exactly one empty -> inf.
    """
    return _pooled_distance(a, b, _rank95)


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

    # Every voxel outside the union foreground box is background in both
    # maps, so the crop loses no class voxel, and treating the crop's
    # outside as outside the class keeps the surface rule exact.
    try:
        box = bbox_from_mask(pred.data | gt.data)
        lo, hi = box.lo, box.hi
    except EmptyMaskError:
        lo = hi = (0, 0, 0)  # an empty crop: every class row is "empty"
    crop = tuple(slice(l, h) for l, h in zip(lo, hi))
    p, g = pred.data[crop], gt.data[crop]
    # table[i, j]: voxels with pred code i and gt code j
    table = np.bincount((p.astype(np.uint16) * 256 + g).ravel(),
                        minlength=65536).reshape(256, 256)

    rows = []
    for name, code in (DEFAULT_CLASS_MAP if classes is None else classes).items():
        if code == 0:
            continue
        tp = int(table[code, code])
        c = ConfusionCounts(tp=tp, fp=int(table[code].sum()) - tp,
                            fn=int(table[:, code].sum()) - tp)
        pred_empty = (c.tp + c.fp) == 0
        gt_empty = (c.tp + c.fn) == 0
        if pred_empty and gt_empty:
            rows.append(MetricRow(case_id, name, 1.0, 0.0, "empty"))
        elif pred_empty or gt_empty:
            flag = "pred_empty" if pred_empty else "gt_empty"
            rows.append(MetricRow(case_id, name, 0.0, float("inf"), flag))
        else:
            pm, gm = p == code, g == code
            if point_mode == "surface":
                pm, gm = _surface_mask(pm), _surface_mask(gm)
            h = _pooled_distance(_centers_mm(pm, pred.spacing, lo),
                                 _centers_mm(gm, pred.spacing, lo),
                                 _rank95, a_in_b=gm[pm], b_in_a=pm[gm])
            rows.append(MetricRow(case_id, name, dice(c), h, ""))
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
