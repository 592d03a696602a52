"""Per-class segmentation metrics: Dice overlap and surface distances in mm.

Distances use the nearest-rank 95th percentile (no interpolation) over the
pooled bidirectional nearest-neighbor distances, so every value is exactly
reproducible by a brute-force all-pairs scan.  Point sets default to region
surfaces (voxels with at least one 6-neighbor outside the class); the
full-region variant is available through ``point_mode="region"``.

Empty-region rows are flagged rather than silently averaged: both regions
empty gives Dice 1.0 / distance 0.0 with flag "empty"; exactly one empty
gives Dice 0.0 / distance inf with flag "pred_empty" or "gt_empty".

``evaluate_case`` works inside the hull of the two maps' foreground
boxes, one class at a time, on that crop's two class masks (or their
surfaces).  A voxel in both masks lies at exactly 0.0 from the other set.
Each voxel in one mask only looks for the other mask by a shell search on
the voxel grid: integer offsets, shortest in mm first, probed for all such
voxels at once.  The search stops as soon as the distance at the HD95
rank is settled; when the zeros alone reach that rank, it probes nothing.
Only the voxels it leaves unsettled after a fixed number of probes per
voxel go to a KD-tree, so ``scipy.spatial`` is imported only then (or by
the public ``hd95``/``hausdorff``), never by ``import biatrium``.  One
function, ``_search_rank95``, holds all of that per-voxel state and drops
the search's arrays before the KD-tree is built.  The rows equal those of
the full-grid composition of ``confusion_counts``, ``surface_points`` (or
every class voxel's center) and ``hd95`` float for float.
"""
from __future__ import annotations

import csv
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_CLASS_MAP, EmptyMaskError, LabelMap, _atomic_open
from .geometry import bbox_from_mask

__all__ = [
    "ConfusionCounts",
    "MetricRow",
    "confusion_counts",
    "dice",
    "surface_points",
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
    return _counts(pred.data == class_code, gt.data == class_code)


def _counts(pm: np.ndarray, gm: np.ndarray) -> ConfusionCounts:
    """Counts of the boolean class masks ``pm`` (prediction) and ``gm``."""
    tp = int(np.count_nonzero(pm & gm))
    return ConfusionCounts(tp=tp, fp=int(np.count_nonzero(pm)) - tp,
                           fn=int(np.count_nonzero(gm)) - tp)


def dice(c: ConfusionCounts) -> float:
    """2tp / (2tp + fp + fn); a class absent from both maps scores 1.0."""
    denom = 2 * c.tp + c.fp + c.fn
    if denom == 0:
        return 1.0
    return 2.0 * c.tp / denom


def _surface_mask(cls: np.ndarray) -> np.ndarray:
    """Voxels of the boolean mask ``cls`` with >= 1 of 6 face-neighbors
    outside it; out-of-bounds neighbors count as outside."""
    padded = np.zeros(tuple(n + 2 for n in cls.shape), dtype=bool)
    padded[1:-1, 1:-1, 1:-1] = cls
    inside = padded[:-2, 1:-1, 1:-1] & padded[2:, 1:-1, 1:-1]
    for neighbor in (padded[1:-1, :-2, 1:-1], padded[1:-1, 2:, 1:-1],
                     padded[1:-1, 1:-1, :-2], padded[1:-1, 1:-1, 2:]):
        inside &= neighbor
    return np.greater(cls, inside, out=inside)  # cls and not inside


def _indices(flat: np.ndarray, shape) -> np.ndarray:
    """The (n, 3) indices of the C-order flat positions ``flat`` in a grid
    of ``shape``.  ``_indices(np.flatnonzero(mask), mask.shape)`` is
    ``np.argwhere(mask)``, several times faster on a large 3-D mask."""
    return np.stack(np.unravel_index(flat, shape), axis=1)


def _centers_mm(idx: np.ndarray, spacing, origin=(0, 0, 0)) -> np.ndarray:
    """Centers (mm) of the voxels at integer indices ``idx`` (n, 3) of a
    window whose voxel 0 sits at parent voxel ``origin``.  The origin is
    added before scaling, an exact sum of integers far below 2**53, so a
    window's centers are bit-identical to the parent grid's."""
    centers = idx.astype(np.float64)
    centers += origin
    centers *= spacing
    return centers


def _length(v: np.ndarray) -> np.ndarray:
    """Euclidean length of each row of ``v`` (n, 3) as cKDTree computes a
    distance: the squares summed in axis order, then the square root."""
    sq = v * v
    return np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])


def surface_points(m: LabelMap, class_code: int) -> np.ndarray:
    """Centers (mm) of class voxels with >= 1 of 6 face-neighbors outside
    the class; out-of-bounds neighbors count as outside.  Shape (n, 3)."""
    surface = _surface_mask(m.data == class_code)
    return _centers_mm(_indices(np.flatnonzero(surface), surface.shape), m.spacing)


def _kd_tree(points: np.ndarray):
    """A function giving the distance from each of its (n, 3) queries to the
    nearest of the nonempty ``points`` (m, 3), all in mm."""
    from scipy.spatial import cKDTree  # a slow import; only the KD-tree needs it

    tree = cKDTree(points)
    return lambda queries: np.atleast_1d(tree.query(queries, k=1)[0])


def _pooled_distance(a, b, pick) -> float:
    """``pick`` of the sorted nearest-neighbor distances between point sets
    ``a`` and ``b``, both directions pooled.  Both sets empty -> 0.0;
    exactly one empty -> inf."""
    a, b = (np.asarray(p, dtype=np.float64).reshape(-1, 3) for p in (a, b))
    if len(a) == 0 or len(b) == 0:
        return 0.0 if len(a) == len(b) else float("inf")
    pooled = np.concatenate([_kd_tree(b)(a), _kd_tree(a)(b)])
    pooled.sort()
    return float(pick(pooled))


def _rank95(d: np.ndarray) -> float:
    return d[_rank(d.size) - 1]


def _rank(n: int) -> int:
    """ceil(0.95 n) in exact integer arithmetic."""
    return (95 * n + 99) // 100


def hd95(a: np.ndarray, b: np.ndarray) -> float:
    """Nearest-rank 95th percentile of pooled bidirectional NN distances.

    Rank = ceil(0.95 n) computed in exact integer arithmetic.  Both sets
    empty -> 0.0; exactly one empty -> inf.
    """
    return _pooled_distance(a, b, _rank95)


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Max over both directed supremum distances; empty rules as hd95."""
    return _pooled_distance(a, b, lambda d: d[-1])


# The shell search orders offsets by their own length in mm, but reports a
# hit's distance from the two voxel centers ((index + lo) * spacing in
# float64; ``_hit_distance``), the float cKDTree gives.  Both
# approximate the exact length of offset * spacing.  Core's grid rule
# (``core._GRID``) keeps indices below N = 2**15, so each center is rounded
# by at most 2**-53 * N * spacing, and the centers' difference on an axis
# where the offset is nonzero (one spacing or more) errs by a relative
# 2 * N * 2**-53 = 2**-37 at most; where it is zero, both centers are the
# same float.  The rule's spacings, positive and finite as float32, keep
# every square a normal float64, so squares, sums and the root add a few
# units of 2**-53, and an offset's own length errs by no more.  Both lie
# within a relative 1e-11 of the exact length, and ``_SETTLE_MARGIN``
# covers twice that 50 times over: a target nearer, by the center formula,
# than a hit at offset length L has an offset no longer than
# L * (1 + _SETTLE_MARGIN), and a target at an offset of length L' or more
# lies at least L' * (1 - _SETTLE_MARGIN) away.
_SETTLE_MARGIN = 1e-9
# Probes the search may spend, on average per query, before the queries it
# has not settled go to the KD-tree: a count, so a case takes the same path
# on every machine.  A probe costs about 1/70 of a KD-tree query (26 ns
# against 1.8 us on the benchmark's threshold prediction), so a search that
# fails adds at most about the fallback's own cost.
_PROBES_PER_QUERY = 64
# Queries per KD-tree call, so the centers of a badly speckled map's far
# voxels are never all held at once.
_QUERY_CHUNK = 1 << 18


def _offset_groups(spacing: np.ndarray, shape):
    """Every nonzero integer offset that joins two voxels of a grid of
    ``shape``, in groups of equal mm length, shortest first.  Yields
    ``(length, offsets (m, 3), reach)``, where ``reach`` bounds ``|offset|``
    per axis over the group's shell: the first shell holds the offsets up
    to the length of (1, 1, 1), and each next one doubles that radius.  The
    last group has length inf and no offsets."""
    most = np.asarray(shape, dtype=np.intp) - 1
    full = float(_length((most * spacing)[None])[0])
    inner, outer = 0.0, float(_length(spacing[None])[0])
    while inner < full:
        # one voxel wider than the radius, so rounding in r / s drops no offset
        reach = np.minimum(outer // spacing + 1, most).astype(np.intp)
        grid = np.meshgrid(*(np.arange(-r, r + 1) for r in reach), indexing="ij")
        offsets = np.stack(grid, axis=-1).reshape(-1, 3)
        length = _length(offsets * spacing)
        keep = (length > inner) & (length <= outer)
        offsets, length = offsets[keep], length[keep]
        order = np.argsort(length, kind="stable")
        offsets, length = offsets[order], length[order]
        starts = np.flatnonzero(np.r_[True, length[1:] != length[:-1]])
        for a, b in zip(starts, np.r_[starts[1:], len(length)]):
            yield float(length[a]), offsets[a:b], reach
        inner, outer = outer, 2.0 * outer
    yield float("inf"), np.empty((0, 3), dtype=np.intp), most


def _search_rank95(ps: np.ndarray, gs: np.ndarray, spacing, lo) -> float:
    """``hd95`` of the centers of the voxels set in the nonempty boolean
    masks ``ps`` (prediction) and ``gs``, a window whose voxel 0 sits at
    parent voxel ``lo``, to the float.  The one owner of the search state.

    A voxel in both masks lies at 0.0 from the other set.  Each voxel in one
    mask only (a query) looks for the other mask by a shell search: integer
    offsets go shortest first, each probed for every active query at once
    in a zero-padded two-bit map (bit 1: ground truth, bit 2: prediction).
    A query is settled, and leaves the active ones, once every offset up to
    its first hit's length (plus ``_SETTLE_MARGIN``) is probed; its distance
    is the least over those hits, exact.  The search stops once the rank's
    value among the settled distances lies at or below every active query's
    lower bound, so no active query can fall below it.  After
    ``_PROBES_PER_QUERY`` probes per query, on average, the active queries
    go to the KD-tree, ``_QUERY_CHUNK`` at a time."""
    queries = np.flatnonzero(ps ^ gs)  # flat positions in the crop
    n = np.count_nonzero(ps) + np.count_nonzero(gs)
    rank = _rank(n) - (n - len(queries))  # the rank among the queries' distances
    if rank <= 0:
        return 0.0
    s = np.asarray(spacing, dtype=np.float64)
    want = 1 + gs.ravel()[queries].view(np.uint8)  # the other map's bit
    best = np.full(len(queries), np.inf)  # least hit distance so far
    first = np.full(len(queries), np.inf)  # offset length of the first hit
    active = np.arange(len(queries))
    budget = _PROBES_PER_QUERY * len(queries)
    pad = None
    for length, offsets, reach in _offset_groups(s, ps.shape):
        active = active[first[active] * (1.0 + _SETTLE_MARGIN) >= length]
        bound = min(length * (1.0 - _SETTLE_MARGIN), best[active].min(initial=np.inf))
        settled = np.ones(len(queries), dtype=bool)
        settled[active] = False
        if np.count_nonzero(settled & (best <= bound)) >= rank:
            return float(np.partition(best[settled], rank - 1)[rank - 1])
        budget -= len(active) * len(offsets)
        if budget < 0 or len(offsets) == 0:
            break
        if pad is None or np.any(reach != pad):
            pad = reach
            code, padded, strides = _two_bit_map(ps, gs, pad, queries)
        qf, qw = padded[active], want[active]
        for d in offsets:
            hit = np.flatnonzero(code[qf + d @ strides] & qw)
            if hit.size:
                h = active[hit]
                dist = _hit_distance(queries[h], d, ps.shape, s, lo)
                best[h] = np.minimum(best[h], dist)
                first[h] = np.minimum(first[h], length)
    code = padded = qf = qw = first = settled = None  # the fallback reads none of these
    for bit, targets in ((1, gs), (2, ps)):
        rest = active[want[active] == bit]
        if rest.size:
            nearest = _kd_tree(
                _centers_mm(_indices(np.flatnonzero(targets), ps.shape), s, lo))
            for at in np.array_split(rest, -(-rest.size // _QUERY_CHUNK)):
                best[at] = nearest(_centers_mm(_indices(queries[at], ps.shape), s, lo))
    return float(np.partition(best, rank - 1)[rank - 1])


def _hit_distance(at, d, shape, spacing, lo) -> np.ndarray:
    """The distance cKDTree gives between the centers of the voxels at the
    flat positions ``at`` of a window of ``shape`` whose voxel 0 sits at
    parent voxel ``lo``, and of the voxels ``d`` (3,) or (n, 3) on from
    them: ``_length`` of the difference of their ``_centers_mm``."""
    q = _indices(at, shape)
    return _length(_centers_mm(q, spacing, lo) - _centers_mm(q + d, spacing, lo))


def _two_bit_map(ps, gs, pad, queries):
    """The flat two-bit map of ``ps``/``gs`` zero-padded by ``pad`` voxels
    per side, the flat position in it of each of the crop's flat positions
    ``queries``, and the flat strides of an offset."""
    code = np.zeros(tuple(n + 2 * p for n, p in zip(ps.shape, pad)), dtype=np.uint8)
    code[tuple(slice(p, p + n) for p, n in zip(pad, ps.shape))] = (
        (ps.view(np.uint8) << 1) | gs.view(np.uint8))
    strides = np.array([code.shape[1] * code.shape[2], code.shape[2], 1])
    x, y, z = np.unravel_index(queries, ps.shape)
    x += pad[0]
    y += pad[1]
    z += pad[2]
    return code.ravel(), np.ravel_multi_index((x, y, z), code.shape), strides


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
    boxes = []
    for m in (pred, gt):
        with suppress(EmptyMaskError):
            boxes.append(bbox_from_mask(m.data))
    # neither map has foreground: an empty crop, and every class row is "empty"
    lo = tuple(min(c) for c in zip(*(b.lo for b in boxes))) or (0, 0, 0)
    hi = tuple(max(c) for c in zip(*(b.hi for b in boxes))) or (0, 0, 0)
    crop = tuple(slice(l, h) for l, h in zip(lo, hi))
    p, g = pred.data[crop], gt.data[crop]

    rows = []
    for name, code in (DEFAULT_CLASS_MAP if classes is None else classes).items():
        if code == 0:
            continue
        pm, gm = p == code, g == code
        c = _counts(pm, gm)
        pred_empty = (c.tp + c.fp) == 0
        gt_empty = (c.tp + c.fn) == 0
        if pred_empty and gt_empty:
            rows.append(MetricRow(case_id, name, 1.0, 0.0, "empty"))
        elif pred_empty or gt_empty:
            flag = "pred_empty" if pred_empty else "gt_empty"
            rows.append(MetricRow(case_id, name, 0.0, float("inf"), flag))
        else:
            if point_mode == "surface":
                pm, gm = _surface_mask(pm), _surface_mask(gm)
            h = _search_rank95(pm, gm, pred.spacing, lo)
            rows.append(MetricRow(case_id, name, dice(c), h, ""))
    return rows


def format_float(x: float) -> str:
    """Shortest decimal string that parses back to the identical float."""
    return repr(float(x))


def _report_row(r: MetricRow, percent: bool) -> list[str]:
    """The report's fields of ``r``; ``percent`` scales Dice by 100."""
    return [r.case_id, r.class_name, format_float(r.dice * 100.0 if percent else r.dice),
            format_float(r.hd95_mm), r.flags]


def write_report_csv(rows: list[MetricRow], path, percent: bool = False) -> None:
    """Columns case_id,class,dice,hd95_mm,flags; ``percent`` scales Dice by
    100.  Numbers are written so that float() recovers them exactly."""
    with _atomic_open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["case_id", "class", "dice", "hd95_mm", "flags"])
        w.writerows(_report_row(r, percent) for r in rows)


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
