"""Grid resampling and region-of-interest plumbing.

Everything here is voxel-exact: padding, cropping and block averaging only,
no interpolation.  Each spatial rearrangement returns a Placement so a
result computed on the derived grid can be carried back to the parent grid
with stitch().
"""
from __future__ import annotations

import numpy as np

from .core import BBox, EmptyMaskError, LabelMap, Placement, Volume, _as_triple

__all__ = [
    "DEFAULT_STANDARD_SHAPE",
    "DEFAULT_DOWNSAMPLE_FACTORS",
    "DEFAULT_FINE_WINDOW",
    "standardize",
    "downsample_mean",
    "bbox_from_mask",
    "expand_bbox",
    "crop_window",
    "stitch",
]

DEFAULT_STANDARD_SHAPE = (576, 576, 48)
DEFAULT_DOWNSAMPLE_FACTORS = (4, 4, 1)
DEFAULT_FINE_WINDOW = (256, 256, 48)


def _center_offset(src: int, dst: int) -> int:
    """Offset placing a ``dst``-long window centered on a ``src``-long axis:
    the crop start (>= 0) or minus the low-side pad (< 0).  The odd voxel
    of the difference goes on the high side."""
    return (src - dst) // 2 if src >= dst else -((dst - src) // 2)


def _extract(v: Volume, offset, window: tuple[int, int, int],
             pad_value: float) -> tuple[Volume, Placement]:
    """Copy the window at ``offset`` out of ``v``, padding where it extends
    past the volume."""
    place = Placement(parent_shape=v.shape, offset=offset, window_shape=window)
    parent_sl, window_sl = _overlap(place)
    out = np.full(window, pad_value, dtype=v.data.dtype)
    out[window_sl] = v.data[parent_sl]
    return Volume(data=out, spacing=v.spacing), place


def standardize(v: Volume, target_shape: tuple[int, int, int] = DEFAULT_STANDARD_SHAPE,
                pad_value: float = 0.0) -> tuple[Volume, Placement]:
    """Center pad or crop each axis independently to ``target_shape``.

    The placement offset per axis is the crop start in the source (>= 0) or
    minus the pad amount on the low side (< 0), so
    ``source_index = target_index + offset`` wherever both grids overlap.
    """
    target_shape = _as_triple(target_shape, "target_shape")
    offset = [_center_offset(s, t) for s, t in zip(v.shape, target_shape)]
    return _extract(v, offset, target_shape, pad_value)


def downsample_mean(v: Volume, factors: tuple[int, int, int] = DEFAULT_DOWNSAMPLE_FACTORS) -> Volume:
    """Non-overlapping block mean.  Each axis must divide evenly by its
    factor; spacing scales up by the factors."""
    factors = _as_triple(factors, "factors")
    data = v.data
    for ax, (s, f) in enumerate(zip(data.shape, factors)):
        if s % f != 0:
            raise ValueError(f"axis {ax} extent {s} is not divisible by factor {f}")
    fx, fy, fz = factors
    sx, sy, sz = (s // f for s, f in zip(data.shape, factors))
    blocks = data.astype(np.float64).reshape(sx, fx, sy, fy, sz, fz)
    out = blocks.mean(axis=(1, 3, 5))
    spacing = tuple(sp * f for sp, f in zip(v.spacing, factors))
    return Volume(data=out.astype(np.float32), spacing=spacing)


def bbox_from_mask(mask: np.ndarray | LabelMap,
                   positive_classes: set[int] | None = None) -> BBox:
    """Tight inclusive-exclusive bounds around the foreground voxels.

    ``positive_classes=None`` treats every nonzero voxel as foreground;
    otherwise only voxels whose class code is in the set count.
    """
    arr = mask.data if isinstance(mask, LabelMap) else np.asarray(mask)
    if positive_classes is None:
        fg = arr != 0
    else:
        fg = np.isin(arr, sorted(positive_classes))
    # per-axis `any` projections: far cheaper than listing voxels by np.nonzero
    hits = [np.flatnonzero(fg.any(axis=tuple(a for a in range(fg.ndim) if a != ax)))
            for ax in range(fg.ndim)]
    if hits[0].size == 0:
        raise EmptyMaskError("mask has no foreground voxels")
    return BBox(lo=tuple(int(h[0]) for h in hits), hi=tuple(int(h[-1]) + 1 for h in hits))


def expand_bbox(box: BBox, margin: int | tuple[int, int, int],
                bounds: tuple[int, int, int]) -> BBox:
    """Grow the box by ``margin`` voxels per side, clipped to ``bounds``."""
    if isinstance(margin, int):
        margin = (margin, margin, margin)
    lo = tuple(max(0, l - m) for l, m in zip(box.lo, margin))
    hi = tuple(min(b, h + m) for h, m, b in zip(box.hi, margin, bounds))
    return BBox(lo=lo, hi=hi)


def crop_window(v: Volume, center: tuple[int, int, int],
                window: tuple[int, int, int] = DEFAULT_FINE_WINDOW,
                pad_value: float = 0.0) -> tuple[Volume, Placement]:
    """Extract a fixed-size window around ``center``.

    The window start is ``center - window // 2`` clamped so the window stays
    inside the parent wherever it fits.  An axis where the window exceeds the
    parent is taken whole and centered in the output with ``pad_value``
    fill; its offset goes negative, recording the pad, exactly as in
    standardize().
    """
    window = _as_triple(window, "window")
    center = _as_triple(center, "center", positive=False)
    offset = [min(max(c - w // 2, 0), s - w) if w <= s else _center_offset(s, w)
              for s, w, c in zip(v.shape, window, center)]
    return _extract(v, offset, window, pad_value)


def _overlap(place: Placement):
    """Slices of the parent and of the window covering their common region."""
    parent_sl = []
    window_sl = []
    for s, o, w in zip(place.parent_shape, place.offset, place.window_shape):
        p0 = max(o, 0)
        p1 = min(o + w, s)
        if p1 <= p0:
            raise ValueError(f"placement window does not overlap parent (offset {place.offset})")
        parent_sl.append(slice(p0, p1))
        window_sl.append(slice(p0 - o, p1 - o))
    return tuple(parent_sl), tuple(window_sl)


def stitch(child, place: Placement, fill_value: float = 0.0):
    """Paste window contents back onto a fresh parent-shaped array.

    Voxels of the window that fall outside the parent (the padded fringe)
    are dropped; parent voxels not covered by the window get ``fill_value``
    (background for a LabelMap).  The return type mirrors the input: LabelMap
    in, LabelMap out; Volume in, Volume out; bare array otherwise.
    """
    if isinstance(child, (LabelMap, Volume)):
        fill = 0 if isinstance(child, LabelMap) else fill_value
        return type(child)(data=stitch(child.data, place, fill), spacing=child.spacing)
    child = np.asarray(child)
    if child.shape != place.window_shape:
        raise ValueError(
            f"window shape {child.shape} does not match placement {place.window_shape}")
    parent_sl, window_sl = _overlap(place)
    out = np.full(place.parent_shape, fill_value, dtype=child.dtype)
    out[parent_sl] = child[window_sl]
    return out
