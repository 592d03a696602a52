"""Grid resampling and region-of-interest plumbing.

Everything here is voxel-exact: padding, cropping and block averaging only,
no interpolation.  Each spatial rearrangement returns a Placement so a
result computed on the derived grid can be carried back to the parent grid
with stitch().

Placements chain: the standard grid is a window on the input and the fine
window a window on the standard grid.  ``downsample_mean``, ``crop_window``
and ``stitch`` take the standard placement as ``through`` and read the
input (stitch: the window) through the chain, so the standard grid never
exists as an array.  One read, ``_window``, builds every result: a voxel
maps to the source only where it lies inside every grid of the chain, and
is padding elsewhere; a window that is all of its source, in the source's
dtype, is the source's read-only data itself, and any other is a new array.
Results are derived (``core._derived``), not checked again: the only outside
value that enters a window, a pad or fill value, must be finite as float32,
and a fill value for a bare integer array a whole number that array holds.
"""
from __future__ import annotations

import numpy as np

from .core import (_FLOAT32_MAX, BBox, ConfigError, EmptyMaskError, LabelMap, Placement, Volume,
                   _as_triple, _check_number, _derived, _slabs)

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


def standardize(v: Volume | tuple[int, int, int],
                target_shape: tuple[int, int, int] = DEFAULT_STANDARD_SHAPE,
                pad_value: float = 0.0):
    """Center pad or crop each axis independently to ``target_shape``.

    Returns the standardized Volume and its Placement on ``v``.  The
    placement offset per axis is the crop start in the source (>= 0) or
    minus the pad amount on the low side (< 0), so
    ``source_index = target_index + offset`` wherever both grids overlap.
    When ``target_shape`` is the input's shape, the result shares the
    input's read-only data.  Given a shape in place of a Volume, returns the
    Placement alone and builds no array.
    """
    _check_number(pad_value, "pad_value", ge=-_FLOAT32_MAX, le=_FLOAT32_MAX)
    target_shape = _as_triple(target_shape, "target_shape", grid=True)
    shape = v.shape if isinstance(v, Volume) else _as_triple(v, "shape", grid=True)
    place = Placement(parent_shape=shape, window_shape=target_shape,
                      offset=[_center_offset(s, t) for s, t in zip(shape, target_shape)])
    if not isinstance(v, Volume):
        return place
    return _derived(Volume, data=_window(v.data, (place,), pad_value), spacing=v.spacing), place


def downsample_mean(v: Volume, factors: tuple[int, int, int] = DEFAULT_DOWNSAMPLE_FACTORS,
                    through: Placement | None = None) -> Volume:
    """Non-overlapping block mean.  Each axis must divide evenly by its
    factor; spacing scales up by the factors.

    With ``through``, a placement on ``v`` such as standardize() returns,
    the grid averaged is that window of ``v``, zero outside ``v``, exactly
    as if it had been standardized first.
    """
    factors = _as_triple(factors, "factors")
    place = through if through is not None else standardize(v.shape, v.shape)
    grid = place.window_shape
    for ax, (s, f) in enumerate(zip(grid, factors)):
        if s % f != 0:
            raise ValueError(f"axis {ax} extent {s} is not divisible by factor {f}")
    # Only blocks that touch the input are averaged; the others are 0.0, the
    # mean of zeros.  numpy groups a block's sum differently when a block
    # count of 1 stands for a larger one (the axis drops out and the summed
    # axes beside it merge into one loop), so such a range keeps a second
    # block.
    _, inside = _overlap(place)
    lo, hi = [], []
    for sl, n, f in zip(inside, (s // f for s, f in zip(grid, factors)), factors):
        b0, b1 = sl.start // f, -(-sl.stop // f)
        if b1 - b0 == 1 < n:
            b0, b1 = (b0, b1 + 1) if b1 < n else (b0 - 1, b1)
        lo.append(b0)
        hi.append(b1)
    fx, fy, fz = factors
    ky, kz = hi[1] - lo[1], hi[2] - lo[2]
    out = np.zeros(tuple(s // f for s, f in zip(grid, factors)), dtype=np.float32)
    # averaged in float64 one slab of x-block rows at a time, so no
    # full-grid float64 copy is made
    for s in _slabs((hi[0] - lo[0], fx * fy * ky * fz * kz)):
        x0, x1 = lo[0] + s.start, lo[0] + s.stop
        slab = _derived(Placement, parent_shape=grid,
                        offset=(x0 * fx, lo[1] * fy, lo[2] * fz),
                        window_shape=((x1 - x0) * fx, ky * fy, kz * fz))
        blocks = _window(v.data, (place, slab), 0.0, np.float64)
        out[x0:x1, lo[1]:hi[1], lo[2]:hi[2]] = (
            blocks.reshape(-1, fx, ky, fy, kz, fz).mean(axis=(1, 3, 5)))
    spacing = [sp * f for sp, f in zip(v.spacing, factors)]
    return _derived(Volume, data=out, spacing=_as_triple(spacing, "spacing", float, grid=True))


def bbox_from_mask(mask: np.ndarray | LabelMap,
                   positive_classes: set[int] | None = None) -> BBox:
    """Tight inclusive-exclusive bounds around the foreground voxels.

    ``positive_classes=None`` treats every nonzero voxel as foreground;
    otherwise only voxels whose class code is in the set count.
    """
    arr = mask.data if isinstance(mask, LabelMap) else np.asarray(mask)
    fg = arr if positive_classes is None else np.isin(arr, sorted(positive_classes))
    # `any` projections, far cheaper than listing voxels by np.nonzero: `any`
    # of the array itself needs no boolean copy of it, and the y and z
    # projections read only the x-range that holds foreground
    xs = np.flatnonzero(fg.any(axis=(1, 2)))
    if xs.size == 0:
        raise EmptyMaskError("mask has no foreground voxels")
    yz = fg[xs[0]:xs[-1] + 1].any(axis=0)
    hits = [xs, np.flatnonzero(yz.any(axis=1)), np.flatnonzero(yz.any(axis=0))]
    return BBox(lo=tuple(int(h[0]) for h in hits), hi=tuple(int(h[-1]) + 1 for h in hits))


def expand_bbox(box: BBox, margin: int, bounds: tuple[int, int, int]) -> BBox:
    """Grow the box by ``margin`` voxels per side, clipped to ``bounds``."""
    lo = tuple(max(0, l - margin) for l in box.lo)
    hi = tuple(min(b, h + margin) for h, b in zip(box.hi, bounds))
    return BBox(lo=lo, hi=hi)


def crop_window(v: Volume, center: tuple[int, int, int],
                window: tuple[int, int, int] = DEFAULT_FINE_WINDOW,
                pad_value: float = 0.0,
                through: Placement | None = None) -> tuple[Volume, Placement]:
    """Extract a fixed-size window around ``center``.

    The window start is ``center - window // 2`` clamped so the window stays
    inside the parent wherever it fits.  An axis where the window exceeds the
    parent is taken whole and centered in the output with ``pad_value``
    fill; its offset goes negative, recording the pad, exactly as in
    standardize().

    With ``through``, a placement on ``v`` such as standardize() returns,
    the parent is that window of ``v``: the window is placed on it and read
    straight from ``v``, with ``pad_value`` wherever it leaves either grid.
    """
    _check_number(pad_value, "pad_value", ge=-_FLOAT32_MAX, le=_FLOAT32_MAX)
    window = _as_triple(window, "window", grid=True)
    center = _as_triple(center, "center", positive=False)
    chain = (through,) if through is not None else ()
    parent = through.window_shape if through is not None else v.shape
    offset = [min(max(c - w // 2, 0), s - w) if w <= s else _center_offset(s, w)
              for s, w, c in zip(parent, window, center)]
    place = Placement(parent_shape=parent, offset=offset, window_shape=window)
    data = _window(v.data, chain + (place,), pad_value)
    return _derived(Volume, data=data, spacing=v.spacing), place


def _overlap(*chain: Placement):
    """Slices of the first parent (the root) and of the last window (the
    leaf) covering the leaf voxels that lie inside every grid of the chain.
    Each placement's window is the next one's parent and must overlap it;
    the leaf itself may still lie wholly in padding, and then both slices
    are empty."""
    for outer, inner in zip(chain, chain[1:]):
        if outer.window_shape != inner.parent_shape:
            raise ValueError(f"placement on a {inner.parent_shape} parent cannot follow "
                             f"a {outer.window_shape} window")
    for place in chain:
        if any(o >= s or o + w <= 0 for s, o, w in
               zip(place.parent_shape, place.offset, place.window_shape)):
            raise ValueError(
                f"placement window does not overlap parent (offset {place.offset})")
    root_sl = []
    leaf_sl = []
    for ax in range(3):
        # leaf voxel i sits at i + shift in each parent, from the leaf's up
        lo, hi, shift = 0, chain[-1].window_shape[ax], 0
        for place in reversed(chain):
            shift += place.offset[ax]
            lo, hi = max(lo, -shift), min(hi, place.parent_shape[ax] - shift)
        hi = max(lo, hi)
        root_sl.append(slice(lo + shift, hi + shift))
        leaf_sl.append(slice(lo, hi))
    return tuple(root_sl), tuple(leaf_sl)


def _window(data: np.ndarray, chain: tuple[Placement, ...], pad_value: float,
            dtype=None) -> np.ndarray:
    """The last window of ``chain`` read from ``data`` (the first parent) as
    ``dtype`` (None: ``data``'s), ``pad_value`` where it leaves a grid of the
    chain.  The module's one copy rule: ``data`` itself if the window is all
    of it in its dtype, otherwise a new array."""
    if data.shape != chain[0].parent_shape:
        raise ValueError(
            f"array shape {data.shape} does not match placement {chain[0].parent_shape}")
    root_sl, leaf_sl = _overlap(*chain)
    shape = chain[-1].window_shape
    dtype = data.dtype if dtype is None else np.dtype(dtype)
    part = data[root_sl]
    if part.shape == shape:
        if shape == data.shape and dtype == data.dtype:
            return data
        return part.astype(dtype, order="C")
    out = np.full(shape, pad_value, dtype=dtype)
    out[leaf_sl] = part
    return out


def stitch(child, place: Placement, fill_value: float = 0.0,
           through: Placement | None = None):
    """Paste window contents back onto a parent-shaped array.

    Voxels of the window that fall outside the parent (the padded fringe)
    are dropped; parent voxels not covered by the window get ``fill_value``.
    With ``through``, a placement on some
    grid whose window is ``place``'s parent, the contents go through both
    placements straight onto that grid, as two stitches with the same fill
    would put them.  The parent is read as a window on the child through
    the inverted chain, under _window's copy rule.  The return type mirrors
    the input: LabelMap in, LabelMap out; Volume in, Volume out; bare array
    otherwise, which is always a new array of the input's dtype.  An integer
    or bool array, a LabelMap's included, refuses a ``fill_value`` it
    cannot hold exactly.
    """
    _check_number(fill_value, "fill_value", ge=-_FLOAT32_MAX, le=_FLOAT32_MAX)
    chain = ((through,) if through is not None else ()) + (place,)
    _overlap(*chain)  # names a mismatched link in the caller's order
    inverse = tuple(_derived(Placement, parent_shape=p.window_shape, window_shape=p.parent_shape,
                             offset=tuple(-o for o in p.offset)) for p in reversed(chain))
    data = child.data if isinstance(child, (LabelMap, Volume)) else np.asarray(child)
    if data.dtype.kind in "biu":
        # a cast would wrap or truncate a value the array cannot hold
        lo, hi = (0, 1) if data.dtype.kind == "b" else (
            np.iinfo(data.dtype).min, np.iinfo(data.dtype).max)
        if not (float(fill_value).is_integer() and lo <= fill_value <= hi):
            raise ConfigError(f"fill_value for a {data.dtype} array must be a whole number "
                              f"in [{lo}, {hi}], got {fill_value!r}")
    out = _window(data, inverse, fill_value)
    if isinstance(child, (LabelMap, Volume)):
        return _derived(type(child), data=out, spacing=child.spacing)
    return out.copy() if out is data else out
