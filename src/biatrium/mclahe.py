"""Contrast-limited adaptive histogram equalization for 3D volumes.

The volume is min-max normalized to [0, 1], replicate-padded up to a
multiple of the tile size, and split into tiles.  Each tile gets a clipped,
redistributed histogram whose normalized cumulative sum becomes a monotone
lookup table.  Every voxel is then mapped through a trilinear blend of the
tables of the 8 nearest tile centers (tile center at (index + 0.5) * tile
size; positions outside the center lattice clamp to the edge tile); the
padding only feeds the edge tiles' histograms.

Binning and blending stream over x-slabs of about ``core._SLAB_VOXELS``
voxels, no thicker than one tile, shared out over the case's threads in
contiguous runs.  A tile row's tables are built once, when the first slab
that reads them arrives, shared by every thread and dropped after the last,
so at most three rows are held at once and table memory follows one tile
row, not the tile grid.  Blending reads only the bins and the tables, so
the output may be written over the input: ``mclahe`` allocates a new
float32 output, and ``_mclahe_consume``, for a caller that owns the
input's array, writes over it.  Besides the input and the output, the
working set is one small unsigned bin index per voxel, row-sized tables
and slab-sized temporaries per thread.  Every voxel goes through the same
array arithmetic in the same order on any thread, so the result is
deterministic and bit-identical at every thread budget.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import groupby

import numpy as np

from .core import (_SLAB_VOXELS, Volume, _as_triple, _check_number, _derived, _in_parallel,
                   _slabs, _threads)

__all__ = ["MclaheParams", "mclahe"]


@dataclass(frozen=True)
class MclaheParams:
    """Tile shape in voxels, histogram resolution, and clip fraction.

    ``kernel_size=None`` selects max(1, dim // 8) per axis at call time.
    """

    kernel_size: tuple[int, int, int] | None = None
    n_bins: int = 128
    clip_limit: float = 0.01

    def __post_init__(self):
        if self.kernel_size is not None:
            object.__setattr__(self, "kernel_size", _as_triple(self.kernel_size, "kernel_size"))
        _check_number(self.n_bins, "n_bins", integer=True, ge=2)
        _check_number(self.clip_limit, "clip_limit", gt=0, le=1)

    def resolve_kernel(self, shape: tuple[int, int, int]) -> tuple[int, int, int]:
        if self.kernel_size is not None:
            return self.kernel_size
        return tuple(max(1, d // 8) for d in shape)


def _row_tables(bins: np.ndarray, tx: int, kernel: tuple[int, int, int],
                ntiles: tuple[int, int, int], n_bins: int, clip_limit: float) -> np.ndarray:
    """Histogram, clip and map the tiles of tile row ``tx`` (one tile thick
    in x); the return value has shape (nty, ntz, n_bins).

    ``bins`` holds per-voxel bin indices on the unpadded grid.  Only this
    row is replicate-padded up to whole tiles, so every temporary here is
    a fraction of the grid.
    """
    kx, ky, kz = kernel
    _, nty, ntz = ntiles
    row = bins[tx * kx:(tx + 1) * kx]
    pad = [(0, n * k - s) for n, k, s in zip((1, nty, ntz), kernel, row.shape)]
    if any(p for _, p in pad):
        row = np.pad(row, pad, mode="edge")
    tid_yz = ((np.arange(nty * ky, dtype=np.int64) // ky)[:, None] * ntz
              + (np.arange(ntz * kz, dtype=np.int64) // kz)[None, :]) * n_bins
    # the flat (tile, bin) indices are int64, so they are counted one x-slab
    # of the row at a time
    hists = np.zeros(nty * ntz * n_bins, dtype=np.int64)
    for s in _slabs(row.shape):
        hists += np.bincount((tid_yz + row[s]).ravel(), minlength=hists.size)
    hists = hists.reshape(nty * ntz, n_bins)

    # clip every bin to the limit, then spread the excess in one pass: an
    # equal share to every bin, the remainder one count each to the lowest bins
    tile_voxels = kx * ky * kz
    limit = max(1, int(np.floor(clip_limit * tile_voxels + 0.5)))
    clipped = np.minimum(hists, limit)
    excess = tile_voxels - clipped.sum(axis=1)
    clipped += (excess // n_bins)[:, None]
    clipped += np.arange(n_bins)[None, :] < (excess % n_bins)[:, None]

    # normalized cumulative sum: the first occupied bin maps to 0 and the last
    # to 1; a tile with all its mass in one bin gets the identity ramp
    cdf = np.cumsum(clipped, axis=1)
    cdf_min = np.where(cdf > 0, cdf, np.iinfo(np.int64).max).min(axis=1)
    denom = cdf[:, -1] - cdf_min
    ramp = np.arange(n_bins, dtype=np.float64) / (n_bins - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tables = np.clip((cdf - cdf_min[:, None]) / denom[:, None], 0.0, 1.0)
    tables[denom == 0] = ramp
    return tables.reshape(nty, ntz, n_bins)


def _axis_interp(n: int, kernel: int, ntiles: int):
    """Per-axis lower tile index, upper tile index, and upper weight for every
    voxel, with clamping outside the tile-center lattice."""
    t = (np.arange(n, dtype=np.float64) + 0.5) / kernel - 0.5
    f = np.floor(t)
    frac = t - f
    i0 = np.clip(f.astype(np.int64), 0, ntiles - 1)
    i1 = np.clip(f.astype(np.int64) + 1, 0, ntiles - 1)
    return i0, i1, frac


def mclahe(v: Volume, params: MclaheParams | None = None) -> Volume:
    """Equalize a volume; output values lie in [0, 1] on the same grid."""
    return _equalize(v, params, np.empty(v.shape, dtype=np.float32))


def _mclahe_consume(v: Volume, params: MclaheParams | None = None) -> Volume:
    """``mclahe(v, params)`` written over ``v``'s own array, which the
    caller hands over: ``v`` must not be read again, so call it as
    ``v = _mclahe_consume(v, ...)`` on a volume whose array nothing else
    holds, such as one fresh from ``read_volume``."""
    out = v.data
    out.flags.writeable = True
    return _equalize(v, params, out)


def _equalize(v: Volume, params: MclaheParams | None, out: np.ndarray) -> Volume:
    """The equalized ``v``, written into the float32 array ``out`` of its
    shape, which may be ``v.data`` itself: ``v.data`` is last read before
    the first write to ``out``."""
    params = params or MclaheParams()
    data = v.data
    kernel = params.resolve_kernel(data.shape)
    n_bins = params.n_bins
    _, sy, sz = data.shape
    # a slab no thicker than a tile reads at most three tile rows; each of
    # the case's threads holds one slab's temporaries, so the slabs shrink
    # with the thread budget and the working set does not grow with it
    slabs = _slabs(data.shape, kernel[0], _SLAB_VOXELS // _threads())

    # pass 1: normalize and bin slab by slab, the slabs shared out over the
    # case's threads; only the bins are kept
    lo = float(data.min())
    hi = float(data.max())
    bins = np.zeros(data.shape, dtype=np.min_scalar_type(n_bins - 1))

    def bin_slab(s: slice) -> None:
        norm = data[s].astype(np.float64)
        norm -= lo
        norm /= hi - lo
        norm *= n_bins
        bins[s] = np.minimum(norm.astype(np.int32), n_bins - 1)

    if hi > lo:
        _in_parallel([partial(bin_slab, s) for s in slabs])

    # pass 2: blend the 8 nearest tile tables for every voxel into out
    # (weights depend only on the coordinate; data is not read again, so out
    # may be data), one slab at a time, in the corner order and weight
    # product order of the per-voxel formula.  The slabs go in groups that
    # start on the same tile row: a group's rows (at most three) are
    # built once, before its slabs are shared out over the case's threads,
    # and a row is dropped after the last group that reads it.  The rows are
    # stacked so each corner is a single take() of flattened (row, tile, bin)
    # indices.  Those are in range by construction, so "clip" only skips
    # numpy's slower checked path
    ntiles = tuple(-(-s // k) for s, k in zip(data.shape, kernel))
    _, nty, ntz = ntiles
    row_size = nty * ntz * n_bins
    (ix0, ix1, wx), (iy0, iy1, wy), (iz0, iz1, wz) = (
        _axis_interp(n, k, t) for n, k, t in zip(data.shape, kernel, ntiles))
    yzoff = {(cy, cz): (iy * (ntz * n_bins))[:, None] + (iz * n_bins)[None, :]
             for cy, iy in enumerate((iy0, iy1)) for cz, iz in enumerate((iz0, iz1))}
    wxs = (1.0 - wx[:, None, None], wx[:, None, None])
    wys = (1.0 - wy[None, :, None], wy[None, :, None])
    wzs = (1.0 - wz[None, None, :], wz[None, None, :])

    def blend(s: slice, flat: np.ndarray, first: int) -> None:
        acc = np.zeros((s.stop - s.start, sy, sz))
        for cx, ix in enumerate((ix0, ix1)):
            bx = bins[s] + ((ix[s] - first) * row_size)[:, None, None]
            for cy in (0, 1):
                wxy = wxs[cx][s] * wys[cy]
                for cz in (0, 1):
                    vals = flat.take(bx + yzoff[cy, cz], mode="clip")
                    vals *= wxy * wzs[cz]
                    acc += vals
        out[s] = np.clip(acc, 0.0, 1.0)

    rows = {}
    for first, group in groupby(slabs, key=lambda s: int(ix0[s.start])):
        group = list(group)
        rows = {tx: rows[tx] if tx in rows else
                _row_tables(bins, tx, kernel, ntiles, n_bins, params.clip_limit)
                for tx in range(first, int(ix1[group[-1].stop - 1]) + 1)}
        flat = np.stack(list(rows.values())).reshape(-1)
        _in_parallel([partial(blend, s, flat, first) for s in group])
    return _derived(Volume, data=out, spacing=v.spacing, orientation=v.orientation)
