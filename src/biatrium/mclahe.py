"""Contrast-limited adaptive histogram equalization for 3D volumes.

The volume is min-max normalized to [0, 1], replicate-padded up to a
multiple of the tile size, and split into tiles.  Each tile gets a clipped,
redistributed histogram whose normalized cumulative sum becomes a monotone
lookup table.  Every voxel is then mapped through a trilinear blend of the
tables of the 8 nearest tile centers (tile center at (index + 0.5) * tile
size; positions outside the center lattice clamp to the edge tile); the
padding only feeds the edge tiles' histograms.

Binning and blending stream over x-slabs of about ``_SLAB_VOXELS`` voxels,
no thicker than one tile.  A tile row's tables are built when the first
slab that reads them arrives and dropped after the last, so at most three
rows are held at once and table memory follows one tile row, not the tile
grid.  Besides the input, the working set is the float32 output, one small
unsigned bin index per voxel and slab- and row-sized temporaries.  All
steps are plain array arithmetic, so the result is deterministic and
bit-identical across runs regardless of threading.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .core import Volume, _as_triple

__all__ = ["MclaheParams", "mclahe"]

# Voxels per x-slab in the streamed passes: each slab temporary (512 KiB of
# float64) stays cache-resident.  Speed is flat from 2**13 to 2**17.
_SLAB_VOXELS = 1 << 16


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
        n = self.n_bins
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2:
            raise ValueError(f"n_bins must be an int >= 2, got {n!r}")
        if not 0.0 < self.clip_limit <= 1.0:
            raise ValueError(f"clip_limit must be in (0, 1], got {self.clip_limit}")

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
    hists = np.bincount((tid_yz + row).ravel(), minlength=nty * ntz * n_bins)
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
    params = params or MclaheParams()
    data = v.data
    kernel = params.resolve_kernel(data.shape)
    n_bins = params.n_bins
    sx, sy, sz = data.shape
    # a slab no thicker than a tile reads at most three tile rows
    step = max(1, min(kernel[0], _SLAB_VOXELS // (sy * sz)))
    slabs = [slice(x0, min(x0 + step, sx)) for x0 in range(0, sx, step)]

    # pass 1: normalize and bin slab by slab; only the bins are kept
    lo = float(data.min())
    hi = float(data.max())
    bins = np.zeros(data.shape, dtype=np.min_scalar_type(n_bins - 1))
    if hi > lo:
        for s in slabs:
            norm = data[s].astype(np.float64)
            norm -= lo
            norm /= hi - lo
            norm *= n_bins
            bins[s] = np.minimum(norm.astype(np.int32), n_bins - 1)

    # pass 2: blend the 8 nearest tile tables for every voxel (weights depend
    # only on the coordinate), one slab at a time, in the corner order and
    # weight product order of the per-voxel formula.  A tile row's tables are
    # built when the first slab that reads them arrives and dropped after the
    # last; the rows a slab reads are stacked so each corner is a single
    # take() of flattened (row, tile, bin) indices.  Those are in range by
    # construction, so "clip" only skips numpy's slower checked path
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

    rows = {}
    out = np.empty(data.shape, dtype=np.float32)
    for s in slabs:
        first, last = int(ix0[s.start]), int(ix1[s.stop - 1])
        rows = {tx: rows[tx] if tx in rows else
                _row_tables(bins, tx, kernel, ntiles, n_bins, params.clip_limit)
                for tx in range(first, last + 1)}
        flat = np.stack(list(rows.values())).reshape(-1)
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
    return Volume(data=out, spacing=v.spacing)
