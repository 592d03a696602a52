"""Contrast-limited adaptive histogram equalization for 3D volumes.

The volume is min-max normalized to [0, 1], replicate-padded up to a
multiple of the tile size, and split into tiles.  Each tile gets a clipped,
redistributed histogram whose normalized cumulative sum becomes a monotone
lookup table.  Every voxel is then mapped through a trilinear blend of the
tables of the 8 nearest tile centers (tile center at (index + 0.5) * tile
size; positions outside the center lattice clamp to the edge tile); the
padding only feeds the edge tiles' histograms.

Binning and blending stream over x-slabs of about ``_SLAB_VOXELS`` voxels,
so besides the input and the per-tile tables the working set is the float32
output, one small unsigned bin index per voxel and fixed slab-sized
temporaries.  All steps are plain array arithmetic, so the result is
deterministic and bit-identical across runs regardless of threading.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Volume, _as_triple

__all__ = ["MclaheParams", "mclahe", "clip_redistribute", "mapping_from_hist"]

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
        if self.n_bins < 2:
            raise ValueError(f"n_bins must be >= 2, got {self.n_bins}")
        if not 0.0 < self.clip_limit <= 1.0:
            raise ValueError(f"clip_limit must be in (0, 1], got {self.clip_limit}")

    def resolve_kernel(self, shape: tuple[int, int, int]) -> tuple[int, int, int]:
        if self.kernel_size is not None:
            return self.kernel_size
        return tuple(max(1, d // 8) for d in shape)


def clip_redistribute(hist: np.ndarray, tile_voxels: int, clip_limit: float) -> np.ndarray:
    """Clip bins to ``max(1, round(clip_limit * tile_voxels))`` and spread the
    excess in a single pass: an equal share to every bin, remainder one count
    each to the lowest-index bins.  The total count is preserved; bins may end
    above the limit."""
    hist = np.asarray(hist, dtype=np.int64)
    if hist.sum() != tile_voxels:
        raise ValueError(f"histogram sums to {hist.sum()}, expected tile_voxels={tile_voxels}")
    limit = max(1, int(np.floor(clip_limit * tile_voxels + 0.5)))
    clipped = np.minimum(hist, limit)
    excess = int(hist.sum() - clipped.sum())
    n = hist.shape[0]
    clipped += excess // n
    clipped[: excess % n] += 1
    return clipped


def mapping_from_hist(hist: np.ndarray) -> np.ndarray:
    """Bin-index -> [0, 1] lookup table from a histogram's cumulative sum.

    The first occupied bin maps to 0 and the last to 1; when all mass sits in
    a single bin the table degenerates to the identity ramp b / (n_bins - 1).
    Values are clamped to [0, 1] so bins below the first occupied bin do not
    go negative.
    """
    hist = np.asarray(hist, dtype=np.int64)
    if hist.sum() <= 0:
        raise ValueError("histogram is empty")
    cdf = np.cumsum(hist)
    cdf_min = cdf[cdf > 0].min()
    denom = cdf[-1] - cdf_min
    n = hist.shape[0]
    if denom == 0:
        return np.arange(n, dtype=np.float64) / (n - 1)
    return np.clip((cdf - cdf_min) / denom, 0.0, 1.0)


def _tile_mappings(bins: np.ndarray, ntiles: tuple[int, int, int], tile_voxels: int,
                   n_bins: int, clip_limit: float) -> np.ndarray:
    """Histogram, clip and map every tile.

    ``bins`` holds per-voxel bin indices on the padded grid; the return value
    has shape (ntx, nty, ntz, n_bins).  Histogram keys are built one tile row
    (one tile thick in x) at a time, so the int64 temporary stays a fraction
    of the grid.
    """
    px, py, pz = bins.shape
    ntx, nty, ntz = ntiles
    kx, ky, kz = px // ntx, py // nty, pz // ntz
    tid_yz = ((np.arange(py, dtype=np.int64) // ky)[:, None] * ntz
              + (np.arange(pz, dtype=np.int64) // kz)[None, :]) * n_bins
    row = nty * ntz * n_bins
    hists = np.empty((ntx, row), dtype=np.int64)
    for tx in range(ntx):
        keys = tid_yz + bins[tx * kx:(tx + 1) * kx]
        hists[tx] = np.bincount(keys.ravel(), minlength=row)
    hists = hists.reshape(ntx * nty * ntz, n_bins)

    # vectorized clip_redistribute across all tiles
    limit = max(1, int(np.floor(clip_limit * tile_voxels + 0.5)))
    clipped = np.minimum(hists, limit)
    excess = tile_voxels - clipped.sum(axis=1)
    clipped += (excess // n_bins)[:, None]
    clipped += np.arange(n_bins)[None, :] < (excess % n_bins)[:, None]

    # vectorized mapping_from_hist
    cdf = np.cumsum(clipped, axis=1)
    cdf_min = np.where(cdf > 0, cdf, np.iinfo(np.int64).max).min(axis=1)
    denom = cdf[:, -1] - cdf_min
    ramp = np.arange(n_bins, dtype=np.float64) / (n_bins - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tables = np.clip((cdf - cdf_min[:, None]) / denom[:, None], 0.0, 1.0)
    tables[denom == 0] = ramp
    return tables.reshape(ntx, nty, ntz, n_bins)


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
    step = max(1, _SLAB_VOXELS // (sy * sz))
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

    pad = tuple((-s) % k for s, k in zip(data.shape, kernel))
    padded = np.pad(bins, [(0, p) for p in pad], mode="edge") if any(pad) else bins
    ntiles = tuple(s // k for s, k in zip(padded.shape, kernel))
    tables = _tile_mappings(padded, ntiles, int(np.prod(kernel)), n_bins, params.clip_limit)
    del padded

    # pass 2: blend the 8 nearest tile tables for the unpadded voxels only
    # (weights depend only on the coordinate), one slab at a time, in the
    # corner order and weight product order of the per-voxel formula.
    # (tile, bin) lookups are flattened so each corner is a single take();
    # its indices are in range by construction, so "clip" only skips numpy's
    # slower checked path
    ntx, nty, ntz, _ = tables.shape
    flat = tables.reshape(-1)
    (ix0, ix1, wx), (iy0, iy1, wy), (iz0, iz1, wz) = (
        _axis_interp(n, k, t) for n, k, t in zip(data.shape, kernel, ntiles))
    xoff = tuple(i * (nty * ntz * n_bins) for i in (ix0, ix1))
    yzoff = {(cy, cz): (iy * (ntz * n_bins))[:, None] + (iz * n_bins)[None, :]
             for cy, iy in enumerate((iy0, iy1)) for cz, iz in enumerate((iz0, iz1))}
    wxs = (1.0 - wx[:, None, None], wx[:, None, None])
    wys = (1.0 - wy[None, :, None], wy[None, :, None])
    wzs = (1.0 - wz[None, None, :], wz[None, None, :])

    out = np.empty(data.shape, dtype=np.float32)
    for s in slabs:
        acc = np.zeros((s.stop - s.start, sy, sz))
        for cx in (0, 1):
            bx = bins[s] + xoff[cx][s, None, None]
            for cy in (0, 1):
                wxy = wxs[cx][s] * wys[cy]
                for cz in (0, 1):
                    vals = flat.take(bx + yzoff[cy, cz], mode="clip")
                    vals *= wxy * wzs[cz]
                    acc += vals
        out[s] = np.clip(acc, 0.0, 1.0)
    return Volume(data=out, spacing=v.spacing)
