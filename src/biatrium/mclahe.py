"""Contrast-limited adaptive histogram equalization for 3D volumes.

The volume is min-max normalized to [0, 1], replicate-padded up to a
multiple of the tile size, and split into tiles.  Each tile gets a clipped,
redistributed histogram whose normalized cumulative sum becomes a monotone
lookup table.  Every voxel is then mapped through a trilinear blend of the
tables of the 8 nearest tile centers (tile center at (index + 0.5) * tile
size; positions outside the center lattice clamp to the edge tile), and the
padding is cropped off.

All steps are plain array arithmetic, so the result is deterministic and
bit-identical across runs regardless of threading.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Volume, _as_triple

__all__ = ["MclaheParams", "mclahe", "clip_redistribute", "mapping_from_hist"]


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
    """Histogram, clip and map every tile at once.

    ``bins`` holds per-voxel bin indices on the padded grid; the return value
    has shape (ntx, nty, ntz, n_bins).
    """
    px, py, pz = bins.shape
    ntx, nty, ntz = ntiles
    kx, ky, kz = px // ntx, py // nty, pz // ntz
    tid_x = (np.arange(px, dtype=np.int64) // kx) * (nty * ntz)
    tid_y = (np.arange(py, dtype=np.int64) // ky) * ntz
    tid_z = np.arange(pz, dtype=np.int64) // kz
    flat = (
        tid_x[:, None, None] * n_bins
        + tid_y[None, :, None] * n_bins
        + tid_z[None, None, :] * n_bins
        + bins
    )
    hists = np.bincount(flat.ravel(), minlength=ntx * nty * ntz * n_bins)
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

    lo = float(data.min())
    hi = float(data.max())
    if hi > lo:
        norm = (data.astype(np.float64) - lo) / (hi - lo)
    else:
        norm = np.zeros(data.shape, dtype=np.float64)

    pad = tuple((-s) % k for s, k in zip(data.shape, kernel))
    if any(pad):
        norm = np.pad(norm, [(0, p) for p in pad], mode="edge")
    ntiles = tuple(s // k for s, k in zip(norm.shape, kernel))
    tile_voxels = int(np.prod(kernel))

    bins = np.minimum((norm * n_bins).astype(np.int32), n_bins - 1)
    tables = _tile_mappings(bins, ntiles, tile_voxels, n_bins, params.clip_limit)

    ix0, ix1, wx = _axis_interp(norm.shape[0], kernel[0], ntiles[0])
    iy0, iy1, wy = _axis_interp(norm.shape[1], kernel[1], ntiles[1])
    iz0, iz1, wz = _axis_interp(norm.shape[2], kernel[2], ntiles[2])

    # flatten (tile, bin) lookups so each corner is a single take();
    # corner offsets are built one at a time to bound peak memory
    ntx, nty, ntz, _ = tables.shape
    flat = tables.reshape(-1)
    itype = np.int32 if ntx * nty * ntz * n_bins < 2**31 else np.int64
    bins = bins.astype(itype, copy=False)
    xoff = (ix0 * (nty * ntz * n_bins), ix1 * (nty * ntz * n_bins))
    yoff = (iy0 * (ntz * n_bins), iy1 * (ntz * n_bins))
    zoff = (iz0 * n_bins, iz1 * n_bins)

    wx1, wy1, wz1 = wx[:, None, None], wy[None, :, None], wz[None, None, :]
    out = np.zeros(norm.shape, dtype=np.float64)
    for cx in (0, 1):
        for cy in (0, 1):
            for cz in (0, 1):
                idx = (
                    xoff[cx].astype(itype)[:, None, None]
                    + yoff[cy].astype(itype)[None, :, None]
                    + zoff[cz].astype(itype)[None, None, :]
                    + bins
                )
                vals = flat.take(idx)
                del idx
                w = (wx1 if cx else 1.0 - wx1) * (wy1 if cy else 1.0 - wy1) \
                    * (wz1 if cz else 1.0 - wz1)
                np.multiply(vals, w, out=vals)
                out += vals
                del vals

    sx, sy, sz = data.shape
    out = np.clip(out[:sx, :sy, :sz], 0.0, 1.0)
    return Volume(data=out.astype(np.float32), spacing=v.spacing)
