"""Contrast-limited adaptive histogram equalization for 3D volumes.

The volume is min-max normalized to [0, 1], replicate-padded up to a
multiple of the tile size, and split into tiles.  Each tile gets a clipped,
redistributed histogram whose normalized cumulative sum becomes a monotone
lookup table.  Every voxel is then mapped through a trilinear blend of the
tables of the 8 nearest tile centers (tile center at (index + 0.5) * tile
size; positions outside the center lattice clamp to the edge tile); the
padding only feeds the edge tiles' histograms.

Binning and blending stream over x-slabs of about ``core._SLAB_VOXELS``
voxels.  Binning runs on the calling thread.  The blend goes run by run,
where a run is the x-planes that read the same two tile rows, and each of
the case's threads takes the next slab of the run not yet taken.  A tile
row's tables are built once, before the first run that reads them, shared
by every thread and dropped after the last, so at most three rows are
held at once (two while a run blends).  Blending reads only the bins and
the tables, so ``mclahe`` allocates a new float32 output and
``_mclahe_consume`` writes over an input its caller owns.  Besides the
input and the output, the working set is a small unsigned bin index per
voxel, slab-sized temporaries per thread and tables that follow one tile
row, not the tile grid: ``n_bins`` entries per tile of a row, in several
int64 and float64 arrays as ``_row_tables`` builds them, so many bins on
small tiles outgrow the grid (kernel (8, 8, 2) on a 48x48x12 float32
volume of 0.11 MiB traces 0.8 MiB at 256 bins, 126.8 MiB at 65536).  The
same array arithmetic runs in the same order on any thread, so the result
is deterministic and bit-identical at every thread budget.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (_SLAB_VOXELS, Volume, _as_triple, _check_number, _derived, _in_parallel,
                   _slabs, _threads)

__all__ = ["MclaheParams", "mclahe"]


@dataclass(frozen=True)
class MclaheParams:
    """Tile shape in voxels, histogram resolution, and clip fraction.

    ``kernel_size=None`` selects max(1, dim // 8) per axis at call time.
    ``n_bins`` is at most 65536, so each voxel's bin index fits a uint16.
    """

    kernel_size: tuple[int, int, int] | None = None
    n_bins: int = 128
    clip_limit: float = 0.01

    def __post_init__(self):
        if self.kernel_size is not None:
            object.__setattr__(self, "kernel_size", _as_triple(self.kernel_size, "kernel_size"))
        _check_number(self.n_bins, "n_bins", integer=True, ge=2, le=65536)
        _check_number(self.clip_limit, "clip_limit", gt=0, le=1)

    def resolve_kernel(self, shape: tuple[int, int, int]) -> tuple[int, int, int]:
        if self.kernel_size is not None:
            return self.kernel_size
        return tuple(max(1, d // 8) for d in shape)


def _row_tables(bins: np.ndarray, tx: int, kernel: tuple[int, int, int],
                ntiles: tuple[int, int, int], n_bins: int, clip_limit: float) -> np.ndarray:
    """Histogram, clip and map the tiles of tile row ``tx`` (one tile thick
    in x); the return value has shape (nty, ntz, n_bins).

    ``bins`` holds per-voxel bin indices on the unpadded grid.  Tiles past
    its edge are replicate-padded, which only repeats each axis's last
    index, and that index lies in the axis's last tile.  So the padded row
    is never built: a voxel counts 1 + pad times along each axis where it
    holds the last index, and every temporary here is a fraction of the
    grid whatever the kernel.
    """
    kx, ky, kz = kernel
    _, nty, ntz = ntiles
    row = bins[tx * kx:(tx + 1) * kx]
    pads = [n * k - s for n, k, s in zip((1, nty, ntz), kernel, row.shape)]
    if any(pads):
        wx, wy, wz = (np.concatenate([np.ones(s - 1), [1.0 + p]]) for s, p in zip(row.shape, pads))
        wyz = wy[:, None] * wz[None, :]
    tid_yz = ((np.arange(row.shape[1], dtype=np.int64) // ky)[:, None] * ntz
              + (np.arange(row.shape[2], dtype=np.int64) // kz)[None, :]) * n_bins
    # the flat (tile, bin) indices are int64, so they are counted one x-slab
    # of the row at a time; padded counts are whole float64s below 2**53,
    # so exact
    hists = np.zeros(nty * ntz * n_bins, dtype=np.int64)
    for s in _slabs(row.shape):
        weights = (wx[s, None, None] * wyz).ravel() if any(pads) else None
        hists += np.bincount((tid_yz + row[s]).ravel(), weights,
                             minlength=hists.size).astype(np.int64, copy=False)
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
    sx, sy, sz = data.shape

    # pass 1: normalize and bin slab by slab on this thread (shared out over
    # threads it took no less wall time); only the bins are kept
    lo = float(data.min())
    hi = float(data.max())
    bins = np.zeros(data.shape, dtype=np.min_scalar_type(n_bins - 1))
    if hi > lo:
        for s in _slabs(data.shape):
            norm = data[s].astype(np.float64)
            norm -= lo
            norm /= hi - lo
            norm *= n_bins
            bins[s] = np.minimum(norm.astype(np.int32), n_bins - 1)
        del norm  # the last slab's temporary is not held through pass 2

    # pass 2: blend the 8 nearest tile tables for every voxel into out
    # (weights depend only on the coordinate; data is not read again, so out
    # may be data), in the corner order and weight product order of the
    # per-voxel formula.  The x-axis is cut wherever the two nearest tile
    # rows (ix0, ix1) change; a run's voxels read only those rows' tables,
    # built once before its slabs are shared out over the case's threads.
    # Each thread holds one slab's temporaries, so the slabs shrink with the
    # thread budget and the working set does not grow with it; a row is
    # dropped once the next run's rows are built.  The take() indices are
    # in range by construction, so "clip" only skips numpy's slower checked
    # path
    ntiles = tuple(-(-s // k) for s, k in zip(data.shape, kernel))
    _, _, ntz = ntiles
    (ix0, ix1, wx), (iy0, iy1, wy), (iz0, iz1, wz) = (
        _axis_interp(n, k, t) for n, k, t in zip(data.shape, kernel, ntiles))
    yzoff = {(cy, cz): (iy * (ntz * n_bins))[:, None] + (iz * n_bins)[None, :]
             for cy, iy in enumerate((iy0, iy1)) for cz, iz in enumerate((iz0, iz1))}
    wxs = (1.0 - wx[:, None, None], wx[:, None, None])
    wys = (1.0 - wy[None, :, None], wy[None, :, None])
    wzs = (1.0 - wz[None, None, :], wz[None, None, :])

    def blend(s: slice, tables: list[np.ndarray]) -> None:
        acc = np.zeros((s.stop - s.start, sy, sz))
        at = bins[s].astype(np.intp)  # widened once, not once per corner
        for cx, table in enumerate(tables):
            for cy in (0, 1):
                wxy = wxs[cx][s] * wys[cy]
                for cz in (0, 1):
                    vals = table.take(at + yzoff[cy, cz], mode="clip")
                    vals *= wxy * wzs[cz]
                    acc += vals
        out[s] = np.clip(acc, 0.0, 1.0)

    rows = {}
    cuts = [0, *(np.flatnonzero(np.diff(ix0) | np.diff(ix1)) + 1).tolist(), sx]
    for a, b in zip(cuts, cuts[1:]):
        pair = (int(ix0[a]), int(ix1[a]))
        rows = {tx: rows[tx] if tx in rows else
                _row_tables(bins, tx, kernel, ntiles, n_bins, params.clip_limit)
                for tx in pair}
        _in_parallel([partial(blend, slice(a + s.start, a + s.stop), [rows[tx] for tx in pair])
                      for s in _slabs((b - a, sy, sz), _SLAB_VOXELS // _threads())])
    return _derived(Volume, data=out, spacing=v.spacing, orientation=v.orientation)
