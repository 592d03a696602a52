"""Independent reference implementations used to validate the package.

Everything here is written the slow, obvious way (explicit loops, all-pairs
distance tables, textbook formulas) and deliberately avoids the package's
own vectorized code paths, so agreement between the two is meaningful.
The exceptions are earlier, simpler versions of rewritten routines
(``full_grid_evaluate_case``, ``whole_volume_mclahe``, ``x_fastest_payload``),
kept so that tests can require the rewrite to give the same results bit for
bit.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from biatrium.core import DEFAULT_CLASS_MAP
from biatrium.metrics import (MetricRow, confusion_counts, dice, hd95, region_points,
                              surface_points)


# -- NIfTI payload reference ------------------------------------------------

def x_fastest_payload(arr) -> bytes:
    """The NIfTI-1 payload of a 3D array (the bytes after the 352-byte
    header): x fastest, as the writer built it with one whole-array copy."""
    return np.asarray(arr).tobytes(order="F")


# -- loss references --------------------------------------------------------

def bce(y: int, p: float, eps: float = 1e-7) -> float:
    p = min(max(p, eps), 1.0 - eps)
    return -math.log(p) if y == 1 else -math.log(1.0 - p)


def focal(y: int, p: float, gamma: float, eps: float = 1e-7) -> float:
    p = min(max(p, eps), 1.0 - eps)
    if y == 1:
        return -((1.0 - p) ** gamma) * math.log(p)
    return -(p ** gamma) * math.log(1.0 - p)


# -- metric references ------------------------------------------------------

def brute_confusion(pred: np.ndarray, gt: np.ndarray, code: int) -> tuple[int, int, int]:
    tp = fp = fn = 0
    for pv, gv in zip(pred.ravel(), gt.ravel()):
        if pv == code and gv == code:
            tp += 1
        elif pv == code:
            fp += 1
        elif gv == code:
            fn += 1
    return tp, fp, fn


def brute_surface_points(arr: np.ndarray, spacing, code: int) -> np.ndarray:
    nx, ny, nz = arr.shape
    pts = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                if arr[i, j, k] != code:
                    continue
                on_surface = False
                for di, dj, dk in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    ni, nj, nk = i + di, j + dj, k + dk
                    if not (0 <= ni < nx and 0 <= nj < ny and 0 <= nk < nz):
                        on_surface = True
                        break
                    if arr[ni, nj, nk] != code:
                        on_surface = True
                        break
                if on_surface:
                    pts.append((i * spacing[0], j * spacing[1], k * spacing[2]))
    return np.array(pts, dtype=np.float64).reshape(-1, 3)


def _all_pairs_nn(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min_j |a_i - b_j| for every i via a full distance table."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2)).min(axis=1)


def brute_hd95(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) == 0 and len(b) == 0:
        return 0.0
    if len(a) == 0 or len(b) == 0:
        return float("inf")
    pooled = sorted(_all_pairs_nn(a, b).tolist() + _all_pairs_nn(b, a).tolist())
    n = len(pooled)
    rank = math.ceil(Fraction(95, 100) * n)  # exact rational arithmetic
    return float(pooled[rank - 1])


def brute_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) == 0 and len(b) == 0:
        return 0.0
    if len(a) == 0 or len(b) == 0:
        return float("inf")
    return float(max(_all_pairs_nn(a, b).max(), _all_pairs_nn(b, a).max()))


def brute_dice(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 1.0 if denom == 0 else 2.0 * tp / denom


def full_grid_evaluate_case(pred, gt, classes=None, case_id="case", point_mode="surface"):
    """``biatrium.metrics.evaluate_case`` as it was before it cropped to the
    union foreground box: per-class masks, surfaces and KD-tree queries over
    the whole grid, composed from the package's public full-grid metrics."""
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


# -- histogram equalization references --------------------------------------

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


def global_hist_eq(data: np.ndarray, n_bins: int) -> np.ndarray:
    """Plain full-volume histogram equalization on min-max normalized data."""
    lo, hi = float(data.min()), float(data.max())
    if hi == lo:
        norm = np.zeros(data.shape, dtype=np.float64)
    else:
        norm = (data.astype(np.float64) - lo) / (hi - lo)
    flat = norm.ravel()
    hist = [0] * n_bins
    for v in flat:
        b = min(int(v * n_bins), n_bins - 1)
        hist[b] += 1
    cdf = np.cumsum(hist)
    cdf_min = int(cdf[np.nonzero(hist)[0][0]])
    denom = int(cdf[-1]) - cdf_min
    out = np.empty(flat.shape, dtype=np.float64)
    for i, v in enumerate(flat):
        b = min(int(v * n_bins), n_bins - 1)
        if denom == 0:
            out[i] = b / (n_bins - 1)
        else:
            out[i] = min(max((int(cdf[b]) - cdf_min) / denom, 0.0), 1.0)
    return out.reshape(data.shape)


def naive_mclahe(data: np.ndarray, kernel, n_bins: int, clip_limit: float) -> np.ndarray:
    """Per-voxel loop reimplementation of tiled adaptive equalization."""
    lo, hi = float(data.min()), float(data.max())
    if hi == lo:
        norm = np.zeros(data.shape, dtype=np.float64)
    else:
        norm = (data.astype(np.float64) - lo) / (hi - lo)
    pad = [(0, (-s) % k) for s, k in zip(data.shape, kernel)]
    padded = np.pad(norm, pad, mode="edge")
    ntiles = tuple(s // k for s, k in zip(padded.shape, kernel))
    tile_voxels = kernel[0] * kernel[1] * kernel[2]
    limit = max(1, math.floor(clip_limit * tile_voxels + 0.5))

    tables = {}
    for tx in range(ntiles[0]):
        for ty in range(ntiles[1]):
            for tz in range(ntiles[2]):
                block = padded[tx * kernel[0]:(tx + 1) * kernel[0],
                               ty * kernel[1]:(ty + 1) * kernel[1],
                               tz * kernel[2]:(tz + 1) * kernel[2]]
                hist = [0] * n_bins
                for v in block.ravel():
                    hist[min(int(v * n_bins), n_bins - 1)] += 1
                clipped = [min(h, limit) for h in hist]
                excess = tile_voxels - sum(clipped)
                share, rem = divmod(excess, n_bins)
                clipped = [c + share + (1 if i < rem else 0)
                           for i, c in enumerate(clipped)]
                cdf = np.cumsum(clipped)
                cdf_min = int(cdf[np.nonzero(clipped)[0][0]])
                denom = int(cdf[-1]) - cdf_min
                if denom == 0:
                    table = np.arange(n_bins, dtype=np.float64) / (n_bins - 1)
                else:
                    table = np.clip((cdf - cdf_min) / denom, 0.0, 1.0)
                tables[(tx, ty, tz)] = table

    out = np.empty(padded.shape, dtype=np.float64)
    for i in range(padded.shape[0]):
        for j in range(padded.shape[1]):
            for k in range(padded.shape[2]):
                b = min(int(padded[i, j, k] * n_bins), n_bins - 1)
                acc = 0.0
                weights = []
                for idx, kv, nt in (((i), kernel[0], ntiles[0]),
                                    ((j), kernel[1], ntiles[1]),
                                    ((k), kernel[2], ntiles[2])):
                    t = (idx + 0.5) / kv - 0.5
                    f = math.floor(t)
                    weights.append((f, t - f, nt))
                for cx in (0, 1):
                    for cy in (0, 1):
                        for cz in (0, 1):
                            w = 1.0
                            tile = []
                            for (f, frac, nt), c in zip(weights, (cx, cy, cz)):
                                w *= frac if c else 1.0 - frac
                                tile.append(min(max(f + c, 0), nt - 1))
                            acc += w * tables[tuple(tile)][b]
                out[i, j, k] = acc
    sx, sy, sz = data.shape
    return np.clip(out[:sx, :sy, :sz], 0.0, 1.0)


def whole_volume_mclahe(data: np.ndarray, kernel, n_bins: int, clip_limit: float) -> np.ndarray:
    """The unstreamed vectorized MCLAHE: full-grid float64 normalization,
    one bincount over the whole padded grid, and each corner of the blend
    taken over the whole padded grid before cropping.  Returns float32."""
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
    limit = max(1, int(np.floor(clip_limit * tile_voxels + 0.5)))
    clipped = np.minimum(hists, limit)
    excess = tile_voxels - clipped.sum(axis=1)
    clipped += (excess // n_bins)[:, None]
    clipped += np.arange(n_bins)[None, :] < (excess % n_bins)[:, None]
    cdf = np.cumsum(clipped, axis=1)
    cdf_min = np.where(cdf > 0, cdf, np.iinfo(np.int64).max).min(axis=1)
    denom = cdf[:, -1] - cdf_min
    ramp = np.arange(n_bins, dtype=np.float64) / (n_bins - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tables = np.clip((cdf - cdf_min[:, None]) / denom[:, None], 0.0, 1.0)
    tables[denom == 0] = ramp
    tables = tables.reshape(ntx, nty, ntz, n_bins)

    def axis_interp(n, k, nt):
        t = (np.arange(n, dtype=np.float64) + 0.5) / k - 0.5
        f = np.floor(t)
        i0 = np.clip(f.astype(np.int64), 0, nt - 1)
        i1 = np.clip(f.astype(np.int64) + 1, 0, nt - 1)
        return i0, i1, t - f

    ix0, ix1, wx = axis_interp(norm.shape[0], kernel[0], ntiles[0])
    iy0, iy1, wy = axis_interp(norm.shape[1], kernel[1], ntiles[1])
    iz0, iz1, wz = axis_interp(norm.shape[2], kernel[2], ntiles[2])

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
    return out.astype(np.float32)
