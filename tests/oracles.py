"""Independent reference implementations used to validate the package.

Everything here is written the slow, obvious way (explicit loops, all-pairs
distance tables, textbook formulas) and deliberately avoids the package's
own vectorized code paths, so agreement between the two is meaningful.
``nifti1_header`` packs the header at the byte offsets nifti1.h documents,
not through the package's field table.  The exceptions are earlier,
simpler versions of rewritten routines
(``full_grid_evaluate_case``, ``whole_volume_mclahe``, ``x_fastest_payload``,
``gzipfile_bytes``, ``whole_grid_downsample_mean``, ``whole_grid_generate``,
``two_step_chain``), kept so that tests can require the rewrite to give the same results bit for
bit.
"""
from __future__ import annotations

import gzip
import io
import math
import struct
from fractions import Fraction

import numpy as np

from biatrium.core import DEFAULT_CLASS_MAP, LabelMap, Placement, Volume, _as_triple
from biatrium.metrics import MetricRow, confusion_counts, dice, hd95, surface_points


# -- NIfTI payload reference ------------------------------------------------

def x_fastest_payload(arr) -> bytes:
    """The NIfTI-1 payload of a 3D array (the bytes after the 352-byte
    header): x fastest, as the writer built it with one whole-array copy."""
    return np.asarray(arr).tobytes(order="F")


def nifti1_header(shape, dtype, spacing, orientation=None) -> bytes:
    """The 352 bytes before a written payload: the 348-byte NIfTI-1 header,
    each field the writer sets packed little-endian at its nifti1.h offset
    and every other byte zero, then 4 zero extension bytes.  ``orientation``
    (qfac, then qform_code .. srow_z) is copied as bytes; None is qfac 1
    and no qform or sform."""
    code, bitpix = {np.uint8: (2, 8), np.int16: (4, 16), np.float32: (16, 32)}[dtype]
    if orientation is None:
        orientation = struct.pack("<f", 1.0) + bytes(76)
    out = bytearray(352)
    struct.pack_into("<i", out, 0, 348)                      # sizeof_hdr
    out[38:39] = b"r"                                        # regular
    struct.pack_into("<8h", out, 40, 3, *shape, 1, 1, 1, 1)  # dim[8]
    struct.pack_into("<h", out, 70, code)                    # datatype
    struct.pack_into("<h", out, 72, bitpix)                  # bitpix
    out[76:80] = orientation[:4]                             # pixdim[0], qfac
    struct.pack_into("<3f", out, 80, *spacing)               # pixdim[1..3]
    struct.pack_into("<f", out, 108, 352.0)                  # vox_offset
    struct.pack_into("<f", out, 112, 1.0)                    # scl_slope
    struct.pack_into("<f", out, 116, 0.0)                    # scl_inter
    out[123] = 2                                             # xyzt_units: mm
    out[252:328] = orientation[4:]                           # qform_code .. srow_z[3]
    out[344:348] = b"n+1\x00"                                # magic
    return bytes(out)


def gzipfile_bytes(data: bytes) -> bytes:
    """``data`` as ``gzip.GzipFile`` writes it at level 9 with no file name
    and mtime 0, as the writer did for every ``.gz`` file.  (On Python 3.11
    ``gzip.compress(data, mtime=0)`` takes zlib's own header, whose OS byte
    is 3 rather than 255, so it is not this.)"""
    out = io.BytesIO()
    with gzip.GzipFile(filename="", fileobj=out, mode="wb", compresslevel=9, mtime=0) as gz:
        gz.write(data)
    return out.getvalue()


# -- whole-grid references for slab-streamed routines ------------------------

def whole_grid_downsample_mean(v, factors=(4, 4, 1)):
    """``biatrium.geometry.downsample_mean`` with one float64 copy of the
    whole grid."""
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



# -- the standard grid as an array: the geometry chain in two steps ----------

def _center_offset(src: int, dst: int) -> int:
    return (src - dst) // 2 if src >= dst else -((dst - src) // 2)


def _array_extract(v: Volume, offset, window, pad_value: float):
    place = Placement(parent_shape=v.shape, offset=offset, window_shape=window)
    if _array_is_identity(place):
        return Volume(data=v.data, spacing=v.spacing), place
    parent_sl, window_sl = _array_overlap(place)
    out = np.full(window, pad_value, dtype=v.data.dtype)
    out[window_sl] = v.data[parent_sl]
    return Volume(data=out, spacing=v.spacing), place


def array_standardize(v: Volume, target_shape, pad_value: float = 0.0):
    """``biatrium.geometry.standardize`` building the standard grid as an array."""
    target_shape = _as_triple(target_shape, "target_shape")
    offset = [_center_offset(s, t) for s, t in zip(v.shape, target_shape)]
    return _array_extract(v, offset, target_shape, pad_value)


def array_crop_window(v: Volume, center, window, pad_value: float = 0.0):
    """``biatrium.geometry.crop_window`` on a grid that exists as an array."""
    window = _as_triple(window, "window")
    center = _as_triple(center, "center", positive=False)
    offset = [min(max(c - w // 2, 0), s - w) if w <= s else _center_offset(s, w)
              for s, w, c in zip(v.shape, window, center)]
    return _array_extract(v, offset, window, pad_value)


def _array_is_identity(place: Placement) -> bool:
    return place.window_shape == place.parent_shape and not any(place.offset)


def _array_overlap(place: Placement):
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


def array_stitch(child, place: Placement, fill_value: float = 0.0):
    """``biatrium.geometry.stitch`` through one placement."""
    if isinstance(child, (LabelMap, Volume)):
        if _array_is_identity(place) and child.shape == place.window_shape:
            data = child.data
        else:
            data = array_stitch(child.data, place, fill_value)
        return type(child)(data=data, spacing=child.spacing)
    child = np.asarray(child)
    if child.shape != place.window_shape:
        raise ValueError(
            f"window shape {child.shape} does not match placement {place.window_shape}")
    parent_sl, window_sl = _array_overlap(place)
    out = np.full(place.parent_shape, fill_value, dtype=child.dtype)
    out[parent_sl] = child[window_sl]
    return out


def two_step_chain(v: Volume, standard_shape, factors, center, window, fine):
    """The pipeline's geometry with the standard grid built as an array:
    standardize, downsample, crop, then stitch the labels ``fine(fine_in)``
    back through the window and the standard placement one at a time.
    Returns (coarse_in, fine_in, labels on v's grid, to_original,
    to_standard)."""
    std, to_original = array_standardize(v, standard_shape)
    coarse_in = whole_grid_downsample_mean(std, factors)
    fine_in, to_standard = array_crop_window(std, center, window)
    labels = array_stitch(array_stitch(fine(fine_in), to_standard), to_original)
    return coarse_in, fine_in, labels, to_original, to_standard

def _inside(shape, spacing, e, grow_mm: float = 0.0) -> np.ndarray:
    axes = []
    for n, sp, c, r in zip(shape, spacing, e.center_mm, e.radii_mm):
        coords = np.arange(n, dtype=np.float64) * sp
        axes.append((coords - c) / (r + grow_mm))
    d2 = (axes[0][:, None, None] ** 2 + axes[1][None, :, None] ** 2
          + axes[2][None, None, :] ** 2)
    return d2 <= 1.0


def whole_grid_generate(spec):
    """``biatrium.phantom.generate`` with whole-grid masks, level lookup and
    one whole-grid noise draw."""
    la_cav = _inside(spec.shape, spec.spacing, spec.la)
    ra_cav = _inside(spec.shape, spec.spacing, spec.ra)
    if (la_cav & ra_cav).any():
        raise ValueError("la and ra cavities overlap")
    t = spec.wall_thickness_mm
    wall = (_inside(spec.shape, spec.spacing, spec.la, grow_mm=t)
            | _inside(spec.shape, spec.spacing, spec.ra, grow_mm=t))
    wall &= ~(la_cav | ra_cav)

    labels = np.zeros(spec.shape, dtype=np.uint8)
    labels[wall] = DEFAULT_CLASS_MAP["wall"]
    labels[ra_cav] = DEFAULT_CLASS_MAP["right_atrium"]
    labels[la_cav] = DEFAULT_CLASS_MAP["left_atrium"]

    levels = np.array([spec.level_background, spec.level_wall,
                       spec.level_cavity, spec.level_cavity], dtype=np.float32)
    image = levels[labels]
    if spec.noise_amplitude > 0:
        rng = np.random.default_rng(spec.seed)
        noise = rng.uniform(-spec.noise_amplitude, spec.noise_amplitude, size=spec.shape)
        image = (image.astype(np.float64) + noise).astype(np.float32)

    vol = Volume(data=image, spacing=spec.spacing)
    gt = LabelMap(data=labels, spacing=spec.spacing)
    return vol, gt


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


def region_points(m: LabelMap, class_code: int) -> np.ndarray:
    """Centers (mm) of every voxel of class ``class_code``, shape (n, 3):
    the point set of ``point_mode="region"``."""
    return np.argwhere(m.data == class_code).astype(np.float64) * np.asarray(m.spacing)


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
