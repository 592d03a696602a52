"""NIfTI-1 subset reader/writer plus JSON placement sidecars.

Supported subset: single-file ``n+1`` images, 3 spatial dimensions, datatypes
uint8 (2), int16 (4) and float32 (16).  Files are written little-endian with
the 348-byte header and vox_offset 352; big-endian files are detected on read
(dim[0] outside 1..7 under a little-endian parse) and byte-swapped.  Gzip
containers are auto-detected by their 0x1F 0x8B prefix.  Spatial units must
be mm (or unknown, taken as mm).  The header fields read or written are
sizeof_hdr, regular, dim, datatype, bitpix, pixdim[0:4], vox_offset,
scl_slope, scl_inter, xyzt_units, qform_code through srow_z and magic; every
other header byte is written as zero and ignored on read.  The orientation
block, qfac (pixdim[0]) and then the qform/sform fields, is carried through
as little-endian bytes and never interpreted.

Arrays are C order (z fastest) in memory and x-fastest on disk; this module
is the only place that knows the disk order.  Reads hand out fresh
C-contiguous arrays in native byte order.  Reads and writes both stream a
few z-planes at a time through one reused buffer, so either holds a
fraction of the array beyond the array itself.  A read checks the payload
its header declares against what the file can hold before it allocates.
Raw reads and writes carry NaN and inf; ``read_volume`` refuses them, naming the file.

Gzip files are one deflate member at level 9.  A uint8 array whose
foreground deflates much smaller with zlib's default strategy than with
``Z_RLE``, as a label map of whole structures does, takes the default
strategy, byte for byte what ``gzip.GzipFile`` writes; so does an all-zero
one.  Every other array, such as an MRI image, a threshold mask with ragged
edges or a speckled prediction, takes ``Z_RLE``, which deflates it many
times faster and, on such content, about as small.  The choice comes from a
size trial on a small sample of the foreground, never from a timing, so the
same array always gives the same bytes.
"""
from __future__ import annotations

import gzip
import os
import struct
import zlib
from contextlib import contextmanager
from typing import IO, Iterator, Mapping

import numpy as np

from .core import (ConfigError, EmptyMaskError, LabelMap, NiftiFormatError, Placement, Volume,
                   _as_json, _as_triple, _atomic_open, _grid, _read_config,
                   _write_json, check_label_codes)
from .geometry import bbox_from_mask

__all__ = [
    "read_volume",
    "write_volume",
    "read_labelmap",
    "read_nifti",
    "write_nifti",
    "read_placement",
    "write_placement",
]

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC = b"n+1\x00"
GZIP_MAGIC = b"\x1f\x8b"

# datatype code -> numpy dtype (byte order applied at parse time)
DTYPE_CODES = {2: np.uint8, 4: np.int16, 16: np.float32}
_CODE_FOR_DTYPE = {np.dtype(v): k for k, v in DTYPE_CODES.items()}

# name -> (byte offset, struct format) of each header field the docstring names;
# the orientation block's are unsigned, as a float would quiet a signalling NaN.
_HEADER = {
    "sizeof_hdr": (0, "i"),
    "regular": (38, "c"),
    "dim": (40, "8h"),
    "datatype": (70, "h"),
    "bitpix": (72, "h"),
    "qfac": (76, "I"),  # pixdim[0]
    "pixdim": (80, "3f"),  # pixdim[1:4], the spacing
    "vox_offset": (108, "f"),
    "scl": (112, "2f"),  # scl_slope, scl_inter
    "xyzt_units": (123, "B"),
    "qform_sform": (252, "2H18I"),  # the codes, quaternion, offsets and srows
    "magic": (344, "4s"),
}
# The 80-byte orientation block read_nifti returns and write_nifti takes.
_ORIENTATION = struct.Struct("<" + _HEADER["qfac"][1] + _HEADER["qform_sform"][1])

# Edge of the cubic blocks a transpose copies at a time: 64**3 float32 is
# 1 MiB, so a block of the source and of the destination stay in cache.
_TILE = 64
# z-planes per read or write chunk: each access to the C-order array takes a
# run of z values rather than one, and the buffer stays a small part of the
# array.  Fewer planes make the transpose slower: with 1 plane a plain read
# of a 576x576x48 float32 file takes about 2.4x as long.
_CHUNK_Z = 8
# Most bytes asked of one ``readinto``: gzip's reader builds a temporary of
# about three times the request.
_READ_CAP = 1 << 18
# deflate's largest expansion, output bytes per input byte (RFC 1951: a
# 258-byte match in 2 bits); the bound on what a gzip file can decompress to.
_DEFLATE_MAX_RATIO = 1032
# The deflate strategy trial on a uint8 array's foreground box: a sample of
# its middle z-planes, one in _TRIAL_PLANES (rounded up) and at most
# _TRIAL_BYTES (the middle rows of one plane where a plane is over that),
# deflates with both strategies, and the default strategy wins only if the
# Z_RLE sample is more than _RLE_MARGIN times its size.  On that sample the
# paper-scale and default phantom ground truths read 1.92 and 1.86, and
# threshold masks of noisy images 0.86.  Speckle over a paper-scale map
# reads 1.15-1.29 from 0.5% to 20%, where the default strategy is 16-240
# times as slow (53 s at 20%) for at most a fifth less; lighter speckle
# reads up to 1.55, but there either strategy writes in under 0.5 s.  The
# trial's cost is its default-strategy deflate, which is slowest on dense
# speckle: a larger sample costs more than linearly (20% speckle: 48 ms at
# 32 KiB, 335 ms at 128 KiB).
_TRIAL_PLANES = 32
_TRIAL_BYTES = 1 << 15
_RLE_MARGIN = 1.4


@contextmanager
def _open_for_read(path) -> Iterator[tuple[IO[bytes], int]]:
    """The file at ``path`` opened once for reading, decompressed if it
    starts with the gzip magic, and the most bytes the stream can yield:
    the file size, or for gzip the file size times deflate's largest
    expansion.  Both come from the one open file."""
    with open(path, "rb") as f:
        magic = f.read(2)
        size = os.fstat(f.fileno()).st_size
        f.seek(0)
        if magic != GZIP_MAGIC:
            yield f, size
            return
        with gzip.GzipFile(fileobj=f, mode="rb") as gz:
            yield gz, _DEFLATE_MAX_RATIO * size


def _fill(f, buf, path) -> int:
    """Read ``f`` into the bytes of ``buf`` until it is full or the stream
    ends, at most ``_READ_CAP`` bytes a call; return the bytes read."""
    view = memoryview(buf).cast("B")
    n = 0
    try:
        while n < len(view) and (got := f.readinto(view[n:n + _READ_CAP])):
            n += got
    except (EOFError, zlib.error, gzip.BadGzipFile) as e:
        raise NiftiFormatError(f"{path}: corrupt or truncated stream: {e}") from e
    return n


def read_nifti(path) -> tuple[np.ndarray, tuple[float, float, float], bytes]:
    """Decode a NIfTI file to (array in native dtype, spacing, orientation bytes).

    Header scaling (scl_slope/scl_inter) is NOT applied here; callers that
    want scaled float data use :func:`read_volume`.
    """
    arr, spacing, orient, _ = _read_raw(path)
    return arr, spacing, orient


def _read_raw(path, dtype=None, check=None):
    """(array, spacing, orientation bytes, (scl_slope, scl_inter)) of the
    file at ``path``.  The array is C order, of ``dtype`` (None: the stored
    dtype in native byte order); each chunk of stored values passes through
    ``check`` (if given) before it is converted into it."""
    with _open_for_read(path) as (f, limit):
        raw = bytearray(HEADER_SIZE)
        if (got := _fill(f, raw, path)) != HEADER_SIZE:
            raise NiftiFormatError(
                f"{path}: malformed header, expected {HEADER_SIZE} bytes, got {got}"
            )
        order = "<" if 1 <= struct.unpack_from("<h", raw, _HEADER["dim"][0])[0] <= 7 else ">"
        hdr = {name: struct.unpack_from(order + fmt, raw, offset)
               for name, (offset, fmt) in _HEADER.items()}
        if not 1 <= hdr["dim"][0] <= 7:
            raise NiftiFormatError(f"{path}: malformed header, dim[0] invalid in both byte orders")
        if hdr["sizeof_hdr"][0] != HEADER_SIZE:
            raise NiftiFormatError(
                f"{path}: malformed header, sizeof_hdr={hdr['sizeof_hdr'][0]} != {HEADER_SIZE}"
            )
        if hdr["magic"] != (MAGIC,):
            raise NiftiFormatError(f"{path}: malformed header, magic {hdr['magic'][0]!r}")
        code = hdr["datatype"][0]
        if code not in DTYPE_CODES:
            raise NiftiFormatError(f"{path}: unsupported datatype code {code}")
        if hdr["dim"][0] != 3:
            raise NiftiFormatError(f"{path}: expected 3 spatial dims, header declares {hdr['dim'][0]}")
        try:
            shape = _as_triple(list(hdr["dim"][1:4]), "dim[1:4]", grid=True)
            spacing = _as_triple(list(hdr["pixdim"]), "spacing", float, grid=True)
        except ConfigError as e:
            raise NiftiFormatError(f"{path}: {e}") from e
        if (units := hdr["xyzt_units"][0] & 7) not in (0, 2):
            raise NiftiFormatError(
                f"{path}: spatial unit code {units} is not mm (2) or unknown (0)")

        vox_offset = hdr["vox_offset"][0]
        if not HEADER_SIZE <= vox_offset < np.inf:
            raise NiftiFormatError(f"{path}: vox_offset {vox_offset} is not past the header")
        stored = np.dtype(DTYPE_CODES[code]).newbyteorder(order)
        nx, ny, nz = shape
        nbytes = nx * ny * nz * stored.itemsize
        truncated = NiftiFormatError(f"{path}: truncated payload, header declares {nbytes} bytes")
        # refused from the file's size before anything of the declared size exists
        if int(vox_offset) + nbytes > limit:
            raise truncated

        arr = np.empty(shape, stored.newbyteorder("=") if dtype is None else dtype)
        buf = np.empty((min(_CHUNK_Z, nz), ny, nx), stored)
        # gzip cannot seek: the bytes before and after the payload are read
        # through a buffer of at least _READ_CAP bytes, the chunk buffer if
        # it is that large
        spare = memoryview(buf if buf.nbytes >= _READ_CAP else bytearray(_READ_CAP)).cast("B")
        gap = int(vox_offset) - HEADER_SIZE
        # a stream that ends in the gap leaves the first chunk short
        while gap and (got := _fill(f, spare[:gap], path)):
            gap -= got
        for z0 in range(0, nz, _CHUNK_Z):
            chunk = buf[:min(_CHUNK_Z, nz - z0)]
            if _fill(f, chunk, path) != chunk.nbytes:
                raise truncated
            if check is not None:
                check(chunk)
            # one plain copy, converting and byte-swapping on the way: with
            # only _CHUNK_Z z-values per run, _transpose_into's blocks are
            # slower here
            np.copyto(arr[:, :, z0:z0 + len(chunk)], chunk.T, casting="unsafe")
        # drain to EOF so a gzip container verifies its checksum
        while _fill(f, spare, path):
            pass
        return arr, spacing, _ORIENTATION.pack(*hdr["qfac"], *hdr["qform_sform"]), hdr["scl"]


def _transpose_into(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst[...] = src.T``, one cube of ``_TILE`` per axis at a time.

    numpy copies a whole-array transpose with one side strided by a full
    plane; blocking keeps both sides of each copy in cache.  The writer
    gains by it; the reader copies in one pass (see ``_read_raw``).
    """
    a, b, c = dst.shape
    t = _TILE
    for i in range(0, a, t):
        for j in range(0, b, t):
            for k in range(0, c, t):
                dst[i:i + t, j:j + t, k:k + t] = src[k:k + t, j:j + t, i:i + t].T


def _x_fastest_planes(arr: np.ndarray) -> Iterator[np.ndarray]:
    """The z-planes of ``arr`` in x-fastest order, transposed ``_CHUNK_Z``
    at a time into one reused buffer: each plane is valid only until the
    next is yielded."""
    nx, ny, nz = arr.shape
    buf = np.empty((min(_CHUNK_Z, nz), ny, nx), arr.dtype)
    for z0 in range(0, nz, _CHUNK_Z):
        chunk = buf[:min(_CHUNK_Z, nz - z0)]
        _transpose_into(chunk, arr[:, :, z0:z0 + len(chunk)])
        yield from chunk


def _deflater(strategy: int):
    """A raw deflate stream at level 9 with ``strategy``."""
    return zlib.compressobj(9, zlib.DEFLATED, -zlib.MAX_WBITS, zlib.DEF_MEM_LEVEL, strategy)


def _deflate_strategy(arr: np.ndarray) -> int:
    """The zlib strategy ``arr`` is deflated with: ``Z_RLE`` for any dtype
    but uint8, ``Z_DEFAULT_STRATEGY`` for an all-zero array, and otherwise
    the winner of the trial on the foreground box (see ``_RLE_MARGIN``)."""
    if arr.dtype != np.uint8:
        return zlib.Z_RLE
    try:
        box = bbox_from_mask(arr)
    except EmptyMaskError:
        return zlib.Z_DEFAULT_STRATEGY
    (x0, y0, z0), (nx, ny, nz) = box.lo, box.shape
    # middle y-rows where one z-plane of the box is over the cap
    rows = min(ny, _TRIAL_BYTES // nx)
    planes = min(-(-nz // _TRIAL_PLANES), _TRIAL_BYTES // (nx * rows))
    y0 += (ny - rows) // 2
    z0 += (nz - planes) // 2
    # x fastest, as the file holds it
    sample = np.ascontiguousarray(arr[x0:x0 + nx, y0:y0 + rows, z0:z0 + planes].T)

    def size(strategy: int) -> int:
        z = _deflater(strategy)
        return len(z.compress(sample)) + len(z.flush())

    if size(zlib.Z_RLE) > _RLE_MARGIN * size(zlib.Z_DEFAULT_STRATEGY):
        return zlib.Z_DEFAULT_STRATEGY
    return zlib.Z_RLE


def _write_gzip_member(f, pieces, strategy: int) -> None:
    """Write ``pieces`` (buffers) to ``f`` as one gzip member (RFC 1952),
    deflated at level 9 with ``strategy``.  With the default strategy the
    bytes equal those of ``gzip.GzipFile(filename="", mtime=0)``; the XFL
    byte claims maximum compression (2) only then, and is 0 otherwise."""
    xfl = 2 if strategy == zlib.Z_DEFAULT_STRATEGY else 0
    f.write(struct.pack("<4sIBB", b"\x1f\x8b\x08\x00", 0, xfl, 255))
    z = _deflater(strategy)
    crc = size = 0
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
        size += memoryview(piece).nbytes
        f.write(z.compress(piece))
    f.write(z.flush())
    f.write(struct.pack("<II", crc, size & 0xFFFFFFFF))


def read_volume(path) -> Volume:
    """Read a volume, converting the payload to float32.

    scl_slope/scl_inter are honored when the slope is nonzero and not the
    identity; otherwise raw stored values are used.
    """
    data, spacing, orient, (slope, inter) = _read_raw(path, np.float32)
    if slope != 0.0 and (slope, inter) != (1.0, 0.0):
        with np.errstate(over="ignore", invalid="ignore"):  # Volume refuses inf, NaN
            data *= np.float32(slope)
            data += np.float32(inter)
    try:
        return Volume(data=data, spacing=spacing, orientation=orient)
    except ValueError as e:
        raise NiftiFormatError(f"{path}: {e}") from e


def read_labelmap(path, classes: Mapping[str, int] | None = None) -> LabelMap:
    """Read a label map of integers in [0, 255] (any supported datatype, no
    scaling) and check its codes with :func:`check_label_codes`."""
    @np.errstate(invalid="ignore")  # a NaN is non-integer; rint of a signalling one warns
    def integers_in_range(chunk: np.ndarray) -> None:
        # plane by plane: rint of the whole chunk would hold a second chunk
        if chunk.dtype.kind == "f" and not all(np.array_equal(np.rint(p), p) for p in chunk):
            raise NiftiFormatError(f"{path}: label file contains non-integer values")
        if chunk.dtype.kind != "u" and (chunk.min() < 0 or chunk.max() > 255):
            raise NiftiFormatError(f"{path}: label values out of uint8 range")

    arr, spacing, _orient, _scl = _read_raw(path, np.uint8, integers_in_range)
    try:
        return check_label_codes(LabelMap(data=arr, spacing=spacing), classes)
    except ValueError as e:
        raise NiftiFormatError(f"{path}: {e}") from e


def write_nifti(path, arr: np.ndarray, spacing, *,
                orientation: bytes | None = None) -> None:
    """Encode a 3D array (uint8, int16 or float32) as a NIfTI-1 file,
    gzip-compressed when ``path`` ends in ``.gz``.

    ``orientation`` is the 80-byte block ``read_nifti`` returns; None
    writes qfac 1 and no qform or sform.

    The file appears at ``path`` only once it is complete; a failed write
    leaves a previous file there untouched.  What core's grid rule refuses
    raises ValueError before any file is opened; NaN and inf are written."""
    arr = np.asarray(arr)
    spacing = _grid(arr, spacing, "array", orientation)
    if arr.dtype not in _CODE_FOR_DTYPE:
        raise ValueError(f"unsupported dtype {arr.dtype}; use uint8, int16 or float32")

    orient = _ORIENTATION.unpack(orientation or struct.pack("<f", 1.0) + bytes(76))
    raw = bytearray(VOX_OFFSET)  # zero where no field is set, the 4 extension bytes too
    for name, values in {
        "sizeof_hdr": (HEADER_SIZE,),
        "regular": (b"r",),
        "dim": (3, *arr.shape, 1, 1, 1, 1),
        "datatype": (_CODE_FOR_DTYPE[arr.dtype],),
        "bitpix": (arr.dtype.itemsize * 8,),
        "qfac": orient[:1],
        "pixdim": spacing,
        "vox_offset": (VOX_OFFSET,),
        "scl": (1.0, 0.0),
        "xyzt_units": (2,),  # mm
        "qform_sform": orient[1:],
        "magic": (MAGIC,),
    }.items():
        struct.pack_into("<" + _HEADER[name][1], raw, _HEADER[name][0], *values)

    def pieces():
        yield raw
        yield from _x_fastest_planes(arr)

    with _atomic_open(path, "wb") as fh:
        if str(path).endswith(".gz"):
            _write_gzip_member(fh, pieces(), _deflate_strategy(arr))
        else:
            for piece in pieces():
                fh.write(piece)


def write_volume(v: Volume | LabelMap, path, *, orientation: bytes | None = None) -> None:
    """Write a Volume as float32 or a LabelMap as uint8, gzip-compressed
    when ``path`` ends in ``.gz``.

    ``orientation`` is the orientation block to write (qfac, then the
    qform/sform fields); None takes a Volume's own (a LabelMap carries none).
    """
    if orientation is None and isinstance(v, Volume):
        orientation = v.orientation
    write_nifti(path, v.data, v.spacing, orientation=orientation)


def write_placement(p: Placement, path) -> None:
    _write_json(_as_json(p), path)


def read_placement(path) -> Placement:
    """Read a placement sidecar; it is checked like a config, so errors are
    ConfigErrors starting with the file's path."""
    return _read_config(Placement, path)
