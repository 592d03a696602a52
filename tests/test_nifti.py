import builtins
import collections
import gc
import gzip
import random
import struct
import sys
import threading
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from biatrium import (
    Ellipsoid,
    LabelMap,
    NiftiFormatError,
    PhantomSpec,
    Placement,
    Volume,
    generate,
    read_labelmap,
    read_nifti,
    read_placement,
    read_volume,
    write_nifti,
    write_placement,
    write_volume,
)
from biatrium import nifti
from biatrium.cli import main
from oracles import gzipfile_bytes, nifti1_header, x_fastest_payload

SPACING = (0.625, 0.625, 2.5)


def _random_array(rng, dtype, shape=(7, 5, 3)):
    if dtype == np.uint8:
        return rng.integers(0, 256, size=shape, dtype=np.uint8)
    if dtype == np.int16:
        return rng.integers(-32768, 32768, size=shape, dtype=np.int16)
    return rng.random(shape, dtype=np.float32)


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.float32])
@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_roundtrip_bit_exact(tmp_path, rng, dtype, suffix):
    arr = _random_array(rng, dtype)
    path = tmp_path / f"x{suffix}"
    write_nifti(path, arr, SPACING)
    back, spacing, _ = read_nifti(path)
    assert back.dtype == dtype
    assert np.array_equal(back, arr)
    assert spacing == pytest.approx(SPACING)


def test_header_bytes_match_the_nifti1_oracle(tmp_path, rng):
    """The first 352 bytes written, plain or gzip, are the NIfTI-1 header
    packed field by field at nifti1.h's offsets: every dtype, with no
    orientation block, a random one and one of signalling-NaN words."""
    shape, spacing = (7, 5, 3), (0.7, 1.3, 2.5)
    orients = (None, bytes(rng.integers(0, 256, size=80, dtype=np.uint8)),
               struct.pack("<I2h18I", 0x7F800001, 1, 2, *[0x7F800001, 0xFFA00000] * 9))
    for dtype in (np.uint8, np.int16, np.float32):
        for orient in orients:
            for suffix in (".nii", ".nii.gz"):
                path = tmp_path / f"x{suffix}"
                write_nifti(path, _random_array(rng, dtype, shape), spacing, orientation=orient)
                blob = path.read_bytes()
                if suffix == ".nii.gz":
                    blob = gzip.decompress(blob)
                assert blob[:352] == nifti1_header(shape, dtype, spacing, orient), (dtype, orient)


def test_gzip_detected_by_content_not_name(tmp_path, rng):
    arr = _random_array(rng, np.float32)
    gz_named_plain = tmp_path / "x.nii"
    write_nifti(tmp_path / "x.nii.gz", arr, SPACING)
    (tmp_path / "x.nii.gz").rename(gz_named_plain)
    back, _, _ = read_nifti(gz_named_plain)
    assert np.array_equal(back, arr)


def test_gzip_read_closes_file(tmp_path, rng):
    """Reading a .nii.gz, whole or corrupt, leaves no file handle open."""
    good, bad = tmp_path / "x.nii.gz", tmp_path / "bad.nii.gz"
    write_volume(Volume(data=_random_array(rng, np.float32), spacing=SPACING), good)
    bad.write_bytes(good.read_bytes()[:200])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        read_volume(good)
        with pytest.raises(NiftiFormatError):
            read_volume(bad)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_compress_inferred_from_suffix(tmp_path, rng):
    arr = _random_array(rng, np.uint8)
    write_nifti(tmp_path / "a.nii.gz", arr, SPACING)
    write_nifti(tmp_path / "b.nii", arr, SPACING)
    assert (tmp_path / "a.nii.gz").read_bytes()[:2] == b"\x1f\x8b"
    assert (tmp_path / "b.nii").read_bytes()[:2] != b"\x1f\x8b"


def test_gzip_output_is_reproducible(tmp_path, rng):
    arr = _random_array(rng, np.float32)
    write_nifti(tmp_path / "a.nii.gz", arr, SPACING)
    write_nifti(tmp_path / "b.nii.gz", arr, SPACING)
    assert (tmp_path / "a.nii.gz").read_bytes() == (tmp_path / "b.nii.gz").read_bytes()


@pytest.mark.parametrize("encoding", ["plain", "gzip"])
def test_read_opens_the_file_once(tmp_path, rng, monkeypatch, encoding):
    """The size bound and the stream come from one open file."""
    path = tmp_path / ("x.nii" if encoding == "plain" else "x.nii.gz")
    arr = _random_array(rng, np.float32)
    write_nifti(path, arr, SPACING)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    vol = read_volume(path)
    monkeypatch.undo()
    assert opened.count(str(path)) == 1
    assert np.array_equal(vol.data, arr)


# -- deflate settings follow the content ------------------------------------

def _speckled(labels, rng, fraction=0.02):
    out = labels.copy()
    out[rng.random(out.shape) < fraction] = 1
    return out


def _paper_gt():
    """The ground truth of the paper-scale phantom: the default phantom's
    two chambers scaled 1.8x in-plane on a 576x576x48 grid."""
    return generate(PhantomSpec(
        shape=(576, 576, 48), spacing=SPACING,
        la=Ellipsoid(center_mm=(147.6, 180.0, 60.0), radii_mm=(32.4, 36.0, 16.0)),
        ra=Ellipsoid(center_mm=(212.4, 180.0, 60.0), radii_mm=(28.8, 32.4, 15.0))))[1].data


@pytest.mark.parametrize("kind", ["phantom_gt", "paper_gt", "zeros", "z_extent_1"])
def test_blocky_map_keeps_gzipfile_level9_bytes(tmp_path, kind):
    """A map whose foreground deflates much smaller with the default
    strategy keeps the file gzip.GzipFile wrote at level 9, byte for byte,
    so ground-truth and bench input hashes do not move: the default and the
    paper-scale phantom ground truths, an all-zero grid, and a
    one-plane map, whose trial sample is that plane."""
    arr = {"phantom_gt": lambda: generate(PhantomSpec())[1].data,
           "paper_gt": _paper_gt,
           "zeros": lambda: np.zeros((576, 576, 48), np.uint8),
           "z_extent_1": lambda: generate(PhantomSpec())[1].data[:, :, 24:25]}[kind]()
    write_nifti(tmp_path / "x.nii", arr, SPACING)
    write_nifti(tmp_path / "x.nii.gz", arr, SPACING)
    header = (tmp_path / "x.nii").read_bytes()[:352]
    blob = (tmp_path / "x.nii.gz").read_bytes()
    assert blob == gzipfile_bytes(header + x_fastest_payload(arr))


class _RecordingDeflater:
    """A zlib compress object that counts the bytes fed to it."""

    def __init__(self, z, fed, strategy):
        self._z, self._fed, self._strategy = z, fed, strategy

    def compress(self, data):
        self._fed[self._strategy] += memoryview(data).nbytes
        return self._z.compress(data)

    def flush(self):
        return self._z.flush()


@pytest.fixture
def deflaters(monkeypatch):
    """Every (level, strategy) nifti asks zlib.compressobj for, in order,
    and the bytes fed to the objects of each strategy."""
    made, fed = [], collections.Counter()
    real_compressobj = zlib.compressobj

    def recording(level, method, wbits, memlevel, strategy):
        made.append((level, strategy))
        return _RecordingDeflater(real_compressobj(level, method, wbits, memlevel, strategy),
                                  fed, strategy)

    monkeypatch.setattr(nifti.zlib, "compressobj", recording)
    return made, fed


def test_deflate_settings_follow_the_content(tmp_path, rng, deflaters):
    """A uint8 map tries both strategies on a sample of its foreground, and
    keeps level 9's default strategy only for clean structures: threshold
    masks, speckle and random codes take Z_RLE, as does any other dtype,
    with no trial.  An all-zero map needs no trial.  The gzip XFL byte says
    which, and a second write gives the same bytes."""
    made, _ = deflaters
    vol, gt = generate(PhantomSpec(noise_amplitude=0.05, seed=1))
    default, rle = zlib.Z_DEFAULT_STRATEGY, zlib.Z_RLE
    cases = {
        "phantom_gt": (gt.data, default),
        "zeros": (np.zeros((40, 30, 20), np.uint8), default),
        "threshold_mask": ((vol.data >= np.float32(0.5)).astype(np.uint8), rle),
        "speckled_gt_1.2%": (_speckled(gt.data, rng, 0.012), rle),
        "speckled_gt_2%": (_speckled(gt.data, rng, 0.02), rle),
        "z_extent_1": (rng.integers(0, 4, (70, 9, 1), dtype=np.uint8), rle),
        "noisy_image": (vol.data, rle),
    }
    for name, (arr, strategy) in cases.items():
        made.clear()
        path, again = tmp_path / f"{name}.nii.gz", tmp_path / f"{name}.again.nii.gz"
        write_nifti(path, arr, SPACING)
        trial = arr.dtype == np.uint8 and arr.any()
        assert sorted(made[:-1]) == ([(9, default), (9, rle)] if trial else []), name
        assert made[-1] == (9, strategy), name
        assert path.read_bytes()[8] == (2 if strategy == default else 0), name
        write_nifti(again, arr, SPACING)
        assert again.read_bytes() == path.read_bytes(), name
    made.clear()
    write_nifti(tmp_path / "plain.nii", vol.data, SPACING)
    assert made == []


def test_threshold_mask_is_smaller_under_rle(tmp_path):
    """A threshold mask of a noisy image, as the bench's pipelines write,
    has ragged edges that Z_RLE deflates smaller than level 9's default
    strategy does."""
    vol, _ = generate(PhantomSpec(noise_amplitude=0.05, seed=5))
    arr = (vol.data >= np.float32(0.5)).astype(np.uint8)
    write_nifti(tmp_path / "x.nii", arr, SPACING)
    write_nifti(tmp_path / "x.nii.gz", arr, SPACING)
    header = (tmp_path / "x.nii").read_bytes()[:352]
    blob = (tmp_path / "x.nii.gz").read_bytes()
    assert blob[8] == 0
    assert len(blob) < len(gzipfile_bytes(header + x_fastest_payload(arr)))
    assert gzip.decompress(blob) == header + x_fastest_payload(arr)


def test_strategy_trial_deflates_a_small_sample(tmp_path, rng, deflaters):
    """The trial's default-strategy deflate, slow on speckle, reads a small
    sample: on a 2%-speckled paper-scale map the default-strategy objects
    are fed at most 1/16 of the payload (a count, not a timing)."""
    _, fed = deflaters
    arr = np.zeros((576, 576, 48), np.uint8)
    for z in range(arr.shape[2]):
        arr[:, :, z] = rng.random(arr.shape[:2]) < 0.02
    write_nifti(tmp_path / "x.nii.gz", arr, SPACING)
    assert 0 < fed[zlib.Z_DEFAULT_STRATEGY] <= arr.nbytes / 16
    assert fed[zlib.Z_RLE] > arr.nbytes


def test_rle_path_roundtrips_on_every_layout(tmp_path, rng):
    """The Z_RLE member is a valid gzip file: every memory layout reads
    back bit-exact, and a second write gives the same bytes."""
    arr = _random_array(rng, np.float32, (65, 3, 130))
    for name, view in _layout_views(arr).items():
        first, second = tmp_path / f"{name}1.nii.gz", tmp_path / f"{name}2.nii.gz"
        write_nifti(first, view, SPACING)
        write_nifti(second, view, SPACING)
        blob = first.read_bytes()
        assert blob[8] == 0, name  # XFL of the Z_RLE path
        assert blob == second.read_bytes(), name
        assert gzip.decompress(blob)[352:] == x_fastest_payload(arr), name
        back, _, _ = read_nifti(first)
        assert np.array_equal(back, arr), name


def test_payload_is_x_fastest(tmp_path):
    arr = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    path = tmp_path / "x.nii"
    write_nifti(path, arr, (1, 1, 1))
    payload = path.read_bytes()[352:]
    # first run along x: arr[0,0,0], arr[1,0,0], arr[0,1,0], ...
    assert payload[0] == arr[0, 0, 0]
    assert payload[1] == arr[1, 0, 0]
    assert payload[2] == arr[0, 1, 0]


def _reencode_big_endian(path, out_path):
    """Byte-swap a little-endian plain file into a big-endian one: every
    header field the reader reads, then the payload by its item size."""
    blob = bytearray(path.read_bytes())
    assert struct.unpack("<i", bytes(blob[:4]))[0] == 348

    def swap(span, size):
        b = blob[span]
        blob[span] = b''.join(bytes(b[i:i + size][::-1]) for i in range(0, len(b), size))

    swap(slice(0, 4), 4)            # sizeof_hdr
    swap(slice(40, 56), 2)          # dim[8]
    swap(slice(70, 72), 2)          # datatype
    swap(slice(72, 74), 2)          # bitpix
    swap(slice(76, 108), 4)         # pixdim[8], qfac included
    swap(slice(108, 112), 4)        # vox_offset
    swap(slice(112, 116), 4)        # scl_slope
    swap(slice(116, 120), 4)        # scl_inter
    swap(slice(252, 256), 2)        # qform_code, sform_code
    swap(slice(256, 328), 4)        # quatern_b .. srow_z
    itemsize = {2: 1, 4: 2, 16: 4}[struct.unpack(">h", bytes(blob[70:72]))[0]]
    payload = np.frombuffer(blob, f"<u{itemsize}", offset=nifti.VOX_OFFSET)
    out_path.write_bytes(bytes(blob[:nifti.VOX_OFFSET]) + payload.astype(f">u{itemsize}").tobytes())


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.float32])
def test_big_endian_read(tmp_path, rng, dtype):
    arr = _random_array(rng, dtype)
    le = tmp_path / "le.nii"
    be = tmp_path / "be.nii"
    write_nifti(le, arr, SPACING)
    _reencode_big_endian(le, be)
    back, spacing, _ = read_nifti(be)
    assert np.array_equal(back, arr)
    assert spacing == pytest.approx(SPACING)


# -- layout: C order in memory, x-fastest on disk ---------------------------

def _layout_views(arr):
    """``arr`` as C-, F-, strided- and reversed-order arrays of equal value."""
    spaced = np.zeros((2 * arr.shape[0], arr.shape[1], 2 * arr.shape[2]), arr.dtype)
    spaced[::2, :, 1::2] = arr
    return {
        "c": arr,
        "f": np.asfortranarray(arr),
        "sliced": spaced[::2, :, 1::2],
        "negative": np.ascontiguousarray(arr[::-1, :, ::-1])[::-1, :, ::-1],
    }


def _payload(path) -> bytes:
    blob = path.read_bytes()
    if blob[:2] == b"\x1f\x8b":
        blob = gzip.decompress(blob)
    return blob[352:]


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.float32])
@pytest.mark.parametrize("shape", [(1, 1, 1), (65, 3, 130), (1, 700, 2), (130, 65, 9)])
def test_write_payload_matches_whole_copy_oracle(tmp_path, rng, dtype, shape):
    """Shapes that are not multiples of the tile or chunk size, and inputs
    of every memory layout, stream the same bytes as one whole-array copy."""
    arr = _random_array(rng, dtype, shape)
    expected = x_fastest_payload(arr)
    for name, view in _layout_views(arr).items():
        assert np.array_equal(view, arr)
        for suffix in (".nii", ".nii.gz"):
            path = tmp_path / f"{name}{suffix}"
            write_nifti(path, view, SPACING)
            assert _payload(path) == expected, (name, suffix)


def _stored_as(tmp_path, arr, encoding):
    """``arr`` written as a plain, gzip or big-endian file."""
    plain = tmp_path / "le.nii"
    write_nifti(plain, arr, SPACING)
    if encoding == "plain":
        return plain
    if encoding == "gzip":
        out = tmp_path / "gzip.nii.gz"
        write_nifti(out, arr, SPACING)
    else:
        out = tmp_path / "big-endian.nii"
        _reencode_big_endian(plain, out)
    return out


def _assert_c_native(arr):
    assert arr.flags.c_contiguous
    assert arr.dtype.isnative


@pytest.mark.parametrize("encoding", ["plain", "gzip", "big-endian"])
def test_readers_return_c_contiguous_native_arrays(tmp_path, rng, encoding):
    """Each reader gives the stored values exactly, over 20 z-planes (3 chunks)."""
    for dtype in (np.uint8, np.int16, np.float32):
        arr = _random_array(rng, dtype, (70, 9, 20))
        back, _, _ = read_nifti(_stored_as(tmp_path, arr, encoding))
        _assert_c_native(back)
        assert back.dtype == dtype
        assert np.array_equal(back, arr)

    for dtype in (np.int16, np.float32):
        arr = _random_array(rng, dtype, (70, 9, 20))
        vol = read_volume(_stored_as(tmp_path, arr, encoding))
        _assert_c_native(vol.data)
        assert np.array_equal(vol.data, arr.astype(np.float32))

    labels = rng.integers(0, 4, size=(70, 9, 20), dtype=np.uint8)
    for dtype in (np.uint8, np.int16, np.float32):
        lm = read_labelmap(_stored_as(tmp_path, labels.astype(dtype), encoding))
        _assert_c_native(lm.data)
        assert np.array_equal(lm.data, labels)


def test_gzip_declaring_more_than_it_can_hold_fails_before_allocating(tmp_path):
    """About 1 KB of gzip can inflate to at most 1032 times that (deflate's
    largest expansion), so a header declaring 2 GB is a truncated payload."""
    blob = _header_bytes(tmp_path, dims=(3, 1024, 1024, 512))
    rng = np.random.default_rng(0)
    path = _store(tmp_path / "liar.nii.gz", blob + rng.bytes(1000), gz=True)
    assert 1000 < path.stat().st_size < 1500
    for reader in (read_nifti, read_volume, read_labelmap):
        with pytest.raises(NiftiFormatError, match="liar.nii.gz: truncated payload"):
            reader(path)


def test_densest_gzip_still_reads(tmp_path):
    """An all-zero grid deflates close to the 1032:1 bound, and the bound
    still lets it through."""
    arr = np.zeros((576, 576, 48), dtype=np.uint8)
    path = tmp_path / "zeros.nii.gz"
    write_nifti(path, arr, SPACING)
    assert arr.nbytes / path.stat().st_size > 1000
    assert np.array_equal(read_labelmap(path).data, arr)


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_failed_write_leaves_old_file_and_no_temp(tmp_path, rng, monkeypatch, suffix):
    target = tmp_path / f"x{suffix}"
    write_nifti(target, _random_array(rng, np.float32), SPACING)
    before = target.read_bytes()

    real = nifti._transpose_into
    calls = []

    def fail_after_first_chunk(dst, src):
        if calls:
            raise OSError("disk full")
        calls.append(1)
        real(dst, src)

    monkeypatch.setattr(nifti, "_transpose_into", fail_after_first_chunk)
    arr = _random_array(rng, np.float32, (9, 8, 3 * nifti._CHUNK_Z))
    with pytest.raises(OSError, match="disk full"):
        write_nifti(target, arr, SPACING)
    assert calls
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


def test_threads_writing_one_sidecar_never_collide(tmp_path):
    """Every thread gets its own temporary file, so concurrent writes of one
    path all succeed and the file always holds one whole document."""
    path = tmp_path / "p.json"
    docs = [Placement(parent_shape=(9, 9, 9), offset=(i, 0, 0), window_shape=(1, 1, 1))
            for i in range(6)]
    errors = []

    def writer(p):
        try:
            for _ in range(40):
                write_placement(p, path)
                assert read_placement(path) in docs
        except Exception as e:  # noqa: BLE001 - collected for the main thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(p,)) for p in docs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_scl_scaling_applied_by_read_volume(tmp_path):
    arr = np.arange(8, dtype=np.int16).reshape(2, 2, 2)
    path = tmp_path / "x.nii"
    write_nifti(path, arr, (1, 1, 1))
    blob = bytearray(path.read_bytes())
    blob[112:116] = struct.pack("<f", 2.0)   # scl_slope
    blob[116:120] = struct.pack("<f", 10.0)  # scl_inter
    path.write_bytes(bytes(blob))

    v = read_volume(path)
    assert np.allclose(v.data, arr * 2.0 + 10.0)
    # raw reader leaves values untouched
    raw, _, _ = read_nifti(path)
    assert np.array_equal(raw, arr)


def test_zero_slope_means_unscaled(tmp_path):
    arr = np.arange(8, dtype=np.int16).reshape(2, 2, 2)
    path = tmp_path / "x.nii"
    write_nifti(path, arr, (1, 1, 1))
    blob = bytearray(path.read_bytes())
    blob[112:116] = struct.pack("<f", 0.0)
    blob[116:120] = struct.pack("<f", 99.0)
    path.write_bytes(bytes(blob))
    assert np.array_equal(read_volume(path).data, arr.astype(np.float32))


def test_raw_reader_ignores_scaling_that_leaves_float32(tmp_path):
    """read_nifti applies no scaling, so a file whose scl_slope/scl_inter
    would take it past float32 reads unchanged, with no numpy warning
    (read_volume refuses it: see REFUSALS)."""
    path = tmp_path / "scaled.nii"
    arr = np.array([0, 1, 30000, 32767], dtype=np.int16).reshape(2, 2, 1)
    write_nifti(path, arr, (1, 1, 1))
    blob = bytearray(path.read_bytes())
    for slope, inter in [(1e35, 0.0), (1e34, 3e38), (np.inf, 0.0), (np.nan, 0.0), (2.0, -np.inf)]:
        blob[112:120] = struct.pack("<2f", slope, inter)  # scl_slope, scl_inter
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(read_nifti(path)[0], arr)


# quiet, signalling, negative and payload-carrying NaNs, and both infinities
_NON_FINITE_BITS = [0x7FC00000, 0x7F800001, 0xFFC00000, 0x7FC12345, 0x7F800000, 0xFF800000]


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_raw_pair_carries_non_finite_bits(tmp_path, suffix):
    """read_nifti/write_nifti carry any float32 bits (read_volume refuses
    them: see REFUSALS)."""
    bits = np.zeros((3, 4, 2), dtype=np.uint32)
    bits.flat[[1, 5, 8, 13, 20, 23]] = _NON_FINITE_BITS
    path = tmp_path / f"nan_voxels{suffix}"
    write_nifti(path, bits.view(np.float32), (1, 1, 1))
    arr, _, _ = read_nifti(path)
    assert arr.dtype == np.float32 and np.array_equal(arr.view(np.uint32), bits)


def test_orientation_block_preserved(tmp_path, rng):
    arr = _random_array(rng, np.float32)
    orient = bytes(rng.integers(0, 256, size=80, dtype=np.uint8))
    path = tmp_path / "x.nii"
    write_nifti(path, arr, SPACING, orientation=orient)
    _, _, orient_back = read_nifti(path)
    assert orient_back == orient

    v = read_volume(path)
    out = tmp_path / "y.nii"
    write_volume(v, out)
    header = out.read_bytes()
    assert header[76:80] + header[252:328] == orient
    with pytest.raises(ValueError, match="orientation block has wrong size"):
        write_nifti(tmp_path / "z.nii", arr, SPACING, orientation=orient[:-1])
    assert not (tmp_path / "z.nii").exists()


def test_qfac_is_part_of_the_orientation_block(tmp_path, rng):
    """The orientation block starts with qfac (pixdim[0]): a written -1
    reads back, and a write without a block writes qfac 1."""
    orient = struct.pack("<f2h", -1.0, 1, 0) + bytes(72)
    path = tmp_path / "q.nii"
    write_nifti(path, _random_array(rng, np.float32), SPACING, orientation=orient)
    assert read_nifti(path)[2] == orient
    assert struct.unpack_from("<f", path.read_bytes(), 76) == (-1.0,)
    write_nifti(path, _random_array(rng, np.float32), SPACING)
    assert read_nifti(path)[2] == struct.pack("<f", 1.0) + bytes(76)


def test_big_endian_orientation_is_carried_little_endian(tmp_path, rng):
    """A big-endian file's qfac and qform/sform fields come back as the
    little-endian writer stores them, so an output written with them keeps
    their values; signalling NaNs in qfac and the srows keep their bits,
    which a float round trip would quiet (0x7f800001 to 0x7fc00001)."""
    le = tmp_path / "le.nii"
    be = tmp_path / "be.nii"
    for orient in (struct.pack("<f2h18f", -1.0, 1, 2, *range(18)),
                   struct.pack("<I2h6f12I", 0x7F800001, 1, 2, *range(6),
                               *[0x7F800001, 0xFFA00000, 0x7F812345] * 4)):
        write_nifti(le, _random_array(rng, np.float32), SPACING, orientation=orient)
        _reencode_big_endian(le, be)
        assert read_nifti(be)[2] == orient


@pytest.mark.parametrize("code", [0, 2, 10])
def test_spatial_units_mm_or_unknown_are_read(tmp_path, code):
    """The spatial unit code (xyzt_units & 7) 2 (mm) or 0 (unknown, taken as
    mm) is read; time units (10 is mm and seconds) do not count.  Metres and
    micrometres are refused: see REFUSALS."""
    path = tmp_path / "units.nii"
    blob = bytearray(_valid_bytes(tmp_path))
    assert blob[123] == 2
    blob[123] = code
    path.write_bytes(bytes(blob))
    assert read_nifti(path)[1] == pytest.approx(SPACING)


def test_volume_and_labelmap_level_io(tmp_path, rng):
    v = Volume(data=rng.random((4, 4, 4), dtype=np.float32), spacing=SPACING)
    write_volume(v, tmp_path / "v.nii.gz")
    v2 = read_volume(tmp_path / "v.nii.gz")
    assert np.array_equal(v2.data, v.data)

    m = LabelMap(data=rng.integers(0, 4, size=(4, 4, 4), dtype=np.uint8), spacing=SPACING)
    write_volume(m, tmp_path / "m.nii.gz")
    m2 = read_labelmap(tmp_path / "m.nii.gz")
    assert np.array_equal(m2.data, m.data)


def test_labelmap_from_integer_valued_float_file(tmp_path):
    arr = np.array([[[0.0, 1.0], [2.0, 3.0]], [[1.0, 1.0], [0.0, 2.0]]], dtype=np.float32)
    path = tmp_path / "m.nii"
    write_nifti(path, arr, (1, 1, 1))
    m = read_labelmap(path)
    assert m.data.dtype == np.uint8
    assert np.array_equal(m.data, arr.astype(np.uint8))


# -- refusals ---------------------------------------------------------------

def _valid_bytes(tmp_path) -> bytes:
    """The one valid file that the refusal rows and the header tests edit:
    2x3x4 float32 zeros, which every reader reads."""
    path = tmp_path / "valid.nii"
    write_nifti(path, np.zeros((2, 3, 4), np.float32), SPACING)
    return path.read_bytes()


def _patch(offset, fmt, *values):
    """An edit of the file that packs ``values`` little-endian as ``fmt``
    at ``offset``."""
    return "file", lambda blob: struct.pack_into("<" + fmt, blob, offset, *values)


def _cut(end):
    """An edit of the file that drops its bytes from ``end`` on."""
    return "file", lambda blob: blob.__delitem__(slice(end, None))


def _gzip(edit):
    """``edit`` made to the gzip stream of the file, so that the row is
    stored as gzip only."""
    return "gzip", edit[1]


def _stored(tmp_path, edits, gz: bool) -> bytes:
    """The valid file with the file ``edits`` made, then, if ``gz``,
    gzip-compressed with the gzip ``edits`` made."""
    blob = bytearray(_valid_bytes(tmp_path))
    for layer in ("file", "gzip") if gz else ("file",):
        if layer == "gzip":
            blob = bytearray(gzip.compress(blob, mtime=0))
        for at, edit in edits:
            if at == layer:
                edit(blob)
    return bytes(blob)


_ALL = (read_nifti, read_volume, read_labelmap)
_VOXEL = nifti.VOX_OFFSET  # the first payload value
_TRUNCATED = "truncated payload, header declares 96 bytes"
_NOT_FINITE = "volume data contains non-finite values"
_NOT_INTEGER = "label file contains non-integer values"
_NOT_UINT8 = "label values out of uint8 range"
_SCALED = _patch(_VOXEL, "f", 32767.0)

# Every way the readers refuse a file: id -> (edits of the valid file, the
# readers that refuse it, the message after "<path>: ").  A new refusal is
# one row.
REFUSALS = {
    "header-cut": ((_cut(100),), _ALL, "malformed header, expected 348 bytes, got 100"),
    "sizeof_hdr-349": ((_patch(0, "i", 349),), _ALL, "malformed header, sizeof_hdr=349 != 348"),
    "dim0-9": ((_patch(40, "h", 9),), _ALL,
               "malformed header, dim[0] invalid in both byte orders"),
    "magic": ((_patch(344, "4s", b"ni1\0"),), _ALL, r"malformed header, magic b'ni1\x00'"),
    "datatype-float64": ((_patch(70, "h", 64),), _ALL, "unsupported datatype code 64"),
    "dim0-4": ((_patch(40, "h", 4),), _ALL, "expected 3 spatial dims, header declares 4"),
    "dim-negative": ((_patch(40, "4h", 3, 7, -5, 3),), _ALL,
                     "dim[1:4] must be 3 ints >= 1 and <= 32767, got [7, -5, 3]"),
    "spacing-zero": ((_patch(80, "f", 0.0),), _ALL,
                     "spacing must be 3 finite numbers >= 1.401298464324817e-45 and "
                     "<= 3.4028234663852886e+38, got [0.0, 0.625, 2.5]"),
    "units-metres": ((_patch(123, "B", 1),), _ALL,
                     "spatial unit code 1 is not mm (2) or unknown (0)"),
    "units-micrometres": ((_patch(123, "B", 3),), _ALL,
                          "spatial unit code 3 is not mm (2) or unknown (0)"),
    "vox_offset-100": ((_patch(108, "f", 100.0),), _ALL, "vox_offset 100.0 is not past the header"),
    "vox_offset-nan": ((_patch(108, "f", np.nan),), _ALL, "vox_offset nan is not past the header"),
    "vox_offset-inf": ((_patch(108, "f", np.inf),), _ALL, "vox_offset inf is not past the header"),
    "vox_offset-3e38": ((_patch(108, "f", 3e38),), _ALL, _TRUNCATED),
    "vox_offset-1e6": ((_patch(108, "f", 1e6),), _ALL, _TRUNCATED),
    # a gzip file passes the size bound but ends inside the gap
    "vox_offset-2000": ((_patch(108, "f", 2000.0),), _ALL, _TRUNCATED),
    "payload-cut": ((_cut(-10),), _ALL, _TRUNCATED),
    # 108 TB, refused from the bytes the file holds before anything is allocated
    "dims-30000-cubed": ((_patch(42, "3h", 30000, 30000, 30000),), _ALL,
                     "truncated payload, header declares 108000000000000 bytes"),
    "gzip-crc": ((_gzip(_patch(-8, "I", 0)),), _ALL,
                 "corrupt or truncated stream: CRC check failed 0x0 != 0x954e3ba3"),
    "gzip-block-type": ((_gzip(_patch(10, "B", 7)),), _ALL,
                        "corrupt or truncated stream: Error -3 while decompressing data: "
                        "invalid block type"),
    "gzip-cut": ((_gzip(_cut(-12)),), _ALL,
                 "corrupt or truncated stream: Compressed file ended before the "
                 "end-of-stream marker was reached"),
    # scaling that leaves float32, with no numpy warning on the way
    "scl-1e35": ((_SCALED, _patch(112, "2f", 1e35, 0.0)), (read_volume,), _NOT_FINITE),
    "scl-1e34+3e38": ((_SCALED, _patch(112, "2f", 1e34, 3e38)), (read_volume,), _NOT_FINITE),
    "scl-inf*0": ((_SCALED, _patch(112, "2f", np.inf, 0.0)), (read_volume,), _NOT_FINITE),
    "scl-nan": ((_SCALED, _patch(112, "2f", np.nan, 0.0)), (read_volume,), _NOT_FINITE),
    "scl-inter-inf": ((_SCALED, _patch(112, "2f", 2.0, -np.inf)), (read_volume,), _NOT_FINITE),
    **{f"payload-{word:#x}": ((_patch(_VOXEL, "I", word),), (read_volume,), _NOT_FINITE)
       for word in _NON_FINITE_BITS},
    "label-0.5": ((_patch(_VOXEL, "f", 0.5),), (read_labelmap,), _NOT_INTEGER),
    # rint of a signalling NaN warns
    "label-0x7f800001": ((_patch(_VOXEL, "I", 0x7F800001),), (read_labelmap,), _NOT_INTEGER),
    "label-int16-300": ((_patch(70, "h", 4), _patch(_VOXEL, "h", 300)), (read_labelmap,),
                        _NOT_UINT8),
    "label-int16--1": ((_patch(70, "h", 4), _patch(_VOXEL, "h", -1)), (read_labelmap,),
                       _NOT_UINT8),
    "label-256": ((_patch(_VOXEL, "f", 256.0),), (read_labelmap,), _NOT_UINT8),
    "label-1e30": ((_patch(_VOXEL, "f", 1e30),), (read_labelmap,), _NOT_UINT8),
    "label-inf": ((_patch(_VOXEL, "f", np.inf),), (read_labelmap,), _NOT_UINT8),
    "label-code-5": ((_patch(_VOXEL, "f", 5.0),), (read_labelmap,),
                     "label values [5] not in declared class codes [0, 1, 2, 3]"),
}


@pytest.mark.parametrize("edits, readers, message, gz", [
    pytest.param(edits, readers, message, gz, id=f"{name}-{'gzip' if gz else 'plain'}")
    for name, (edits, readers, message) in REFUSALS.items()
    for gz in ((True,) if any(at == "gzip" for at, _ in edits) else (False, True))])
def test_refusals(tmp_path, capsys, edits, readers, message, gz):
    """Each row, stored plain and gzip (gzip only for an edit of the
    stream): every reader it names raises NiftiFormatError "<path>:
    <message>" with no numpy warning, and one subcommand reading it that way
    prints that error, exits 1 and writes no output."""
    path, out = tmp_path / ("refused.nii.gz" if gz else "refused.nii"), tmp_path / "out.nii"
    path.write_bytes(_stored(tmp_path, edits, gz))
    for reader in readers:
        with warnings.catch_warnings(), pytest.raises(NiftiFormatError) as refused:
            warnings.simplefilter("error")
            reader(path)
        assert str(refused.value) == f"{path}: {message}", reader.__name__
    argv = (["enhance", str(path), str(out)] if read_volume in readers
            else ["evaluate", "--pred", str(path), "--gt", str(path), "--csv", str(out)])
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


def test_write_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(ValueError, match="dtype"):
        write_nifti(tmp_path / "x.nii", np.zeros((2, 2, 2), dtype=np.float64), (1, 1, 1))


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
@pytest.mark.parametrize("shape, spacing, match", [
    ((2, 2, 2), (0, 1, 1), "spacing"),
    ((2, 2, 2), (float("nan"), 1, 1), "spacing"),
    ((2, 2, 2), (-1, 1, 1), "spacing"),
    ((2, 2, 2), (1e-50, 1, 1), "spacing"),   # 0 as float32
    ((2, 2, 2), (1e39, 1, 1), "spacing"),    # inf as float32
    ((0, 2, 2), (1, 1, 1), r"\(0, 2, 2\)"),
    ((32768, 1, 1), (1, 1, 1), r"\(32768, 1, 1\)"),  # past the int16 dim field
    ((2, 2), (1, 1, 1), "array must be 3D, got 2D"),
])
def test_write_refuses_what_the_reader_refuses(tmp_path, suffix, shape, spacing, match):
    """Header values read_nifti would reject raise ValueError, and neither
    the file nor a temporary file is left behind."""
    with pytest.raises(ValueError, match=match):
        write_nifti(tmp_path / f"x{suffix}", np.zeros(shape, dtype=np.uint8), spacing)
    assert list(tmp_path.iterdir()) == []


def test_write_accepts_the_header_limits(tmp_path):
    limits = np.finfo(np.float32)
    spacing = (float(limits.max), float(limits.smallest_subnormal), 1.0)
    path = tmp_path / "x.nii"
    write_nifti(path, np.ones((32767, 1, 1), dtype=np.uint8), spacing)
    arr, got, _ = read_nifti(path)
    assert arr.shape == (32767, 1, 1) and got == spacing


# -- declared sizes ---------------------------------------------------------

def _header_bytes(tmp_path, dims, datatype=16, vox_offset=352.0) -> bytes:
    """The valid file with ``dim[0:len(dims)]``, ``datatype`` and
    ``vox_offset`` overwritten."""
    edits = (_patch(40, f"{len(dims)}h", *dims), _patch(70, "h", datatype),
             _patch(108, "f", vox_offset))
    return _stored(tmp_path, edits, gz=False)


def _store(path, blob: bytes, gz: bool):
    path.write_bytes(gzip.compress(blob, mtime=0) if gz else blob)
    return path


@pytest.mark.parametrize("gz", [False, True])
def test_bytes_after_the_payload_are_read_and_ignored(tmp_path, rng, gz):
    """A file may hold bytes past its payload; the reader drains them (so a
    gzip stream verifies its checksum) and returns the same array."""
    arr = _random_array(rng, np.float32)
    path = tmp_path / "x.nii"
    write_nifti(path, arr, SPACING)
    path = _store(tmp_path / "tail.nii", path.read_bytes() + b"tail" * 1000, gz)
    back, spacing, _ = read_nifti(path)
    assert np.array_equal(back, arr) and spacing == SPACING


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dims=st.lists(st.integers(-32768, 32767), min_size=4, max_size=4)
       | st.tuples(st.just(3), *[st.integers(1, 3)] * 3).map(list),
       datatype=st.sampled_from([2, 4, 16]) | st.integers(-32768, 32767),
       vox_offset=st.floats(width=32) | st.sampled_from([348.0, 352.0, 356.0]),
       gz=st.booleans())
def test_header_fuzz_reads_or_raises_format_error(tmp_path, dims, datatype, vox_offset, gz):
    """Any dim/datatype/vox_offset either reads back the shape it declares
    or raises NiftiFormatError; nothing else escapes and nothing larger
    than the file is allocated."""
    path = _store(tmp_path / "fuzz.nii", _header_bytes(tmp_path, dims, datatype, vox_offset), gz)
    try:
        arr, _, _ = read_nifti(path)
    except NiftiFormatError:
        return
    assert arr.shape == tuple(dims[1:4])


def _mutants(seeds: list[bytes], n: int, seed: int):
    """``n`` stored files, each a mutant of one of the plain files
    ``seeds``: a non-finite or largest-finite float32 word over a header
    float (pixdim, vox_offset, scl_slope, scl_inter) or a payload word,
    random header bytes, or random bytes or a cut of the stored file; half
    of them gzip-compressed."""
    rnd = random.Random(seed)
    words = _NON_FINITE_BITS + [0x7F7FFFFF]
    for i in range(n):
        blob = bytearray(rnd.choice(seeds))
        if i % 3 == 0:
            at = rnd.choice([84, 88, 92, 108, 112, 116, *range(352, len(blob) - 3, 4)])
            blob[at:at + 4] = struct.pack("<I", rnd.choice(words))
        elif i % 3 == 1:
            for _ in range(rnd.randint(1, 4)):
                blob[rnd.randrange(nifti.HEADER_SIZE)] = rnd.randrange(256)
        stored = bytearray(gzip.compress(blob, mtime=0) if rnd.random() < 0.5 else blob)
        if i % 3 == 2:
            if rnd.random() < 0.2:
                del stored[rnd.randrange(len(stored)):]
            else:
                for _ in range(rnd.randint(1, 4)):
                    stored[rnd.randrange(len(stored))] = rnd.randrange(256)
        yield bytes(stored)


def test_seeded_mutation_run_reads_or_raises_format_error(tmp_path):
    """3,000 seeded mutants of small uint8, int16 and float32 files, plain
    and gzip: every reader returns or raises NiftiFormatError, with every
    warning an error."""
    rng = np.random.default_rng(16)
    seeds = []
    for arr in (rng.integers(0, 4, size=(5, 4, 3), dtype=np.uint8),
                rng.integers(-40, 40, size=(4, 3, 3), dtype=np.int16),
                rng.random((3, 5, 4), dtype=np.float32)):
        write_nifti(tmp_path / "seed.nii", arr, SPACING)
        seeds.append((tmp_path / "seed.nii").read_bytes())
    path = tmp_path / "mutant.nii"
    readers = (read_volume, read_labelmap, read_nifti)
    outcomes = collections.Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stored in _mutants(seeds, 3000, seed=16):
            path.write_bytes(stored)
            for reader in readers:
                try:
                    reader(path)
                    outcomes[reader.__name__, "read"] += 1
                except NiftiFormatError:
                    outcomes[reader.__name__, "refused"] += 1
    # every reader both read and refused a good share of the mutants
    assert all(outcomes[r.__name__, o] > 300 for r in readers for o in ("read", "refused")), \
        outcomes


# -- placement sidecars -----------------------------------------------------

def test_placement_roundtrip(tmp_path):
    p = Placement(parent_shape=(640, 640, 44), offset=(32, 32, -2), window_shape=(576, 576, 48))
    path = tmp_path / "p.json"
    write_placement(p, path)
    assert read_placement(path) == p


def test_placement_missing_key(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"parent_shape": [2,2,2], "offset": [0,0,0]}')
    with pytest.raises(ValueError, match="window_shape"):
        read_placement(path)
