"""Every traced memory bound of the package, one row each: ``id -> (make,
factor)``, where ``make(tmp_path)`` stages the inputs and returns ``(call,
reference_bytes)``.  After one untraced call, the peak traced while
``call()`` runs, its result included, must be at most ``factor *
reference_bytes`` at thread budgets 1 and 2.  An id starts with the module
whose code the row bounds (``-k mclahe``)."""
import math
from functools import partial

import numpy as np
import pytest

from biatrium import (LabelMap, MclaheParams, NiftiFormatError, PhantomSpec, Volume,
                      config_from_dict, downsample_mean, generate, mclahe, read_labelmap,
                      read_volume, run_case, standardize, stitch, write_nifti, write_volume)
from biatrium.core import check_label_codes
from biatrium.mclahe import _mclahe_consume

from conftest import thread_budget, traced_peak
from test_nifti import REFUSALS, SPACING, _header_bytes, _reencode_big_endian, _store, _stored

GRID, PAPER = (192, 192, 48), (576, 576, 48)


def _random(shape, high=None) -> np.ndarray:
    rng = np.random.default_rng(5)
    return rng.random(shape, dtype=np.float32) if high is None else rng.integers(
        0, high, size=shape, dtype=np.uint8)


def _on_volume(fn, *args, shape=GRID, reference=None):
    """``fn(v, *args)`` of a random volume ``v``, against ``v`` or ``reference``."""
    def make(tmp_path):
        v = Volume(data=_random(shape), spacing=(1, 1, 1))
        return partial(fn, v, *args), reference or v.data.nbytes
    return make


def _raising(call, error, match):
    def raising():
        with pytest.raises(error, match=match):
            call()
    return raising


def _label_codes(tmp_path, bad: bool):
    arr = _random(GRID, 4)
    arr[96, 96, 24] = 9 if bad else 3
    call = partial(check_label_codes, LabelMap(data=arr, spacing=(1, 1, 1)))
    return (_raising(call, ValueError, r"label values \[9\]") if bad else call), arr.nbytes


def _stitch_through_identity(tmp_path):
    labels = LabelMap(data=(_random(GRID) > 0.5).astype(np.uint8), spacing=(1, 1, 1))
    return partial(stitch, labels, standardize(GRID, GRID)), labels.data.nbytes


def _write(arr_of, suffix):
    def make(tmp_path):
        arr = arr_of()
        return partial(write_nifti, tmp_path / f"x{suffix}", arr, SPACING), arr.nbytes
    return make


def _read(reader, encoding, dtype):
    """``reader`` of a paper-scale label pattern stored as ``dtype`` in
    ``encoding``, against its output; both readers read one file."""
    def make(tmp_path):
        path = tmp_path.parent / f"labels-{encoding}-{dtype}.nii{'.gz' * (encoding == 'gzip')}"
        if not path.exists():
            x, y, z = np.indices(PAPER, sparse=True)
            write_nifti(path, ((x // 24 + y // 24 + z // 8) % 4).astype(dtype), SPACING)
            if encoding == "big-endian":
                _reencode_big_endian(path, path)
        return partial(reader, path), (4 if reader is read_volume else 1) * math.prod(PAPER)
    return make


def _refused(blob_of, name):
    def make(tmp_path):
        path = _store(tmp_path / name, blob_of(tmp_path), gz=name.endswith(".gz"))
        return _raising(partial(read_volume, path), NiftiFormatError, "truncated payload"), 1 << 20
    return make


def _case(gt: bool, **config):
    """A phantom case with threshold backends, ground truth if ``gt`` and
    ``config``, against the float32 standard grid (its shape, or PAPER)."""
    def make(tmp_path):
        vol, truth = generate(PhantomSpec(noise_amplitude=0.05, seed=1))
        case = {"case_id": "c", "image": str(tmp_path / f"image.nii{'.gz' * gt}")}
        write_volume(vol, case["image"])
        if gt:
            write_volume(truth, case.setdefault("gt", str(tmp_path / "gt.nii.gz")))
        threshold = {"kind": "threshold", "threshold": 0.3}
        cfg = config_from_dict({"cases": [case], "output_dir": str(tmp_path / "out"), **config,
                                "coarse_backend": threshold, "fine_backend": threshold})

        def call():
            result = run_case(cfg, cfg.cases[0])
            assert result.ok and (result.metrics if gt else not result.flags), result.error

        assert vol.shape == GRID and cfg.standard_shape in (GRID, PAPER)
        return call, 4 * math.prod(cfg.standard_shape)
    return make


_SMALL = dict(standard_shape=list(GRID), fine_window=[128, 128, 48])
WORKING_SETS = {
    # No intp copy of the map: a valid map needs only its max, and a bad
    # code is counted one slab at a time.
    "core-label-codes-valid": (partial(_label_codes, bad=False), 0.5),
    "core-label-codes-bad": (partial(_label_codes, bad=True), 0.5),
    # An identity placement shares the data: nothing of grid size.
    "geometry-standardize-own-shape": (_on_volume(standardize, GRID), 0.01),
    "geometry-stitch-identity": (_stitch_through_identity, 0.01),
    # No full-grid float64 copy: the output (1/16) and slab temporaries.
    "geometry-downsample": (_on_volume(downsample_mean, (4, 4, 1)), 0.25),
    # Standardizing to a shape builds no array; downsampling through a
    # padding placement holds the coarse output and slab temporaries.
    "geometry-standardize-a-shape": (lambda tmp: (partial(standardize, GRID, PAPER), 10_000), 1.0),
    "geometry-downsample-through-padding": (_on_volume(downsample_mean, (4, 4, 1), standardize(
        GRID, PAPER), reference=4 * 144 * 144 * 48 + 192 * 192 * 48), 1.0),
    # A 200^3 kernel's padding on an 8^3 grid is counted, not built (its
    # bin indices alone would be 8 MB).
    "mclahe-kernel-200-cubed": (_on_volume(mclahe, MclaheParams(kernel_size=(200, 200, 200)),
                                           shape=(8, 8, 8), reference=1 << 20), 1.0),
    # The output, bins and slab temporaries, no full-grid float64 array.
    "mclahe-default": (_on_volume(mclahe), 3.0),
    # Tables are held for at most three tile rows, not the whole tile grid.
    "mclahe-kernel-4-4-2": (_on_volume(mclahe, MclaheParams(kernel_size=(4, 4, 2))), 4.0),
    # Over its input, no second grid: the bins (a quarter of the input), row
    # tables and slab temporaries.  Each call is handed the same array, and
    # MCLAHE's output bins and blends as any input does.
    "mclahe-over-its-input": (_on_volume(_mclahe_consume), 1.0),
    # The deflate strategy trial samples a blocky map's foreground box and
    # copies none of the grid (a boolean copy alone would be 1.0x).
    "nifti-write-blocky-gzip": (_write(lambda: np.pad(
        np.ones((200, 200, 20), np.uint8), ((100, 276), (200, 176), (10, 18))), ".nii.gz"), 0.25),
    # Writes stream a few z-planes at a time, and the compressor holds no
    # more than a plane of output.
    **{f"nifti-write-{t}-{e}": (_write(partial(_random, GRID, *high), s), 0.6)
       for t, high in (("uint8", (256,)), ("float32", ()))
       for e, s in (("plain", ".nii"), ("gzip", ".nii.gz"))},
    # Reads hold their output, a chunk of stored values (8 of 48 planes) and a
    # gzip read request; a wider label file's chunk and plane-wise integer
    # check keep it within twice its output and 1.25x its stored array.
    **{f"nifti-read-{r.__name__[5:]}-{e}-{t}": (_read(r, e, t), 2.0 if r is read_labelmap
                                               and t != "uint8" else 1.25)
       for r in (read_volume, read_labelmap) for e in ("plain", "gzip", "big-endian")
       for t in ("uint8", "int16", "float32")},
    # A header that declares more than its file can hold is refused before
    # anything that size is allocated: 2 GB over 1 KB of gzip, 108 TB plain.
    "nifti-refuse-2GB-gzip": (_refused(lambda tmp: _header_bytes(
        tmp, dims=(3, 1024, 1024, 512)) + _random(1000, 256).tobytes(), "liar.nii.gz"), 1.0),
    "nifti-refuse-108TB-plain": (_refused(lambda tmp: _stored(
        tmp, REFUSALS["dims-30000-cubed"][0], gz=False), "liar.nii"), 1.0),
    # The default phantom: its image, its labels and slab temporaries.
    "phantom-generate": (lambda tmp: (
        partial(generate, PhantomSpec(noise_amplitude=0.05)), 4 * math.prod(GRID)), 2.0),
    # No stage widens a full grid, and each grid goes after its last
    # reader; MCLAHE writes over the input it reads.
    "pipeline-case-enhanced": (_case(True, **_SMALL), 1.75),
    # Without MCLAHE, the read streams into its output and standardize
    # shares it: one full float32 grid.
    "pipeline-case-unenhanced": (_case(True, **_SMALL, mclahe=None), 1.75),
    # The default standard grid is a placement, never an array.
    "pipeline-case-padded-grid": (_case(False, mclahe=None), 1.0),
}


@pytest.mark.parametrize("row", WORKING_SETS)
def test_working_set(tmp_path, row):
    make, factor = WORKING_SETS[row]
    call, reference = make(tmp_path)
    call()  # one-off costs, such as lazy imports, are paid untraced
    for threads in (1, 2):
        with thread_budget(threads):
            peak = traced_peak(call)
        assert peak <= factor * reference, f"{peak / reference:.3f}x > {factor}x at {threads}"


def test_mclahe_tile_tables_follow_one_tile_row(rng):
    """Tables are built once for all threads: with one-voxel tiles, growing
    x adds only the output and the bins to the peak, at budgets 1 and 2."""
    def peak(shape):
        v = Volume(data=rng.random(shape, dtype=np.float32), spacing=(1, 1, 1))
        return traced_peak(mclahe, v, MclaheParams(kernel_size=(1, 1, 1)))

    for threads in (1, 2):
        with thread_budget(threads):
            small, large = peak((48, 48, 24)), peak((192, 48, 24))
            assert (large - small) / ((192 - 48) * 48 * 24) <= 8.0, threads
