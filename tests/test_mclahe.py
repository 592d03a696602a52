import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biatrium import MclaheParams, Volume, mclahe
from biatrium.mclahe import _mclahe_consume, _row_tables

from conftest import interrupt_the_blend, thread_budget, traced_peak
from oracles import (clip_redistribute, global_hist_eq, mapping_from_hist, naive_mclahe,
                     whole_volume_mclahe)


def test_params_defaults_and_validation():
    p = MclaheParams()
    assert p.kernel_size is None
    assert p.n_bins == 128
    assert p.clip_limit == 0.01
    assert p.resolve_kernel((576, 576, 48)) == (72, 72, 6)
    assert p.resolve_kernel((5, 5, 5)) == (1, 1, 1)
    assert MclaheParams(kernel_size=(4, 4, 2)).resolve_kernel((64, 64, 64)) == (4, 4, 2)

    with pytest.raises(ValueError):
        MclaheParams(kernel_size=(0, 4, 4))
    with pytest.raises(ValueError):
        MclaheParams(n_bins=1)
    with pytest.raises(ValueError):
        MclaheParams(clip_limit=0.0)
    with pytest.raises(ValueError):
        MclaheParams(clip_limit=1.5)


def test_clip_redistribute_worked_example():
    out = clip_redistribute(np.array([10, 0, 0, 0]), tile_voxels=10, clip_limit=0.4)
    assert out.tolist() == [6, 2, 1, 1]


def test_clip_redistribute_no_excess_is_identity():
    hist = np.array([3, 2, 4, 1])
    out = clip_redistribute(hist, tile_voxels=10, clip_limit=0.5)
    assert out.tolist() == hist.tolist()


def test_clip_redistribute_limit_floor_is_one():
    # tiny tiles: the limit never drops below one count
    out = clip_redistribute(np.array([2, 0]), tile_voxels=2, clip_limit=0.01)
    assert out.tolist() == [2, 0]


def test_clip_redistribute_rejects_wrong_total():
    with pytest.raises(ValueError):
        clip_redistribute(np.array([1, 1]), tile_voxels=3, clip_limit=0.5)


@given(st.lists(st.integers(0, 50), min_size=2, max_size=64),
       st.floats(0.01, 1.0))
@settings(max_examples=200, deadline=None)
def test_clip_redistribute_preserves_total(counts, clip):
    hist = np.array(counts)
    total = int(hist.sum())
    if total == 0:
        return
    out = clip_redistribute(hist, tile_voxels=total, clip_limit=clip)
    assert int(out.sum()) == total
    assert (out >= 0).all()


def test_mapping_uniform_hist_closed_form():
    n = 16
    m = mapping_from_hist(np.full(n, 5))
    expected = np.arange(n) / (n - 1)
    assert np.allclose(m, expected)
    # the coarse closed form (b+1)/n agrees within one bin width
    assert np.abs(m - (np.arange(n) + 1) / n).max() <= 1.0 / n


def test_mapping_single_bin_is_identity_ramp():
    hist = np.zeros(8, dtype=int)
    hist[3] = 11
    m = mapping_from_hist(hist)
    assert np.allclose(m, np.arange(8) / 7.0)


def test_mapping_rejects_empty():
    with pytest.raises(ValueError):
        mapping_from_hist(np.zeros(8, dtype=int))


@given(st.lists(st.integers(0, 20), min_size=2, max_size=64))
@settings(max_examples=200, deadline=None)
def test_mapping_monotone_and_bounded(counts):
    hist = np.array(counts)
    if hist.sum() == 0:
        return
    m = mapping_from_hist(hist)
    assert (np.diff(m) >= 0).all()
    assert m[0] >= 0.0
    assert m[-1] <= 1.0


def test_vectorized_tile_path_matches_scalar_ops(rng):
    """The batched per-tile histogram/clip/map pipeline must agree with the
    scalar operations applied tile by tile."""
    shape, kernel, n_bins, clip = (8, 6, 4), (4, 3, 2), 16, 0.08
    norm = rng.random(shape)
    bins = np.minimum((norm * n_bins).astype(np.int32), n_bins - 1)
    ntiles = tuple(s // k for s, k in zip(shape, kernel))
    tile_voxels = int(np.prod(kernel))
    for tx in range(ntiles[0]):
        tables = _row_tables(bins, tx, kernel, ntiles, n_bins, clip)
        for ty in range(ntiles[1]):
            for tz in range(ntiles[2]):
                block = bins[tx * 4:(tx + 1) * 4, ty * 3:(ty + 1) * 3, tz * 2:(tz + 1) * 2]
                hist = np.bincount(block.ravel(), minlength=n_bins)
                expect = mapping_from_hist(clip_redistribute(hist, tile_voxels, clip))
                assert np.array_equal(tables[ty, tz], expect)


def test_constant_volume_gives_constant_output():
    v = Volume(data=np.full((16, 16, 8), 7.0, dtype=np.float32), spacing=(1, 1, 1))
    out = mclahe(v, MclaheParams(kernel_size=(4, 4, 4)))
    assert out.shape == v.shape
    assert np.all(out.data == out.data.flat[0])


def test_single_tile_full_clip_matches_global_he(rng):
    shape = (12, 10, 6)
    data = rng.random(shape, dtype=np.float32)
    v = Volume(data=data, spacing=(1, 1, 1))
    out = mclahe(v, MclaheParams(kernel_size=shape, n_bins=128, clip_limit=1.0))
    oracle = global_hist_eq(data, 128)
    assert np.abs(out.data - oracle).max() <= 1.0 / 128


def test_matches_naive_reference(rng):
    cases = [
        ((16, 12, 8), (4, 4, 4), 32, 0.05),
        ((10, 9, 7), (4, 3, 2), 16, 0.3),   # exercises replicate padding
        ((8, 8, 8), (8, 8, 8), 64, 1.0),    # single tile
        ((6, 6, 6), (2, 2, 2), 8, 0.01),
    ]
    for shape, kernel, n_bins, clip in cases:
        data = rng.random(shape, dtype=np.float32)
        v = Volume(data=data, spacing=(1, 1, 1))
        out = mclahe(v, MclaheParams(kernel_size=kernel, n_bins=n_bins, clip_limit=clip))
        ref = naive_mclahe(data, kernel, n_bins, clip)
        assert np.array_equal(out.data, ref.astype(np.float32)), (shape, kernel)


@pytest.mark.parametrize("shape, kernel, n_bins, clip", [
    ((37, 190, 150), (5, 24, 16), 32, 0.02),   # padded; slab edges cut tiles
    ((37, 190, 150), (5, 24, 16), 300, 0.5),   # uint16 bins
    ((3, 300, 250), (2, 64, 32), 128, 0.01),   # one x-row per slab
    ((192, 192, 48), None, 128, 0.01),         # default params, 28 slabs
    ((9, 40, 30), (1, 1, 1), 16, 0.01),        # one-voxel tiles, one x-row per slab
    ((7, 9, 5), (16, 12, 8), 32, 0.1),         # kernel larger than the grid
    ((23, 40, 30), (5, 8, 7), 64, 0.02),       # slab capped at kx; padded x-edge row
])
def test_streamed_matches_whole_volume(rng, shape, kernel, n_bins, clip):
    """Volumes spanning many x-slabs equal the unstreamed blend bit for bit,
    at thread budgets 1, 2 and 3 (the (7, 9, 5) volume has fewer slabs
    than 3 threads)."""
    data = rng.random(shape, dtype=np.float32)
    params = MclaheParams(kernel_size=kernel, n_bins=n_bins, clip_limit=clip)
    ref = whole_volume_mclahe(data, params.resolve_kernel(shape), n_bins, clip)
    for threads in (1, 2, 3):
        with thread_budget(threads):
            out = mclahe(Volume(data=data, spacing=(1, 1, 1)), params)
        assert np.array_equal(out.data, ref), threads


def test_streamed_working_set_is_bounded(rng):
    """Traced allocations stay within 3x the float32 input, at thread
    budgets 1 and 2: output, bins and slab-sized temporaries, with no
    full-volume float64 array."""
    v = Volume(data=rng.random((192, 192, 48), dtype=np.float32), spacing=(1, 1, 1))
    for threads in (1, 2):
        with thread_budget(threads):
            assert traced_peak(mclahe, v) / v.data.nbytes <= 3.0, threads


@pytest.mark.parametrize("shape, kernel", [
    ((192, 192, 48), None),   # default params, many slabs
    ((23, 40, 30), (5, 8, 7)),  # padded edge tiles
])
def test_mclahe_leaves_its_argument_untouched(rng, shape, kernel):
    """The public call writes a new array, at thread budgets 1 and 2: its
    argument keeps every byte and stays read-only."""
    data = rng.random(shape, dtype=np.float32)
    v = Volume(data=data.copy(), spacing=(1, 1, 1))
    for threads in (1, 2):
        with thread_budget(threads):
            out = mclahe(v, MclaheParams(kernel_size=kernel))
        assert not np.shares_memory(out.data, v.data)
        assert v.data.tobytes() == data.tobytes() and not v.data.flags.writeable


@pytest.mark.parametrize("kind", ["random", "padded", "constant"])
def test_consuming_path_equals_public_path(rng, kind):
    """Written over its input, MCLAHE gives the public call's output bit for
    bit at thread budgets 1 and 2, in the input's own array, read-only
    again; a constant volume (hi == lo, no binning pass) included."""
    shape, kernel = ((23, 40, 30), (5, 8, 7)) if kind == "padded" else ((192, 192, 48), None)
    data = (np.full(shape, 0.37, dtype=np.float32) if kind == "constant"
            else rng.random(shape, dtype=np.float32))
    params = MclaheParams(kernel_size=kernel)
    for threads in (1, 2):
        with thread_budget(threads):
            want = mclahe(Volume(data=data, spacing=(1, 1, 1)), params)
            v = Volume(data=data.copy(), spacing=(1, 1, 1))
            own = v.data
            got = _mclahe_consume(v, params)
        assert got.data is own and not got.data.flags.writeable
        assert got.data.tobytes() == want.data.tobytes(), threads
        assert (got.spacing, got.orientation) == (want.spacing, want.orientation)


def test_consuming_path_holds_no_second_grid(rng):
    """Written over its input, MCLAHE allocates no full float32 grid, at
    thread budgets 1 and 2: the bins (a quarter of the input), row tables
    and slab-sized temporaries trace under 1x the input (the public call,
    with its output, traces about 1.7x)."""
    for threads in (1, 2):
        v = Volume(data=rng.random((192, 192, 48), dtype=np.float32), spacing=(1, 1, 1))
        with thread_budget(threads):
            assert traced_peak(_mclahe_consume, v) / v.data.nbytes < 1.0, threads


def _traced_peak(data: np.ndarray, kernel) -> int:
    v = Volume(data=data, spacing=(1, 1, 1))
    return traced_peak(mclahe, v, MclaheParams(kernel_size=kernel))


def test_tile_tables_follow_one_tile_row(rng):
    """Tables are held for at most three tile rows, not the whole tile grid,
    and are built once for all threads: with one-voxel tiles, growing x
    adds only the output and the bins to the peak, and small tiles on a
    larger grid stay within 4x the input, at thread budgets 1 and 2."""
    for threads in (1, 2):
        with thread_budget(threads):
            small = _traced_peak(rng.random((48, 48, 24), dtype=np.float32), (1, 1, 1))
            large = _traced_peak(rng.random((192, 48, 24), dtype=np.float32), (1, 1, 1))
            assert (large - small) / ((192 - 48) * 48 * 24) <= 8.0, threads

            data = rng.random((192, 192, 48), dtype=np.float32)
            assert _traced_peak(data, (4, 4, 2)) / data.nbytes <= 4.0, threads


def test_interrupt_in_the_blend_joins_every_helper(rng, monkeypatch):
    """An interrupt in the calling thread while helpers blend their slabs
    reaches the caller only after every helper has finished: no helper
    thread outlives the call."""
    interrupt_the_blend(monkeypatch)
    baseline = threading.active_count()
    v = Volume(data=rng.random((64, 40, 30), dtype=np.float32), spacing=(1, 1, 1))
    with thread_budget(3), pytest.raises(KeyboardInterrupt):
        mclahe(v, MclaheParams(kernel_size=(64, 8, 8)))
    assert threading.active_count() == baseline


def test_output_range_and_shape(rng):
    for _ in range(10):
        shape = tuple(int(rng.integers(4, 20)) for _ in range(3))
        scale = float(rng.uniform(0.1, 500))
        offset = float(rng.uniform(-100, 100))
        data = (rng.random(shape, dtype=np.float32) * scale + offset).astype(np.float32)
        v = Volume(data=data, spacing=(1, 1, 1))
        out = mclahe(v)
        assert out.shape == shape
        assert out.spacing == v.spacing
        assert float(out.data.min()) >= 0.0
        assert float(out.data.max()) <= 1.0


def test_low_contrast_ramp_expands_to_full_span():
    # a narrow intensity band still yields strong output contrast
    x = np.linspace(0.4, 0.6, 24 * 20 * 8, dtype=np.float32).reshape(24, 20, 8)
    out = mclahe(Volume(data=x, spacing=(1, 1, 1)))
    assert float(out.data.min()) <= 0.05
    assert float(out.data.max()) >= 0.95


def test_deterministic_rerun(rng):
    data = rng.random((20, 18, 10), dtype=np.float32)
    v = Volume(data=data, spacing=(1, 1, 1))
    a = mclahe(v)
    b = mclahe(v)
    assert np.array_equal(a.data, b.data)


def test_output_monotone_in_own_value(rng):
    """Raising a single voxel's value never lowers that voxel's output."""
    params = MclaheParams(kernel_size=(4, 4, 4), n_bins=32, clip_limit=0.1)
    data = rng.random((12, 12, 8), dtype=np.float32)
    for _ in range(20):
        pos = tuple(int(rng.integers(0, s)) for s in data.shape)
        bumped = data.copy()
        bumped[pos] = min(1.0, bumped[pos] + float(rng.uniform(0.05, 0.4)))
        lo = mclahe(Volume(data=data, spacing=(1, 1, 1)), params)
        hi = mclahe(Volume(data=bumped, spacing=(1, 1, 1)), params)
        assert hi.data[pos] >= lo.data[pos] - 1e-6


def test_mclahe_non_finite_rejected_at_type_boundary():
    bad = np.ones((4, 4, 4), dtype=np.float32)
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        Volume(data=bad, spacing=(1, 1, 1))
