import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biatrium import (
    BBox,
    EmptyMaskError,
    LabelMap,
    MclaheParams,
    Placement,
    Volume,
    bbox_from_mask,
    crop_window,
    downsample_mean,
    expand_bbox,
    mclahe,
    standardize,
    stitch,
)
from biatrium.core import ConfigError
from biatrium.geometry import _overlap

from oracles import two_step_chain, whole_grid_downsample_mean


def _vol(arr, spacing=(1.0, 1.0, 1.0)):
    return Volume(data=np.asarray(arr, dtype=np.float32), spacing=spacing)


def _index_volume(shape):
    """Each voxel's value is its own flat index, so any rearrangement can be
    traced back exactly (float32 holds integers < 2**24)."""
    n = int(np.prod(shape))
    assert n < 2 ** 24
    return _vol(np.arange(n).reshape(shape))


# -- standardize ------------------------------------------------------------

def test_standardize_crop_and_pad_offsets():
    src = np.random.default_rng(7).random((640, 640, 44), dtype=np.float32) + 0.5
    v = _vol(src)
    out, place = standardize(v, (576, 576, 48))
    assert out.shape == (576, 576, 48)
    assert place.offset == (32, 32, -2)
    assert place.parent_shape == (640, 640, 44)
    # cropped region content: target (0,0,2) is source (32,32,0)
    assert out.data[0, 0, 2] == v.data[32, 32, 0]
    # padded z slices are fill
    assert np.all(out.data[:, :, 0] == 0.0)
    assert np.all(out.data[:, :, -1] == 0.0)


def test_standardize_identity():
    v = _index_volume((10, 12, 8))
    out, place = standardize(v, (10, 12, 8))
    assert np.array_equal(out.data, v.data)
    assert place.offset == (0, 0, 0)


def test_identity_placement_shares_read_only_data(rng):
    """Standardizing to the input's own shape, or stitching a LabelMap or
    Volume through that placement, hands back the same read-only data; a
    bare array is still copied."""
    v = Volume(data=rng.random((192, 192, 48), dtype=np.float32), spacing=(1.0, 1.0, 2.0),
               orientation=b"\x01" * 80)
    out, place = standardize(v, v.shape)
    assert np.shares_memory(out.data, v.data) and not out.data.flags.writeable
    assert out.spacing == v.spacing and out.orientation is None

    labels = LabelMap(data=(v.data > 0.5).astype(np.uint8), spacing=v.spacing)
    back = stitch(labels, place)
    assert isinstance(back, LabelMap) and np.shares_memory(back.data, labels.data)
    assert np.shares_memory(stitch(out, place).data, v.data)

    bare = stitch(labels.data, place)
    assert np.array_equal(bare, labels.data) and not np.shares_memory(bare, labels.data)
    with pytest.raises(ValueError, match="shape"):
        stitch(LabelMap(data=labels.data[:-1], spacing=v.spacing), place)


def test_standardize_odd_difference_goes_high():
    v = _index_volume((577, 576, 48))
    out, place = standardize(v, (576, 576, 48))
    assert place.offset == (0, 0, 0)  # crop 0 low, 1 high in x
    assert np.array_equal(out.data, v.data[:576])

    v2 = _index_volume((4, 4, 4))
    out2, place2 = standardize(v2, (7, 4, 4))
    # pad difference 3: 1 low, 2 high
    assert place2.offset == (-1, 0, 0)
    assert np.all(out2.data[0] == 0)
    assert np.all(out2.data[5] == 0)
    assert np.all(out2.data[6] == 0)
    assert np.array_equal(out2.data[1:5], v2.data)


def test_standardize_custom_fill():
    v = _vol(np.ones((2, 2, 2)))
    out, _ = standardize(v, (4, 2, 2), pad_value=-5.0)
    assert out.data[0, 0, 0] == -5.0
    lowest = float(np.finfo(np.float32).min)
    out, _ = standardize(v, (4, 2, 2), pad_value=lowest)
    assert out.data[0, 0, 0] == lowest


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39, -1e39])
def test_pad_and_fill_values_must_be_finite_as_float32(bad):
    """The caller's pad or fill value is the one outside value that enters
    a window; one that is not finite as float32 (1e39 overflows to inf) is
    refused by name."""
    v = _index_volume((4, 4, 4))
    with pytest.raises(ValueError, match="pad_value"):
        standardize(v, (6, 6, 6), pad_value=bad)
    with pytest.raises(ValueError, match="pad_value"):
        crop_window(v, (2, 2, 2), (6, 6, 6), pad_value=bad)
    win, place = crop_window(v, (2, 2, 2), (2, 2, 2))
    for child in (win, win.data):
        with pytest.raises(ValueError, match="fill_value"):
            stitch(child, place, fill_value=bad)


def test_standardize_rejects_bad_target():
    with pytest.raises(ValueError):
        standardize(_vol(np.zeros((2, 2, 2))), (0, 2, 2))
    with pytest.raises(ValueError, match="target_shape"):
        standardize(_vol(np.zeros((2, 2, 2))), 5)


# -- downsample -------------------------------------------------------------

def test_downsample_shapes_and_spacing():
    v = _vol(np.zeros((576, 576, 48)), spacing=(0.625, 0.625, 2.5))
    out = downsample_mean(v, (4, 4, 1))
    assert out.shape == (144, 144, 48)
    assert out.spacing == (2.5, 2.5, 2.5)


def test_downsample_block_mean_value():
    arr = np.array([[[0.0], [1.0]], [[2.0], [3.0]]])
    out = downsample_mean(_vol(arr), (2, 2, 1))
    assert out.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == 1.5


def test_downsample_constant_stays_constant():
    out = downsample_mean(_vol(np.full((8, 8, 4), 0.7)), (2, 2, 2))
    assert np.allclose(out.data, np.float32(0.7))


def test_downsample_preserves_global_mean(rng):
    data = rng.random((24, 16, 8), dtype=np.float32)
    out = downsample_mean(_vol(data), (4, 2, 2))
    assert abs(float(out.data.mean()) - float(data.mean())) <= 1e-6 * abs(float(data.mean()))


def test_downsample_equals_whole_grid_oracle(rng):
    """Slab by slab averaging gives the whole-grid float64 mean bit for bit,
    also for values spanning 1e-30 to 1e20 of either sign."""
    for i in range(60):
        factors = tuple(int(f) for f in rng.integers(1, 6, size=3))
        shape = tuple(int(n) * f for n, f in zip(rng.integers(1, 40, size=3), factors))
        if i % 2:
            data = 10.0 ** rng.uniform(-30, 20, size=shape) * rng.choice([-1.0, 1.0], size=shape)
        else:
            data = rng.random(shape)
        v = _vol(data, spacing=tuple(rng.uniform(0.3, 3.0, size=3)))
        got, ref = downsample_mean(v, factors), whole_grid_downsample_mean(v, factors)
        assert np.array_equal(got.data, ref.data) and got.spacing == ref.spacing
    v = _vol(rng.random((576, 576, 48), dtype=np.float32))
    assert np.array_equal(downsample_mean(v).data, whole_grid_downsample_mean(v).data)


def test_downsample_spacing_overflow_is_refused():
    v = _vol(np.ones((2, 2, 2)), spacing=(3e38, 1.0, 1.0))
    with pytest.raises(ValueError, match="spacing"):
        downsample_mean(v, (2, 1, 1))


def test_downsample_rejects_non_divisible():
    with pytest.raises(ValueError, match="divisible"):
        downsample_mean(_vol(np.zeros((5, 4, 4))), (2, 2, 2))


# -- bbox -------------------------------------------------------------------

def _labels(arr):
    return LabelMap(data=np.asarray(arr, dtype=np.uint8), spacing=(1, 1, 1))


def test_bbox_single_voxel():
    arr = np.zeros((10, 10, 10), dtype=np.uint8)
    arr[5, 6, 7] = 1
    box = bbox_from_mask(_labels(arr))
    assert box.lo == (5, 6, 7)
    assert box.hi == (6, 7, 8)


def test_bbox_full_volume():
    box = bbox_from_mask(_labels(np.ones((4, 5, 6), dtype=np.uint8)))
    assert box.lo == (0, 0, 0)
    assert box.hi == (4, 5, 6)


def test_bbox_two_voxels():
    arr = np.zeros((12, 12, 12), dtype=np.uint8)
    arr[1, 1, 1] = 1
    arr[9, 3, 2] = 2
    box = bbox_from_mask(_labels(arr))
    assert box.lo == (1, 1, 1)
    assert box.hi == (10, 4, 3)


def test_bbox_positive_class_filter():
    arr = np.zeros((8, 8, 8), dtype=np.uint8)
    arr[0, 0, 0] = 1
    arr[4, 4, 4] = 2
    box = bbox_from_mask(_labels(arr), positive_classes={2})
    assert box.lo == (4, 4, 4)
    with pytest.raises(EmptyMaskError):
        bbox_from_mask(_labels(arr), positive_classes={3})


def test_bbox_empty_mask():
    with pytest.raises(EmptyMaskError):
        bbox_from_mask(_labels(np.zeros((4, 4, 4), dtype=np.uint8)))


def test_bbox_matches_brute_force(rng):
    for _ in range(20):
        arr = (rng.random((9, 8, 7)) < 0.08).astype(np.uint8)
        if not arr.any():
            continue
        box = bbox_from_mask(_labels(arr))
        pts = np.argwhere(arr)
        assert box.lo == tuple(pts.min(axis=0))
        assert box.hi == tuple(pts.max(axis=0) + 1)
        # tightness: every face of the box touches a positive voxel
        for ax in range(3):
            assert pts[:, ax].min() == box.lo[ax]
            assert pts[:, ax].max() == box.hi[ax] - 1


def test_expand_bbox_clips_to_bounds():
    box = BBox(lo=(2, 2, 2), hi=(4, 4, 4))
    grown = expand_bbox(box, 3, (10, 5, 6))
    assert grown.lo == (0, 0, 0)
    assert grown.hi == (7, 5, 6)


# -- crop_window ------------------------------------------------------------

def test_crop_identity():
    v = _index_volume((16, 16, 8))
    out, place = crop_window(v, center=(8, 8, 4), window=(16, 16, 8))
    assert np.array_equal(out.data, v.data)
    assert place.offset == (0, 0, 0)


def test_crop_minimal_shift_clamps_to_zero():
    v = _index_volume((576, 576, 48))
    out, place = crop_window(v, center=(0, 0, 0), window=(256, 256, 48))
    assert place.offset == (0, 0, 0)
    assert np.array_equal(out.data, v.data[:256, :256, :])


def test_crop_minimal_shift_clamps_to_high_edge():
    v = _index_volume((20, 20, 10))
    out, place = crop_window(v, center=(19, 10, 5), window=(8, 8, 4))
    assert place.offset == (12, 6, 3)
    assert np.array_equal(out.data, v.data[12:20, 6:14, 3:7])


def test_crop_window_larger_than_parent_pads_symmetrically():
    v = _index_volume((4, 10, 10))
    out, place = crop_window(v, center=(2, 5, 5), window=(7, 6, 10), pad_value=-1)
    assert out.shape == (7, 6, 10)
    assert place.offset == (-1, 2, 0)
    assert np.all(out.data[0] == -1)
    assert np.all(out.data[5] == -1)
    assert np.all(out.data[6] == -1)
    assert np.array_equal(out.data[1:5], v.data[:, 2:8, :])


def test_crop_window_always_requested_shape(rng):
    for _ in range(30):
        shape = tuple(int(rng.integers(3, 20)) for _ in range(3))
        window = tuple(int(rng.integers(1, 26)) for _ in range(3))
        center = tuple(int(rng.integers(-5, s + 5)) for s in shape)
        out, place = crop_window(_index_volume(shape), center, window)
        assert out.shape == window
        assert place.window_shape == window
        assert place.parent_shape == shape


def test_crop_rejects_bad_window():
    with pytest.raises(ValueError):
        crop_window(_index_volume((4, 4, 4)), (2, 2, 2), (0, 4, 4))
    for center in ((2, 2), (2, float("inf"), 2)):
        with pytest.raises(ValueError, match="center"):
            crop_window(_index_volume((4, 4, 4)), center, (4, 4, 4))


# -- stitch -----------------------------------------------------------------

def test_stitch_restores_in_window_voxels():
    v = _index_volume((16, 16, 8))
    win, place = crop_window(v, center=(5, 5, 3), window=(6, 6, 4))
    back = stitch(win.data, place, fill_value=-1)
    inside = back != -1
    assert inside.sum() == 6 * 6 * 4
    assert np.array_equal(back[inside], v.data[inside])


def test_stitch_drops_padding_and_fills_elsewhere():
    v = _index_volume((4, 4, 4))
    win, place = crop_window(v, center=(2, 2, 2), window=(8, 4, 4))
    back = stitch(win.data, place, fill_value=-1)
    assert back.shape == (4, 4, 4)
    assert np.array_equal(back, v.data)  # full overlap: everything restored


def test_stitch_preserves_nonzero_count_when_window_inside():
    arr = np.zeros((8, 8, 4), dtype=np.uint8)
    arr[2:5, 3:6, 1:3] = 2
    vwin, place = crop_window(Volume(data=arr.astype(np.float32), spacing=(1, 1, 1)),
                              center=(3, 4, 2), window=(6, 6, 4))
    mwin = LabelMap(data=vwin.data.astype(np.uint8), spacing=(1, 1, 1))
    back = stitch(mwin, place)
    assert isinstance(back, LabelMap)
    assert int((back.data != 0).sum()) == int((arr != 0).sum())


def test_stitch_type_preservation():
    v = _index_volume((6, 6, 6))
    win, place = crop_window(v, (3, 3, 3), (4, 4, 4))
    assert isinstance(stitch(win, place), Volume)
    assert isinstance(stitch(win.data, place), np.ndarray)


@pytest.mark.parametrize("dtype, bad", [
    (np.int16, 1e5), (np.uint8, 300), (np.uint8, -1), (np.uint8, 2.5), (np.bool_, 2),
])
def test_stitch_refuses_a_fill_an_integer_array_cannot_hold(dtype, bad):
    """A cast would wrap or truncate the fill (int16 1e5 to -31072, uint8
    300, -1 and 2.5 to 44, 255 and 2), so a bare integer or bool array
    refuses any fill that it cannot hold exactly, naming fill_value and
    the dtype."""
    child = np.ones((2, 2, 2), dtype=dtype)
    place = Placement(parent_shape=(4, 4, 4), offset=(1, 1, 1), window_shape=(2, 2, 2))
    with pytest.raises(ConfigError, match=f"fill_value for a {np.dtype(dtype)} array"):
        stitch(child, place, fill_value=bad)


def test_stitch_fills_an_integer_array_with_any_value_it_holds():
    place = Placement(parent_shape=(4, 4, 4), offset=(1, 1, 1), window_shape=(2, 2, 2))
    for dtype, fill in [(np.int16, -32768), (np.int16, 32767.0), (np.uint8, 255),
                        (np.uint8, np.float32(7)), (np.bool_, 1), (np.float16, 0.1)]:
        out = stitch(np.ones((2, 2, 2), dtype=dtype), place, fill_value=fill)
        assert out.dtype == dtype and out[0, 0, 0] == dtype(fill), (dtype, fill)


def test_stitch_fills_a_labelmap_by_the_integer_rule():
    """A LabelMap is stitched with the fill it is given, under the rule of
    every integer array: a code it holds fills, one it cannot raises."""
    place = Placement(parent_shape=(4, 4, 4), offset=(1, 1, 1), window_shape=(2, 2, 2))
    labels = LabelMap(data=np.ones((2, 2, 2), dtype=np.uint8), spacing=(1, 1, 1))
    out = stitch(labels, place, fill_value=2)
    assert isinstance(out, LabelMap) and out.data[0, 0, 0] == 2 and out.data[1, 1, 1] == 1
    with pytest.raises(ConfigError, match="fill_value"):
        stitch(labels, place, fill_value=300)


def test_stitch_shape_mismatch():
    v = _index_volume((6, 6, 6))
    _, place = crop_window(v, (3, 3, 3), (4, 4, 4))
    with pytest.raises(ValueError, match="shape"):
        stitch(np.zeros((3, 3, 3), dtype=np.float32), place, 0)


def test_overlap_rejects_disjoint_placement():
    p = Placement(parent_shape=(4, 4, 4), offset=(10, 0, 0), window_shape=(2, 2, 2))
    with pytest.raises(ValueError, match="overlap"):
        _overlap(p)


# -- one copy rule ------------------------------------------------------------

_SHAPE = (8, 6, 4)
_PADDED = standardize(_SHAPE, (12, 10, 8))  # 2 voxels of padding on every side
# name: (placement chain from the first grid to the last, whether the two
# grids coincide voxel for voxel)
_CHAINS = {
    "whole": ((Placement(parent_shape=_SHAPE, offset=(0, 0, 0), window_shape=_SHAPE),), True),
    "pad_then_crop_back": ((_PADDED, Placement(parent_shape=(12, 10, 8), offset=(2, 2, 2),
                                               window_shape=_SHAPE)), True),
    "strict_part": ((Placement(parent_shape=_SHAPE, offset=(1, 1, 1),
                               window_shape=(6, 4, 2)),), False),
    "padded_every_side": ((_PADDED,), False),
}
_READS = ([("standardize", "volume", c) for c in ("whole", "strict_part", "padded_every_side")]
          + [("crop_window", "volume", c) for c in _CHAINS]
          + [("stitch", k, c) for k in ("labelmap", "volume", "array") for c in _CHAINS])


def _read_through(op, kind, chain):
    """(result data, source data) of ``op`` along ``chain``: standardize and
    crop_window read its last grid out of its first, stitch the reverse."""
    through = chain[0] if len(chain) == 2 else None
    if op == "stitch":
        shape = chain[-1].window_shape
        data = np.arange(np.prod(shape)).reshape(shape)
        src = {"labelmap": LabelMap(data=(data % 4).astype(np.uint8), spacing=(1, 1, 1)),
               "volume": _vol(data), "array": data.astype(np.float32)}[kind]
        out = stitch(src, chain[-1], through=through)
    else:
        src, window = _index_volume(chain[0].parent_shape), chain[-1]
        if op == "standardize":
            out, place = standardize(src, window.window_shape)
        else:
            center = tuple(o + n // 2 for o, n in zip(window.offset, window.window_shape))
            out, place = crop_window(src, center, window.window_shape, through=through)
        assert place == window
    return tuple(x if isinstance(x, np.ndarray) else x.data for x in (out, src))


@pytest.mark.parametrize("op, kind, chain", _READS)
def test_result_shares_the_source_only_when_it_is_all_of_it(op, kind, chain):
    """A LabelMap or Volume result shares the source's read-only data
    exactly when the chain puts one grid on the whole other, also when no
    single link does (pad, then crop back); a strict part or a window padded
    on every side is a new array, and a bare array result always is."""
    links, whole = _CHAINS[chain]
    out, src = _read_through(op, kind, links)
    assert np.shares_memory(out, src) == (whole and kind != "array")
    if whole:
        assert np.array_equal(out, src)


# -- composition round trips ------------------------------------------------

def test_standardize_then_stitch_index_tracking(rng):
    for _ in range(15):
        shape = tuple(int(rng.integers(3, 24)) for _ in range(3))
        target = tuple(int(rng.integers(1, 28)) for _ in range(3))
        v = _index_volume(shape)
        std, place = standardize(v, target, pad_value=-1)
        back = stitch(std.data, place, fill_value=-1)
        assert back.shape == shape
        surviving = back != -1
        assert np.array_equal(back[surviving], v.data[surviving])
        # every index that survived the crop is restored to its exact spot
        expect_surviving = np.zeros(shape, dtype=bool)
        sl = tuple(slice(max(o, 0), min(o + t, s))
                   for s, t, o in zip(shape, target, place.offset))
        expect_surviving[sl] = True
        assert np.array_equal(surviving, expect_surviving)


def test_full_composition_standardize_crop_stitch_unstandardize(rng):
    """Push an index volume through the whole geometry chain and verify every
    surviving voxel landed back at its original index."""
    for _ in range(15):
        shape = tuple(int(rng.integers(6, 30)) for _ in range(3))
        target = tuple(int(rng.integers(4, 32)) for _ in range(3))
        window = tuple(int(rng.integers(2, 20)) for _ in range(3))
        center = tuple(int(rng.integers(0, t)) for t in target)
        v = _index_volume(shape)

        std, p1 = standardize(v, target, pad_value=-1)
        win, p2 = crop_window(std, center, window, pad_value=-1)
        back_std = stitch(win.data, p2, fill_value=-1)
        back = stitch(back_std, p1, fill_value=-1)

        assert back.shape == shape
        surviving = back != -1
        flat = np.arange(np.prod(shape)).reshape(shape)
        assert np.array_equal(back[surviving], flat[surviving].astype(np.float32))


@given(st.tuples(*[st.integers(2, 20)] * 3), st.tuples(*[st.integers(1, 24)] * 3),
       st.tuples(*[st.integers(-4, 24)] * 3))
@settings(max_examples=60, deadline=None)
def test_crop_stitch_roundtrip_property(shape, window, center):
    v = _index_volume(shape)
    win, place = crop_window(v, center, window, pad_value=-1)
    back = stitch(win.data, place, fill_value=-1)
    surviving = back != -1
    assert np.array_equal(back[surviving], v.data[surviving])
    # the window content itself is consistent: re-cropping gives it back
    win2, _ = crop_window(Volume(data=np.where(surviving, v.data, -1).astype(np.float32),
                                 spacing=v.spacing), center, window, pad_value=-1)
    assert np.array_equal(win2.data, win.data)


# -- the standard grid as a placement ---------------------------------------

def _placement_chain(v, standard_shape, factors, center, window, fine):
    """The pipeline's geometry: the standard grid is a placement only."""
    to_original = standardize(v.shape, standard_shape)
    coarse_in = downsample_mean(v, factors, through=to_original)
    fine_in, to_standard = crop_window(v, center, window, through=to_original)
    labels = stitch(fine(fine_in), to_standard, through=to_original)
    return coarse_in, fine_in, labels, to_original, to_standard


def _fine_labels(fine_in):
    """Nonzero labels on every voxel of the window, its padding included, so
    a voxel pasted where it does not belong shows."""
    codes = np.indices(fine_in.shape).sum(axis=0) + (fine_in.data > 0.5)
    return LabelMap(data=(1 + codes % 3).astype(np.uint8), spacing=fine_in.spacing)


def _assert_chains_equal(v, standard_shape, factors, center, window):
    got = _placement_chain(v, standard_shape, factors, center, window, _fine_labels)
    ref = two_step_chain(v, standard_shape, factors, center, window, _fine_labels)
    for g, r in zip(got[:3], ref[:3]):
        assert type(g) is type(r) and g.spacing == r.spacing
        assert g.data.dtype == r.data.dtype and np.array_equal(g.data, r.data)
    assert got[3:] == ref[3:]


def _cancelling(rng, shape):
    """Values in [0, 1), half of them replaced by +-1e16: where the large
    values of a block cancel, summing it in another order keeps other parts
    of the small ones, which shows even after rounding to float32."""
    big = rng.choice([-1e16, 1e16], size=shape)
    return _vol(np.where(rng.random(shape) < 0.5, big, rng.random(shape)))


_CHAIN_CASES = [
    ((20, 18, 10), (32, 32, 16), (4, 4, 2), (16, 16, 8)),    # smaller on every axis
    ((40, 37, 21), (32, 32, 16), (4, 4, 2), (16, 16, 8)),    # larger on every axis
    ((40, 12, 16), (32, 32, 16), (4, 4, 2), (16, 16, 8)),    # mixed
    ((25, 19, 9), (32, 32, 16), (4, 4, 2), (15, 17, 7)),     # odd differences
    ((26, 22, 13), (32, 32, 16), (4, 4, 2), (16, 16, 8)),    # pads 3, 5, 1
    ((32, 32, 16), (32, 32, 16), (4, 4, 2), (16, 16, 8)),    # identity
    ((32, 32, 16), (32, 32, 16), (4, 4, 2), (32, 32, 16)),   # identity window too
    ((48, 20, 16), (32, 32, 16), (4, 4, 2), (40, 16, 8)),    # window wider than both
    ((6, 6, 4), (32, 32, 16), (4, 4, 2), (8, 8, 4)),         # window can miss the input
    ((16, 16, 1), (16, 16, 3), (4, 4, 1), (8, 8, 2)),        # one z-block of input
]


@pytest.mark.parametrize("shape, standard, factors, window", _CHAIN_CASES)
def test_placement_chain_equals_two_step_chain(rng, shape, standard, factors, window):
    """Reading the input through the standard placement gives the coarse
    input, the fine input and the stitched labels of the two-step chain
    bit for bit."""
    centers = [(0, 0, 0), tuple(s - 1 for s in standard), tuple(s // 2 for s in standard)]
    centers += [tuple(int(rng.integers(0, s)) for s in standard) for _ in range(4)]
    for center in centers:
        _assert_chains_equal(_vol(rng.random(shape) + 0.25), standard, factors, center, window)
        _assert_chains_equal(_cancelling(rng, shape), standard, factors, center, window)


def _assert_passes_public_checks(r: Volume):
    """``r``, a Volume built without the public checks, is one the public
    constructor takes unchanged."""
    assert type(r) is Volume and isinstance(r.spacing, tuple)
    assert r.data.ndim == 3 and r.data.dtype == np.float32 and not r.data.flags.writeable
    again = Volume(data=r.data.copy(), spacing=r.spacing, orientation=r.orientation)
    assert again.spacing == r.spacing and np.array_equal(again.data, r.data)


@pytest.mark.parametrize("shape, standard, factors, window", _CHAIN_CASES)
def test_derived_volumes_pass_the_public_checks(rng, shape, standard, factors, window):
    """Every Volume that mclahe, standardize, crop_window, downsample_mean
    and stitch derive, on the chains above, with and without ``through``."""
    v = _cancelling(rng, shape)
    center = tuple(int(rng.integers(0, s)) for s in standard)
    to_original = standardize(v.shape, standard)
    std, _ = standardize(v, standard, pad_value=-2.5)
    fine_in, to_standard = crop_window(v, center, window, pad_value=7.0, through=to_original)
    fine_std, _ = crop_window(std, center, window)
    for r in (std, fine_in, fine_std, stitch(fine_std, to_standard),
              downsample_mean(std, factors), downsample_mean(v, factors, through=to_original),
              stitch(fine_in, to_standard, 1.5, through=to_original),
              mclahe(v), mclahe(std, MclaheParams(kernel_size=factors, n_bins=16))):
        _assert_passes_public_checks(r)


def test_placement_chain_equals_two_step_chain_random(rng):
    for _ in range(150):
        factors = tuple(int(f) for f in rng.integers(1, 5, size=3))
        standard = tuple(int(n) * f for n, f in zip(rng.integers(1, 9, size=3), factors))
        shape = tuple(int(rng.integers(1, 2 * s + 4)) for s in standard)
        window = tuple(int(rng.integers(1, s + 8)) for s in standard)
        center = tuple(int(rng.integers(0, s)) for s in standard)
        _assert_chains_equal(_cancelling(rng, shape), standard, factors, center, window)


def test_placement_chain_equals_two_step_chain_batch_small(rng):
    """The batch_small shape on the default standard grid, window and factors."""
    v = _vol(rng.random((192, 192, 48), dtype=np.float32))
    for center in ((288, 288, 24), (200, 360, 24), (575, 0, 47)):
        _assert_chains_equal(v, (576, 576, 48), (4, 4, 1), center, (256, 256, 48))


def test_placement_chain_rejects_mismatched_links(rng):
    v = _vol(rng.random((8, 8, 8), dtype=np.float32))
    place = standardize((6, 6, 6), (8, 8, 8))
    with pytest.raises(ValueError, match="does not match"):
        downsample_mean(v, (2, 2, 2), through=place)
    with pytest.raises(ValueError, match="does not match"):
        crop_window(v, (3, 3, 3), (6, 6, 6), through=standardize((6, 6, 6), (6, 6, 6)))
    _, window = crop_window(v, (4, 4, 4), (4, 4, 4))
    with pytest.raises(ValueError, match="cannot follow"):
        stitch(np.zeros((4, 4, 4)), window, through=standardize((8, 8, 8), (6, 6, 6)))
