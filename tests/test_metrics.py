import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from biatrium import metrics
from biatrium import (
    ConfusionCounts,
    LabelMap,
    MetricRow,
    confusion_counts,
    dice,
    evaluate_case,
    format_float,
    hausdorff,
    hd95,
    read_report_csv,
    surface_points,
    write_report_csv,
)
from conftest import child_env, random_blobby_labels, random_noise_labels
from oracles import (
    brute_confusion,
    brute_dice,
    brute_hausdorff,
    brute_hd95,
    brute_surface_points,
    full_grid_evaluate_case,
    region_points,
)


def _labels(arr, spacing=(1.0, 1.0, 1.0)):
    return LabelMap(data=np.asarray(arr, dtype=np.uint8), spacing=spacing)


# -- confusion / dice -------------------------------------------------------

def test_confusion_counts_hand_example():
    pred = np.zeros((2, 2, 1), dtype=np.uint8)
    gt = np.zeros((2, 2, 1), dtype=np.uint8)
    pred[0, 0, 0] = 1
    pred[0, 1, 0] = 1
    gt[0, 0, 0] = 1
    gt[1, 0, 0] = 1
    c = confusion_counts(_labels(pred), _labels(gt), 1)
    assert (c.tp, c.fp, c.fn) == (1, 1, 1)


def test_confusion_counts_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        confusion_counts(_labels(np.zeros((2, 2, 2))), _labels(np.zeros((2, 2, 3))), 1)


def test_confusion_counts_negative_rejected():
    with pytest.raises(ValueError):
        ConfusionCounts(tp=-1, fp=0, fn=0)


def test_dice_two_thirds_exact():
    assert dice(ConfusionCounts(tp=2, fp=1, fn=1)) == 2.0 / 3.0


def test_dice_perfect_and_empty():
    assert dice(ConfusionCounts(tp=10, fp=0, fn=0)) == 1.0
    assert dice(ConfusionCounts(tp=0, fp=0, fn=0)) == 1.0
    assert dice(ConfusionCounts(tp=0, fp=3, fn=0)) == 0.0


def test_confusion_matches_brute_loop(rng):
    for _ in range(10):
        p = random_blobby_labels(rng, (7, 6, 5))
        g = random_blobby_labels(rng, (7, 6, 5))
        for code in (1, 2, 3):
            c = confusion_counts(p, g, code)
            assert (c.tp, c.fp, c.fn) == brute_confusion(p.data, g.data, code)
            assert dice(c) == brute_dice(c.tp, c.fp, c.fn)


# -- point extraction -------------------------------------------------------

def test_surface_of_solid_cube_is_26():
    arr = np.zeros((7, 7, 7), dtype=np.uint8)
    arr[2:5, 2:5, 2:5] = 1
    pts = surface_points(_labels(arr), 1)
    assert pts.shape == (26, 3)  # 3^3 block minus its single interior voxel
    assert not any(np.array_equal(p, [3, 3, 3]) for p in pts)


def test_surface_single_voxel():
    arr = np.zeros((5, 5, 5), dtype=np.uint8)
    arr[1, 2, 3] = 2
    pts = surface_points(_labels(arr, spacing=(0.5, 2.0, 3.0)), 2)
    assert pts.shape == (1, 3)
    assert np.array_equal(pts[0], [0.5, 4.0, 9.0])


def test_volume_boundary_counts_as_outside():
    # class fills the whole volume: every voxel on a face is surface
    pts = surface_points(_labels(np.ones((3, 3, 3), dtype=np.uint8)), 1)
    assert pts.shape == (26, 3)


def test_surface_empty_class():
    pts = surface_points(_labels(np.zeros((3, 3, 3), dtype=np.uint8)), 1)
    assert pts.shape == (0, 3)


def test_surface_matches_brute_loop(rng):
    for _ in range(8):
        spacing = tuple(float(rng.uniform(0.3, 3.0)) for _ in range(3))
        m = random_blobby_labels(rng, (8, 7, 6), spacing=spacing)
        for code in (1, 2, 3):
            got = surface_points(m, code)
            ref = brute_surface_points(m.data, spacing, code)
            assert np.array_equal(np.sort(got, axis=0), np.sort(ref, axis=0))


def test_region_points_counts_every_voxel(rng):
    m = random_blobby_labels(rng, (6, 6, 6))
    for code in (1, 2, 3):
        assert len(region_points(m, code)) == int((m.data == code).sum())


# -- distances --------------------------------------------------------------

def test_hd95_singleton_pair_is_exact():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[3.0, 4.0, 0.0]])
    assert hd95(a, b) == 5.0
    assert hausdorff(a, b) == 5.0


def test_distance_identical_sets_zero(rng):
    pts = rng.random((40, 3)) * 10
    assert hd95(pts, pts) == 0.0
    assert hausdorff(pts, pts) == 0.0


def test_distance_empty_conventions():
    pts = np.array([[1.0, 1.0, 1.0]])
    none = np.empty((0, 3))
    assert hd95(none, none) == 0.0
    assert hausdorff(none, none) == 0.0
    assert hd95(pts, none) == float("inf")
    assert hd95(none, pts) == float("inf")
    assert hausdorff(pts, none) == float("inf")


def test_nearest_rank_integer_arithmetic():
    # (95n + 99) // 100 must equal ceil(0.95 n) for every pool size; the
    # naive float route fails at n = 20 (0.95 * 20 -> 19.000000000000004)
    for n in range(1, 500):
        assert (95 * n + 99) // 100 == math.ceil(Fraction(95, 100) * n)


def test_hd95_picks_stated_rank():
    # 10 + 10 points -> pool of 20, rank ceil(0.95*20) = 19, not 20: the
    # largest pooled distance is excluded while the runner-up is kept
    a = np.array([[float(i), 0.0, 0.0] for i in range(10)])
    b = a.copy()
    b[0] = [0.0, 7.0, 0.0]
    b[1] = [1.0, 3.0, 0.0]
    # a->b NN: a0->(2,0,0)=2, a1->(2,0,0)=1, rest 0
    # b->a NN: b0->(0,0,0)=7, b1->(1,0,0)=3, rest 0
    # pooled sorted: [0]*16 + [1, 2, 3, 7]; rank 19 -> 3, max -> 7
    assert hd95(a, b) == 3.0
    assert hausdorff(a, b) == 7.0


def test_distances_match_brute_oracle(rng):
    for _ in range(10):
        p = random_blobby_labels(rng, (8, 8, 6))
        g = random_blobby_labels(rng, (8, 8, 6))
        for code in (1, 2, 3):
            a = surface_points(p, code)
            b = surface_points(g, code)
            assert abs(hd95(a, b) - brute_hd95(a, b)) <= 1e-9 or hd95(a, b) == brute_hd95(a, b)
            assert abs(hausdorff(a, b) - brute_hausdorff(a, b)) <= 1e-9 \
                or hausdorff(a, b) == brute_hausdorff(a, b)


def test_hd95_translation_invariant(rng):
    a = rng.random((25, 3)) * 8
    b = rng.random((30, 3)) * 8
    shift = np.array([5.0, -3.0, 11.0])
    assert abs(hd95(a + shift, b + shift) - hd95(a, b)) <= 1e-9
    assert abs(hd95(a, b) - hd95(b, a)) == 0.0  # symmetric by construction


def test_hd95_scales_with_spacing(rng):
    arr = (rng.random((9, 9, 5)) < 0.1).astype(np.uint8)
    arr[0, 0, 0] = 1
    arr2 = (rng.random((9, 9, 5)) < 0.1).astype(np.uint8)
    arr2[8, 8, 4] = 1
    a1 = surface_points(_labels(arr, spacing=(1, 1, 1)), 1)
    b1 = surface_points(_labels(arr2, spacing=(1, 1, 1)), 1)
    a2 = surface_points(_labels(arr, spacing=(2, 2, 2)), 1)
    b2 = surface_points(_labels(arr2, spacing=(2, 2, 2)), 1)
    assert hd95(a2, b2) == 2.0 * hd95(a1, b1)


# -- evaluate_case ----------------------------------------------------------

def test_evaluate_case_default_classes_and_order():
    arr = np.zeros((6, 6, 4), dtype=np.uint8)
    arr[1:3, 1:3, 1:3] = 1
    arr[4, 4, 2] = 2
    m = _labels(arr)
    rows = evaluate_case(m, m, case_id="self")
    assert [r.class_name for r in rows] == ["wall", "right_atrium", "left_atrium"]
    wall, ra, la = rows
    assert (wall.dice, wall.hd95_mm, wall.flags) == (1.0, 0.0, "")
    assert (ra.dice, ra.hd95_mm, ra.flags) == (1.0, 0.0, "")
    assert (la.dice, la.hd95_mm, la.flags) == (1.0, 0.0, "empty")
    assert all(r.case_id == "self" for r in rows)


def test_evaluate_case_one_sided_empty_flags():
    pred = np.zeros((4, 4, 4), dtype=np.uint8)
    gt = np.zeros((4, 4, 4), dtype=np.uint8)
    gt[1, 1, 1] = 1
    pred[2, 2, 2] = 2
    rows = evaluate_case(_labels(pred), _labels(gt))
    by_name = {r.class_name: r for r in rows}
    assert by_name["wall"].flags == "pred_empty"
    assert by_name["wall"].dice == 0.0
    assert math.isinf(by_name["wall"].hd95_mm)
    assert by_name["right_atrium"].flags == "gt_empty"
    assert math.isinf(by_name["right_atrium"].hd95_mm)
    assert by_name["left_atrium"].flags == "empty"


def test_evaluate_case_custom_classes():
    arr = np.zeros((4, 4, 4), dtype=np.uint8)
    arr[0, 0, 0] = 5
    m = LabelMap(data=arr, spacing=(1, 1, 1))
    rows = evaluate_case(m, m, classes={"bg": 0, "thing": 5})
    assert len(rows) == 1
    assert rows[0].class_name == "thing"
    assert rows[0].dice == 1.0


def test_evaluate_case_region_mode_matches_oracle(rng):
    p = random_blobby_labels(rng, (7, 7, 5))
    g = random_blobby_labels(rng, (7, 7, 5))
    rows = evaluate_case(p, g, classes={"background": 0, "class_1": 1},
                         point_mode="region")
    a = region_points(p, 1)
    b = region_points(g, 1)
    if len(a) and len(b):
        assert rows[0].hd95_mm == pytest.approx(brute_hd95(a, b), abs=1e-9)


def test_evaluate_case_validation():
    m = _labels(np.zeros((3, 3, 3), dtype=np.uint8))
    other = _labels(np.zeros((3, 3, 4), dtype=np.uint8))
    spaced = _labels(np.zeros((3, 3, 3), dtype=np.uint8), spacing=(2, 1, 1))
    with pytest.raises(ValueError, match="shape"):
        evaluate_case(m, other)
    with pytest.raises(ValueError, match="spacing"):
        evaluate_case(m, spaced)
    with pytest.raises(ValueError, match="point_mode"):
        evaluate_case(m, m, point_mode="edges")


def _equality_case(rng, kind):
    """A (pred, gt, classes) pair of the given kind on a small random grid
    with random spacing."""
    shape = tuple(int(n) for n in rng.integers(2, 11, size=3))
    spacing = tuple(float(s) for s in rng.uniform(0.3, 3.0, size=3))
    classes = None
    if kind == "identical":
        p = random_blobby_labels(rng, shape, spacing=spacing).data
        g = p.copy()
    elif kind == "few_voxels":
        p = random_blobby_labels(rng, shape, spacing=spacing).data
        g = p.copy()
        n = int(rng.integers(1, 4))
        g[tuple(rng.integers(0, s, size=n) for s in shape)] = rng.integers(0, 4, size=n)
    elif kind == "one_sided":
        p = random_blobby_labels(rng, shape, codes=(1, 2), spacing=spacing).data
        g = random_blobby_labels(rng, shape, codes=(2, 3), spacing=spacing).data
    elif kind == "every_face":
        p = random_noise_labels(rng, shape, spacing=spacing).data.copy()
        g = random_blobby_labels(rng, shape, spacing=spacing).data
        for ax in range(3):
            for end in (0, -1):
                face = [slice(None)] * 3
                face[ax] = end
                p[tuple(face)] = rng.integers(1, 4)
    elif kind == "background":
        p = np.zeros(shape, dtype=np.uint8)
        g = p.copy()
    elif kind == "speckled":  # far one-sided voxels, more than the probe budget settles
        shape = tuple(int(n) for n in rng.integers(8, 15, size=3))
        g = random_blobby_labels(rng, shape, spacing=spacing).data
        p = g.copy()
        n = p.size // 10
        p[tuple(rng.integers(0, s, size=n) for s in shape)] = rng.integers(1, 4, size=n)
    elif kind in ("non_dyadic", "shifted"):
        # the ground truth moved along one axis; "shifted" on a cubic grid,
        # where many offsets tie in length
        if kind == "non_dyadic":
            spacing = tuple(float(s) for s in rng.permutation([0.7, 1 / 3, 2.5]))
            step = 1
        else:
            spacing = (spacing[0],) * 3
            step = int(rng.integers(1, 4))
        g = random_blobby_labels(rng, shape, spacing=spacing).data
        p = np.zeros_like(g)
        ax = int(rng.integers(0, 3))
        src, dst = [slice(None)] * 3, [slice(None)] * 3
        src[ax], dst[ax] = slice(0, -step), slice(step, None)
        p[tuple(dst)] = g[tuple(src)]
    elif kind == "one_voxel":  # each class one voxel per map, the two at most one voxel apart
        p = np.zeros(shape, dtype=np.uint8)
        g = p.copy()
        for code in (1, 2, 3):
            at = rng.integers(0, shape)
            g[tuple(at)] = code
            p[tuple(np.clip(at + rng.integers(-1, 2, size=3), 0, np.array(shape) - 1))] = code
    else:  # code 255 exercises the largest code a uint8 map holds
        classes = {"background": 0, "low": 7, "high": 255}
        codes = (7, 255)
        p = random_blobby_labels(rng, shape, codes=codes, spacing=spacing).data
        g = random_blobby_labels(rng, shape, codes=codes, spacing=spacing).data
    return _labels(p, spacing), _labels(g, spacing), classes


_EQUALITY_KINDS = ("identical", "few_voxels", "one_sided", "every_face", "background",
                   "code_255", "speckled", "non_dyadic", "shifted", "one_voxel")


# The paths a kind's pairs take, over both point modes: "no_query" (no class
# has a voxel in one map only, or the shared voxels alone settle the rank),
# "search" (the shell search settles the rank) and "kd_tree" (the search
# leaves queries to the KD-tree).
_ALL_PATHS = {"no_query", "search", "kd_tree"}
_PATHS = {"identical": {"no_query"}, "background": {"no_query"},
          "speckled": {"search", "kd_tree"}, "non_dyadic": {"search", "kd_tree"}}


@pytest.mark.parametrize("kind", _EQUALITY_KINDS)
def test_evaluate_case_equals_full_grid_oracle(kind, monkeypatch):
    """The cropped, shell-searched evaluation gives the full-grid rows float
    for float (40 pairs per kind, both point modes), on each path."""
    calls = Counter()

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    for name in ("_two_bit_map", "_kd_tree"):
        monkeypatch.setattr(metrics, name, counted(name, getattr(metrics, name)))
    rng = np.random.default_rng(_EQUALITY_KINDS.index(kind))
    paths = set()
    for _ in range(40):
        pred, gt, classes = _equality_case(rng, kind)
        for mode in ("surface", "region"):
            calls.clear()
            got = evaluate_case(pred, gt, classes, case_id="c", point_mode=mode)
            paths.add("kd_tree" if calls["_kd_tree"] else
                      "search" if calls["_two_bit_map"] else "no_query")
            assert got == full_grid_evaluate_case(pred, gt, classes, case_id="c",
                                                  point_mode=mode)
    assert paths == _PATHS.get(kind, _ALL_PATHS)


def test_hit_distance_is_the_kdtree_float():
    """A hit's distance, taken from its voxel index and offset, is the float
    cKDTree reports for the same two voxel centers, on non-dyadic spacings
    and indices up to the largest a NIfTI grid holds."""
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(3)
    lo, shape = (5, 7, 11), (2 ** 15 - 11,) * 3
    for spacing in ((0.7, 1 / 3, 2.5), (0.625, 0.625, 2.5), (1 / 3, 1 / 7, 0.1)):
        targets = rng.integers(0, shape[0], size=(4000, 3))
        queries = np.concatenate([rng.integers(0, shape[0], size=(4000, 3)),
                                  targets + rng.integers(-3, 4, size=targets.shape)])
        queries = queries[(queries >= 0).all(axis=1) & (queries < shape[0]).all(axis=1)]
        dist, nearest = cKDTree(metrics._centers_mm(targets, spacing, lo)).query(
            metrics._centers_mm(queries, spacing, lo), k=1)
        at = np.ravel_multi_index(queries.T, shape)
        got = metrics._hit_distance(at, targets[nearest] - queries, shape, spacing, lo)
        assert np.array_equal(got, dist)


def test_near_tied_hits_take_the_least_float():
    """Two targets one voxel either side of a query tie in offset length,
    but far from the grid's origin their center distances differ in the
    last bits; the row keeps the lesser float, as the KD-tree does, on
    whichever side it lies."""
    classes = {"background": 0, "c": 1}
    for i in (30000, 30001):
        left, right = abs(i * 0.7 - (i - 1) * 0.7), abs(i * 0.7 - (i + 1) * 0.7)
        assert left != right
        gt = np.zeros((i + 2, 1, 1), dtype=np.uint8)
        gt[[i - 1, i + 1]] = 1
        pred = gt.copy()
        pred[i] = 1  # with 4 zeros, its distance is the pool's 5th of 5
        p, g = _labels(pred, (0.7, 1.0, 1.0)), _labels(gt, (0.7, 1.0, 1.0))
        rows = evaluate_case(p, g, classes)
        assert rows == full_grid_evaluate_case(p, g, classes)
        assert rows[0].hd95_mm == min(left, right)


def test_a_hit_waits_for_longer_offsets_within_the_margin():
    """A hit at offset length 0.7 is not final while an offset a relative
    1.4e-13 longer is unprobed: far from the grid's origin the first hit's
    center distance is 0.7000000000007276, and the longer offset's target,
    at 0.7000000000001, is the nearer."""
    i, sy = 30000, 0.7000000000001
    assert abs(i * 0.7 - (i - 1) * 0.7) > sy
    gt = np.zeros((i + 1, 2, 1), dtype=np.uint8)
    gt[i - 1, 0] = gt[i, 1] = 1
    pred = gt.copy()
    pred[i, 0] = 1  # with 4 zeros, its distance is the pool's 5th of 5
    p, g = _labels(pred, (0.7, sy, 1.0)), _labels(gt, (0.7, sy, 1.0))
    classes = {"background": 0, "c": 1}
    rows = evaluate_case(p, g, classes)
    assert rows == full_grid_evaluate_case(p, g, classes)
    assert rows[0].hd95_mm == sy


def test_a_shell_holds_the_offsets_at_its_radius():
    """The first shell's radius is the length of (1, 1, 1): the diagonal
    from (3, 3, 3) to (4, 4, 4) is probed there, so the far prediction
    voxel's distance is sqrt(3), not 2.0 from the next shell."""
    pred, gt = np.zeros((8, 8, 8), dtype=np.uint8), np.zeros((8, 8, 8), dtype=np.uint8)
    pred[3, 3, 3] = pred[5, 3, 3] = 1
    gt[4, 4, 4] = gt[5, 3, 3] = 1
    p, g = _labels(pred), _labels(gt)
    classes = {"background": 0, "c": 1}
    rows = evaluate_case(p, g, classes)
    assert rows == full_grid_evaluate_case(p, g, classes)
    assert rows[0].hd95_mm == math.sqrt(3)


def test_the_search_stops_at_the_rank_on_its_last_probes(monkeypatch):
    """At spacing (1.5, 1.5, 2), 64 offsets are 4.0 mm long or shorter, so
    three queries spend their whole budget of 64 probes each on them.  The
    two near queries, a z-step of 4.0 mm apart, hit each other on the last
    of those probes; with 12 voxels in both maps their distance is at the
    rank, so the search returns it before the far query needs the KD-tree."""
    pred, gt = np.zeros((24, 6, 8), dtype=np.uint8), np.zeros((24, 6, 8), dtype=np.uint8)
    pred[12:15, :4, 0] = gt[12:15, :4, 0] = 1
    pred[2, 2, 2] = gt[2, 2, 4] = pred[23, 5, 7] = 1
    p, g = _labels(pred, (1.5, 1.5, 2.0)), _labels(gt, (1.5, 1.5, 2.0))
    classes = {"background": 0, "c": 1}
    want = full_grid_evaluate_case(p, g, classes, point_mode="region")
    monkeypatch.setattr(metrics, "_kd_tree", None)  # a call would raise
    assert evaluate_case(p, g, classes, point_mode="region") == want
    assert want[0].hd95_mm == 4.0


def test_evaluate_case_equals_full_grid_oracle_across_slabs():
    """Grids many x-slabs thick, with several blobs per class, still give
    the full-grid rows."""
    rng = np.random.default_rng(17)
    for _ in range(4):
        shape = (int(rng.integers(150, 220)), int(rng.integers(30, 60)), int(rng.integers(10, 20)))
        spacing = tuple(float(s) for s in rng.uniform(0.3, 3.0, size=3))
        pred = random_blobby_labels(rng, shape, spacing=spacing, n_blobs=(2, 6))
        gt = random_blobby_labels(rng, shape, spacing=spacing, n_blobs=(2, 6))
        assert evaluate_case(pred, gt) == full_grid_evaluate_case(pred, gt)


def test_import_does_not_load_kdtree():
    # scipy.spatial is a slow import, paid by every CLI call and Python
    # backend; only a distance query needs it
    code = "import sys, biatrium; print('scipy.spatial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_evaluate_case_of_a_near_prediction_does_not_load_kdtree():
    # the shell search settles a phantom against itself moved one voxel
    # in-plane, so a realistic evaluation pays no scipy.spatial import
    code = ("import sys, numpy as np\n"
            "from biatrium import LabelMap, PhantomSpec, evaluate_case, generate\n"
            "_, gt = generate(PhantomSpec())\n"
            "moved = LabelMap(data=np.roll(gt.data, 1, axis=0), spacing=gt.spacing)\n"
            "rows = evaluate_case(moved, gt)\n"
            "print([r.hd95_mm for r in rows], 'scipy.spatial' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                         capture_output=True, text=True, timeout=60)
    distances, loaded = out.stdout.strip().rsplit(" ", 1)
    assert distances == "[0.625, 0.625, 0.625]" and loaded == "False"


# -- report CSV -------------------------------------------------------------

def test_format_float_round_trips(rng):
    for x in [0.1, 2.0 / 3.0, 55.91, 5.10, 1e-30, float("inf"), 0.0]:
        assert float(format_float(x)) == x
    for x in rng.random(50) * 100:
        assert float(format_float(float(x))) == float(x)


def test_report_csv_round_trip(tmp_path):
    rows = [
        MetricRow("c1", "wall", 2.0 / 3.0, 5.0, ""),
        MetricRow("c1", "right_atrium", 0.0, float("inf"), "pred_empty"),
        MetricRow("c2", "left_atrium", 1.0, 0.0, "empty"),
    ]
    path = tmp_path / "report.csv"
    write_report_csv(rows, path)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == "case_id,class,dice,hd95_mm,flags"
    assert read_report_csv(path) == rows


def test_report_csv_percent_scales_dice_only(tmp_path):
    rows = [MetricRow("c", "wall", 0.5591, 5.1, "")]
    path = tmp_path / "pc.csv"
    write_report_csv(rows, path, percent=True)
    got = read_report_csv(path)
    assert got[0].dice == 0.5591 * 100.0
    assert got[0].hd95_mm == 5.1  # distances are never rescaled


def test_report_csv_lossless_for_awkward_values(tmp_path, rng):
    rows = [MetricRow(f"r{i}", "wall", float(rng.random()), float(rng.random() * 40), "")
            for i in range(30)]
    path = tmp_path / "x.csv"
    write_report_csv(rows, path)
    back = read_report_csv(path)
    for a, b in zip(rows, back):
        assert a.dice == b.dice
        assert a.hd95_mm == b.hd95_mm
