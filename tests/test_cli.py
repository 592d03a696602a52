import csv
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from biatrium import (
    Ellipsoid,
    MclaheParams,
    PhantomSpec,
    Volume,
    generate,
    mclahe,
    read_placement,
    read_volume,
    volume_loss,
    write_volume,
)
from biatrium.cli import main
from biatrium.core import _as_json
from biatrium.nifti import read_labelmap, read_nifti, write_nifti

SMALL_SPEC = PhantomSpec(
    shape=(64, 64, 24), spacing=(1.0, 1.0, 2.0),
    la=Ellipsoid(center_mm=(20.0, 32.0, 23.0), radii_mm=(8.0, 9.0, 7.0)),
    ra=Ellipsoid(center_mm=(44.0, 32.0, 23.0), radii_mm=(7.0, 8.0, 7.0)),
    wall_thickness_mm=3.0)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    vol, gt = generate(SMALL_SPEC)
    write_volume(vol, root / "image.nii.gz")
    write_volume(gt, root / "gt.nii.gz")
    return {"root": root, "vol": vol, "gt": gt,
            "image": str(root / "image.nii.gz"), "gt_path": str(root / "gt.nii.gz")}


def test_enhance_matches_library(files, tmp_path):
    out = tmp_path / "enh.nii.gz"
    rc = main(["enhance", files["image"], str(out), "--n-bins", "64",
               "--kernel-size", "16,16,6"])
    assert rc == 0
    got = read_volume(out)
    want = mclahe(files["vol"], MclaheParams(kernel_size=(16, 16, 6), n_bins=64))
    assert np.array_equal(got.data, want.data)


def test_enhance_output_is_exact_and_rle_deflated(tmp_path):
    """An enhanced noisy image is a noisy float payload: its .nii.gz takes
    the Z_RLE path (gzip XFL byte 0) and reads back bit-identical."""
    vol, _ = generate(replace(SMALL_SPEC, noise_amplitude=0.05, seed=3))
    image, out = tmp_path / "image.nii.gz", tmp_path / "enh.nii.gz"
    write_volume(vol, image)
    assert main(["enhance", str(image), str(out)]) == 0
    assert out.read_bytes()[8] == 0
    want = mclahe(read_volume(image), MclaheParams())
    assert np.array_equal(read_volume(out).data, want.data)


def test_standardize_and_placement(files, tmp_path):
    out = tmp_path / "std.nii.gz"
    place_path = tmp_path / "place.json"
    rc = main(["standardize", files["image"], str(out),
               "--target", "72,72,24", "--placement", str(place_path)])
    assert rc == 0
    assert read_volume(out).shape == (72, 72, 24)
    place = read_placement(place_path)
    assert place.parent_shape == (64, 64, 24)
    assert place.offset == (-4, -4, 0)


def test_downsample(files, tmp_path):
    out = tmp_path / "small.nii.gz"
    rc = main(["downsample", files["image"], str(out), "--factors", "4,4,2"])
    assert rc == 0
    small = read_volume(out)
    assert small.shape == (16, 16, 12)
    assert small.spacing == (4.0, 4.0, 4.0)


def test_bbox_stdout_and_class_filter(files, capsys):
    rc = main(["bbox", files["gt_path"]])
    assert rc == 0
    box = json.loads(capsys.readouterr().out)
    fg = np.argwhere(files["gt"].data != 0)
    assert box["lo"] == [int(v) for v in fg.min(axis=0)]
    assert box["hi"] == [int(v) + 1 for v in fg.max(axis=0)]

    rc = main(["bbox", files["gt_path"], "--classes", "3"])
    assert rc == 0
    box3 = json.loads(capsys.readouterr().out)
    la = np.argwhere(files["gt"].data == 3)
    assert box3["lo"] == [int(v) for v in la.min(axis=0)]


def test_crop_and_stitch_round_trip(files, tmp_path):
    win = tmp_path / "win.nii.gz"
    place_path = tmp_path / "wp.json"
    rc = main(["crop-roi", files["image"], str(win), "--center", "32,32,12",
               "--window", "32,32,12", "--placement", str(place_path)])
    assert rc == 0
    assert read_volume(win).shape == (32, 32, 12)

    back = tmp_path / "back.nii.gz"
    rc = main(["stitch", str(win), str(back), "--placement", str(place_path)])
    assert rc == 0
    arr, spacing, _ = read_nifti(back)
    assert arr.shape == (64, 64, 24)
    place = read_placement(place_path)
    sl = tuple(slice(o, o + w) for o, w in zip(place.offset, (32, 32, 12)))
    assert np.array_equal(arr[sl], files["vol"].data[sl])
    assert np.all(arr[0, 0, :] == 0)  # outside the window: fill


def test_stitch_preserves_label_dtype(files, tmp_path):
    child = tmp_path / "labels_win.nii.gz"
    arr = np.full((8, 8, 4), 2, dtype=np.uint8)
    write_nifti(child, arr, (1.0, 1.0, 2.0))
    place_path = tmp_path / "lp.json"
    from biatrium import Placement
    from biatrium.nifti import write_placement
    write_placement(Placement(parent_shape=(16, 16, 8), offset=(4, 4, 2),
                              window_shape=(8, 8, 4)), place_path)
    out = tmp_path / "labels_full.nii.gz"
    rc = main(["stitch", str(child), str(out), "--placement", str(place_path)])
    assert rc == 0
    full, _, _ = read_nifti(out)
    assert full.dtype == np.uint8
    assert full.shape == (16, 16, 8)
    assert int((full == 2).sum()) == arr.size


def test_evaluate_stdout_and_percent(files, capsys):
    rc = main(["evaluate", "--pred", files["gt_path"], "--gt", files["gt_path"],
               "--case-id", "self"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "self,wall,1.0,0.0,"
    assert lines[1] == "self,right_atrium,1.0,0.0,"
    assert lines[2] == "self,left_atrium,1.0,0.0,"

    rc = main(["evaluate", "--pred", files["gt_path"], "--gt", files["gt_path"],
               "--percent"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "case,wall,100.0,0.0,"


def test_evaluate_csv_and_full_region(files, tmp_path):
    out = tmp_path / "report.csv"
    rc = main(["evaluate", "--pred", files["gt_path"], "--gt", files["gt_path"],
               "--csv", str(out), "--full-region"])
    assert rc == 0
    text = out.read_text().splitlines()
    assert text[0] == "case_id,class,dice,hd95_mm,flags"
    assert len(text) == 4


def test_evaluate_stdout_rows_are_the_report_rows(files, tmp_path, capsys):
    """A case id holding a comma and a quote prints as one quoted field,
    the very rows --csv writes below its header."""
    case = 'a,"b'
    args = ["evaluate", "--pred", files["gt_path"], "--gt", files["gt_path"],
            "--case-id", case]
    assert main(args) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[:2] for r in rows] == [[case, "wall"], [case, "right_atrium"],
                                     [case, "left_atrium"]]
    assert all(len(r) == 5 for r in rows)
    assert main(args + ["--csv", str(tmp_path / "r.csv")]) == 0
    assert (tmp_path / "r.csv").read_text().splitlines()[1:] == out.splitlines()


def test_loss_value_matches_library(files, tmp_path, capsys, rng):
    gt = files["gt"]
    probs = [rng.random(gt.shape, dtype=np.float32) for _ in range(4)]
    prob_paths = []
    for i, p in enumerate(probs):
        path = tmp_path / f"p{i}.nii.gz"
        write_volume(Volume(data=p, spacing=gt.spacing), path)
        prob_paths.append(str(path))
    rc = main(["loss", "--probs", *prob_paths, "--gt", files["gt_path"]])
    assert rc == 0
    printed = float(capsys.readouterr().out.strip())
    loaded = [read_volume(p) for p in prob_paths]
    assert printed == volume_loss(loaded, read_labelmap(files["gt_path"]))


def test_loss_checks_ground_truth_against_the_scored_codes(tmp_path, capsys, rng):
    """The ground truth may hold exactly the codes ``--class-codes`` scores,
    whatever they are (with the default 0..n-1, row loss-gt-code-5 of
    CLI_REFUSALS refuses it)."""
    gt = np.zeros((6, 6, 4), dtype=np.uint8)
    gt[2:4, 2:4, 1:3] = 5
    gt_path = tmp_path / "gt.nii"
    write_nifti(gt_path, gt, (1, 1, 1))
    prob_paths = []
    for i in range(2):
        path = tmp_path / f"p{i}.nii"
        write_nifti(path, rng.random(gt.shape, dtype=np.float32), (1, 1, 1))
        prob_paths.append(str(path))
    rc = main(["loss", "--probs", *prob_paths, "--gt", str(gt_path), "--class-codes", "0", "5"])
    assert rc == 0
    printed = float(capsys.readouterr().out.strip())
    loaded = [read_volume(p) for p in prob_paths]
    assert printed == volume_loss(loaded, read_labelmap(gt_path, classes={"x": 5}),
                                  class_codes=[0, 5])


def test_loss_grad_check_subcommand(capsys):
    rc = main(["loss", "grad-check", "--n", "50"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_phantom_command(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_as_json(SMALL_SPEC)))
    out = tmp_path / "ph"
    rc = main(["phantom", "--spec", str(spec_path), "--out", str(out)])
    assert rc == 0
    vol, gt = generate(SMALL_SPEC)
    assert np.array_equal(read_volume(out / "image.nii.gz").data, vol.data)
    assert np.array_equal(read_labelmap(out / "gt.nii.gz").data, gt.data)
    assert json.loads((out / "phantom_spec.json").read_text()) == _as_json(SMALL_SPEC)


def test_run_command(files, tmp_path, capsys):
    cfg = {
        "cases": [{"case_id": "ph", "image": files["image"]}],
        "output_dir": str(tmp_path / "out"),
        "standard_shape": [64, 64, 24],
        "coarse_factors": [4, 4, 2],
        "fine_window": [48, 32, 16],
        "mclahe": None,
        "coarse_backend": {"kind": "threshold", "threshold": 0.3},
        "fine_backend": {"kind": "threshold", "threshold": 0.7},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(cfg_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ph: ok" in out
    assert "summary:" in out
    assert (tmp_path / "out" / "summary.csv").exists()


def test_run_command_reports_failure(files, tmp_path, capsys):
    cfg = {
        "cases": [{"case_id": "gone", "image": str(tmp_path / "missing.nii.gz")}],
        "output_dir": str(tmp_path / "out2"),
        "standard_shape": [64, 64, 24],
        "coarse_factors": [4, 4, 2],
        "fine_window": [48, 32, 16],
        "mclahe": None,
        "coarse_backend": {"kind": "threshold", "threshold": 0.3},
        "fine_backend": {"kind": "threshold", "threshold": 0.7},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(cfg_path)])
    assert rc == 1
    assert "gone: failed" in capsys.readouterr().out


def test_outputs_keep_the_orientation_block(files, tmp_path):
    """The enhanced image and the mask lie on the input's grid, so both
    carry its orientation block: qfac and the qform/sform fields."""
    block = bytes(range(1, 81))
    image = tmp_path / "oriented.nii.gz"
    write_volume(Volume(data=files["vol"].data, spacing=files["vol"].spacing,
                        orientation=block), image)
    enhanced = tmp_path / "enh.nii.gz"
    assert main(["enhance", str(image), str(enhanced)]) == 0
    assert read_nifti(enhanced)[2] == block

    cfg = {
        "cases": [{"case_id": "ph", "image": str(image)}],
        "output_dir": str(tmp_path / "out"),
        "standard_shape": [64, 64, 24],
        "coarse_factors": [4, 4, 2],
        "fine_window": [48, 32, 16],
        "coarse_backend": {"kind": "threshold", "threshold": 0.3},
        "fine_backend": {"kind": "threshold", "threshold": 0.7},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert read_nifti(tmp_path / "out" / "ph" / "mask.nii.gz")[2] == block


# -- refusals ---------------------------------------------------------------

_PLACE = {"parent_shape": [16, 16, 8], "offset": [4, 4, 2], "window_shape": [8, 8, 4]}

# The inputs every row finds in "{tmp}": NIfTI arrays (at 1 mm), JSON
# documents and raw bytes.
_CLI_INPUTS = {
    "zeros.nii": np.zeros((6, 6, 4), dtype=np.uint8),
    "gt5.nii": np.pad(np.full((2, 2, 2), 5, dtype=np.uint8), ((2, 2), (2, 2), (1, 1))),
    "p.nii": np.full((6, 6, 4), 0.5, dtype=np.float32),
    "win.nii": np.ones((8, 8, 4), dtype=np.uint8),
    "null.json": None,
    "extra.json": {**_PLACE, "scale": 2},
    "offset.json": {**_PLACE, "offset": [1.5, 4, 2]},
    "partial.json": {"parent_shape": [16, 16, 8], "offset": [4, 4, 2]},
    "huge.json": {**_PLACE, "parent_shape": [40000, 8, 4]},
    "small.json": {**_PLACE, "window_shape": [4, 4, 4]},
    "radii.json": {"la": {"center_mm": [40, 60, 60]}},
    "nan.json": {"la": {"center_mm": [42, 60, 60], "radii_mm": [float("nan"), 20, 16]}},
    "seed.json": {"seed": 1.5, "noise_amplitude": 0.05},
    "run.json": {"cases": [{"case_id": "ph", "image": "{image}"}], "output_dir": "{tmp}/out",
                 "coarse_backend": {"kind": "threshold", "threshold": 0.3},
                 "fine_backend": {"kind": "threshold", "threshold": 0.7}},
    "latin1.json": b"\xff{}",
    "deep.json": b"[" * 100000 + b"]" * 100000,
    "nope.json": b"{nope",
}

_LOSS = ["loss", "--probs", "{tmp}/p.nii", "{tmp}/p.nii", "--gt"]
_EVALUATE = ["evaluate", "--pred", "{gt}", "--gt", "{gt}", "--class-map"]
_STITCH = ["stitch", "{tmp}/win.nii", "{tmp}/out.nii", "--placement"]
_CLASS_MAP = "biatrium evaluate: error: argument --class-map: "
_PAD = ("error: pad_value must be a finite number >= -3.4028234663852886e+38 and "
        "<= 3.4028234663852886e+38, got ")

# Every way `biatrium` refuses its arguments: id -> (argv, exit status, the
# whole last line of stderr).  "{tmp}" is the test's directory, holding
# _CLI_INPUTS, and "{image}" and "{gt}" are the files fixture's.  A new
# refusal is one row.
CLI_REFUSALS = {
    # argparse prints the usage, then one line; loss only the line
    "kernel-size-2": (["enhance", "{image}", "{tmp}/out.nii", "--kernel-size", "1,2"], 2,
                      "biatrium enhance: error: argument --kernel-size: "
                      "expected 3 integers, got '1,2'"),
    "class-map-not-json": (_EVALUATE + ["{wall: 1}"], 2, _CLASS_MAP + "class map is not valid "
                           "JSON: Expecting property name enclosed in double quotes: "
                           "line 1 column 2 (char 1)"),
    "class-map-deep": (_EVALUATE + ["[" * 100000 + "]" * 100000], 2,
                       _CLASS_MAP + "class map is not valid JSON: maximum recursion depth "
                       "exceeded while decoding a JSON array from a unicode string"),
    "class-map-code-300": (_EVALUATE + ['{"background": 0, "ghost": 300}'], 2, _CLASS_MAP +
                           "class_map['ghost'] must be an int >= 0 and <= 255, got 300"),
    "loss-no-inputs": (["loss"], 2,
                       "error: loss needs --probs and --gt (or the grad-check subcommand)"),
    # parameters
    "enhance-n-bins": (["enhance", "{image}", "{tmp}/out.nii", "--n-bins", "65537"], 1,
                       "error: n_bins must be an int >= 2 and <= 65536, got 65537"),
    "enhance-clip-nan": (["enhance", "{image}", "{tmp}/out.nii", "--clip-limit", "nan"], 1,
                         "error: clip_limit must be a finite number > 0 and <= 1, got nan"),
    "standardize-target-0": (["standardize", "{image}", "{tmp}/out.nii", "--target", "0,72,24"],
                             1, "error: target_shape must be 3 ints >= 1 and <= 32767, "
                             "got (0, 72, 24)"),
    "downsample-factors-0": (["downsample", "{image}", "{tmp}/out.nii", "--factors", "0,4,2"], 1,
                             "error: factors must be 3 ints > 0, got (0, 4, 2)"),
    "crop-window-0": (["crop-roi", "{image}", "{tmp}/out.nii", "--center", "32,32,12",
                       "--window", "0,32,12"], 1,
                      "error: window must be 3 ints >= 1 and <= 32767, got (0, 32, 12)"),
    "standardize-fill-nan": (["standardize", "{image}", "{tmp}/out.nii", "--target", "72,72,24",
                              "--fill", "nan"], 1, _PAD + "nan"),
    "crop-fill-1e39": (["crop-roi", "{image}", "{tmp}/out.nii", "--center", "32,32,12",
                        "--window", "80,32,12", "--fill", "1e39"], 1, _PAD + "1e+39"),
    "loss-gamma-nan": (_LOSS + ["{tmp}/zeros.nii", "--gamma-pos", "nan"], 1,
                       "error: focusing exponents: gamma_pos must be a finite number >= 0, "
                       "got nan"),
    "loss-gamma-inf": (_LOSS + ["{tmp}/zeros.nii", "--gamma-pos", "inf"], 1,
                       "error: focusing exponents: gamma_pos must be a finite number >= 0, "
                       "got inf"),
    "loss-codes-repeat": (_LOSS + ["{tmp}/zeros.nii", "--class-codes", "1", "1"], 1,
                          "error: class_codes[1] repeats class code 1"),
    "loss-code-300": (_LOSS + ["{tmp}/zeros.nii", "--class-codes", "0", "300"], 1,
                      "error: class_codes[1] must be an int >= 0 and <= 255, got 300"),
    "loss-codes-3": (_LOSS + ["{tmp}/zeros.nii", "--class-codes", "0", "1", "2"], 1,
                     "error: 2 probability volumes but 3 class codes"),
    "grad-check-n-0": (["loss", "grad-check", "--n", "0"], 1, "error: n must be an int >= 1, got 0"),
    "grad-check-n-negative": (["loss", "grad-check", "--n", "-5"], 1,
                              "error: n must be an int >= 1, got -5"),
    "grad-check-tol-nan": (["loss", "grad-check", "--tol", "nan"], 1,
                           "error: tol must be a finite number > 0, got nan"),
    "grad-check-step-0": (["loss", "grad-check", "--step", "0"], 1,
                          "error: step h must be a finite number > 0, got 0.0"),
    "run-workers-0": (["run", "--config", "{tmp}/run.json", "--workers", "0"], 1,
                      "error: workers must be an int >= 1, got 0"),
    # NIfTI inputs
    "downsample-missing": (["downsample", "{tmp}/nope.nii", "{tmp}/out.nii"], 1,
                           "error: [Errno 2] No such file or directory: '{tmp}/nope.nii'"),
    "bbox-empty": (["bbox", "{tmp}/zeros.nii"], 1, "error: mask has no foreground voxels"),
    **{f"bbox-class-{code}": (["bbox", "{gt}", "--classes", "1", code], 1,
                              f"error: --classes [{code}] not in declared class codes [0, 1, 2, 3]")
       for code in ("300", "-1", "7")},
    "evaluate-shape": (["evaluate", "--pred", "{tmp}/zeros.nii", "--gt", "{gt}"], 1,
                       "error: shape mismatch: pred (6, 6, 4) vs gt (64, 64, 24)"),
    "loss-probs-shape": (["loss", "--probs", "{tmp}/p.nii", "{tmp}/win.nii", "--gt",
                          "{tmp}/zeros.nii"], 1,
                         "error: probability shape (8, 8, 4) does not match gt (6, 6, 4)"),
    # the default codes 0..n-1 of two probability volumes
    "loss-gt-code-5": (_LOSS + ["{tmp}/gt5.nii"], 1, "error: {tmp}/gt5.nii: "
                       "label values [5] not in declared class codes [0, 1]"),
    # JSON files: placement sidecars, phantom specs and run configs
    "placement-missing": (_STITCH + ["{tmp}/gone.json"], 1,
                          "error: [Errno 2] No such file or directory: '{tmp}/gone.json'"),
    "placement-null": (_STITCH + ["{tmp}/null.json"], 1,
                       "error: {tmp}/null.json: config root must be an object"),
    "placement-extra-key": (_STITCH + ["{tmp}/extra.json"], 1,
                            "error: {tmp}/extra.json: unknown config key scale"),
    "placement-offset-1.5": (_STITCH + ["{tmp}/offset.json"], 1,
                             "error: {tmp}/offset.json: offset must be 3 ints, got [1.5, 4, 2]"),
    "placement-partial": (_STITCH + ["{tmp}/partial.json"], 1, "error: {tmp}/partial.json: "
                          "config is missing required key 'window_shape'"),
    # past the int16 dim field of the stitched file's header
    "placement-parent-40000": (_STITCH + ["{tmp}/huge.json"], 1, "error: {tmp}/huge.json: "
                               "parent_shape must be 3 ints >= 1 and <= 32767, got [40000, 8, 4]"),
    "stitch-child-shape": (_STITCH + ["{tmp}/small.json"], 1,
                           "error: array shape (8, 8, 4) does not match placement (4, 4, 4)"),
    "phantom-radii-missing": (["phantom", "--spec", "{tmp}/radii.json", "--out", "{tmp}/ph"], 1,
                              "error: {tmp}/radii.json: la is missing required key 'radii_mm'"),
    "phantom-radii-nan": (["phantom", "--spec", "{tmp}/nan.json", "--out", "{tmp}/ph"], 1,
                          "error: {tmp}/nan.json: la: radii_mm must be 3 finite numbers > 0, "
                          "got [nan, 20, 16]"),
    "phantom-seed-1.5": (["phantom", "--spec", "{tmp}/seed.json", "--out", "{tmp}/ph"], 1,
                         "error: {tmp}/seed.json: seed must be an int >= 0, got 1.5"),
    "run-config-latin1": (["run", "--config", "{tmp}/latin1.json"], 1,
                          "error: {tmp}/latin1.json: invalid JSON: 'utf-8' codec can't decode "
                          "byte 0xff in position 0: invalid start byte"),
    "run-config-deep": (["run", "--config", "{tmp}/deep.json"], 1,
                        "error: {tmp}/deep.json: invalid JSON: maximum recursion depth exceeded "
                        "while decoding a JSON array from a unicode string"),
    "run-config-not-json": (["run", "--config", "{tmp}/nope.json"], 1,
                            "error: {tmp}/nope.json: invalid JSON: Expecting property name "
                            "enclosed in double quotes: line 1 column 2 (char 1)"),
}


@pytest.mark.parametrize("argv, status, line", list(CLI_REFUSALS.values()), ids=list(CLI_REFUSALS))
def test_cli_refusals(files, tmp_path, capsys, argv, status, line):
    """Each row, run in process: ``biatrium`` exits with the row's status,
    prints nothing on stdout and the row's line last on stderr, and leaves
    nothing in the test's directory but its inputs."""
    places = {"{tmp}": str(tmp_path), "{image}": files["image"], "{gt}": files["gt_path"]}

    def fill(text: str, quote=str) -> str:
        for place, value in places.items():
            text = text.replace(place, quote(value))
        return text

    for name, value in _CLI_INPUTS.items():
        if isinstance(value, np.ndarray):
            write_nifti(tmp_path / name, value, (1, 1, 1))
        else:  # a path in a JSON string is quoted as one
            doc = value if isinstance(value, bytes) else fill(
                json.dumps(value), lambda v: json.dumps(v)[1:-1]).encode()
            (tmp_path / name).write_bytes(doc)
    try:
        got = main([fill(arg) for arg in argv])
    except SystemExit as e:
        got = e.code
    out, err = capsys.readouterr()
    assert (got, out, err.splitlines()[-1]) == (status, "", fill(line))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(_CLI_INPUTS)
