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
from biatrium.nifti import read_labelmap, read_nifti, write_nifti
from biatrium.phantom import spec_to_json

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


def test_enhance_refuses_more_bins_than_a_uint16_index_holds(files, tmp_path, capsys):
    out = tmp_path / "enh.nii"
    assert main(["enhance", files["image"], str(out), "--n-bins", "65537"]) == 1
    assert "n_bins" in capsys.readouterr().err
    assert not out.exists()

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


def test_bbox_empty_mask_exits_1(tmp_path, capsys):
    empty = tmp_path / "empty.nii.gz"
    write_nifti(empty, np.zeros((4, 4, 4), dtype=np.uint8), (1, 1, 1))
    rc = main(["bbox", str(empty)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


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


def test_evaluate_rejects_bad_class_map(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--pred", files["gt_path"], "--gt", files["gt_path"],
              "--class-map", '{"background": 0, "ghost": 300}'])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "class_map" in out.err
    assert out.out == ""


@pytest.mark.parametrize("argv, message", [
    (["enhance", "IMAGE", "OUT", "--kernel-size", "1,2"], "expected 3 integers, got '1,2'"),
    (["evaluate", "--pred", "GT", "--gt", "GT", "--class-map", "{wall: 1}"],
     "class map is not valid JSON"),
    (["evaluate", "--pred", "GT", "--gt", "GT", "--class-map", "[" * 100000 + "]" * 100000],
     "class map is not valid JSON: maximum recursion depth exceeded"),
])
def test_unparsable_argument_exits_2(files, tmp_path, capsys, argv, message):
    paths = {"IMAGE": files["image"], "GT": files["gt_path"], "OUT": str(tmp_path / "o.nii")}
    with pytest.raises(SystemExit) as exc:
        main([paths.get(a, a) for a in argv])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert message in out.err and out.out == ""
    assert list(tmp_path.iterdir()) == []


def test_evaluate_rejects_undeclared_label_code(files, tmp_path, capsys):
    bad = tmp_path / "code7.nii.gz"
    arr = np.zeros((4, 4, 4), dtype=np.uint8)
    arr[1, 1, 1] = 7
    write_nifti(bad, arr, (1, 1, 1))
    rc = main(["evaluate", "--pred", str(bad), "--gt", str(bad)])
    assert rc == 1
    out = capsys.readouterr()
    assert "label values [7]" in out.err
    assert out.out == ""


def test_evaluate_shape_mismatch_exits_1(files, tmp_path, capsys):
    other = tmp_path / "other.nii.gz"
    write_nifti(other, np.zeros((4, 4, 4), dtype=np.uint8), (1, 1, 1))
    rc = main(["evaluate", "--pred", str(other), "--gt", files["gt_path"]])
    assert rc == 1
    assert "shape" in capsys.readouterr().err


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
    """The ground truth may hold exactly the codes ``--class-codes`` scores
    (default 0..n-1), whatever they are."""
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
    rc = main(["loss", "--probs", *prob_paths, "--gt", str(gt_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "[5]" in captured.err


@pytest.mark.parametrize("codes, message", [
    (["1", "1"], "class_codes[1] repeats class code 1"),
    (["0", "300"], "class_codes[1] must be an int >= 0 and <= 255, got 300"),
])
def test_loss_refuses_codes_that_are_not_distinct_label_codes(tmp_path, capsys, rng, codes,
                                                              message):
    """Two predictions of one class, or a code no label map can hold, exit
    1 instead of printing a score."""
    gt = tmp_path / "gt.nii"
    write_nifti(gt, np.zeros((6, 6, 4), dtype=np.uint8), (1, 1, 1))
    probs = [str(tmp_path / f"p{i}.nii") for i in range(2)]
    for path in probs:
        write_nifti(path, rng.random((6, 6, 4), dtype=np.float32), (1, 1, 1))
    rc = main(["loss", "--probs", *probs, "--gt", str(gt), "--class-codes", *codes])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_loss_nan_exponent_exits_1(files, capsys):
    rc = main(["loss", "--probs", files["image"], "--gt", files["gt_path"],
               "--gamma-pos", "nan"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "focusing exponents" in captured.err


def test_loss_infinite_exponent_exits_1(files, capsys):
    rc = main(["loss", "--probs", files["image"], "--gt", files["gt_path"],
               "--gamma-pos", "inf"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "focusing exponents" in captured.err


def test_loss_grad_check_subcommand(capsys):
    rc = main(["loss", "grad-check", "--n", "50"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_loss_without_inputs_exits_2(capsys):
    rc = main(["loss"])
    assert rc == 2
    assert "probs" in capsys.readouterr().err


def test_phantom_command(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_to_json(SMALL_SPEC)))
    out = tmp_path / "ph"
    rc = main(["phantom", "--spec", str(spec_path), "--out", str(out)])
    assert rc == 0
    vol, gt = generate(SMALL_SPEC)
    assert np.array_equal(read_volume(out / "image.nii.gz").data, vol.data)
    assert np.array_equal(read_labelmap(out / "gt.nii.gz").data, gt.data)
    assert json.loads((out / "phantom_spec.json").read_text()) == spec_to_json(SMALL_SPEC)


def test_phantom_bad_spec_exits_1(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    for spec, path in (({"la": {"center_mm": [40, 60, 60]}}, "radii_mm"),
                       ({"la": {"center_mm": [42, 60, 60], "radii_mm": [float("nan"), 20, 16]}},
                        "la: radii_mm"),
                       ({"seed": 1.5, "noise_amplitude": 0.05}, "seed")):
        spec_path.write_text(json.dumps(spec))
        rc = main(["phantom", "--spec", str(spec_path), "--out", str(tmp_path / "ph")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and path in err


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


@pytest.mark.parametrize("argv", [
    ["standardize", "--target", "72,72,24", "--fill", "nan"],
    ["crop-roi", "--center", "32,32,12", "--window", "80,32,12", "--fill", "1e39"],
])
def test_non_finite_fill_exits_1_naming_it(files, tmp_path, capsys, argv):
    out = tmp_path / "out.nii"
    rc = main([argv[0], files["image"], str(out), *argv[1:]])
    assert rc == 1
    assert "pad_value must be" in capsys.readouterr().err
    assert not out.exists()


def test_missing_input_file_exits_1(tmp_path, capsys):
    rc = main(["downsample", str(tmp_path / "nope.nii.gz"), str(tmp_path / "o.nii.gz")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv, name", [
    (["--n", "0"], "n must be"),
    (["--n", "-5"], "n must be"),
    (["--tol", "nan"], "tol must be"),
    (["--step", "0"], "step h must be"),
])
def test_loss_grad_check_rejects_vacuous_arguments(capsys, argv, name):
    """No samples, a NaN tolerance or a zero step would print PASS or divide
    by zero; each is an argument error instead."""
    rc = main(["loss", "grad-check", *argv])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and name in captured.err


def test_run_rejects_zero_workers(files, tmp_path, capsys):
    cfg = {
        "cases": [{"case_id": "ph", "image": files["image"]}],
        "output_dir": str(tmp_path / "out"),
        "coarse_backend": {"kind": "threshold", "threshold": 0.3},
        "fine_backend": {"kind": "threshold", "threshold": 0.7},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(cfg_path), "--workers", "0"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: workers must be an int >= 1")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, reason", [
    (b"\xff{}", "'utf-8' codec can't decode"),
    (b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded"),
    (b"{nope", "Expecting property name enclosed in double quotes"),
])
def test_run_config_that_cannot_be_decoded_exits_1_naming_it(tmp_path, capsys, doc, reason):
    """A config that is not UTF-8, not JSON, or nested too deep for the
    parser is a config error naming the file, not a traceback."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(doc)
    assert main(["run", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: invalid JSON: {reason}")


@pytest.mark.parametrize("doc", [
    None,
    {"parent_shape": [16, 16, 8], "offset": [4, 4, 2], "window_shape": [8, 8, 4], "scale": 2},
    {"parent_shape": [16, 16, 8], "offset": [1.5, 4, 2], "window_shape": [8, 8, 4]},
    {"parent_shape": [16, 16, 8], "offset": [4, 4, 2]},
])
def test_stitch_rejects_bad_placement_sidecar(tmp_path, capsys, doc):
    """A placement sidecar is checked like a config: the error names the
    file and nothing is written."""
    child = tmp_path / "win.nii.gz"
    write_nifti(child, np.ones((8, 8, 4), dtype=np.uint8), (1.0, 1.0, 2.0))
    place_path = tmp_path / "place.json"
    place_path.write_text(json.dumps(doc))
    out = tmp_path / "full.nii.gz"
    rc = main(["stitch", str(child), str(out), "--placement", str(place_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(place_path) in err and "Traceback" not in err
    assert not out.exists()


def test_stitch_onto_a_parent_too_large_for_the_header_exits_1(tmp_path, capsys):
    """A parent extent past the int16 header field is an error, not a
    traceback, and nothing is written."""
    child = tmp_path / "win.nii.gz"
    write_nifti(child, np.ones((8, 1, 1), dtype=np.uint8), (1.0, 1.0, 2.0))
    place_path = tmp_path / "place.json"
    place_path.write_text(json.dumps(
        {"parent_shape": [40000, 1, 1], "offset": [0, 0, 0], "window_shape": [8, 1, 1]}))
    out = tmp_path / "full.nii.gz"
    rc = main(["stitch", str(child), str(out), "--placement", str(place_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "40000" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["place.json", "win.nii.gz"]


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
