import json

import numpy as np
import pytest

from biatrium import (
    Ellipsoid,
    LabelMap,
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


def test_evaluate_rejects_bad_class_map(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--pred", files["gt_path"], "--gt", files["gt_path"],
              "--class-map", '{"background": 0, "ghost": 300}'])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "class_map" in out.err
    assert out.out == ""


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


def test_loss_nan_exponent_exits_1(files, capsys):
    rc = main(["loss", "--probs", files["image"], "--gt", files["gt_path"],
               "--gamma-pos", "nan"])
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


def test_enhance_huge_header_exits_1(tmp_path, capsys):
    """A 360-byte file declaring 30000^3 float32 is a format error, not a
    MemoryError traceback."""
    src = tmp_path / "huge.nii"
    write_nifti(src, np.zeros((2, 1, 1), dtype=np.float32), (1, 1, 1))
    blob = bytearray(src.read_bytes())
    blob[42:48] = np.array([30000] * 3, dtype="<i2").tobytes()  # dim[1:4]
    src.write_bytes(bytes(blob))
    rc = main(["enhance", str(src), str(tmp_path / "out.nii")])
    assert rc == 1
    assert "truncated payload" in capsys.readouterr().err


def test_missing_input_file_exits_1(tmp_path, capsys):
    rc = main(["downsample", str(tmp_path / "nope.nii.gz"), str(tmp_path / "o.nii.gz")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
