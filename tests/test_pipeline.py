import json
import math
import os
import re
import shlex
import signal
import time

import numpy as np
import pytest

from biatrium import (
    BackendError,
    BackendSpec,
    CaseSpec,
    ConfigError,
    Ellipsoid,
    LabelMap,
    PhantomSpec,
    PipelineConfig,
    Volume,
    config_from_dict,
    generate,
    invoke_backend,
    load_config,
    read_placement,
    read_volume,
    run_case,
    run_pipeline,
    write_volume,
)
from backends import COMPONENT_SPLIT_FINE
from biatrium.cli import main
from biatrium.nifti import read_labelmap, write_nifti
from biatrium.pipeline import TMPDIR_ENV


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe")
    spec = PhantomSpec(
        shape=(64, 64, 24), spacing=(1.0, 1.0, 2.0),
        la=Ellipsoid(center_mm=(20.0, 32.0, 23.0), radii_mm=(8.0, 9.0, 7.0)),
        ra=Ellipsoid(center_mm=(44.0, 32.0, 23.0), radii_mm=(7.0, 8.0, 7.0)),
        wall_thickness_mm=3.0)
    vol, gt = generate(spec)
    image = root / "image.nii.gz"
    gt_path = root / "gt.nii.gz"
    write_volume(vol, image)
    write_volume(gt, gt_path)
    script = root / "fine_seg.py"
    script.write_text(COMPONENT_SPLIT_FINE)

    def make(out_name, **over):
        doc = {
            "cases": [{"case_id": "ph", "image": str(image), "gt": str(gt_path)}],
            "output_dir": str(root / out_name),
            "standard_shape": [64, 64, 24],
            "coarse_factors": [4, 4, 2],
            "fine_window": [48, 32, 16],
            "mclahe": None,
            "coarse_backend": {"kind": "threshold", "threshold": 0.3},
            "fine_backend": {"kind": "external-command",
                             "command_template": f"python3 {script} {{input}} {{output}}"},
        }
        doc.update(over)
        return doc

    return {"root": root, "image": image, "gt_path": gt_path, "gt": gt,
            "vol": vol, "spec": spec, "make": make, "script": script}


def _small_volume(value=0.5, shape=(6, 6, 4)):
    return Volume(data=np.full(shape, value, dtype=np.float32), spacing=(1, 1, 1))


# -- BackendSpec / PipelineConfig validation --------------------------------

def test_backend_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        BackendSpec(kind="magic")
    with pytest.raises(ValueError, match="command_template"):
        BackendSpec(kind="external-command")
    with pytest.raises(ValueError, match="command_template"):
        BackendSpec(kind="external-command", command_template="run {input}")
    with pytest.raises(ValueError, match="threshold"):
        BackendSpec(kind="threshold")
    with pytest.raises(ValueError, match="threshold"):
        BackendSpec(kind="threshold", threshold=1.5)
    with pytest.raises(ValueError, match="source_path"):
        BackendSpec(kind="copy-file")
    with pytest.raises(ValueError, match="timeout"):
        BackendSpec(kind="threshold", threshold=0.5, timeout_s=0.0)


def _min_cfg(**over):
    kwargs = dict(
        cases=(CaseSpec(case_id="a", image="a.nii.gz"),),
        output_dir="out",
        coarse_backend=BackendSpec(kind="threshold", threshold=0.5),
        fine_backend=BackendSpec(kind="threshold", threshold=0.5),
    )
    kwargs.update(over)
    return PipelineConfig(**kwargs)


def test_pipeline_config_defaults_and_coarse_shape():
    cfg = _min_cfg()
    assert cfg.standard_shape == (576, 576, 48)
    assert cfg.coarse_factors == (4, 4, 1)
    assert cfg.fine_window == (256, 256, 48)
    assert cfg.coarse_shape == (144, 144, 48)
    assert cfg.bbox_margin_vox == 8
    assert cfg.mclahe_params is not None  # enhancement on by default


def test_pipeline_config_validation():
    with pytest.raises(ConfigError, match="no cases"):
        _min_cfg(cases=())
    with pytest.raises(ConfigError, match="duplicate"):
        _min_cfg(cases=(CaseSpec("a", "x.nii.gz"), CaseSpec("a", "y.nii.gz")))
    with pytest.raises(ConfigError, match="divisible"):
        _min_cfg(standard_shape=(10, 8, 8), coarse_factors=(4, 4, 1))
    with pytest.raises(ConfigError, match="bbox_margin_vox"):
        _min_cfg(bbox_margin_vox=-1)
    with pytest.raises(ConfigError, match="fine_window"):
        _min_cfg(fine_window=(0, 8, 8))
    with pytest.raises(ConfigError, match="bbox_margin_vox"):
        _min_cfg(bbox_margin_vox=2.5)
    with pytest.raises(ConfigError, match="output_dir"):
        _min_cfg(output_dir=None)


def test_case_spec_validation():
    assert CaseSpec(image="scans/p7.nii.gz").case_id == "p7"
    assert CaseSpec(image="scans/p8.nii").case_id == "p8"
    assert CaseSpec(case_id="a b", image="x.nii").case_id == "a b"
    for bad in ("../escaped", "a/b", "a\\b", "..", ".", 7):
        with pytest.raises(ValueError, match="case_id"):
            CaseSpec(case_id=bad, image="a.nii.gz")
    with pytest.raises(ValueError, match="case_id"):
        CaseSpec(image="scans/.nii.gz")  # defaulted id is empty
    with pytest.raises(ValueError, match="image"):
        CaseSpec(case_id="a", image=5)
    with pytest.raises(ValueError, match="gt"):
        CaseSpec(case_id="a", image="a.nii.gz", gt=5)


# -- config parsing ---------------------------------------------------------

def test_config_from_dict_minimal(tmp_path):
    doc = {
        "cases": [{"image": "scans/case7.nii.gz"}],
        "output_dir": "results",
        "coarse_backend": {"kind": "threshold", "threshold": 0.4},
        "fine_backend": {"kind": "copy-file", "source_path": "masks/m.nii.gz"},
    }
    cfg = config_from_dict(doc, base_dir=tmp_path)
    assert cfg.cases[0].case_id == "case7"  # derived from the file name
    assert cfg.cases[0].image == str(tmp_path / "scans/case7.nii.gz")
    assert cfg.cases[0].gt is None
    assert cfg.output_dir == str(tmp_path / "results")
    assert cfg.fine_backend.source_path == str(tmp_path / "masks/m.nii.gz")


def test_config_unknown_key_paths():
    base = {
        "cases": [{"image": "a.nii.gz"}],
        "output_dir": "o",
        "coarse_backend": {"kind": "threshold", "threshold": 0.4},
        "fine_backend": {"kind": "threshold", "threshold": 0.4},
    }
    with pytest.raises(ConfigError, match="unknown config key colour"):
        config_from_dict({**base, "colour": 1})
    bad_case = {**base, "cases": [{"image": "a.nii.gz", "weight": 2}]}
    with pytest.raises(ConfigError, match=r"cases\[0\]\.weight"):
        config_from_dict(bad_case)
    bad_backend = {**base, "coarse_backend": {"kind": "threshold", "threshold": 0.4,
                                              "gpu": True}}
    with pytest.raises(ConfigError, match=r"coarse_backend\.gpu"):
        config_from_dict(bad_backend)
    with pytest.raises(ConfigError, match=r"mclahe\.bins"):
        config_from_dict({**base, "mclahe": {"bins": 64}})


def test_config_missing_required():
    with pytest.raises(ConfigError, match="output_dir"):
        config_from_dict({"cases": [{"image": "a.nii.gz"}],
                          "coarse_backend": {"kind": "threshold", "threshold": 0.4},
                          "fine_backend": {"kind": "threshold", "threshold": 0.4}})
    with pytest.raises(ConfigError, match="image"):
        config_from_dict({"cases": [{"case_id": "x"}], "output_dir": "o",
                          "coarse_backend": {"kind": "threshold", "threshold": 0.4},
                          "fine_backend": {"kind": "threshold", "threshold": 0.4}})


def test_config_mclahe_null_disables_and_object_parses():
    base = {
        "cases": [{"image": "a.nii.gz"}],
        "output_dir": "o",
        "coarse_backend": {"kind": "threshold", "threshold": 0.4},
        "fine_backend": {"kind": "threshold", "threshold": 0.4},
    }
    assert config_from_dict({**base, "mclahe": None}).mclahe_params is None
    cfg = config_from_dict({**base, "mclahe": {"n_bins": 64, "clip_limit": 0.02,
                                               "kernel_size": [16, 16, 4]}})
    assert cfg.mclahe_params.n_bins == 64
    assert cfg.mclahe_params.clip_limit == 0.02
    assert cfg.mclahe_params.kernel_size == (16, 16, 4)


def test_config_class_map_validation():
    base = {
        "cases": [{"image": "a.nii.gz"}],
        "output_dir": "o",
        "coarse_backend": {"kind": "threshold", "threshold": 0.4},
        "fine_backend": {"kind": "threshold", "threshold": 0.4},
    }
    cfg = config_from_dict({**base, "class_map": {"background": 0, "cavity": 7}})
    assert cfg.class_map == {"background": 0, "cavity": 7}
    for bad in (300, 1.5, True, -1):
        with pytest.raises(ConfigError, match="class_map"):
            config_from_dict({**base, "class_map": {"x": bad}})
        with pytest.raises(ConfigError, match="class_map"):
            _min_cfg(class_map={"x": bad})


_BASE_DOC = {
    "cases": [{"image": "a.nii.gz"}],
    "output_dir": "o",
    "coarse_backend": {"kind": "threshold", "threshold": 0.4},
    "fine_backend": {"kind": "threshold", "threshold": 0.4},
}


@pytest.mark.parametrize("over, path", [
    ({"standard_shape": 5}, "standard_shape"),
    ({"cases": [{"image": 5}]}, "cases[0]: image"),
    ({"output_dir": 5}, "output_dir"),
    ({"mclahe": {"kernel_size": 5}}, "mclahe: kernel_size"),
    ({"cases": {"image": "a.nii.gz"}}, "cases must be a list"),
    ({"cases": [{"image": "a.nii.gz", "case_id": "../escaped"}]}, "cases[0]: case_id"),
    ({"cases": [{"image": "a.nii.gz", "case_id": 7}]}, "cases[0]: case_id"),
    ({"cases": [{"image": "a.nii.gz", "gt": 5}]}, "cases[0]: gt"),
    ({"bbox_margin_vox": "8"}, "bbox_margin_vox"),
    ({"fine_backend": {"kind": "copy-file", "source_path": 5}}, "fine_backend: copy-file"),
    ({"standard_shape": [math.inf, 576, 48]}, "standard_shape"),
    ({"mclahe": {"kernel_size": [math.inf, 1, 1]}}, "mclahe: kernel_size"),
    ({"mclahe": {"kernel_size": "888"}}, "mclahe: kernel_size"),
    ({"fine_backend": {"kind": "threshold", "threshold": 0.4, "timeout_s": math.nan}},
     "fine_backend: timeout_s"),
    ({"mclahe": {"n_bins": 128.0}}, "mclahe: n_bins"),
    ({"mclahe": {"n_bins": True}}, "mclahe: n_bins"),
])
def test_config_bad_values_name_key_path(tmp_path, capsys, over, path):
    doc = {**_BASE_DOC, **over}
    with pytest.raises(ConfigError, match=re.escape(path)):
        config_from_dict(doc)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and path in err
    assert not (tmp_path / "o").exists()


def test_load_config_round_trip_and_bad_json(tmp_path):
    doc = {
        "cases": [{"image": "img.nii.gz"}],
        "output_dir": "out",
        "coarse_backend": {"kind": "threshold", "threshold": 0.4},
        "fine_backend": {"kind": "threshold", "threshold": 0.4},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    assert cfg.cases[0].image == str(tmp_path / "img.nii.gz")

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)


# -- invoke_backend ---------------------------------------------------------

def test_threshold_backend():
    v = Volume(data=np.linspace(0, 1, 48, dtype=np.float32).reshape(4, 4, 3),
               spacing=(1, 1, 1))
    spec = BackendSpec(kind="threshold", threshold=0.5)
    out = invoke_backend(spec, v, (4, 4, 3), classes={"background": 0, "foreground": 1})
    assert isinstance(out, LabelMap)
    assert np.array_equal(out.data, (v.data >= np.float32(0.5)).astype(np.uint8))
    with pytest.raises(BackendError, match="shape"):
        invoke_backend(spec, v, (4, 4, 4))


def test_copy_file_backend(tmp_path):
    arr = np.zeros((5, 5, 2), dtype=np.uint8)
    arr[2, 2, 1] = 3
    src = tmp_path / "mask.nii.gz"
    write_nifti(src, arr, (1, 1, 1))
    spec = BackendSpec(kind="copy-file", source_path=str(src))
    out = invoke_backend(spec, _small_volume(shape=(5, 5, 2)), (5, 5, 2))
    assert np.array_equal(out.data, arr)
    missing = BackendSpec(kind="copy-file", source_path=str(tmp_path / "nope.nii.gz"))
    with pytest.raises(BackendError, match="copy-file"):
        invoke_backend(missing, _small_volume(), (6, 6, 4))


def test_external_backend_round_trip(tmp_path):
    script = tmp_path / "thresh.py"
    script.write_text(
        "import sys\n"
        "import numpy as np\n"
        "from biatrium import read_volume\n"
        "from biatrium.nifti import write_nifti\n"
        "v = read_volume(sys.argv[1])\n"
        "write_nifti(sys.argv[2], (v.data >= 0.5).astype(np.uint8), v.spacing)\n")
    spec = BackendSpec(kind="external-command",
                       command_template=f"python3 {script} {{input}} {{output}}")
    v = _small_volume(0.7)
    out = invoke_backend(spec, v, v.shape, classes={"background": 0, "foreground": 1})
    assert np.all(out.data == 1)


def test_external_backend_nonzero_exit():
    spec = BackendSpec(
        kind="external-command",
        command_template='python3 -c "import sys; sys.stderr.write(\'boom\'); sys.exit(3)"'
                         " {input} {output}")
    with pytest.raises(BackendError, match="boom"):
        invoke_backend(spec, _small_volume(), (6, 6, 4))


def test_external_backend_no_output():
    spec = BackendSpec(kind="external-command",
                       command_template="python3 -c pass {input} {output}")
    with pytest.raises(BackendError, match="no output"):
        invoke_backend(spec, _small_volume(), (6, 6, 4))


def test_external_backend_timeout():
    spec = BackendSpec(
        kind="external-command",
        command_template='python3 -c "import time; time.sleep(30)" {input} {output}',
        timeout_s=0.4)
    with pytest.raises(BackendError, match="timed out"):
        invoke_backend(spec, _small_volume(), (6, 6, 4))


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_external_backend_timeout_kills_process_group(tmp_path):
    pid_file = tmp_path / "grandchild.pid"
    script = f"sleep 30 & echo $! > {shlex.quote(str(pid_file))}; wait"
    spec = BackendSpec(kind="external-command",
                       command_template=f"sh -c {shlex.quote(script)} sh {{input}} {{output}}",
                       timeout_s=1)
    with pytest.raises(BackendError, match="timed out"):
        invoke_backend(spec, _small_volume(), (6, 6, 4))
    pid = int(pid_file.read_text())
    try:
        deadline = time.monotonic() + 2.0
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(pid)
    finally:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def test_external_backend_cannot_start():
    spec = BackendSpec(kind="external-command",
                       command_template="no-such-binary-xyzzy {input} {output}")
    with pytest.raises(BackendError, match="could not start"):
        invoke_backend(spec, _small_volume(), (6, 6, 4))


def test_external_backend_unusable_output(tmp_path):
    script = tmp_path / "junk.py"
    script.write_text(
        "import sys\n"
        "import numpy as np\n"
        "from biatrium import read_volume\n"
        "from biatrium.nifti import write_nifti\n"
        "v = read_volume(sys.argv[1])\n"
        "write_nifti(sys.argv[2], np.full(v.shape, 0.5, dtype=np.float32), v.spacing)\n")
    spec = BackendSpec(kind="external-command",
                       command_template=f"python3 {script} {{input}} {{output}}")
    with pytest.raises(BackendError, match="unusable"):
        invoke_backend(spec, _small_volume(), (6, 6, 4))


def test_external_backend_unreadable_output():
    # the backend leaves a directory where the output file belongs
    spec = BackendSpec(kind="external-command", command_template="mkdir {output} {input}.d")
    with pytest.raises(BackendError, match="backend output unusable"):
        invoke_backend(spec, _small_volume(), (6, 6, 4))


def test_external_backend_scratch_dir_env(tmp_path, monkeypatch):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setenv(TMPDIR_ENV, str(scratch))
    record = tmp_path / "seen_dir.txt"
    script = tmp_path / "record.py"
    script.write_text(
        "import os, sys\n"
        "import numpy as np\n"
        "from biatrium import read_volume\n"
        "from biatrium.nifti import write_nifti\n"
        "v = read_volume(sys.argv[1])\n"
        "write_nifti(sys.argv[2], np.zeros(v.shape, dtype=np.uint8), v.spacing)\n"
        f"open({str(record)!r}, 'w').write(os.path.dirname(os.path.abspath(sys.argv[1])))\n")
    spec = BackendSpec(kind="external-command",
                       command_template=f"python3 {script} {{input}} {{output}}")
    invoke_backend(spec, _small_volume(), (6, 6, 4))
    seen = record.read_text()
    assert seen.startswith(str(scratch))


def _write_code7_backend(tmp_path, kind):
    """A backend of ``kind`` whose output holds code 7, which no class map
    below declares."""
    arr = np.zeros((6, 6, 4), dtype=np.uint8)
    arr[1, 1, 1] = 7
    if kind == "copy-file":
        src = tmp_path / "code7.nii.gz"
        write_nifti(src, arr, (1, 1, 1))
        return BackendSpec(kind=kind, source_path=str(src))
    script = tmp_path / "code7.py"
    script.write_text(
        "import sys\n"
        "import numpy as np\n"
        "from biatrium.nifti import write_nifti\n"
        "arr = np.zeros((6, 6, 4), dtype=np.uint8)\n"
        "arr[1, 1, 1] = 7\n"
        "write_nifti(sys.argv[2], arr, (1, 1, 1))\n")
    return BackendSpec(kind=kind, command_template=f"python3 {script} {{input}} {{output}}")


@pytest.mark.parametrize("kind,source", [
    ("copy-file", r"copy-file backend could not read \S*code7"),
    ("external-command", "backend output unusable"),
])
def test_backend_output_with_undeclared_code_fails(tmp_path, kind, source):
    spec = _write_code7_backend(tmp_path, kind)
    with pytest.raises(BackendError, match=source + r".*\[7\]"):
        invoke_backend(spec, _small_volume(), (6, 6, 4))
    with pytest.raises(BackendError, match=source + r".*\[7\]"):
        invoke_backend(spec, _small_volume(), (6, 6, 4),
                       classes={"background": 0, "foreground": 1})


# -- end-to-end -------------------------------------------------------------

def test_run_pipeline_end_to_end(env):
    cfg = config_from_dict(env["make"]("out_e2e"))
    result = run_pipeline(cfg)
    assert result.ok
    case = result.cases[0]
    assert case.status == "ok"
    assert case.flags == ()

    # perfect reconstruction: backends recover the exact phantom labels and
    # every foreground voxel fits inside the fine window
    for row in case.metrics:
        assert row.dice == 1.0, row
        assert row.hd95_mm == 0.0, row

    out = env["root"] / "out_e2e" / "ph"
    for name in ("mask.nii.gz", "standard_placement.json",
                 "window_placement.json", "result.json"):
        assert (out / name).exists()

    mask = read_labelmap(out / "mask.nii.gz")
    assert mask.data.dtype == np.uint8
    assert mask.shape == env["gt"].shape
    assert mask.spacing == env["gt"].spacing
    assert np.array_equal(mask.data, env["gt"].data)

    # ROI box covers all ground-truth foreground on the standard grid
    lo, hi = case.roi_box.lo, case.roi_box.hi
    fg = np.argwhere(env["gt"].data != 0)
    assert all(lo[ax] <= fg[:, ax].min() and fg[:, ax].max() < hi[ax]
               for ax in range(3))

    # timing sidecar: every stage present, enhancement disabled in config
    timings = case.timings_ms
    for stage in ("read", "standardize", "downsample", "coarse_backend",
                  "roi", "crop", "fine_backend", "stitch", "write", "evaluate"):
        assert stage in timings
    assert "enhance" not in timings

    doc = json.loads((out / "result.json").read_text())
    assert doc["status"] == "ok"
    assert doc["roi_box"] == {"lo": list(lo), "hi": list(hi)}

    placement = read_placement(out / "standard_placement.json")
    assert placement.parent_shape == (64, 64, 24)

    summary = (env["root"] / "out_e2e" / "summary.csv").read_text().splitlines()
    assert summary[0] == "case_id,status,wall_dice,wall_hd95,ra_dice,ra_hd95,la_dice,la_hd95"
    assert summary[1] == "ph,ok,1.0,0.0,1.0,0.0,1.0,0.0"


def test_summary_columns_follow_class_map(env):
    doc = env["make"]("out_names",
                      class_map={"background": 0, "wall": 1, "RA": 2, "LA": 3})
    assert run_pipeline(config_from_dict(doc)).ok
    lines = (env["root"] / "out_names" / "summary.csv").read_text().splitlines()
    assert lines == ["case_id,status,wall_dice,wall_hd95,RA_dice,RA_hd95,LA_dice,LA_hd95",
                     "ph,ok,1.0,0.0,1.0,0.0,1.0,0.0"]


def test_rerun_is_byte_identical_except_timings(env):
    cfg1 = config_from_dict(env["make"]("out_r1"))
    cfg2 = config_from_dict(env["make"]("out_r2"))
    r1 = run_pipeline(cfg1)
    r2 = run_pipeline(cfg2, workers=2)
    assert r1.ok and r2.ok
    for name in ("ph/mask.nii.gz", "ph/standard_placement.json",
                 "ph/window_placement.json", "summary.csv"):
        b1 = (env["root"] / "out_r1" / name).read_bytes()
        b2 = (env["root"] / "out_r2" / name).read_bytes()
        assert b1 == b2, f"{name} differs between reruns"


def test_enhancement_stage_runs_when_enabled(env):
    doc = env["make"]("out_mclahe", mclahe={"n_bins": 32})
    result = run_pipeline(config_from_dict(doc))
    case = result.cases[0]
    assert case.status == "ok"
    assert "enhance" in case.timings_ms


def test_case_isolation_and_partial_failure(env):
    doc = env["make"]("out_iso")
    doc["cases"] = [
        {"case_id": "good", "image": str(env["image"]), "gt": str(env["gt_path"])},
        {"case_id": "bad", "image": str(env["root"] / "missing.nii.gz")},
    ]
    result = run_pipeline(config_from_dict(doc))
    assert not result.ok
    by_id = {c.case_id: c for c in result.cases}
    assert by_id["good"].status == "ok"
    assert by_id["good"].metrics[0].dice == 1.0
    assert by_id["bad"].status == "failed"
    assert by_id["bad"].error
    # failure is recorded in the failed case's own sidecar
    doc_bad = json.loads((env["root"] / "out_iso" / "bad" / "result.json").read_text())
    assert doc_bad["status"] == "failed"
    assert doc_bad["error"]
    # summary keeps config order and leaves metric cells empty on failure
    lines = (env["root"] / "out_iso" / "summary.csv").read_text().splitlines()
    assert lines[1].startswith("good,ok,1.0")
    assert lines[2] == "bad,failed,,,,,,"


def test_empty_coarse_mask_falls_back_to_centered_window(env):
    # phantom intensities top out at 0.9, so threshold 1.0 matches nothing
    doc = env["make"]("out_empty",
                      coarse_backend={"kind": "threshold", "threshold": 1.0})
    result = run_pipeline(config_from_dict(doc))
    case = result.cases[0]
    assert case.status == "ok"
    assert "empty_coarse_mask" in case.flags
    assert case.roi_box is None
    # fallback centers the window at half the standard shape, which still
    # covers this phantom, so the fine backend sees the full anatomy
    placement = read_placement(env["root"] / "out_empty" / "ph" / "window_placement.json")
    start = tuple(min(max(s // 2 - w // 2, 0), p - w) for s, w, p
                  in zip((64, 64, 24), (48, 32, 16), (64, 64, 24)))
    assert placement.offset == start


def test_case_without_gt_has_no_metrics(env):
    doc = env["make"]("out_nogt")
    doc["cases"] = [{"case_id": "ph", "image": str(env["image"])}]
    result = run_pipeline(config_from_dict(doc))
    case = result.cases[0]
    assert case.status == "ok"
    assert case.metrics == ()
    assert "evaluate" not in case.timings_ms
    lines = (env["root"] / "out_nogt" / "summary.csv").read_text().splitlines()
    assert lines[1] == "ph,ok,,,,,,"


def test_threshold_fine_backend_checks_class_map(env):
    """A threshold backend labels voxels 1; a class map without code 1
    fails the case at the fine stage."""
    cfg = config_from_dict(env["make"](
        "out_thr_codes", fine_backend={"kind": "threshold", "threshold": 0.3},
        class_map={"background": 0, "cavity": 2}))
    result = run_pipeline(cfg)
    case = result.cases[0]
    assert case.status == "failed"
    assert "label values [1]" in case.error
    assert not (env["root"] / "out_thr_codes" / "ph" / "mask.nii.gz").exists()


def test_run_case_failed_backend_reports_error(env):
    doc = env["make"]("out_badfine",
                      fine_backend={"kind": "external-command",
                                    "command_template":
                                        'python3 -c "import sys; sys.exit(9)"'
                                        " {input} {output}"})
    cfg = config_from_dict(doc)
    result = run_case(cfg, cfg.cases[0])
    assert result.status == "failed"
    assert "9" in result.error
