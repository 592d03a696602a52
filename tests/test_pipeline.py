import dataclasses
import gc
import importlib.util
import json
import math
import os
import pathlib
import re
import shlex
import signal
import subprocess
import sys
import threading
import time
import weakref

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
    Placement,
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
from conftest import interrupt_the_blend, thread_budget, traced_peak
from biatrium import core, pipeline
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


def test_backend_spec_rejects_fields_its_kind_does_not_use():
    with pytest.raises(ValueError, match="threshold must be null for a copy-file backend"):
        BackendSpec(kind="copy-file", source_path="m.nii", threshold="junk")
    with pytest.raises(ValueError, match="source_path must be null for a threshold backend"):
        BackendSpec(kind="threshold", threshold=0.4, source_path=5)
    with pytest.raises(ValueError, match="command_template must be null"):
        BackendSpec(kind="threshold", threshold=0.4, command_template="run {input} {output}")
    with pytest.raises(ValueError, match="threshold must be null for a external-command"):
        BackendSpec(kind="external-command", command_template="run {input} {output}",
                    threshold=0.5)
    # timeout_s has a default, so every kind may set it
    assert BackendSpec(kind="threshold", threshold=0.4, timeout_s=5).timeout_s == 5


def _min_cfg(**over):
    kwargs = dict(
        cases=(CaseSpec(case_id="a", image="a.nii.gz"),),
        output_dir="out",
        coarse_backend=BackendSpec(kind="threshold", threshold=0.5),
        fine_backend=BackendSpec(kind="threshold", threshold=0.5),
    )
    kwargs.update(over)
    return PipelineConfig(**kwargs)


def test_pipeline_config_defaults():
    cfg = _min_cfg()
    assert cfg.standard_shape == (576, 576, 48)
    assert cfg.coarse_factors == (4, 4, 1)
    assert cfg.fine_window == (256, 256, 48)
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
    ({"mclahe": {"clip_limit": True}}, "mclahe: clip_limit"),
    ({"coarse_backend": {"kind": "threshold", "threshold": True}}, "coarse_backend: threshold"),
    ({"coarse_backend": {"kind": "threshold", "threshold": "0.4"}}, "coarse_backend: threshold"),
    ({"coarse_backend": {"kind": "threshold", "threshold": 0.4, "timeout_s": True}},
     "coarse_backend: timeout_s"),
    ({"coarse_backend": {"kind": "threshold", "threshold": 0.4, "timeout_s": "5"}},
     "coarse_backend: timeout_s"),
    ({"coarse_backend": {"kind": "threshold", "threshold": 0.4, "timeout_s": 2147484}},
     "coarse_backend: timeout_s"),
    ({"coarse_backend": {"kind": "threshold", "threshold": 0.4, "timeout_s": math.inf}},
     "coarse_backend: timeout_s"),
    ({"standard_shape": [576.5, 576, 48]}, "standard_shape"),
    ({"standard_shape": ["576", "576", "48"]}, "standard_shape"),
    ({"coarse_factors": [True, True, 1]}, "coarse_factors"),
    ({"bbox_margin_vox": True}, "bbox_margin_vox"),
    ({"mclahe": {"clip_limit": "0.01"}}, "mclahe: clip_limit"),
    # refused at load: a case would otherwise fail only after most of its chain
    ({"cases": [{"image": "a.nii.gz", "gt": ""}]}, "cases[0]: gt"),
    ({"fine_backend": {"kind": "external-command",
                       "command_template": 'python3 "seg.py {input} {output}'}},
     "fine_backend: command_template"),
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


def test_config_timeout_upper_bound_loads():
    """A timeout is at most a C int of milliseconds: 2147483 s is the
    longest, and it loads."""
    backend = {"kind": "threshold", "threshold": 0.4, "timeout_s": 2147483}
    cfg = config_from_dict({**_BASE_DOC, "coarse_backend": backend})
    assert cfg.coarse_backend.timeout_s == 2147483


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
    out = invoke_backend(spec, v, classes={"background": 0, "foreground": 1})
    assert isinstance(out, LabelMap)
    assert np.array_equal(out.data, (v.data >= np.float32(0.5)).astype(np.uint8))


def test_copy_file_backend(tmp_path):
    arr = np.zeros((5, 5, 2), dtype=np.uint8)
    arr[2, 2, 1] = 3
    src = tmp_path / "mask.nii.gz"
    write_nifti(src, arr, (1, 1, 1))
    spec = BackendSpec(kind="copy-file", source_path=str(src))
    out = invoke_backend(spec, _small_volume(shape=(5, 5, 2)))
    assert np.array_equal(out.data, arr)
    # a label map must have its input's shape
    with pytest.raises(BackendError, match=r"produced shape \(5, 5, 2\), expected \(6, 6, 4\)"):
        invoke_backend(spec, _small_volume())
    missing = BackendSpec(kind="copy-file", source_path=str(tmp_path / "nope.nii.gz"))
    with pytest.raises(BackendError, match="copy-file"):
        invoke_backend(missing, _small_volume())


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
    out = invoke_backend(spec, v, classes={"background": 0, "foreground": 1})
    assert np.all(out.data == 1)


def test_external_backend_nonzero_exit():
    spec = BackendSpec(
        kind="external-command",
        command_template='python3 -c "import sys; sys.stderr.write(\'boom\'); sys.exit(3)"'
                         " {input} {output}")
    with pytest.raises(BackendError, match="boom"):
        invoke_backend(spec, _small_volume())


# Run in a fresh interpreter by the test below: a backend that writes
# 100 MiB to stdout and to stderr and exits 3, after a quiet one that pays
# the one-off costs; prints the ru_maxrss growth (KiB) and the error.
_LOUD_BACKEND = """
import json, resource, shlex, sys
import numpy as np
from biatrium import BackendError, BackendSpec, Volume, invoke_backend

LOUD = ("import sys; chunk = b'x' * (1 << 20)\\n"
        "for _ in range(100):\\n"
        "    sys.stdout.buffer.write(chunk); sys.stderr.buffer.write(chunk)\\n"
        "sys.stderr.buffer.write(b'the end'); sys.exit(3)")
image = Volume(data=np.full((6, 6, 4), 0.5, dtype=np.float32), spacing=(1, 1, 1))

def fail(code):
    spec = BackendSpec(kind="external-command",
                       command_template=f"{sys.executable} -c {shlex.quote(code)} {{input}} {{output}}")
    try:
        invoke_backend(spec, image)
    except BackendError as e:
        return str(e)

fail("import sys; sys.exit(3)")
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
error = fail(LOUD)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps([after - before, error]))
"""


def test_external_backend_output_is_not_held_in_memory(tmp_path):
    """A backend's output never enters memory whole: stdout is dropped and
    only the last 2000 bytes of stderr are read.  Measured on Linux x86-64,
    a backend writing 300 MB to stdout raised the peak resident size by
    about 600 MB when both streams were piped into memory."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(core.__file__)))
    env = {**os.environ, TMPDIR_ENV: str(tmp_path), "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-c", _LOUD_BACKEND], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    growth_kib, error = json.loads(out.stdout)
    assert error.startswith("backend command exited with 3; stderr: ")
    assert error.endswith(repr("x" * 1993 + "the end"))
    assert growth_kib * 1024 < 16 * 2**20, growth_kib


def test_external_backend_no_output():
    spec = BackendSpec(kind="external-command",
                       command_template="python3 -c pass {input} {output}")
    with pytest.raises(BackendError, match="no output"):
        invoke_backend(spec, _small_volume())


def test_external_backend_timeout():
    spec = BackendSpec(
        kind="external-command",
        command_template='python3 -c "import time; time.sleep(30)" {input} {output}',
        timeout_s=0.4)
    with pytest.raises(BackendError, match="timed out"):
        invoke_backend(spec, _small_volume())


def _overshoots(tmp_path, timeout_s, sleep_s=0.22, runs=3) -> list[float]:
    """Seconds between the exit of a backend that sleeps ``sleep_s`` and the
    return of ``core._run_group`` for it, for each of ``runs`` backends."""
    out = []
    for _ in range(runs):
        t0 = time.monotonic()
        # returns only if the backend exited 0
        core._run_group(["sleep", str(sleep_s)], tmp_path / "stderr.txt", timeout_s)
        out.append(time.monotonic() - t0 - sleep_s)
    return out


@pytest.mark.skipif(not hasattr(os, "pidfd_open"), reason="needs a pidfd")
def test_backend_wait_wakes_when_the_backend_exits(tmp_path):
    """A backend is reaped as it exits, not at a later poll: Popen.wait's
    own polling sleeps up to 50 ms between checks, which at a 0.22 s exit
    wakes about 40 ms late.  The timeout is the longest a config allows."""
    assert min(_overshoots(tmp_path, 2147483)) < 0.02


def test_backend_wait_polls_where_there_is_no_pidfd(tmp_path, monkeypatch):
    """Without a pidfd the wait falls back to Popen.wait, timeout included."""
    monkeypatch.delattr(os, "pidfd_open", raising=False)
    assert all(o >= 0 for o in _overshoots(tmp_path, 5, 0.05, 1))
    t0 = time.monotonic()
    with pytest.raises(BackendError, match=re.escape("timed out after 0.2 s")):
        core._run_group(["sleep", "30"], tmp_path / "stderr.txt", 0.2)
    assert time.monotonic() - t0 < 5
    assert core._live_groups == set()


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
        invoke_backend(spec, _small_volume())
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


def _group_running(pgid: int) -> bool:
    """True while a process of group ``pgid`` exists and is not a zombie."""
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _ppid, pgrp = stat.read_text(encoding="ascii").rsplit(")", 1)[1].split()[:3]
        except OSError:  # the process has gone meanwhile
            continue
        if int(pgrp) == pgid and state != "Z":
            return True
    return False


def _start_run(cfg: dict, run_dir, workers: int) -> subprocess.Popen:
    """``biatrium run --workers`` on ``cfg``, written to ``run_dir/cfg.json``,
    in a child that turns SIGINT into KeyboardInterrupt."""
    (run_dir / "cfg.json").write_text(json.dumps(cfg))
    src = os.path.dirname(os.path.dirname(os.path.abspath(core.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    # a shell that ignores SIGINT passes that on: restore the default,
    # under which Python raises KeyboardInterrupt
    return subprocess.Popen(
        [sys.executable, "-m", "biatrium.cli", "run", "--config", str(run_dir / "cfg.json"),
         "--workers", str(workers)], env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))


def _kill_groups(pgids) -> None:
    for p in pgids:
        try:
            os.killpg(int(p), signal.SIGKILL)
        except ProcessLookupError:
            pass


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_interrupt_stops_running_backends_with_workers(tmp_path):
    """SIGINT to `run --workers 1` or `--workers 2` while as many cases wait
    on a 12 s backend kills each backend's process group: the run exits
    within 2 s of the signal, no backend process is left behind, no
    interrupted case writes a result.json and the queued cases never
    start."""
    vol = Volume(data=np.full((8, 8, 4), 0.5, dtype=np.float32), spacing=(1, 1, 1))
    write_volume(vol, tmp_path / "image.nii")
    for workers in (1, 2):
        run_dir = tmp_path / f"workers{workers}"
        run_dir.mkdir()
        started = run_dir / "started.txt"
        script = f"echo $$ >> {shlex.quote(str(started))}; sleep 12; : {{input}} {{output}}"
        cfg = {
            "cases": [{"case_id": f"c{i}", "image": str(tmp_path / "image.nii")}
                      for i in range(3)],
            "output_dir": str(run_dir / "out"),
            "standard_shape": [8, 8, 4],
            "coarse_factors": [2, 2, 1],
            "fine_window": [8, 8, 4],
            "mclahe": None,
            "coarse_backend": {"kind": "threshold", "threshold": 0.3},
            "fine_backend": {"kind": "external-command",
                             "command_template": f"sh -c {shlex.quote(script)}"},
        }
        proc = _start_run(cfg, run_dir, workers)
        pgids = []
        try:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and len(pgids) < workers:
                time.sleep(0.05)
                pgids = started.read_text().split() if started.exists() else []
            assert len(pgids) == workers, "every worker's backend should be running"
            time.sleep(0.5)
            t0 = time.monotonic()
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=10)
            assert time.monotonic() - t0 < 2.0
            assert proc.returncode != 0
            deadline = time.monotonic() + 1.0
            while any(_group_running(int(p)) for p in pgids) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(_group_running(int(p)) for p in pgids)
            for i in range(3):
                case_dir = run_dir / "out" / f"c{i}"
                if i < workers:
                    assert not (case_dir / "result.json").exists(), (workers, i)
                else:
                    assert not case_dir.exists(), (workers, i)
        finally:
            proc.kill()
            proc.wait()
            _kill_groups(pgids)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("order", [("small", "large"), ("large", "small")])
def test_second_interrupt_still_stops_every_backend(tmp_path, order):
    """Two SIGINTs 0.1 s apart to `run --workers 2`, while one case waits on
    a 12 s coarse backend and the other still enhances a 576x576x48 input
    before its own: the second interrupt does not end the killing, so the
    run exits within 3 s of it, no backend process is left behind and
    neither case writes a result.json.  Both case orders run, so the
    enhancing case runs on a helper in at least one, whichever thread
    takes the first case."""
    write_volume(Volume(data=np.full((8, 8, 4), 0.5, dtype=np.float32), spacing=(1, 1, 1)),
                 tmp_path / "small.nii")
    ramp = np.zeros((576, 576, 48), dtype=np.float32)
    ramp[:] = np.linspace(0, 1, 48, dtype=np.float32)
    write_nifti(tmp_path / "large.nii", ramp, (0.625, 0.625, 2.5))
    started = tmp_path / "started.txt"
    script = f"echo $$ >> {shlex.quote(str(started))}; sleep 12; : {{input}} {{output}}"
    cfg = {
        "cases": [{"case_id": name, "image": str(tmp_path / f"{name}.nii")}
                  for name in order],
        "output_dir": str(tmp_path / "out"),
        "standard_shape": [8, 8, 4],
        "coarse_factors": [2, 2, 1],
        "fine_window": [8, 8, 4],
        "coarse_backend": {"kind": "external-command",
                           "command_template": f"sh -c {shlex.quote(script)}"},
        "fine_backend": {"kind": "threshold", "threshold": 0.3},
    }
    proc = _start_run(cfg, tmp_path, 2)
    pgids = []
    try:
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not pgids:
            time.sleep(0.05)
            pgids = started.read_text().split() if started.exists() else []
        assert pgids, "the small case's backend should be running"
        proc.send_signal(signal.SIGINT)
        time.sleep(0.1)
        proc.send_signal(signal.SIGINT)
        t0 = time.monotonic()
        proc.wait(timeout=20)
        assert time.monotonic() - t0 < 3.0
        assert proc.returncode != 0
        pgids = started.read_text().split()
        deadline = time.monotonic() + 1.0
        while any(_group_running(int(p)) for p in pgids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_group_running(int(p)) for p in pgids)
        for name in ("small", "large"):
            assert not (tmp_path / "out" / name / "result.json").exists(), name
    finally:
        proc.kill()
        proc.wait()
        _kill_groups(started.read_text().split() if started.exists() else pgids)


def test_backend_registry_empties_under_thread_contention(tmp_path):
    """Many workers start and reap backends at once under a short switch
    interval; every registered process group is removed again."""
    vol = Volume(data=np.full((8, 8, 4), 0.5, dtype=np.float32), spacing=(1, 1, 1))
    write_volume(vol, tmp_path / "image.nii")
    labels = tmp_path / "labels.nii"
    write_nifti(labels, np.zeros((8, 8, 4), dtype=np.uint8), (1, 1, 1))
    script = f"cp {shlex.quote(str(labels))} \"$1\""
    cfg = config_from_dict({
        "cases": [{"case_id": f"c{i}", "image": str(tmp_path / "image.nii")} for i in range(12)],
        "output_dir": str(tmp_path / "out"),
        "standard_shape": [8, 8, 4],
        "coarse_factors": [2, 2, 1],
        "fine_window": [8, 8, 4],
        "mclahe": None,
        "coarse_backend": {"kind": "threshold", "threshold": 0.3},
        "fine_backend": {"kind": "external-command",
                         "command_template": f"sh -c {shlex.quote(script)} {{input}} {{output}}"},
    })
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = run_pipeline(cfg, workers=6)
    finally:
        sys.setswitchinterval(interval)
    assert all(c.ok for c in result.cases), [c.error for c in result.cases]
    assert core._live_groups == set()


def test_external_backend_cannot_start():
    spec = BackendSpec(kind="external-command",
                       command_template="no-such-binary-xyzzy {input} {output}")
    with pytest.raises(BackendError, match="could not start"):
        invoke_backend(spec, _small_volume())


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
        invoke_backend(spec, _small_volume())


def test_external_backend_unreadable_output():
    # the backend leaves a directory where the output file belongs
    spec = BackendSpec(kind="external-command", command_template="mkdir {output} {input}.d")
    with pytest.raises(BackendError, match="backend output unusable"):
        invoke_backend(spec, _small_volume())


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
    invoke_backend(spec, _small_volume())
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
        invoke_backend(spec, _small_volume())
    with pytest.raises(BackendError, match=source + r".*\[7\]"):
        invoke_backend(spec, _small_volume(),
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
    assert doc["failed_stage"] is None and doc["error_type"] is None
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
    assert doc_bad["failed_stage"] == "read"
    assert doc_bad["error_type"] == "FileNotFoundError"
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
    doc = json.loads((env["root"] / "out_badfine" / "ph" / "result.json").read_text())
    assert doc["failed_stage"] == result.failed_stage == "fine_backend"
    assert doc["error_type"] == result.error_type == "BackendError"


def test_failure_outside_every_stage_names_no_stage(env, tmp_path):
    """A case that fails before its first stage, here because its output
    directory's path is taken by a file, reports no stage."""
    doc = env["make"]("unused")
    doc["output_dir"] = str(tmp_path)
    cfg = config_from_dict(doc)
    (tmp_path / "ph").write_text("not a directory")
    result = run_case(cfg, cfg.cases[0])
    assert result.status == "failed"
    assert (result.failed_stage, result.error_type) == (None, "FileExistsError")


@pytest.mark.parametrize("failing, threads", [("fine_backend", 1), ("evaluate", 1),
                                              ("evaluate", 2)])
def test_failed_case_drops_its_arrays_at_once(tmp_path, monkeypatch, failing, threads):
    """A failed case keeps no reference to the exception it reports, whose
    traceback would hold the case's arrays until a garbage collection:
    with the collector off, the fine input of a case whose fine backend
    failed, and the mask of a case whose evaluation failed beside the
    write, are gone once run_case returns."""
    write_volume(_small_volume(), tmp_path / "image.nii")
    (tmp_path / "gt.nii").write_bytes(b"not a nifti file")
    cfg = config_from_dict({
        "cases": [{"case_id": "c", "image": str(tmp_path / "image.nii"),
                   "gt": str(tmp_path / "gt.nii")}],
        "output_dir": str(tmp_path / "out"),
        "standard_shape": [6, 6, 4], "coarse_factors": [2, 2, 1], "fine_window": [6, 6, 4],
        "mclahe": None,
        "coarse_backend": {"kind": "threshold", "threshold": 0.3},
        "fine_backend": {"kind": "threshold", "threshold": 0.3},
        # without code 1, the threshold fine backend's labels fail it
        "class_map": {"background": 0, "cavity": 1 if failing == "evaluate" else 2},
    })
    arrays = []

    def recorded(fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            arrays.append(weakref.ref(out[0] if isinstance(out, tuple) else out))
            return out
        return call

    monkeypatch.setattr(pipeline, "crop_window", recorded(pipeline.crop_window))
    monkeypatch.setattr(pipeline, "stitch", recorded(pipeline.stitch))
    gc.disable()
    try:
        with thread_budget(threads):
            result = run_case(cfg, cfg.cases[0])
        assert result.failed_stage == failing
        assert arrays and all(ref() is None for ref in arrays)
    finally:
        gc.enable()


@pytest.mark.parametrize("threads", [1, 2])
def test_overlapped_stages_name_the_stage_that_raised(env, tmp_path, threads):
    """The write and the evaluation may overlap, and a failure names the
    stage that raised it.  A bad ground truth alone fails the evaluation
    and the mask is still written; with the mask path unwritable as well,
    both stages fail and the first in chain order, the write, is named."""
    bad_gt = tmp_path / "bad_gt.nii.gz"
    bad_gt.write_bytes(b"not a nifti file")
    doc = env["make"](f"out_stages{threads}")
    doc["cases"] = [{"case_id": "ph", "image": str(env["image"]), "gt": str(bad_gt)}]
    cfg = config_from_dict(doc)
    case_dir = env["root"] / f"out_stages{threads}" / "ph"

    with thread_budget(threads):
        result = run_case(cfg, cfg.cases[0])
    assert (result.failed_stage, result.error_type) == ("evaluate", "NiftiFormatError")
    assert np.array_equal(read_labelmap(case_dir / "mask.nii.gz").data, env["gt"].data)

    (case_dir / "mask.nii.gz").unlink()
    (case_dir / "mask.nii.gz").mkdir()  # the finished write cannot replace a directory
    with thread_budget(threads):
        result = run_case(cfg, cfg.cases[0])
    assert (result.failed_stage, result.error_type) == ("write", "IsADirectoryError")
    doc = json.loads((case_dir / "result.json").read_text())
    assert (doc["failed_stage"], doc["error_type"]) == ("write", "IsADirectoryError")


def test_mask_and_summary_bytes_do_not_depend_on_the_thread_budget(env, tmp_path, monkeypatch):
    """With MCLAHE and ground truth, a three-case batch writes the same
    bytes at every worker count (1, 2 and 3) and at budgets 1 and 2
    (threaded blend, write beside the evaluation).  run_pipeline shares
    the CPUs out over its workers, so each budget comes from the CPU count
    the test gives it."""
    cases = []
    for i in range(3):
        vol, gt = generate(dataclasses.replace(env["spec"], noise_amplitude=0.05, seed=i))
        write_volume(vol, tmp_path / f"image{i}.nii.gz")
        write_volume(gt, tmp_path / f"gt{i}.nii.gz")
        cases.append({"case_id": f"c{i}", "image": str(tmp_path / f"image{i}.nii.gz"),
                      "gt": str(tmp_path / f"gt{i}.nii.gz")})
    outputs = {}
    for workers in (1, 2, 3):
        for budget in (1, 2):
            out = tmp_path / f"out_w{workers}_b{budget}"
            cpus = set(range(workers * budget))
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            cfg = config_from_dict(env["make"](
                str(out), mclahe={}, cases=cases,
                fine_backend={"kind": "threshold", "threshold": 0.5}))
            result = run_pipeline(cfg, workers=workers)
            assert all(c.ok and c.metrics for c in result.cases), [c.error for c in result.cases]
            outputs[workers, budget] = {
                p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*"))
                if p.name in ("mask.nii.gz", "standard_placement.json",
                              "window_placement.json", "summary.csv")}
    assert len(outputs[1, 1]) == 3 * 3 + 1
    for setting, files in outputs.items():
        assert files == outputs[1, 1], setting


def _slow(fn):
    def slow(*args, **kwargs):
        time.sleep(0.2)
        return fn(*args, **kwargs)
    return slow


@pytest.mark.parametrize("stage", ["enhance", "write"])
@pytest.mark.parametrize("workers", [1, 2])
def test_interrupt_in_a_threaded_stage_joins_every_helper(env, monkeypatch, stage, workers):
    """A KeyboardInterrupt in a case's thread while its helpers blend MCLAHE
    slabs or write the mask leaves run_pipeline only after every helper has
    finished: the thread count is back at its baseline, and the case has no
    result.json.  Four CPUs give each case 4 threads at one worker and 2 at
    two, so both run helpers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})

    def interrupted_evaluation(*args, **kwargs):
        raise KeyboardInterrupt

    if stage == "enhance":
        interrupt_the_blend(monkeypatch)
    else:
        # the slowed write is still running on one thread when the evaluation,
        # on the other, raises
        monkeypatch.setattr(pipeline, "write_volume", _slow(pipeline.write_volume))
        monkeypatch.setattr(pipeline, "evaluate_case", interrupted_evaluation)
    out = f"out_interrupt_{stage}{workers}"
    cfg = config_from_dict(env["make"](
        out, mclahe={"kernel_size": [64, 64, 24]} if stage == "enhance" else None))
    baseline = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(cfg, workers=workers)
    assert threading.active_count() == baseline
    assert not (env["root"] / out / "ph" / "result.json").exists()
    assert not (env["root"] / out / "summary.csv").exists()


def test_case_working_set_is_bounded(tmp_path):
    """No stage widens a full grid and each grid is dropped after its last
    reader: a 192x192x48 gzip case with ground truth, default MCLAHE and
    threshold backends traces at most 1.75x its float32 input at thread
    budgets 1 and 2, because MCLAHE writes over the input it reads."""
    vol, gt = generate(PhantomSpec(noise_amplitude=0.05, seed=1))
    write_volume(vol, tmp_path / "image.nii.gz")
    write_volume(gt, tmp_path / "gt.nii.gz")
    cfg = config_from_dict({
        "cases": [{"case_id": "c", "image": str(tmp_path / "image.nii.gz"),
                   "gt": str(tmp_path / "gt.nii.gz")}],
        "output_dir": str(tmp_path / "out"),
        "standard_shape": [192, 192, 48],
        "fine_window": [128, 128, 48],
        "coarse_backend": {"kind": "threshold", "threshold": 0.3},
        "fine_backend": {"kind": "threshold", "threshold": 0.3},
    })
    assert cfg.mclahe_params is not None

    def case():
        result = run_case(cfg, cfg.cases[0])
        assert result.ok and result.metrics, result.error

    case()  # the first run also pays one-off costs such as lazy imports
    for threads in (1, 2):
        with thread_budget(threads):
            assert traced_peak(case) <= 1.75 * vol.data.nbytes, threads


def test_case_working_set_without_mclahe_is_bounded(tmp_path):
    """Without MCLAHE, a case whose input already has the standard shape
    holds one full float32 grid: the read streams into its output and
    standardize shares it, so the case traces at most 1.75x its input."""
    vol, gt = generate(PhantomSpec(noise_amplitude=0.05, seed=1))
    write_volume(vol, tmp_path / "image.nii.gz")
    write_volume(gt, tmp_path / "gt.nii.gz")
    cfg = config_from_dict({
        "cases": [{"case_id": "c", "image": str(tmp_path / "image.nii.gz"),
                   "gt": str(tmp_path / "gt.nii.gz")}],
        "output_dir": str(tmp_path / "out"),
        "standard_shape": list(vol.shape),
        "fine_window": [128, 128, 48],
        "mclahe": None,
        "coarse_backend": {"kind": "threshold", "threshold": 0.3},
        "fine_backend": {"kind": "threshold", "threshold": 0.3},
    })

    def case():
        result = run_case(cfg, cfg.cases[0])
        assert result.ok and result.metrics, result.error

    case()  # the first run also pays one-off costs such as lazy imports
    assert traced_peak(case) <= 1.75 * vol.data.nbytes


# Run in a fresh interpreter by the test below: the cases of a config
# through run_pipeline on this thread, printing the resident KiB as each
# case starts and ru_maxrss (KiB) as each returns.
_MEMORY_PER_CASE = """
import json, os, resource, sys
from biatrium import pipeline

def resident_kib():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024

starts, peaks = [], []
run_case = pipeline.run_case

def measured(cfg, case):
    starts.append(resident_kib())
    result = run_case(cfg, case)
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return result

pipeline.run_case = measured
result = pipeline.run_pipeline(pipeline.load_config(sys.argv[1]))
assert result.ok, [c.error for c in result.cases]
print(json.dumps([starts, peaks]))
"""


@pytest.mark.skipif(core._malloc_trim is None or not os.path.exists("/proc/self/statm"),
                    reason="needs glibc's malloc_trim and /proc/self/statm")
def test_sequential_cases_give_their_heap_back(tmp_path):
    """Three 384x384x48 cases with MCLAHE and ground truth, one after
    another: the memory each case frees leaves the process before the next
    starts (the resident size drops by at least the float32 input from the
    peak so far), and no later case peaks more than 0.75x the input above
    the first.  The evaluation's shell search settles this threshold-0.3
    prediction (HD95 2.80 mm) by itself, so no case imports scipy.spatial.
    Measured on Linux x86-64 with an input of 28.3 MB: the drop was about
    50 MB and the growth 0.  While the first evaluation still imported
    scipy.spatial, which then stayed resident, the drop was about 41 MB,
    or 12 MB without the heap trim, and the growth 12 MB, or 49 MB with
    MCLAHE's output beside its input and no trim."""
    vol, gt = generate(PhantomSpec(shape=(384, 384, 48), noise_amplitude=0.05, seed=1))
    write_volume(vol, tmp_path / "image.nii")
    write_volume(gt, tmp_path / "gt.nii.gz")
    (tmp_path / "cfg.json").write_text(json.dumps({
        "cases": [{"case_id": f"c{i}", "image": "image.nii", "gt": "gt.nii.gz"}
                  for i in range(3)],
        "output_dir": "out",
        "coarse_backend": {"kind": "threshold", "threshold": 0.3},
        "fine_backend": {"kind": "threshold", "threshold": 0.3},
    }))
    src = os.path.dirname(os.path.dirname(os.path.abspath(core.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-c", _MEMORY_PER_CASE, str(tmp_path / "cfg.json")],
                         env=env, check=True, capture_output=True, text=True, timeout=300)
    starts, peaks = json.loads(out.stdout)
    for peak, start in zip(peaks, starts[1:]):
        assert (peak - start) * 1024 >= vol.data.nbytes, (starts, peaks)
    assert (peaks[-1] - peaks[0]) * 1024 <= 0.75 * vol.data.nbytes, peaks


@pytest.mark.skipif(core._malloc_trim is None, reason="needs glibc's malloc_trim and mallopt")
def test_mmap_threshold_is_fixed_before_the_first_case(env, monkeypatch):
    """At every worker count run_pipeline fixes glibc's mmap threshold at
    8 MB before a case starts, and its trim threshold with it.  With
    glibc's sliding threshold a helper thread's heap took in the fine
    windows and kept its touched top, and the peak RSS of a batch_small run
    was about 86 MB or 92-95 MB by chance.  Fixing the mmap threshold
    freezes the trim threshold at 128 KiB, and the main heap then gave back
    and faulted in again every block freed at its top: MCLAHE took about
    200,000 page faults per paper case instead of 2,000."""
    calls, seen = [], []
    monkeypatch.setattr(core, "_mallopt", lambda *args: calls.append(args))
    run_case = pipeline.run_case

    def recorded(cfg, case):
        seen.append(list(calls))
        return run_case(cfg, case)

    monkeypatch.setattr(pipeline, "run_case", recorded)
    for workers in (1, 2):
        calls.clear()
        seen.clear()
        doc = env["make"](f"out_mmap{workers}",
                          fine_backend={"kind": "threshold", "threshold": 0.3})
        doc["cases"] *= 2
        doc["cases"][1] = {**doc["cases"][1], "case_id": "ph2"}
        assert run_pipeline(config_from_dict(doc), workers=workers).ok
        assert len(seen) == 2 and all(
            s[:2] == [(-3, 8 << 20), (-1, 8 << 20)] for s in seen), seen


def test_case_on_a_padded_standard_grid_holds_no_grid_copy(tmp_path):
    """The standard grid is a placement, not an array: a 192x192x48 case on
    the default 576x576x48 grid, without MCLAHE or ground truth, traces
    less than one float32 standard grid (a copy of the grid alone is
    63.7 MB)."""
    vol, _ = generate(PhantomSpec(noise_amplitude=0.05, seed=1))
    assert vol.shape == (192, 192, 48)
    write_volume(vol, tmp_path / "image.nii")
    cfg = config_from_dict({
        "cases": [{"case_id": "c", "image": str(tmp_path / "image.nii")}],
        "output_dir": str(tmp_path / "out"),
        "mclahe": None,
        "coarse_backend": {"kind": "threshold", "threshold": 0.3},
        "fine_backend": {"kind": "threshold", "threshold": 0.3},
    })
    assert cfg.standard_shape == (576, 576, 48)

    def case():
        result = run_case(cfg, cfg.cases[0])
        assert result.ok and not result.flags, result.error

    case()  # the first run also pays one-off costs such as lazy imports
    assert traced_peak(case) < 576 * 576 * 48 * 4


def test_paper_scale_case_checks_the_input_once(tmp_path, monkeypatch):
    """Each invariant is checked where data enters: a case on the default
    576x576x48 grid with MCLAHE runs the public Volume checks once, on the
    read, and the Placement checks at most twice, on the standard and the
    fine placement.  Every other result is derived from checked values."""
    data = np.zeros((576, 576, 48), dtype=np.float32)
    data[200:380, 180:400, 10:40] = 1.0
    write_nifti(tmp_path / "image.nii", data, (0.625, 0.625, 2.5))
    cfg = config_from_dict({
        "cases": [{"case_id": "c", "image": str(tmp_path / "image.nii")}],
        "output_dir": str(tmp_path / "out"),
        "coarse_backend": {"kind": "threshold", "threshold": 0.5},
        "fine_backend": {"kind": "threshold", "threshold": 0.5},
    })
    assert cfg.mclahe_params is not None and cfg.standard_shape == data.shape
    checks = {Volume: 0, Placement: 0}
    for cls in checks:
        def counted(self, cls=cls, post_init=cls.__post_init__):
            checks[cls] += 1
            post_init(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    result = run_case(cfg, cfg.cases[0])
    assert result.ok and not result.flags, result.error
    assert checks[Volume] == 1 and checks[Placement] <= 2, checks


def test_bench_tracer_wraps_names_that_exist(monkeypatch):
    """The benchmark's tracer (bench/spans.py) wraps public names of
    biatrium.pipeline and biatrium.metrics by name: a rename breaks the
    traced benchmark run, so entering the tracer must still work, and
    leaving it restores every name."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    before = {key: getattr(*key) for key in spans.WRAPPED}
    with spans.Tracer():
        assert all(getattr(*key) is not fn for key, fn in before.items())
    assert all(getattr(*key) is fn for key, fn in before.items())
