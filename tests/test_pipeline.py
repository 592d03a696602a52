import dataclasses
import gc
import gzip
import importlib.util
import json
import math
import os
import pathlib
import re
import shlex
import signal
import struct
import subprocess
import sys
import threading
import time
import weakref
from functools import partial

import numpy as np
import pytest

from biatrium import (
    BackendError,
    BackendSpec,
    ConfigError,
    Ellipsoid,
    LabelMap,
    PhantomSpec,
    Placement,
    Volume,
    config_from_dict,
    generate,
    invoke_backend,
    load_config,
    read_placement,
    run_case,
    run_pipeline,
    write_volume,
)
from backends import COMPONENT_SPLIT_FINE
from conftest import child_env, interrupt_the_blend, thread_budget
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

    def make(out_name, image=image, gt=gt_path, **over):
        doc = {
            "cases": [{"case_id": "ph", "image": str(image), "gt": gt and str(gt)}],
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


# -- config -----------------------------------------------------------------

_BASE_DOC = {
    "cases": [{"image": "a.nii.gz"}],
    "output_dir": "o",
    "coarse_backend": {"kind": "threshold", "threshold": 0.4},
    "fine_backend": {"kind": "threshold", "threshold": 0.4},
}
_DROP = object()  # a row value that drops its key from the base document


def test_pipeline_config_defaults():
    cfg = config_from_dict(_BASE_DOC)
    assert cfg.standard_shape == (576, 576, 48)
    assert cfg.coarse_factors == (4, 4, 1)
    assert cfg.fine_window == (256, 256, 48)
    assert cfg.bbox_margin_vox == 8
    assert cfg.mclahe_params is not None  # enhancement on by default


def test_config_from_dict_minimal(tmp_path):
    doc = {
        **_BASE_DOC,
        "cases": [{"image": "scans/case7.nii.gz"}, {"image": "scans/p8.nii"},
                  {"case_id": "a b", "image": "x.nii"}],
        "output_dir": "results",
        "fine_backend": {"kind": "copy-file", "source_path": "masks/m.nii.gz"},
        "class_map": {"background": 0, "cavity": 7},
    }
    cfg = config_from_dict(doc, base_dir=tmp_path)
    # derived from the file name
    assert [c.case_id for c in cfg.cases] == ["case7", "p8", "a b"]
    assert cfg.cases[0].image == str(tmp_path / "scans/case7.nii.gz")
    assert cfg.cases[0].gt is None
    assert cfg.output_dir == str(tmp_path / "results")
    assert cfg.fine_backend.source_path == str(tmp_path / "masks/m.nii.gz")
    assert cfg.class_map == {"background": 0, "cavity": 7}


def test_config_mclahe_null_disables_and_object_parses():
    assert config_from_dict({**_BASE_DOC, "mclahe": None}).mclahe_params is None
    cfg = config_from_dict({**_BASE_DOC, "mclahe": {"n_bins": 64, "clip_limit": 0.02,
                                                    "kernel_size": [16, 16, 4]}})
    assert cfg.mclahe_params.n_bins == 64
    assert cfg.mclahe_params.clip_limit == 0.02
    assert cfg.mclahe_params.kernel_size == (16, 16, 4)


def _threshold(**over):
    return {"kind": "threshold", "threshold": 0.4, **over}


def _external(**over):
    return {"kind": "external-command", "command_template": "run {input} {output}", **over}


# Every way a config document is refused: the base document with ``over``
# merged in, and the start of the message, which names the key path.  A new
# refusal is one row.
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
    ({"fine_backend": _threshold(timeout_s=math.nan)}, "fine_backend: timeout_s"),
    ({"mclahe": {"n_bins": 128.0}}, "mclahe: n_bins"),
    ({"mclahe": {"n_bins": True}}, "mclahe: n_bins"),
    ({"mclahe": {"clip_limit": True}}, "mclahe: clip_limit"),
    ({"coarse_backend": _threshold(threshold=True)}, "coarse_backend: threshold"),
    ({"coarse_backend": _threshold(threshold="0.4")}, "coarse_backend: threshold"),
    ({"coarse_backend": _threshold(timeout_s=True)}, "coarse_backend: timeout_s"),
    ({"coarse_backend": _threshold(timeout_s="5")}, "coarse_backend: timeout_s"),
    ({"coarse_backend": _threshold(timeout_s=2147484)}, "coarse_backend: timeout_s"),
    ({"coarse_backend": _threshold(timeout_s=math.inf)}, "coarse_backend: timeout_s"),
    ({"standard_shape": [576.5, 576, 48]}, "standard_shape"),
    ({"standard_shape": ["576", "576", "48"]}, "standard_shape"),
    ({"coarse_factors": [True, True, 1]}, "coarse_factors"),
    ({"bbox_margin_vox": True}, "bbox_margin_vox"),
    ({"mclahe": {"clip_limit": "0.01"}}, "mclahe: clip_limit"),
    # refused at load: a case would otherwise fail only after most of its chain
    ({"cases": [{"image": "a.nii.gz", "gt": ""}]}, "cases[0]: gt"),
    ({"fine_backend": _external(command_template='python3 "seg.py {input} {output}')},
     "fine_backend: command_template"),
    # past a uint16 bin index
    ({"mclahe": {"n_bins": 65537}}, "mclahe: n_bins"),
    # refused at load: exec or open would refuse a NUL only once a case reached the stage
    ({"fine_backend": _external(command_template="cp {input} {output}\x00")},
     "fine_backend: command_template must not contain a NUL byte"),
    ({"fine_backend": {"kind": "copy-file", "source_path": "mask\x00.nii.gz"}},
     "fine_backend: source_path must not contain a NUL byte"),
    # backends
    ({"coarse_backend": {"kind": "magic"}}, "coarse_backend: backend kind must be one of"),
    ({"coarse_backend": {"threshold": 0.4}}, "coarse_backend is missing required key 'kind'"),
    ({"coarse_backend": {"kind": "external-command"}},
     "coarse_backend: external-command backend needs a command_template containing {input} "
     "and {output}"),
    ({"coarse_backend": _external(command_template="run {input}")},
     "coarse_backend: external-command backend needs a command_template"),
    ({"coarse_backend": {"kind": "threshold"}},
     "coarse_backend: threshold must be a finite number >= 0 and <= 1, got None"),
    ({"coarse_backend": _threshold(threshold=1.5)},
     "coarse_backend: threshold must be a finite number >= 0 and <= 1, got 1.5"),
    ({"coarse_backend": {"kind": "copy-file"}}, "coarse_backend: copy-file backend needs source_path"),
    ({"coarse_backend": _threshold(timeout_s=0.0)},
     "coarse_backend: timeout_s must be a finite number > 0 and <= 2147483, got 0.0"),
    ({"coarse_backend": {"kind": "copy-file", "source_path": "m.nii", "threshold": "junk"}},
     "coarse_backend: threshold must be null for a copy-file backend, got 'junk'"),
    ({"coarse_backend": _threshold(source_path=5)},
     "coarse_backend: source_path must be null for a threshold backend, got 5"),
    ({"coarse_backend": _threshold(command_template="run {input} {output}")},
     "coarse_backend: command_template must be null for a threshold backend"),
    ({"coarse_backend": _external(threshold=0.5)},
     "coarse_backend: threshold must be null for a external-command backend, got 0.5"),
    # cases
    ({"cases": []}, "config lists no cases"),
    ({"cases": [5]}, "cases[0] must be an object"),
    ({"cases": [{"case_id": "x"}]}, "cases[0]: image must be a non-empty string, got ''"),
    ({"cases": [{"case_id": "a", "image": "x.nii.gz"}, {"case_id": "a", "image": "y.nii.gz"}]},
     "duplicate case_id 'a'"),
    # its directory would take the batch summary's path
    ({"cases": [{"case_id": "summary.csv", "image": "x.nii.gz"}, {"image": "y.nii.gz"}]},
     "case_id 'summary.csv' is the batch summary's file name"),
    *[({"cases": [{"image": "a.nii.gz", "case_id": bad}]},
       f"cases[0]: case_id must be a single path component, got {bad!r}")
      for bad in ("a/b", "a\\b", "..", ".")],
    # the id defaulted from the file name is empty
    ({"cases": [{"image": "scans/.nii.gz"}]},
     "cases[0]: case_id must be a single path component, got ''"),
    # the batch
    ({"output_dir": _DROP}, "config is missing required key 'output_dir'"),
    ({"output_dir": None}, "output_dir must be a string, got None"),
    ({"standard_shape": [10, 8, 8], "coarse_factors": [4, 4, 1]},
     "standard_shape[0]=10 is not divisible by coarse_factors[0]=4"),
    ({"standard_shape": [32768, 8, 8], "coarse_factors": [1, 1, 1]},
     "standard_shape must be 3 ints >= 1 and <= 32767, got [32768, 8, 8]"),
    ({"fine_window": [8, 32768, 8]},
     "fine_window must be 3 ints >= 1 and <= 32767, got [8, 32768, 8]"),
    ({"fine_window": [0, 8, 8]}, "fine_window must be 3 ints >= 1 and <= 32767, got [0, 8, 8]"),
    ({"bbox_margin_vox": -1}, "bbox_margin_vox must be an int >= 0, got -1"),
    ({"bbox_margin_vox": 2.5}, "bbox_margin_vox must be an int >= 0, got 2.5"),
    ({"class_map": [["background", 0]]}, "class_map must be an object, got [['background', 0]]"),
    *[({"class_map": {"x": bad}}, f"class_map['x'] must be an int >= 0 and <= 255, got {bad!r}")
      for bad in (300, 1.5, True, -1)],
    # unknown keys
    ({"colour": 1}, "unknown config key colour"),
    ({"cases": [{"image": "a.nii.gz", "weight": 2}]}, "unknown config key cases[0].weight"),
    ({"coarse_backend": _threshold(gpu=True)}, "unknown config key coarse_backend.gpu"),
    ({"mclahe": {"bins": 64}}, "unknown config key mclahe.bins"),
])
def test_config_bad_values_name_key_path(tmp_path, capsys, over, path):
    """``config_from_dict`` and ``biatrium run`` both refuse the document
    with a ConfigError whose message starts with ``path``, and no output
    directory appears."""
    doc = {key: value for key, value in {**_BASE_DOC, **over}.items() if value is not _DROP}
    with pytest.raises(ConfigError, match="^" + re.escape(path)):
        config_from_dict(doc)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}")
    assert not (tmp_path / "o").exists()


def test_config_timeout_upper_bound_loads():
    """A timeout is at most a C int of milliseconds: 2147483 s is the
    longest, and every backend kind may set it."""
    for backend in (_threshold(), _external(), {"kind": "copy-file", "source_path": "m.nii"}):
        cfg = config_from_dict({**_BASE_DOC, "coarse_backend": {**backend, "timeout_s": 2147483}})
        assert cfg.coarse_backend.timeout_s == 2147483


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_BASE_DOC, "cases": [{"image": "img.nii.gz"}]}))
    cfg = load_config(path)
    assert cfg.cases[0].image == str(tmp_path / "img.nii.gz")


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


def test_backend_spacing_is_compared_as_float32(tmp_path):
    """A header holds float32, so 0.7 mm reads back as 0.699999988...: that
    is the input's spacing (row fine-spacing-0.75mm of CASE_FAULTS: 0.75 mm
    is not)."""
    src = tmp_path / "mask.nii"
    write_nifti(src, np.zeros((6, 6, 4), dtype=np.uint8), (0.7, 0.7, 2.5))
    spec = BackendSpec(kind="copy-file", source_path=str(src))
    image = Volume(data=np.zeros((6, 6, 4), dtype=np.float32), spacing=(0.7, 0.7, 2.5))
    assert invoke_backend(spec, image).spacing != image.spacing


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
    out = subprocess.run([sys.executable, "-c", _LOUD_BACKEND],
                         env=child_env(**{TMPDIR_ENV: str(tmp_path)}), check=True,
                         capture_output=True, text=True, timeout=300)
    growth_kib, error = json.loads(out.stdout)
    assert error.startswith("backend command exited with 3; stderr: ")
    assert error.endswith(repr("x" * 1993 + "the end"))
    assert growth_kib * 1024 < 16 * 2**20, growth_kib


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
    # a shell that ignores SIGINT passes that on: restore the default,
    # under which Python raises KeyboardInterrupt
    return subprocess.Popen(
        [sys.executable, "-m", "biatrium.cli", "run", "--config", str(run_dir / "cfg.json"),
         "--workers", str(workers)], env=child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))


def _kill_groups(pgids) -> None:
    for p in pgids:
        try:
            os.killpg(int(p), signal.SIGKILL)
        except ProcessLookupError:
            pass


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_interrupt_at_the_registration_leaves_no_backend(tmp_path, monkeypatch):
    """An interrupt that arrives as the backend's group is registered, here
    from the registry's lock once the backend has written its pid, still
    kills and reaps the whole group and leaves the registry empty."""
    pid_file = tmp_path / "backend.pid"
    script = f"echo $$ > {shlex.quote(str(pid_file))}; sleep 30 & wait"

    class InterruptOnce:
        """A lock whose first acquire raises KeyboardInterrupt instead."""

        def __init__(self):
            self.lock, self.raised = threading.Lock(), False

        def __enter__(self):
            if not self.raised:
                self.raised = True
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline and not (
                        pid_file.exists() and pid_file.read_text().strip()):
                    time.sleep(0.01)
                raise KeyboardInterrupt
            self.lock.acquire()

        def __exit__(self, *exc):
            self.lock.release()

    monkeypatch.setattr(core, "_live_lock", InterruptOnce())
    try:
        with pytest.raises(KeyboardInterrupt):
            core._run_group(["sh", "-c", script], tmp_path / "stderr.txt", 60)
        pgid = int(pid_file.read_text())
        deadline = time.monotonic() + 2.0
        while _group_running(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _group_running(pgid)
        assert core._live_groups == set()
    finally:
        _kill_groups(pid_file.read_text().split() if pid_file.exists() else [])


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_successful_backend_leaves_no_process_behind(tmp_path):
    """A backend that exits 0 takes its group with it: a background child
    it left running is killed once the backend has exited."""
    pid_file = tmp_path / "child.pid"
    script = f"sleep 30 & echo $! > {shlex.quote(str(pid_file))}; exit 0"
    core._run_group(["sh", "-c", script], tmp_path / "stderr.txt", 60)
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


# -- case faults ------------------------------------------------------------

# Files a fault row reads from {tmp}: name -> (shape, spacing, the value of
# voxel (1, 1, 1)), zeros elsewhere; uint8, or float32 for a float value.
# The coarse input is 16x16x12 at 4 mm, the fine input 48x32x16 at
# (1, 1, 2) mm, and the phantom 64x64x24 at (1, 1, 2) mm.
_FAULT_FILES = {
    "coarse7.nii": ((16, 16, 12), (4, 4, 4), 7),
    "fine7.nii": ((48, 32, 16), (1, 1, 2), 7),
    "coarse1mm.nii": ((16, 16, 12), (1, 1, 1), 0),
    "fine1mm.nii": ((48, 32, 16), (1, 1, 1), 0),
    "fine0.7mm.nii": ((48, 32, 16), (0.7, 0.7, 2.5), 0),
    "image0.75mm.nii": ((64, 64, 24), (0.7, 0.75, 2.5), 0.5),
    "gt7.nii": ((64, 64, 24), (1, 1, 2), 7),
    "cube8.nii": ((8, 8, 8), (1, 1, 2), 0),
}


def _backend_fault(stage: str, spec: dict | str, error: str) -> tuple:
    """The row of a backend that fails ``stage`` with ``error``: ``spec``,
    or an external command that runs ``spec`` with its input and output."""
    if isinstance(spec, str):
        spec = _external(command_template=spec + " {input} {output}")
    return {stage: spec}, stage, "BackendError", error, False


def _copied(name: str) -> str:
    """A command that copies the file ``name`` to its output."""
    return f"sh -c 'cp {{tmp}}/{name} \"$1\"'"


def _copy_file(name: str) -> dict:
    return {"kind": "copy-file", "source_path": f"{{tmp}}/{name}"}


_fine, _coarse = partial(_backend_fault, "fine_backend"), partial(_backend_fault, "coarse_backend")
_NO_FILE = "[Errno 2] No such file or directory: "
_UNUSABLE = "backend output unusable: {scratch}/output.nii: "
_COPY = "copy-file backend: "
_CLASSES = "not in declared class codes [0, 1, 2, 3]"
_BINARY = "not in declared class codes [0, 1]"
_THRESHOLD = {"fine_backend": _threshold(threshold=0.3)}

# Every way a case fails at its boundary: id -> (the keywords of the env
# document, where "{tmp}" is the test's directory; the failed stage; the
# error type; the whole error, whose only wildcards are {tmp} and
# {scratch}, the backend's scratch directory; whether mask.nii.gz exists).
# A new fault is one row.
CASE_FAULTS = {
    # the backend's process, in core._run_group
    "fine-exit-3": _fine('python3 -c "import sys; sys.stderr.write(\'boom\'); sys.exit(3)"',
                         "backend command exited with 3; stderr: 'boom'"),
    "fine-exit-9": _fine('python3 -c "import sys; sys.exit(9)"',
                         "backend command exited with 9; stderr: ''"),
    "fine-timeout": _fine(_external(command_template='python3 -c "import time; time.sleep(30)"'
                                    " {input} {output}", timeout_s=0.4),
                          "backend command timed out after 0.4 s"),
    "fine-cannot-start": _fine("no-such-binary-xyzzy", "backend command could not start: "
                               f"{_NO_FILE}'no-such-binary-xyzzy'"),
    # the backend's output, in pipeline._run_external
    "fine-no-output": _fine("python3 -c pass", "backend command exited 0 but wrote no output file"),
    # a directory where the output file belongs
    "fine-output-directory": _fine(_external(command_template="mkdir {output} {input}.d"),
                                   "backend output unusable: [Errno 21] Is a directory: "
                                   "'{scratch}/output.nii'"),
    # its float32 input, which holds non-integer values
    "fine-output-float": _fine("cp", _UNUSABLE + "label file contains non-integer values"),
    "fine-output-code-7": _fine(_copied("fine7.nii"), _UNUSABLE + f"label values [7] {_CLASSES}"),
    "coarse-output-code-7": _coarse(_copied("coarse7.nii"),
                                    _UNUSABLE + f"label values [7] {_BINARY}"),
    # the copy-file backend's source, in pipeline.invoke_backend
    "fine-copy-missing": _fine(_copy_file("nope.nii"), _COPY + f"{_NO_FILE}'{{tmp}}/nope.nii'"),
    "fine-copy-code-7": _fine(_copy_file("fine7.nii"),
                              _COPY + f"{{tmp}}/fine7.nii: label values [7] {_CLASSES}"),
    "coarse-copy-code-7": _coarse(_copy_file("coarse7.nii"),
                                  _COPY + f"{{tmp}}/coarse7.nii: label values [7] {_BINARY}"),
    # every backend's label map against its input, in pipeline.invoke_backend
    "fine-copy-shape": _fine(_copy_file("cube8.nii"),
                             "backend produced shape (8, 8, 8), expected (48, 32, 16)"),
    "coarse-spacing-1mm": _coarse(_copied("coarse1mm.nii"), "backend produced spacing "
                                  "(1.0, 1.0, 1.0), expected (4.0, 4.0, 4.0)"),
    "fine-spacing-1mm": _fine(_copied("fine1mm.nii"), "backend produced spacing "
                              "(1.0, 1.0, 1.0), expected (1.0, 1.0, 2.0)"),
    # compared as float32: 0.7 mm is the 0.7 mm a header holds, 0.75 mm is not
    "fine-spacing-0.75mm": (
        {"image": "{tmp}/image0.75mm.nii", "gt": None, "fine_backend": _copy_file("fine0.7mm.nii")},
        "fine_backend", "BackendError",
        "backend produced spacing (0.699999988079071, 0.699999988079071, 2.5), "
        "expected (0.699999988079071, 0.75, 2.5)", False),
    # the threshold backend labels voxels 1, which this class map lacks
    "fine-threshold-code-1": ({**_THRESHOLD, "class_map": {"background": 0, "cavity": 2}},
                              "fine_backend", "BackendError", "threshold backend: "
                              "label values [1] not in declared class codes [0, 2]", False),
    # the image and the ground truth
    "image-missing": ({"image": "{tmp}/missing.nii"}, "read", "FileNotFoundError",
                      _NO_FILE + "'{tmp}/missing.nii'", False),
    "gt-missing": ({"gt": "{tmp}/missing.nii", **_THRESHOLD}, "evaluate",
                   "FileNotFoundError", _NO_FILE + "'{tmp}/missing.nii'", True),
    "gt-shape": ({"gt": "{tmp}/cube8.nii", **_THRESHOLD}, "evaluate", "ValueError",
                 "shape mismatch: pred (64, 64, 24) vs gt (8, 8, 8)", True),
    "gt-code-7": ({"gt": "{tmp}/gt7.nii", **_THRESHOLD}, "evaluate",
                  "NiftiFormatError", f"{{tmp}}/gt7.nii: label values [7] {_CLASSES}", True),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("over, stage, error_type, error, mask",
                         list(CASE_FAULTS.values()), ids=list(CASE_FAULTS))
def test_case_faults(env, tmp_path, monkeypatch, over, stage, error_type, error, mask, threads):
    """Each row, at thread budgets 1 and 2: run_case fails at the row's
    stage with its error type and its whole error, result.json says the
    same, mask.nii.gz exists only where the row says, and the case leaves
    no temporary file under its output directory, nothing in the backend
    scratch directory and no registered backend process group."""
    for name, (shape, spacing, value) in _FAULT_FILES.items():
        arr = np.zeros(shape, dtype=np.float32 if isinstance(value, float) else np.uint8)
        arr[1, 1, 1] = value
        write_nifti(tmp_path / name, arr, spacing)
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setenv(TMPDIR_ENV, str(scratch))
    over = json.loads(json.dumps(over).replace("{tmp}", json.dumps(str(tmp_path))[1:-1]))
    cfg = config_from_dict(env["make"](str(tmp_path / "out"), **over))
    with thread_budget(threads):
        result = run_case(cfg, cfg.cases[0])

    pattern = re.escape(error).replace(r"\{tmp\}", re.escape(str(tmp_path))).replace(
        r"\{scratch\}", re.escape(str(scratch)) + r"/\w+")
    assert re.fullmatch(pattern, result.error), result.error
    assert (result.status, result.failed_stage, result.error_type) == ("failed", stage, error_type)
    case_dir = tmp_path / "out" / "ph"
    written = json.loads((case_dir / "result.json").read_text())
    assert (written["failed_stage"], written["error_type"], written["error"]) == (
        stage, error_type, result.error)
    assert (case_dir / "mask.nii.gz").exists() == mask
    assert list((tmp_path / "out").rglob("*.tmp*")) == []
    assert list(scratch.iterdir()) == []
    assert core._live_groups == set()


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


def test_mask_keeps_the_image_qfac(env, tmp_path):
    """qfac (pixdim[0]) -1 says the image's qform mirrors its third axis;
    the mask lies on the image's grid, so it says so too."""
    image = tmp_path / "mirrored.nii"
    write_volume(env["vol"], image)
    blob = bytearray(image.read_bytes())
    struct.pack_into("<f", blob, 76, -1.0)
    struct.pack_into("<h", blob, 252, 1)  # qform_code
    image.write_bytes(bytes(blob))
    cfg = config_from_dict(env["make"](
        str(tmp_path / "out"), cases=[{"case_id": "ph", "image": str(image)}],
        fine_backend={"kind": "threshold", "threshold": 0.5}))
    assert run_pipeline(cfg).ok
    header = gzip.decompress((tmp_path / "out" / "ph" / "mask.nii.gz").read_bytes())
    assert struct.unpack_from("<f", header, 76) == (-1.0,)
    assert struct.unpack_from("<h", header, 252) == (1,)


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
    bytes at every worker count (1, 2 and 3) and at budgets 1 and 2, and
    at budget 4 with one worker (threaded blend, write beside the
    evaluation); with the case list reversed (two workers, budget 1), the
    masks and sidecars are the same bytes and each case's summary row the
    same.  run_pipeline shares
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
    settings = [(w, b, 1) for w in (1, 2, 3) for b in (1, 2)] + [(1, 4, 1), (2, 1, -1)]
    for workers, budget, order in settings:
        out = tmp_path / f"out_w{workers}_b{budget}_o{order}"
        cpus = set(range(workers * budget))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        cfg = config_from_dict(env["make"](
            str(out), mclahe={}, cases=cases[::order],
            fine_backend={"kind": "threshold", "threshold": 0.5}))
        result = run_pipeline(cfg, workers=workers)
        assert all(c.ok and c.metrics for c in result.cases), [c.error for c in result.cases]
        outputs[workers, budget, order] = {
            p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.name in ("mask.nii.gz", "standard_placement.json",
                          "window_placement.json", "summary.csv")}

    def by_case(summary: bytes):
        header, *rows = summary.decode().splitlines()
        return header, {row.split(",")[0]: row for row in rows}

    want = outputs[1, 1, 1]
    assert len(want) == 3 * 3 + 1
    for setting, files in outputs.items():
        if setting[2] < 0:  # the summary lists the cases in config order
            assert by_case(files.pop("summary.csv")) == by_case(want["summary.csv"])
            files["summary.csv"] = want["summary.csv"]
        assert files == want, setting


def test_batch_budget_shares_the_cpus_over_the_cases_that_run(env, monkeypatch):
    """On 4 CPUs at two workers, one case runs alone and gets all 4 threads,
    and each of three cases, two at a time, gets 2.  The budget lives in
    the batch's copy of the context: the caller's own has none after."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    budgets = []
    run_case = pipeline.run_case

    def recorded(cfg, case):
        budgets.append(core._threads())
        return run_case(cfg, case)

    monkeypatch.setattr(pipeline, "run_case", recorded)
    for n_cases, expected in ((1, [4]), (3, [2, 2, 2])):
        budgets.clear()
        doc = env["make"](f"out_budget{n_cases}",
                          fine_backend={"kind": "threshold", "threshold": 0.3})
        doc["cases"] = [{**doc["cases"][0], "case_id": f"c{i}"} for i in range(n_cases)]
        assert run_pipeline(config_from_dict(doc), workers=2).ok
        assert budgets == expected, n_cases
        assert core._case_threads.get(None) is None


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
    result.json.  Four CPUs give the one case 4 threads at either worker
    count, so both run helpers."""
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
    Measured on Linux x86-64 with an input of 28.3 MB, run_pipeline
    trimming the heap once, before the first case: the drop was 38.6-45.4
    MiB and the growth 8.3-8.6 MiB over 8 runs (41.8-43.2 and 1.2-1.4 MiB
    with a trim after each case as well).  The growth hangs on where small
    blocks sit in the heap: with 0 to 50 padding blocks allocated first, it
    was 7.7-9.0 MiB in 5 of 24 layouts either way, and 1.2-1.8 MiB in the
    rest.  While the first evaluation still imported scipy.spatial, which
    then stayed resident, the drop was about 41 MB, or 12 MB without the
    heap trim, and the growth 12 MB, or 49 MB with MCLAHE's output beside
    its input and no trim."""
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
    out = subprocess.run([sys.executable, "-c", _MEMORY_PER_CASE, str(tmp_path / "cfg.json")],
                         env=child_env(), check=True, capture_output=True, text=True, timeout=300)
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
    calls, seen, trims = [], [], []
    monkeypatch.setattr(core, "_mallopt", lambda *args: calls.append(args))
    run_case, release_free_heap = pipeline.run_case, pipeline._release_free_heap

    def recorded(cfg, case):
        seen.append(list(calls))
        return run_case(cfg, case)

    def trim():
        trims.append(len(seen))  # the cases started so far
        release_free_heap()

    monkeypatch.setattr(pipeline, "run_case", recorded)
    monkeypatch.setattr(pipeline, "_release_free_heap", trim)
    for workers in (1, 2):
        calls.clear()
        seen.clear()
        trims.clear()
        doc = env["make"](f"out_mmap{workers}",
                          fine_backend={"kind": "threshold", "threshold": 0.3})
        doc["cases"] *= 2
        doc["cases"][1] = {**doc["cases"][1], "case_id": "ph2"}
        assert run_pipeline(config_from_dict(doc), workers=workers).ok
        assert len(seen) == 2 and all(
            s[:2] == [(-3, 8 << 20), (-1, 8 << 20)] for s in seen), seen
        # the heap is tuned and trimmed once per call, before the first case
        assert trims == [0], (workers, trims)


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
