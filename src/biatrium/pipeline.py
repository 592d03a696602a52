"""Three-stage segmentation driver with pluggable backends.

A case flows: optional contrast enhancement, placement of the standard
grid on the input (center pad/crop, computed as offsets only), block-mean
downsample read through that placement, coarse backend (binary mask), ROI
box + margin scaled back to the standard grid, fixed-size window crop read
through both placements, fine backend (multi-class), then stitching
through both placements straight back to the original grid, and the
mask write beside the evaluation against the ground truth.  Trained
networks are deliberately outside the process boundary: a backend is
either a builtin rule (threshold, copy-file) or an external command
operating on NIfTI files.

Cases are isolated: one failure cannot affect another case's output, and
the batch driver reports partial success.  All artifacts except the
timing sidecar are byte-reproducible for identical inputs and config,
whatever the worker count and the threads each case uses.
"""
from __future__ import annotations

import csv
import os
import shlex
import signal
import subprocess
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import (
    BINARY_CLASS_MAP,
    DEFAULT_CLASS_MAP,
    BackendError,
    BBox,
    ConfigError,
    EmptyMaskError,
    LabelMap,
    NiftiFormatError,
    Volume,
    _as_json,
    _as_triple,
    _atomic_open,
    _case_threads,
    _check_number,
    _in_parallel,
    _read_json,
    _release_free_heap,
    _thread_budget,
    _write_json,
    check_class_map,
    check_label_codes,
    from_json,
)
from .geometry import (
    DEFAULT_DOWNSAMPLE_FACTORS,
    DEFAULT_FINE_WINDOW,
    DEFAULT_STANDARD_SHAPE,
    bbox_from_mask,
    crop_window,
    downsample_mean,
    expand_bbox,
    standardize,
    stitch,
)
# run_case owns the volume it enhances, so here mclahe writes over its
# input; the name stays, as bench/spans.py wraps pipeline.mclahe
from .mclahe import MclaheParams
from .mclahe import _mclahe_consume as mclahe
from .metrics import MetricRow, evaluate_case, format_float
from .nifti import read_labelmap, read_volume, write_placement, write_volume

__all__ = [
    "BackendSpec",
    "CaseSpec",
    "PipelineConfig",
    "CaseResult",
    "PipelineResult",
    "invoke_backend",
    "run_case",
    "run_pipeline",
    "load_config",
    "config_from_dict",
]

#: The field that configures each backend kind; the others stay null.
_KIND_FIELD = {"external-command": "command_template", "threshold": "threshold",
               "copy-file": "source_path"}
BACKEND_KINDS = tuple(_KIND_FIELD)

#: Environment variable overriding where backend scratch files are created.
TMPDIR_ENV = "BIATRIUM_TMPDIR"

# Process groups of the external backends running now, whichever thread
# started them.  An interrupt reaches the whole process, so the registry is
# one per process: run_pipeline kills and drops every group in it before it
# re-raises, and a thread that finds its group dropped raises in turn.
_live_groups: set[int] = set()
_live_lock = threading.Lock()


@dataclass(frozen=True)
class BackendSpec:
    """How to turn an image volume into a label map.

    external-command runs ``command_template`` with {input} and {output}
    replaced by NIfTI paths (input float32, output uint8, exit 0 on
    success); threshold labels voxels >= ``threshold`` as class 1;
    copy-file reads the mask at ``source_path`` as-is.  The fields of the
    other kinds must be null; ``timeout_s`` is checked for every kind.
    """

    kind: str
    command_template: str | None = None
    threshold: float | None = None
    source_path: str | None = None
    timeout_s: float = 600.0

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"backend kind must be one of {BACKEND_KINDS}, got {self.kind!r}")
        for name in _KIND_FIELD.values():
            value = getattr(self, name)
            if name != _KIND_FIELD[self.kind] and value is not None:
                raise ValueError(f"{name} must be null for a {self.kind} backend, got {value!r}")
        if self.kind == "external-command":
            t = self.command_template
            if not isinstance(t, str) or "{input}" not in t or "{output}" not in t:
                raise ValueError(
                    "external-command backend needs a command_template containing "
                    "{input} and {output}")
        elif self.kind == "threshold":
            _check_number(self.threshold, "threshold", ge=0, le=1)
        elif self.kind == "copy-file":
            if not self.source_path or not isinstance(self.source_path, str):
                raise ValueError("copy-file backend needs source_path")
        # the wait polls with a C int of milliseconds
        _check_number(self.timeout_s, "timeout_s", gt=0, le=2147483)


@dataclass(frozen=True)
class CaseSpec:
    """One input volume and its optional ground truth.

    An empty or null ``case_id`` defaults to the image file name without
    ``.nii``/``.nii.gz``.  The id names the case's output directory, so it
    must be a single path component.
    """

    case_id: str = ""
    image: str = ""
    gt: str | None = None

    def __post_init__(self):
        if not isinstance(self.image, str) or not self.image:
            raise ValueError(f"image must be a non-empty string, got {self.image!r}")
        if self.gt is not None and not isinstance(self.gt, str):
            raise ValueError(f"gt must be a string or null, got {self.gt!r}")
        if self.case_id in ("", None):
            name = Path(self.image).name
            stem = name[:-len(".nii.gz")] if name.endswith(".nii.gz") else Path(name).stem
            object.__setattr__(self, "case_id", stem)
        if (not isinstance(self.case_id, str) or self.case_id in ("", ".", "..")
                or any(c in self.case_id for c in "/\\\0")):
            raise ValueError(
                f"case_id must be a single path component, got {self.case_id!r}")


@dataclass(frozen=True)
class PipelineConfig:
    cases: tuple[CaseSpec, ...]
    output_dir: str
    coarse_backend: BackendSpec
    fine_backend: BackendSpec
    standard_shape: tuple[int, int, int] = DEFAULT_STANDARD_SHAPE
    coarse_factors: tuple[int, int, int] = DEFAULT_DOWNSAMPLE_FACTORS
    fine_window: tuple[int, int, int] = DEFAULT_FINE_WINDOW
    mclahe_params: MclaheParams | None = field(default_factory=MclaheParams,
                                               metadata={"json": "mclahe"})
    class_map: Mapping[str, int] = field(default_factory=lambda: dict(DEFAULT_CLASS_MAP))
    bbox_margin_vox: int = 8

    def __post_init__(self):
        object.__setattr__(self, "cases", tuple(self.cases))
        object.__setattr__(self, "class_map", check_class_map(self.class_map))
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        if not self.cases:
            raise ConfigError("config lists no cases")
        seen = set()
        for c in self.cases:
            if c.case_id in seen:
                raise ConfigError(f"duplicate case_id {c.case_id!r}")
            seen.add(c.case_id)
        for name in ("standard_shape", "coarse_factors", "fine_window"):
            object.__setattr__(self, name, _as_triple(getattr(self, name), name))
        for ax, (s, f) in enumerate(zip(self.standard_shape, self.coarse_factors)):
            if s % f != 0:
                raise ConfigError(
                    f"standard_shape[{ax}]={s} is not divisible by coarse_factors[{ax}]={f}")
        _check_number(self.bbox_margin_vox, "bbox_margin_vox", integer=True, ge=0)


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    status: str  # "ok" | "failed"
    mask_path: str | None = None
    flags: tuple[str, ...] = ()
    error: str | None = None
    #: For a failed case, the stage that raised (None if the error came from
    #: outside every stage; the write if it and the overlapped evaluation
    #: both failed) and the exception's type name.
    failed_stage: str | None = None
    error_type: str | None = None
    roi_box: BBox | None = None
    timings_ms: Mapping[str, float] = field(default_factory=dict)
    metrics: tuple[MetricRow, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class PipelineResult:
    cases: tuple[CaseResult, ...]
    summary_csv: str | None = None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)


def invoke_backend(spec: BackendSpec, image: Volume,
                   classes: Mapping[str, int] | None = None) -> LabelMap:
    """Run one backend and return its label map, validated against the
    shape of ``image`` and the class codes in ``classes`` (None: default)."""
    if spec.kind == "threshold":
        labels = (image.data >= np.float32(spec.threshold)).astype(np.uint8)
        out = check_label_codes(LabelMap(data=labels, spacing=image.spacing), classes)
    elif spec.kind == "copy-file":
        try:
            out = read_labelmap(spec.source_path, classes=classes)
        except (OSError, ValueError, NiftiFormatError) as e:
            raise BackendError(f"copy-file backend could not read {spec.source_path}: {e}") from e
    else:
        out = _run_external(spec, image, classes)
    if out.shape != image.shape:
        raise BackendError(f"backend produced shape {out.shape}, expected {image.shape}")
    return out


def _run_external(spec: BackendSpec, image: Volume, classes: Mapping[str, int] | None) -> LabelMap:
    with tempfile.TemporaryDirectory(dir=os.environ.get(TMPDIR_ENV) or None) as tmp:
        # plain .nii: gzip costs far more time than it saves on scratch files
        in_path = os.path.join(tmp, "input.nii")
        out_path = os.path.join(tmp, "output.nii")
        write_volume(image, in_path)
        argv = [tok.replace("{input}", in_path).replace("{output}", out_path)
                for tok in shlex.split(spec.command_template)]
        try:
            # A session of its own makes the backend and every process it
            # starts one process group, which a timeout kills as a whole.
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    start_new_session=True)
        except OSError as e:
            raise BackendError(f"backend command could not start: {e}") from e
        with _live_lock:
            _live_groups.add(proc.pid)
        with proc:
            try:
                _, stderr = proc.communicate(timeout=spec.timeout_s)
            except BaseException as e:
                # kill the whole group, then reap the backend
                _killpg(proc.pid)
                proc.wait()
                if isinstance(e, subprocess.TimeoutExpired):
                    raise BackendError(
                        f"backend command timed out after {spec.timeout_s:g} s") from e
                raise
            finally:
                with _live_lock:
                    # gone from the registry: an interrupt killed the group
                    interrupted = proc.pid not in _live_groups
                    _live_groups.discard(proc.pid)
        if interrupted:
            # like an interrupt in the waiting thread itself: the case ends
            # without a result
            raise KeyboardInterrupt("backend killed by an interrupt")
        if proc.returncode != 0:
            tail = stderr.decode(errors="replace")[-2000:]
            raise BackendError(
                f"backend command exited with {proc.returncode}; stderr: {tail!r}")
        if not os.path.exists(out_path):
            raise BackendError("backend command exited 0 but wrote no output file")
        try:
            return read_labelmap(out_path, classes=classes)
        except (OSError, ValueError, NiftiFormatError) as e:
            raise BackendError(f"backend output unusable: {e}") from e


def _killpg(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _kill_live_groups() -> None:
    """SIGKILL every registered backend process group and drop it from the
    registry, which tells the thread that started it that it was killed."""
    with _live_lock:
        for pgid in _live_groups:
            _killpg(pgid)
        _live_groups.clear()


def _roi_center(mask: LabelMap, factors, margin: int,
                standard_shape) -> tuple[BBox, tuple[int, int, int]]:
    """Scale the coarse-grid box up by the downsample factors, grow it by
    the margin (clipped to the grid), and take its midpoint, rounding half
    up."""
    box = bbox_from_mask(mask)
    scaled = BBox(lo=tuple(l * f for l, f in zip(box.lo, factors)),
                  hi=tuple(h * f for h, f in zip(box.hi, factors)))
    grown = expand_bbox(scaled, margin, standard_shape)
    center = tuple((l + h + 1) // 2 for l, h in zip(grown.lo, grown.hi))
    return grown, center


@dataclass
class _Stages:
    """Wall ms of each finished stage of a case, and every exception a stage
    raised, with the stage's name.  Stages may overlap, so a failure is
    named by the exception that ended the case, not by what ran last."""
    timings_ms: dict[str, float] = field(default_factory=dict)
    raised: list[tuple[BaseException, str]] = field(default_factory=list)


@contextmanager
def _timed(stages: _Stages, stage: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException as e:
        stages.raised.append((e, stage))
        raise
    stages.timings_ms[stage] = (time.perf_counter() - t0) * 1000.0


def run_case(cfg: PipelineConfig, case: CaseSpec) -> CaseResult:
    """Process one case; exceptions are converted into a failed result that
    names the stage and the exception type."""
    case_dir = Path(cfg.output_dir) / case.case_id
    stages = _Stages()
    try:
        return _run_case_inner(cfg, case, case_dir, stages)
    except Exception as e:  # noqa: BLE001 - case isolation boundary
        stage = next((name for raised, name in stages.raised if raised is e), None)
        # the recorded exceptions' tracebacks hold this frame and the case's
        # arrays: drop them now rather than at the next garbage collection
        stages.raised.clear()
        result = CaseResult(case_id=case.case_id, status="failed", error=str(e),
                            failed_stage=stage, error_type=type(e).__name__)
        try:
            case_dir.mkdir(parents=True, exist_ok=True)
            _write_result_json(case_dir, result)
        except OSError:
            pass
        return result


def _run_case_inner(cfg: PipelineConfig, case: CaseSpec, case_dir: Path,
                    stages: _Stages) -> CaseResult:
    flags: list[str] = []
    case_dir.mkdir(parents=True, exist_ok=True)

    with _timed(stages, "read"):
        vol = read_volume(case.image)
    orientation = vol.orientation  # the mask lies on this grid

    if cfg.mclahe_params is not None:
        with _timed(stages, "enhance"):
            # written over the array read_volume gave the case, so the case
            # holds one full grid; the input is gone with this assignment
            vol = mclahe(vol, cfg.mclahe_params)

    # The standard grid is a placement on the input, never an array: the
    # coarse and fine inputs are read, and the labels written, through it.
    with _timed(stages, "standardize"):
        to_original = standardize(vol.shape, cfg.standard_shape)

    with _timed(stages, "downsample"):
        coarse_in = downsample_mean(vol, cfg.coarse_factors, through=to_original)

    with _timed(stages, "coarse_backend"):
        coarse_mask = invoke_backend(cfg.coarse_backend, coarse_in, classes=BINARY_CLASS_MAP)

    with _timed(stages, "roi"):
        try:
            roi_box, center = _roi_center(coarse_mask, cfg.coarse_factors,
                                          cfg.bbox_margin_vox, cfg.standard_shape)
        except EmptyMaskError:
            flags.append("empty_coarse_mask")
            roi_box = None
            center = tuple(s // 2 for s in cfg.standard_shape)

    with _timed(stages, "crop"):
        fine_in, to_standard = crop_window(vol, center, cfg.fine_window, through=to_original)
    del vol  # the input is dropped as soon as its last reader is done

    with _timed(stages, "fine_backend"):
        fine_labels = invoke_backend(cfg.fine_backend, fine_in, classes=cfg.class_map)

    with _timed(stages, "stitch"):
        full_labels = stitch(fine_labels, to_standard, through=to_original)

    mask_path = case_dir / "mask.nii.gz"

    def write() -> None:
        with _timed(stages, "write"):
            write_volume(full_labels, mask_path, orientation=orientation)
            write_placement(to_original, case_dir / "standard_placement.json")
            write_placement(to_standard, case_dir / "window_placement.json")

    def evaluate() -> tuple[MetricRow, ...]:
        with _timed(stages, "evaluate"):
            gt = read_labelmap(case.gt, classes=cfg.class_map)
            return tuple(evaluate_case(full_labels, gt, classes=cfg.class_map,
                                       case_id=case.case_id))

    if case.gt is None:
        write()
        metrics: tuple[MetricRow, ...] = ()
    else:
        # Both stages only read full_labels, and zlib's deflate releases the
        # GIL, so within the case's thread budget the write runs on a helper
        # beside the evaluation.
        _, metrics = _in_parallel([write, evaluate])

    result = CaseResult(case_id=case.case_id, status="ok", mask_path=str(mask_path),
                        flags=tuple(flags), roi_box=roi_box, timings_ms=stages.timings_ms,
                        metrics=metrics)
    _write_result_json(case_dir, result)
    return result


def _write_result_json(case_dir: Path, result: CaseResult) -> None:
    """Timing sidecar; the only per-case artifact that varies between
    reruns, so byte-identity checks must skip it."""
    doc = {
        "case_id": result.case_id,
        "status": result.status,
        "flags": list(result.flags),
        "error": result.error,
        "failed_stage": result.failed_stage,
        "error_type": result.error_type,
        "roi_box": None if result.roi_box is None else _as_json(result.roi_box),
        "timings_ms": {k: round(v, 3) for k, v in result.timings_ms.items()},
    }
    _write_json(doc, case_dir / "result.json")


#: Column prefixes that differ from the class name.
_COLUMN_PREFIX = {"right_atrium": "ra", "left_atrium": "la"}


def write_summary_csv(results: Sequence[CaseResult], path,
                      classes: Mapping[str, int]) -> None:
    """Columns: case_id, status, then ``<class>_dice,<class>_hd95`` for each
    nonzero class of ``classes`` in map order (``right_atrium`` and
    ``left_atrium`` abbreviate to ``ra``/``la``).  Metric cells stay empty
    for failed cases or when no ground truth was supplied."""
    names = [name for name, code in classes.items() if code != 0]
    with _atomic_open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["case_id", "status"]
        for name in names:
            prefix = _COLUMN_PREFIX.get(name, name)
            header += [f"{prefix}_dice", f"{prefix}_hd95"]
        w.writerow(header)
        for r in results:
            row = [r.case_id, r.status]
            by_class = {m.class_name: m for m in r.metrics}
            for name in names:
                m = by_class.get(name)
                if m is None:
                    row += ["", ""]
                else:
                    row += [format_float(m.dice), format_float(m.hd95_mm)]
            w.writerow(row)


def run_pipeline(cfg: PipelineConfig, workers: int = 1) -> PipelineResult:
    """Run every case (optionally in parallel) and write summary.csv.

    Case order in the summary matches the config regardless of scheduling.
    """
    _check_number(workers, "workers", integer=True, ge=1)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if workers > 1:
        # each worker thread's cases share the CPUs with the other workers
        with ThreadPoolExecutor(max_workers=workers, initializer=_case_threads.set,
                                initargs=(_thread_budget(workers),)) as pool:
            futures = [pool.submit(run_case, cfg, c) for c in cfg.cases]
            try:
                results = [f.result() for f in futures]
            except BaseException:
                # An interrupt reaches this thread only: no queued case
                # starts, and running cases lose their backends, including
                # any started meanwhile, until none is left running.
                pool.shutdown(wait=False, cancel_futures=True)
                running = [f for f in futures if not f.cancelled()]
                _kill_live_groups()
                while wait(running, timeout=0.1).not_done:
                    _kill_live_groups()
                raise
        # Cases overlap in the pool, so a trim after one of them cannot get
        # back to its live set: the heap goes back once, after the last.
        _release_free_heap()
    else:
        # The cases run on this thread, whose backend wait kills its own
        # group on an interrupt, and each case's freed heap goes back to
        # the OS before the next starts.  A one-thread pool would serve too,
        # but the pool thread's malloc arena raised paper_builtin
        # peak_rss_mb from 175.2-176.7 to 200.0-200.1 MB.
        results = []
        for c in cfg.cases:
            results.append(run_case(cfg, c))
            _release_free_heap()
    summary = out_dir / "summary.csv"
    write_summary_csv(results, summary, cfg.class_map)
    return PipelineResult(cases=tuple(results), summary_csv=str(summary))


# -- config parsing ---------------------------------------------------------

def config_from_dict(doc: dict, base_dir=".") -> PipelineConfig:
    """Validate a parsed JSON document.  Unknown or missing keys and values
    the config dataclasses reject are ConfigErrors naming their key path.
    Relative paths resolve against ``base_dir``."""
    cfg = from_json(PipelineConfig, doc)
    base = Path(base_dir)

    def rebase(path: str | None) -> str | None:
        return None if path is None else str(base / path)

    def rebase_backend(spec: BackendSpec) -> BackendSpec:
        return replace(spec, source_path=rebase(spec.source_path))

    return replace(
        cfg,
        cases=tuple(replace(c, image=rebase(c.image), gt=rebase(c.gt)) for c in cfg.cases),
        output_dir=rebase(cfg.output_dir),
        coarse_backend=rebase_backend(cfg.coarse_backend),
        fine_backend=rebase_backend(cfg.fine_backend),
    )


def load_config(path) -> PipelineConfig:
    """Read a UTF-8 JSON config; relative paths are taken relative to the
    config file's directory."""
    return config_from_dict(_read_json(path), base_dir=Path(path).parent)
