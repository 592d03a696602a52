"""Three-stage segmentation driver with pluggable backends.

A case flows: optional contrast enhancement, center pad/crop to the
standard grid, block-mean downsample, coarse backend (binary mask), ROI
box + margin scaled back to the standard grid, fixed-size window crop,
fine backend (multi-class), then stitching through both placements back to
the original grid.  Trained networks are deliberately outside the process
boundary: a backend is either a builtin rule (threshold, copy-file) or an
external command operating on NIfTI files.

Cases are isolated: one failure cannot affect another case's output, and
the batch driver reports partial success.  All artifacts except the
timing sidecar are byte-reproducible for identical inputs and config.
"""
from __future__ import annotations

import csv
import json
import numbers
import os
import shlex
import signal
import subprocess
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
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
    _as_triple,
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
from .mclahe import MclaheParams, mclahe
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

BACKEND_KINDS = ("external-command", "threshold", "copy-file")

#: Environment variable overriding where backend scratch files are created.
TMPDIR_ENV = "BIATRIUM_TMPDIR"


@dataclass(frozen=True)
class BackendSpec:
    """How to turn an image volume into a label map.

    external-command runs ``command_template`` with {input} and {output}
    replaced by NIfTI paths (input float32, output uint8, exit 0 on
    success); threshold labels voxels >= ``threshold`` as class 1;
    copy-file reads the mask at ``source_path`` as-is.
    """

    kind: str
    command_template: str | None = None
    threshold: float | None = None
    source_path: str | None = None
    timeout_s: float = 600.0

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"backend kind must be one of {BACKEND_KINDS}, got {self.kind!r}")
        if self.kind == "external-command":
            t = self.command_template
            if not isinstance(t, str) or "{input}" not in t or "{output}" not in t:
                raise ValueError(
                    "external-command backend needs a command_template containing "
                    "{input} and {output}")
        elif self.kind == "threshold":
            if self.threshold is None or not 0.0 <= self.threshold <= 1.0:
                raise ValueError(f"threshold backend needs threshold in [0, 1], got {self.threshold}")
        elif self.kind == "copy-file":
            if not self.source_path or not isinstance(self.source_path, str):
                raise ValueError("copy-file backend needs source_path")
        if not self.timeout_s > 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")


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
            try:
                object.__setattr__(self, name, _as_triple(getattr(self, name), name))
            except ValueError as e:
                raise ConfigError(str(e)) from None
        for ax, (s, f) in enumerate(zip(self.standard_shape, self.coarse_factors)):
            if s % f != 0:
                raise ConfigError(
                    f"standard_shape[{ax}]={s} is not divisible by coarse_factors[{ax}]={f}")
        m = self.bbox_margin_vox
        if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 0:
            raise ConfigError(f"bbox_margin_vox must be an int >= 0, got {m!r}")

    @property
    def coarse_shape(self) -> tuple[int, int, int]:
        return tuple(s // f for s, f in zip(self.standard_shape, self.coarse_factors))


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    status: str  # "ok" | "failed"
    mask_path: str | None = None
    flags: tuple[str, ...] = ()
    error: str | None = None
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


def _backend_tmpdir():
    return tempfile.TemporaryDirectory(dir=os.environ.get(TMPDIR_ENV) or None)


def invoke_backend(spec: BackendSpec, image: Volume, expected_shape: tuple[int, int, int],
                   classes: Mapping[str, int] | None = None) -> LabelMap:
    """Run one backend and return its label map, validated against
    ``expected_shape`` and the class codes in ``classes`` (None: default)."""
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
    if out.shape != tuple(expected_shape):
        raise BackendError(
            f"backend produced shape {out.shape}, expected {tuple(expected_shape)}")
    return out


def _run_external(spec: BackendSpec, image: Volume, classes: Mapping[str, int] | None) -> LabelMap:
    with _backend_tmpdir() as tmp:
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
        with proc:
            try:
                _, stderr = proc.communicate(timeout=spec.timeout_s)
            except subprocess.TimeoutExpired as e:
                _kill_group(proc)
                raise BackendError(
                    f"backend command timed out after {spec.timeout_s:g} s") from e
            except BaseException:
                _kill_group(proc)
                raise
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


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the backend's whole process group, then reap the backend."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


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


@contextmanager
def _timed(timings_ms: dict[str, float], stage: str):
    t0 = time.perf_counter()
    yield
    timings_ms[stage] = (time.perf_counter() - t0) * 1000.0


def run_case(cfg: PipelineConfig, case: CaseSpec) -> CaseResult:
    """Process one case; exceptions are converted into a failed result."""
    case_dir = Path(cfg.output_dir) / case.case_id
    try:
        return _run_case_inner(cfg, case, case_dir)
    except Exception as e:  # noqa: BLE001 - case isolation boundary
        result = CaseResult(case_id=case.case_id, status="failed", error=str(e))
        try:
            case_dir.mkdir(parents=True, exist_ok=True)
            _write_result_json(case_dir, result)
        except OSError:
            pass
        return result


def _run_case_inner(cfg: PipelineConfig, case: CaseSpec, case_dir: Path) -> CaseResult:
    timings_ms: dict[str, float] = {}
    flags: list[str] = []
    case_dir.mkdir(parents=True, exist_ok=True)

    with _timed(timings_ms, "read"):
        vol = read_volume(case.image)

    if cfg.mclahe_params is not None:
        with _timed(timings_ms, "enhance"):
            vol = mclahe(vol, cfg.mclahe_params)

    with _timed(timings_ms, "standardize"):
        std, to_original = standardize(vol, cfg.standard_shape)

    with _timed(timings_ms, "downsample"):
        coarse_in = downsample_mean(std, cfg.coarse_factors)

    with _timed(timings_ms, "coarse_backend"):
        coarse_mask = invoke_backend(cfg.coarse_backend, coarse_in, cfg.coarse_shape,
                                     classes=BINARY_CLASS_MAP)

    with _timed(timings_ms, "roi"):
        try:
            roi_box, center = _roi_center(coarse_mask, cfg.coarse_factors,
                                          cfg.bbox_margin_vox, cfg.standard_shape)
        except EmptyMaskError:
            flags.append("empty_coarse_mask")
            roi_box = None
            center = tuple(s // 2 for s in cfg.standard_shape)

    with _timed(timings_ms, "crop"):
        fine_in, to_standard = crop_window(std, center, cfg.fine_window)

    with _timed(timings_ms, "fine_backend"):
        fine_labels = invoke_backend(cfg.fine_backend, fine_in, cfg.fine_window,
                                     classes=cfg.class_map)

    with _timed(timings_ms, "stitch"):
        full_labels = stitch(stitch(fine_labels, to_standard), to_original)

    with _timed(timings_ms, "write"):
        mask_path = case_dir / "mask.nii.gz"
        write_volume(full_labels, mask_path)
        write_placement(to_original, case_dir / "standard_placement.json")
        write_placement(to_standard, case_dir / "window_placement.json")

    metrics: tuple[MetricRow, ...] = ()
    if case.gt is not None:
        with _timed(timings_ms, "evaluate"):
            gt = read_labelmap(case.gt, classes=cfg.class_map)
            metrics = tuple(evaluate_case(full_labels, gt, classes=cfg.class_map,
                                          case_id=case.case_id))

    result = CaseResult(case_id=case.case_id, status="ok", mask_path=str(mask_path),
                        flags=tuple(flags), roi_box=roi_box, timings_ms=timings_ms,
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
        "roi_box": None if result.roi_box is None else
            {"lo": list(result.roi_box.lo), "hi": list(result.roi_box.hi)},
        "timings_ms": {k: round(v, 3) for k, v in result.timings_ms.items()},
    }
    with open(case_dir / "result.json", "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


#: Column prefixes that differ from the class name.
_COLUMN_PREFIX = {"right_atrium": "ra", "left_atrium": "la"}


def write_summary_csv(results: Sequence[CaseResult], path,
                      classes: Mapping[str, int]) -> None:
    """Columns: case_id, status, then ``<class>_dice,<class>_hd95`` for each
    nonzero class of ``classes`` in map order (``right_atrium`` and
    ``left_atrium`` abbreviate to ``ra``/``la``).  Metric cells stay empty
    for failed cases or when no ground truth was supplied."""
    names = [name for name, code in classes.items() if code != 0]
    with open(path, "w", newline="") as fh:
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
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda c: run_case(cfg, c), cfg.cases))
    else:
        results = [run_case(cfg, c) for c in cfg.cases]
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
    p = Path(path)
    with open(p, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from e
    return config_from_dict(doc, base_dir=p.parent)
