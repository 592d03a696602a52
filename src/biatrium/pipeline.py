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
operating on NIfTI files; ``core._run_group`` owns an external backend's
process group, and this module its scratch files, argv and output checks.

Cases are isolated: one failure cannot affect another case's output, and
the batch driver reports partial success.  All artifacts except the
timing sidecar are byte-reproducible for identical inputs and config,
whatever the worker count and the threads each case uses.
"""
from __future__ import annotations

import csv
import os
import shlex
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
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
    _check_number,
    _in_parallel,
    _read_json,
    _release_free_heap,
    _run_group,
    _set,
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
            try:
                shlex.split(t)
            except ValueError as e:  # here, not after a case has run its first stages
                raise ValueError(f"command_template cannot be split shell-style: {e}") from e
        elif self.kind == "threshold":
            _check_number(self.threshold, "threshold", ge=0, le=1)
        elif self.kind == "copy-file":
            if not self.source_path or not isinstance(self.source_path, str):
                raise ValueError("copy-file backend needs source_path")
        for name in ("command_template", "source_path"):
            # the exec or open of a case's stage would refuse it, late and unnamed
            if "\0" in (getattr(self, name) or ""):
                raise ConfigError(f"{name} must not contain a NUL byte")
        # at most a C int of milliseconds, which any wait or poll can take
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
        if self.gt is not None and (not isinstance(self.gt, str) or not self.gt):
            raise ValueError(f"gt must be a non-empty string or null, got {self.gt!r}")
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
        _set(self, cases=tuple(self.cases), class_map=check_class_map(self.class_map))
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        if not self.cases:
            raise ConfigError("config lists no cases")
        seen = set()
        for c in self.cases:
            if c.case_id in seen:
                raise ConfigError(f"duplicate case_id {c.case_id!r}")
            if c.case_id == "summary.csv":  # its directory would stand in the summary's way
                raise ConfigError(f"case_id {c.case_id!r} is the batch summary's file name")
            seen.add(c.case_id)
        _set(self, standard_shape=_as_triple(self.standard_shape, "standard_shape", grid=True),
             coarse_factors=_as_triple(self.coarse_factors, "coarse_factors"),
             fine_window=_as_triple(self.fine_window, "fine_window", grid=True))
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
    shape and, as float32 (the precision of a NIfTI header), the spacing of
    ``image``, and the class codes in ``classes`` (None: default)."""
    if spec.kind == "external-command":
        out = _run_external(spec, image, classes)
    else:
        try:
            if spec.kind == "threshold":
                labels = (image.data >= np.float32(spec.threshold)).astype(np.uint8)
                out = check_label_codes(LabelMap(data=labels, spacing=image.spacing), classes)
            else:
                out = read_labelmap(spec.source_path, classes=classes)
        except (OSError, ValueError, NiftiFormatError) as e:
            raise BackendError(f"{spec.kind} backend: {e}") from e
    if out.shape != image.shape:
        raise BackendError(f"backend produced shape {out.shape}, expected {image.shape}")
    if np.any(np.float32(out.spacing) != np.float32(image.spacing)):
        raise BackendError(f"backend produced spacing {out.spacing}, expected {image.spacing}")
    return out


def _run_external(spec: BackendSpec, image: Volume, classes: Mapping[str, int] | None) -> LabelMap:
    with tempfile.TemporaryDirectory(dir=os.environ.get(TMPDIR_ENV) or None) as tmp:
        # plain .nii: gzip costs far more time than it saves on scratch files
        in_path = os.path.join(tmp, "input.nii")
        out_path = os.path.join(tmp, "output.nii")
        write_volume(image, in_path)
        argv = [tok.replace("{input}", in_path).replace("{output}", out_path)
                for tok in shlex.split(spec.command_template)]
        _run_group(argv, os.path.join(tmp, "stderr.txt"), spec.timeout_s)
        if not os.path.exists(out_path):
            raise BackendError("backend command exited 0 but wrote no output file")
        try:
            return read_labelmap(out_path, classes=classes)
        except (OSError, ValueError, NiftiFormatError) as e:
            raise BackendError(f"backend output unusable: {e}") from e


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


#: Attribute naming, on an exception, the stage it left.  Stages may
#: overlap, so a failure is named by the exception that ended the case,
#: not by what ran last.
_STAGE_ATTR = "_biatrium_stage"


@contextmanager
def _timed(timings_ms: dict[str, float], stage: str):
    """Record the stage's wall ms in ``timings_ms`` if it finishes, or its
    name on the exception it raises."""
    t0 = time.perf_counter()
    try:
        yield
    except BaseException as e:
        setattr(e, _STAGE_ATTR, stage)
        raise
    timings_ms[stage] = (time.perf_counter() - t0) * 1000.0


def run_case(cfg: PipelineConfig, case: CaseSpec) -> CaseResult:
    """Process one case; exceptions are converted into a failed result that
    names the stage and the exception type."""
    case_dir = Path(cfg.output_dir) / case.case_id
    try:
        return _run_case_inner(cfg, case, case_dir)
    except Exception as e:  # noqa: BLE001 - case isolation boundary
        stage = getattr(e, _STAGE_ATTR, None)
        result = CaseResult(case_id=case.case_id, status="failed", error=str(e),
                            failed_stage=stage, error_type=type(e).__name__)
        try:
            case_dir.mkdir(parents=True, exist_ok=True)
            _write_result_json(case_dir, result)
        except OSError:
            pass
        return result


def _run_case_inner(cfg: PipelineConfig, case: CaseSpec, case_dir: Path) -> CaseResult:
    flags: list[str] = []
    timings_ms: dict[str, float] = {}
    case_dir.mkdir(parents=True, exist_ok=True)

    with _timed(timings_ms, "read"):
        vol = read_volume(case.image)
    orientation = vol.orientation  # the mask lies on this grid

    if cfg.mclahe_params is not None:
        with _timed(timings_ms, "enhance"):
            # written over the array read_volume gave the case, so the case
            # holds one full grid; the input is gone with this assignment
            vol = mclahe(vol, cfg.mclahe_params)

    # The standard grid is a placement on the input, never an array: the
    # coarse and fine inputs are read, and the labels written, through it.
    with _timed(timings_ms, "standardize"):
        to_original = standardize(vol.shape, cfg.standard_shape)

    with _timed(timings_ms, "downsample"):
        coarse_in = downsample_mean(vol, cfg.coarse_factors, through=to_original)

    with _timed(timings_ms, "coarse_backend"):
        coarse_mask = invoke_backend(cfg.coarse_backend, coarse_in, classes=BINARY_CLASS_MAP)

    with _timed(timings_ms, "roi"):
        try:
            roi_box, center = _roi_center(coarse_mask, cfg.coarse_factors,
                                          cfg.bbox_margin_vox, cfg.standard_shape)
        except EmptyMaskError:
            flags.append("empty_coarse_mask")
            roi_box = None
            center = tuple(s // 2 for s in cfg.standard_shape)

    with _timed(timings_ms, "crop"):
        fine_in, to_standard = crop_window(vol, center, cfg.fine_window, through=to_original)
    # The input and each window-sized array are dropped once their last
    # reader is done.  The coarse arrays stay to the end: dropping them here
    # made 24 small cases on two workers take about 40 % more page faults.
    del vol

    with _timed(timings_ms, "fine_backend"):
        fine_labels = invoke_backend(cfg.fine_backend, fine_in, classes=cfg.class_map)
    del fine_in

    with _timed(timings_ms, "stitch"):
        full_labels = stitch(fine_labels, to_standard, through=to_original)
    del fine_labels

    mask_path = case_dir / "mask.nii.gz"

    def write() -> None:
        with _timed(timings_ms, "write"):
            write_volume(full_labels, mask_path, orientation=orientation)
            write_placement(to_original, case_dir / "standard_placement.json")
            write_placement(to_standard, case_dir / "window_placement.json")

    def evaluate() -> tuple[MetricRow, ...]:
        with _timed(timings_ms, "evaluate"):
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
    """Run every case, ``workers`` at once through ``core._in_parallel``,
    which shares the CPUs out over the cases that run at once, and write
    summary.csv, in config order whatever the scheduling.  The heap is
    trimmed and the allocator tuned once, before the first case; from then
    on, a finished case's blocks of 8 MB or more leave as they are freed."""
    _check_number(workers, "workers", integer=True, ge=1)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _release_free_heap()
    results = _in_parallel([partial(run_case, cfg, c) for c in cfg.cases], workers)
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
