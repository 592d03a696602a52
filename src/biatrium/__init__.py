"""Bi-atrial segmentation pipeline toolkit.

Numerical building blocks for a coarse-to-fine cardiac segmentation
workflow: adaptive histogram equalization, grid standardization, ROI
geometry, Dice/HD95 evaluation, an asymmetric loss kernel, a synthetic
phantom generator, and a batch pipeline driver with pluggable segmenter
backends.
"""
from .core import (
    BINARY_CLASS_MAP,
    DEFAULT_CLASS_MAP,
    BackendError,
    BBox,
    BiatriumError,
    ConfigError,
    EmptyMaskError,
    LabelMap,
    NiftiFormatError,
    Placement,
    Volume,
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
from .loss import AsymLossParams, asym_loss, asym_loss_grad, grad_check, volume_loss
from .mclahe import MclaheParams, mclahe
from .metrics import (
    ConfusionCounts,
    MetricRow,
    confusion_counts,
    dice,
    evaluate_case,
    format_float,
    hausdorff,
    hd95,
    read_report_csv,
    region_points,
    surface_points,
    write_report_csv,
)
from .nifti import (
    read_labelmap,
    read_nifti,
    read_placement,
    read_volume,
    write_nifti,
    write_placement,
    write_volume,
)
from .phantom import Ellipsoid, PhantomSpec, generate
from .pipeline import (
    BackendSpec,
    CaseResult,
    CaseSpec,
    PipelineConfig,
    PipelineResult,
    config_from_dict,
    invoke_backend,
    load_config,
    run_case,
    run_pipeline,
)

__version__ = "0.1.0"
