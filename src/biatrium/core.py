"""Core voxel-grid types shared across the toolkit.

Volumes and label maps are axis-aligned 3D grids indexed (x, y, z) with a
physical spacing in mm per axis.  Placements record how a child grid (a
padded or cropped window) maps back into its parent grid.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
import typing
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = [
    "BiatriumError",
    "NiftiFormatError",
    "EmptyMaskError",
    "BackendError",
    "ConfigError",
    "DEFAULT_CLASS_MAP",
    "BINARY_CLASS_MAP",
    "Volume",
    "LabelMap",
    "BBox",
    "Placement",
    "check_class_map",
    "check_label_codes",
    "from_json",
]


class BiatriumError(Exception):
    """Base class for toolkit errors."""


class NiftiFormatError(BiatriumError):
    """File does not conform to the supported NIfTI-1 subset."""


class EmptyMaskError(BiatriumError):
    """A mask contains no voxels of the requested classes."""


class BackendError(BiatriumError):
    """A segmenter backend failed or produced unusable output."""


class ConfigError(BiatriumError, ValueError):
    """A configuration document or object is invalid."""


#: Default label codes.  The challenge convention for which integer encodes
#: wall vs left/right atrium is not fixed anywhere authoritative, so the map
#: is configurable wherever labels are consumed; this is the assumed default.
DEFAULT_CLASS_MAP: Mapping[str, int] = {
    "background": 0,
    "wall": 1,
    "right_atrium": 2,
    "left_atrium": 3,
}

#: Class map for the coarse (binary) stage.
BINARY_CLASS_MAP: Mapping[str, int] = {"background": 0, "foreground": 1}


def check_class_map(obj) -> dict[str, int]:
    """Return ``obj`` as a dict after checking that it maps names to
    integer codes in [0, 255] (bools are not codes)."""
    if not isinstance(obj, Mapping):
        raise ConfigError(f"class_map must be an object, got {obj!r}")
    for name, code in obj.items():
        if (not isinstance(name, str) or isinstance(code, bool)
                or not isinstance(code, numbers.Integral) or not 0 <= code <= 255):
            raise ConfigError(
                f"class_map must map names to ints in [0, 255], got {name!r}: {code!r}")
    return dict(obj)


def check_label_codes(labels: LabelMap, classes: Mapping[str, int] | None = None) -> LabelMap:
    """Return ``labels`` if each code it holds is 0 or a code of ``classes``
    (None: DEFAULT_CLASS_MAP); otherwise raise ValueError naming the rest."""
    codes = set((DEFAULT_CLASS_MAP if classes is None else classes).values()) | {0}
    bad = [c for c in _codes_present(labels.data) if c not in codes]
    if bad:
        raise ValueError(f"label values {bad} not in declared class codes {sorted(codes)}")
    return labels


def _codes_present(data: np.ndarray) -> list[int]:
    """The codes in the uint8 array ``data``, ascending: one 256-bin count,
    about twice as fast as the sort in ``np.unique``."""
    return np.flatnonzero(np.bincount(data.ravel(), minlength=256)).tolist()


def _as_triple(value, name: str, kind=int, positive: bool = True) -> tuple:
    """``value`` as a tuple of 3 finite ``kind`` numbers, each > 0 unless
    ``positive`` is false.  The one check of every grid triple: shapes,
    factors, windows, spacings, radii, offsets and box bounds."""
    lo = 0 if positive else -math.inf
    t = ()
    if not isinstance(value, (str, bytes)):  # "888" is not (8, 8, 8)
        try:
            t = tuple(kind(v) for v in value)
        except (TypeError, ValueError, OverflowError):
            pass
    if len(t) != 3 or not all(lo < v < math.inf for v in t):
        what = "positive finite" if positive else "finite"
        raise ValueError(f"{name} must be 3 {what} numbers, got {value!r}")
    return t


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Volume:
    """Dense 3D scalar field, float32, indexed (x, y, z).

    The container takes ownership of ``data``: the array is marked read-only
    on construction (no copy when the dtype already matches).
    """

    data: np.ndarray
    spacing: tuple[float, float, float]
    #: Opaque qform/sform header bytes carried through read/write untouched.
    orientation: bytes | None = field(default=None, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 3:
            raise ValueError(f"volume data must be 3D, got {arr.ndim}D")
        if arr.size == 0:
            raise ValueError("volume data must be non-empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("volume data contains non-finite values")
        object.__setattr__(self, "data", _freeze(arr))
        object.__setattr__(self, "spacing", _as_triple(self.spacing, "spacing", float))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True, eq=False)
class LabelMap:
    """Dense 3D label field, uint8, same geometry conventions as Volume."""

    data: np.ndarray
    spacing: tuple[float, float, float]

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise ValueError(f"label data must be 3D, got {arr.ndim}D")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"label data must be integer, got {arr.dtype}")
            if arr.size and (arr.min() < 0 or arr.max() > 255):
                raise ValueError("label values out of uint8 range")
            arr = arr.astype(np.uint8)
        object.__setattr__(self, "data", _freeze(arr))
        object.__setattr__(self, "spacing", _as_triple(self.spacing, "spacing", float))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True)
class BBox:
    """Axis-aligned voxel box with inclusive lo, exclusive hi bounds."""

    lo: tuple[int, int, int]
    hi: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_triple(self.lo, "lo", positive=False))
        object.__setattr__(self, "hi", _as_triple(self.hi, "hi", positive=False))
        for a in range(3):
            if not (0 <= self.lo[a] < self.hi[a]):
                raise ValueError(f"invalid bbox bounds on axis {a}: [{self.lo[a]}, {self.hi[a]})")

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    def center(self) -> tuple[float, float, float]:
        """Continuous center in voxel-edge coordinates of [lo, hi)."""
        return tuple((l + h) / 2.0 for l, h in zip(self.lo, self.hi))


@dataclass(frozen=True)
class Placement:
    """Maps a child grid into its parent: child voxel i sits at parent
    voxel ``offset + i``.  Negative offsets mean the child extends past the
    parent (padding)."""

    parent_shape: tuple[int, int, int]
    offset: tuple[int, int, int]
    window_shape: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "parent_shape", _as_triple(self.parent_shape, "parent_shape"))
        object.__setattr__(self, "offset", _as_triple(self.offset, "offset", positive=False))
        object.__setattr__(self, "window_shape", _as_triple(self.window_shape, "window_shape"))


def from_json(cls, obj, where: str = ""):
    """Build the config dataclass ``cls`` from a parsed JSON object.

    The keys are the field names, or ``metadata["json"]`` where a field sets
    it; unknown keys and missing required keys are errors.  Fields typed as
    a dataclass, an optional dataclass or ``tuple[<dataclass>, ...]`` are
    built recursively; every other value goes to ``cls`` unchanged, whose
    ``__post_init__`` validates it.  Errors are ConfigErrors naming the key
    path (``where`` is the path of ``obj`` itself).
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or 'config root'} must be an object")
    hints = typing.get_type_hints(cls)
    fields = {f.metadata.get("json", f.name): f for f in dataclasses.fields(cls)}
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise ConfigError(f"unknown config key {_key_path(where, unknown[0])}")
    kwargs = {}
    for key, f in fields.items():
        if key in obj:
            kwargs[f.name] = _field_from_json(hints[f.name], obj[key], _key_path(where, key))
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{where or 'config'} is missing required key {key!r}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}" if where else str(e)) from e


def _key_path(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _field_from_json(tp, value, where: str):
    args = typing.get_args(tp)
    if value is None and type(None) in args:
        return None
    if typing.get_origin(tp) is tuple and args[1:] == (...,) and dataclasses.is_dataclass(args[0]):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list")
        return tuple(from_json(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    for t in (tp, *args):
        if dataclasses.is_dataclass(t):
            return from_json(t, value, where)
    return value
