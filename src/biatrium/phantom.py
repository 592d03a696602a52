"""Synthetic two-chamber phantoms with exact ground truth.

Two ellipsoidal cavities (left atrium class 3, right atrium class 2) sit in
a dark background; each is wrapped in a wall shell (class 1) obtained by
expanding the cavity radii by the wall thickness.  Geometry is specified in
millimetres; a voxel belongs to a region when its center (index * spacing)
does.  The image is the per-class intensity level plus optional seeded
uniform noise, so with zero amplitude the voxel values are the level
constants exactly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import (DEFAULT_CLASS_MAP, LabelMap, Volume, _as_json, _as_triple, _check_number,
                   _set, _slabs, from_json)

__all__ = ["Ellipsoid", "PhantomSpec", "generate", "spec_from_json", "spec_to_json"]


@dataclass(frozen=True)
class Ellipsoid:
    center_mm: tuple[float, float, float]
    radii_mm: tuple[float, float, float]

    def __post_init__(self):
        _set(self, center_mm=_as_triple(self.center_mm, "center_mm", float, positive=False),
             radii_mm=_as_triple(self.radii_mm, "radii_mm", float))


def _default_la() -> Ellipsoid:
    return Ellipsoid(center_mm=(42.0, 60.0, 60.0), radii_mm=(18.0, 20.0, 16.0))


def _default_ra() -> Ellipsoid:
    return Ellipsoid(center_mm=(78.0, 60.0, 60.0), radii_mm=(16.0, 18.0, 15.0))


@dataclass(frozen=True)
class PhantomSpec:
    shape: tuple[int, int, int] = (192, 192, 48)
    spacing: tuple[float, float, float] = (0.625, 0.625, 2.5)
    la: Ellipsoid = field(default_factory=_default_la)
    ra: Ellipsoid = field(default_factory=_default_ra)
    wall_thickness_mm: float = 4.0
    level_background: float = 0.1
    level_wall: float = 0.5
    level_cavity: float = 0.9
    noise_amplitude: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _set(self, shape=_as_triple(self.shape, "shape", grid=True),
             spacing=_as_triple(self.spacing, "spacing", float, grid=True))
        _check_number(self.wall_thickness_mm, "wall_thickness_mm", gt=0)
        for name in ("level_background", "level_wall", "level_cavity"):
            _check_number(getattr(self, name), name)
        _check_number(self.noise_amplitude, "noise_amplitude", ge=0)
        _check_number(self.seed, "seed", integer=True, ge=0)
        extent = tuple((n - 1) * s for n, s in zip(self.shape, self.spacing))
        for name, e in (("la", self.la), ("ra", self.ra)):
            for ax in range(3):
                reach = e.radii_mm[ax] + self.wall_thickness_mm
                if e.center_mm[ax] - reach < 0 or e.center_mm[ax] + reach > extent[ax]:
                    raise ValueError(
                        f"{name} ellipsoid plus wall does not fit in the volume "
                        f"on axis {ax} (center {e.center_mm[ax]}, reach {reach}, "
                        f"extent {extent[ax]})")


def _inside(coords, e: Ellipsoid, grow_mm: float = 0.0) -> np.ndarray:
    """Voxels whose center, at per-axis coordinates ``coords`` (mm), lies in
    ``e`` grown by ``grow_mm``."""
    ax, ay, az = ((c - m) / (r + grow_mm) for c, m, r in zip(coords, e.center_mm, e.radii_mm))
    d2 = ax[:, None, None] ** 2 + ay[None, :, None] ** 2 + az[None, None, :] ** 2
    return d2 <= 1.0


def generate(spec: PhantomSpec | None = None) -> tuple[Volume, LabelMap]:
    """Build (image, ground truth).  Cavities override the wall shell where
    the expanded ellipsoids reach into them; overlapping cavities are an
    error because the ground truth would be ambiguous.

    Labels, image and noise are built one x-slab at a time, so the working
    set is the two outputs and slab-sized temporaries.  The noise is drawn
    slab after slab in C order, which continues one stream: the bytes equal
    a single whole-grid draw."""
    spec = spec or PhantomSpec()
    t = spec.wall_thickness_mm
    coords = [np.arange(n, dtype=np.float64) * sp for n, sp in zip(spec.shape, spec.spacing)]
    levels = np.array([spec.level_background, spec.level_wall,
                       spec.level_cavity, spec.level_cavity], dtype=np.float32)
    rng = np.random.default_rng(spec.seed)
    labels = np.zeros(spec.shape, dtype=np.uint8)
    image = np.empty(spec.shape, dtype=np.float32)
    for s in _slabs(spec.shape):
        c = (coords[0][s], *coords[1:])
        la_cav = _inside(c, spec.la)
        ra_cav = _inside(c, spec.ra)
        if (la_cav & ra_cav).any():
            raise ValueError("la and ra cavities overlap")
        wall = _inside(c, spec.la, grow_mm=t) | _inside(c, spec.ra, grow_mm=t)
        lab = labels[s]
        lab[wall] = DEFAULT_CLASS_MAP["wall"]
        lab[ra_cav] = DEFAULT_CLASS_MAP["right_atrium"]
        lab[la_cav] = DEFAULT_CLASS_MAP["left_atrium"]
        if spec.noise_amplitude > 0:
            noise = rng.uniform(-spec.noise_amplitude, spec.noise_amplitude, size=lab.shape)
            image[s] = levels[lab].astype(np.float64) + noise
        else:
            image[s] = levels[lab]

    vol = Volume(data=image, spacing=spec.spacing)
    gt = LabelMap(data=labels, spacing=spec.spacing)
    return vol, gt


def spec_from_json(obj: dict | str) -> PhantomSpec:
    """Build a PhantomSpec from a JSON dict (or JSON text).  Unknown keys
    are rejected; omitted keys take the defaults.  Errors are ConfigErrors
    (a ValueError) naming the key path."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    return from_json(PhantomSpec, obj)


def spec_to_json(spec: PhantomSpec) -> dict:
    """The spec as a JSON-ready dict, in field order, triples as lists."""
    return _as_json(spec)
