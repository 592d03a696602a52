"""Synthetic two-chamber phantoms with exact ground truth.

Two ellipsoidal cavities (left atrium class 3, right atrium class 2) sit in
a dark background; each is wrapped in a wall shell (class 1) obtained by
expanding the cavity radii by the wall thickness.  Geometry is specified in
millimetres; a voxel belongs to a region when its center (index * spacing)
does.  The image is the per-class intensity level plus optional seeded
uniform noise, so with zero amplitude the voxel values are the level
constants exactly.

Each region is tested only inside its box, the voxels no axis alone puts
outside it; the rest of the grid is background.  The noise is one seeded
stream over the whole grid in C order, drawn and added one x-slab at a
time.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_CLASS_MAP, LabelMap, Volume, _as_triple, _check_number, _set, _slabs

__all__ = ["Ellipsoid", "PhantomSpec", "generate"]


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


def _region(coords, e: Ellipsoid, grow_mm: float = 0.0):
    """The per-axis terms ``((c - m) / (r + grow_mm)) ** 2`` of the voxel
    centers at coordinates ``coords`` (mm) in ``e`` grown by ``grow_mm``,
    and the box of indices whose term is at most 1 on each axis.

    A center lies in the ellipsoid when its three terms sum to at most 1.
    A float64 sum of non-negative terms is never below any one of them, so
    no center outside the box does.  Each term falls and then rises along
    its axis, so the indices form one run; an axis with none gives an
    empty box."""
    terms = [((c - m) / (r + grow_mm)) ** 2 for c, m, r in zip(coords, e.center_mm, e.radii_mm)]
    box = []
    for term in terms:
        idx = np.flatnonzero(term <= 1.0)
        box.append(slice(int(idx[0]), int(idx[-1]) + 1) if idx.size else slice(0, 0))
    return terms, tuple(box)


def _within(terms, box) -> np.ndarray:
    """Of the voxels in ``box``, those whose terms sum to at most 1."""
    tx, ty, tz = (t[s] for t, s in zip(terms, box))
    return tx[:, None, None] + ty[None, :, None] + tz[None, None, :] <= 1.0


def generate(spec: PhantomSpec | None = None) -> tuple[Volume, LabelMap]:
    """Build (image, ground truth).  Cavities override the wall shell where
    the expanded ellipsoids reach into them; overlapping cavities are an
    error because the ground truth would be ambiguous.

    Each of the four regions (two walls, two cavities) is tested only
    inside its own box, the indices where no single axis term already
    exceeds 1, and painted there in a fixed order: walls, then right
    atrium, then left atrium.  The cavities' overlap check runs only where
    their boxes meet.  Outside the wall boxes the image is the background
    level; inside them it is each label's level.  The noise is then added
    one x-slab at a time, drawn slab after slab in C order, which continues
    one stream: the bytes equal a single whole-grid draw.  So the working
    set is the two outputs plus temporaries the size of a slab or a box."""
    spec = spec or PhantomSpec()
    t = spec.wall_thickness_mm
    coords = [np.arange(n, dtype=np.float64) * sp for n, sp in zip(spec.shape, spec.spacing)]
    levels = np.array([spec.level_background, spec.level_wall,
                       spec.level_cavity, spec.level_cavity], dtype=np.float32)
    la, ra = _region(coords, spec.la), _region(coords, spec.ra)
    both = tuple(slice(max(p.start, q.start), min(p.stop, q.stop)) for p, q in zip(la[1], ra[1]))
    if (_within(la[0], both) & _within(ra[0], both)).any():
        raise ValueError("la and ra cavities overlap")
    walls = _region(coords, spec.la, grow_mm=t), _region(coords, spec.ra, grow_mm=t)
    labels = np.zeros(spec.shape, dtype=np.uint8)
    for (terms, box), name in zip((*walls, ra, la),
                                  ("wall", "wall", "right_atrium", "left_atrium")):
        labels[box][_within(terms, box)] = DEFAULT_CLASS_MAP[name]

    # A cavity's box lies in its wall's: its terms are never below the
    # grown ellipsoid's.
    image = np.full(spec.shape, levels[0], dtype=np.float32)
    for _, box in walls:
        image[box] = levels[labels[box]]
    if spec.noise_amplitude > 0:
        rng = np.random.default_rng(spec.seed)
        for s in _slabs(spec.shape):
            # float32 += float64 adds in float64 and rounds once to float32.
            image[s] += rng.uniform(-spec.noise_amplitude, spec.noise_amplitude,
                                    size=image[s].shape)

    vol = Volume(data=image, spacing=spec.spacing)
    gt = LabelMap(data=labels, spacing=spec.spacing)
    return vol, gt
