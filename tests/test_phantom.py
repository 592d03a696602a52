import math

import numpy as np
import pytest
from scipy import ndimage

from biatrium import ConfigError, Ellipsoid, PhantomSpec, generate
from biatrium.core import _as_json, from_json

from oracles import whole_grid_generate


def test_ellipsoid_validation():
    with pytest.raises(ValueError):
        Ellipsoid(center_mm=(0, 0), radii_mm=(1, 1, 1))
    with pytest.raises(ValueError):
        Ellipsoid(center_mm=(0, 0, 0), radii_mm=(1, 0, 1))


def test_spec_validation():
    with pytest.raises(ValueError):
        PhantomSpec(shape=(0, 10, 10))
    with pytest.raises(ValueError):
        PhantomSpec(spacing=(1, 1, 0))
    with pytest.raises(ValueError):
        PhantomSpec(wall_thickness_mm=0.0)
    with pytest.raises(ValueError):
        PhantomSpec(noise_amplitude=-0.1)


def test_spec_refuses_a_grid_no_nifti_header_holds():
    with pytest.raises(ConfigError, match=r"^shape must .*, got \(32768, 192, 48\)$"):
        PhantomSpec(shape=(32768, 192, 48))
    with pytest.raises(ConfigError, match=r"^spacing must .*, got \(0.625, 1e\+39, 2.5\)$"):
        PhantomSpec(spacing=(0.625, 1e39, 2.5))


def test_spec_rejects_ellipsoid_that_does_not_fit():
    with pytest.raises(ValueError, match="fit"):
        PhantomSpec(la=Ellipsoid(center_mm=(5.0, 60.0, 60.0),
                                 radii_mm=(18.0, 20.0, 16.0)))


def test_generate_is_deterministic():
    v1, g1 = generate(PhantomSpec(noise_amplitude=0.02, seed=7))
    v2, g2 = generate(PhantomSpec(noise_amplitude=0.02, seed=7))
    assert np.array_equal(v1.data, v2.data)
    assert np.array_equal(g1.data, g2.data)


def test_zero_noise_gives_exact_levels():
    spec = PhantomSpec()
    vol, gt = generate(spec)
    levels = np.array([spec.level_background, spec.level_wall,
                       spec.level_cavity, spec.level_cavity], dtype=np.float32)
    assert np.array_equal(vol.data, levels[gt.data])
    assert set(np.unique(vol.data).tolist()) == {
        np.float32(0.1), np.float32(0.5), np.float32(0.9)}


def test_noise_is_bounded_and_seeded():
    amp = 0.03
    clean, _ = generate(PhantomSpec())
    noisy, _ = generate(PhantomSpec(noise_amplitude=amp, seed=4))
    diff = noisy.data.astype(np.float64) - clean.data.astype(np.float64)
    assert np.abs(diff).max() <= amp + 1e-6  # float32 rounding slack
    assert np.abs(diff).max() > 0.0
    other, _ = generate(PhantomSpec(noise_amplitude=amp, seed=5))
    assert not np.array_equal(noisy.data, other.data)


def test_class_codes_and_all_present():
    _, gt = generate()
    assert set(np.unique(gt.data).tolist()) == {0, 1, 2, 3}


def test_membership_matches_mm_rule():
    spec = PhantomSpec()
    _, gt = generate(spec)
    rng = np.random.default_rng(11)
    t = spec.wall_thickness_mm

    def norm2(pos, e, grow):
        return sum(((pos[ax] - e.center_mm[ax]) / (e.radii_mm[ax] + grow)) ** 2
                   for ax in range(3))

    for _ in range(500):
        idx = tuple(int(rng.integers(0, s)) for s in spec.shape)
        pos = [idx[ax] * spec.spacing[ax] for ax in range(3)]
        in_la = norm2(pos, spec.la, 0.0) <= 1.0
        in_ra = norm2(pos, spec.ra, 0.0) <= 1.0
        in_shell = (norm2(pos, spec.la, t) <= 1.0 or norm2(pos, spec.ra, t) <= 1.0)
        if in_la:
            expect = 3
        elif in_ra:
            expect = 2
        elif in_shell:
            expect = 1
        else:
            expect = 0
        assert gt.data[idx] == expect, (idx, pos)


def test_cavity_volumes_match_analytic_within_5pct():
    spec = PhantomSpec()
    _, gt = generate(spec)
    vox_mm3 = spec.spacing[0] * spec.spacing[1] * spec.spacing[2]
    for code, e in ((3, spec.la), (2, spec.ra)):
        got = int((gt.data == code).sum()) * vox_mm3
        analytic = 4.0 / 3.0 * math.pi * e.radii_mm[0] * e.radii_mm[1] * e.radii_mm[2]
        assert abs(got - analytic) / analytic < 0.05


def test_wall_separates_cavities_from_background():
    """Removing the wall must leave each cavity as its own 6-connected
    component, disjoint from the background component."""
    _, gt = generate()
    non_wall = gt.data != 1
    struct = ndimage.generate_binary_structure(3, 1)  # faces only
    comp, _ = ndimage.label(non_wall, structure=struct)
    bg_comp = comp[0, 0, 0]
    assert gt.data[0, 0, 0] == 0
    for code in (2, 3):
        ids = np.unique(comp[gt.data == code])
        assert len(ids) == 1          # cavity is one connected piece
        assert ids[0] != bg_comp      # and never touches background
        # the component is exactly the cavity: no leakage through the shell
        assert np.array_equal(comp == ids[0], gt.data == code)


def test_overlapping_cavities_rejected():
    spec_kwargs = dict(
        la=Ellipsoid(center_mm=(55.0, 60.0, 60.0), radii_mm=(18.0, 20.0, 16.0)),
        ra=Ellipsoid(center_mm=(70.0, 60.0, 60.0), radii_mm=(16.0, 18.0, 15.0)),
    )
    spec = PhantomSpec(**spec_kwargs)  # fits, but cavities intersect
    with pytest.raises(ValueError, match="overlap"):
        generate(spec)


def test_custom_levels_and_small_grid():
    spec = PhantomSpec(
        shape=(64, 64, 24), spacing=(1.0, 1.0, 2.0),
        la=Ellipsoid(center_mm=(20.0, 32.0, 23.0), radii_mm=(8.0, 9.0, 7.0)),
        ra=Ellipsoid(center_mm=(44.0, 32.0, 23.0), radii_mm=(7.0, 8.0, 7.0)),
        wall_thickness_mm=3.0,
        level_background=0.0, level_wall=0.25, level_cavity=1.0,
    )
    vol, gt = generate(spec)
    assert vol.shape == (64, 64, 24)
    assert vol.spacing == (1.0, 1.0, 2.0)
    assert vol.data[gt.data == 0].max() == 0.0
    assert np.all(vol.data[gt.data == 1] == np.float32(0.25))
    assert np.all(vol.data[gt.data >= 2] == np.float32(1.0))


def test_json_round_trip():
    spec = PhantomSpec(noise_amplitude=0.05, seed=9)
    obj = _as_json(spec)
    assert from_json(PhantomSpec, obj) == spec


def test_json_defaults_when_omitted():
    assert from_json(PhantomSpec, {}) == PhantomSpec()
    assert from_json(PhantomSpec, {"seed": 3}) == PhantomSpec(seed=3)


def test_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        from_json(PhantomSpec, {"wall_mm": 4.0})
    with pytest.raises(ValueError, match="la"):
        from_json(PhantomSpec, {"la": {"center_mm": [40, 60, 60], "radii_mm": [18, 20, 16],
                                       "color": "red"}})


@pytest.mark.parametrize("obj, path", [
    ({"la": {"center_mm": [40, 60, 60]}}, "la is missing required key 'radii_mm'"),
    ({"shape": 5}, "shape"),
    ({"ra": {"center_mm": 5, "radii_mm": [16, 18, 15]}}, "ra: center_mm"),
    ({"la": [40, 60, 60]}, "la must be an object"),
    ({"la": {"center_mm": [42, 60, 60], "radii_mm": [math.nan, 20, 16]}}, "la: radii_mm"),
    ({"spacing": [math.inf, 0.625, 2.5]}, "spacing"),
    ({"shape": [math.inf, 192, 48]}, "shape"),
    ({"shape": "888"}, "shape"),
    ({"wall_thickness_mm": math.nan}, "wall_thickness_mm"),
    ({"noise_amplitude": math.nan}, "noise_amplitude"),
    ({"seed": 1.5, "noise_amplitude": 0.05}, "seed"),
    ({"seed": -1}, "seed"),
    ({"seed": True}, "seed"),
    ({"level_background": math.nan}, "level_background"),
    ({"level_wall": math.nan}, "level_wall"),
    ({"level_cavity": math.inf}, "level_cavity"),
    ({"level_wall": -math.inf}, "level_wall"),
    ({"level_cavity": "0.9"}, "level_cavity"),
    ({"wall_thickness_mm": "4"}, "wall_thickness_mm"),
    ({"wall_thickness_mm": True}, "wall_thickness_mm"),
    ({"noise_amplitude": True}, "noise_amplitude"),
    ({"level_wall": True}, "level_wall"),
    ({"shape": [192.5, 192, 48]}, "shape"),
    ({"shape": ["192", "192", "48"]}, "shape"),
    ({"shape": [True, True, 48]}, "shape"),
    ({"spacing": [0.625, math.inf, 2.5]}, "spacing"),
    ({"seed": "0"}, "seed"),
])
def test_json_errors_name_key_path(obj, path):
    with pytest.raises(ConfigError, match=path):
        from_json(PhantomSpec, obj)


def test_generate_equals_whole_grid_oracle():
    """Slab by slab labels, levels and noise equal the whole-grid build bit
    for bit: the noise slabs continue one random stream."""
    rng = np.random.default_rng(3)
    for _ in range(12):
        shape = tuple(int(n) for n in rng.integers([170, 150, 44], [260, 230, 60]))
        spec = PhantomSpec(shape=shape, noise_amplitude=float(rng.choice([0.0, 0.05, 0.3])),
                           seed=int(rng.integers(0, 1000)),
                           wall_thickness_mm=float(rng.uniform(1.0, 6.0)),
                           level_wall=float(rng.uniform(-1.0, 1.0)))
        vol, gt = generate(spec)
        ref_vol, ref_gt = whole_grid_generate(spec)
        assert np.array_equal(vol.data, ref_vol.data)
        assert np.array_equal(gt.data, ref_gt.data)


def _spec(shape, spacing, la, ra, wall, noise):
    return PhantomSpec(shape=shape, spacing=spacing, wall_thickness_mm=wall,
                       la=Ellipsoid(center_mm=la[0], radii_mm=la[1]),
                       ra=Ellipsoid(center_mm=ra[0], radii_mm=ra[1]),
                       noise_amplitude=noise, seed=2)


# (shape, spacing, la, ra, wall) of phantoms whose regions sit on the edges
# of their boxes
_BOX_EDGES = {
    # la holds no voxel centre: no x index is within 0.2 mm of 5.5
    "empty_cavity": ((16, 16, 16), (1.0, 1.0, 1.0),
                     ((5.5, 5.0, 5.0), (0.2, 0.2, 0.2)),
                     ((11.0, 8.0, 8.0), (2.0, 2.0, 2.0)), 2.0),
    # each grown ellipsoid reaches the extent: its box starts at index 0 or
    # ends at the last, where one term is exactly 1 and the others 0
    "reach_is_extent": ((17, 13, 11), (1.0, 1.0, 1.0),
                        ((4.0, 6.0, 5.0), (2.0, 4.0, 3.0)),
                        ((12.0, 6.0, 5.0), (2.0, 4.0, 3.0)), 2.0),
    "anisotropic": ((100, 20, 14), (0.3, 1.7, 2.5),
                    ((9.0, 16.0, 16.0), (4.0, 8.0, 8.0)),
                    ((21.0, 16.0, 16.0), (3.5, 7.0, 9.0)), 2.0),
    "subvoxel_wall": ((24, 24, 24), (1.0, 1.0, 1.0),
                      ((7.0, 12.0, 12.0), (5.0, 6.0, 5.0)),
                      ((17.0, 12.0, 12.0), (4.0, 5.0, 5.0)), 0.3),
    # the cavities' boxes share x and y indices 9..10, the cavities no voxel
    "cavity_boxes_meet": ((20, 20, 17), (1.0, 1.0, 1.0),
                          ((6.0, 6.0, 8.0), (4.0, 4.0, 4.0)),
                          ((13.0, 13.0, 8.0), (4.0, 4.0, 4.0)), 1.0),
}


@pytest.mark.parametrize("noise", [0.0, 0.05])
@pytest.mark.parametrize("name", sorted(_BOX_EDGES))
def test_generate_equals_whole_grid_oracle_at_box_edges(name, noise):
    """Testing each region only inside its box changes no voxel where a box
    is empty, touches the grid's edge, or meets the other cavity's box."""
    spec = _spec(*_BOX_EDGES[name], noise)
    vol, gt = generate(spec)
    ref_vol, ref_gt = whole_grid_generate(spec)
    assert np.array_equal(vol.data, ref_vol.data)
    assert np.array_equal(gt.data, ref_gt.data)
    if name == "empty_cavity":
        assert not (gt.data == 3).any() and (gt.data == 2).any()


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_cavities_sharing_one_voxel_are_rejected(noise):
    """Both cavities reach the voxel at (8, 8, 8) mm, each with d² exactly 1,
    and no other."""
    spec = _spec((17, 17, 17), (1.0, 1.0, 1.0), ((5.0, 8.0, 8.0), (3.0, 3.0, 3.0)),
                 ((11.0, 8.0, 8.0), (3.0, 3.0, 3.0)), 1.0, noise)
    with pytest.raises(ValueError, match="overlap"):
        whole_grid_generate(spec)
    with pytest.raises(ValueError, match="overlap"):
        generate(spec)
