import json
import math

import numpy as np
import pytest
from scipy import ndimage

from biatrium import ConfigError, Ellipsoid, PhantomSpec, generate
from biatrium.phantom import spec_from_json, spec_to_json


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
    obj = spec_to_json(spec)
    assert spec_from_json(obj) == spec
    assert spec_from_json(json.dumps(obj)) == spec


def test_json_defaults_when_omitted():
    assert spec_from_json({}) == PhantomSpec()
    assert spec_from_json({"seed": 3}) == PhantomSpec(seed=3)


def test_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        spec_from_json({"wall_mm": 4.0})
    with pytest.raises(ValueError, match="la"):
        spec_from_json({"la": {"center_mm": [40, 60, 60], "radii_mm": [18, 20, 16],
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
])
def test_json_errors_name_key_path(obj, path):
    with pytest.raises(ConfigError, match=path):
        spec_from_json(obj)
