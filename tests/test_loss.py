import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biatrium import (
    AsymLossParams,
    LabelMap,
    Volume,
    asym_loss,
    asym_loss_grad,
    grad_check,
    volume_loss,
)
from oracles import bce, focal


# -- params / scalar values -------------------------------------------------

def test_default_params():
    p = AsymLossParams()
    assert (p.gamma_pos, p.gamma_neg, p.margin, p.eps) == (1.0, 4.0, 0.05, 1e-7)


def test_params_validation():
    with pytest.raises(ValueError):
        AsymLossParams(gamma_pos=-0.1)
    with pytest.raises(ValueError):
        AsymLossParams(margin=1.0)
    with pytest.raises(ValueError):
        AsymLossParams(eps=0.0)
    for bad in ({"gamma_pos": math.nan}, {"gamma_neg": math.nan}, {"eps": math.nan},
                {"gamma_pos": math.inf}, {"gamma_neg": math.inf}):
        with pytest.raises(ValueError):
            AsymLossParams(**bad)
    for bad in ({"gamma_pos": True}, {"gamma_neg": True}, {"margin": True}, {"eps": True},
                {"eps": math.inf}, {"eps": 2.0 ** -54}, {"margin": "0.05"}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            AsymLossParams(**bad)


def test_label_validation():
    with pytest.raises(ValueError, match="label"):
        asym_loss(2, 0.5)
    with pytest.raises(ValueError, match="label"):
        asym_loss_grad(0.5, 0.5)


def test_label_is_an_int():
    for bad in (True, 1.0, "1", np.float64(0.0)):
        with pytest.raises(ValueError, match="label"):
            asym_loss(bad, 0.5)
        with pytest.raises(ValueError, match="label"):
            asym_loss_grad(bad, 0.5)
    assert asym_loss(np.int64(1), 0.5) == asym_loss(1, 0.5)


def test_positive_term_hand_value():
    # y=1, g+=1: L = -(1-p) log p; at p=0.5: 0.5 * log 2
    params = AsymLossParams(gamma_pos=1.0, gamma_neg=4.0, margin=0.05)
    assert asym_loss(1, 0.5, params) == pytest.approx(0.5 * math.log(2.0), rel=1e-15)


def test_negative_term_hand_value():
    # y=0, g-=2, m=0.1, p=0.6: q=0.5, L = -0.25 * log(0.5)
    params = AsymLossParams(gamma_pos=1.0, gamma_neg=2.0, margin=0.1)
    assert asym_loss(0, 0.6, params) == pytest.approx(0.25 * math.log(2.0), rel=1e-15)


def test_margin_zeroes_easy_negatives():
    params = AsymLossParams(margin=0.05)
    assert asym_loss(0, 0.0, params) == 0.0
    assert asym_loss(0, 0.03, params) == 0.0
    assert asym_loss(0, 0.05, params) == 0.0  # q = 0 exactly: 0^g * log1 = 0
    assert asym_loss(0, 0.0500001, params) > 0.0


def test_loss_nonnegative_and_zero_at_confident_correct():
    assert asym_loss(1, 1.0) == pytest.approx(0.0, abs=1e-6)
    assert asym_loss(0, 0.0) == 0.0
    for y in (0, 1):
        for p in np.linspace(0.0, 1.0, 23):
            assert asym_loss(y, float(p)) >= 0.0


# -- reductions to known losses --------------------------------------------

def test_reduces_to_bce():
    params = AsymLossParams(gamma_pos=0.0, gamma_neg=0.0, margin=0.0)
    for y in (0, 1):
        for p in (0.001, 0.2, 0.5, 0.77, 0.999):
            assert asym_loss(y, p, params) == pytest.approx(bce(y, p), rel=1e-12, abs=1e-300)


def test_reduces_to_focal():
    for gamma in (0.5, 1.0, 2.0, 3.7):
        params = AsymLossParams(gamma_pos=gamma, gamma_neg=gamma, margin=0.0)
        for y in (0, 1):
            for p in (0.01, 0.3, 0.5, 0.9, 0.99):
                assert asym_loss(y, p, params) == pytest.approx(
                    focal(y, p, gamma), rel=1e-12, abs=1e-300)


def test_zero_power_convention():
    # g- = 0 with p <= m: q = 0 and 0^0 is taken as 1, so L = -log(1-0) = 0
    params = AsymLossParams(gamma_pos=0.0, gamma_neg=0.0, margin=0.1)
    assert asym_loss(0, 0.05, params) == 0.0


# -- monotonicity -----------------------------------------------------------

def test_monotone_decreasing_in_p_for_positives():
    ps = np.linspace(0.01, 0.99, 50)
    vals = [asym_loss(1, float(p)) for p in ps]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_monotone_increasing_in_p_for_negatives_above_margin():
    ps = np.linspace(0.06, 0.99, 50)
    vals = [asym_loss(0, float(p)) for p in ps]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
@settings(max_examples=100, deadline=None)
def test_asymmetry_suppresses_negatives_near_margin(p1, p2):
    # with defaults the negative branch is never larger than plain BCE
    params = AsymLossParams()
    assert asym_loss(0, p1, params) <= bce(0, p1) + 1e-12
    del p2


# -- gradient ---------------------------------------------------------------

def test_grad_hand_values():
    # y=1, g+=0: d/dp[-log p] = -1/p
    params = AsymLossParams(gamma_pos=0.0, gamma_neg=0.0, margin=0.0)
    assert asym_loss_grad(1, 0.25, params) == -4.0
    # y=0, g-=0, m=0: d/dp[-log(1-p)] = 1/(1-p)
    assert asym_loss_grad(0, 0.75, params) == 4.0
    # at the clamp bounds, down to the smallest eps that keeps 1 - eps below 1
    for eps in (1e-7, 2.0 ** -53):
        params = AsymLossParams(gamma_pos=0.0, gamma_neg=0.0, margin=0.0, eps=eps)
        assert asym_loss_grad(1, 0.0, params) == -1.0 / eps
        assert asym_loss_grad(1, 1.0, params) == -1.0 / (1.0 - eps)
        assert asym_loss_grad(0, 0.0, params) == 1.0 / (1.0 - eps)
        assert asym_loss_grad(0, 1.0, params) == 1.0 / (1.0 - (1.0 - eps))


def test_grad_zero_below_margin():
    params = AsymLossParams(margin=0.2)
    assert asym_loss_grad(0, 0.1, params) == 0.0
    assert asym_loss_grad(0, 0.2, params) == 0.0


def test_grad_check_suite():
    ok, worst = grad_check(n=1000, seed=0)
    assert ok, f"worst relative gradient error {worst}"
    assert worst < 1e-5


def test_grad_check_different_seed():
    ok, worst = grad_check(n=300, seed=123)
    assert ok and worst < 1e-5


def test_grad_matches_fd_at_specific_points():
    h = 1e-7
    for y, p, params in [
        (1, 0.3, AsymLossParams()),
        (0, 0.7, AsymLossParams()),
        (1, 0.9, AsymLossParams(gamma_pos=2.5, gamma_neg=1.0, margin=0.0)),
        (0, 0.2, AsymLossParams(gamma_pos=1.0, gamma_neg=3.0, margin=0.1)),
    ]:
        fd = (asym_loss(y, p + h, params) - asym_loss(y, p - h, params)) / (2 * h)
        assert asym_loss_grad(y, p, params) == pytest.approx(fd, rel=1e-5, abs=1e-7)


# -- volume reduction -------------------------------------------------------

def _maps(shape, rng):
    """Three classes: a random label map and one random probability volume each."""
    gt = LabelMap(data=rng.integers(0, 3, size=shape).astype(np.uint8), spacing=(1, 1, 1))
    return [rng.random(shape, dtype=np.float32) for _ in range(3)], gt


def test_volume_loss_equals_mean_of_scalar_kernel_exactly(rng):
    shape = (5, 4, 3)
    probs, gt = _maps(shape, rng)
    params = AsymLossParams()
    got = volume_loss(probs, gt, params)

    total = 0.0
    count = 0
    for code, pr in enumerate(probs):
        vals = np.empty(shape, dtype=np.float64)
        for idx in np.ndindex(shape):
            y = 1 if gt.data[idx] == code else 0
            vals[idx] = asym_loss(y, float(pr[idx]), params)
        total += float(np.sum(vals))
        count += vals.size
    # same kernel, same fixed-order reduction: agreement is exact
    assert got == total / count


def test_volume_loss_accepts_volume_objects(rng):
    probs, gt = _maps((4, 4, 2), rng)
    as_volumes = [Volume(data=p, spacing=(1, 1, 1)) for p in probs]
    assert volume_loss(as_volumes, gt) == volume_loss(probs, gt)


def test_volume_loss_permutation_invariant(rng):
    """Mean over voxels cannot depend on voxel order."""
    probs, gt = _maps((6, 5, 4), rng)
    base = volume_loss(probs, gt)
    perm = np.arange(gt.data.size)
    np.random.default_rng(3).shuffle(perm)
    shuf_gt = LabelMap(data=gt.data.ravel()[perm].reshape(gt.shape),
                       spacing=gt.spacing)
    shuf_probs = [p.ravel()[perm].reshape(p.shape) for p in probs]
    assert volume_loss(shuf_probs, shuf_gt) == pytest.approx(base, rel=1e-12)


def test_volume_loss_custom_codes(rng):
    shape = (4, 3, 2)
    arr = rng.integers(0, 2, size=shape).astype(np.uint8) * 5  # codes {0, 5}
    gt = LabelMap(data=arr, spacing=(1, 1, 1))
    probs = [rng.random(shape, dtype=np.float32) for _ in range(2)]
    got = volume_loss(probs, gt, class_codes=[0, 5])
    relabeled = LabelMap(data=(arr // 5).astype(np.uint8), spacing=(1, 1, 1))
    assert got == volume_loss(probs, relabeled)


def test_volume_loss_perfect_prediction_near_zero(rng):
    shape = (6, 6, 4)
    gt = LabelMap(data=rng.integers(0, 2, size=shape).astype(np.uint8),
                  spacing=(1, 1, 1))
    fg = (gt.data == 1).astype(np.float32)
    assert volume_loss([1.0 - fg, fg], gt) < 1e-5


def test_volume_loss_validation(rng):
    probs, gt = _maps((3, 3, 3), rng)
    with pytest.raises(ValueError, match="at least one"):
        volume_loss([], gt)
    with pytest.raises(ValueError, match="class codes"):
        volume_loss(probs, gt, class_codes=[0, 1])
    with pytest.raises(ValueError, match="shape"):
        volume_loss([p[:2] for p in probs], gt)
    bad = [p.copy() for p in probs]
    bad[0][0, 0, 0] = 1.5
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        volume_loss(bad, gt)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        volume_loss([np.full(gt.shape, np.nan)], gt, class_codes=[0])
    with pytest.raises(ValueError, match="codes"):
        volume_loss(probs[:2], gt)  # gt contains code 2 with only codes 0,1
    with pytest.raises(ValueError, match=r"codes \[0\] not covered"):
        volume_loss(probs[1:], gt, class_codes=[1, 2])  # 0 is a code like any other
    # a code no label map can hold would score as an empty class
    for bad in (300, -1, 1.5, True):
        with pytest.raises(ValueError, match=rf"^class_codes\[2\] must be an int >= 0 and "
                                             rf"<= 255, got {bad!r}$"):
            volume_loss(probs, gt, class_codes=[0, 1, bad])
    with pytest.raises(ValueError, match=r"^class_codes\[2\] repeats class code 1$"):
        volume_loss(probs, gt, class_codes=[0, 1, 1])
