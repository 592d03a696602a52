"""Asymmetric focal-style binary loss with a probability margin.

    L(y, p) = -y (1-p)^g+ log p - (1-y) (p_m)^g- log(1 - p_m),
    p_m = max(p - m, 0)

with 0^0 defined as 1, so the negative term vanishes identically for
p <= m.  Probabilities are clamped to [eps, 1-eps] before evaluation;
oracles must clamp the same way.  Setting g+ = g- = 0 and m = 0 recovers
binary cross-entropy; g+ = g- = g and m = 0 recovers the symmetric focal
loss.

The scalar kernel and the volume reduction share one elementwise
implementation, so the reduction equals the mean of scalar kernel values
bit for bit.  The analytic gradient is validated against central finite
differences away from the p = m kink.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import LabelMap, Volume, _check_number, _codes_present

__all__ = [
    "AsymLossParams",
    "asym_loss",
    "asym_loss_grad",
    "volume_loss",
    "grad_check",
]


@dataclass(frozen=True)
class AsymLossParams:
    gamma_pos: float = 1.0
    gamma_neg: float = 4.0
    margin: float = 0.05
    eps: float = 1e-7

    def __post_init__(self):
        for name in ("gamma_pos", "gamma_neg"):
            _check_number(getattr(self, name), f"focusing exponents: {name}", ge=0)
        _check_number(self.margin, "margin", ge=0, lt=1)
        # 1 - eps must round below 1, or the clamp lets p reach the gradient's pole
        _check_number(self.eps, "eps", gt=2.0 ** -54)


def _kernel(y, p, params: AsymLossParams):
    """Elementwise loss; y is 0/1, p any float array.  Shared by the scalar
    and volume paths so they agree exactly."""
    p = np.clip(np.asarray(p, dtype=np.float64), params.eps, 1.0 - params.eps)
    y = np.asarray(y, dtype=np.float64)
    pos = -np.power(1.0 - p, params.gamma_pos) * np.log(p)
    q = np.maximum(p - params.margin, 0.0)
    neg = -np.power(q, params.gamma_neg) * np.log1p(-q)
    return y * pos + (1.0 - y) * neg


def asym_loss(y: int, p: float, params: AsymLossParams | None = None) -> float:
    params = params or AsymLossParams()
    return float(_kernel(_check_number(y, "label", integer=True, ge=0, le=1), p, params))


def asym_loss_grad(y: int, p: float, params: AsymLossParams | None = None) -> float:
    """dL/dp, piecewise.  At p <= m with y=0 the loss is constant 0, so the
    gradient there is 0; p = m itself is a kink and we return the flat-side
    value."""
    params = params or AsymLossParams()
    yi = _check_number(y, "label", integer=True, ge=0, le=1)
    p = float(np.clip(p, params.eps, 1.0 - params.eps))
    if yi == 1:
        gp = params.gamma_pos
        return float(gp * (1.0 - p) ** (gp - 1.0) * np.log(p) - (1.0 - p) ** gp / p)
    q = p - params.margin
    if q <= 0:
        return 0.0
    gn = params.gamma_neg
    return float(-gn * q ** (gn - 1.0) * np.log1p(-q) + q ** gn / (1.0 - q))


def volume_loss(probs: Sequence[Volume | np.ndarray], gt: LabelMap,
                params: AsymLossParams | None = None,
                class_codes: Sequence[int] | None = None) -> float:
    """One-vs-rest mean of the kernel over every (class, voxel) pair.

    ``probs[i]`` is the predicted probability field for ``class_codes[i]``
    (default codes 0..n-1); the codes are distinct label codes, ints in
    0..255.  Ground-truth codes outside the provided set are rejected.
    Summation is a single fixed-order float64 reduction, so the result is
    independent of threading.
    """
    params = params or AsymLossParams()
    if len(probs) == 0:
        raise ValueError("need at least one probability volume")
    codes = list(class_codes) if class_codes is not None else list(range(len(probs)))
    if len(codes) != len(probs):
        raise ValueError(f"{len(probs)} probability volumes but {len(codes)} class codes")
    for i, code in enumerate(codes):
        _check_number(code, f"class_codes[{i}]", integer=True, ge=0, le=255)
        if code in codes[:i]:  # two predictions of one class contradict each other
            raise ValueError(f"class_codes[{i}] repeats class code {code}")
    arrs = []
    for pr in probs:
        arr = pr.data if isinstance(pr, Volume) else np.asarray(pr)
        if arr.shape != gt.shape:
            raise ValueError(f"probability shape {arr.shape} does not match gt {gt.shape}")
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails both
            raise ValueError("probabilities must lie in [0, 1]")
        arrs.append(arr)
    unknown = [c for c in _codes_present(gt.data) if c not in codes]
    if unknown:
        raise ValueError(f"ground truth contains codes {unknown} not covered by class_codes")

    total = 0.0
    count = 0
    for code, arr in zip(codes, arrs):
        vals = _kernel(gt.data == code, arr, params)
        total += float(np.sum(vals))
        count += vals.size
    return total / count


def grad_check(n: int = 1000, seed: int = 0, h: float = 1e-6,
               tol: float = 1e-5) -> tuple[bool, float]:
    """Compare the analytic gradient with central finite differences on
    random (y, p, params) samples kept |p - m| > 1e-3 away from the kink.

    Error metric per sample: |analytic - fd| / max(1, |fd|).  Returns
    (all samples within tol, worst error).
    """
    _check_number(n, "n", integer=True, ge=1)
    _check_number(h, "step h", gt=0)
    _check_number(tol, "tol", gt=0)
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for _ in range(n):
        y = int(rng.integers(0, 2))
        gp = float(rng.uniform(0.0, 5.0))
        gn = float(rng.uniform(0.0, 5.0))
        if rng.random() < 0.25:
            gp = float(rng.choice([0.0, 1.0, 2.0, 4.0]))
        if rng.random() < 0.25:
            gn = float(rng.choice([0.0, 1.0, 2.0, 4.0]))
        m = float(rng.uniform(0.0, 0.3))
        while True:
            p = float(rng.uniform(2e-3, 1.0 - 2e-3))
            if abs(p - m) > 1.5e-3:
                break
        params = AsymLossParams(gamma_pos=gp, gamma_neg=gn, margin=m)
        fd = (asym_loss(y, p + h, params) - asym_loss(y, p - h, params)) / (2.0 * h)
        an = asym_loss_grad(y, p, params)
        err = abs(an - fd) / max(1.0, abs(fd))
        worst = max(worst, err)
        if err >= tol:
            ok = False
    return ok, worst
