"""Workload definitions: phantom inputs and pipeline configs made from a seed.

Each workload isolates a different set of layers (see ``WHY``).  Inputs are
generated by ``biatrium.phantom.generate`` and written with
``biatrium.nifti.write_volume``; the pipeline later sees only those files.
Per-case phantom seeds derive from the workload seed, so the same seed gives
byte-identical inputs.
"""
from __future__ import annotations

import shlex
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from biatrium.nifti import write_volume
from biatrium.phantom import Ellipsoid, PhantomSpec, generate

BENCH_DIR = Path(__file__).resolve().parent
FINE_BACKEND_SCRIPT = BENCH_DIR / "fine_split.py"

PAPER_SHAPE = (576, 576, 48)
PAPER_SPACING = (0.625, 0.625, 2.5)

WHY = {
    "paper_builtin": "paper-scale gzip case, default MCLAHE and threshold backends: "
                     "MCLAHE, gzip I/O and a one-class evaluation dominate",
    "paper_external": "paper-scale gzip case, no MCLAHE, external-command fine backend: "
                      "backend round trip and three-class evaluation dominate",
    "batch_small": "24 small plain-.nii cases padded to 576x576x48 on 2 workers: "
                   "geometry, label maps, mask writes and pool scheduling dominate",
}
NAMES = tuple(WHY)


@dataclass(frozen=True)
class Case:
    case_id: str
    spec: PhantomSpec
    image: str
    gt: str | None


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    config: dict
    workers: int
    #: On the external workload the fine backend must reproduce the ground
    #: truth exactly: Dice 1.0 and HD95 0.0 for every class.
    exact: bool


def _paper_spec(seed: int) -> PhantomSpec:
    # The default phantom's two chambers scaled 1.8x in-plane about the grid
    # centre: the foreground spans 215x127x15 voxels, most of the default
    # 256x256x48 fine window, so the window still holds all of it and an
    # exact fine backend can reproduce the ground truth.
    return PhantomSpec(
        shape=PAPER_SHAPE, spacing=PAPER_SPACING,
        la=Ellipsoid(center_mm=(147.6, 180.0, 60.0), radii_mm=(32.4, 36.0, 16.0)),
        ra=Ellipsoid(center_mm=(212.4, 180.0, 60.0), radii_mm=(28.8, 32.4, 15.0)),
        noise_amplitude=0.05, seed=seed)


def _small_spec(seed: int) -> PhantomSpec:
    return PhantomSpec(noise_amplitude=0.05, seed=seed)


def _tiny_spec(seed: int) -> PhantomSpec:
    return PhantomSpec(
        shape=(64, 64, 16), spacing=PAPER_SPACING,
        la=Ellipsoid(center_mm=(13.0, 20.0, 20.0), radii_mm=(6.0, 7.0, 8.0)),
        ra=Ellipsoid(center_mm=(27.0, 20.0, 20.0), radii_mm=(6.0, 7.0, 8.0)),
        wall_thickness_mm=2.0, noise_amplitude=0.05, seed=seed)


def _case_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=n)]


def fine_backend_command() -> str:
    """The component-split fine backend, run by the interpreter that runs the
    benchmark; it imports biatrium through the inherited PYTHONPATH."""
    return (f"{shlex.quote(sys.executable)} {shlex.quote(str(FINE_BACKEND_SCRIPT))} "
            "{input} {output}")


def make_workload(name: str, seed: int, input_dir: Path, output_dir: Path,
                  tiny: bool = False) -> Workload:
    """Describe a workload; ``tiny`` shrinks every grid to 64x64x16 for the
    smoke test while keeping each workload's settings."""
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    n_cases = 24 if name == "batch_small" else 1
    if tiny:
        n_cases = min(n_cases, 3)
        spec_for = _tiny_spec
    else:
        spec_for = _small_spec if name == "batch_small" else _paper_spec
    suffix = ".nii" if name == "batch_small" else ".nii.gz"
    with_gt = name != "batch_small"

    cases = []
    for i, case_seed in enumerate(_case_seeds(seed, n_cases)):
        cid = f"c{i:02d}"
        cases.append(Case(
            case_id=cid, spec=spec_for(case_seed),
            image=str(input_dir / f"{cid}_image{suffix}"),
            gt=str(input_dir / f"{cid}_gt.nii.gz") if with_gt else None))

    config = {
        "cases": [{"case_id": c.case_id, "image": c.image,
                   **({"gt": c.gt} if c.gt else {})} for c in cases],
        "output_dir": str(output_dir),
        "coarse_backend": {"kind": "threshold", "threshold": 0.5},
        "fine_backend": {"kind": "threshold", "threshold": 0.5},
    }
    if name != "paper_builtin":
        config["mclahe"] = None
    if name == "paper_external":
        config["coarse_backend"]["threshold"] = 0.3
        config["fine_backend"] = {"kind": "external-command",
                                  "command_template": fine_backend_command()}
    if tiny:
        config["standard_shape"] = [96, 96, 16] if name == "batch_small" else [64, 64, 16]
        config["fine_window"] = [64, 64, 16]
    return Workload(name=name, cases=tuple(cases), config=config,
                    workers=2 if name == "batch_small" else 1,
                    exact=name == "paper_external")


def write_inputs(w: Workload) -> dict:
    """Generate and write every case's inputs once.

    Returns the seconds spent in ``generate`` (per case) and in generating
    plus writing everything, and the facts the output check needs: each
    case's input shape and foreground box in input-grid voxels.
    """
    setup_s = 0.0
    generate_s = []
    facts = {}
    for c in w.cases:
        t0 = time.perf_counter()
        vol, gt = generate(c.spec)
        t1 = time.perf_counter()
        write_volume(vol, c.image)
        if c.gt is not None:
            write_volume(gt, c.gt)
        setup_s += time.perf_counter() - t0
        generate_s.append(t1 - t0)
        nz = np.nonzero(gt.data)
        facts[c.case_id] = {
            "shape": list(gt.shape),
            "fg_lo": [int(a.min()) for a in nz],
            "fg_hi": [int(a.max()) + 1 for a in nz],
        }
    return {"setup_s": setup_s, "generate_s": generate_s, "cases": facts}
