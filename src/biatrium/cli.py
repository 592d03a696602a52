"""Command-line interface.

One subcommand per pipeline building block plus `run` for the batch
driver.  All file arguments are NIfTI (.nii or .nii.gz); placements travel
as JSON sidecars so crop and stitch can be driven from separate
invocations.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .core import (DEFAULT_CLASS_MAP, BiatriumError, ConfigError, _as_json, _read_config,
                   _write_json, check_class_map)
from .geometry import (
    DEFAULT_DOWNSAMPLE_FACTORS,
    DEFAULT_FINE_WINDOW,
    DEFAULT_STANDARD_SHAPE,
    bbox_from_mask,
    crop_window,
    downsample_mean,
    standardize,
    stitch,
)
from .loss import AsymLossParams, grad_check, volume_loss
from .mclahe import MclaheParams, _mclahe_consume
from .metrics import _report_row, evaluate_case, format_float, write_report_csv
from .nifti import (
    read_labelmap,
    read_nifti,
    read_placement,
    read_volume,
    write_nifti,
    write_placement,
    write_volume,
)
from .phantom import PhantomSpec, generate
from .pipeline import load_config, run_pipeline

__all__ = ["main"]


def _triple(parser_value: str) -> tuple[int, int, int]:
    parts = parser_value.replace(",", " ").split()
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 3 integers, got {parser_value!r}")
    return tuple(int(p) for p in parts)


def _class_map(text: str) -> dict:
    try:
        cm = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise argparse.ArgumentTypeError(f"class map is not valid JSON: {e}")
    try:
        return check_class_map(cm)
    except ConfigError as e:
        raise argparse.ArgumentTypeError(str(e))


def _cmd_enhance(args) -> int:
    params = MclaheParams(kernel_size=args.kernel_size, n_bins=args.n_bins,
                          clip_limit=args.clip_limit)
    # the volume just read is this command's own, so it is enhanced in place
    write_volume(_mclahe_consume(read_volume(args.input), params), args.output)
    return 0


def _cmd_standardize(args) -> int:
    vol = read_volume(args.input)
    out, place = standardize(vol, args.target, pad_value=args.fill)
    write_volume(out, args.output)
    if args.placement:
        write_placement(place, args.placement)
    return 0


def _cmd_downsample(args) -> int:
    vol = read_volume(args.input)
    write_volume(downsample_mean(vol, args.factors), args.output)
    return 0


def _cmd_bbox(args) -> int:
    codes = set((DEFAULT_CLASS_MAP if args.class_map is None else args.class_map).values())
    if bad := [c for c in args.classes or () if c not in codes]:
        raise ConfigError(f"--classes {bad} not in declared class codes {sorted(codes)}")
    mask = read_labelmap(args.mask, classes=args.class_map)
    classes = set(args.classes) if args.classes else None
    box = bbox_from_mask(mask, positive_classes=classes)
    print(json.dumps(_as_json(box)))
    return 0


def _cmd_crop_roi(args) -> int:
    vol = read_volume(args.input)
    out, place = crop_window(vol, args.center, args.window, pad_value=args.fill)
    write_volume(out, args.output)
    if args.placement:
        write_placement(place, args.placement)
    return 0


def _cmd_stitch(args) -> int:
    arr, spacing, _ = read_nifti(args.child)
    place = read_placement(args.placement)
    write_nifti(args.output, stitch(arr, place), spacing)
    return 0


def _cmd_evaluate(args) -> int:
    pred = read_labelmap(args.pred, classes=args.class_map)
    gt = read_labelmap(args.gt, classes=args.class_map)
    point_mode = "region" if args.full_region else "surface"
    rows = evaluate_case(pred, gt, classes=args.class_map, case_id=args.case_id,
                         point_mode=point_mode)
    if args.csv:
        write_report_csv(rows, args.csv, percent=args.percent)
    else:  # the report's rows, without its header
        csv.writer(sys.stdout, lineterminator="\n").writerows(
            _report_row(r, args.percent) for r in rows)
    return 0


def _cmd_loss(args) -> int:
    if args.loss_cmd == "grad-check":
        ok, worst = grad_check(n=args.n, seed=args.seed, h=args.step, tol=args.tol)
        print(f"{'PASS' if ok else 'FAIL'} worst relative error {worst:.3e} "
              f"over {args.n} samples (tolerance {args.tol:g})")
        return 0 if ok else 1
    if not args.probs or not args.gt:
        print("error: loss needs --probs and --gt (or the grad-check subcommand)",
              file=sys.stderr)
        return 2
    params = AsymLossParams(gamma_pos=args.gamma_pos, gamma_neg=args.gamma_neg,
                            margin=args.margin)
    probs = [read_volume(p) for p in args.probs]
    codes = args.class_codes or list(range(len(probs)))
    gt = read_labelmap(args.gt, classes={str(c): c for c in codes})
    print(format_float(volume_loss(probs, gt, params, class_codes=codes)))
    return 0


def _cmd_phantom(args) -> int:
    spec = _read_config(PhantomSpec, args.spec) if args.spec else PhantomSpec()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vol, gt = generate(spec)
    write_volume(vol, out / "image.nii.gz")
    write_volume(gt, out / "gt.nii.gz")
    _write_json(_as_json(spec), out / "phantom_spec.json")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    result = run_pipeline(cfg, workers=args.workers)
    for case in result.cases:
        note = f" ({case.error})" if case.error else ""
        flags = f" [{','.join(case.flags)}]" if case.flags else ""
        print(f"{case.case_id}: {case.status}{flags}{note}")
    print(f"summary: {result.summary_csv}")
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="biatrium",
                                 description="Bi-atrial segmentation pipeline toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("enhance", help="contrast-limited adaptive histogram equalization")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--kernel-size", type=_triple, default=None,
                   help="tile size per axis, e.g. '72,72,6' (default: dim//8)")
    p.add_argument("--n-bins", type=int, default=MclaheParams.n_bins)
    p.add_argument("--clip-limit", type=float, default=MclaheParams.clip_limit)
    p.set_defaults(func=_cmd_enhance)

    p = sub.add_parser("standardize", help="center pad/crop to a fixed grid")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--target", type=_triple, default=DEFAULT_STANDARD_SHAPE)
    p.add_argument("--fill", type=float, default=0.0)
    p.add_argument("--placement", help="write the grid mapping to this JSON file")
    p.set_defaults(func=_cmd_standardize)

    p = sub.add_parser("downsample", help="block-mean downsample")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--factors", type=_triple, default=DEFAULT_DOWNSAMPLE_FACTORS)
    p.set_defaults(func=_cmd_downsample)

    p = sub.add_parser("bbox", help="tight bounding box of mask foreground")
    p.add_argument("mask")
    p.add_argument("--classes", type=int, nargs="+",
                   help="class codes counting as foreground (default: any nonzero)")
    p.add_argument("--class-map", type=_class_map, default=None)
    p.set_defaults(func=_cmd_bbox)

    p = sub.add_parser("crop-roi", help="fixed-size window crop around a center")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--center", type=_triple, required=True)
    p.add_argument("--window", type=_triple, default=DEFAULT_FINE_WINDOW)
    p.add_argument("--fill", type=float, default=0.0)
    p.add_argument("--placement", help="write the grid mapping to this JSON file")
    p.set_defaults(func=_cmd_crop_roi)

    p = sub.add_parser("stitch", help="paste a window back onto its parent grid")
    p.add_argument("child")
    p.add_argument("output")
    p.add_argument("--placement", required=True)
    p.set_defaults(func=_cmd_stitch)

    p = sub.add_parser("evaluate", help="per-class Dice and HD95 against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--csv", help="write report here instead of stdout")
    p.add_argument("--percent", action="store_true", help="report Dice as percent")
    p.add_argument("--full-region", action="store_true",
                   help="use all region voxels instead of surface voxels for HD95")
    p.add_argument("--case-id", default="case")
    p.add_argument("--class-map", type=_class_map, default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("loss", help="asymmetric loss over probability volumes")
    loss_sub = p.add_subparsers(dest="loss_cmd")
    p.add_argument("--probs", nargs="+", help="per-class probability volumes, code order")
    p.add_argument("--gt")
    p.add_argument("--gamma-pos", type=float, default=AsymLossParams.gamma_pos)
    p.add_argument("--gamma-neg", type=float, default=AsymLossParams.gamma_neg)
    p.add_argument("--margin", type=float, default=AsymLossParams.margin)
    p.add_argument("--class-codes", type=int, nargs="+",
                   help="class code of each probability volume (default: 0..n-1)")
    p.set_defaults(func=_cmd_loss)
    g = loss_sub.add_parser("grad-check", help="finite-difference gradient verification")
    g.add_argument("--n", type=int, default=1000)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--step", type=float, default=1e-6)
    g.add_argument("--tol", type=float, default=1e-5)
    g.set_defaults(func=_cmd_loss)

    p = sub.add_parser("phantom", help="generate a synthetic two-chamber test volume")
    p.add_argument("--spec", help="JSON phantom description (default: builtin)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_phantom)

    p = sub.add_parser("run", help="run the full pipeline from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_run)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BiatriumError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
