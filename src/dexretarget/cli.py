"""Command-line front end: calibrate, retarget, metrics, syncsim.

Every run writes its outputs plus a manifest.json capturing the
subcommand, inputs, and options; re-running with the same manifest inputs
reproduces the outputs byte for byte.  Set DEXRETARGET_LOG to a logging
level name (DEBUG, INFO, ...) to see progress detail.

Exit codes: 0 success, 1 partial per-frame failures, 2 input or
configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .fileio import (FileFormatError, read_keypoint_trajectory, read_poses,
                     read_calibration, read_static_keypoints, read_stream_config,
                     write_calibration, write_event_log, write_frames,
                     write_joint_trajectory, write_manifest, write_report)
from .hand_model import ModelError, load_hand_model_file
from .metrics import (DEFAULT_SAMPLES, DEFAULT_VOXEL_MM, VoxelRangeError,
                      manipulability_volume, opposability_volumes)
from .retarget import (DEFAULT_LAMBDAS, DEFAULT_MAX_ITERATIONS, DEFAULT_SIGMOID_C,
                       DEFAULT_SIGMOID_K, DEFAULT_TOLERANCE, CalibrationError,
                       RetargetConfigError, calibrate, retarget_stream)
from .syncsim import SyncConfigError, alignment_report, assemble_frames, simulate

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_ERROR = 2

_INPUT_ERRORS = (ModelError, CalibrationError, RetargetConfigError, SyncConfigError,
                 FileFormatError, OSError, argparse.ArgumentTypeError)

log = logging.getLogger("dexretarget")


def _configure_logging():
    level_name = os.environ.get("DEXRETARGET_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(name)s %(levelname)s: %(message)s")


def _checked(parse, check, wants):
    """argparse type: the value ``parse`` makes of the text, if ``check`` of it holds."""
    def convert(text):
        try:
            value = parse(text)
            if check(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {wants}, got {text!r}")
    return convert


def _floats(text):
    return np.array([float(x) for x in text.split(",")])


_SEED = _checked(int, lambda n: n >= 0, "an integer >= 0")
_COUNT = _checked(int, lambda n: n >= 1, "an integer >= 1")
_FINITE = _checked(float, np.isfinite, "a finite number")
_WEIGHT = _checked(float, lambda v: 0.0 <= v < np.inf, "a finite number >= 0")
_POSITIVE = _checked(float, lambda v: 0.0 < v < np.inf, "a finite number > 0")
# flags naming input files; manifest.json lists them apart from the options
_INPUT_FLAGS = ("model", "keypoints", "calibration", "input", "poses", "config")


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out, args, outputs):
    """Record every parsed flag of the run: input files under ``inputs``,
    the rest under ``options``."""
    options = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    inputs = {k: options.pop(k) for k in _INPUT_FLAGS if k in options}
    write_manifest(out / "manifest.json", {
        "tool": "dexretarget",
        "version": __version__,
        "subcommand": args.command,
        "inputs": inputs,
        "options": options,
        "outputs": sorted(outputs),
    })


def cmd_calibrate(args):
    model = load_hand_model_file(args.model)
    w_star = read_static_keypoints(args.keypoints)
    q0 = model.rest_pose if args.rest_pose is None else _floats(args.rest_pose)
    cal = calibrate(model, q0, w_star)
    out = _out_dir(args)
    write_calibration(out / "calibration.yaml", cal)
    _write_manifest(out, args, ["calibration.yaml"])
    ratios = np.concatenate(cal.r)
    print(f"calibrated {model.name}: {ratios.size} segment ratios in "
          f"[{ratios.min():.4f}, {ratios.max():.4f}], "
          f"{len(cal.coupling_fingers)} coupled fingers")
    return EXIT_OK


def cmd_retarget(args):
    model = load_hand_model_file(args.model)
    cal = read_calibration(args.calibration)
    frames = read_keypoint_trajectory(args.input)
    lambdas = (args.lambda1, args.lambda2, args.lambda3)
    common = dict(lambdas=lambdas, sigmoid_k=args.k, sigmoid_c=args.c,
                  tolerance=args.tolerance, max_iterations=args.max_iterations)
    steps = retarget_stream(model, cal, frames, **common)
    out = _out_dir(args)
    write_joint_trajectory(out / "retargeted.traj", steps, model.total_dof)
    outputs = ["retargeted.traj"]

    mean_align = float(np.mean([s.residuals[0] for s in steps]))
    print(f"retargeted {len(steps)} frames, mean alignment residual {mean_align:.6g} m^2")
    if args.baseline is not None:
        base = retarget_stream(model, cal, frames, scaling_alpha=args.baseline, **common)
        write_joint_trajectory(out / "baseline.traj", base, model.total_dof)
        base_align = float(np.mean([s.residuals[0] for s in base]))
        with open(out / "comparison.txt", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# alignment residual comparison (m^2)\n")
            fh.write(f"conformal_mean_align: {mean_align!r}\n")
            fh.write(f"uniform_scaling_alpha: {args.baseline!r}\n")
            fh.write(f"uniform_scaling_mean_align: {base_align!r}\n")
        outputs += ["baseline.traj", "comparison.txt"]
        print(f"uniform-scaling baseline (alpha={args.baseline}) residual {base_align:.6g} m^2")

    failures = sum(1 for s in steps if s.rejected or s.solver_failed)
    _write_manifest(out, args, outputs)
    if failures == len(steps):
        log.error("every frame failed (%d/%d)", failures, len(steps))
        return EXIT_ERROR
    if failures:
        log.warning("%d/%d frames failed and hold the previous output", failures, len(steps))
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_metrics(args):
    model = load_hand_model_file(args.model)
    out = _out_dir(args)
    lines = []
    if args.metric in ("manipulability", "all"):
        poses = read_poses(args.poses, model.total_dof)
        lines.append("# manipulability ellipsoid volume (linear mm^3, angular rad^3)")
        lines.append("finger pose linear angular")
        for i, f in enumerate(model.fingers):
            tip = (i, f.tip_index)
            for name, q in poses:
                lin = manipulability_volume(model, q, tip, kind="linear")
                ang = manipulability_volume(model, q, tip, kind="angular")
                lines.append(f"{f.name} {name} {lin!r} {ang!r}")
    if args.metric in ("opposability", "all"):
        lines.append(f"# finger-to-thumb opposability volume (mm^3), "
                     f"samples={args.samples} voxel_mm={args.voxel_mm!r} seed={args.seed}")
        lines.append("finger volume")
        thumb, *tips = [(i, f.tip_index) for i, f in enumerate(model.fingers)]
        if not tips:
            lines.append("# model has a single chain; nothing to oppose")
        else:
            try:
                volumes = opposability_volumes(model, thumb, tips, samples=args.samples,
                                               voxel_mm=args.voxel_mm, seed=args.seed)
            except VoxelRangeError as e:
                raise argparse.ArgumentTypeError(f"--voxel-mm {args.voxel_mm!r} is too small: {e}")
            lines += [f"{model.fingers[i].name} {vol!r}" for (i, _), vol in zip(tips, volumes)]
    with open(out / "metrics.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_manifest(out, args, ["metrics.txt"])
    print("\n".join(lines))
    return EXIT_OK


def cmd_syncsim(args):
    config, duration = read_stream_config(args.config)
    if args.duration is not None:
        duration = args.duration
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    log.info("simulating %s-sync for %.3f s at %.1f Hz", config.mode, duration, config.rate_hz)
    events = simulate(config, duration)
    frames = assemble_frames(events)
    report = alignment_report(frames)
    out = _out_dir(args)
    extra = {"mode": config.mode, "rate_hz": config.rate_hz, "seed": config.seed,
             "events": len(events), "event_dropout_rate": events.dropout_rate()}
    if config.mode == "hard":
        bound = max(s.latency_bound for s in config.streams)
        extra["latency_bound_ms"] = bound * 1e3
        extra["within_latency_bound"] = bool(report.max_skew_ms <= bound * 1e3)
    write_event_log(out / "events.txt", events)
    write_frames(out / "frames.txt", frames)
    write_report(out / "report.txt", report, extra=extra)
    _write_manifest(out, args, ["events.txt", "frames.txt", "report.txt"])
    print(f"{config.mode}-sync: {report.frames} frames, mean skew {report.mean_skew_ms:.3f} ms, "
          f"max skew {report.max_skew_ms:.3f} ms, dropout {report.dropout_rate:.4f}, "
          f"effective {report.effective_hz:.2f} Hz")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dexretarget",
        description="Hand motion retargeting, hand metrics, and sync simulation tools.")
    parser.add_argument("--version", action="version", version=f"dexretarget {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit per-segment scale ratios from a static capture")
    p.add_argument("--model", required=True, help="hand model document")
    p.add_argument("--keypoints", required=True, help="extended-pose keypoint capture")
    p.add_argument("--rest-pose", default=None, help="comma-separated robot reference pose",
                   type=_checked(str, lambda t: np.isfinite(_floats(t)).all(),
                                 "comma-separated finite numbers"))
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("retarget", help="retarget a keypoint trajectory to joint angles")
    p.add_argument("--model", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--input", required=True, help="keypoint trajectory file")
    p.add_argument("--lambda1", type=_WEIGHT, default=DEFAULT_LAMBDAS[0])
    p.add_argument("--lambda2", type=_WEIGHT, default=DEFAULT_LAMBDAS[1])
    p.add_argument("--lambda3", type=_WEIGHT, default=DEFAULT_LAMBDAS[2])
    p.add_argument("--k", type=_FINITE, default=DEFAULT_SIGMOID_K, help="coupling gate steepness")
    p.add_argument("--c", type=_FINITE, default=DEFAULT_SIGMOID_C, help="coupling gate midpoint")
    p.add_argument("--baseline", type=_POSITIVE, default=None, metavar="ALPHA",
                   help="also retarget with uniform scaling by ALPHA and compare")
    p.add_argument("--tolerance", type=_POSITIVE, default=DEFAULT_TOLERANCE, help=(
        "a frame converges once a step lowers the objective by at most TOLERANCE times "
        "its value or moves no joint by over 1e-13 rad, the gradient projected onto "
        "the joint box is zero, or no damped step lowers the objective"))
    p.add_argument("--max-iterations", type=_COUNT, default=DEFAULT_MAX_ITERATIONS,
                   help="per-frame budget; a frame that uses it up is written converged 0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_retarget)

    p = sub.add_parser("metrics", help="dexterity metrics for a hand model")
    p.add_argument("--model", required=True)
    p.add_argument("--poses", default=None, help="poses file (required for manipulability)")
    p.add_argument("--metric", choices=["manipulability", "opposability", "all"],
                   default="all")
    p.add_argument("--samples", type=_COUNT, default=DEFAULT_SAMPLES)
    p.add_argument("--voxel-mm", type=_POSITIVE, default=DEFAULT_VOXEL_MM)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("syncsim", help="simulate multi-sensor acquisition timing")
    p.add_argument("--config", required=True, help="stream config YAML")
    p.add_argument("--duration", type=_POSITIVE, default=None, help="override config duration (s)")
    p.add_argument("--seed", type=_SEED, default=None, help="override config seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_syncsim)
    return parser


def main(argv=None):
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    if getattr(args, "metric", None) in ("manipulability", "all") and \
            getattr(args, "poses", "x") is None:
        print("metrics: --poses is required for manipulability", file=sys.stderr)
        return EXIT_ERROR
    try:
        return args.func(args)
    except _INPUT_ERRORS as e:
        print(f"dexretarget {args.command}: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
