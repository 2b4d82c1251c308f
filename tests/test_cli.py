"""End-to-end command-line runs: exit codes, outputs, determinism."""

import argparse
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from dexretarget import cli
from dexretarget.cli import EXIT_ERROR, EXIT_OK, EXIT_PARTIAL, main
from dexretarget.fileio import (
    read_calibration,
    read_joint_trajectory,
    read_keypoint_trajectory,
    read_manifest,
    write_calibration,
    write_keypoint_trajectory,
)
from dexretarget.kinematics import forward_kinematics
from dexretarget.metrics import VoxelRangeError, opposability_volumes
from dexretarget.retarget import (KeypointFrame, RetargetConfigError, calibrate,
                                  retarget_stream)
from dexretarget.syncsim import StreamConfig, StreamSpec, SyncConfigError, simulate

from conftest import ARC_PAIR, DATA, README_STREAMS, TOY_3DOF, identity_frame

PLANAR = str(DATA / "planar_2dof.yaml")
ROBOT = str(DATA / "rapid_hand_20dof.yaml")


def planar_capture(path, model, qs, scale=1.0, invalid=()):
    """Write a keypoint clip whose landmarks follow the model's own FK."""
    counts = model.keypoint_counts()
    frames = []
    for k, q in enumerate(qs):
        valid = np.ones((len(counts), max(counts)), dtype=bool)
        for (fr, i, j) in invalid:
            if fr == k:
                valid[i, j] = False
        frames.append(KeypointFrame(scale * forward_kinematics(model, q), counts, valid,
                                    timestamp=k / 25.0))
    write_keypoint_trajectory(path, frames)


@pytest.fixture()
def planar_cal(tmp_path, planar):
    """CLI-produced identity calibration for the planar chain."""
    capture = tmp_path / "capture.traj"
    planar_capture(capture, planar, [planar.rest_pose])
    out = tmp_path / "cal"
    assert main(["calibrate", "--model", PLANAR, "--keypoints", str(capture),
                 "--out", str(out)]) == EXIT_OK
    return out / "calibration.yaml"


def test_cli_import_leaves_scipy_out():
    src = str(DATA.parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", "import sys, dexretarget.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_console_script_exits_2_on_a_boolean_leaving_no_out(tmp_path, calibration):
    """The entry point ``dexretarget.cli:main`` in a fresh process, as the
    console script runs it."""
    streams, cal = tmp_path / "streams.yaml", tmp_path / "calibration.yaml"
    streams.write_text(README_STREAMS.replace("duration: 10.0", "duration: yes"))
    write_calibration(cal, calibration)
    doc = yaml.safe_load(cal.read_text())
    doc["d_max"][1] = True
    cal.write_text(yaml.safe_dump(doc))
    src = str(DATA.parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv, needle in [
            (["syncsim", "--config", str(streams)], "duration: expected a number, got True"),
            (["retarget", "--model", ROBOT, "--calibration", str(cal), "--input",
              str(DATA / "gestures" / "pinch.traj")], "d_max: expected a mapping from integers")]:
        out = tmp_path / argv[0]
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from dexretarget.cli import main; sys.exit(main())",
             *argv, "--out", str(out)],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
        assert run.returncode == EXIT_ERROR
        assert needle in run.stderr
        assert not out.exists()


# --- calibrate ------------------------------------------------------------

def test_calibrate_identity_capture(tmp_path, planar, capsys):
    capture = tmp_path / "capture.traj"
    planar_capture(capture, planar, [planar.rest_pose])
    out = tmp_path / "out"
    code = main(["calibrate", "--model", PLANAR, "--keypoints", str(capture),
                 "--out", str(out)])
    assert code == EXIT_OK
    assert "calibrated planar_2dof" in capsys.readouterr().out
    cal = read_calibration(out / "calibration.yaml")
    assert all(np.all(r == 1.0) for r in cal.r)
    assert np.all(cal.u == 0.0)
    manifest = read_manifest(out / "manifest.json")
    assert manifest["tool"] == "dexretarget"
    assert manifest["subcommand"] == "calibrate"
    assert manifest["inputs"]["model"] == PLANAR
    assert manifest["outputs"] == ["calibration.yaml"]


def test_calibrate_half_scale_capture(tmp_path, planar):
    capture = tmp_path / "half.traj"
    planar_capture(capture, planar, [planar.rest_pose], scale=0.5)
    out = tmp_path / "out"
    assert main(["calibrate", "--model", PLANAR, "--keypoints", str(capture),
                 "--out", str(out)]) == EXIT_OK
    cal = read_calibration(out / "calibration.yaml")
    assert all(np.all(r == 2.0) for r in cal.r)


def test_calibrate_zero_segment_fails(tmp_path, planar, capsys):
    capture = tmp_path / "bad.traj"
    fk = forward_kinematics(planar, planar.rest_pose)
    fk[0, 1] = fk[0, 0]  # collapse the first segment
    write_keypoint_trajectory(capture, [KeypointFrame(fk, planar.keypoint_counts())])
    code = main(["calibrate", "--model", PLANAR, "--keypoints", str(capture),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    assert "finger 0 segment 0" in capsys.readouterr().err


def test_calibrate_overflowing_landmark_exits_2(tmp_path, capsys):
    frame = read_keypoint_trajectory(DATA / "human_calibration.traj")[0]
    frame.w[0][1][0] = 1e200  # thumb keypoint 1, x: its segments' lengths overflow
    capture = tmp_path / "huge.traj"
    write_keypoint_trajectory(capture, [frame])
    out = tmp_path / "out"
    code = main(["calibrate", "--model", ROBOT, "--keypoints", str(capture), "--out", str(out)])
    assert code == EXIT_ERROR
    assert "finger 0 segment 0: human segment length is inf" in capsys.readouterr().err
    assert not (out / "calibration.yaml").exists()


def test_calibrate_rest_pose_override(tmp_path, planar):
    q0 = np.array([0.3, -0.2])
    capture = tmp_path / "capture.traj"
    planar_capture(capture, planar, [q0])
    out = tmp_path / "out"
    assert main(["calibrate", "--model", PLANAR, "--keypoints", str(capture),
                 "--rest-pose", "0.3,-0.2", "--out", str(out)]) == EXIT_OK
    cal = read_calibration(out / "calibration.yaml")
    assert all(np.all(r == 1.0) for r in cal.r)
    assert np.array_equal(cal.q0, q0)


# --- retarget ---------------------------------------------------------------

def test_retarget_recovers_known_motion(tmp_path, planar, planar_cal, capsys):
    truth = [np.array([0.1, 0.2]) + tau * np.array([0.5, -0.6])
             for tau in np.linspace(0.0, 1.0, 5)]
    clip = tmp_path / "clip.traj"
    planar_capture(clip, planar, truth)
    out = tmp_path / "out"
    code = main(["retarget", "--model", PLANAR, "--calibration", str(planar_cal),
                 "--input", str(clip), "--lambda2", "0", "--lambda3", "0",
                 "--tolerance", "1e-12", "--max-iterations", "200",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert "retargeted 5 frames" in capsys.readouterr().out
    t, qs, residuals, converged = read_joint_trajectory(out / "retargeted.traj", 2)
    assert np.all(converged)
    assert np.max(np.abs(qs - np.array(truth))) < 1e-3
    assert np.array_equal(t, [k / 25.0 for k in range(5)])


def test_retarget_fills_non_finite_landmark(tmp_path, robot, calibration):
    frames = read_keypoint_trajectory(DATA / "gestures" / "pinch.traj")
    frames[10].w[2][4][0] = np.nan  # middle tip x, still flagged valid
    assert frames[10].valid[2][4]
    clip = tmp_path / "pinch_nan.traj"
    write_keypoint_trajectory(clip, frames)
    steps = retarget_stream(robot, calibration, read_keypoint_trajectory(clip))
    assert steps[10].filled == 1 and not steps[10].rejected
    assert np.all(np.isfinite(steps[10].residuals))
    cal = tmp_path / "calibration.yaml"
    write_calibration(cal, calibration)
    out = tmp_path / "out"
    code = main(["retarget", "--model", str(DATA / "rapid_hand_20dof.yaml"),
                 "--calibration", str(cal), "--input", str(clip), "--out", str(out)])
    assert code == EXIT_OK
    assert "nan" not in (out / "retargeted.traj").read_text()


@pytest.mark.parametrize("value", [1e200, 1.79e308])
def test_retarget_overflowing_landmark_fails_its_frame(tmp_path, calibration, value):
    # finite, but a target (1.79e308) or a residual term (1e200) overflows to inf
    frames = read_keypoint_trajectory(DATA / "gestures" / "fist.traj")
    frames[5].w[0][2][0] = value  # thumb keypoint 2, x
    clip = tmp_path / "fist_huge.traj"
    write_keypoint_trajectory(clip, frames)
    cal = tmp_path / "calibration.yaml"
    write_calibration(cal, calibration)
    out = tmp_path / "out"
    code = main(["retarget", "--model", ROBOT, "--calibration", str(cal),
                 "--input", str(clip), "--out", str(out)])
    assert code == EXIT_PARTIAL
    _, qs, residuals, converged = read_joint_trajectory(out / "retargeted.traj", 20)
    assert np.all(np.isfinite(qs)) and np.all(np.isfinite(residuals))
    assert np.flatnonzero(~converged).tolist() == [5]
    assert np.array_equal(qs[5], qs[4]) and np.array_equal(residuals[5], residuals[4])


@pytest.mark.parametrize("record, column, value, needle", [
    (5, 0, "nan", "pinch_bad.traj:9: timestamp nan is not finite"),
    (5, 0, "inf", "pinch_bad.traj:9: timestamp inf is not finite"),
    (7, 8, "nan", "pinch_bad.traj:11: validity flag nan is not 0 or 1"),
    (7, 8, "2", "pinch_bad.traj:11: validity flag 2.0 is not 0 or 1"),
], ids=["nan_timestamp", "inf_timestamp", "nan_flag", "flag_2"])
def test_retarget_rejects_bad_timestamp_or_flag(tmp_path, calibration, capsys,
                                                record, column, value, needle):
    lines = (DATA / "gestures" / "pinch.traj").read_text().splitlines(keepends=True)
    header = sum(1 for line in lines if line.startswith("#"))
    fields = lines[header + record].split()  # record 0 is the first data line
    fields[column] = value
    lines[header + record] = " ".join(fields) + "\n"
    clip = tmp_path / "pinch_bad.traj"
    clip.write_text("".join(lines))
    cal = tmp_path / "calibration.yaml"
    write_calibration(cal, calibration)
    out = tmp_path / "out"
    code = main(["retarget", "--model", str(DATA / "rapid_hand_20dof.yaml"),
                 "--calibration", str(cal), "--input", str(clip), "--out", str(out)])
    assert code == EXIT_ERROR
    assert needle in capsys.readouterr().err
    assert not (out / "retargeted.traj").exists()


@pytest.mark.parametrize("change, needle", [
    (lambda d: {"segment_ratios": [[-r for r in d["segment_ratios"][0]]] + d["segment_ratios"][1:]},
     "finger 0: segment ratios must be finite and > 0"),
    (lambda d: {"segment_ratios": d["segment_ratios"][:-1]},
     "segment_ratios: expected one ratio per w_star segment, [4, 4, 4, 4, 4] per finger, "
     "got [4, 4, 4, 4]"),
    (lambda d: {"segment_ratios": [d["segment_ratios"][0][:-1]] + d["segment_ratios"][1:]},
     "segment_ratios: expected one ratio per w_star segment, [4, 4, 4, 4, 4] per finger, "
     "got [3, 4, 4, 4, 4]"),
    (lambda d: {"q0": d["q0"][:-1]}, "q0 has shape (19,), expected (20,)"),
    (lambda d: {"q0": d["q0"][:3] + [float("nan")] + d["q0"][4:]}, "q0 has a non-finite"),
    (lambda d: {"q0": [9.0] + d["q0"][1:]},
     "q0: values must lie within joint limits; joint 0 is 9, outside [-0.8, 0.5]"),
    (lambda d: {"anchor_offsets": [row[:2] for row in d["anchor_offsets"]]},
     "anchor offsets has shape (5, 2)"),
    (lambda d: {"coupling_fingers": d["coupling_fingers"] + [7]}, "coupled finger 7 is not"),
    (lambda d: {"coupling_fingers": d["coupling_fingers"][:1] + d["coupling_fingers"]},
     "coupled finger 1 is listed twice"),
    (lambda d: {"coupling_fingers": d["coupling_fingers"] + [0], "d_min": {**d["d_min"], 0: 0.0},
                "d_max": {**d["d_max"], 0: 0.05}}, "coupled finger 0 is the thumb"),
    (lambda d: {"d_max": {**d["d_max"], 2: 0.0}}, "coupled finger 2: needs d_max > d_min"),
    (lambda d: {"d_max": {**d["d_max"], 1: float("inf")}},
     "coupled finger 1: needs d_max > d_min, a finite span apart, got [0.0, inf]"),
    (lambda d: {"d_min": {**d["d_min"], 2: float("-inf")}},
     "coupled finger 2: needs d_max > d_min, a finite span apart, got [-inf, "),
    (lambda d: {"d_min": {**d["d_min"], 1: -1.0e308}, "d_max": {**d["d_max"], 1: 1.0e308}},
     "coupled finger 1: needs d_max > d_min, a finite span apart, got [-1e+308, 1e+308]"),
], ids=["negative_ratio", "missing_finger", "short_finger", "q0_length", "q0_nan",
        "q0_off_limits", "u_shape", "unknown_coupled_finger", "repeated_coupled_finger",
        "coupled_thumb", "empty_distance_range", "infinite_d_max",
        "infinite_d_min", "overflowing_distance_span"])
def test_retarget_rejects_calibration_not_fitting_model(tmp_path, calibration, capsys,
                                                        change, needle):
    cal = tmp_path / "calibration.yaml"
    write_calibration(cal, calibration)
    doc = yaml.safe_load(cal.read_text())
    cal.write_text(yaml.safe_dump({**doc, **change(doc)}))
    out = tmp_path / "out"
    code = main(["retarget", "--model", str(DATA / "rapid_hand_20dof.yaml"),
                 "--calibration", str(cal), "--input", str(DATA / "gestures" / "pinch.traj"),
                 "--out", str(out)])
    assert code == EXIT_ERROR
    assert needle in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--baseline", "-1"), ("--baseline", "nan"), ("--baseline", "0"),
    ("--tolerance", "0"), ("--tolerance", "nan"), ("--tolerance", "-1"),
    ("--max-iterations", "0"),
])
def test_retarget_bad_solver_flag_exits_2_before_any_output(tmp_path, calibration, capsys,
                                                              flag, value):
    cal = tmp_path / "calibration.yaml"
    write_calibration(cal, calibration)
    out = tmp_path / "out"
    code = main(["retarget", "--model", ROBOT, "--calibration", str(cal),
                 "--input", str(DATA / "gestures" / "pinch.traj"), flag, value,
                 "--out", str(out)])
    assert code == EXIT_ERROR
    captured = capsys.readouterr()
    assert flag in captured.err
    assert "retargeted" not in captured.out
    assert not any(out.glob("*"))


@pytest.mark.parametrize("k", ["80", "1000"])
def test_retarget_steep_coupling_gate_runs(tmp_path, calibration, k):
    # a gate this steep rounds omega to exactly 1.0 for a finger on the thumb
    cal = tmp_path / "calibration.yaml"
    write_calibration(cal, calibration)
    out = tmp_path / "out"
    assert main(["retarget", "--model", ROBOT, "--calibration", str(cal),
                 "--input", str(DATA / "gestures" / "pinch.traj"), "--k", k,
                 "--out", str(out)]) == EXIT_OK
    t, qs, residuals, converged = read_joint_trajectory(out / "retargeted.traj", 20)
    assert len(t) == 40 and np.all(converged)
    assert np.all(np.isfinite(qs)) and np.all(np.isfinite(residuals))


def test_retarget_baseline_comparison(tmp_path, planar, planar_cal):
    truth = [[0.2, 0.3], [0.3, 0.1], [0.4, -0.1]]
    clip = tmp_path / "clip.traj"
    planar_capture(clip, planar, truth)
    out = tmp_path / "out"
    code = main(["retarget", "--model", PLANAR, "--calibration", str(planar_cal),
                 "--input", str(clip), "--lambda2", "0", "--lambda3", "0",
                 "--baseline", "1.5", "--out", str(out)])
    assert code == EXIT_OK
    text = (out / "comparison.txt").read_text()
    values = dict(line.split(": ", 1) for line in text.splitlines()
                  if not line.startswith("#"))
    assert float(values["uniform_scaling_alpha"]) == 1.5
    assert float(values["conformal_mean_align"]) < float(values["uniform_scaling_mean_align"])
    manifest = read_manifest(out / "manifest.json")
    assert manifest["outputs"] == ["baseline.traj", "comparison.txt", "retargeted.traj"]
    assert (out / "baseline.traj").exists()


def test_retarget_manifest_records_defaults(tmp_path, planar, planar_cal):
    clip = tmp_path / "clip.traj"
    planar_capture(clip, planar, [[0.1, 0.1]])
    out = tmp_path / "out"
    assert main(["retarget", "--model", PLANAR, "--calibration", str(planar_cal),
                 "--input", str(clip), "--out", str(out)]) == EXIT_OK
    options = read_manifest(out / "manifest.json")["options"]
    assert (options["lambda1"], options["lambda2"], options["lambda3"]) == (1.0, 1.0, 1.0)
    assert options["k"] == 10.0
    assert options["c"] == 0.5
    assert options["baseline"] is None
    assert options["tolerance"] == 1e-6
    assert options["max_iterations"] == 100


def test_retarget_partial_failures_exit_1(tmp_path, planar, planar_cal):
    # tip lost for 5 consecutive frames: 3 are filled, 2 are rejected
    qs = [[0.1 + 0.05 * k, 0.2] for k in range(7)]
    clip = tmp_path / "gap.traj"
    planar_capture(clip, planar, qs, invalid=[(k, 0, 2) for k in range(2, 7)])
    code = main(["retarget", "--model", PLANAR, "--calibration", str(planar_cal),
                 "--input", str(clip), "--out", str(tmp_path / "out")])
    assert code == EXIT_PARTIAL


def test_retarget_total_failure_exits_2(tmp_path, planar, planar_cal):
    qs = [[0.1, 0.2], [0.15, 0.2], [0.2, 0.2]]
    clip = tmp_path / "dead.traj"
    planar_capture(clip, planar, qs, invalid=[(k, 0, 2) for k in range(3)])
    code = main(["retarget", "--model", PLANAR, "--calibration", str(planar_cal),
                 "--input", str(clip), "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR


def test_retarget_missing_input_exits_2(tmp_path, planar_cal, capsys):
    code = main(["retarget", "--model", PLANAR, "--calibration", str(planar_cal),
                 "--input", str(tmp_path / "nope.traj"), "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    assert "retarget" in capsys.readouterr().err


# --- metrics ------------------------------------------------------------------

def test_metrics_manipulability_golden(tmp_path, capsys):
    model_path = tmp_path / "toy.yaml"
    model_path.write_text(TOY_3DOF)
    poses = tmp_path / "poses.txt"
    poses.write_text("zero 0 0 0\n")
    out = tmp_path / "out"
    code = main(["metrics", "--model", str(model_path), "--poses", str(poses),
                 "--metric", "manipulability", "--out", str(out)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    rows = [l.split() for l in (out / "metrics.txt").read_text().splitlines()
            if l and not l.startswith("#") and l.split()[0] == "arm"]
    assert len(rows) == 1
    _, name, lin, ang = rows[0]
    assert name == "zero"
    golden = 4.0 * np.pi / 3.0
    assert float(lin) == pytest.approx(golden * 1e9, rel=1e-9)
    assert float(ang) == pytest.approx(golden, rel=1e-12)
    assert f"arm zero {lin} {ang}" in stdout


def test_metrics_opposability_deterministic(tmp_path):
    model_path = tmp_path / "arcs.yaml"
    model_path.write_text(ARC_PAIR)
    args = ["metrics", "--model", str(model_path), "--metric", "opposability",
            "--samples", "30000", "--voxel-mm", "1.0", "--seed", "5"]
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(args + ["--out", str(out)]) == EXIT_OK
    a = (outs[0] / "metrics.txt").read_bytes()
    assert a == (outs[1] / "metrics.txt").read_bytes()
    rows = [l.split() for l in a.decode().splitlines()
            if l and not l.startswith("#") and l.split()[0] == "arc_xz"]
    assert float(rows[0][1]) > 0.0
    options = read_manifest(outs[0] / "manifest.json")["options"]
    assert options["samples"] == 30000 and options["seed"] == 5


def test_metrics_single_chain_note(tmp_path):
    model_path = tmp_path / "toy.yaml"
    model_path.write_text(TOY_3DOF)
    out = tmp_path / "out"
    assert main(["metrics", "--model", str(model_path), "--metric", "opposability",
                 "--out", str(out)]) == EXIT_OK
    assert "nothing to oppose" in (out / "metrics.txt").read_text()


def test_metrics_requires_poses(tmp_path, capsys):
    model_path = tmp_path / "toy.yaml"
    model_path.write_text(TOY_3DOF)
    for metric in ("manipulability", "all"):
        code = main(["metrics", "--model", str(model_path), "--metric", metric,
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert "--poses" in capsys.readouterr().err


def test_metrics_rejects_non_finite_pose(tmp_path, capsys):
    model_path = tmp_path / "toy.yaml"
    model_path.write_text(TOY_3DOF)
    poses = tmp_path / "poses.txt"
    poses.write_text("zero 0 0 0\nbad nan 0 0\n")
    out = tmp_path / "out"
    code = main(["metrics", "--model", str(model_path), "--poses", str(poses),
                 "--metric", "manipulability", "--out", str(out)])
    assert code == EXIT_ERROR
    assert "poses.txt:2: angle nan is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("old, new, metric, needle", [
    ("rows: 12", "rows: 100000000000", "opposability",
     "taxel_layouts[0]: rows and cols give 100000000000x8 cells, at most 65536"),
    ("limits: [-0.8, 0.5]", "limits: [-1.0e+308, 1.0e+308]", "opposability",
     "fingers[thumb].joints[0].limits: expected 2 numbers, lower < upper, a finite span apart, "
     "got [-1e+308, 1e+308]"),
    ("origin_translation: [0.005,", "origin_translation: [1.0e+308,", "manipulability",
     "fingers[thumb].joints[0].origin_translation: expected 3 numbers, each at most 10 m in "
     "magnitude, got [1e+308,"),
    ("origin_translation: [0.005,", "origin_translation: [1.0e+308,", "opposability",
     "fingers[thumb].joints[0].origin_translation: expected 3 numbers, each at most 10 m in "
     "magnitude, got [1e+308,"),
], ids=["taxel_rows", "limits_span", "translation_manipulability", "translation_opposability"])
def test_model_number_past_its_bound_exits_2(tmp_path, capsys, old, new, metric, needle):
    # within the float range, yet a grid too large to allocate, a joint range
    # too wide to draw from, or a length whose differences lose every digit
    model, poses, out = tmp_path / "model.yaml", tmp_path / "poses.txt", tmp_path / "out"
    model.write_text((DATA / "rapid_hand_20dof.yaml").read_text().replace(old, new, 1))
    poses.write_text("rest" + " 0" * 20 + "\n")
    assert main(["metrics", "--model", str(model), "--poses", str(poses), "--metric", metric,
                 "--samples", "64", "--out", str(out)]) == EXIT_ERROR
    assert needle in capsys.readouterr().err
    assert not out.exists()


# --- syncsim ------------------------------------------------------------------

SYNC_YAML = """\
streams:
  - {name: camera, period: 0.04, latency_bound: 0.002}
  - {name: tactile_0, period: 0.04, latency_bound: 0.007}
  - {name: tactile_1, period: 0.04, latency_bound: 0.007}
  - {name: proprio, period: 0.04, latency_bound: 0.001}
rate_hz: 25.0
mode: hard
duration: 10.0
"""


def test_syncsim_hard_run(tmp_path, capsys):
    config = tmp_path / "streams.yaml"
    config.write_text(SYNC_YAML)
    out = tmp_path / "out"
    code = main(["syncsim", "--config", str(config), "--out", str(out)])
    assert code == EXIT_OK
    assert "hard-sync: 250 frames" in capsys.readouterr().out
    report = dict(l.split(": ", 1)
                  for l in (out / "report.txt").read_text().splitlines())
    assert int(report["frames"]) == 250
    assert float(report["max_skew_ms"]) <= 7.0
    assert report["within_latency_bound"] == "True"
    assert report["mode"] == "hard"
    assert (out / "events.txt").exists() and (out / "frames.txt").exists()


def test_syncsim_overrides(tmp_path):
    config = tmp_path / "streams.yaml"
    config.write_text(SYNC_YAML.replace("dropout: 0.0", ""))
    out = tmp_path / "out"
    assert main(["syncsim", "--config", str(config), "--duration", "4.0",
                 "--seed", "9", "--out", str(out)]) == EXIT_OK
    report = dict(l.split(": ", 1)
                  for l in (out / "report.txt").read_text().splitlines())
    assert int(report["frames"]) == 100
    assert int(report["seed"]) == 9
    assert "event_dropout_rate" in report
    options = read_manifest(out / "manifest.json")["options"]
    assert options["duration"] == 4.0 and options["seed"] == 9


def test_syncsim_bad_config_exits_2(tmp_path, capsys):
    config = tmp_path / "streams.yaml"
    out = tmp_path / "out"
    for text, needle in [
            ("streams:\n  - {name: cam, period: -1.0}\n", "period"),
            ("streams:\n  - {name: cam, period: 0.04, latency_bound: .nan, jitter: gauss}\n"
             "mode: soft\nduration: 2.0\n", "latency_bound"),
            ("streams:\n  - {name: cam, period: 0.04}\nseed: 1.5\n", "seed"),
            ('streams:\n  - {name: "cam 1", period: 0.04}\n', "'cam 1': name"),
            ("streams:\n  - {name: cam, period: 0.04, latency_bound: 1.0e+308}\n", "latency_bound"),
            ("streams:\n  - {name: cam, period: 1.0e-308}\n", "more than 4194304 events"),
            ("streams:\n  - {name: cam, period: 0.04}\nrate_hz: 1.0e+308\n", "more than 4194304 frames"),
            ("streams:\n  - {name: cam, period: 0.04}\nduration: 1.0e+308\n", "duration")]:
        config.write_text(text)
        code = main(["syncsim", "--config", str(config), "--out", str(out)])
        assert code == EXIT_ERROR
        assert needle in capsys.readouterr().err
        assert not (out / "events.txt").exists()


# --- cross-cutting --------------------------------------------------------------

def test_reruns_are_byte_identical(tmp_path, planar, planar_cal):
    clip = tmp_path / "clip.traj"
    planar_capture(clip, planar, [[0.2, 0.3], [0.25, 0.25]])
    arcs = tmp_path / "arcs.yaml"
    arcs.write_text(ARC_PAIR)
    config = tmp_path / "streams.yaml"
    config.write_text(SYNC_YAML)
    capture = tmp_path / "capture.traj"
    planar_capture(capture, planar, [planar.rest_pose])

    runs = {
        "calibrate": ["calibrate", "--model", PLANAR, "--keypoints", str(capture)],
        "retarget": ["retarget", "--model", PLANAR, "--calibration", str(planar_cal),
                     "--input", str(clip)],
        "metrics": ["metrics", "--model", str(arcs), "--metric", "opposability",
                    "--samples", "20000"],
        "syncsim": ["syncsim", "--config", str(config), "--duration", "2.0"],
    }
    for name, argv in runs.items():
        dirs = [tmp_path / f"{name}_a", tmp_path / f"{name}_b"]
        for d in dirs:
            assert main(argv + ["--out", str(d)]) == EXIT_OK
        files = sorted(p.name for p in dirs[0].iterdir())
        assert files == sorted(p.name for p in dirs[1].iterdir())
        for f in files:
            assert (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes(), (name, f)


def test_manifest_records_every_flag(tmp_path, planar, planar_cal):
    clip = tmp_path / "clip.traj"
    planar_capture(clip, planar, [[0.2, 0.3]])
    arcs = tmp_path / "arcs.yaml"
    arcs.write_text(ARC_PAIR)
    config = tmp_path / "streams.yaml"
    config.write_text(SYNC_YAML)
    runs = {
        "calibrate": ["--model", PLANAR, "--keypoints", str(clip)],
        "retarget": ["--model", PLANAR, "--calibration", str(planar_cal), "--input", str(clip)],
        "metrics": ["--model", str(arcs), "--metric", "opposability", "--samples", "2000"],
        "syncsim": ["--config", str(config), "--duration", "1.0"],
    }
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert set(commands) == set(runs)
    for name, argv in runs.items():
        out = tmp_path / name
        assert main([name] + argv + ["--out", str(out)]) == EXIT_OK
        manifest = read_manifest(out / "manifest.json")
        flags = {a.dest for a in commands[name]._actions} - {"help", "out"}
        assert not set(manifest["inputs"]) & set(manifest["options"])
        assert set(manifest["inputs"]) | set(manifest["options"]) == flags, name


def test_calibrate_rest_pose_off_the_limits_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["calibrate", "--model", ROBOT, "--keypoints", str(DATA / "human_calibration.traj"),
                 "--rest-pose", ",".join(["9"] + ["0"] * 19), "--out", str(out)]) == EXIT_ERROR
    assert ("q0: values must lie within joint limits; joint 0 is 9, outside [-0.8, 0.5]"
            in capsys.readouterr().err)
    assert not out.exists()


_OPPOSE = ["metrics", "--model", ROBOT, "--metric", "opposability", "--samples", "2000"]
_RETARGET = ["retarget", "--model", ROBOT, "--calibration", "unread.yaml", "--input", "unread.traj"]


@pytest.mark.parametrize("argv, flag", [
    (["calibrate", "--model", PLANAR, "--keypoints", "unread.traj", "--rest-pose", "0.3,a"],
     "--rest-pose"),
    (["calibrate", "--model", PLANAR, "--keypoints", "unread.traj", "--rest-pose", "0.3,nan"],
     "--rest-pose"),
    (_OPPOSE + ["--samples", "0"], "--samples"),
    (_OPPOSE + ["--voxel-mm", "0"], "--voxel-mm"),
    (_OPPOSE + ["--voxel-mm", "-2"], "--voxel-mm"),
    (_OPPOSE + ["--voxel-mm", "inf"], "--voxel-mm"),
    (_OPPOSE + ["--voxel-mm", "1e-4"], "--voxel-mm"),
    (_OPPOSE + ["--seed", "-1"], "--seed"),
    (["syncsim", "--config", "unread.yaml", "--seed", "-1"], "--seed"),
    (["syncsim", "--config", "unread.yaml", "--duration", "0"], "--duration"),
    (["syncsim", "--config", "unread.yaml", "--duration", "nan"], "--duration"),
    (["syncsim", "--config", "unread.yaml", "--duration", "2e6"], "--duration"),
    (_RETARGET + ["--k", "nan"], "--k"),
    (_RETARGET + ["--c", "inf"], "--c"),
    (_RETARGET + ["--lambda1", "nan"], "--lambda1"),
    (_RETARGET + ["--lambda3", "-1"], "--lambda3"),
], ids=["rest_pose_text", "rest_pose_nan", "samples_0", "voxel_0", "voxel_negative",
        "voxel_inf", "voxel_past_packing_range", "metrics_seed", "syncsim_seed",
        "syncsim_duration_0", "syncsim_duration_nan", "syncsim_duration_past_max", "k_nan",
        "c_inf", "lambda1_nan", "lambda3_negative"])
def test_bad_option_value_exits_2_naming_the_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_ERROR
    assert flag in capsys.readouterr().err
    assert not out.exists()


def _retarget(planar, **setting):
    cal = calibrate(planar, planar.rest_pose, identity_frame(planar))
    return retarget_stream(planar, cal, [], **setting)


def _oppose(planar, **setting):
    return opposability_volumes(planar, (0, 2), [(0, 2)], **{"samples": 16, **setting})


_SPAN = StreamSpec("cam", 1e5)  # a million seconds are ten events
# each numeric flag: the argument its library call names, how the flag parses
# its text, and the call the value feeds
_SETTINGS = {
    ("retarget", "--lambda1"): ("lambdas", float, lambda m, v: _retarget(m, lambdas=(v, 1.0, 1.0))),
    ("retarget", "--lambda2"): ("lambdas", float, lambda m, v: _retarget(m, lambdas=(1.0, v, 1.0))),
    ("retarget", "--lambda3"): ("lambdas", float, lambda m, v: _retarget(m, lambdas=(1.0, 1.0, v))),
    ("retarget", "--k"): ("sigmoid_k", float, lambda m, v: _retarget(m, sigmoid_k=v)),
    ("retarget", "--c"): ("sigmoid_c", float, lambda m, v: _retarget(m, sigmoid_c=v)),
    ("retarget", "--baseline"):
        ("scaling_alpha", float, lambda m, v: _retarget(m, scaling_alpha=v)),
    ("retarget", "--tolerance"): ("tolerance", float, lambda m, v: _retarget(m, tolerance=v)),
    ("retarget", "--max-iterations"):
        ("max_iterations", int, lambda m, v: _retarget(m, max_iterations=v)),
    ("metrics", "--samples"): ("samples", int, lambda m, v: _oppose(m, samples=v)),
    ("metrics", "--voxel-mm"): ("voxel_mm", float, lambda m, v: _oppose(m, voxel_mm=v)),
    ("metrics", "--seed"): ("seed", int, lambda m, v: _oppose(m, seed=v)),
    ("syncsim", "--duration"):
        ("duration", float, lambda m, v: simulate(StreamConfig((_SPAN,)), v)),
    ("syncsim", "--seed"): ("seed", int, lambda m, v: StreamConfig((_SPAN,), seed=v)),
}
_TEXTS = ("0", "-1", "1.5", "nan", "inf", "-inf", "1e-308", "1e6", "1000001")


def _library_accepts(run, name):
    """Whether ``run()`` gets past the library's check of its argument ``name``."""
    try:
        run()
    except VoxelRangeError:  # past the check: the voxel is too small for the key packing
        pass
    except (ValueError, RetargetConfigError, SyncConfigError) as e:
        assert str(e).startswith(f"{name} must be "), e
        return False
    return True


@pytest.mark.parametrize("command, flag", list(_SETTINGS),
                         ids=[f"{c}_{f.lstrip('-')}" for c, f in _SETTINGS])
def test_flag_accepts_what_the_library_accepts(planar, command, flag):
    name, parse, call = _SETTINGS[command, flag]
    commands = next(a for a in cli._PARSER._actions if a.dest == "command").choices
    flag_type = next(a.type for a in commands[command]._actions if flag in a.option_strings)
    accepted = []
    for text in _TEXTS:
        try:
            flag_type(text)
            flag_accepts = True
        except argparse.ArgumentTypeError:
            flag_accepts = False
        try:
            value = parse(text)
        except ValueError:  # no number of the flag's type: the library never sees it
            library_accepts = False
        else:
            library_accepts = _library_accepts(lambda: call(planar, value), name)
        assert flag_accepts == library_accepts, text
        accepted += [text] * flag_accepts
    assert 0 < len(accepted) < len(_TEXTS)


@pytest.mark.parametrize("error", [ValueError, KeyError])
def test_program_bug_is_not_an_input_error(tmp_path, monkeypatch, error):
    def broken(*args):
        raise error("a bug in the program")

    monkeypatch.setattr(cli, "simulate", broken)
    config = tmp_path / "streams.yaml"
    config.write_text(SYNC_YAML)
    with pytest.raises(error, match="a bug in the program"):
        main(["syncsim", "--config", str(config), "--out", str(tmp_path / "out")])


def test_version_and_usage_errors(capsys):
    assert main(["--version"]) == 0
    assert "dexretarget" in capsys.readouterr().out
    assert main(["retarget"]) == 2      # missing required arguments
    assert main(["unknown-command"]) == 2
