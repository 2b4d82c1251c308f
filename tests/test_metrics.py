"""Dexterity metrics against hand-computed geometric oracles."""

import numpy as np
import pytest

from dexretarget import metrics
from dexretarget.hand_model import load_hand_model
from dexretarget.metrics import (
    DEFAULT_VOXEL_MM,
    manipulability_volume,
    opposability_volume,
    opposability_volumes,
)

from conftest import ANNULI_PAIR, ARC_PAIR, DISJOINT_PAIR, TOY_3DOF_X2


# --- manipulability -----------------------------------------------------------

def test_manipulability_matches_analytic_determinant(toy_3dof):
    # At q = 0 the linear Jacobian columns are (-1, 2, 0), (1, 0, -1) and
    # (0, -1, 1) (cross products worked out in conftest), det = -1, so the
    # ellipsoid volume is exactly 4 pi / 3 m^3.
    golden = 4.0 * np.pi / 3.0 * 1e9  # mm^3
    v = manipulability_volume(toy_3dof, np.zeros(3), (0, 1))
    assert v == pytest.approx(golden, rel=1e-9)


def test_manipulability_angular_matches_axis_determinant(toy_3dof):
    # angular Jacobian columns are the fixed axes z, y, x: |det| = 1
    v = manipulability_volume(toy_3dof, np.zeros(3), (0, 1), kind="angular")
    assert v == pytest.approx(4.0 * np.pi / 3.0, rel=1e-12)


def test_manipulability_scales_with_length_cubed(toy_3dof):
    # doubling every offset doubles the linear Jacobian: volume scales by 8
    toy_x2 = load_hand_model(TOY_3DOF_X2)
    v1 = manipulability_volume(toy_3dof, np.zeros(3), (0, 1))
    v2 = manipulability_volume(toy_x2, np.zeros(3), (0, 1))
    assert v2 / v1 == pytest.approx(8.0, rel=1e-6)


def test_manipulability_angular_unchanged_by_length(toy_3dof):
    toy_x2 = load_hand_model(TOY_3DOF_X2)
    v1 = manipulability_volume(toy_3dof, np.zeros(3), (0, 1), kind="angular")
    v2 = manipulability_volume(toy_x2, np.zeros(3), (0, 1), kind="angular")
    assert v1 == v2


def test_manipulability_singular_chain_is_zero(planar):
    # a 2-joint chain can never span 3 linear directions
    rng = np.random.default_rng(21)
    for _ in range(10):
        q = rng.uniform(planar.lower_limits, planar.upper_limits)
        assert manipulability_volume(planar, q, (0, 2)) == 0.0


def test_manipulability_zero_at_straight_finger(robot):
    # at rest every finger is straight: the three pitch axes are parallel
    # and the tip cannot move along the finger axis, a true singularity
    for i in range(len(robot.fingers)):
        tip = robot.keypoint_counts()[i] - 1
        assert manipulability_volume(robot, robot.rest_pose, (i, tip)) == 0.0


def test_manipulability_positive_when_flexed(robot):
    q = 0.5 * (robot.lower_limits + robot.upper_limits)
    for i in range(len(robot.fingers)):
        tip = robot.keypoint_counts()[i] - 1
        assert manipulability_volume(robot, q, (i, tip)) > 0.0


def test_manipulability_nonnegative(robot):
    rng = np.random.default_rng(22)
    tip = robot.keypoint_counts()[1] - 1
    for _ in range(25):
        q = rng.uniform(robot.lower_limits, robot.upper_limits)
        assert manipulability_volume(robot, q, (1, tip)) >= 0.0


def test_manipulability_rejects_unknown_kind(toy_3dof):
    with pytest.raises(ValueError, match="kind"):
        manipulability_volume(toy_3dof, np.zeros(3), (0, 1), kind="twist")


# --- opposability -------------------------------------------------------------

def test_opposability_crossing_arcs_share_one_voxel():
    # unit arcs in the xy and xz planes: both tips land in a voxel with
    # y index 0 and z index 0 only for angles in [0, 0.001), where
    # cos(angle) is in (0.9999995, 1), i.e. x index 999.  Exactly one
    # shared 1 mm voxel, so the volume is exactly 1 mm^3.
    arcs = load_hand_model(ARC_PAIR)
    for seed in (0, 1, 7):
        v = opposability_volume(arcs, (0, 1), (1, 1),
                                samples=200_000, voxel_mm=1.0, seed=seed)
        assert v == 1.0


def test_opposability_annuli_match_shared_area():
    # tip radii cover [0.02, 0.08] m and [0.04, 0.08] m in the z = 0 plane;
    # the overlap is the annulus [0.04, 0.08], one 1 mm voxel layer thick:
    # pi (80^2 - 40^2) mm^2 * 1 mm = 15079.6 mm^3.  Voxel counting
    # overestimates a little at the rim, so allow 10%.
    ann = load_hand_model(ANNULI_PAIR)
    exact = np.pi * (0.08 ** 2 - 0.04 ** 2) * 1e6
    v = opposability_volume(ann, (0, 1), (1, 1),
                            samples=1_000_000, voxel_mm=1.0, seed=0)
    assert abs(v - exact) / exact < 0.10


def test_opposability_disjoint_workspaces_are_zero():
    # chains reach 0.08 m around bases 1 m apart
    dis = load_hand_model(DISJOINT_PAIR)
    v = opposability_volume(dis, (0, 1), (1, 1), samples=50_000, seed=0)
    assert v == 0.0


def test_opposability_self_intersection_is_workspace():
    # a chain paired with itself reuses its own sample substreams, so the
    # intersection is exactly the sampled workspace, and any cross pair is
    # bounded by it
    arcs = load_hand_model(ARC_PAIR)
    self_a = opposability_volume(arcs, (0, 1), (0, 1),
                                 samples=50_000, voxel_mm=1.0, seed=3)
    again = opposability_volume(arcs, (0, 1), (0, 1),
                                samples=50_000, voxel_mm=1.0, seed=3)
    cross = opposability_volume(arcs, (0, 1), (1, 1),
                                samples=50_000, voxel_mm=1.0, seed=3)
    assert self_a == again
    assert self_a > 0.0
    assert cross <= self_a


def test_opposability_shrinks_with_joint_limits():
    narrow_doc = ARC_PAIR.replace("arc_pair", "arc_narrow") \
        .replace("limits: [-1.0, 1.2]", "limits: [-0.5, 0.5]")
    full = load_hand_model(ARC_PAIR)
    narrow = load_hand_model(narrow_doc)
    v_full = opposability_volume(full, (0, 1), (0, 1),
                                 samples=50_000, voxel_mm=1.0, seed=3)
    v_narrow = opposability_volume(narrow, (0, 1), (0, 1),
                                   samples=50_000, voxel_mm=1.0, seed=3)
    # the narrow arc covers 1.0 rad of the full 2.2: far outside noise
    assert v_narrow < 0.7 * v_full


def test_opposability_seed_determinism(robot):
    a = opposability_volume(robot, (0, 4), (1, 4), samples=30_000, seed=11)
    b = opposability_volume(robot, (0, 4), (1, 4), samples=30_000, seed=11)
    assert a == b


def test_opposability_monotone_in_samples():
    # sample chunks are drawn from fixed substreams, so a larger budget
    # extends the smaller one and the voxel union can only grow
    ann = load_hand_model(ANNULI_PAIR)
    vols = [opposability_volume(ann, (0, 1), (1, 1), samples=n,
                                voxel_mm=1.0, seed=5)
            for n in (30_000, 60_000, 120_000)]
    assert vols[0] <= vols[1] <= vols[2]


def test_opposability_thumb_profile(robot):
    # thumb-index overlap should beat thumb-pinky on this hand
    v_index = opposability_volume(robot, (0, 4), (1, 4), samples=60_000, seed=0)
    v_pinky = opposability_volume(robot, (0, 4), (4, 4), samples=60_000, seed=0)
    assert v_index > v_pinky > 0.0


def test_opposability_volumes_sample_each_chain_once(robot, monkeypatch):
    tips = [(i, f.tip_index) for i, f in enumerate(robot.fingers)]
    one_by_one = [opposability_volume(robot, tips[0], tip, samples=20_000, seed=4) for tip in tips]
    sampled, walk = [], metrics._workspace_voxels

    def counted(model, frame, *rest, **kw):
        sampled.append(frame)
        return walk(model, frame, *rest, **kw)

    monkeypatch.setattr(metrics, "_workspace_voxels", counted)
    assert opposability_volumes(robot, tips[0], tips, samples=20_000, seed=4) == one_by_one
    assert sampled == tips  # the thumb once, against itself as well


def test_opposability_validation(robot):
    with pytest.raises(ValueError, match="samples"):
        opposability_volume(robot, (0, 4), (1, 4), samples=0)
    with pytest.raises(ValueError, match="voxel"):
        opposability_volume(robot, (0, 4), (1, 4), voxel_mm=0.0)
    assert DEFAULT_VOXEL_MM > 0.0
