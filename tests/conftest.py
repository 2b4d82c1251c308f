"""Shared fixtures: packaged models, synthetic captures, toy test chains."""

import pathlib

import numpy as np
import pytest

from dexretarget.fileio import read_keypoint_trajectory, read_static_keypoints
from dexretarget.hand_model import load_hand_model, load_hand_model_file
from dexretarget.retarget import KeypointFrame, calibrate

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "dexretarget" / "data"

# README's example stream config and Python library example, verbatim
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_STREAMS = README.split("A stream config looks like:\n\n```yaml\n")[1].split("```")[0]
README_LIBRARY = README.split("## Library\n\n```python\n")[1].split("```")[0]

GESTURES = ("fist", "pinch", "spread", "point")

# 3 orthogonal-axis joints with unit offsets along x and a skew tip.
# At q = 0 the tip sits at (2, 1, 1) and the linear Jacobian columns are
# z x (2,1,1) = (-1,2,0), y x (1,1,1) = (1,0,-1), x x (0,1,1) = (0,-1,1),
# giving det = -1, so the ellipsoid volume is exactly 4 pi / 3 m^3.
TOY_3DOF = """
name: toy_3dof
fingers:
  - name: arm
    joints:
      - {name: j1, axis: [0.0, 0.0, 1.0], origin_translation: [0.0, 0.0, 0.0], limits: [-1.5, 1.5]}
      - {name: j2, axis: [0.0, 1.0, 0.0], origin_translation: [1.0, 0.0, 0.0], limits: [-1.5, 1.5]}
      - {name: j3, axis: [1.0, 0.0, 0.0], origin_translation: [1.0, 0.0, 0.0], limits: [-1.5, 1.5]}
    keypoints:
      - {index: 0, name: root, attached_to: base}
      - {index: 1, name: tip, attached_to: j3, offset: [0.0, 1.0, 1.0]}
"""

# the same chain with every length doubled
TOY_3DOF_X2 = TOY_3DOF.replace("toy_3dof", "toy_3dof_x2") \
    .replace("[1.0, 0.0, 0.0], limits", "[2.0, 0.0, 0.0], limits") \
    .replace("offset: [0.0, 1.0, 1.0]", "offset: [0.0, 2.0, 2.0]")

# two keypoints rigidly attached to the last link, for rigidity checks
RIGID_PAIR = """
name: rigid_pair
fingers:
  - name: arm
    joints:
      - {name: j1, axis: [0.0, 0.0, 1.0], origin_translation: [0.0, 0.0, 0.0], limits: [-2.0, 2.0]}
      - {name: j2, axis: [0.0, 1.0, 0.0], origin_translation: [0.05, 0.01, 0.0], limits: [-2.0, 2.0]}
      - {name: j3, axis: [1.0, 0.0, 0.0], origin_translation: [0.04, 0.0, 0.02], limits: [-2.0, 2.0]}
    keypoints:
      - {index: 0, name: root, attached_to: base}
      - {index: 1, name: a, attached_to: j3, offset: [0.02, 0.01, 0.03]}
      - {index: 2, name: b, attached_to: j3, offset: [-0.01, 0.04, 0.02]}
"""

# single-joint unit-radius arcs in orthogonal planes sharing a base; their
# tip paths cross only where both angles sit in [0, voxel), at (1, 0, 0)
ARC_PAIR = """
name: arc_pair
fingers:
  - name: arc_xy
    joints:
      - {name: a1, axis: [0.0, 0.0, 1.0], origin_translation: [0.0, 0.0, 0.0], limits: [-1.0, 1.2]}
    keypoints:
      - {index: 0, name: root, attached_to: base}
      - {index: 1, name: tip, attached_to: a1, offset: [1.0, 0.0, 0.0]}
  - name: arc_xz
    joints:
      - {name: b1, axis: [0.0, -1.0, 0.0], origin_translation: [0.0, 0.0, 0.0], limits: [-1.0, 1.2]}
    keypoints:
      - {index: 0, name: root, attached_to: base}
      - {index: 1, name: tip, attached_to: b1, offset: [1.0, 0.0, 0.0]}
"""

# two planar 2-link chains sharing a base: tip radii cover the annuli
# [0.02, 0.08] and [0.04, 0.08], so the shared region is the annulus
# [0.04, 0.08] with area pi (0.08^2 - 0.04^2), one voxel layer thick
ANNULI_PAIR = """
name: annuli_pair
fingers:
  - name: wide
    joints:
      - {name: a1, axis: [0.0, 0.0, 1.0], origin_translation: [0.0, 0.0, 0.0], limits: [-3.141592653589793, 3.141592653589793]}
      - {name: a2, axis: [0.0, 0.0, 1.0], origin_translation: [0.05, 0.0, 0.0], limits: [-3.141592653589793, 3.141592653589793]}
    keypoints:
      - {index: 0, name: root, attached_to: base}
      - {index: 1, name: tip, attached_to: a2, offset: [0.03, 0.0, 0.0]}
  - name: narrow
    joints:
      - {name: b1, axis: [0.0, 0.0, 1.0], origin_translation: [0.0, 0.0, 0.0], limits: [-3.141592653589793, 3.141592653589793]}
      - {name: b2, axis: [0.0, 0.0, 1.0], origin_translation: [0.06, 0.0, 0.0], limits: [-3.141592653589793, 3.141592653589793]}
    keypoints:
      - {index: 0, name: root, attached_to: base}
      - {index: 1, name: tip, attached_to: b2, offset: [0.02, 0.0, 0.0]}
"""

# reaches 0.08 m from the origin and 0.08 m from (1, 0, 0): no overlap
DISJOINT_PAIR = """
name: disjoint_pair
fingers:
  - name: near
    joints:
      - {name: a1, axis: [0.0, 0.0, 1.0], origin_translation: [0.0, 0.0, 0.0], limits: [-3.0, 3.0]}
      - {name: a2, axis: [0.0, 1.0, 0.0], origin_translation: [0.05, 0.0, 0.0], limits: [-3.0, 3.0]}
    keypoints:
      - {index: 0, name: root, attached_to: base}
      - {index: 1, name: tip, attached_to: a2, offset: [0.03, 0.0, 0.0]}
  - name: far
    joints:
      - {name: b1, axis: [0.0, 0.0, 1.0], origin_translation: [1.0, 0.0, 0.0], limits: [-3.0, 3.0]}
      - {name: b2, axis: [0.0, 1.0, 0.0], origin_translation: [0.05, 0.0, 0.0], limits: [-3.0, 3.0]}
    keypoints:
      - {index: 0, name: root, attached_to: base}
      - {index: 1, name: tip, attached_to: b2, offset: [0.03, 0.0, 0.0]}
"""

# two one-joint fingers with different keypoint counts and 2 DoF in all, like
# planar_2dof: the short finger's (1, 2) slot is padding
RAGGED_2DOF = """
name: ragged_2dof
fingers:
  - name: long
    joints:
      - {name: a, axis: [0.0, 0.0, 1.0], origin_translation: [0.0, 0.0, 0.0], limits: [-1.6, 1.6]}
    keypoints:
      - {index: 0, name: root, attached_to: base}
      - {index: 1, name: mid, attached_to: a, offset: [1.0, 0.0, 0.0]}
      - {index: 2, name: tip, attached_to: a, offset: [2.0, 0.0, 0.0]}
  - name: short
    joints:
      - {name: b, axis: [0.0, 0.0, 1.0], origin_translation: [0.0, 1.0, 0.0], limits: [-1.6, 1.6]}
    keypoints:
      - {index: 0, name: root, attached_to: base}
      - {index: 1, name: tip, attached_to: b, offset: [1.0, 0.0, 0.0]}
"""


@pytest.fixture(scope="session")
def robot():
    return load_hand_model_file(DATA / "rapid_hand_20dof.yaml")


@pytest.fixture(scope="session")
def planar():
    return load_hand_model_file(DATA / "planar_2dof.yaml")


@pytest.fixture(scope="session")
def human():
    return load_hand_model_file(DATA / "human_hand_20dof.yaml")


@pytest.fixture(scope="session")
def toy_3dof():
    return load_hand_model(TOY_3DOF)


@pytest.fixture(scope="session")
def ragged_2dof():
    return load_hand_model(RAGGED_2DOF)


@pytest.fixture(scope="session")
def calibration(robot):
    w_star = read_static_keypoints(DATA / "human_calibration.traj")
    return calibrate(robot, robot.rest_pose, w_star)


@pytest.fixture(scope="session")
def gesture_frames():
    return {g: read_keypoint_trajectory(DATA / "gestures" / f"{g}.traj")
            for g in GESTURES}


def random_frame(counts, rng, scale=0.15):
    """A fully valid random landmark frame with the given per-finger counts."""
    w = [rng.uniform(-scale, scale, (c, 3)) for c in counts]
    return KeypointFrame(w, [np.ones(c, dtype=bool) for c in counts])


def identity_frame(model, q=None):
    """Landmarks equal to the model's own keypoints at q (default rest)."""
    from dexretarget.kinematics import forward_kinematics

    q = model.rest_pose if q is None else q
    fk = forward_kinematics(model, q)
    counts = model.keypoint_counts()
    w = [np.array([fk[(i, j)] for j in range(c)]) for i, c in enumerate(counts)]
    return KeypointFrame(w, [np.ones(c, dtype=bool) for c in counts])
