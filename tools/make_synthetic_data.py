#!/usr/bin/env python3
"""Regenerate the bundled synthetic captures.

Poses a small human-proportioned hand model and records its keypoints as
trajectory files: one flat calibration capture plus four gesture clips.
Seeded and deterministic on one set of library versions.  The calibration
capture and the fist, spread and point clips come out byte for byte as
shipped.  The pinch clip is tuned with the package's own least-squares
solver, ``retarget.minimize``.  The shipped ``pinch.traj`` was tuned with
scipy's SLSQP instead; the two poses agree to within 1e-6 rad, so
regenerating it changes only the last digits.

Writes into the ``src/dexretarget/data`` of the checkout it sits in:

    PYTHONPATH=src python tools/make_synthetic_data.py
"""

import pathlib

import numpy as np

from dexretarget.fileio import write_keypoint_trajectory
from dexretarget.hand_model import load_hand_model_file
from dexretarget.kinematics import forward_kinematics, jacobian
from dexretarget.retarget import KeypointFrame, minimize

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "dexretarget" / "data"
RATE = 25.0
N_FRAMES = 40


def pose(model, **per_finger):
    q = np.zeros(model.total_dof)
    names = [f.name for f in model.fingers]
    for name, angles in per_finger.items():
        i = names.index(name)
        q[model.finger_slice(i)] = angles
    return np.clip(q, model.lower_limits, model.upper_limits)


def capture_frame(model, q, t):
    fk = forward_kinematics(model, q)
    fk[:, 0] = 0.0  # wrist landmark: hand-frame origin, shared j=0 slot
    return KeypointFrame(fk, model.keypoint_counts(), timestamp=t)


def gesture_clip(model, q_target):
    frames = []
    for k in range(N_FRAMES):
        tau = k / (N_FRAMES - 1)
        s = 3.0 * tau**2 - 2.0 * tau**3
        frames.append(capture_frame(model, s * q_target, k / RATE))
    return frames


def tune_pinch(model, q_guess):
    """Close the thumb-index tip gap while staying near the guess pose."""
    free = np.arange(8)  # thumb + index joints
    thumb, index = (0, 4), (1, 4)

    def residuals(x):
        q = q_guess.copy()
        q[free] = x
        fk = forward_kinematics(model, q)
        gap_jac = jacobian(model, q, thumb)[:3, free] - jacobian(model, q, index)[:3, free]
        return (np.concatenate([fk[thumb] - fk[index], x - q_guess[free]]),
                np.vstack([gap_jac, np.eye(free.size)]))

    # gap is metres, pose deviation radians: weight the gap hard
    weights = np.concatenate([np.full(3, 100.0), np.full(free.size, np.sqrt(0.05))])
    res = minimize(residuals, weights, q_guess[free], model.lower_limits[free],
                   model.upper_limits[free], tolerance=1e-14, max_iterations=200)
    q = q_guess.copy()
    q[free] = res.x
    print(f"pinch gap: {np.linalg.norm(res.e[:3]) * 1000:.3f} mm after {res.nit} iterations")
    return q


def main():
    model = load_hand_model_file(DATA / "human_hand_20dof.yaml")
    (DATA / "gestures").mkdir(exist_ok=True)

    flat = np.zeros(model.total_dof)
    write_keypoint_trajectory(DATA / "human_calibration.traj",
                              [capture_frame(model, flat, 0.0)])

    fist = pose(model,
                thumb=[0.1, 0.9, 0.8, 0.9],
                index=[0.0, 1.25, 1.5, 0.9],
                middle=[0.0, 1.25, 1.5, 0.9],
                ring=[0.0, 1.25, 1.5, 0.9],
                pinky=[0.0, 1.25, 1.5, 0.9])
    spread = pose(model,
                  thumb=[-0.6, -0.1, -0.1, -0.05],
                  index=[0.3, 0.1, 0.05, 0.02],
                  middle=[0.08, 0.1, 0.05, 0.02],
                  ring=[-0.18, 0.1, 0.05, 0.02],
                  pinky=[-0.3, 0.1, 0.05, 0.02])
    point = pose(model,
                 thumb=[0.3, 1.0, 0.7, 0.8],
                 index=[0.05, 0.05, 0.0, 0.0],
                 middle=[0.0, 1.3, 1.6, 1.0],
                 ring=[0.0, 1.3, 1.6, 1.0],
                 pinky=[0.0, 1.3, 1.6, 1.0])
    pinch_guess = pose(model,
                       thumb=[0.45, 0.9, 0.35, 0.3],
                       index=[-0.1, 0.75, 0.55, 0.3],
                       middle=[0.0, 0.35, 0.3, 0.15],
                       ring=[0.0, 0.4, 0.35, 0.2],
                       pinky=[0.0, 0.45, 0.4, 0.25])
    pinch = tune_pinch(model, pinch_guess)

    for name, q in [("fist", fist), ("pinch", pinch),
                    ("spread", spread), ("point", point)]:
        write_keypoint_trajectory(DATA / "gestures" / f"{name}.traj",
                                  gesture_clip(model, q))
        print(f"wrote gestures/{name}.traj")


if __name__ == "__main__":
    main()
