"""Forward kinematics, Jacobians, motor couplings, and taxel point clouds.

All poses are expressed in the hand base frame, meters and radians.  A
finger chain applies, per joint k: the fixed parent offset (translation,
then rotation), then the revolute rotation about the joint axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_BATCH_ROWS = 1024  # samples per kernel call: a walk's link arrays stay in cache

_EYE = np.eye(3)
_ZERO = np.zeros(3)
_EYE.flags.writeable = _ZERO.flags.writeable = False
# (a x b)[c] = a[c + 1] b[c + 2] - a[c + 2] b[c + 1], indices mod 3: the
# terms and order of np.cross, so Jacobians keep their exact values
_NEXT = [1, 2, 0]
_AFTER = [2, 0, 1]


def _coerce_q(model, q):
    q = np.asarray(q, dtype=float)
    if q.shape != (model.total_dof,):
        raise ValueError(f"q has shape {q.shape}, model {model.name!r} expects ({model.total_dof},)")
    return q


def _chain_state(model, finger_index, q_f, depth=None):
    """Walk one finger's chain at joint angles ``q_f`` of shape (dof,) or (B, dof).

    Returns:
        (rots, trans, frames): lists of the link rotations and translations
        for links 0..depth (link 0 is the palm) and of the joint frames,
        the rotation in which joint k's axis is expressed, for joints
        0..depth-1.  Joint k's origin is ``trans[k + 1]``.  Entries carry
        the batch dimension once a joint angle has entered them.
    """
    joints = model.fingers[finger_index].joints[:depth]
    sin = np.sin(q_f)
    vers = 1.0 - np.cos(q_f)
    r, t = _EYE, _ZERO
    rots, trans, frames = [r], [t], []
    for k, joint in enumerate(joints):
        t = t + r @ joint.origin_translation
        r = r @ joint.origin_rotation
        frames.append(r)
        # Rodrigues: I + sin K + (1 - cos) K K.  Every step here is the same
        # elementwise or per-matrix product for (dof,) and (B, dof) angles,
        # so a batch row and a single walk agree bit for bit.
        rodrigues = sin[..., k, None, None] * joint.skew
        rodrigues += _EYE
        rodrigues += vers[..., k, None, None] * joint.skew_sq
        r = r @ rodrigues
        rots.append(r)
        trans.append(t)
    return rots, trans, frames


def _point(state, kp):
    rots, trans, _ = state
    return trans[kp.link] + rots[kp.link] @ kp.offset


def _joint_axes(model, finger_index, state):
    """(dof, 3) world joint axes of a single walked chain."""
    return (np.stack(state[2]) @ model.fingers[finger_index].axes[:, :, None])[:, :, 0]


def linear_jacobian_block(axes, state, links, points):
    """(n, 3, dof) linear-velocity blocks of n points on one walked chain.

    Column k of block m is ``axes[k] x (points[m] - origin_k)`` while joint
    k precedes the point's link ``links[m]``, and zero past it.
    """
    d = points[:, None, :] - np.stack(state[1][1:])
    cross = axes[:, _NEXT] * d[..., _AFTER] - axes[:, _AFTER] * d[..., _NEXT]
    cross[np.arange(len(axes)) >= np.asarray(links)[:, None]] = 0.0
    return np.ascontiguousarray(cross.transpose(0, 2, 1))


def forward_kinematics(model, q):
    """All keypoint positions at configuration q.

    Returns:
        dict mapping (finger, keypoint) index pairs to 3-vectors in the
        hand base frame.
    """
    q = _coerce_q(model, q)
    out = {}
    for i, f in enumerate(model.fingers):
        state = _chain_state(model, i, q[model.finger_slice(i)])
        for kp in f.keypoints:
            out[(i, kp.index)] = _point(state, kp)
    return out


def jacobian(model, q, frame):
    """Geometric Jacobian of one keypoint frame.

    Args:
        model: hand model.
        q: joint vector of length model.total_dof.
        frame: (finger, keypoint) index pair.

    Returns:
        (6, n) array; rows 0:3 map joint rates to linear velocity (m/s per
        rad/s), rows 3:6 to angular velocity (rad/s per rad/s).  Columns of
        joints not on the frame's chain are zero.
    """
    q = _coerce_q(model, q)
    i, j = frame
    kp = model.keypoint(i, j)
    sl = model.finger_slice(i)
    state = _chain_state(model, i, q[sl])
    axes = _joint_axes(model, i, state)
    jac = np.zeros((6, model.total_dof))
    jac[:3, sl] = linear_jacobian_block(axes, state, [kp.link], _point(state, kp)[None])[0]
    jac[3:, sl.start:sl.start + kp.link] = axes[:kp.link].T
    return jac


def motor_to_joint(theta1, theta2, sign=1.0):
    """Map differential motor angles to (pitch, yaw) joint angles.

    Equal motor motion flexes (pure pitch), opposite motion abducts (pure
    yaw): pitch = (theta1 + theta2) / 2, yaw = sign * (theta1 - theta2) / 2.
    Accepts scalars or arrays.
    """
    theta1 = np.asarray(theta1, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    pitch = 0.5 * (theta1 + theta2)
    yaw = sign * 0.5 * (theta1 - theta2)
    return pitch, yaw


def joint_to_motor(pitch, yaw, sign=1.0):
    """Exact inverse of :func:`motor_to_joint`."""
    pitch = np.asarray(pitch, dtype=float)
    yaw = np.asarray(yaw, dtype=float)
    theta1 = pitch + sign * yaw
    theta2 = pitch - sign * yaw
    return theta1, theta2


@dataclass(frozen=True)
class TouchPointCloud:
    """Taxel readings mapped into the hand base frame.

    ``positions[k]`` is taxel k's world position; ``pressures``,
    ``finger_index``, ``rows`` and ``cols`` are aligned with it.
    """

    positions: np.ndarray     # (N, 3)
    pressures: np.ndarray     # (N,)
    finger_index: np.ndarray  # (N,) int
    rows: np.ndarray          # (N,) int
    cols: np.ndarray          # (N,) int

    def __len__(self):
        return self.positions.shape[0]


def taxel_point_cloud(model, q, readings, threshold=None):
    """Build the touch point cloud for one configuration and pressure set.

    Args:
        model: hand model with taxel layouts.
        q: joint vector.
        readings: dict mapping finger index to a (rows, cols) pressure
            array matching that finger's taxel layout.
        threshold: if None, keep every taxel; otherwise keep only taxels
            with reading strictly greater than this value.

    Returns:
        TouchPointCloud in the hand base frame, taxels ordered by finger,
        then row-major within each grid.
    """
    q = _coerce_q(model, q)
    with_taxels = [i for i, f in enumerate(model.fingers) if f.taxels is not None]
    missing = set(with_taxels) - set(readings)
    extra = set(readings) - set(with_taxels)
    if missing or extra:
        raise ValueError(f"readings keys must match taxel-bearing fingers {with_taxels}, "
                         f"missing {sorted(missing)}, unexpected {sorted(extra)}")
    positions, pressures, fidx, rows, cols = [], [], [], [], []
    for i in with_taxels:
        f = model.fingers[i]
        layout = f.taxels
        grid = np.asarray(readings[i], dtype=float)
        if grid.shape != (layout.rows, layout.cols):
            raise ValueError(f"finger {i} readings have shape {grid.shape}, "
                             f"layout is {(layout.rows, layout.cols)}")
        rots, trans, _ = _chain_state(model, i, q[model.finger_slice(i)])
        # taxels ride the distal link
        world = trans[-1] + layout.positions @ rots[-1].T
        flat = grid.reshape(-1)
        keep = np.ones(flat.shape, dtype=bool) if threshold is None else flat > threshold
        r_idx, c_idx = np.divmod(np.arange(flat.size), layout.cols)
        positions.append(world[keep])
        pressures.append(flat[keep])
        fidx.append(np.full(int(keep.sum()), i, dtype=int))
        rows.append(r_idx[keep])
        cols.append(c_idx[keep])
    return TouchPointCloud(
        positions=np.concatenate(positions) if positions else np.zeros((0, 3)),
        pressures=np.concatenate(pressures) if pressures else np.zeros(0),
        finger_index=np.concatenate(fidx) if fidx else np.zeros(0, dtype=int),
        rows=np.concatenate(rows) if rows else np.zeros(0, dtype=int),
        cols=np.concatenate(cols) if cols else np.zeros(0, dtype=int),
    )


def batch_keypoint_positions(model, frame, q_batch):
    """Positions of one keypoint frame for a batch of per-finger joint vectors.

    Args:
        model: hand model.
        frame: (finger, keypoint) pair.
        q_batch: (B, finger.dof) joint angles for that finger's chain only.

    Returns:
        (B, 3) positions in the hand base frame.
    """
    i, j = frame
    kp = model.keypoint(i, j)
    q_batch = np.asarray(q_batch, dtype=float)
    dof = model.fingers[i].dof
    if q_batch.ndim != 2 or q_batch.shape[1] != dof:
        raise ValueError(f"q_batch must be (B, {dof}), got {q_batch.shape}")
    out = np.empty((q_batch.shape[0], 3))
    for start in range(0, q_batch.shape[0], _BATCH_ROWS):
        rows = slice(start, start + _BATCH_ROWS)
        out[rows] = _point(_chain_state(model, i, q_batch[rows], kp.link), kp)
    return out
