"""Forward kinematics, Jacobians, motor couplings, and taxel point clouds.

All poses are expressed in the hand base frame, meters and radians.  A
finger chain applies, per joint k: the fixed parent offset (translation,
then rotation), then the revolute rotation about the joint axis.
"""

from __future__ import annotations

from collections import namedtuple
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


def _apply(m, v):
    """Matrices ``m`` (..., 3, 3) times vectors ``v``: one (..., 3) vector
    each, or one (3,) vector shared by all, applied as one flat product."""
    if v.ndim == 1:  # a stacked product would make one BLAS call per matrix
        return (m.reshape(-1, 3) @ v).reshape(m.shape[:-1])
    return (m @ v[..., None])[..., 0]


def _compose(r, m):
    """Rotations ``r`` (..., 3, 3) times ``m``: one (..., 3, 3) matrix each,
    or one (3, 3) matrix shared by all, applied as one flat product."""
    if m.ndim == 2:
        return (r.reshape(-1, 3) @ m).reshape(r.shape)
    return r @ m


def _chain_state(model, finger, q, depth=None):
    """Walk chains at joint angles ``q``: finger ``finger``'s (dof,) or
    (B, dof) angles, or, with ``finger`` None, every finger at once from the
    hand's (total_dof,) q, stacked into the (F, D) layout of ``model.chains``.

    Returns:
        (rots, trans, frames): lists of the link rotations and translations
        for links 0..depth (link 0 is the palm; depth defaults to the
        joints in ``q``) and of the joint frames, the rotation in which
        joint k's axis is expressed, for joints 0..depth-1.  Joint k's
        origin is ``trans[k + 1]``.  Entries carry the batch or finger
        dimension once a joint angle has entered them.
    """
    c = model.chains
    r, t = _EYE, _ZERO
    if finger is None:  # padding joints turn by a zero appended to q
        finger, q = slice(None), np.append(q, 0.0)[c.q_index]
        r, t = np.broadcast_to(_EYE, (len(q), 3, 3)), np.broadcast_to(_ZERO, (len(q), 3))
    sin = np.sin(q)
    vers = 1.0 - np.cos(q)
    rots, trans, frames = [r], [t], []
    for k in range(q.shape[-1] if depth is None else depth):
        t = t + _apply(r, c.translation[finger, k])
        r = _compose(r, c.rotation[finger, k])
        frames.append(r)
        # Rodrigues: I + sin K + (1 - cos) K K.  Every step here is the same
        # elementwise or per-matrix product for one chain, a batch of one
        # chain and the stacked hand, so all three agree bit for bit.
        rodrigues = sin[..., k, None, None] * c.skew[finger, k]
        rodrigues += _EYE
        rodrigues += vers[..., k, None, None] * c.skew_sq[finger, k]
        r = r @ rodrigues
        rots.append(r)
        trans.append(t)
    return rots, trans, frames


# keypoints placed on a walk: (n, 3) positions, the (D, n, 3) world axes
# and origins of the D walked joints of each one's finger, (n,) links and
# (n, D) q columns of those joints (total_dof for padding)
KeypointGather = namedtuple("KeypointGather", "points axes origins links columns")


def _gather(model, state, keys, finger=None):
    """Place the (finger, keypoint) pairs ``keys`` on the walk ``state``: of
    the whole hand, or, given ``finger``, of that finger alone, which every
    key is then on."""
    c = model.chains
    fingers, index = np.asarray(keys, dtype=int).T
    rots, trans, frames = map(np.stack, state)
    axis, on = c.axis.swapaxes(0, 1), fingers  # on: each key's finger in the walk
    if finger is not None:  # give the walk the hand's finger dimension
        rots, trans, frames = rots[:, None], trans[:, None], frames[:, None]
        axis, on = c.axis[finger, :len(frames), None], np.zeros_like(fingers)
    links = c.link[fingers, index]
    points = trans[links, on] + _apply(rots[links, on], c.offset[fingers, index])
    axes = _apply(frames, axis)[:, on]
    return KeypointGather(points, axes, trans[1:, on], links, c.q_index[fingers, :len(frames)])


def linear_jacobian_block(at, n_dof):
    """(n, 3, n_dof) linear-velocity Jacobians of the n gathered points.

    Joint k of a point's finger fills its q column with ``axes[k] x
    (point - origin_k)`` while it precedes the point's link, else zero.
    """
    d = at.points - at.origins
    cross = at.axes[..., _NEXT] * d[..., _AFTER] - at.axes[..., _AFTER] * d[..., _NEXT]
    cross[np.arange(len(cross))[:, None] >= at.links] = 0.0
    block = np.zeros((len(at.links), 3, n_dof + 1))
    block[np.arange(len(at.links)), :, at.columns.T] = cross
    return block[..., :n_dof]


def forward_kinematics(model, q):
    """All keypoint positions at configuration q.

    Returns:
        dict mapping (finger, keypoint) index pairs to 3-vectors in the
        hand base frame.
    """
    keys = model.keypoint_ids()
    state = _chain_state(model, None, _coerce_q(model, q))
    return dict(zip(keys, _gather(model, state, keys).points))


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
    i = frame[0]
    link = model.keypoint(*frame).link
    q = _coerce_q(model, q)[model.finger_slice(i)]
    at = _gather(model, _chain_state(model, i, q), [frame], finger=i)
    jac = np.zeros((6, model.total_dof))
    jac[:3] = linear_jacobian_block(at, model.total_dof)[0]
    jac[3:, at.columns[0, :link]] = at.axes[:link, 0].T
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
    rots, trans, _ = _chain_state(model, None, q)
    parts = []
    for i in with_taxels:
        f = model.fingers[i]
        layout = f.taxels
        grid = np.asarray(readings[i], dtype=float)
        if grid.shape != (layout.rows, layout.cols):
            raise ValueError(f"finger {i} readings have shape {grid.shape}, "
                             f"layout is {(layout.rows, layout.cols)}")
        # taxels ride the distal link
        world = trans[f.dof][i] + layout.positions @ rots[f.dof][i].T
        flat = grid.reshape(-1)
        keep = np.ones(flat.shape, dtype=bool) if threshold is None else flat > threshold
        r_idx, c_idx = np.divmod(np.arange(flat.size), layout.cols)
        parts.append([a[keep] for a in (world, flat, np.full(flat.size, i), r_idx, c_idx)])
    empty = (np.zeros((0, 3)), np.zeros(0)) + (np.zeros(0, dtype=int),) * 3
    return TouchPointCloud(*(np.concatenate(column) for column in zip(empty, *parts)))


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
        rots, trans = _chain_state(model, i, q_batch[rows], kp.link)[:2]
        out[rows] = trans[-1] + _apply(rots[-1], kp.offset)
        del rots, trans  # the next walk then reuses this one's memory, still in cache
    return out
