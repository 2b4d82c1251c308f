"""Forward kinematics, Jacobians, and taxel point clouds.

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
_NEXT = np.array([1, 2, 0])  # index arrays: numpy converts a list on every use
_AFTER = np.array([2, 0, 1])


def _coerce_q(model, q):
    q = np.asarray(q, dtype=float)
    if q.shape != (model.total_dof,):
        raise ValueError(f"q has shape {q.shape}, model {model.name!r} expects ({model.total_dof},)")
    return q


def _apply(m, v):
    """Matrices ``m`` (..., 3, 3) times vectors ``v`` (..., 3), broadcast as
    one vector per matrix or one matrix over many vectors, or one (3,) vector
    shared by all matrices as one flat product.  The one product that turns
    offsets or axes by a link's rotation: a keypoint, a taxel and a batch's
    tip are each placed by it."""
    if v.ndim == 1:  # a stacked product would make one BLAS call per matrix
        return (m.reshape(-1, 3) @ v).reshape(m.shape[:-1])
    return (m @ v[..., None])[..., 0]


def _compose(r, m, out=None):
    """Rotations ``r`` (..., 3, 3) times one (3, 3) matrix ``m`` shared by
    all, applied as one flat product into a fresh array.  ``out`` is always
    None: the walk calls this where the whole hand's np.matmul writes into
    its buffers, so one call serves both layouts with no per-joint branch."""
    return (r.reshape(-1, 3) @ m).reshape(r.shape)


def _walk_buffers(model):
    """Fresh arrays for a whole-hand walk of ``model``: (D + 1, F, 3, 3) link
    rotations and (D + 1, F, 3) translations, link 0 the palm already set, and
    (D, F, 3, 3) joint frames."""
    f, d = model.chains.q_index.shape
    rots, trans = np.empty((d + 1, f, 3, 3)), np.empty((d + 1, f, 3))
    rots[0], trans[0] = _EYE, _ZERO
    return rots, trans, np.empty((d, f, 3, 3))


def _chain_state(model, finger, q, depth=None, out=None):
    """Walk chains from the palm in one loop, in one of two layouts: with
    ``finger`` None, the whole hand at one (total_dof,) ``q``, in the (F, D)
    layout of ``model.chains``, each link written into its rows of ``out``
    (a :func:`_walk_buffers` triple that the caller owns and may reuse) or
    of fresh buffers; else finger ``finger`` alone over a (B, dof) batch of
    its angles ``q``, each link a fresh array that the caller drops before
    its next slice, so that the allocator hands that slice the same memory.

    Returns:
        (rots, trans, frames): the link rotations and translations for
        links 0..depth (link 0 is the palm; depth defaults to the joints in
        ``q``, and is all D in the whole-hand layout) and the joint frames,
        the rotation in which joint k's axis is expressed, for joints
        0..depth-1.  Joint k's origin is ``trans[k + 1]``.  Entries carry the
        finger dimension, or the batch dimension once a joint angle has
        entered them.  The whole hand's are the stacked buffers, a batch's
        are lists.
    """
    c, compose = model.chains, _compose if finger is not None else np.matmul
    if finger is None:
        finger, q, out = slice(None), np.append(q, 0.0)[c.q_index], out or _walk_buffers(model)
    r, t = _EYE, _ZERO
    sin, vers = np.sin(q), 1.0 - np.cos(q)
    rots, trans, frames = [r], [t], []
    for k in range(q.shape[-1] if depth is None else depth):
        t = np.add(t, _apply(r, c.translation[finger, k]), out=out and out[1][k + 1])
        r = compose(r, c.rotation[finger, k], out=out and out[2][k])
        frames.append(r)
        # r (I + sin K + (1 - cos) K K) as two products, flat in a one-finger
        # batch and one per finger in the whole hand, summed in place (sin rK
        # + r has the bits of r + sin rK): both layouts agree bit for bit
        step = np.multiply(sin[..., k, None, None], compose(r, c.skew[finger, k]),
                           out=out and out[0][k + 1])
        step += r
        step += vers[..., k, None, None] * compose(r, c.skew_sq[finger, k])
        r = step
        rots.append(r)
        trans.append(t)
    return out or (rots, trans, frames)


# a gather's fixed part for (K, 2) slots: each slot's finger, link, offset
# and (K, D) q columns of its finger's joints (total_dof for padding), and
# where each entry of the (D, K, 3) joint cross products lands in the flat
# (K, 3, total_dof + 1) Jacobian block: a joint that does not precede its
# slot's link lands in the last column, which the block drops
SlotPlan = namedtuple("SlotPlan", "fingers links offsets columns scatter")


def _plan_slots(model, slots):
    """The :class:`SlotPlan` of ``slots``, a (K, 2) array of (finger, keypoint) pairs."""
    c, n = model.chains, model.total_dof
    fingers, index = np.asarray(slots, dtype=int).reshape(-1, 2).T
    links, columns = c.link[fingers, index], c.q_index[fingers]
    lands = np.where(np.arange(columns.shape[1]) < links[:, None], columns, n)
    rows = (np.arange(len(links))[:, None] * 3 + np.arange(3)) * (n + 1)
    return SlotPlan(fingers, links, c.offset[fingers, index], columns, rows + lands.T[..., None])


# keypoints placed on a whole-hand walk: (K, 3) positions, the (D, K, 3)
# world axes and origins of the D joints of each one's finger, and the
# slots' plan
KeypointGather = namedtuple("KeypointGather", "points axes origins plan")


def _gather(model, state, plan):
    """Place the keypoints of the :class:`SlotPlan` ``plan`` on the whole-hand walk ``state``."""
    rots, trans, frames = state
    fingers, links = plan.fingers, plan.links
    points = trans[links, fingers] + _apply(rots[links, fingers], plan.offsets)
    axes = _apply(frames, model.chains.axis.swapaxes(0, 1))[:, fingers]
    return KeypointGather(points, axes, trans[1:, fingers], plan)


def linear_jacobian_block(at, n_dof):
    """(K, 3, n_dof) linear-velocity Jacobians of the K gathered points.

    Joint k of a point's finger fills its q column with ``axes[k] x
    (point - origin_k)`` while it precedes the point's link, else zero.
    """
    d = at.points - at.origins
    cross = at.axes[..., _NEXT] * d[..., _AFTER] - at.axes[..., _AFTER] * d[..., _NEXT]
    block = np.zeros((len(at.points), 3, n_dof + 1))
    block.reshape(-1)[at.plan.scatter] = cross
    return block[..., :n_dof]


def forward_kinematics(model, q):
    """Every keypoint slot's position at configuration q.

    Returns:
        (F, M, 3) array on the slots of ``model.chains``: ``fk[i, j]`` is
        keypoint j of finger i in the hand base frame.  The slots past a
        finger's keypoint count are padding and exactly zero.
    """
    plan = _plan_slots(model, np.indices(model.chains.link.shape).reshape(2, -1).T)
    state = _chain_state(model, None, _coerce_q(model, q))
    return _gather(model, state, plan).points.reshape(model.chains.offset.shape)


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
    link, _ = model.keypoint(*frame)
    at = _gather(model, _chain_state(model, None, _coerce_q(model, q)), _plan_slots(model, [frame]))
    jac = np.zeros((6, model.total_dof))
    jac[:3] = linear_jacobian_block(at, model.total_dof)[0]
    jac[3:, at.plan.columns[0, :link]] = at.axes[:link, 0].T
    return jac


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
        # taxels ride the distal link, placed as a keypoint at their offsets would be
        world = trans[f.dof][i] + _apply(rots[f.dof][i], layout.positions)
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
    link, offset = model.keypoint(i, j)
    q_batch = np.asarray(q_batch, dtype=float)
    dof = model.fingers[i].dof
    if q_batch.ndim != 2 or q_batch.shape[1] != dof:
        raise ValueError(f"q_batch must be (B, {dof}), got {q_batch.shape}")
    out = np.empty((q_batch.shape[0], 3))
    for start in range(0, q_batch.shape[0], _BATCH_ROWS):
        rows = slice(start, start + _BATCH_ROWS)
        rots, trans = _chain_state(model, i, q_batch[rows], link)[:2]
        out[rows] = trans[-1] + _apply(rots[-1], offset)
        del rots, trans  # the next walk then reuses this one's memory, still in cache
    return out
