"""Dexterity metrics: manipulability ellipsoid volume and finger-to-thumb
opposability volume.

Manipulability uses the 3 x n linear (or angular) Jacobian block J_b of a
tip frame: volume = (4 pi / 3) * sqrt(det(J_b J_b^T)), zero at
singularities.  Opposability voxelizes Monte-Carlo samples of two tip
workspaces and measures the shared voxel volume.  Lengths are meters
internally; reported volumes are mm^3 for the linear/positional case
(angular volumes stay in rad^3).
"""

from __future__ import annotations

import numpy as np

from .kinematics import batch_keypoint_positions, jacobian
from .schema import COUNT, POSITIVE, SEED, require

GRAM_DET_EPS = 1e-18   # Gram determinants below this count as singular
M3_TO_MM3 = 1e9
DEFAULT_SAMPLES = 100_000
DEFAULT_VOXEL_MM = 2.0
# samples per RNG substream: the chunks fix the draws, so volumes do not
# depend on how the kinematics batches them (_BATCH_ROWS)
SAMPLE_CHUNK = 65_536
_VOXEL_PACK_BITS = 21  # voxel index packing: 3 signed 21-bit lanes in an int64


class VoxelRangeError(ValueError):
    """A workspace spans more voxels than the key packing holds."""


def manipulability_volume(model, q, frame, kind="linear"):
    """Ellipsoid volume swept by unit joint velocities at one tip frame.

    Args:
        model: hand model.
        q: joint vector.
        frame: (finger, keypoint) pair, normally a fingertip.
        kind: "linear" (mm^3) or "angular" (rad^3).

    Returns:
        (4 pi / 3) sqrt(det(J_b J_b^T)); exactly 0.0 when the Gram
        determinant falls below GRAM_DET_EPS or is nan.
    """
    if kind not in ("linear", "angular"):
        raise ValueError(f"kind must be 'linear' or 'angular', got {kind!r}")
    jac = jacobian(model, q, frame)
    block = jac[:3] if kind == "linear" else jac[3:]
    gram = block @ block.T
    with np.errstate(divide="ignore", invalid="ignore"):  # LU of a subnormal entry divides by 0
        det = float(np.linalg.det(gram))
    if not det >= GRAM_DET_EPS:
        return 0.0
    volume = (4.0 * np.pi / 3.0) * np.sqrt(det)
    return float(volume * M3_TO_MM3) if kind == "linear" else float(volume)


def _pack_voxels(pts, voxel):
    """Pack the voxels holding ``pts`` into sortable int64 keys."""
    offset = 1 << (_VOXEL_PACK_BITS - 1)
    with np.errstate(over="ignore"):  # a point this far out is past the range either way
        idx = np.floor(pts / voxel)
    if not (np.all(idx >= -offset) and np.all(idx < offset)):  # nan fails too
        raise VoxelRangeError("workspace extends past the packable voxel range")
    shifted = idx.astype(np.int64) + offset
    return ((shifted[:, 0] << (2 * _VOXEL_PACK_BITS))
            | (shifted[:, 1] << _VOXEL_PACK_BITS)
            | shifted[:, 2])


def _workspace_voxels(model, frame, samples, voxel, seed):
    """Sorted unique voxel keys reached by one tip frame under uniform
    joint sampling.

    Sampling is split into fixed-size chunks, each drawn from a substream
    keyed by (seed, finger, chunk); unions are order-independent, so the
    result does not depend on how chunks are scheduled.  Each chunk's keys
    join the voxels kept so far at once, so memory grows with the voxels
    reached, not with ``samples``.
    """
    i, _ = frame
    sl = model.finger_slice(i)
    lo = model.lower_limits[sl]
    hi = model.upper_limits[sl]
    keys = np.empty(0, dtype=np.int64)
    for chunk, start in enumerate(range(0, samples, SAMPLE_CHUNK)):
        rng = np.random.default_rng([seed, i, chunk])
        q_batch = rng.uniform(lo, hi, size=(min(SAMPLE_CHUNK, samples - start), lo.size))
        pts = batch_keypoint_positions(model, frame, q_batch)
        # one sort and a neighbour comparison: numpy 2.4's np.unique hashes the
        # keys, about ten times slower on a 10,000-sample workspace
        keys = np.sort(np.concatenate((keys, _pack_voxels(pts, voxel))))
        keys = keys[np.append(True, keys[1:] != keys[:-1])]
    return keys


def opposability_volume(model, thumb_frame, finger_frame, samples=DEFAULT_SAMPLES,
                        voxel_mm=DEFAULT_VOXEL_MM, seed=0):
    """Volume reachable by both tip frames, in mm^3.

    Args:
        model: hand model.
        thumb_frame: (finger, keypoint) pair for the first tip.
        finger_frame: (finger, keypoint) pair for the second tip.
        samples: Monte-Carlo joint samples per chain.
        voxel_mm: voxel edge length in millimeters.
        seed: RNG seed; identical seeds give identical volumes.

    Returns:
        (shared voxel count) * voxel_mm^3.
    """
    return opposability_volumes(model, thumb_frame, [finger_frame], samples, voxel_mm, seed)[0]


def opposability_volumes(model, thumb_frame, finger_frames, samples=DEFAULT_SAMPLES,
                         voxel_mm=DEFAULT_VOXEL_MM, seed=0):
    """:func:`opposability_volume` of the thumb frame against each of
    ``finger_frames``, sampling the thumb's workspace once."""
    require(COUNT, "samples", samples, ValueError)
    require(POSITIVE, "voxel_mm", voxel_mm, ValueError)
    require(SEED, "seed", seed, ValueError)
    voxel = voxel_mm * 1e-3
    # substreams keyed by finger index: sampling a chain against itself
    # reuses the same draws, so self-intersection is exactly its workspace
    thumb = _workspace_voxels(model, thumb_frame, samples, voxel, seed)
    volumes = []
    for frame in finger_frames:
        other = thumb if tuple(frame) == tuple(thumb_frame) else \
            _workspace_voxels(model, frame, samples, voxel, seed)
        shared = np.intersect1d(thumb, other, assume_unique=True)
        volumes.append(float(shared.size) * voxel_mm ** 3)
    return volumes
