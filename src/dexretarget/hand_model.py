"""Kinematic hand models loaded from YAML documents.

A model document describes serial finger chains rooted at the hand base,
each a list of joints in order from base to tip, the keypoint frames
attached to the base or a joint, listed by index, and optional fingertip
taxel grids.  Loaded models are immutable: all arrays are frozen and the
dataclasses carry no setters.  Units are meters and radians throughout.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import yaml

AXIS_UNIT_TOL = 1e-9

BASE_LINK = "base"


class ModelError(Exception):
    """A hand model document failed to parse or validate."""


def _freeze(a, dtype=float):
    a = np.ascontiguousarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


def _vec3(value, where):
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ModelError(f"{where}: expected a 3-vector, got {value!r}") from None
    if v.shape != (3,) or not np.all(np.isfinite(v)):
        raise ModelError(f"{where}: expected a finite 3-vector, got {value!r}")
    return v


def rpy_matrix(roll, pitch, yaw):
    """Rotation matrix from fixed-axis roll/pitch/yaw angles (x, then y, then z)."""
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry @ rx


@dataclass(frozen=True)
class Joint:
    """One revolute joint: fixed offset from the previous link, then rotation about ``axis``."""

    name: str
    axis: np.ndarray                # unit 3-vector, previous link frame
    origin_translation: np.ndarray  # previous link frame, meters
    origin_rotation: np.ndarray     # 3x3, applied after the translation
    lower: float
    upper: float


@dataclass(frozen=True)
class Keypoint:
    """A named frame on one link, identified by its per-finger index j."""

    index: int
    name: str
    link: int          # number of chain joints preceding the frame; 0 = palm
    offset: np.ndarray


@dataclass(frozen=True)
class TaxelLayout:
    """Fingertip pressure-cell grid expressed in the distal link frame."""

    rows: int
    cols: int
    positions: np.ndarray  # (rows * cols, 3), row-major over (row, col)


@dataclass(frozen=True)
class Finger:
    name: str
    joints: tuple[Joint, ...]
    keypoints: tuple[Keypoint, ...]
    taxels: TaxelLayout | None
    dof_offset: int  # index of this finger's first joint in the global q vector

    @property
    def dof(self):
        return len(self.joints)

    @property
    def tip_index(self):
        return self.keypoints[-1].index


# Every finger's chain stacked into (F, D, ...) arrays, D the longest chain,
# for one walk over the whole hand: joint origin offsets and rotations, axes
# with their Rodrigues terms K and K @ K, each joint's place in q, and in
# (F, M) arrays, M the most keypoints on a finger, keypoint (i, j)'s link and
# offset.  Shorter chains end in identity joints (zero axis and offset,
# identity rotation) turning by a zero appended to q, past every keypoint.
ChainStack = namedtuple("ChainStack", "translation rotation axis skew skew_sq q_index link offset")


@dataclass(frozen=True)
class HandModel:
    """Immutable hand description: fingers, keypoint frames, taxel grids.

    ``fingers[0]`` is the thumb by convention for multi-finger hands; the
    global joint vector q concatenates per-finger joints in declaration
    order.
    """

    name: str
    fingers: tuple[Finger, ...]
    total_dof: int
    rest_pose: np.ndarray
    lower_limits: np.ndarray  # (total_dof,), joint order of q
    upper_limits: np.ndarray
    chains: ChainStack

    def finger_slice(self, i):
        """Slice of the global q vector owned by finger ``i``."""
        f = self.fingers[i]
        return slice(f.dof_offset, f.dof_offset + f.dof)

    def keypoint(self, i, j):
        """Keypoint ``j`` of finger ``i``; the loader stores each finger's
        keypoints by index, contiguous from 0, so ``j`` is a position."""
        if not (0 <= i < len(self.fingers) and 0 <= j < len(self.fingers[i].keypoints)):
            raise KeyError(f"no keypoint ({i}, {j}) in model {self.name!r}")
        return self.fingers[i].keypoints[j]

    def keypoint_ids(self):
        """All (finger, keypoint) index pairs, finger-major."""
        return [(i, kp.index) for i, f in enumerate(self.fingers) for kp in f.keypoints]

    def keypoint_counts(self):
        """Number of keypoints per finger (n_i + 1, counting the j = 0 root)."""
        return tuple(len(f.keypoints) for f in self.fingers)


def _stack_chains(fingers, total_dof):
    depth, width = max(f.dof for f in fingers), max(len(f.keypoints) for f in fingers)
    pad = Joint("", np.zeros(3), np.zeros(3), np.eye(3), 0.0, 0.0)
    joints = [f.joints + (pad,) * (depth - f.dof) for f in fingers]
    kps = [f.keypoints + (Keypoint(0, "", 0, np.zeros(3)),) * (width - len(f.keypoints))
           for f in fingers]
    trans, rot, axis = (np.array([[getattr(j, a) for j in c] for c in joints])
                        for a in ("origin_translation", "origin_rotation", "axis"))
    kx, ky, kz, zero = *np.moveaxis(axis, -1, 0), np.zeros(axis.shape[:2])
    skew = np.stack([zero, -kz, ky, kz, zero, -kx, -ky, kx, zero], -1).reshape(rot.shape)
    q_index = [[f.dof_offset + k if k < f.dof else total_dof for k in range(depth)] for f in fingers]
    link, offset = ([[getattr(kp, a) for kp in c] for c in kps] for a in ("link", "offset"))
    return ChainStack(*map(_freeze, (trans, rot, axis, skew, skew @ skew)), _freeze(q_index, int),
                      _freeze(link, int), _freeze(offset))


def _build_joint(raw, prev, where):
    """Joint from one ``joints`` entry; ``prev`` names the joint before it, or 'base'."""
    if not isinstance(raw, dict):
        raise ModelError(f"{where}: joint entry must be a mapping")
    try:
        name = str(raw["name"])
        axis = _vec3(raw["axis"], f"{where}.axis")
        trans = _vec3(raw["origin_translation"], f"{where}.origin_translation")
        limits = raw["limits"]
    except KeyError as e:
        raise ModelError(f"{where}: missing required field {e.args[0]!r}") from None
    parent = str(raw.get("parent", prev))
    if parent != prev:
        raise ModelError(f"{where}: joint {name!r} names parent {parent!r}, but joints are listed "
                         f"base to tip, so its parent is the previous joint {prev!r}")
    norm = np.linalg.norm(axis)
    if abs(norm - 1.0) > AXIS_UNIT_TOL:
        raise ModelError(f"{where}.axis: |axis| = {norm:.12g}, must be 1 within {AXIS_UNIT_TOL}")
    rpy = raw.get("origin_rotation", [0.0, 0.0, 0.0])
    rot = rpy_matrix(*_vec3(rpy, f"{where}.origin_rotation"))
    try:
        lower, upper = float(limits[0]), float(limits[1])
    except (TypeError, ValueError, IndexError):
        raise ModelError(f"{where}.limits: expected [lower, upper], got {limits!r}") from None
    if not (math.isfinite(lower) and math.isfinite(upper) and lower < upper):
        raise ModelError(f"{where}.limits: lower must be < upper, got [{lower}, {upper}]")
    return Joint(name, _freeze(axis), _freeze(trans), _freeze(rot), lower, upper)


def _build_keypoints(raw_list, chain, finger_name):
    depth_of = {BASE_LINK: 0} | {j.name: k + 1 for k, j in enumerate(chain)}
    kps = []
    for n, raw in enumerate(raw_list):
        where = f"fingers[{finger_name}].keypoints[{n}]"
        if not isinstance(raw, dict):
            raise ModelError(f"{where}: keypoint entry must be a mapping")
        try:
            index = int(raw["index"])
            attached = str(raw["attached_to"])
        except KeyError as e:
            raise ModelError(f"{where}: missing required field {e.args[0]!r}") from None
        except (TypeError, ValueError):
            raise ModelError(f"{where}.index: expected an integer, got {raw['index']!r}") from None
        if attached not in depth_of:
            raise ModelError(f"{where}: attached_to {attached!r} names no joint of the finger or 'base'")
        offset = _vec3(raw.get("offset", [0.0, 0.0, 0.0]), f"{where}.offset")
        kps.append(Keypoint(index, str(raw.get("name", f"{finger_name}_{index}")),
                            depth_of[attached], _freeze(offset)))
    indices = [kp.index for kp in kps]
    if indices != list(range(len(kps))):
        raise ModelError(f"finger {finger_name!r}: keypoints must be listed by index, "
                         f"contiguous from 0, got {indices}")
    if len(kps) < 2:
        raise ModelError(f"finger {finger_name!r}: need at least 2 keypoints (root and tip)")
    return tuple(kps)


def _build_taxels(raw, where):
    try:
        rows, cols = int(raw["rows"]), int(raw["cols"])
        origin = _vec3(raw["origin"], f"{where}.origin")
        row_step = _vec3(raw["row_step"], f"{where}.row_step")
        col_step = _vec3(raw["col_step"], f"{where}.col_step")
    except KeyError as e:
        raise ModelError(f"{where}: missing required field {e.args[0]!r}") from None
    except (TypeError, ValueError):
        raise ModelError(f"{where}: rows and cols must be integers, got "
                         f"{raw['rows']!r}x{raw['cols']!r}") from None
    if rows <= 0 or cols <= 0:
        raise ModelError(f"{where}: rows and cols must be positive, got {rows}x{cols}")
    r_idx, c_idx = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    pos = origin + r_idx.reshape(-1, 1) * row_step + c_idx.reshape(-1, 1) * col_step
    return TaxelLayout(rows, cols, _freeze(pos))


def load_hand_model(document):
    """Build a validated HandModel from YAML document text.

    Args:
        document: YAML text with fields ``name``, ``fingers[].joints[]``,
            ``fingers[].keypoints[]``, optional ``taxel_layouts[]`` and
            ``rest_pose``.

    Returns:
        HandModel with frozen arrays.

    Raises:
        ModelError: on YAML syntax errors (with line info) or any failed
            validation (limits, axis norms, joint order, keypoint indexing).
    """
    try:
        raw = yaml.safe_load(document)
    except yaml.YAMLError as e:
        raise ModelError(f"document is not valid YAML: {e}") from None
    if not isinstance(raw, dict):
        raise ModelError("document root must be a mapping")
    name = str(raw.get("name", "unnamed"))
    raw_fingers = raw.get("fingers")
    if not isinstance(raw_fingers, list) or not raw_fingers:
        raise ModelError("document must declare a non-empty 'fingers' list")

    fingers = []
    dof_offset = 0
    seen_names = set()
    for fi, rf in enumerate(raw_fingers):
        if not isinstance(rf, dict) or "name" not in rf:
            raise ModelError(f"fingers[{fi}]: entry must be a mapping with a 'name'")
        fname = str(rf["name"])
        if fname in seen_names:
            raise ModelError(f"fingers[{fi}]: duplicate finger name {fname!r}")
        seen_names.add(fname)
        raw_joints = rf.get("joints")
        if not isinstance(raw_joints, list) or not raw_joints:
            raise ModelError(f"fingers[{fi}] ({fname}): needs a non-empty 'joints' list")
        chain = []
        for ji, rj in enumerate(raw_joints):
            prev = chain[-1].name if chain else BASE_LINK
            chain.append(_build_joint(rj, prev, f"fingers[{fname}].joints[{ji}]"))
        kps = _build_keypoints(rf.get("keypoints", []), chain, fname)
        fingers.append(Finger(fname, tuple(chain), kps, None, dof_offset))
        dof_offset += len(chain)

    by_name = {f.name: i for i, f in enumerate(fingers)}
    for ti, rt in enumerate(raw.get("taxel_layouts", []) or []):
        where = f"taxel_layouts[{ti}]"
        if not isinstance(rt, dict) or "finger" not in rt:
            raise ModelError(f"{where}: entry must be a mapping with a 'finger'")
        fname = str(rt["finger"])
        if fname not in by_name:
            raise ModelError(f"{where}: unknown finger {fname!r}")
        i = by_name[fname]
        if fingers[i].taxels is not None:
            raise ModelError(f"{where}: finger {fname!r} already has a taxel layout")
        layout = _build_taxels(rt, where)
        f = fingers[i]
        fingers[i] = Finger(f.name, f.joints, f.keypoints, layout, f.dof_offset)

    total_dof = dof_offset
    rest = raw.get("rest_pose")
    if rest is None:
        rest_pose = np.zeros(total_dof)
    else:
        try:
            rest_pose = np.asarray(rest, dtype=float)
        except (TypeError, ValueError):
            raise ModelError(f"rest_pose: expected {total_dof} numbers, got {rest!r}") from None
        if rest_pose.shape != (total_dof,):
            raise ModelError(f"rest_pose: expected {total_dof} values, got shape {rest_pose.shape}")
    lo = np.array([j.lower for f in fingers for j in f.joints])
    hi = np.array([j.upper for f in fingers for j in f.joints])
    if not np.all((rest_pose >= lo) & (rest_pose <= hi)):
        raise ModelError("rest_pose: values must lie within joint limits")
    return HandModel(name, tuple(fingers), total_dof, _freeze(rest_pose), _freeze(lo), _freeze(hi),
                     _stack_chains(fingers, total_dof))


def load_hand_model_file(path):
    """Load a hand model from a document on disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_hand_model(fh.read())
