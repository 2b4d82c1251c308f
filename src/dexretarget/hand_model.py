"""Kinematic hand models loaded from YAML documents.

A model document describes serial finger chains rooted at the hand base,
each a list of uniquely named joints in order from base to tip, the
keypoint frames attached to the base or a joint, listed by index, and
optional fingertip taxel grids; a key no entry accepts is an error.  A
loaded model keeps its chains only as the stacked arrays of
``HandModel.chains`` plus per-finger joint and keypoint counts.  Loaded
models are immutable: all arrays are frozen and the dataclasses carry no
setters.  Units are meters and radians throughout.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

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


def _check_keys(raw, accepted, where):
    """Raise ModelError for the first key of mapping ``raw`` not in ``accepted``."""
    for key in raw:
        if key not in accepted:
            raise ModelError(f"{where}: unknown key {key!r}, expected one of {', '.join(accepted)}")


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
class TaxelLayout:
    """Fingertip pressure-cell grid expressed in the distal link frame."""

    rows: int
    cols: int
    positions: np.ndarray  # (rows * cols, 3), row-major over (row, col)


@dataclass(frozen=True)
class Finger:
    name: str
    dof: int
    keypoint_count: int  # keypoints 0..keypoint_count - 1, root to tip
    taxels: TaxelLayout | None
    dof_offset: int  # index of this finger's first joint in the global q vector

    @property
    def tip_index(self):
        return self.keypoint_count - 1


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
        """(link, offset) of keypoint ``j`` of finger ``i``: the number of
        chain joints before its frame (0 = palm) and its fixed offset in
        that link's frame."""
        if not (0 <= i < len(self.fingers) and 0 <= j < self.fingers[i].keypoint_count):
            raise KeyError(f"no keypoint ({i}, {j}) in model {self.name!r}")
        return self.chains.link[i, j], self.chains.offset[i, j]

    def keypoint_ids(self):
        """All (finger, keypoint) index pairs, finger-major."""
        return [(i, j) for i, f in enumerate(self.fingers) for j in range(f.keypoint_count)]

    def keypoint_counts(self):
        """Number of keypoints per finger (n_i + 1, counting the j = 0 root)."""
        return tuple(f.keypoint_count for f in self.fingers)


def _stack_rows(rows, length, pad):
    """Each finger's list of rows, padded with ``pad`` to ``length``, as one
    (F, length, ...) array per field of a row."""
    fields = [zip(*(r + [pad] * (length - len(r)))) for r in rows]  # per finger
    return [np.array(field) for field in zip(*fields)]


def _stack_chains(fingers, joints, keypoints, total_dof):
    """ChainStack of the fingers' joint rows (name, axis, translation,
    rotation, limits) and keypoint rows (link, offset)."""
    depth, width = max(f.dof for f in fingers), max(f.keypoint_count for f in fingers)
    identity_joint = ("", np.zeros(3), np.zeros(3), np.eye(3), (0.0, 0.0))
    _, axis, trans, rot, _ = _stack_rows(joints, depth, identity_joint)
    link, offset = _stack_rows(keypoints, width, (0, np.zeros(3)))  # padding on the palm
    kx, ky, kz, zero = *np.moveaxis(axis, -1, 0), np.zeros(axis.shape[:2])
    skew = np.stack([zero, -kz, ky, kz, zero, -kx, -ky, kx, zero], -1).reshape(rot.shape)
    q_index = [[f.dof_offset + k if k < f.dof else total_dof for k in range(depth)] for f in fingers]
    return ChainStack(*map(_freeze, (trans, rot, axis, skew, skew @ skew)), _freeze(q_index, int),
                      _freeze(link, int), _freeze(offset))


def _build_joint(raw, earlier, where):
    """One ``joints`` entry's row (name, axis, translation, rotation,
    (lower, upper)); ``earlier`` names the finger's joints listed before it."""
    if not isinstance(raw, dict):
        raise ModelError(f"{where}: joint entry must be a mapping")
    _check_keys(raw, ("name", "parent", "axis", "origin_translation", "origin_rotation", "limits"),
                where)
    try:
        name = str(raw["name"])
        axis = _vec3(raw["axis"], f"{where}.axis")
        trans = _vec3(raw["origin_translation"], f"{where}.origin_translation")
        limits = raw["limits"]
    except KeyError as e:
        raise ModelError(f"{where}: missing required field {e.args[0]!r}") from None
    if name == BASE_LINK:
        raise ModelError(f"{where}: joint {name!r} takes the name reserved for the palm")
    if name in earlier:
        raise ModelError(f"{where}: joint {name!r} repeats an earlier joint's name; "
                         f"joint names are unique within a finger")
    prev = earlier[-1] if earlier else BASE_LINK
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
    return name, axis, trans, rot, (lower, upper)


def _build_keypoints(raw_list, joint_names, finger_name):
    """Each ``keypoints`` entry's (link, offset), the link resolved from
    ``attached_to`` against 'base' and the finger's ``joint_names``."""
    if not isinstance(raw_list, list):
        raise ModelError(f"fingers[{finger_name}].keypoints: expected a list of keypoint "
                         f"entries, got {raw_list!r}")
    depth_of = {BASE_LINK: 0} | {name: k + 1 for k, name in enumerate(joint_names)}
    indices, kps = [], []
    for n, raw in enumerate(raw_list):
        where = f"fingers[{finger_name}].keypoints[{n}]"
        if not isinstance(raw, dict):
            raise ModelError(f"{where}: keypoint entry must be a mapping")
        _check_keys(raw, ("index", "name", "attached_to", "offset"), where)
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
        indices.append(index)
        kps.append((depth_of[attached], offset))
    if indices != list(range(len(kps))):
        raise ModelError(f"finger {finger_name!r}: keypoints must be listed by index, "
                         f"contiguous from 0, got {indices}")
    if len(kps) < 2:
        raise ModelError(f"finger {finger_name!r}: need at least 2 keypoints (root and tip)")
    return kps


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
            ``rest_pose``.  A keypoint's ``name`` is accepted but not kept.

    Returns:
        HandModel whose joints and keypoints live in the frozen arrays of
        its ``chains``, each finger keeping only its counts.

    Raises:
        ModelError: on YAML syntax errors (with line info) or any failed
            validation (unknown keys, limits, axis norms, joint names and
            order, keypoint indexing).
    """
    try:
        raw = yaml.safe_load(document)
    except yaml.YAMLError as e:
        raise ModelError(f"document is not valid YAML: {e}") from None
    if not isinstance(raw, dict):
        raise ModelError("document root must be a mapping")
    _check_keys(raw, ("name", "fingers", "taxel_layouts", "rest_pose"), "document")
    name = str(raw.get("name", "unnamed"))
    raw_fingers = raw.get("fingers")
    if not isinstance(raw_fingers, list) or not raw_fingers:
        raise ModelError("document must declare a non-empty 'fingers' list")

    fingers, joints, keypoints = [], [], []
    dof_offset = 0
    seen_names = set()
    for fi, rf in enumerate(raw_fingers):
        if not isinstance(rf, dict) or "name" not in rf:
            raise ModelError(f"fingers[{fi}]: entry must be a mapping with a 'name'")
        fname = str(rf["name"])
        if fname in seen_names:
            raise ModelError(f"fingers[{fi}]: duplicate finger name {fname!r}")
        seen_names.add(fname)
        _check_keys(rf, ("name", "joints", "keypoints"), f"fingers[{fname}]")
        raw_joints = rf.get("joints")
        if not isinstance(raw_joints, list) or not raw_joints:
            raise ModelError(f"fingers[{fi}] ({fname}): needs a non-empty 'joints' list")
        chain, names = [], []
        for ji, rj in enumerate(raw_joints):
            chain.append(_build_joint(rj, names, f"fingers[{fname}].joints[{ji}]"))
            names.append(chain[-1][0])
        kps = _build_keypoints(rf.get("keypoints", []), names, fname)
        fingers.append(Finger(fname, len(chain), len(kps), None, dof_offset))
        joints.append(chain)
        keypoints.append(kps)
        dof_offset += len(chain)

    by_name = {f.name: i for i, f in enumerate(fingers)}
    raw_taxels = raw.get("taxel_layouts")  # an empty entry declares no layouts
    if raw_taxels is not None and not isinstance(raw_taxels, list):
        raise ModelError(f"taxel_layouts: expected a list of layout entries, got {raw_taxels!r}")
    for ti, rt in enumerate(raw_taxels or []):
        where = f"taxel_layouts[{ti}]"
        if not isinstance(rt, dict) or "finger" not in rt:
            raise ModelError(f"{where}: entry must be a mapping with a 'finger'")
        _check_keys(rt, ("finger", "rows", "cols", "origin", "row_step", "col_step"), where)
        fname = str(rt["finger"])
        if fname not in by_name:
            raise ModelError(f"{where}: unknown finger {fname!r}")
        i = by_name[fname]
        if fingers[i].taxels is not None:
            raise ModelError(f"{where}: finger {fname!r} already has a taxel layout")
        fingers[i] = replace(fingers[i], taxels=_build_taxels(rt, where))

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
    lo, hi = np.array([limits for chain in joints for *_, limits in chain]).T
    if not np.all((rest_pose >= lo) & (rest_pose <= hi)):
        raise ModelError("rest_pose: values must lie within joint limits")
    return HandModel(name, tuple(fingers), total_dof, _freeze(rest_pose), _freeze(lo), _freeze(hi),
                     _stack_chains(fingers, joints, keypoints, total_dof))


def load_hand_model_file(path):
    """Load a hand model from a document on disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_hand_model(fh.read())
