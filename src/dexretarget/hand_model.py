"""Kinematic hand models loaded from YAML documents.

A model document describes serial finger chains rooted at the hand base,
each a list of uniquely named joints in order from base to tip, the
keypoint frames attached to the base or a joint, listed by index, and
optional fingertip taxel grids, each entry checked against its table below.
A loaded model keeps its chains only as the stacked arrays of
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

from .schema import COUNT, FINITE, INTEGER, LOADER, NUMBERS, STRING, Kind, check, entries, numbers

AXIS_UNIT_TOL = 1e-9
MAX_LENGTH_M = 10.0  # bound on every length coordinate: a hand, even on an arm, sits within it
MAX_TAXELS = 65_536  # cells in one taxel grid

BASE_LINK = "base"


class ModelError(Exception):
    """A hand model document failed to parse or validate."""


def _freeze(a, dtype=float):
    a = np.array(a, dtype=dtype, order="C")  # a copy: the caller's array stays its own
    a.flags.writeable = False
    return a


def _vectors(raw, *keys):
    """Entry ``raw``'s 3-vectors under ``keys``, zero for an absent optional one."""
    return [np.array(raw.get(key, (0.0, 0.0, 0.0)), dtype=float) for key in keys]


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

    def keypoint_counts(self):
        """Number of keypoints per finger (n_i + 1, counting the j = 0 root)."""
        return tuple(f.keypoint_count for f in self.fingers)


def _limit_faults(name, q, lo, hi):
    """A message per angle of the joint vector ``q``, called ``name``, not within [lo, hi]."""
    for k in np.flatnonzero(~((lo <= q) & (q <= hi))):  # a NaN never is
        yield (f"{name}: values must lie within joint limits; joint {k} is {q[k]:g}, "
               f"outside [{lo[k]:g}, {hi[k]:g}]")


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


_FINITE3 = numbers(3, FINITE)
_LENGTHS = numbers(3, Kind(f"at most {MAX_LENGTH_M:g} m in magnitude",
                           lambda v: abs(v) <= MAX_LENGTH_M))
# the span of the floats the joint keeps: integer limits whose float span overflows have none
_LIMITS = Kind("2 numbers, lower < upper, a finite span apart", lambda v: numbers(2).test(v)
               and 0.0 < float(v[1]) - float(v[0]) < math.inf)
_JOINT = {"name": (STRING, True), "parent": (STRING, False), "axis": (_FINITE3, True),
          "origin_translation": (_LENGTHS, True), "origin_rotation": (_FINITE3, False),
          "limits": (_LIMITS, True)}
_KEYPOINT = {"index": (INTEGER, True), "name": (STRING, False), "attached_to": (STRING, True),
             "offset": (_LENGTHS, False)}
_FINGER = {"name": (STRING, True), "joints": (entries(_JOINT, "a list of joint entries"), True),
           "keypoints": (entries(_KEYPOINT, "a list of keypoint entries"), True)}
_TAXELS = {"finger": (STRING, True), "rows": (COUNT, True), "cols": (COUNT, True),
           "origin": (_LENGTHS, True), "row_step": (_LENGTHS, True), "col_step": (_LENGTHS, True)}
_DOCUMENT = {"name": (STRING, False),
             "fingers": (entries(_FINGER, "a list of finger entries", label="name"), True),
             "taxel_layouts": (entries(_TAXELS, "a list of layout entries"), False),
             "rest_pose": (NUMBERS, False)}


def _build_joint(raw, earlier, where):
    """One ``joints`` entry's row (name, axis, translation, rotation,
    (lower, upper)); ``earlier`` names the finger's joints listed before it."""
    name = raw["name"]
    if name == BASE_LINK:
        raise ModelError(f"{where}: joint {name!r} takes the name reserved for the palm")
    if name in earlier:
        raise ModelError(f"{where}: joint {name!r} repeats an earlier joint's name; "
                         f"joint names are unique within a finger")
    prev = earlier[-1] if earlier else BASE_LINK
    parent = raw.get("parent", prev)
    if parent != prev:
        raise ModelError(f"{where}: joint {name!r} names parent {parent!r}, but joints are listed "
                         f"base to tip, so its parent is the previous joint {prev!r}")
    axis, rpy, trans = _vectors(raw, "axis", "origin_rotation", "origin_translation")
    with np.errstate(over="ignore"):  # a huge axis has norm inf, which the check rejects
        norm = np.linalg.norm(axis)
    if abs(norm - 1.0) > AXIS_UNIT_TOL:
        raise ModelError(f"{where}.axis: |axis| = {norm:.12g}, must be 1 within {AXIS_UNIT_TOL}")
    return name, axis, trans, rpy_matrix(*rpy), tuple(map(float, raw["limits"]))


def _build_keypoints(raw_list, joint_names, finger_name):
    """Each ``keypoints`` entry's (link, offset), the link resolved from
    ``attached_to`` against 'base' and the finger's ``joint_names``."""
    depth_of = {BASE_LINK: 0} | {name: k + 1 for k, name in enumerate(joint_names)}
    kps = []
    for n, raw in enumerate(raw_list):
        where = f"fingers[{finger_name}].keypoints[{n}]"
        if raw["attached_to"] not in depth_of:
            raise ModelError(f"{where}: attached_to {raw['attached_to']!r} names no joint of the "
                             f"finger or 'base'")
        offset, = _vectors(raw, "offset")
        kps.append((depth_of[raw["attached_to"]], offset))
    indices = [raw["index"] for raw in raw_list]
    if indices != list(range(len(kps))):
        raise ModelError(f"finger {finger_name!r}: keypoints must be listed by index, "
                         f"contiguous from 0, got {indices}")
    if len(kps) < 2:
        raise ModelError(f"finger {finger_name!r}: need at least 2 keypoints (root and tip)")
    return kps


def _build_taxels(raw, where):
    rows, cols = raw["rows"], raw["cols"]
    if rows * cols > MAX_TAXELS:
        raise ModelError(f"{where}: rows and cols give {rows}x{cols} cells, at most {MAX_TAXELS}")
    origin, row_step, col_step = _vectors(raw, "origin", "row_step", "col_step")
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
        ModelError: on YAML syntax errors (with line info); on an entry that
            is not a mapping, an unknown or missing key, or a value of the
            wrong kind (a boolean is never a number, a fraction never an
            integer) or past its bound (a finite vector, a length within
            MAX_LENGTH_M, limits a finite span apart, a grid side >= 1),
            naming the entry and the key; and on any failed check of meaning
            (axis norms, joint names and order, keypoint indexing and
            attachment, taxel grid sizes, rest pose).
    """
    try:
        raw = yaml.load(document, Loader=LOADER)
    except yaml.YAMLError as e:
        raise ModelError(f"document is not valid YAML: {e}") from None
    check(raw, _DOCUMENT, ModelError)
    if not raw["fingers"]:
        raise ModelError("fingers: needs at least one finger")

    fingers, joints, keypoints = [], [], []
    dof_offset = 0
    for fi, rf in enumerate(raw["fingers"]):
        fname = rf["name"]
        if fname in (f.name for f in fingers):
            raise ModelError(f"fingers[{fi}]: duplicate finger name {fname!r}")
        if not rf["joints"]:
            raise ModelError(f"fingers[{fname}].joints: needs at least one joint")
        chain, names = [], []
        for ji, rj in enumerate(rf["joints"]):
            chain.append(_build_joint(rj, names, f"fingers[{fname}].joints[{ji}]"))
            names.append(chain[-1][0])
        kps = _build_keypoints(rf["keypoints"], names, fname)
        fingers.append(Finger(fname, len(chain), len(kps), None, dof_offset))
        joints.append(chain)
        keypoints.append(kps)
        dof_offset += len(chain)

    by_name = {f.name: i for i, f in enumerate(fingers)}
    for ti, rt in enumerate(raw.get("taxel_layouts", [])):
        where = f"taxel_layouts[{ti}]"
        if rt["finger"] not in by_name:
            raise ModelError(f"{where}: unknown finger {rt['finger']!r}")
        i = by_name[rt["finger"]]
        if fingers[i].taxels is not None:
            raise ModelError(f"{where}: finger {rt['finger']!r} already has a taxel layout")
        fingers[i] = replace(fingers[i], taxels=_build_taxels(rt, where))

    total_dof = dof_offset
    rest_pose = np.array(raw.get("rest_pose", np.zeros(total_dof)), dtype=float)
    if rest_pose.shape != (total_dof,):
        raise ModelError(f"rest_pose: expected {total_dof} values, got shape {rest_pose.shape}")
    lo, hi = np.array([limits for chain in joints for *_, limits in chain]).T
    for fault in _limit_faults("rest_pose", rest_pose, lo, hi):
        raise ModelError(fault)
    return HandModel(raw.get("name", "unnamed"), tuple(fingers), total_dof, _freeze(rest_pose),
                     _freeze(lo), _freeze(hi), _stack_chains(fingers, joints, keypoints, total_dof))


def load_hand_model_file(path):
    """Load a hand model from a document on disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_hand_model(fh.read())
