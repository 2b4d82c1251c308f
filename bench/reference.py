"""Reference computations made apart from dexretarget.

Everything here reads the model YAML and the text outputs directly and
re-derives the quantities the program reports: forward kinematics,
calibration ratios, conformal targets, coupling gates, the three objective
terms, and sync skew.  Nothing imports the package under test, so a fault
in it cannot hide in the oracle.
"""

from __future__ import annotations

import math

import numpy as np
import yaml


def _rpy(roll, pitch, yaw):
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry @ rx


def _about(axis, angle):
    """Rotation about a unit axis in the c I + s [k]x + (1 - c) k k^T form."""
    kx, ky, kz = axis
    c, s = math.cos(angle), math.sin(angle)
    cross = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return c * np.eye(3) + s * cross + (1.0 - c) * np.outer(axis, axis)


class RefHand:
    """Serial finger chains read straight from a model document.

    Joints are taken in document order (every bundled and generated model
    lists them base to tip); a keypoint attached to joint k rides the link
    that joint drives.
    """

    def __init__(self, text):
        doc = yaml.safe_load(text)
        self.fingers = []
        for f in doc["fingers"]:
            joints = [(np.array(j["axis"], float), np.array(j["origin_translation"], float),
                       _rpy(*j.get("origin_rotation", [0.0, 0.0, 0.0])),
                       float(j["limits"][0]), float(j["limits"][1])) for j in f["joints"]]
            depth = {"base": 0}
            depth.update({j["name"]: k + 1 for k, j in enumerate(f["joints"])})
            kps = sorted((int(k["index"]), depth[k["attached_to"]],
                          np.array(k.get("offset", [0.0, 0.0, 0.0]), float))
                         for k in f["keypoints"])
            self.fingers.append((joints, [(d, off) for _, d, off in kps]))
        self.lower = np.array([j[3] for js, _ in self.fingers for j in js])
        self.upper = np.array([j[4] for js, _ in self.fingers for j in js])
        self.slices = []
        start = 0
        for js, _ in self.fingers:
            self.slices.append(slice(start, start + len(js)))
            start += len(js)
        self.dof = start

    @classmethod
    def from_file(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls(fh.read())

    def counts(self):
        return tuple(len(kps) for _, kps in self.fingers)

    def finger_points(self, i, q_f):
        """(K_i, 3) keypoint positions of finger i for its joint angles."""
        joints, kps = self.fingers[i]
        rot, trans = np.eye(3), np.zeros(3)
        poses = [(rot, trans)]
        for (axis, origin, origin_rot, _, _), angle in zip(joints, q_f):
            trans = trans + rot @ origin
            rot = rot @ origin_rot @ _about(axis, angle)
            poses.append((rot, trans))
        return np.array([poses[d][1] + poses[d][0] @ off for d, off in kps])

    def fk(self, q):
        """Per-finger (K_i, 3) keypoint arrays at the full joint vector q."""
        return [self.finger_points(i, q[sl]) for i, sl in enumerate(self.slices)]

    def tip_jacobian(self, q, i, h=1e-6):
        """(3, dof_i) central-difference Jacobian of finger i's tip."""
        q_f = np.array(q[self.slices[i]], dtype=float)
        cols = []
        for k in range(q_f.size):
            step = np.zeros_like(q_f)
            step[k] = h
            cols.append((self.finger_points(i, q_f + step)[-1]
                         - self.finger_points(i, q_f - step)[-1]) / (2.0 * h))
        return np.array(cols).T


def alignment_pairs(counts):
    """Fingertip plus one mid-chain keypoint per finger, finger-major."""
    pairs = []
    for i, c in enumerate(counts):
        tip = c - 1
        mid = 2 if tip > 2 else max(tip - 1, 1)
        if mid != tip:
            pairs.append((i, mid))
        pairs.append((i, tip))
    return pairs


class RefCalibration:
    """Per-segment ratios r, anchor offsets u and coupling spans."""

    def __init__(self, r, u, d_min, d_max):
        self.r = [np.asarray(x, float) for x in r]
        self.u = np.asarray(u, float)
        self.d_min = dict(d_min)
        self.d_max = dict(d_max)

    @classmethod
    def fit(cls, hand, q0, w_star):
        """Segment length ratios robot/human at q0, knuckle-anchor offsets,
        and tip-to-thumb spans of the capture as the coupling range."""
        robot = hand.fk(q0)
        r = [np.linalg.norm(np.diff(p, axis=0), axis=1) / np.linalg.norm(np.diff(w, axis=0), axis=1)
             for p, w in zip(robot, w_star)]
        u = np.array([p[1] - w[1] for p, w in zip(robot, w_star)])
        spans = {i: float(np.linalg.norm(w_star[i][-1] - w_star[0][-1]))
                 for i in range(1, len(w_star))}
        return cls(r, u, {i: 0.0 for i in spans}, spans)


def conformal_targets(w, cal):
    """v_0 = w_0, v_1 = v_0 + r_0 (w_1 - w_0) + u, v_j = v_{j-1} + r_{j-1} (w_j - w_{j-1})."""
    out = []
    for i, wi in enumerate(w):
        v = np.empty_like(wi)
        v[0] = wi[0]
        v[1] = v[0] + cal.r[i][0] * (wi[1] - wi[0]) + cal.u[i]
        for j in range(2, wi.shape[0]):
            v[j] = v[j - 1] + cal.r[i][j - 1] * (wi[j] - wi[j - 1])
        out.append(v)
    return out


def coupling_gates(w, cal, k, c):
    """Human tip-minus-thumb offsets D_i and sigmoid gates omega_i."""
    fingers = sorted(cal.d_max)
    delta = np.array([w[i][-1] - w[0][-1] for i in fingers])
    omega = []
    for i, d_vec in zip(fingers, delta):
        lo, hi = cal.d_min[i], cal.d_max[i]
        closeness = min(max(1.0 - (float(np.linalg.norm(d_vec)) - lo) / (hi - lo), 0.0), 1.0)
        omega.append(1.0 / (1.0 + math.exp(-k * (closeness - c))))
    return fingers, delta, np.array(omega)


def objective_terms(hand, q, pairs, targets, gates, q_prev):
    """Unweighted (align, couple, smooth) at q; ``gates`` is None when off."""
    pts = hand.fk(q)
    align = sum(float(np.sum((targets[n] - pts[i][j]) ** 2)) for n, (i, j) in enumerate(pairs))
    couple = 0.0
    if gates is not None:
        fingers, delta, omega = gates
        for m, i in enumerate(fingers):
            e = delta[m] - (pts[i][-1] - pts[0][-1])
            couple += float(omega[m] * np.sum(e * e))
    smooth = float(np.sum((q - q_prev) ** 2))
    return np.array([align, couple, smooth])


def hold_fill(frames):
    """Replace each invalid landmark with its last valid value.

    ``frames`` yields (w, valid) per frame with w a list of (K_i, 3)
    arrays; a landmark invalid since the first frame keeps that frame's
    value.  Returns the filled landmark lists.
    """
    filled, last = [], None
    for w, valid in frames:
        if last is None:
            last = [x.copy() for x in w]
        eff = []
        for i, (x, v) in enumerate(zip(w, valid)):
            v = np.asarray(v, bool)
            last[i][v] = x[v]
            eff.append(np.where(v[:, None], x, last[i]))
        filled.append(eff)
    return filled


def manipulability_mm3(jac):
    """(4 pi / 3) sqrt(det(J J^T)) of a 3 x n linear block, in mm^3."""
    return 4.0 * math.pi / 3.0 * math.sqrt(max(float(np.linalg.det(jac @ jac.T)), 0.0)) * 1e9


def sync_skew_ms(events, rate_hz, duration):
    """Mean and max frame skew (ms) recomputed from parsed event rows.

    ``events`` holds (stream, emission, payload, dropped) rows in file
    order, which is emission order.  A live event belongs to the trigger
    nearest its emission when it lies within half a frame period of it;
    the newest such event of a stream wins.  Skew is max minus min
    emission over a frame's members, 0 with fewer than two.  Returns
    (mean_ms, max_ms, members) with members[f][stream] = payload.
    """
    period = 1.0 / rate_hz
    n_frames = max(int(math.ceil(duration / period - 1e-9)), 0)
    members = [dict() for _ in range(n_frames)]
    emission_of = [dict() for _ in range(n_frames)]
    for stream, emission, payload, dropped in events:
        if dropped:
            continue
        f = min(max(int(np.rint(emission * rate_hz)), 0), n_frames - 1)
        if abs(emission - f * period) <= 0.5 * period + 1e-9:
            members[f][stream] = payload
            emission_of[f][stream] = emission
    skew = np.array([max(e.values()) - min(e.values()) if len(e) >= 2 else 0.0
                     for e in emission_of])
    return float(skew.mean() * 1e3), float(skew.max() * 1e3), members
