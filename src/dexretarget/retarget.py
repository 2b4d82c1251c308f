"""Human-to-robot hand retargeting.

Pipeline per frame: per-segment conformal adjustment of the human
landmarks, distance-gated fingertip coupling, then a box-constrained
least-squares solve

    min_q  l1 * sum_(i,j) |v_ij - FK_ij(q)|^2
         + l2 * sum_i     w_i * |D_i - g_i(q)|^2
         + l3 * |q - q_prev|^2

with g_i the robot finger-to-thumb tip offset and D_i its human
counterpart.  Landmark layout per finger: j = 0 wrist root, j = 1 the
knuckle anchor, ascending to the tip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .hand_model import HandModel
from .kinematics import _chain_state, _joint_axes, _point, linear_jacobian_block

DEFAULT_SIGMOID_K = 10.0
DEFAULT_SIGMOID_C = 0.5
DEFAULT_LAMBDAS = (1.0, 1.0, 1.0)
DEFAULT_TOLERANCE = 1e-6
DEFAULT_MAX_ITERATIONS = 100
MAX_HOLD_FRAMES = 3  # consecutive frames a missing landmark may be filled

ANCHOR_INDEX = 1  # keypoint j used for the per-finger translation offset


class CalibrationError(Exception):
    """Calibration inputs are inconsistent with the model."""


class RetargetConfigError(Exception):
    """A retargeting problem is malformed."""


class KeypointFrame:
    """One captured landmark frame: per-finger keypoint positions.

    ``w[i]`` is an (n_i + 1, 3) array of landmarks for finger i, ordered by
    keypoint index; ``valid[i]`` flags per-landmark validity.  The j = 0
    entry is the wrist root and is shared across fingers in captured data.
    """

    __slots__ = ("w", "valid", "timestamp")

    def __init__(self, w, valid=None, timestamp=None):
        self.w = tuple(np.array(a, dtype=float) for a in w)
        if valid is None:
            self.valid = tuple(np.ones(a.shape[0], dtype=bool) for a in self.w)
        else:
            self.valid = tuple(np.array(v, dtype=bool) for v in valid)
        for a, v in zip(self.w, self.valid):
            if a.ndim != 2 or a.shape[1] != 3 or v.shape != (a.shape[0],):
                raise ValueError("landmark arrays must be (n_i + 1, 3) with matching validity")
        self.timestamp = timestamp

    @property
    def n_fingers(self):
        return len(self.w)

    def counts(self):
        return tuple(a.shape[0] for a in self.w)

    def all_valid(self):
        return all(bool(v.all()) for v in self.valid)

    def copy(self):
        return KeypointFrame([a.copy() for a in self.w],
                             [v.copy() for v in self.valid], self.timestamp)


@dataclass(frozen=True)
class CalibrationData:
    """Per-segment scale ratios and per-finger offsets tying one human hand
    to one robot hand, plus the coupling distance bounds."""

    r: tuple[np.ndarray, ...]       # per finger, (n_i,) segment ratios
    u: np.ndarray                   # (F, 3) knuckle-anchor translations
    w_star: KeypointFrame           # calibration landmarks, extended pose
    q0: np.ndarray                  # robot reference configuration
    d_min: dict[int, float]         # per coupled finger, meters
    d_max: dict[int, float]
    coupling_fingers: tuple[int, ...]


def calibrate(model, q0, w_star, coupling_fingers=None):
    """Fit calibration data from one extended-pose landmark frame.

    Args:
        model: robot hand model.
        q0: robot reference configuration matching the human calibration
            pose (typically the extended rest pose).
        w_star: KeypointFrame captured at the calibration pose; every
            landmark must be valid and every segment non-degenerate.
        coupling_fingers: finger indices coupled to the thumb; defaults to
            all non-thumb fingers when the model has a thumb plus others.

    Returns:
        CalibrationData with r > 0 per segment, d_max > d_min = 0 per
        coupled finger.
    """
    from .kinematics import forward_kinematics

    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (model.total_dof,):
        raise CalibrationError(f"q0 has shape {q0.shape}, expected ({model.total_dof},)")
    if w_star.counts() != model.keypoint_counts():
        raise CalibrationError(f"calibration frame layout {w_star.counts()} does not match "
                               f"model layout {model.keypoint_counts()}")
    if not w_star.all_valid():
        raise CalibrationError("calibration frame must have every landmark valid")
    if not all(np.isfinite(w).all() for w in w_star.w):
        raise CalibrationError("calibration frame has a non-finite landmark")

    fk = forward_kinematics(model, q0)
    ratios = []
    offsets = np.zeros((len(model.fingers), 3))
    for i, f in enumerate(model.fingers):
        n_seg = len(f.keypoints) - 1
        r_i = np.zeros(n_seg)
        for j in range(n_seg):
            robot_seg = np.linalg.norm(fk[(i, j + 1)] - fk[(i, j)])
            human_seg = np.linalg.norm(w_star.w[i][j + 1] - w_star.w[i][j])
            if human_seg <= 0.0:
                raise CalibrationError(f"finger {i} segment {j}: human segment length is zero")
            if robot_seg <= 0.0:
                raise CalibrationError(f"finger {i} segment {j}: robot segment length is zero")
            r_i[j] = robot_seg / human_seg
        ratios.append(r_i)
        offsets[i] = fk[(i, ANCHOR_INDEX)] - w_star.w[i][ANCHOR_INDEX]

    if coupling_fingers is None:
        coupling_fingers = tuple(range(1, len(model.fingers))) if len(model.fingers) > 1 else ()
    d_min, d_max = {}, {}
    for i in coupling_fingers:
        tip_i = model.fingers[i].tip_index
        tip_t = model.fingers[0].tip_index
        span = float(np.linalg.norm(w_star.w[i][tip_i] - w_star.w[0][tip_t]))
        if span <= 0.0:
            raise CalibrationError(f"finger {i}: zero tip-to-thumb span at the calibration pose")
        d_min[i] = 0.0
        d_max[i] = span
    return CalibrationData(tuple(ratios), offsets, w_star.copy(), q0.copy(),
                           d_min, d_max, tuple(coupling_fingers))


def _check_calibration(model, cal):
    """Raise CalibrationError unless ``cal`` fits ``model``: one vector of
    finite, positive segment ratios per finger, finite ``q0`` and ``u`` of
    the model's shapes, and existing coupled fingers with d_max > d_min."""
    n_fingers = len(model.fingers)
    if len(cal.r) != n_fingers:
        raise CalibrationError(f"calibration has {len(cal.r)} ratio vectors, "
                               f"model {model.name!r} has {n_fingers} fingers")
    for i, (r_i, count) in enumerate(zip(cal.r, model.keypoint_counts())):
        r_i = np.asarray(r_i)
        if r_i.shape != (count - 1,):
            raise CalibrationError(f"finger {i}: {r_i.size} segment ratios, "
                                   f"model has {count - 1} segments")
        if not np.all(np.isfinite(r_i) & (r_i > 0.0)):
            raise CalibrationError(f"finger {i}: segment ratios must be finite and > 0, "
                                   f"got {r_i.tolist()}")
    for name, value, shape in (("q0", cal.q0, (model.total_dof,)),
                               ("anchor offsets", cal.u, (n_fingers, 3))):
        if np.shape(value) != shape:
            raise CalibrationError(f"{name} has shape {np.shape(value)}, expected {shape}")
        if not np.all(np.isfinite(value)):
            raise CalibrationError(f"{name} has a non-finite entry")
    for i in cal.coupling_fingers:
        if not 0 <= i < n_fingers:
            raise CalibrationError(f"coupled finger {i} is not in model {model.name!r}")
        lo, hi = cal.d_min.get(i), cal.d_max.get(i)
        if lo is None or hi is None or not hi > lo:
            raise CalibrationError(f"coupled finger {i}: needs d_max > d_min, "
                                   f"got [{lo}, {hi}]")


def adjust_keypoints(frame, cal):
    """Conformally rescale one landmark frame onto the robot's proportions.

    Per finger: v_0 = w_0; v_1 = v_0 + r_0 (w_1 - w_0) + u_i; for j >= 2,
    v_j = v_{j-1} + r_{j-1} (w_j - w_{j-1}).

    Returns:
        tuple of (n_i + 1, 3) adjusted target arrays, one per finger.
    """
    if frame.counts() != tuple(r.shape[0] + 1 for r in cal.r):
        raise RetargetConfigError("frame layout does not match calibration layout")
    out = []
    for i, r_i in enumerate(cal.r):
        w = frame.w[i]
        v = np.empty_like(w)
        v[0] = w[0]
        # equivalent cumulative form v_j = w_j + c_j, c_j = c_{j-1} +
        # (r_{j-1} - 1)(w_j - w_{j-1}); degenerates to v = w exactly when
        # every r = 1 and u = 0 instead of re-rounding each segment
        corr = (r_i[0] - 1.0) * (w[1] - w[0]) + cal.u[i]
        v[1] = np.where(corr == 0.0, w[1], w[1] + corr)
        for j in range(2, w.shape[0]):
            corr = corr + (r_i[j - 1] - 1.0) * (w[j] - w[j - 1])
            v[j] = np.where(corr == 0.0, w[j], w[j] + corr)
        out.append(v)
    return tuple(out)


def baseline_uniform_scaling(frame, alpha):
    """Scale every landmark by ``alpha`` about the wrist root.

    The naive fixed-ratio alternative to :func:`adjust_keypoints`; feeds
    the same solver for side-by-side comparisons.
    """
    if alpha <= 0.0:
        raise RetargetConfigError(f"alpha must be positive, got {alpha}")
    root = frame.w[0][0]
    out = []
    for w in frame.w:
        corr = (alpha - 1.0) * (w - root)  # alpha = 1 stays exactly w
        out.append(np.where(corr == 0.0, w, w + corr))
    return tuple(out)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class CouplingState:
    """Human fingertip-to-thumb offsets and their gating weights."""

    fingers: tuple[int, ...]
    delta: np.ndarray   # (m, 3) human tip minus thumb tip, raw landmarks
    d: np.ndarray       # (m,) normalized closeness in [0, 1]
    omega: np.ndarray   # (m,) sigmoid gate in (0, 1)


def coupling_weights(frame, cal, k=DEFAULT_SIGMOID_K, c=DEFAULT_SIGMOID_C):
    """Distance-gated coupling terms from raw human landmarks.

    d_i = clamp(1 - (|D_i| - d_min) / (d_max - d_min), 0, 1) rises as the
    finger approaches the thumb; omega_i = sigmoid(k (d_i - c)).
    """
    fingers = cal.coupling_fingers
    delta = np.zeros((len(fingers), 3))
    d = np.zeros(len(fingers))
    for m, i in enumerate(fingers):
        lo, hi = cal.d_min[i], cal.d_max[i]
        if hi <= lo:
            raise RetargetConfigError(f"finger {i}: d_max must exceed d_min, got [{lo}, {hi}]")
        delta[m] = frame.w[i][-1] - frame.w[0][-1]
        dist = np.linalg.norm(delta[m])
        d[m] = min(max(1.0 - (dist - lo) / (hi - lo), 0.0), 1.0)
    omega = _sigmoid(k * (d - c))
    return CouplingState(tuple(fingers), delta, d, omega)


@dataclass
class RetargetProblem:
    """One frame's solve: alignment targets, coupling state, warm start.

    ``pairs`` lists the (finger, keypoint) frames entering the alignment
    term, aligned with rows of ``targets``.
    """

    model: HandModel
    pairs: tuple[tuple[int, int], ...]
    targets: np.ndarray                 # (P, 3)
    coupling: CouplingState | None
    q_prev: np.ndarray
    lambdas: tuple[float, float, float] = DEFAULT_LAMBDAS
    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    def __post_init__(self):
        self.targets = np.asarray(self.targets, dtype=float)
        self.q_prev = np.asarray(self.q_prev, dtype=float)
        self.pairs = tuple((int(i), int(j)) for i, j in self.pairs)
        n = self.model.total_dof
        if self.q_prev.shape != (n,):
            raise RetargetConfigError(f"q_prev has shape {self.q_prev.shape}, expected ({n},)")
        if self.targets.shape != (len(self.pairs), 3):
            raise RetargetConfigError("targets must be (len(pairs), 3)")
        if len(self.lambdas) != 3 or any(l < 0.0 for l in self.lambdas):
            raise RetargetConfigError(f"lambdas must be 3 non-negative weights, got {self.lambdas}")
        if self.tolerance <= 0.0 or self.max_iterations < 1:
            raise RetargetConfigError("tolerance must be > 0 and max_iterations >= 1")
        for i, j in self.pairs:
            self.model.keypoint(i, j)  # raises KeyError on a bad pair
        if self.coupling is not None and np.any(
                (self.coupling.omega <= 0.0) | (self.coupling.omega >= 1.0)):
            raise RetargetConfigError("coupling weights must lie strictly inside (0, 1)")


def default_pairs(model):
    """Alignment set: fingertip plus one mid-chain keypoint per finger."""
    pairs = []
    for i, f in enumerate(model.fingers):
        tip = f.tip_index
        mid = 2 if tip > 2 else max(tip - 1, 1)
        if mid != tip:
            pairs.append((i, mid))
        pairs.append((i, tip))
    return tuple(pairs)


def _evaluate(q, prob, want_grad):
    """Objective terms (align, couple, smooth) and optionally the gradient."""
    model = prob.model
    l1, l2, l3 = prob.lambdas
    coupled = prob.coupling.fingers if prob.coupling is not None else ()
    wanted: dict[int, list[int]] = {}  # finger -> keypoints to place
    for i, j in prob.pairs:
        wanted.setdefault(i, []).append(j)
    for i in (0,) + coupled if coupled else ():
        wanted.setdefault(i, []).append(model.fingers[i].tip_index)

    points, blocks = {}, {}  # (finger, keypoint) -> position, linear Jacobian block
    for i, js in wanted.items():
        state = _chain_state(model, i, q[model.finger_slice(i)])
        kps = [model.keypoint(i, j) for j in js]
        keys = [(i, j) for j in js]
        p = np.stack([_point(state, kp) for kp in kps])
        points.update(zip(keys, p))
        if want_grad:
            axes = _joint_axes(model, i, state)
            links = [kp.link for kp in kps]
            blocks.update(zip(keys, linear_jacobian_block(axes, state, links, p)))

    grad = np.zeros(model.total_dof) if want_grad else None
    align = 0.0
    for pair, target in zip(prob.pairs, prob.targets):
        e = target - points[pair]
        align += float(e @ e)
        if want_grad:
            grad[model.finger_slice(pair[0])] += -2.0 * l1 * (blocks[pair].T @ e)

    couple = 0.0
    if prob.coupling is not None:
        thumb = (0, model.fingers[0].tip_index)
        thumb_sl = model.finger_slice(0)
        for m, i in enumerate(coupled):
            tip = (i, model.fingers[i].tip_index)
            g = points[tip] - points[thumb]
            e = prob.coupling.delta[m] - g
            w = prob.coupling.omega[m]
            couple += float(w * (e @ e))
            if want_grad:
                grad[model.finger_slice(i)] += -2.0 * l2 * w * (blocks[tip].T @ e)
                grad[thumb_sl] += 2.0 * l2 * w * (blocks[thumb].T @ e)

    dq = q - prob.q_prev
    smooth = float(dq @ dq)
    if want_grad:
        grad += 2.0 * l3 * dq
    terms = np.array([align, couple, smooth])
    return terms, grad


def objective(q, prob):
    """Total weighted objective and its (align, couple, smooth) terms."""
    q = np.asarray(q, dtype=float)
    terms, _ = _evaluate(q, prob, want_grad=False)
    return float(np.dot(prob.lambdas, terms)), terms


def objective_gradient(q, prob):
    """Analytic gradient of the total objective at q."""
    q = np.asarray(q, dtype=float)
    _, grad = _evaluate(q, prob, want_grad=True)
    return grad


@dataclass(frozen=True)
class RetargetResult:
    q: np.ndarray
    objective: float
    residuals: np.ndarray  # unweighted (align, couple, smooth)
    iterations: int
    converged: bool


def solve_retarget(prob):
    """Minimize the retargeting objective inside the joint box.

    Deterministic for identical inputs.  Non-convergence within the
    iteration budget returns the best feasible iterate with
    ``converged=False`` rather than raising.
    """
    model = prob.model
    lo, hi = model.lower_limits, model.upper_limits
    x0 = np.clip(prob.q_prev, lo, hi)
    best = {"f": math.inf, "x": x0}

    def fun(x):
        terms, grad = _evaluate(x, prob, want_grad=True)
        f = float(np.dot(prob.lambdas, terms))
        if f < best["f"]:
            best["f"], best["x"] = f, x.copy()
        return f, grad

    res = minimize(fun, x0, jac=True, method="SLSQP",
                   bounds=list(zip(lo, hi)),
                   options={"maxiter": prob.max_iterations, "ftol": prob.tolerance})
    x = res.x
    if not res.success:
        terms, _ = _evaluate(x, prob, want_grad=False)
        if best["f"] < float(np.dot(prob.lambdas, terms)):
            x = best["x"]
    q = np.clip(x, lo, hi)
    total, terms = objective(q, prob)
    return RetargetResult(q=q, objective=total, residuals=terms,
                          iterations=int(res.nit), converged=bool(res.success))


@dataclass(frozen=True)
class StreamStep:
    """One frame of a retargeted trajectory."""

    index: int
    timestamp: float | None
    q: np.ndarray
    residuals: np.ndarray
    converged: bool
    rejected: bool          # landmark gap exceeded the fill budget
    solver_failed: bool     # solve raised; q holds the previous output
    filled: int             # landmarks filled from history this frame


def retarget_stream(model, cal, frames, lambdas=DEFAULT_LAMBDAS,
                    sigmoid_k=DEFAULT_SIGMOID_K, sigmoid_c=DEFAULT_SIGMOID_C,
                    pairs=None, tolerance=DEFAULT_TOLERANCE,
                    max_iterations=DEFAULT_MAX_ITERATIONS,
                    max_hold_frames=MAX_HOLD_FRAMES, scaling_alpha=None):
    """Retarget an ordered landmark stream into a joint trajectory.

    The calibration is checked against the model before the first frame.
    Missing landmarks, and landmarks with a non-finite coordinate, are
    filled from the last valid value for up to ``max_hold_frames``
    consecutive frames; beyond that the frame is rejected and the previous
    output is held.  The first frame warm-starts from the calibration
    configuration.  ``scaling_alpha`` switches the target construction from
    conformal adjustment to uniform scaling.

    Returns:
        list of StreamStep, one per input frame.
    """
    _check_calibration(model, cal)
    if pairs is None:
        pairs = default_pairs(model)
    use_coupling = len(cal.coupling_fingers) > 0 and lambdas[1] > 0.0
    q_prev = np.clip(cal.q0, model.lower_limits, model.upper_limits)
    last_seen = None   # per finger: landmark values from the newest valid samples
    ages = None        # per finger: frames since each landmark was last valid
    steps = []
    prev_residuals = np.zeros(3)
    for idx, frame in enumerate(frames):
        if frame.counts() != model.keypoint_counts():
            raise RetargetConfigError(f"frame {idx} layout {frame.counts()} does not match the model")
        if last_seen is None:
            # landmarks invalid since the start have no history to fill from
            last_seen = [w.copy() for w in frame.w]
            ages = [np.full(w.shape[0], max_hold_frames, dtype=int) for w in frame.w]
        filled = 0
        usable = True
        eff_w = []
        for i, (w, v) in enumerate(zip(frame.w, frame.valid)):
            v = v & np.isfinite(w).all(axis=1)  # a non-finite landmark counts as missing
            ages[i] += 1
            ages[i][v] = 0
            last_seen[i][v] = w[v]
            stale = ~v
            if np.any(ages[i][stale] > max_hold_frames):
                usable = False
            filled += int(stale.sum())
            eff_w.append(np.where(stale[:, None], last_seen[i], w))
        if not usable:
            steps.append(StreamStep(idx, frame.timestamp, q_prev.copy(), prev_residuals.copy(),
                                    converged=False, rejected=True, solver_failed=False,
                                    filled=filled))
            continue
        eff = KeypointFrame(eff_w, timestamp=frame.timestamp)
        if scaling_alpha is None:
            v = adjust_keypoints(eff, cal)
        else:
            v = baseline_uniform_scaling(eff, scaling_alpha)
        targets = np.array([v[i][j] for i, j in pairs])
        coupling = coupling_weights(eff, cal, sigmoid_k, sigmoid_c) if use_coupling else None
        prob = RetargetProblem(model, pairs, targets, coupling, q_prev,
                               lambdas=tuple(lambdas), tolerance=tolerance,
                               max_iterations=max_iterations)
        try:
            result = solve_retarget(prob)
        except Exception:
            steps.append(StreamStep(idx, frame.timestamp, q_prev.copy(), prev_residuals.copy(),
                                    converged=False, rejected=False, solver_failed=True,
                                    filled=filled))
            continue
        q_prev = result.q
        prev_residuals = result.residuals
        steps.append(StreamStep(idx, frame.timestamp, result.q, result.residuals,
                                converged=result.converged, rejected=False,
                                solver_failed=False, filled=filled))
    return steps
