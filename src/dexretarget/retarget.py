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

import contextlib
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .hand_model import HandModel
from .kinematics import _chain_state, _gather, linear_jacobian_block

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
        valid = [np.ones(a.shape[0]) for a in self.w] if valid is None else valid
        self.valid = tuple(np.array(v, dtype=bool) for v in valid)
        for a, v in zip(self.w, self.valid):
            if a.ndim != 2 or a.shape[1] != 3 or v.shape != (a.shape[0],):
                raise ValueError("landmark arrays must be (n_i + 1, 3) with matching validity")
        self.timestamp = timestamp

    def counts(self):
        return tuple(a.shape[0] for a in self.w)

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
    if not all(v.all() for v in w_star.valid):
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
    for w, r_i, u_i in zip(frame.w, cal.r, cal.u, strict=True):
        # equivalent cumulative form v_j = w_j + c_j, c_j = c_{j-1} +
        # (r_{j-1} - 1)(w_j - w_{j-1}); degenerates to v = w exactly when
        # every r = 1 and u = 0 instead of re-rounding each segment
        steps = (r_i - 1.0)[:, None] * np.diff(w, axis=0)
        steps[0] += u_i
        corr = np.cumsum(steps, axis=0)
        out.append(np.concatenate([w[:1], np.where(corr == 0.0, w[1:], w[1:] + corr)]))
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


@dataclass(frozen=True)
class CouplingState:
    """Human fingertip-to-thumb offsets and their gating weights."""

    fingers: tuple[int, ...]
    delta: np.ndarray   # (m, 3) human tip minus thumb tip, raw landmarks
    d: np.ndarray       # (m,) normalized closeness in [0, 1]
    omega: np.ndarray   # (m,) sigmoid gate in [0, 1]


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
    with np.errstate(over="ignore"):  # a steep gate sends exp to inf, and omega to 0
        omega = 1.0 / (1.0 + np.exp(-k * (d - c)))  # sigmoid gate
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
        if len(self.lambdas) != 3 or not all(0.0 <= l < np.inf for l in self.lambdas):
            raise RetargetConfigError(f"lambdas must be 3 finite weights >= 0, got {self.lambdas}")
        if not (np.all(np.isfinite(self.targets)) and np.all(np.isfinite(self.q_prev))):
            raise RetargetConfigError("targets and q_prev must be finite")
        if not self.tolerance > 0.0 or self.max_iterations < 1:
            raise RetargetConfigError("tolerance must be > 0 and max_iterations >= 1")
        for i, j in self.pairs:
            self.model.keypoint(i, j)  # raises KeyError on a bad pair
        if self.coupling is not None and not np.all(
                (self.coupling.omega >= 0.0) & (self.coupling.omega <= 1.0)):
            raise RetargetConfigError("coupling weights must lie in [0, 1]")


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


def _residuals(q, prob):
    """Unweighted stacked residual e and its Jacobian de/dq at q: the rows
    targets - FK over ``prob.pairs``, sqrt(omega_m) (D_m - g_m) per coupled
    finger, then q - q_prev.  The objective weighs block b by lambda_b."""
    model, n = prob.model, prob.model.total_dof
    coupled = prob.coupling.fingers if prob.coupling is not None else ()
    keys = list(prob.pairs)  # keypoints to place: the pairs, then the thumb and coupled tips
    if coupled:
        keys += [(i, model.fingers[i].tip_index) for i in (0,) + coupled]
    at = _gather(model, _chain_state(model, None, q), keys)
    p, dp = at.points, linear_jacobian_block(at, n)  # positions, dp/dq
    m = len(prob.pairs)  # the thumb tip's row
    e, jac = [prob.targets - p[:m]], [-dp[:m]]
    if coupled:
        s = np.sqrt(prob.coupling.omega)[:, None]
        e.append(s * (prob.coupling.delta - (p[m + 1:] - p[m])))
        jac.append(-s[..., None] * (dp[m + 1:] - dp[m]))
    return (np.concatenate([a.reshape(-1) for a in e] + [q - prob.q_prev]),
            np.concatenate([a.reshape(-1, n) for a in jac] + [np.eye(n)]))


def _row_terms(prob):
    """Term of each residual row: 0 align, 1 couple, 2 smooth."""
    m = len(prob.coupling.fingers) if prob.coupling is not None else 0
    return np.repeat([0, 1, 2], (3 * len(prob.pairs), 3 * m, prob.model.total_dof))


def objective(q, prob):
    """Total weighted objective and its (align, couple, smooth) terms."""
    e, _ = _residuals(np.asarray(q, dtype=float), prob)
    terms = np.bincount(_row_terms(prob), e * e, minlength=3)
    return float(np.dot(prob.lambdas, terms)), terms


def objective_gradient(q, prob):
    """Analytic gradient of the total objective, 2 J^T (lambda e) by rows."""
    e, jac = _residuals(np.asarray(q, dtype=float), prob)
    return 2.0 * jac.T @ (np.take(prob.lambdas, _row_terms(prob)) * e)


@dataclass(frozen=True)
class RetargetResult:
    q: np.ndarray
    objective: float
    residuals: np.ndarray  # unweighted (align, couple, smooth)
    iterations: int
    converged: bool


_MU_START = 1e-3     # initial damping, relative to diag(J^T J)
_MU_MAX = 1e12       # damping at which a solve no step improves stops
_DIAG_FLOOR = 1e-30  # keeps the damping positive on a joint nothing observes
_STEP_FLOOR = 1e-13  # rad: an accepted step this small no longer moves q

LMResult = namedtuple("LMResult", "x e nit converged")


def minimize(fun, weights, x0, lower, upper, tolerance, max_iterations):
    """Projected Levenberg-Marquardt on min |weights * e(x)|^2 over lower <= x <= upper.

    ``fun(x)`` returns the unweighted residual e and its Jacobian; r = weights
    * e and J = weights * de/dx.  Each step solves (J^T J + mu diag(J^T J))
    s = -J^T r over the joints not held at a limit by the gradient, is
    clipped into the box, and is kept only if |r|^2 falls.  Converged: a
    kept step lowered |r|^2 by <= tolerance * |r|^2 or moved no joint over
    _STEP_FLOOR; the projected gradient is zero; or mu passed _MU_MAX with
    no step lowering |r|^2.  The result carries the unweighted e at x."""
    x = np.clip(x0, lower, upper)
    e, jac = fun(x)
    r, jac = weights * e, weights[:, None] * jac
    f = r @ r
    mu, nu = _MU_START, 2.0
    for nit in range(max_iterations):
        g = jac.T @ r
        free = ~(((x <= lower) & (g > 0.0)) | ((x >= upper) & (g < 0.0)))
        if not np.any(g[free]):
            return LMResult(x, e, nit, True)
        g, a = g[free], (jac.T @ jac)[np.ix_(free, free)]
        d = np.maximum(np.diag(a), _DIAG_FLOOR)
        while True:
            s = np.linalg.solve(a + np.diag(mu * d), -g)
            x_new = x.copy()
            x_new[free] = np.clip(x[free] + s, lower[free], upper[free])
            e_new, jac_new = fun(x_new)
            r_new = weights * e_new
            f_new = r_new @ r_new
            if f_new < f:
                break
            mu, nu = mu * nu, nu * 2.0
            if mu > _MU_MAX:
                return LMResult(x, e, nit + 1, True)
        # Nielsen's update from the gain ratio, actual over predicted decrease
        rho = (f - f_new) / (mu * (s * d) @ s - g @ s)
        mu, nu = mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0
        done = f - f_new <= tolerance * f or np.max(np.abs(x_new - x)) <= _STEP_FLOOR
        x, e, r, jac, f = x_new, e_new, r_new, weights[:, None] * jac_new, f_new
        if done:
            return LMResult(x, e, nit + 1, True)
    return LMResult(x, e, max_iterations, False)


def solve_retarget(prob):
    """Minimize the retargeting objective inside the joint box.

    Deterministic, never ends above the warm start clip(q_prev), and
    returns the last iterate with ``converged=False`` when the budget runs
    out."""
    rows = _row_terms(prob)
    res = minimize(lambda x: _residuals(x, prob), np.sqrt(np.take(prob.lambdas, rows)),
                   prob.q_prev, prob.model.lower_limits, prob.model.upper_limits,
                   prob.tolerance, prob.max_iterations)
    terms = np.bincount(rows, res.e * res.e, minlength=3)
    return RetargetResult(res.x, float(np.dot(prob.lambdas, terms)), terms,
                          res.nit, res.converged)


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
                    max_iterations=DEFAULT_MAX_ITERATIONS, scaling_alpha=None):
    """Retarget an ordered landmark stream into a joint trajectory.

    The calibration is checked against the model before the first frame.
    Missing landmarks, and landmarks with a non-finite coordinate, are
    filled from the last valid value for up to ``MAX_HOLD_FRAMES``
    consecutive frames; beyond that the frame is rejected and the previous
    output is held.  The first frame warm-starts from the calibration
    configuration.  ``scaling_alpha`` switches the target construction from
    conformal adjustment to uniform scaling.

    Returns:
        list of StreamStep, one per input frame.
    """
    _check_calibration(model, cal)
    pairs = default_pairs(model) if pairs is None else pairs
    use_coupling = len(cal.coupling_fingers) > 0 and lambdas[1] > 0.0
    q_prev = np.clip(cal.q0, model.lower_limits, model.upper_limits)
    residuals = np.zeros(3)
    # per finger: the newest valid value of each landmark, and the frames
    # since it was valid; one never valid is rejected before its zero is read
    last_seen = [np.zeros((c, 3)) for c in model.keypoint_counts()]
    ages = [np.full(c, MAX_HOLD_FRAMES) for c in model.keypoint_counts()]
    steps = []
    for idx, frame in enumerate(frames):
        if frame.counts() != model.keypoint_counts():
            raise RetargetConfigError(f"frame {idx} layout {frame.counts()} does not match the model")
        for seen, age, w, v in zip(last_seen, ages, frame.w, frame.valid):
            v = v & np.isfinite(w).all(axis=1)  # a non-finite landmark counts as missing
            age[:] = np.where(v, 0, age + 1)
            seen[v] = w[v]
        rejected = any(np.any(age > MAX_HOLD_FRAMES) for age in ages)
        result = None
        if not rejected:
            eff = KeypointFrame(last_seen, timestamp=frame.timestamp)
            v = (adjust_keypoints(eff, cal) if scaling_alpha is None
                 else baseline_uniform_scaling(eff, scaling_alpha))
            targets = np.array([v[i][j] for i, j in pairs])
            coupling = coupling_weights(eff, cal, sigmoid_k, sigmoid_c) if use_coupling else None
            prob = RetargetProblem(model, pairs, targets, coupling, q_prev,
                                   lambdas=tuple(lambdas), tolerance=tolerance,
                                   max_iterations=max_iterations)
            with contextlib.suppress(np.linalg.LinAlgError):
                result = solve_retarget(prob)
        if result is not None:
            q_prev, residuals = result.q, result.residuals
        steps.append(StreamStep(idx, frame.timestamp, q_prev.copy(), residuals.copy(),
                                converged=result is not None and result.converged,
                                rejected=rejected,
                                solver_failed=result is None and not rejected,
                                filled=sum(np.count_nonzero(age) for age in ages)))
    return steps
