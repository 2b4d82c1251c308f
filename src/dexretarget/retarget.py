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
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import kinematics
from .hand_model import HandModel, _freeze, _limit_faults
from .kinematics import (_chain_state, _gather, _plan_slots, _walk_buffers,
                         linear_jacobian_block)
from .schema import COUNT, FINITE, POSITIVE, WEIGHT, Kind, require

DEFAULT_SIGMOID_K = 10.0
DEFAULT_SIGMOID_C = 0.5
DEFAULT_LAMBDAS = (1.0, 1.0, 1.0)
_LAMBDAS = Kind(f"3 weights, each {WEIGHT.what}",
                lambda v: len(v) == 3 and all(map(WEIGHT.test, v)))
DEFAULT_TOLERANCE = 1e-6
DEFAULT_MAX_ITERATIONS = 100
MAX_HOLD_FRAMES = 3  # consecutive frames a missing landmark may be filled

ANCHOR_INDEX = 1  # keypoint j used for the per-finger translation offset


class CalibrationError(Exception):
    """Calibration inputs are inconsistent with the model."""


class RetargetConfigError(Exception):
    """A retargeting problem is malformed."""


class KeypointFrame:
    """One captured landmark frame on the hand's (finger, keypoint) slots:
    ``w`` (F, M, 3) and ``valid`` (F, M), held as given, not copied.  M is
    the most of ``counts``, the keypoints on each finger; the slots at or
    past a finger's count are padding, zero and valid.  The j = 0 entry is
    the wrist root and is shared across fingers in captured data.
    """

    __slots__ = ("w", "valid", "timestamp", "_counts")

    def __init__(self, w, counts, valid=None, timestamp=None):
        self.w, self._counts, self.timestamp = np.asarray(w, dtype=float), tuple(counts), timestamp
        self.valid = np.ones(self.w.shape[:-1], bool) if valid is None else np.asarray(valid, bool)
        pad = np.arange(max(self._counts, default=0)) >= np.array(self._counts, dtype=int)[:, None]
        if self.w.shape != pad.shape + (3,) or self.valid.shape != pad.shape:
            raise ValueError(f"keypoint counts {self._counts} need w {pad.shape + (3,)} and "
                             f"valid {pad.shape}, got {self.w.shape} and {self.valid.shape}")
        if np.count_nonzero(self.w[pad]) or not self.valid[pad].all():
            raise ValueError("slots past a finger's keypoint count must be zero and valid")

    def counts(self):
        return self._counts

    def segments(self):
        """(F, M - 1) mask of the real segment slots; segment j joins keypoints j and j + 1."""
        return np.arange(self.w.shape[1] - 1) < np.subtract(self._counts, 1)[:, None]

    def tips(self):
        """(F, 3) fingertip landmarks: each finger's last keypoint."""
        return self.w[np.arange(len(self.w)), np.subtract(self._counts, 1)]

    def copy(self):
        return KeypointFrame(self.w.copy(), self._counts, self.valid.copy(), self.timestamp)


def _norms(a):
    """Row norms of ``a``, bit for bit each row's np.linalg.norm, unlike norm(a, axis=-1)."""
    return np.sqrt((a[..., None, :] @ a[..., :, None])[..., 0, 0])


def _coupling_faults(fingers, n, hand):
    """The faults of coupling ``fingers`` on ``hand``'s ``n`` fingers: each must be a
    finger after the thumb (finger 0), listed once."""
    for k, i in enumerate(fingers):
        if not 0 <= i < n:
            yield f"coupled finger {i} is not a finger of {hand}"
        elif i == 0:
            yield "coupled finger 0 is the thumb"
        elif i in fingers[:k]:
            yield f"coupled finger {i} is listed twice"


@dataclass(frozen=True)
class CalibrationData:
    """Segment ratios, anchor offsets and coupling bounds tying one human hand to one robot
    hand, checked when built and held as read-only copies of the arrays and the bounds."""

    r: np.ndarray                   # (F, M - 1) on w_star's segment slots, padding 1.0
    u: np.ndarray                   # (F, 3) knuckle-anchor translations
    w_star: KeypointFrame           # calibration landmarks, extended pose
    q0: np.ndarray                  # robot reference configuration
    d_min: MappingProxyType[int, float]  # per coupled finger, meters
    d_max: MappingProxyType[int, float]
    coupling_fingers: tuple[int, ...]

    def __post_init__(self):
        r, u, q0 = map(_freeze, (self.r, self.u, self.q0))
        d_min, d_max = (MappingProxyType({i: float(v) for i, v in b.items()})
                        for b in (self.d_min, self.d_max))
        real = self.w_star.segments()
        if r.shape != real.shape:
            raise CalibrationError(f"segment ratios have shape {r.shape}, expected {real.shape}")
        for i in np.flatnonzero(~np.all(_usable(r) | ~real, axis=1)):
            raise CalibrationError(f"finger {i}: segment ratios must be finite and > 0, "
                                   f"got {r[i][real[i]].tolist()}")
        for i in np.flatnonzero(~np.all((r == 1.0) | real, axis=1)):
            raise CalibrationError(f"finger {i}: ratio slots past its segments must hold 1.0")
        for name, value, shape in (("q0", q0, (q0.size,)), ("anchor offsets", u, (len(real), 3))):
            if value.shape != shape:
                raise CalibrationError(f"{name} has shape {value.shape}, expected {shape}")
            if not np.all(np.isfinite(value)):
                raise CalibrationError(f"{name} has a non-finite entry")
        for fault in _coupling_faults(self.coupling_fingers, len(real), "w_star"):
            raise CalibrationError(fault)
        for i in self.coupling_fingers:
            lo, hi = d_min.get(i), d_max.get(i)
            if lo is None or hi is None or not 0.0 < hi - lo < np.inf:  # so both are finite
                raise CalibrationError(f"coupled finger {i}: needs d_max > d_min, "
                                       f"a finite span apart, got [{lo}, {hi}]")
        for name, value in zip(("r", "u", "q0", "d_min", "d_max"), (r, u, q0, d_min, d_max)):
            object.__setattr__(self, name, value)


def calibrate(model, q0, w_star):
    """Fit calibration data from one extended-pose landmark frame.

    Args:
        model: robot hand model.
        q0: robot reference configuration matching the human calibration
            pose (typically the extended rest pose).
        w_star: KeypointFrame captured at the calibration pose; every
            landmark must be valid and every segment non-degenerate.

    Returns:
        CalibrationData with r > 0 per segment, d_max > d_min = 0 per
        coupled finger.  Every finger after the thumb (finger 0) is coupled
        to it.
    """
    q0 = np.asarray(q0, dtype=float)
    _check_calibration(model, w_star, q0)
    if not w_star.valid.all():
        raise CalibrationError("calibration frame must have every landmark valid")
    if not np.isfinite(w_star.w).all():
        raise CalibrationError("calibration frame has a non-finite landmark")

    robot = kinematics.forward_kinematics(model, q0)  # the robot's keypoints on the frame's slots
    tips = w_star.tips()
    with np.errstate(over="ignore"):  # a huge landmark's length overflows to inf, rejected below
        human_seg, robot_seg = (_norms(np.diff(p, axis=1)) for p in (w_star.w, robot))
        spans = _norms(tips[1:] - tips[0])
    real = w_star.segments()
    for i, j in zip(*np.nonzero(real & ~(_usable(human_seg) & (robot_seg > 0.0)))):
        side, length = ("robot", robot_seg[i, j]) if _usable(human_seg[i, j]) \
            else ("human", human_seg[i, j])
        raise CalibrationError(f"finger {i} segment {j}: {side} segment length is {length:g}; "
                               f"it must be finite and > 0")
    for i in np.flatnonzero(~_usable(spans)) + 1:
        raise CalibrationError(f"finger {i}: tip-to-thumb span at the calibration pose is "
                               f"{spans[i - 1]:g}; it must be finite and > 0")
    ratios = np.divide(robot_seg, human_seg, out=np.ones_like(robot_seg), where=real)
    offsets = robot[:, ANCHOR_INDEX] - w_star.w[:, ANCHOR_INDEX]
    coupling_fingers = tuple(range(1, len(model.fingers)))
    d_min, d_max = dict.fromkeys(coupling_fingers, 0.0), dict(zip(coupling_fingers, spans.tolist()))
    return CalibrationData(ratios, offsets, w_star.copy(), q0, d_min, d_max, coupling_fingers)


def _usable(length):
    """Whether a calibration length is finite and > 0, elementwise."""
    return (length > 0.0) & (length < np.inf)


def _check_calibration(model, w_star, q0):
    """Raise CalibrationError unless ``w_star`` and ``q0`` fit ``model``'s layout and joints."""
    if w_star.counts() != model.keypoint_counts():
        raise CalibrationError(f"calibration frame layout {w_star.counts()} does not match "
                               f"model layout {model.keypoint_counts()}")
    if q0.shape != (model.total_dof,):
        raise CalibrationError(f"q0 has shape {q0.shape}, expected ({model.total_dof},)")
    for fault in _limit_faults("q0", q0, model.lower_limits, model.upper_limits):
        raise CalibrationError(fault)


def adjust_keypoints(frame, cal):
    """Conformally rescale one landmark frame onto the robot's proportions.

    Per finger: v_0 = w_0; v_1 = v_0 + r_0 (w_1 - w_0) + u_i; for j >= 2,
    v_j = v_{j-1} + r_{j-1} (w_j - w_{j-1}).

    Returns:
        (F, M, 3) adjusted targets on the frame's slots; the rows past a
        finger's count are padding and hold no target.
    """
    if frame.counts() != cal.w_star.counts():
        raise RetargetConfigError("frame layout does not match calibration layout")
    w = frame.w
    # equivalent cumulative form v_j = w_j + c_j, c_0 = 0, c_j = c_{j-1} +
    # (r_{j-1} - 1)(w_j - w_{j-1}); degenerates to v = w exactly when
    # every r = 1 and u = 0 instead of re-rounding each segment
    steps = np.zeros_like(w)
    steps[:, 1:] = (cal.r - 1.0)[..., None] * np.diff(w, axis=1)
    steps[:, 1] += cal.u
    corr = np.cumsum(steps, axis=1)
    return np.where(corr == 0.0, w, w + corr)


def baseline_uniform_scaling(frame, alpha):
    """Scale every landmark by ``alpha`` about the wrist root.

    The naive fixed-ratio alternative to :func:`adjust_keypoints`, with the
    same (F, M, 3) result; feeds the same solver for side-by-side comparisons.
    """
    require(POSITIVE, "alpha", alpha, RetargetConfigError)
    corr = (alpha - 1.0) * (frame.w - frame.w[0, 0])  # alpha = 1 stays exactly w
    return np.where(corr == 0.0, frame.w, frame.w + corr)


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
    finger approaches the thumb; omega_i = sigmoid(k (d_i - c)) for finite k and c.
    """
    require(FINITE, "sigmoid_k", k, RetargetConfigError)
    require(FINITE, "sigmoid_c", c, RetargetConfigError)
    fingers = cal.coupling_fingers
    lo, hi = (np.array([b[i] for i in fingers], dtype=float) for b in (cal.d_min, cal.d_max))
    tips = frame.tips()
    delta = tips[list(fingers)] - tips[0]
    d = np.clip(1.0 - (_norms(delta) - lo) / (hi - lo), 0.0, 1.0)
    with np.errstate(over="ignore"):  # a steep gate sends exp to inf, and omega to 0
        omega = 1.0 / (1.0 + np.exp(-k * (d - c)))  # sigmoid gate
    return CouplingState(tuple(fingers), delta, d, omega)


@dataclass
class RetargetProblem:
    """A stream's solve: settings and residual layout, checked and fixed once,
    and one frame's targets, coupling and warm start, checked by :meth:`at`.

    ``pairs`` are the (finger, keypoint) frames aligned with rows of
    ``targets``; ``slots`` the (K, 2) keypoints each evaluation places (the
    pairs, then the thumb tip and each coupled tip when a finger is coupled);
    ``rows`` the term of each residual row (0 align, 1 couple, 2 smooth);
    ``weights`` each row's sqrt(lambda).

    The problem also owns its evaluation plan, fixed once: the slots' gather
    plan, the whole-hand walk buffers, and the last evaluated pose with its
    keypoints and their Jacobian, read-only.  A frame's first evaluation, at
    its warm start, is usually the pose the previous frame's solve evaluated
    last, and reuses them.  So a problem serves one evaluation at a time."""

    model: HandModel
    pairs: tuple[tuple[int, int], ...]
    targets: np.ndarray                 # (P, 3)
    coupling: CouplingState | None
    q_prev: np.ndarray
    lambdas: tuple[float, float, float] = DEFAULT_LAMBDAS
    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    slots: np.ndarray = field(init=False, repr=False)
    rows: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    _plan: kinematics.SlotPlan = field(init=False, repr=False)
    _walk: tuple = field(init=False, repr=False)
    _last: tuple = field(init=False, repr=False, default=(None, None, None))

    def __post_init__(self):
        self.pairs = tuple((int(i), int(j)) for i, j in self.pairs)
        for i, j in self.pairs:
            try:
                self.model.keypoint(i, j)
            except KeyError:
                raise RetargetConfigError(f"alignment pair ({i}, {j}) names no keypoint "
                                          f"of model {self.model.name!r}") from None
        require(_LAMBDAS, "lambdas", self.lambdas, RetargetConfigError)
        require(POSITIVE, "tolerance", self.tolerance, RetargetConfigError)
        require(COUNT, "max_iterations", self.max_iterations, RetargetConfigError)
        coupled = () if self.coupling is None else tuple(self.coupling.fingers)
        for fault in _coupling_faults(coupled, len(self.model.fingers),
                                      f"model {self.model.name!r}"):
            raise RetargetConfigError(fault)
        tips = [(i, self.model.fingers[i].tip_index) for i in (0,) + coupled] if coupled else []
        self.slots = np.array(self.pairs + tuple(tips), dtype=int).reshape(-1, 2)
        self.rows = np.repeat([0, 1, 2], (3 * len(self.pairs), 3 * len(coupled),
                                          self.model.total_dof))
        self.weights = np.sqrt(np.take(self.lambdas, self.rows))
        self._plan, self._walk = _plan_slots(self.model, self.slots), _walk_buffers(self.model)
        self.at(self.targets, self.coupling, self.q_prev)

    def at(self, targets, coupling, q_prev):
        """Check and hold one frame's targets, coupling and warm start; returns self."""
        targets, q_prev = np.asarray(targets, dtype=float), np.asarray(q_prev, dtype=float)
        n = self.model.total_dof
        if q_prev.shape != (n,):
            raise RetargetConfigError(f"q_prev has shape {q_prev.shape}, expected ({n},)")
        if targets.shape != (len(self.pairs), 3):
            raise RetargetConfigError("targets must be (len(pairs), 3)")
        if not (np.all(np.isfinite(targets)) and np.all(np.isfinite(q_prev))):
            raise RetargetConfigError("targets and q_prev must be finite")
        fingers = () if coupling is None else tuple(coupling.fingers)
        coupled = tuple(self.slots[len(self.pairs) + 1:, 0].tolist())
        if fingers != coupled:
            raise RetargetConfigError(f"coupling of fingers {fingers}, the layout's are {coupled}")
        if coupling is not None:
            m = len(fingers)
            if np.shape(coupling.delta) != (m, 3) or np.shape(coupling.omega) != (m,):
                raise RetargetConfigError(f"coupling of {m} fingers needs delta ({m}, 3) and "
                                          f"omega ({m},), got {np.shape(coupling.delta)} and "
                                          f"{np.shape(coupling.omega)}")
            if not np.all(np.isfinite(coupling.delta)):
                raise RetargetConfigError("coupling offsets delta must be finite")
            if not np.all((coupling.omega >= 0.0) & (coupling.omega <= 1.0)):
                raise RetargetConfigError("coupling weights must lie in [0, 1]")
        self.targets, self.coupling, self.q_prev = targets, coupling, q_prev
        return self


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
    finger, then q - q_prev.  The objective weighs block b by lambda_b.

    The keypoints and their Jacobian come from the walk into ``prob``'s
    buffers, through this module's ``_chain_state`` and
    ``linear_jacobian_block``, or, when q is bit for bit the last pose
    evaluated, from that evaluation.  e and J are fresh arrays on every call."""
    n, key = prob.model.total_dof, q.tobytes()
    if key != prob._last[0]:  # else q is, bit for bit, the last point evaluated
        at = _gather(prob.model, _chain_state(prob.model, None, q, out=prob._walk), prob._plan)
        p, dp = at.points, linear_jacobian_block(at, n)  # positions, dp/dq
        p.flags.writeable = dp.flags.writeable = False
        prob._last = key, p, dp
    _, p, dp = prob._last
    m = len(prob.pairs)  # the thumb tip's row, if a finger is coupled
    e, jac = np.empty(len(prob.rows)), np.zeros((len(prob.rows), n))
    np.subtract(prob.targets, p[:m], out=e[:3 * m].reshape(m, 3))
    np.negative(dp[:m], out=jac[:3 * m].reshape(m, 3, n))
    if len(p) > m:
        s = np.sqrt(prob.coupling.omega)[:, None]
        e[3 * m:-n] = (s * (prob.coupling.delta - (p[m + 1:] - p[m]))).reshape(-1)
        jac[3 * m:-n] = (-s[..., None] * (dp[m + 1:] - dp[m])).reshape(-1, n)
    np.subtract(q, prob.q_prev, out=e[-n:])
    jac[-n:].flat[::n + 1] = 1.0
    return e, jac


def objective(q, prob):
    """Total weighted objective and its (align, couple, smooth) terms."""
    e, _ = _residuals(np.asarray(q, dtype=float), prob)
    terms = np.bincount(prob.rows, e * e, minlength=3)
    return float(np.dot(prob.lambdas, terms)), terms


def objective_gradient(q, prob):
    """Analytic gradient of the total objective, 2 J^T (lambda e) by rows."""
    e, jac = _residuals(np.asarray(q, dtype=float), prob)
    return 2.0 * jac.T @ (np.take(prob.lambdas, prob.rows) * e)


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
        held = not free.all()  # else the index copies below would copy everything
        g, a = (g[free], (jac.T @ jac)[np.ix_(free, free)]) if held else (g, jac.T @ jac)
        d = np.maximum(np.diag(a), _DIAG_FLOOR)
        while True:
            s = np.linalg.solve(a + np.diag(mu * d), -g)
            if held:
                x_new = x.copy()
                x_new[free] = np.clip(x[free] + s, lower[free], upper[free])
            else:
                x_new = np.clip(x + s, lower, upper)
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
    res = minimize(lambda x: _residuals(x, prob), prob.weights, prob.q_prev,
                   prob.model.lower_limits, prob.model.upper_limits,
                   prob.tolerance, prob.max_iterations)
    terms = np.bincount(prob.rows, res.e * res.e, minlength=3)
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
    solver_failed: bool     # solve raised or was not finite; q holds the previous output
    filled: int             # landmarks filled from history this frame


def retarget_stream(model, cal, frames, lambdas=DEFAULT_LAMBDAS,
                    sigmoid_k=DEFAULT_SIGMOID_K, sigmoid_c=DEFAULT_SIGMOID_C,
                    pairs=None, tolerance=DEFAULT_TOLERANCE,
                    max_iterations=DEFAULT_MAX_ITERATIONS, scaling_alpha=None):
    """Retarget an ordered landmark stream into a joint trajectory.

    The calibration and the settings are checked before the first frame.
    Missing landmarks, and landmarks with a non-finite coordinate, are
    filled from the last valid value for up to ``MAX_HOLD_FRAMES``
    consecutive frames; beyond that the frame is rejected and the previous
    output is held.  A frame whose targets, tip offsets or solved residual
    terms are not finite (a huge landmark overflows them) is marked
    ``solver_failed`` and also holds the previous output.  The first frame
    warm-starts from the calibration configuration.  ``scaling_alpha``
    switches the target construction from conformal adjustment to uniform
    scaling.

    Returns:
        list of StreamStep, one per input frame.
    """
    _check_calibration(model, cal.w_star, cal.q0)
    # the newest valid value of each landmark, and the frames since it was
    # valid; one never valid is rejected before its zero is read
    held = KeypointFrame(np.zeros(model.chains.offset.shape), model.keypoint_counts())
    ages = np.full(held.valid.shape, MAX_HOLD_FRAMES)
    coupling = coupling_weights(held, cal, sigmoid_k, sigmoid_c)  # checks k and c
    if scaling_alpha is not None:
        require(POSITIVE, "scaling_alpha", scaling_alpha, RetargetConfigError)
    pairs = default_pairs(model) if pairs is None else tuple(pairs)
    lambdas = tuple(lambdas)
    if not (len(lambdas) == 3 and lambdas[1] > 0.0):  # bad lambdas fail in the problem
        coupling = None
    q_prev, residuals = cal.q0, np.zeros(3)
    prob = RetargetProblem(model, pairs, np.zeros((len(pairs), 3)), coupling, q_prev,
                           lambdas=lambdas, tolerance=tolerance, max_iterations=max_iterations)
    fingers, index = prob.slots[:len(prob.pairs)].T
    steps = []
    for idx, frame in enumerate(frames):
        if frame.counts() != model.keypoint_counts():
            raise RetargetConfigError(f"frame {idx} layout {frame.counts()} does not match the model")
        seen = frame.valid & np.isfinite(frame.w).all(axis=2)  # non-finite counts as missing
        ages = np.where(seen, 0, ages + 1)
        held.w[seen] = frame.w[seen]
        rejected = bool(np.any(ages > MAX_HOLD_FRAMES))
        result = None
        if not rejected:
            # a huge landmark can overflow a target, a tip offset or a residual
            # term to inf; such a frame fails and holds the previous output
            with np.errstate(over="ignore", invalid="ignore"):
                v = (adjust_keypoints(held, cal) if scaling_alpha is None
                     else baseline_uniform_scaling(held, scaling_alpha))[fingers, index]
                coupling = prob.coupling and coupling_weights(held, cal, sigmoid_k, sigmoid_c)
                if np.isfinite(v).all() and (coupling is None or np.isfinite(coupling.delta).all()):
                    with contextlib.suppress(np.linalg.LinAlgError):
                        result = solve_retarget(prob.at(v, coupling, q_prev))
            if result is not None and not np.isfinite(result.residuals).all():
                result = None
        if result is not None:
            q_prev, residuals = result.q, result.residuals
        steps.append(StreamStep(idx, frame.timestamp, q_prev.copy(), residuals.copy(),
                                converged=result is not None and result.converged,
                                rejected=rejected, solver_failed=result is None and not rejected,
                                filled=int(np.count_nonzero(ages))))
    return steps
