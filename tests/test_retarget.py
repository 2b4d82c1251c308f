"""Calibration, conformal adjustment, coupling, objective, solver, stream."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexretarget import retarget
from dexretarget.kinematics import forward_kinematics
from dexretarget.retarget import (CalibrationData, CalibrationError, CouplingState,
                                  KeypointFrame, RetargetConfigError, RetargetProblem,
                                  adjust_keypoints, baseline_uniform_scaling, calibrate,
                                  coupling_weights, default_pairs, objective,
                                  objective_gradient, retarget_stream, solve_retarget)

from conftest import GESTURES, identity_frame, ragged_frame, random_frame


# --- calibration --------------------------------------------------------------

def test_identity_calibration(robot):
    cal = calibrate(robot, robot.rest_pose, identity_frame(robot))
    for r in cal.r:
        assert np.all(r == 1.0)
    assert np.all(cal.u == 0.0)


def test_half_scale_calibration(robot):
    # human segments exactly half the robot's, with coincident knuckles
    fk = identity_frame(robot)
    w = []
    for pts in fk.w:
        h = np.empty_like(pts)
        h[1] = pts[1]
        h[0] = pts[1] - 0.5 * (pts[1] - pts[0])
        for j in range(2, pts.shape[0]):
            h[j] = h[j - 1] + 0.5 * (pts[j] - pts[j - 1])
        w.append(h)
    cal = calibrate(robot, robot.rest_pose, ragged_frame(w))
    for r in cal.r:
        np.testing.assert_allclose(r, 2.0, atol=1e-12)
    np.testing.assert_allclose(cal.u, 0.0, atol=1e-12)


def test_calibration_distance_bounds(robot, calibration):
    fk = forward_kinematics(robot, robot.rest_pose)
    assert calibration.coupling_fingers == (1, 2, 3, 4)
    for i in calibration.coupling_fingers:
        assert calibration.d_min[i] == 0.0
        w = calibration.w_star.w
        expect = np.linalg.norm(w[i][-1] - w[0][-1])
        assert calibration.d_max[i] == pytest.approx(expect, rel=1e-12)
        assert calibration.d_max[i] > calibration.d_min[i]
    assert fk[(0, 4)] is not None  # reference pose is reachable


def test_calibration_ratio_definition(robot, calibration):
    fk = forward_kinematics(robot, robot.rest_pose)
    w = calibration.w_star.w
    for i, r in enumerate(calibration.r):
        for j in range(r.size):
            num = np.linalg.norm(fk[(i, j + 1)] - fk[(i, j)])
            den = np.linalg.norm(w[i][j + 1] - w[i][j])
            assert r[j] == pytest.approx(num / den, rel=1e-12)


def test_calibration_rejects_zero_segment(robot):
    frame = identity_frame(robot)
    frame.w[2][3] = frame.w[2][2]  # middle finger: collapse segment j=2
    with pytest.raises(CalibrationError, match="finger 2 segment 2"):
        calibrate(robot, robot.rest_pose, frame)


def test_calibration_rejects_invalid_landmarks(robot):
    frame = identity_frame(robot)
    frame.valid[1][3] = False
    with pytest.raises(CalibrationError, match="valid"):
        calibrate(robot, robot.rest_pose, frame)


def test_calibration_rejects_non_finite_landmarks(robot):
    for bad in (np.nan, np.inf):
        frame = identity_frame(robot)
        frame.w[2][3][1] = bad  # flagged valid, but not a position
        with pytest.raises(CalibrationError, match="non-finite"):
            calibrate(robot, robot.rest_pose, frame)


def test_calibration_rejects_layout_mismatch(robot):
    frame = identity_frame(robot)
    short = ragged_frame([w[:4] for w in frame.w])
    with pytest.raises(CalibrationError):
        calibrate(robot, robot.rest_pose, short)


def test_calibration_rejects_wrong_q0_shape(robot):
    with pytest.raises(CalibrationError, match=re.escape("q0 has shape (19,), expected (20,)")):
        calibrate(robot, robot.rest_pose[:-1], identity_frame(robot))


@pytest.mark.parametrize("value", [9.0, -0.81, np.nan, np.inf], ids=["9", "below", "nan", "inf"])
def test_calibration_rejects_q0_off_its_limits_before_any_walk(robot, value):
    q0 = robot.rest_pose.copy()
    q0[0] = value  # the thumb's first joint, limited to [-0.8, 0.5]
    needle = f"q0: values must lie within joint limits; joint 0 is {value:g}, outside [-0.8, 0.5]"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a walk at a NaN or inf angle warns
        with pytest.raises(CalibrationError, match=re.escape(needle)):
            calibrate(robot, q0, identity_frame(robot))


def test_stream_rejects_calibration_q0_off_its_limits(robot):
    cal = calibrate(robot, robot.rest_pose, identity_frame(robot))
    for joint, value in ((0, 9.0), (19, robot.upper_limits[19] + 1e-9)):
        q0 = robot.rest_pose.copy()
        q0[joint] = value
        off = CalibrationData(cal.r, cal.u, cal.w_star, q0, cal.d_min, cal.d_max,
                              cal.coupling_fingers)
        with pytest.raises(CalibrationError, match=f"q0: values must lie within joint limits; "
                                                   f"joint {joint} is "):
            retarget_stream(robot, off, [])  # checked before the first frame


def test_calibration_accepts_q0_on_its_limits(robot):
    for q0 in (robot.lower_limits, robot.upper_limits):
        assert np.array_equal(calibrate(robot, q0, identity_frame(robot)).q0, q0)


def test_calibration_rejects_zero_tip_to_thumb_span(robot):
    frame = identity_frame(robot)
    frame.w[2, -1] = frame.w[0, -1]  # middle fingertip on the thumb tip
    with pytest.raises(CalibrationError, match="finger 2: tip-to-thumb span at the calibration "
                                               "pose is 0; it must be finite and > 0"):
        calibrate(robot, robot.rest_pose, frame)


def _small_calibration(**change):
    """A sound calibration of two fingers with 3 and 2 keypoints, fields
    replaced by ``change``: finger 1's second ratio slot is padding."""
    frame = ragged_frame([np.arange(9.0).reshape(3, 3), np.arange(6.0).reshape(2, 3)])
    fields = dict(r=np.array([[2.0, 0.5], [3.0, 1.0]]), u=np.zeros((2, 3)), w_star=frame,
                  q0=np.zeros(4), d_min={1: 0.0}, d_max={1: 0.1}, coupling_fingers=(1,))
    return CalibrationData(**{**fields, **change})


@pytest.mark.parametrize("change, needle", [
    ({"r": np.ones((2, 3))}, "segment ratios have shape (2, 3), expected (2, 2)"),
    ({"r": np.array([[2.0, 0.0], [np.nan, 1.0]])},
     "finger 0: segment ratios must be finite and > 0, got [2.0, 0.0]"),
    ({"r": np.array([[2.0, 0.5], [-np.inf, 1.0]])},
     "finger 1: segment ratios must be finite and > 0, got [-inf]"),
    ({"r": np.array([[2.0, 0.5], [3.0, 2.0]])},
     "finger 1: ratio slots past its segments must hold 1.0"),
    ({"u": np.zeros((2, 2))}, "anchor offsets has shape (2, 2), expected (2, 3)"),
    ({"u": np.array([[0.0, 0.0, 0.0], [0.0, np.nan, 0.0]])},
     "anchor offsets has a non-finite entry"),
    ({"q0": np.zeros((2, 2))}, "q0 has shape (2, 2), expected (4,)"),
    ({"q0": np.array([0.0, np.inf])}, "q0 has a non-finite entry"),
    ({"coupling_fingers": (1, 2)}, "coupled finger 2 is not a finger of w_star"),
    ({"coupling_fingers": (-1,)}, "coupled finger -1 is not a finger of w_star"),
    ({"coupling_fingers": (1, 1)}, "coupled finger 1 is listed twice"),
    ({"coupling_fingers": (1, 0), "d_min": {0: 0.0, 1: 0.0}, "d_max": {0: 0.1, 1: 0.1}},
     "coupled finger 0 is the thumb"),
    ({"d_max": {}},
     "coupled finger 1: needs d_max > d_min, a finite span apart, got [0.0, None]"),
    ({"d_max": {1: 0.0}},
     "coupled finger 1: needs d_max > d_min, a finite span apart, got [0.0, 0.0]"),
    ({"d_min": {1: -np.inf}},
     "coupled finger 1: needs d_max > d_min, a finite span apart, got [-inf, 0.1]"),
    ({"d_min": {1: -1.0e308}, "d_max": {1: 1.0e308}},
     "coupled finger 1: needs d_max > d_min, a finite span apart, got [-1e+308, 1e+308]"),
], ids=["r_shape", "r_zero", "r_infinite", "r_padding", "u_shape", "u_nan", "q0_not_a_vector",
        "q0_inf", "coupled_finger_past_w_star", "coupled_finger_negative",
        "coupled_finger_repeated", "coupled_thumb", "d_max_missing",
        "empty_distance_range", "d_min_infinite", "distance_span_overflowing"])
def test_calibration_checks_its_values_when_built(change, needle):
    _small_calibration()
    with pytest.raises(CalibrationError) as err:
        _small_calibration(**change)
    assert str(err.value) == needle


def test_calibration_holds_read_only_copies():
    r, q0, d_max = np.array([[2.0, 0.5], [3.0, 1.0]]), np.zeros(4), {1: 0.1}
    cal = _small_calibration(r=r, q0=q0, d_max=d_max)
    r[0, 0], q0[0], d_max[1] = -1.0, np.nan, -1.0  # the caller's own, changed after
    assert cal.r[0, 0] == 2.0 and cal.q0[0] == 0.0 and cal.d_max[1] == 0.1
    for a in (cal.r, cal.u, cal.q0):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 7.0
    with pytest.raises(TypeError):
        cal.d_max[1] = 0.0
    with pytest.raises(TypeError):
        cal.d_min[1] = 0.0


# --- landmark frames -------------------------------------------------------------

def test_frame_holds_the_arrays_it_is_given():
    w, valid = np.zeros((2, 3, 3)), np.ones((2, 3), dtype=bool)
    w[:, 0] = 0.5  # the wrist fills finger 1's j = 0: a keypoint, not padding
    valid[0, 1] = False
    frame = KeypointFrame(w, (3, 2), valid, timestamp=0.25)
    assert frame.w is w and frame.valid is valid
    assert frame.counts() == (3, 2) and frame.timestamp == 0.25
    copy = frame.copy()
    assert not np.shares_memory(copy.w, w) and not np.shares_memory(copy.valid, valid)
    assert copy.w.tobytes() == w.tobytes() and np.array_equal(copy.valid, valid)
    assert copy.counts() == (3, 2) and copy.timestamp == 0.25


@pytest.mark.parametrize("w_shape, valid_shape, pad_w, pad_valid, needle", [
    ((2, 2, 3), (2, 3), 0.0, True,
     "keypoint counts (3, 2) need w (2, 3, 3) and valid (2, 3), got (2, 2, 3) and (2, 3)"),
    ((2, 3, 3), (3, 2), 0.0, True,
     "keypoint counts (3, 2) need w (2, 3, 3) and valid (2, 3), got (2, 3, 3) and (3, 2)"),
    ((2, 3, 3), (2, 3), -1e-300, True, "slots past a finger's keypoint count must be zero and valid"),
    ((2, 3, 3), (2, 3), 0.0, False, "slots past a finger's keypoint count must be zero and valid"),
], ids=["w_shape", "valid_shape", "padding_not_zero", "padding_not_valid"])
def test_frame_rejects_arrays_not_fitting_counts(w_shape, valid_shape, pad_w, pad_valid, needle):
    w, valid = np.zeros(w_shape), np.ones(valid_shape, dtype=bool)
    w[1, 2:], valid[1, 2:] = pad_w, pad_valid  # slot (1, 2): finger 1 has 2 keypoints
    with pytest.raises(ValueError) as err:
        KeypointFrame(w, (3, 2), valid)
    assert str(err.value) == needle


# --- conformal adjustment -------------------------------------------------------

def test_identity_adjustment_is_bitwise(robot):
    cal = calibrate(robot, robot.rest_pose, identity_frame(robot))
    rng = np.random.default_rng(0)
    for _ in range(50):
        frame = random_frame(robot.keypoint_counts(), rng)
        v = adjust_keypoints(frame, cal)
        for wi, vi in zip(frame.w, v):
            assert wi.tobytes() == vi.tobytes()


def test_double_scale_straight_finger():
    w = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    frame = ragged_frame([w])
    cal = CalibrationData(r=np.array([[2.0, 2.0, 2.0]]), u=np.zeros((1, 3)),
                          w_star=frame, q0=np.zeros(2), d_min={}, d_max={},
                          coupling_fingers=())
    v = adjust_keypoints(frame, cal)[0]
    segs = np.diff(v, axis=0)
    np.testing.assert_allclose(np.linalg.norm(segs, axis=1), 2.0, atol=1e-15)
    np.testing.assert_allclose(segs / 2.0, np.diff(w, axis=0), atol=1e-15)


def test_segment_law_on_random_frames(robot, calibration):
    rng = np.random.default_rng(1)
    for _ in range(100):
        frame = random_frame(robot.keypoint_counts(), rng)
        v = adjust_keypoints(frame, calibration)
        for i, r in enumerate(calibration.r):
            for j in range(2, frame.w[i].shape[0]):
                seg_v = v[i][j] - v[i][j - 1]
                seg_w = r[j - 1] * (frame.w[i][j] - frame.w[i][j - 1])
                assert np.linalg.norm(seg_v - seg_w) <= 1e-12 * np.linalg.norm(seg_w)


_landmark = st.tuples(*[st.floats(-1.0, 1.0)] * 3)


@st.composite
def segment_case(draw):
    """1-3 fingers of 2-6 random landmarks, each finger with ratios in
    [0.25, 4] (1 included) and an anchor offset, or else r = 1 and u = 0."""
    counts = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
    w, r, u = [], np.ones((len(counts), max(counts) - 1)), []
    for i, count in enumerate(counts):
        w.append(np.array(draw(st.lists(_landmark, min_size=count, max_size=count))))
        identity = draw(st.booleans())
        ratio = st.just(1.0) if identity else st.one_of(st.just(1.0), st.floats(0.25, 4.0))
        r[i, :count - 1] = draw(st.lists(ratio, min_size=count - 1, max_size=count - 1))
        u.append((0.0, 0.0, 0.0) if identity else draw(_landmark))
    frame = ragged_frame(w)
    return frame, CalibrationData(r=r, u=np.array(u), w_star=frame, q0=np.zeros(1),
                                  d_min={}, d_max={}, coupling_fingers=())


def _segment_loop(w, r, u):
    """The per-segment loop form of the adjustment, as a bitwise reference."""
    v = w.copy()
    corr = (r[0] - 1.0) * (w[1] - w[0]) + u
    v[1] = np.where(corr == 0.0, w[1], w[1] + corr)
    for j in range(2, w.shape[0]):
        corr = corr + (r[j - 1] - 1.0) * (w[j] - w[j - 1])
        v[j] = np.where(corr == 0.0, w[j], w[j] + corr)
    return v


@settings(max_examples=100, deadline=None)
@given(segment_case())
def test_segment_law_property(case):
    frame, cal = case
    for w, v, r, u, c in zip(frame.w, adjust_keypoints(frame, cal), cal.r, cal.u,
                             frame.counts()):
        w, v, r = w[:c], v[:c], r[:c - 1]
        assert v.tobytes() == _segment_loop(w, r, u).tobytes()
        if np.all(r == 1.0) and not np.any(u):
            assert v.tobytes() == w.tobytes()
        assert v[0].tobytes() == w[0].tobytes()
        expected = r[:, None] * np.diff(w, axis=0)
        expected[0] += u
        err = np.abs(np.diff(v, axis=0) - expected).max()
        assert err <= 1e-12 * (1.0 + np.abs(v).max())


def test_adjust_rejects_layout_mismatch(robot, calibration):
    rng = np.random.default_rng(2)
    frame = random_frame((5, 5, 5, 5, 4), rng)
    with pytest.raises(RetargetConfigError, match="layout"):
        adjust_keypoints(frame, calibration)


# --- uniform-scaling baseline ---------------------------------------------------

def test_alpha_one_is_identity(robot):
    rng = np.random.default_rng(3)
    frame = random_frame(robot.keypoint_counts(), rng)
    v = baseline_uniform_scaling(frame, 1.0)
    for wi, vi in zip(frame.w, v):
        assert wi.tobytes() == vi.tobytes()


def test_alpha_two_doubles_wrist_relative_norms(robot):
    rng = np.random.default_rng(4)
    frame = random_frame(robot.keypoint_counts(), rng)
    root = frame.w[0][0]
    v = baseline_uniform_scaling(frame, 2.0)
    for wi, vi in zip(frame.w, v):
        np.testing.assert_allclose(np.linalg.norm(vi - root, axis=1),
                                   2.0 * np.linalg.norm(wi - root, axis=1), rtol=1e-12)


def test_alpha_must_be_positive(robot):
    rng = np.random.default_rng(5)
    frame = random_frame(robot.keypoint_counts(), rng)
    for alpha in (0.0, -1.5, np.nan, np.inf, -np.inf):
        with pytest.raises(RetargetConfigError, match="alpha must be finite and > 0"):
            baseline_uniform_scaling(frame, alpha)


# --- coupling weights -----------------------------------------------------------

def frame_with_gap(calibration, finger, gap):
    """Calibration pose landmarks with one fingertip moved to ``gap`` meters
    from the thumb tip."""
    frame = calibration.w_star.copy()
    thumb_tip = frame.w[0][-1]
    direction = frame.w[finger][-1] - thumb_tip
    direction /= np.linalg.norm(direction)
    frame.w[finger][-1] = thumb_tip + gap * direction
    return frame


def test_contact_end_of_range(calibration):
    state = coupling_weights(frame_with_gap(calibration, 1, 1e-15), calibration)
    m = state.fingers.index(1)
    assert state.d[m] == pytest.approx(1.0, abs=1e-12)
    assert state.omega[m] == pytest.approx(1.0 / (1.0 + np.exp(-10.0 * 0.5)), rel=1e-12)


def test_extended_end_of_range(calibration):
    gap = calibration.d_max[1]
    state = coupling_weights(frame_with_gap(calibration, 1, gap), calibration)
    m = state.fingers.index(1)
    assert state.d[m] == pytest.approx(0.0, abs=1e-12)


def test_midpoint_weight_is_half(calibration):
    gap = 0.5 * calibration.d_max[1]  # d = c = 0.5 with d_min = 0
    state = coupling_weights(frame_with_gap(calibration, 1, gap), calibration)
    m = state.fingers.index(1)
    assert state.omega[m] == 0.5


def test_distance_is_clamped(calibration):
    state = coupling_weights(frame_with_gap(calibration, 1, 2.0 * calibration.d_max[1]),
                             calibration)
    m = state.fingers.index(1)
    assert state.d[m] == 0.0


def test_omega_strictly_decreasing_in_gap(calibration):
    gaps = np.linspace(1e-6, 1.5 * calibration.d_max[1], 40)
    omegas = []
    for gap in gaps:
        state = coupling_weights(frame_with_gap(calibration, 1, gap), calibration)
        omegas.append(state.omega[state.fingers.index(1)])
    omegas = np.array(omegas)
    assert np.all(omegas > 0.0) and np.all(omegas < 1.0)
    inside = gaps < calibration.d_max[1]  # strictly monotone until the clamp
    assert np.all(np.diff(omegas[inside]) < 0.0)
    assert np.all(np.diff(omegas) <= 0.0)


@pytest.mark.parametrize("k, c, needle", [
    (np.nan, 0.5, "sigmoid_k must be finite, got nan"),
    (np.inf, 0.5, "sigmoid_k must be finite, got inf"),
    (-np.inf, 0.5, "sigmoid_k must be finite, got -inf"),
    (10.0, np.nan, "sigmoid_c must be finite, got nan"),
    (10.0, np.inf, "sigmoid_c must be finite, got inf"),
    (10.0, -np.inf, "sigmoid_c must be finite, got -inf"),
])
def test_coupling_weights_reject_a_non_finite_gate(calibration, k, c, needle):
    with pytest.raises(RetargetConfigError, match=f"^{needle}$"):
        coupling_weights(calibration.w_star, calibration, k, c)


def test_steep_gate_is_a_step_without_warnings(calibration, gesture_frames):
    # exp(-k (d - c)) overflows to inf below the midpoint, which gives omega = 0
    frames = gesture_frames["pinch"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states = [coupling_weights(f, calibration, k=1e6) for f in frames]
    assert np.all(states[20].omega == 0.0)
    for state in states:
        assert np.all(state.omega == np.where(state.d > 0.5, 1.0, 0.0))


def _coupling_loop(w, cal, k, c):
    """The per-finger loop form of the coupling terms, as a bitwise reference."""
    fingers = cal.coupling_fingers
    delta, d = np.zeros((len(fingers), 3)), np.zeros(len(fingers))
    for m, i in enumerate(fingers):
        lo, hi = cal.d_min[i], cal.d_max[i]
        delta[m] = w[i][-1] - w[0][-1]
        dist = np.linalg.norm(delta[m])
        d[m] = min(max(1.0 - (dist - lo) / (hi - lo), 0.0), 1.0)
    return delta, d, 1.0 / (1.0 + np.exp(-k * (d - c)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(2, 6), min_size=2, max_size=5),
       st.floats(0.1, 50.0), st.floats(0.0, 1.0))
def test_coupling_matches_finger_loop_property(seed, counts, k, c):
    rng = np.random.default_rng(seed)
    w = [rng.uniform(-0.15, 0.15, (n, 3)) for n in counts]
    frame = ragged_frame(w)
    fingers = tuple(range(1, len(counts)))
    d_min = {i: float(rng.uniform(0.0, 0.1)) for i in fingers}
    d_max = {i: d_min[i] + float(rng.uniform(0.01, 0.4)) for i in fingers}
    cal = CalibrationData(r=np.ones((len(counts), max(counts) - 1)), u=np.zeros((len(counts), 3)),
                          w_star=frame, q0=np.zeros(1), d_min=d_min, d_max=d_max,
                          coupling_fingers=fingers)
    state = coupling_weights(frame, cal, k, c)
    for got, want in zip((state.delta, state.d, state.omega), _coupling_loop(w, cal, k, c)):
        assert got.tobytes() == want.tobytes()


def test_bad_distance_bounds_rejected(calibration):
    with pytest.raises(CalibrationError, match="coupled finger 1: needs d_max > d_min"):
        CalibrationData(r=calibration.r, u=calibration.u, w_star=calibration.w_star,
                        q0=calibration.q0, d_min={i: 1.0 for i in (1, 2, 3, 4)},
                        d_max={i: 0.5 for i in (1, 2, 3, 4)},
                        coupling_fingers=calibration.coupling_fingers)


def test_equal_distance_bounds_of_one_finger_rejected(calibration):
    lo = calibration.d_min[3]
    with pytest.raises(CalibrationError, match=re.escape(
            f"coupled finger 3: needs d_max > d_min, a finite span apart, got [{lo}, {lo}]")):
        CalibrationData(r=calibration.r, u=calibration.u, w_star=calibration.w_star,
                        q0=calibration.q0, d_min=calibration.d_min,
                        d_max={**calibration.d_max, 3: lo},
                        coupling_fingers=calibration.coupling_fingers)


# --- objective -------------------------------------------------------------------

def make_problem(model, cal, rng, lambdas=(1.0, 1.0, 1.0), coupling=True):
    q_true = rng.uniform(model.lower_limits, model.upper_limits)
    fk = forward_kinematics(model, q_true)
    pairs = default_pairs(model)
    targets = np.array([fk[p] for p in pairs]) + rng.normal(0.0, 0.002, (len(pairs), 3))
    state = None
    if coupling and len(model.fingers) > 1:
        frame = random_frame(model.keypoint_counts(), rng, scale=0.05)
        state = coupling_weights(frame, cal)
    q_prev = np.clip(q_true + rng.uniform(-0.2, 0.2, model.total_dof),
                     model.lower_limits, model.upper_limits)
    return RetargetProblem(model, pairs, targets, state, q_prev, lambdas=lambdas)


@pytest.mark.parametrize("options, needle", [
    ({"lambdas": (np.nan, 1.0, 1.0)}, "lambdas"), ({"lambdas": (1.0, np.inf, 1.0)}, "lambdas"),
    ({"lambdas": (1.0, 1.0, -1.0)}, "lambdas"), ({"tolerance": np.nan}, "tolerance"),
    ({"layout": (1, 2, 3, 4),
      "coupling": CouplingState((1, 2, 3, 4), np.zeros((4, 3)), np.zeros(4), np.full(4, np.nan))},
     "coupling weights"),
    ({"layout": (1, 2, 3, 4),
      "coupling": CouplingState((1, 2, 3, 4), np.zeros((4, 3)), np.zeros(4), np.full(4, -0.1))},
     "coupling weights"),
    ({"layout": (1, 2, 3, 4),
      "coupling": CouplingState((1, 2, 3, 4), np.zeros((4, 3)), np.zeros(4), np.full(4, 1.5))},
     "coupling weights"),
    ({"pairs": ((0, 4), (-1, 4)), "targets": np.zeros((2, 3))}, r"alignment pair \(-1, 4\)"),
    ({"pairs": ((5, 4),), "targets": np.zeros((1, 3))}, r"alignment pair \(5, 4\)"),
    ({"pairs": ((0, 9),), "targets": np.zeros((1, 3))}, r"alignment pair \(0, 9\)"),
    ({"coupling": CouplingState((9,), np.zeros((1, 3)), np.zeros(1), np.ones(1))},
     "coupled finger 9 is not a finger"),
    ({"coupling": CouplingState((-1,), np.zeros((1, 3)), np.zeros(1), np.ones(1))},
     "coupled finger -1 is not a finger"),
    ({"layout": (1, 2),
      "coupling": CouplingState((1, 2), np.zeros((1, 3)), np.zeros(2), np.ones(2))},
     r"delta \(2, 3\)"),
    ({"layout": (1, 2),
      "coupling": CouplingState((1, 2), np.zeros((2, 3)), np.zeros(2), np.ones(1))},
     r"omega \(2,\)"),
    ({"layout": (1, 2),
      "coupling": CouplingState((1, 2), np.full((2, 3), np.inf), np.zeros(2), np.ones(2))},
     "delta must be finite"),
    ({"layout": (1, 2, 3, 4), "targets": np.full((10, 3), np.nan)}, "targets and q_prev must"),
    ({"layout": (1, 2, 3, 4), "q_prev": np.full(20, np.inf)}, "targets and q_prev must"),
    ({"layout": (1, 2, 3, 4), "targets": np.zeros((9, 3))}, "targets must be"),
    ({"layout": (1, 2, 3, 4), "q_prev": np.zeros(19)},
     r"q_prev has shape \(19,\), expected \(20,\)"),
    ({"layout": (1, 2, 3, 4),
      "coupling": CouplingState((1, 2), np.zeros((2, 3)), np.zeros(2), np.ones(2))},
     r"coupling of fingers \(1, 2\), the layout's are \(1, 2, 3, 4\)"),
    ({"layout": (1, 2, 3, 4), "coupling": None},
     r"coupling of fingers \(\), the layout's are \(1, 2, 3, 4\)"),
    ({"layout": (), "coupling": CouplingState((1,), np.zeros((1, 3)), np.zeros(1), np.ones(1))},
     r"coupling of fingers \(1,\), the layout's are \(\)"),
    ({"tolerance": np.inf}, "tolerance"), ({"max_iterations": True}, "max_iterations"),
    ({"coupling": CouplingState((1, 1), np.zeros((2, 3)), np.zeros(2), np.ones(2))},
     "coupled finger 1 is listed twice"),
    ({"coupling": CouplingState((1, 0), np.zeros((2, 3)), np.zeros(2), np.ones(2))},
     "coupled finger 0 is the thumb")])
def test_problem_rejects_bad_weights_and_tolerance(robot, calibration, options, needle):
    # A case with a "layout" is a fault in one frame's targets, coupling or
    # warm start: RetargetProblem.at rejects it on a sound problem coupling
    # those fingers, and leaves that problem as it was.  The constructor
    # takes its layout from the coupling it is given, so it runs the case
    # unless that coupling couples other fingers than the layout's.
    rng = np.random.default_rng(8)
    good = make_problem(robot, calibration, rng)
    case = {"pairs": good.pairs, "targets": good.targets, "coupling": good.coupling,
            "q_prev": good.q_prev, **options}
    layout = case.pop("layout", None)
    if layout is None or (() if case["coupling"] is None else case["coupling"].fingers) == layout:
        with pytest.raises(RetargetConfigError, match=needle):
            RetargetProblem(robot, **case)
    if layout is not None:
        m = len(layout)
        sound = RetargetProblem(robot, good.pairs, good.targets, CouplingState(
            layout, np.zeros((m, 3)), np.zeros(m), np.full(m, 0.5)), good.q_prev)
        held = (sound.targets, sound.coupling, sound.q_prev)
        with pytest.raises(RetargetConfigError, match=needle):
            sound.at(case["targets"], case["coupling"], case["q_prev"])
        assert all(a is b for a, b in zip((sound.targets, sound.coupling, sound.q_prev), held))


@pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "uncoupled"])
@pytest.mark.parametrize("seed", range(4))
def test_problem_at_solves_as_a_fresh_problem(robot, calibration, seed, coupled):
    # one problem carried from frame to frame solves each frame bit for bit
    # as a problem built for that frame alone
    rng = np.random.default_rng(40 + seed)
    carried = make_problem(robot, calibration, rng, coupling=coupled)
    for _ in range(3):
        fresh = make_problem(robot, calibration, rng, coupling=coupled)
        want = solve_retarget(fresh)
        got = solve_retarget(carried.at(fresh.targets, fresh.coupling, fresh.q_prev))
        assert got.q.tobytes() == want.q.tobytes()
        assert got.residuals.tobytes() == want.residuals.tobytes()
        assert (got.objective, got.iterations, got.converged) == \
            (want.objective, want.iterations, want.converged)


@pytest.mark.parametrize("fingers", [None, (), (1, 2, 3, 4)], ids=["none", "empty", "all"])
def test_problem_fixes_slots_and_rows(robot, fingers):
    pairs = default_pairs(robot)
    coupling = None if fingers is None else CouplingState(
        fingers, np.zeros((len(fingers), 3)), np.zeros(len(fingers)), np.full(len(fingers), 0.5))
    prob = RetargetProblem(robot, pairs, np.zeros((len(pairs), 3)), coupling, robot.rest_pose)
    tips = [(i, robot.fingers[i].tip_index) for i in (0,) + fingers] if fingers else []
    assert prob.slots.tolist() == [list(p) for p in pairs + tuple(tips)]
    e, jac = retarget._residuals(robot.rest_pose, prob)
    assert len(prob.rows) == len(e) == len(jac)
    n_coupled = len(fingers or ())
    assert np.bincount(prob.rows, minlength=3).tolist() == [3 * len(pairs), 3 * n_coupled,
                                                           robot.total_dof]


def test_perfect_match_costs_zero(robot, calibration):
    q = np.clip(calibration.q0 + 0.1, robot.lower_limits, robot.upper_limits)
    fk = forward_kinematics(robot, q)
    pairs = default_pairs(robot)
    targets = np.array([fk[p] for p in pairs])
    tips = {i: fk[(i, robot.fingers[i].tip_index)] for i in range(5)}
    delta = np.array([tips[i] - tips[0] for i in (1, 2, 3, 4)])
    state = CouplingState(fingers=(1, 2, 3, 4), delta=delta,
                          d=np.full(4, 0.5), omega=np.full(4, 0.5))
    prob = RetargetProblem(robot, pairs, targets, state, q_prev=q)
    total, terms = objective(q, prob)
    assert total == pytest.approx(0.0, abs=1e-18)
    np.testing.assert_allclose(terms, 0.0, atol=1e-18)


def test_term_isolation(robot, calibration):
    rng = np.random.default_rng(6)
    prob = make_problem(robot, calibration, rng, lambdas=(0.0, 0.0, 2.0))
    q = rng.uniform(robot.lower_limits, robot.upper_limits)
    total, terms = objective(q, prob)
    dq = q - prob.q_prev
    assert total == pytest.approx(2.0 * float(dq @ dq), rel=1e-12)


def test_objective_decomposition(robot, calibration):
    rng = np.random.default_rng(7)
    for _ in range(20):
        lam = tuple(rng.uniform(0.1, 3.0, 3))
        prob = make_problem(robot, calibration, rng, lambdas=lam)
        q = rng.uniform(robot.lower_limits, robot.upper_limits)
        total, terms = objective(q, prob)
        assert np.all(terms >= 0.0)
        assert abs(total - float(np.dot(lam, terms))) < 1e-9


def test_gradient_matches_finite_differences(robot, calibration):
    rng = np.random.default_rng(8)
    for _ in range(10):
        prob = make_problem(robot, calibration, rng)
        q = rng.uniform(robot.lower_limits, robot.upper_limits) * 0.9
        grad = objective_gradient(q, prob)
        h = 1e-6
        fd = np.zeros_like(grad)
        for k in range(q.size):
            dq = np.zeros_like(q)
            dq[k] = h
            fd[k] = (objective(q + dq, prob)[0] - objective(q - dq, prob)[0]) / (2 * h)
        assert np.max(np.abs(grad - fd)) < 1e-5


# --- solver ----------------------------------------------------------------------

def test_solution_within_limits(robot, calibration):
    rng = np.random.default_rng(9)
    pairs = default_pairs(robot)
    # unreachable targets far outside the workspace force the bounds to bind
    targets = np.full((len(pairs), 3), 2.0)
    prob = RetargetProblem(robot, pairs, targets, None, robot.rest_pose,
                           lambdas=(1.0, 0.0, 0.0))
    res = solve_retarget(prob)
    assert np.all(res.q >= robot.lower_limits)
    assert np.all(res.q <= robot.upper_limits)
    assert rng is not None


def test_smoothness_only_returns_q_prev(robot):
    q_prev = np.clip(robot.rest_pose + 0.2, robot.lower_limits, robot.upper_limits)
    pairs = default_pairs(robot)
    prob = RetargetProblem(robot, pairs, np.zeros((len(pairs), 3)), None, q_prev,
                           lambdas=(0.0, 0.0, 1.0))
    res = solve_retarget(prob)
    np.testing.assert_array_equal(res.q, q_prev)
    assert res.converged


def test_planar_inverse_consistency(planar):
    rng = np.random.default_rng(10)
    pairs = ((0, 1), (0, 2))
    for _ in range(10):
        q_true = rng.uniform(planar.lower_limits, planar.upper_limits)
        fk = forward_kinematics(planar, q_true)
        targets = np.array([fk[p] for p in pairs])
        q_prev = np.clip(q_true + rng.uniform(-0.05, 0.05, 2),
                         planar.lower_limits, planar.upper_limits)
        prob = RetargetProblem(planar, pairs, targets, None, q_prev,
                               lambdas=(1.0, 0.0, 0.0), tolerance=1e-14,
                               max_iterations=300)
        res = solve_retarget(prob)
        assert np.max(np.abs(res.q - q_true)) < 1e-4


def test_solver_is_deterministic(robot, calibration):
    rng = np.random.default_rng(11)
    prob = make_problem(robot, calibration, rng)
    a = solve_retarget(prob)
    b = solve_retarget(prob)
    assert a.q.tobytes() == b.q.tobytes()
    assert a.objective == b.objective
    assert a.residuals.tobytes() == b.residuals.tobytes()
    assert a.iterations == b.iterations and a.converged == b.converged


def test_iteration_budget_flags_not_converged(robot, calibration):
    rng = np.random.default_rng(12)
    prob = make_problem(robot, calibration, rng)
    prob.max_iterations = 1
    prob.tolerance = 1e-18
    res = solve_retarget(prob)
    assert not res.converged
    assert np.all(res.q >= robot.lower_limits) and np.all(res.q <= robot.upper_limits)


def test_argmin_invariant_under_lambda_rescale(robot, calibration):
    rng = np.random.default_rng(13)
    base = make_problem(robot, calibration, rng, lambdas=(1.0, 1.0, 1.0))
    scaled = RetargetProblem(base.model, base.pairs, base.targets, base.coupling,
                             base.q_prev, lambdas=(5.0, 5.0, 5.0),
                             tolerance=base.tolerance * 5.0,
                             max_iterations=base.max_iterations)
    qa = solve_retarget(base).q
    qb = solve_retarget(scaled).q
    assert np.max(np.abs(qa - qb)) < 1e-4


def test_weighted_sum_monotonicity(planar):
    # at the grid optimum, the smoothness term can only shrink as lambda3 grows
    rng = np.random.default_rng(14)
    q_true = rng.uniform(planar.lower_limits, planar.upper_limits)
    fk = forward_kinematics(planar, q_true)
    pairs = ((0, 1), (0, 2))
    targets = np.array([fk[p] for p in pairs])
    q_prev = np.clip(q_true + 0.4, planar.lower_limits, planar.upper_limits)
    prev_smooth = None
    for lam3 in (0.01, 0.1, 1.0, 10.0):
        prob = RetargetProblem(planar, pairs, targets, None, q_prev,
                               lambdas=(1.0, 0.0, lam3), tolerance=1e-12,
                               max_iterations=300)
        res = solve_retarget(prob)
        smooth = res.residuals[2]
        if prev_smooth is not None:
            assert smooth <= prev_smooth + 1e-9
        prev_smooth = smooth


_lambda = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.tuples(_lambda, _lambda, _lambda), st.booleans())
def test_solver_stays_in_box_and_never_rises(robot, seed, lambdas, coupled):
    rng = np.random.default_rng(seed)
    lo, hi = robot.lower_limits, robot.upper_limits
    fk = forward_kinematics(robot, rng.uniform(lo, hi))
    pairs = default_pairs(robot)
    targets = np.array([fk[p] for p in pairs]) + rng.normal(0.0, 0.01, (len(pairs), 3))
    coupling = None
    if coupled:
        coupling = CouplingState(fingers=(1, 2, 3, 4), delta=rng.uniform(-0.1, 0.1, (4, 3)),
                                 d=np.zeros(4), omega=rng.uniform(0.01, 0.99, 4))
    span = hi - lo
    q_prev = rng.uniform(lo - 0.2 * span, hi + 0.2 * span)  # may start outside the box
    prob = RetargetProblem(robot, pairs, targets, coupling, q_prev, lambdas=lambdas)
    res = solve_retarget(prob)
    assert np.all(np.isfinite(res.q))
    assert np.all((res.q >= lo) & (res.q <= hi))
    start, _ = objective(np.clip(q_prev, lo, hi), prob)
    assert res.objective <= start * (1.0 + 1e-12)
    again = solve_retarget(prob)
    assert again.q.tobytes() == res.q.tobytes()
    assert again.residuals.tobytes() == res.residuals.tobytes()
    assert (again.iterations, again.converged) == (res.iterations, res.converged)


# --- streaming ----------------------------------------------------------------

def test_constant_stream_reaches_fixed_point(robot, calibration, gesture_frames):
    # Pure alignment with the full keypoint set: once a frame's solution is
    # found, the identical next frame warm-starts at its own optimum and the
    # solver has nothing left to move.
    frame = gesture_frames["fist"][-1]
    pairs = [(i, j) for i in range(5) for j in range(1, 5)]
    steps = retarget_stream(robot, calibration, [frame] * 8, pairs=pairs,
                            lambdas=(1.0, 0.0, 0.0),
                            tolerance=1e-12, max_iterations=300)
    qs = [s.q for s in steps]
    deltas = [np.linalg.norm(qs[k] - qs[k - 1]) for k in range(1, len(qs))]
    assert min(k for k, d in enumerate(deltas, start=1) if d < 1e-6) <= 5


def test_stream_recovers_smooth_trajectory(robot, calibration):
    rng = np.random.default_rng(15)
    lo, hi = robot.lower_limits, robot.upper_limits
    q_a = np.clip(robot.rest_pose + 0.05, lo, hi)
    q_b = np.clip(q_a + rng.uniform(0.0, 0.4, robot.total_dof), lo, hi)
    counts = robot.keypoint_counts()
    frames, truth = [], []
    for k in range(15):
        tau = k / 14.0
        q = (1 - tau) * q_a + tau * q_b
        frames.append(KeypointFrame(forward_kinematics(robot, q), counts, timestamp=k / 25.0))
        truth.append(q)
    cal = calibrate(robot, robot.rest_pose, identity_frame(robot))
    # All four keypoints per finger: with pip + tip alone the nearly straight
    # finger is close to singular and the distal joints are poorly observable.
    pairs = [(i, j) for i in range(5) for j in range(1, 5)]
    steps = retarget_stream(robot, cal, frames, pairs=pairs,
                            lambdas=(1.0, 0.0, 0.0),
                            tolerance=1e-14, max_iterations=300)
    for step, q in zip(steps, truth):
        assert np.max(np.abs(step.q - q)) < 1e-3


def test_more_smoothing_never_increases_steps(robot, calibration, gesture_frames):
    rng = np.random.default_rng(16)
    frames = []
    for f in gesture_frames["spread"][:12]:
        g = f.copy()
        for w in g.w:
            w += rng.normal(0.0, 0.001, w.shape)
        frames.append(g)

    def mean_step(lam3):
        steps = retarget_stream(robot, calibration, frames,
                                lambdas=(1.0, 1.0, lam3))
        qs = [s.q for s in steps]
        return np.mean([np.linalg.norm(qs[k] - qs[k - 1]) for k in range(1, len(qs))])

    assert mean_step(10.0) <= mean_step(1.0) + 1e-12


def test_stream_fills_short_gaps(robot, calibration, gesture_frames):
    frames = [f.copy() for f in gesture_frames["pinch"][:10]]
    for k in (4, 5):  # index tip missing for 2 frames: within the fill budget
        frames[k].valid[1][4] = False
        frames[k].w[1][4] = 99.0
    steps = retarget_stream(robot, calibration, frames)
    assert not any(s.rejected for s in steps)
    assert steps[4].filled == 1 and steps[5].filled == 1
    assert steps[3].filled == 0


def test_stream_rejects_long_gaps(robot, calibration, gesture_frames):
    frames = [f.copy() for f in gesture_frames["pinch"][:12]]
    for k in range(4, 9):  # gap of 5 > max_hold_frames = 3
        frames[k].valid[1][4] = False
    steps = retarget_stream(robot, calibration, frames)
    rejected = [s.index for s in steps if s.rejected]
    # ages 1..3 fill frames 4..6; the 4th and 5th consecutive misses reject
    assert rejected == [7, 8]
    assert np.array_equal(steps[7].q, steps[6].q)  # holds previous output
    assert np.array_equal(steps[8].q, steps[7].q)


def test_stream_rejects_never_valid_landmark(robot, calibration, gesture_frames):
    frames = [f.copy() for f in gesture_frames["fist"][:3]]
    frames[0].valid[2][3] = False
    steps = retarget_stream(robot, calibration, frames)
    assert steps[0].rejected
    assert not steps[1].rejected


_LANDMARK = st.sampled_from(["ok", "flagged", "nan"])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(_LANDMARK, min_size=3, max_size=3), min_size=1, max_size=9),
       st.booleans())
def test_stream_hold_fill_law(planar, ragged_2dof, pattern, ragged):
    # A frame is rejected iff some landmark is missing (flagged invalid or
    # non-finite) and has been so for over MAX_HOLD_FRAMES consecutive frames
    # or since the first frame; ``filled`` counts the landmarks missing in it.
    # The pattern plays on finger 0; in the ragged model, finger 1 has a
    # padding slot, which never fills, ages or rejects.
    model = ragged_2dof if ragged else planar
    cal = calibrate(model, model.rest_pose, identity_frame(model))
    frames = []
    for k, states in enumerate(pattern):
        frame = identity_frame(model, np.array([0.1, 0.2]) + 0.05 * k)
        for j, state in enumerate(states):
            frame.valid[0][j] = state != "flagged"
            frame.w[0][j, k % 3] = {"ok": frame.w[0][j, k % 3], "flagged": 99.0,
                                    "nan": np.nan}[state]
        frames.append(frame)
    steps = retarget_stream(model, cal, frames)
    runs = np.zeros(3, dtype=int)  # consecutive frames each landmark has been missing
    held = np.array([0.0, 0.0])
    for k, (states, step) in enumerate(zip(pattern, steps)):
        missing = np.array([s != "ok" for s in states])
        runs = np.where(missing, runs + 1, 0)
        rejected = bool(np.any(missing & ((runs > retarget.MAX_HOLD_FRAMES) | (runs == k + 1))))
        assert step.rejected == rejected
        assert step.filled == missing.sum()
        assert np.all(np.isfinite(step.q)) and np.all(np.isfinite(step.residuals))
        if rejected:
            assert not step.converged and not step.solver_failed
            assert np.array_equal(step.q, np.clip(cal.q0, model.lower_limits,
                                                  model.upper_limits) if k == 0 else held)
        held = step.q


@pytest.mark.parametrize("pair", [(5, 4), (0, 9), (-1, 4)])
def test_stream_rejects_bad_alignment_pair(robot, calibration, gesture_frames, pair):
    # checked once, before the first frame is pulled
    pulled = []

    def frames():
        for frame in gesture_frames["pinch"][:2]:
            pulled.append(frame)
            yield frame

    with pytest.raises(RetargetConfigError, match=re.escape(f"alignment pair {pair}")):
        retarget_stream(robot, calibration, frames(), pairs=((0, 4), pair))
    assert not pulled


_BAD_SETTINGS = [
    ("pairs", ((0, 4), (5, 4)), "alignment pair"), ("lambdas", (1.0,), "lambdas"),
    ("lambdas", (1.0, 1.0, 1.0, 1.0), "lambdas"), ("lambdas", (1.0, -1.0, 1.0), "lambdas"),
    ("lambdas", (np.nan, 1.0, 1.0), "lambdas"), ("lambdas", (1.0, 1.0, np.inf), "lambdas"),
    ("tolerance", 0.0, "tolerance"), ("tolerance", np.nan, "tolerance"),
    ("max_iterations", 0, "max_iterations"), ("max_iterations", 2.5, "max_iterations"),
    ("max_iterations", 3.0, "max_iterations"), ("scaling_alpha", 0.0, "scaling_alpha"),
    ("scaling_alpha", -1.5, "scaling_alpha"), ("scaling_alpha", np.nan, "scaling_alpha"),
    ("scaling_alpha", np.inf, "scaling_alpha"), ("sigmoid_k", np.nan, "sigmoid_k"),
    ("sigmoid_k", np.inf, "sigmoid_k"), ("sigmoid_c", -np.inf, "sigmoid_c"),
    ("sigmoid_c", np.nan, "sigmoid_c"), ("tolerance", np.inf, "tolerance"),
    ("max_iterations", True, "max_iterations"),
    # values a rule's comparison cannot test: not of the rule, not a TypeError or ValueError
    ("tolerance", "a", "tolerance"), ("sigmoid_k", None, "sigmoid_k"), ("lambdas", 5, "lambdas"),
    ("lambdas", (1.0, "x", 1.0), "lambdas"), ("lambdas", (1.0, None, 1.0), "lambdas"),
    ("tolerance", np.array([1e-6, 1e-6]), "tolerance")]


@pytest.mark.parametrize("stream", ["good", "all_rejected"])
@pytest.mark.parametrize("setting, value, needle", _BAD_SETTINGS,
                         ids=[f"{s}={v}" for s, v, _ in _BAD_SETTINGS])
def test_stream_rejects_bad_setting_before_the_first_frame(robot, calibration, gesture_frames,
                                                           setting, value, needle, stream):
    frames = [f.copy() for f in gesture_frames["pinch"][:3]]
    if stream == "all_rejected":
        for frame in frames:
            frame.valid[2][3] = False  # never valid: with sound settings every frame is rejected
        assert all(s.rejected for s in retarget_stream(robot, calibration, frames))
    pulled = []

    def pull():
        for frame in frames:
            pulled.append(frame)
            yield frame

    with pytest.raises(RetargetConfigError, match=needle):
        retarget_stream(robot, calibration, pull(), **{setting: value})
    assert not pulled


@pytest.mark.parametrize("settings", [{}, {"lambdas": (1.0, 0.0, 0.0), "scaling_alpha": 2.0}],
                         ids=["defaults", "uncoupled_uniform"])
def test_stream_builds_one_problem_before_the_first_frame(robot, calibration, gesture_frames,
                                                          monkeypatch, settings):
    built, seen = [], []

    def counted(*args, **kwargs):
        built.append(RetargetProblem(*args, **kwargs))
        return built[-1]

    def pull():
        for frame in gesture_frames["pinch"][:6]:
            seen.append(len(built))
            yield frame

    monkeypatch.setattr(retarget, "RetargetProblem", counted)
    steps = retarget_stream(robot, calibration, pull(), **settings)
    assert len(built) == 1 and seen == [1] * 6
    assert [s.solver_failed or s.rejected for s in steps] == [False] * 6


_CRITERION_6 = dict(lambdas=(1.0, 0.0, 0.0), tolerance=1e-10, max_iterations=200)


@pytest.mark.parametrize("settings", [{}, _CRITERION_6], ids=["defaults", "criterion_6"])
@pytest.mark.parametrize("gesture", GESTURES)
def test_stream_steps_solve_as_fresh_problems(robot, calibration, gesture_frames, monkeypatch,
                                              gesture, settings):
    # the stream's one problem, with its walk buffers and its reuse of the
    # last pose evaluated, solves each frame bit for bit as a problem built
    # for that frame's targets, coupling and warm start alone
    solved, solve = [], retarget.solve_retarget

    def recorded(prob):
        solved.append((prob.targets.copy(), prob.coupling, prob.q_prev.copy()))
        return solve(prob)

    monkeypatch.setattr(retarget, "solve_retarget", recorded)
    steps = retarget_stream(robot, calibration, gesture_frames[gesture], **settings)
    assert len(solved) == len(steps) and not any(s.rejected or s.solver_failed for s in steps)
    q_prev = np.clip(calibration.q0, robot.lower_limits, robot.upper_limits)
    for step, (targets, coupling, warm) in zip(steps, solved):
        assert warm.tobytes() == q_prev.tobytes()
        want = solve_retarget(RetargetProblem(robot, default_pairs(robot), targets, coupling,
                                              warm, **settings))
        assert step.q.tobytes() == want.q.tobytes()
        assert step.residuals.tobytes() == want.residuals.tobytes()
        assert step.converged == want.converged
        q_prev = step.q
    # criterion 6's frames end with joints on their limits, where the solver holds them
    on_limit = [np.any((s.q == robot.lower_limits) | (s.q == robot.upper_limits)) for s in steps]
    assert any(on_limit) == (settings == _CRITERION_6)


def test_stream_walks_at_each_evaluation_but_a_warm_start(robot, calibration, gesture_frames,
                                                         monkeypatch):
    # a frame's first evaluation, at its warm start, is the pose the previous
    # frame evaluated last and reuses it; the counts reach the walk and the
    # Jacobian block through the module's names, which a bound import would bypass
    counts = dict.fromkeys(["evaluations", "_chain_state", "linear_jacobian_block"], 0)
    minimize = retarget.minimize

    def counted(name, call):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return call(*args, **kwargs)
        return wrapper

    for name in ("_chain_state", "linear_jacobian_block"):
        monkeypatch.setattr(retarget, name, counted(name, getattr(retarget, name)))
    monkeypatch.setattr(retarget, "minimize",
                        lambda fun, *args: minimize(counted("evaluations", fun), *args))
    frames = gesture_frames["fist"]
    steps = retarget_stream(robot, calibration, frames)
    assert not any(s.rejected or s.solver_failed for s in steps)
    walks = counts["evaluations"] - (len(frames) - 1)
    assert counts["_chain_state"] == counts["linear_jacobian_block"] == walks > 0


def test_stream_layout_mismatch_raises(robot, calibration):
    rng = np.random.default_rng(17)
    with pytest.raises(RetargetConfigError, match="layout|match"):
        retarget_stream(robot, calibration, [random_frame((5, 5, 5, 5, 3), rng)])


def test_stream_linalg_error_fails_only_that_frame(robot, calibration, gesture_frames,
                                                   monkeypatch):
    solve = retarget.solve_retarget
    calls = []

    def singular_third(prob):
        calls.append(prob)
        if len(calls) == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(prob)

    monkeypatch.setattr(retarget, "solve_retarget", singular_third)
    steps = retarget_stream(robot, calibration, gesture_frames["pinch"][:5])
    assert [s.solver_failed for s in steps] == [False, False, True, False, False]
    assert not steps[2].converged and not steps[2].rejected
    assert np.array_equal(steps[2].q, steps[1].q)  # holds the previous output
    assert np.array_equal(steps[2].residuals, steps[1].residuals)


def test_stream_solver_bug_propagates(robot, calibration, gesture_frames, monkeypatch):
    def broken(prob):
        raise TypeError("a bug in the solve")

    monkeypatch.setattr(retarget, "solve_retarget", broken)
    with pytest.raises(TypeError, match="a bug in the solve"):
        retarget_stream(robot, calibration, gesture_frames["pinch"][:3])
