"""Forward kinematics, Jacobians, motor mapping, taxel clouds."""

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from dexretarget.hand_model import load_hand_model
from dexretarget.kinematics import (_BATCH_ROWS, _chain_state, _gather, _walk_buffers,
                                    batch_keypoint_positions, forward_kinematics,
                                    jacobian, joint_to_motor, linear_jacobian_block,
                                    motor_to_joint, taxel_point_cloud)
from dexretarget.retarget import (CouplingState, RetargetProblem, _residuals, default_pairs,
                                  objective, objective_gradient)

from conftest import RIGID_PAIR, TOY_3DOF, random_joint, serial_chain


def random_q(model, rng):
    return rng.uniform(model.lower_limits, model.upper_limits)


def _pairs(model):
    """All (finger, keypoint) index pairs, finger-major."""
    return [(i, j) for i, c in enumerate(model.keypoint_counts()) for j in range(c)]


# --- forward kinematics ------------------------------------------------------

def test_planar_straight_chain(planar):
    fk = forward_kinematics(planar, [0.0, 0.0])
    np.testing.assert_allclose(fk[(0, 2)], [2.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(fk[(0, 1)], [1.0, 0.0, 0.0], atol=1e-15)


def test_planar_rigid_rotation(planar):
    fk = forward_kinematics(planar, [np.pi / 2, 0.0])
    np.testing.assert_allclose(fk[(0, 2)], [0.0, 2.0, 0.0], atol=1e-15)


def test_reference_rest_pose_goldens(robot):
    # spot values composed by hand from the document's transforms:
    # thumb mount (0.005, 0.022, -0.006), local +x mapped to +y by the
    # mount rotation, segments 0.040 + 0.032 + 0.025 = 0.097 along +y;
    # index: mount x 0.033 + proximal 0.045; pinky: 0.028 + 0.038 +
    # 0.024 + 0.021 = 0.111 along +x at mount y -0.027.
    fk = forward_kinematics(robot, robot.rest_pose)
    np.testing.assert_allclose(fk[(0, 4)], [0.005, 0.119, -0.006], atol=1e-12)
    np.testing.assert_allclose(fk[(1, 2)], [0.078, 0.026, 0.0], atol=1e-12)
    np.testing.assert_allclose(fk[(4, 4)], [0.111, -0.027, 0.0], atol=1e-12)


@pytest.mark.parametrize("name", ["ragged_2dof", "robot"])
def test_fk_is_the_slot_array(request, name):
    model = request.getfixturevalue(name)
    q = random_q(model, np.random.default_rng(3))
    fk = forward_kinematics(model, q)
    assert fk.shape == model.chains.offset.shape
    state = _chain_state(model, None, q)
    for i, count in enumerate(model.keypoint_counts()):
        assert np.all(fk[i, count:] == 0.0)  # padding slots
        for j in range(count):
            alone = _gather(model, state, np.array([(i, j)])).points[0]
            assert fk[i, j].tobytes() == alone.tobytes()


def test_single_keypoint_matches_full_fk(robot):
    rng = np.random.default_rng(0)
    q = random_q(robot, rng)
    fk = forward_kinematics(robot, q)
    for frame in [(0, 0), (1, 3), (4, 4), (2, 1)]:
        q_f = q[robot.finger_slice(frame[0])][None]
        np.testing.assert_array_equal(batch_keypoint_positions(robot, frame, q_f)[0], fk[frame])


def test_chain_locality_bit_identical(robot):
    rng = np.random.default_rng(1)
    q = random_q(robot, rng)
    base = forward_kinematics(robot, q)[(1, 4)]  # index tip
    for off_chain in [0, 1, 2, 3, 8, 9, 15, 19]:  # thumb, middle, ring, pinky joints
        q2 = q.copy()
        q2[off_chain] = np.clip(q2[off_chain] + 0.1, robot.lower_limits[off_chain],
                                robot.upper_limits[off_chain])
        moved = forward_kinematics(robot, q2)[(1, 4)]
        assert moved.tobytes() == base.tobytes()


def test_same_link_keypoints_stay_rigid():
    m = load_hand_model(RIGID_PAIR)
    rng = np.random.default_rng(2)
    ref = None
    for _ in range(1000):
        fk = forward_kinematics(m, random_q(m, rng))
        d = np.linalg.norm(fk[(0, 1)] - fk[(0, 2)])
        ref = d if ref is None else ref
        assert abs(d - ref) < 1e-9


def test_fk_batch_matches_scalar(robot):
    rng = np.random.default_rng(3)
    sl = robot.finger_slice(2)
    qb = rng.uniform(robot.lower_limits[sl], robot.upper_limits[sl], size=(64, 4))
    pts = batch_keypoint_positions(robot, (2, 4), qb)
    for k in [0, 17, 63]:
        q = robot.rest_pose.copy()
        q[sl] = qb[k]
        np.testing.assert_allclose(pts[k], forward_kinematics(robot, q)[(2, 4)],
                                   atol=1e-12)


def test_batch_rows_bit_equal_fk_across_slices(robot):
    # three row slices: the first and last rows of each, and the flat
    # fixed-offset products at full slice width, against the hand's FK
    rng = np.random.default_rng(6)
    n = 2 * _BATCH_ROWS + 3
    rows = [0, _BATCH_ROWS - 1, _BATCH_ROWS, 2 * _BATCH_ROWS - 1, 2 * _BATCH_ROWS, n - 1]
    for i in (0, 2):
        sl = robot.finger_slice(i)
        qb = rng.uniform(robot.lower_limits[sl], robot.upper_limits[sl], size=(n, sl.stop - sl.start))
        fk = []
        for row in rows:
            q = robot.rest_pose.copy()
            q[sl] = qb[row]
            fk.append(forward_kinematics(robot, q))
        for j in range(robot.fingers[i].keypoint_count):
            pts = batch_keypoint_positions(robot, (i, j), qb)
            for row, at in zip(rows, fk):
                assert pts[row].tobytes() == at[(i, j)].tobytes()


# --- Jacobians ---------------------------------------------------------------

def test_planar_jacobian_column_norms(planar):
    jac = jacobian(planar, [0.0, 0.0], (0, 2))
    lin = jac[:3]
    np.testing.assert_allclose(np.linalg.norm(lin, axis=0), [2.0, 1.0], atol=1e-15)


def test_jacobian_off_chain_columns_zero(robot):
    rng = np.random.default_rng(4)
    jac = jacobian(robot, random_q(robot, rng), (3, 4))  # ring tip
    sl = robot.finger_slice(3)
    mask = np.ones(robot.total_dof, dtype=bool)
    mask[sl] = False
    assert np.all(jac[:, mask] == 0.0)


def test_jacobian_bit_equal_whole_hand_block(robot):
    # jacobian reads the retargeting residual's whole-hand walk and gather
    rng = np.random.default_rng(7)
    for _ in range(5):
        q = random_q(robot, rng)
        state = _chain_state(robot, None, q)
        for frame in _pairs(robot):
            block = linear_jacobian_block(_gather(robot, state, [frame]), robot.total_dof)
            assert jacobian(robot, q, frame)[:3].tobytes() == block[0].tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_jacobian_matches_finite_differences(robot, planar, toy_3dof, seed):
    # 50 random (model, q, frame) triples across the parametrized seeds
    rng = np.random.default_rng(100 + seed)
    models = [robot, planar, toy_3dof]
    for _ in range(10):
        m = models[rng.integers(len(models))]
        q = random_q(m, rng) * 0.9
        ids = _pairs(m)
        frame = ids[rng.integers(len(ids))]
        jac = jacobian(m, q, frame)[:3]
        h = 1e-6
        fd = np.zeros_like(jac)
        for k in range(m.total_dof):
            dq = np.zeros(m.total_dof)
            dq[k] = h
            fd[:, k] = (forward_kinematics(m, q + dq)[frame]
                        - forward_kinematics(m, q - dq)[frame]) / (2 * h)
        assert np.max(np.abs(jac - fd)) < 1e-5


# --- properties over random serial chains -----------------------------------

@settings(max_examples=60, deadline=None)
@given(serial_chain())
def test_random_chain_jacobian_matches_central_differences(chain):
    model, q_batch = chain
    q = q_batch[0]
    h = 1e-6
    for frame in _pairs(model):
        jac = jacobian(model, q, frame)[:3]
        fd = np.zeros_like(jac)
        for k in range(model.total_dof):
            dq = np.zeros(model.total_dof)
            dq[k] = h
            fd[:, k] = (forward_kinematics(model, q + dq)[frame]
                        - forward_kinematics(model, q - dq)[frame]) / (2 * h)
        assert np.max(np.abs(jac - fd)) < 1e-7


@settings(max_examples=60, deadline=None)
@given(serial_chain())
def test_random_chain_batch_rows_bit_equal_fk(chain):
    model, q_batch = chain
    for frame in _pairs(model):
        pts = batch_keypoint_positions(model, frame, q_batch)
        for q, p in zip(q_batch, pts):
            assert p.tobytes() == forward_kinematics(model, q)[frame].tobytes()


@settings(max_examples=60, deadline=None)
@given(serial_chain())
def test_random_chain_walk_rotations_stay_orthonormal(chain):
    model, q_batch = chain
    for rots in (_chain_state(model, 0, q_batch)[0], _chain_state(model, None, q_batch[0])[0]):
        for r in rots:
            assert np.max(np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3))) <= 1e-12


# A joint step r + sin (r K) + (1 - cos) (r K K) against r times the Rodrigues
# matrix: on unit-norm rows the terms of an entry are at most 1, 1 and 2, so
# both round to within a few units of 2**-52 of the exact product.
_STEP_TOL = 4 * np.finfo(float).eps


def _assert_steps_match_rodrigues(model, finger, q):
    c = model.chains
    rots, _, frames = _chain_state(model, finger, q)
    for k, r in enumerate(frames):
        theta = q[..., k, None, None]
        rodrigues = (np.eye(3) + np.sin(theta) * c.skew[finger, k]
                     + (1.0 - np.cos(theta)) * c.skew_sq[finger, k])
        assert np.max(np.abs(rots[k + 1] - r @ rodrigues)) <= _STEP_TOL


@settings(max_examples=60, deadline=None)
@given(serial_chain())
def test_random_chain_joint_step_matches_rodrigues_product(chain):
    model, q_batch = chain
    _assert_steps_match_rodrigues(model, 0, q_batch)


def test_joint_step_matches_rodrigues_product_over_a_slice(robot):
    rng = np.random.default_rng(8)
    for i, f in enumerate(robot.fingers):
        sl = robot.finger_slice(i)
        q = rng.uniform(robot.lower_limits[sl], robot.upper_limits[sl], (_BATCH_ROWS, f.dof))
        _assert_steps_match_rodrigues(robot, i, q)


@pytest.mark.parametrize("finger", [None, 2], ids=["whole_hand", "one_finger_batch"])
def test_chain_walk_arrays_do_not_alias(robot, finger):
    # the joint step sums in place: each link array must be its walk's own
    rng = np.random.default_rng(5)
    if finger is None:
        qs = [random_q(robot, rng) for _ in range(2)]
    else:
        sl = robot.finger_slice(finger)
        shape = (64, robot.fingers[finger].dof)
        qs = [rng.uniform(robot.lower_limits[sl], robot.upper_limits[sl], shape) for _ in range(2)]
    first = [a for part in _chain_state(robot, finger, qs[0]) for a in part]
    kept = [a.copy() for a in first]
    for k, a in enumerate(first):
        for b in first[k + 1:]:
            assert not np.shares_memory(a, b)
    _chain_state(robot, finger, qs[1])
    for a, copy in zip(first, kept):
        assert a.tobytes() == copy.tobytes()
    assert not any(a.flags.writeable for a in robot.chains)


def _finger_doc(name, joints):
    return {"name": name,
            "joints": [{"name": f"{name}{k}", "axis": j["axis"],
                        "origin_translation": j["origin_translation"],
                        "origin_rotation": j["origin_rotation"], "limits": [-2.0, 2.0]}
                       for k, j in enumerate(joints)],
            "keypoints": [{"index": 0, "attached_to": "base"}]
            + [{"index": k + 1, "attached_to": f"{name}{k}", "offset": j["offset"]}
               for k, j in enumerate(joints)]}


@st.composite
def ragged_hand(draw):
    """A model of 2-3 fingers with 1-5 random joints each, so shorter
    fingers are padded, plus the one-finger model of each finger and a
    joint vector inside the limits."""
    fingers = [_finger_doc(f"f{i}", draw(st.lists(random_joint, min_size=1, max_size=5)))
               for i in range(draw(st.integers(2, 3)))]
    hand = load_hand_model(yaml.safe_dump({"name": "ragged", "fingers": fingers}))
    alone = [load_hand_model(yaml.safe_dump({"name": "one", "fingers": [f]})) for f in fingers]
    q = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=hand.total_dof,
                               max_size=hand.total_dof)))
    return hand, alone, q


@settings(max_examples=60, deadline=None)
@given(ragged_hand(), st.integers(0, 2 ** 32 - 1))
def test_ragged_hand_matches_its_fingers_and_differences(case, seed):
    hand, alone, q = case
    fk = forward_kinematics(hand, q)
    for i, one in enumerate(alone):
        q_f = q[hand.finger_slice(i)]
        fk_one = forward_kinematics(one, q_f)
        for j in range(hand.fingers[i].dof + 1):
            assert fk[(i, j)].tobytes() == fk_one[(0, j)].tobytes()
            assert batch_keypoint_positions(hand, (i, j), q_f[None])[0].tobytes() \
                == fk[(i, j)].tobytes()
    h, n = 1e-6, hand.total_dof
    steps = h * np.eye(n)
    for frame in _pairs(hand):
        fd = np.array([forward_kinematics(hand, q + dq)[frame]
                       - forward_kinematics(hand, q - dq)[frame] for dq in steps]).T / (2 * h)
        assert np.max(np.abs(jacobian(hand, q, frame)[:3] - fd)) < 1e-7
    rng = np.random.default_rng(seed)
    pairs = _pairs(hand)
    tips = [f.tip_index for f in hand.fingers]
    coupling = CouplingState(fingers=tuple(range(1, len(tips))),
                             delta=rng.uniform(-0.1, 0.1, (len(tips) - 1, 3)),
                             d=np.zeros(len(tips) - 1), omega=rng.uniform(0.01, 0.99, len(tips) - 1))
    prob = RetargetProblem(hand, pairs, rng.uniform(-0.2, 0.2, (len(pairs), 3)), coupling,
                           rng.uniform(-2.0, 2.0, n), lambdas=(1.0, 0.5, 0.1))
    fd = np.array([objective(q + dq, prob)[0] - objective(q - dq, prob)[0]
                   for dq in steps]) / (2 * h)
    assert np.max(np.abs(objective_gradient(q, prob) - fd)) < 1e-7


def _assert_one_row_batches_are_hand_rows(model, q, other):
    # each finger's one-row batch walk is its row of the whole-hand walk, bit
    # for bit, in every link's rotation and translation and every joint
    # frame: into fresh buffers, and into buffers that a walk at ``other`` filled
    reused = _walk_buffers(model)
    _chain_state(model, None, other, out=reused)
    assert _chain_state(model, None, q, out=reused) is reused
    for hand in (_chain_state(model, None, q), reused):
        for i, f in enumerate(model.fingers):
            batch = _chain_state(model, i, q[model.finger_slice(i)][None])
            assert list(map(len, batch)) == [f.dof + 1, f.dof + 1, f.dof]
            for stacked, links in zip(hand, batch):
                for k, a in enumerate(links):
                    assert np.reshape(a, stacked[k, i].shape).tobytes() == stacked[k, i].tobytes()


@settings(max_examples=60, deadline=None)
@given(ragged_hand(), st.integers(0, 2 ** 32 - 1))
def test_ragged_hand_one_row_batches_are_its_walk_rows(case, seed):
    hand, _, q = case
    _assert_one_row_batches_are_hand_rows(hand, q, random_q(hand, np.random.default_rng(seed)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_bundled_hand_one_row_batches_are_its_walk_rows(robot, seed):
    rng = np.random.default_rng(seed)
    _assert_one_row_batches_are_hand_rows(robot, random_q(robot, rng), random_q(robot, rng))


# --- a problem's evaluation plan ------------------------------------------------

def _unplanned_residuals(prob, q):
    """The residual e and its Jacobian at q from a fresh walk and a gather of
    the raw slots, assembled row for row as the problem's residual."""
    model, n, m = prob.model, prob.model.total_dof, len(prob.pairs)
    at = _gather(model, _chain_state(model, None, q), prob.slots)
    p, dp = at.points, linear_jacobian_block(at, n)
    e, jac = [prob.targets - p[:m]], [-dp[:m]]
    if len(p) > m:
        s = np.sqrt(prob.coupling.omega)[:, None]
        e.append(s * (prob.coupling.delta - (p[m + 1:] - p[m])))
        jac.append(-s[..., None] * (dp[m + 1:] - dp[m]))
    return (np.concatenate([a.reshape(-1) for a in e] + [q - prob.q_prev]),
            np.concatenate([a.reshape(-1, n) for a in jac] + [np.eye(n)]))


def _assert_planned_evaluations_are_unplanned(model, pairs, coupled, rng):
    """Two evaluations of one problem at different poses, then a new frame
    warm-started at the second pose: each gives the unplanned e and J bit for
    bit, and a later evaluation leaves an earlier one's arrays as they were."""
    coupling = None
    if coupled:  # every finger after the thumb
        k = len(model.fingers) - 1
        coupling = CouplingState(tuple(range(1, k + 1)), rng.uniform(-0.1, 0.1, (k, 3)),
                                 np.zeros(k), rng.uniform(0.01, 0.99, k))
    poses = [rng.uniform(model.lower_limits, model.upper_limits) for _ in range(3)]
    prob = RetargetProblem(model, pairs, rng.uniform(-0.2, 0.2, (len(pairs), 3)), coupling,
                           poses[0], lambdas=(1.0, 0.5, 0.1))
    first = _residuals(poses[1], prob)
    kept = [a.copy() for a in first]
    second = _residuals(poses[2], prob)
    for got, q in ((first, poses[1]), (kept, poses[1]), (second, poses[2])):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in _unplanned_residuals(prob, q)]
    prob.at(rng.uniform(-0.2, 0.2, (len(pairs), 3)), coupling, poses[2])
    again = _residuals(poses[2], prob)  # the last pose evaluated: no walk
    assert [a.tobytes() for a in again] == [a.tobytes() for a in _unplanned_residuals(prob, poses[2])]


@settings(max_examples=40, deadline=None)
@given(st.one_of(serial_chain(), ragged_hand()), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_random_hand_planned_evaluations_are_unplanned(case, seed, coupled):
    model = case[0]
    coupled = coupled and len(model.fingers) > 1  # a one-finger chain couples nothing
    _assert_planned_evaluations_are_unplanned(model, _pairs(model), coupled,
                                              np.random.default_rng(seed))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_bundled_hand_planned_evaluations_are_unplanned(robot, seed, coupled):
    _assert_planned_evaluations_are_unplanned(robot, default_pairs(robot), coupled,
                                              np.random.default_rng(seed))


# --- differential motor mapping ----------------------------------------------

def test_equal_motor_motion_is_pure_pitch():
    pitch, yaw = motor_to_joint(0.4, 0.4)
    assert pitch == pytest.approx(0.4, abs=0) and yaw == 0.0


def test_opposite_motor_motion_is_pure_yaw():
    pitch, yaw = motor_to_joint(0.3, -0.3)
    assert pitch == 0.0 and yaw == pytest.approx(0.3, abs=0)


def test_motor_joint_round_trip():
    rng = np.random.default_rng(5)
    t1, t2 = rng.uniform(-1.0, 1.0, (2, 100))
    pitch, yaw = motor_to_joint(t1, t2)
    b1, b2 = joint_to_motor(pitch, yaw)
    np.testing.assert_allclose(b1, t1, atol=1e-12)
    np.testing.assert_allclose(b2, t2, atol=1e-12)


def test_differential_invariances_exact():
    # dyadic angles make the +/- delta sums exact, so invariance is bitwise
    rng = np.random.default_rng(6)
    t1 = rng.integers(-1024, 1024, 50) / 1024.0
    t2 = rng.integers(-1024, 1024, 50) / 1024.0
    delta = 0.25
    _, yaw0 = motor_to_joint(t1, t2)
    _, yaw1 = motor_to_joint(t1 + delta, t2 + delta)
    assert np.array_equal(yaw0, yaw1)
    pitch0, _ = motor_to_joint(t1, t2)
    pitch1, _ = motor_to_joint(t1 + delta, t2 - delta)
    assert np.array_equal(pitch0, pitch1)


def test_motor_sign_flips_yaw():
    _, yaw = motor_to_joint(0.3, -0.3, sign=-1.0)
    assert yaw == pytest.approx(-0.3, abs=0)


# --- taxel point clouds --------------------------------------------------------

ONE_TAXEL = TOY_3DOF + """
taxel_layouts:
  - {finger: arm, rows: 1, cols: 1, origin: [0.0, 0.0, 0.0], row_step: [0.001, 0.0, 0.0], col_step: [0.0, 0.001, 0.0]}
"""


def test_single_taxel_at_distal_origin():
    m = load_hand_model(ONE_TAXEL)
    q = [0.3, -0.2, 0.5]
    cloud = taxel_point_cloud(m, q, {0: np.array([[1.0]])})
    # layout origin coincides with the distal joint frame origin, which is
    # where the chain ends before the tip offset: reuse FK via a zero-offset
    # probe at full depth
    probe = forward_kinematics(m, q)[(0, 1)]
    tip_offset = np.array([0.0, 1.0, 1.0])
    # remove the tip offset rotated into world: |probe - taxel| == |offset|
    assert np.linalg.norm(cloud.positions[0] - probe) == pytest.approx(
        np.linalg.norm(tip_offset), abs=1e-12)


def test_cloud_threshold_semantics(robot):
    rng = np.random.default_rng(7)
    q = random_q(robot, rng)
    zero = {i: np.zeros((12, 8)) for i in range(5)}
    assert len(taxel_point_cloud(robot, q, zero, threshold=0.0)) == 0
    assert len(taxel_point_cloud(robot, q, zero, threshold=None)) == 480
    one = {i: np.zeros((12, 8)) for i in range(5)}
    one[2][4, 6] = 2.5
    cloud = taxel_point_cloud(robot, q, one, threshold=0.0)
    assert len(cloud) == 1
    assert cloud.finger_index[0] == 2 and cloud.rows[0] == 4 and cloud.cols[0] == 6
    assert cloud.pressures[0] == 2.5


def test_cloud_is_rigid_isometry_of_layout(robot):
    rng = np.random.default_rng(8)
    q = random_q(robot, rng)
    full = {i: np.ones((12, 8)) for i in range(5)}
    cloud = taxel_point_cloud(robot, q, full)
    for i, f in enumerate(robot.fingers):
        world = cloud.positions[cloud.finger_index == i]
        local = f.taxels.positions
        for a, b in [(0, 95), (0, 7), (11, 40), (3, 88)]:
            dw = np.linalg.norm(world[a] - world[b])
            dl = np.linalg.norm(local[a] - local[b])
            assert abs(dw - dl) < 1e-9


def test_cloud_validates_reading_keys(robot):
    q = robot.rest_pose
    with pytest.raises(ValueError, match="missing"):
        taxel_point_cloud(robot, q, {i: np.zeros((12, 8)) for i in range(4)})
    bad = {i: np.zeros((12, 8)) for i in range(5)}
    bad[1] = np.zeros((8, 12))
    with pytest.raises(ValueError, match="shape"):
        taxel_point_cloud(robot, q, bad)


@pytest.mark.parametrize("call, needle", [
    (lambda m: forward_kinematics(m, np.zeros(19)),
     "q has shape (19,), model 'rapid_hand_20dof' expects (20,)"),
    (lambda m: jacobian(m, np.zeros((1, 20)), (1, 4)),
     "q has shape (1, 20), model 'rapid_hand_20dof' expects (20,)"),
    (lambda m: batch_keypoint_positions(m, (1, 4), np.zeros((3, 5))),
     "q_batch must be (B, 4), got (3, 5)"),
    (lambda m: batch_keypoint_positions(m, (1, 4), np.zeros(4)), "q_batch must be (B, 4), got (4,)"),
], ids=["fk_q", "jacobian_q", "batch_width", "batch_vector"])
def test_joint_vectors_of_the_wrong_shape_rejected(robot, call, needle):
    with pytest.raises(ValueError) as err:
        call(robot)
    assert str(err.value) == needle
