"""Round-trips and failure modes for every on-disk format."""

import re
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA, README_STREAMS
from dexretarget import fileio
from dexretarget.cli import EXIT_ERROR, main
from dexretarget.fileio import (
    FileFormatError,
    read_calibration,
    read_keypoint_trajectory,
    read_manifest,
    read_joint_trajectory,
    read_poses,
    read_static_keypoints,
    read_stream_config,
    write_calibration,
    write_event_log,
    write_frames,
    write_joint_trajectory,
    write_keypoint_trajectory,
    write_manifest,
    write_report,
)
from dexretarget.retarget import CalibrationData, KeypointFrame
from dexretarget.syncsim import (
    MISSING,
    STATUS_NAMES,
    StreamConfig,
    StreamSpec,
    alignment_report,
    assemble_frames,
    reference_soft_config,
    simulate,
)


def landmark_frames(counts, n, seed=0):
    """Random frames sharing one wrist landmark, as the format requires."""
    rng = np.random.default_rng(seed)
    frames = []
    for k in range(n):
        wrist = rng.uniform(-0.1, 0.1, 3)
        w, valid = [], []
        for c in counts:
            pts = rng.uniform(-0.2, 0.2, (c, 3))
            pts[0] = wrist
            ok = rng.random(c) > 0.1
            ok[0] = True
            w.append(pts)
            valid.append(ok)
        frames.append(KeypointFrame(w, valid, timestamp=k / 25.0))
    return frames


# --- keypoint trajectories ------------------------------------------------

def test_keypoint_trajectory_roundtrip(tmp_path):
    counts = (5, 5, 4)
    frames = landmark_frames(counts, 7, seed=1)
    path = tmp_path / "clip.traj"
    write_keypoint_trajectory(path, frames)
    back = read_keypoint_trajectory(path)
    assert len(back) == len(frames)
    for a, b in zip(frames, back):
        assert b.timestamp == a.timestamp
        assert b.counts() == counts
        for i in range(len(counts)):
            assert np.array_equal(a.w[i], b.w[i])
            assert np.array_equal(a.valid[i], b.valid[i])


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _arrays(draw, shape, elements=_FINITE):
    return np.array(draw(st.lists(elements, min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape)))), dtype=float).reshape(shape)


def _same_bits(a, b):
    """Equal arrays, bit for bit apart from the payload of a NaN."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@st.composite
def keypoint_clips(draw):
    """1-5 frames of 1-4 fingers with 1-5 landmarks each, one shared wrist
    landmark and flag per frame, any coordinate including NaN and inf."""
    counts = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    frames = []
    for _ in range(draw(st.integers(1, 5))):
        wrist, wrist_ok = _arrays(draw, (3,), st.floats()), draw(st.booleans())
        w, valid = [], []
        for c in counts:
            pts = _arrays(draw, (c, 3), st.floats())
            pts[0] = wrist
            w.append(pts)
            valid.append([wrist_ok] + draw(st.lists(st.booleans(), min_size=c - 1,
                                                    max_size=c - 1)))
        frames.append(KeypointFrame(w, valid, timestamp=draw(_FINITE)))
    return frames


@settings(max_examples=40, deadline=None)
@given(keypoint_clips())
def test_keypoint_trajectory_round_trip_property(tmp_path_factory, frames):
    path = tmp_path_factory.mktemp("clip") / "clip.traj"
    write_keypoint_trajectory(path, frames)
    back = read_keypoint_trajectory(path)
    assert len(back) == len(frames)
    for a, b in zip(frames, back):
        assert b.timestamp == a.timestamp and b.counts() == a.counts()
        assert all(_same_bits(wa, wb) for wa, wb in zip(a.w, b.w))
        assert all(np.array_equal(va, vb) for va, vb in zip(a.valid, b.valid))


def test_keypoint_rewrite_is_byte_identical(tmp_path):
    frames = landmark_frames((5, 5, 5, 5, 5), 4, seed=2)
    p1, p2 = tmp_path / "a.traj", tmp_path / "b.traj"
    write_keypoint_trajectory(p1, frames)
    write_keypoint_trajectory(p2, read_keypoint_trajectory(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_keypoint_wrist_is_shared_on_read(tmp_path):
    # the format stores one wrist landmark; a frame with divergent per-finger
    # roots comes back with every root equal to finger 0's
    frames = landmark_frames((4, 4), 1, seed=3)
    frames[0].w[1][0] = (9.0, 9.0, 9.0)
    path = tmp_path / "w.traj"
    write_keypoint_trajectory(path, frames)
    back = read_keypoint_trajectory(path)[0]
    assert np.array_equal(back.w[1][0], back.w[0][0])
    assert np.array_equal(back.w[0][0], frames[0].w[0][0])


def test_static_keypoints_is_first_frame(tmp_path):
    frames = landmark_frames((4, 3), 5, seed=4)
    path = tmp_path / "cal.traj"
    write_keypoint_trajectory(path, frames)
    first = read_static_keypoints(path)
    assert np.array_equal(first.w[0], frames[0].w[0])
    assert first.timestamp == frames[0].timestamp


def test_keypoint_write_errors(tmp_path):
    with pytest.raises(FileFormatError, match="empty"):
        write_keypoint_trajectory(tmp_path / "e.traj", [])
    mixed = landmark_frames((4, 4), 1) + landmark_frames((4, 3), 1)
    with pytest.raises(FileFormatError, match="layout"):
        write_keypoint_trajectory(tmp_path / "m.traj", mixed)


def test_keypoint_read_errors(tmp_path):
    def attempt(text, needle):
        path = tmp_path / "bad.traj"
        path.write_text(text)
        with pytest.raises(FileFormatError, match=needle):
            read_keypoint_trajectory(path)

    attempt("0 1 2 3 1\n", "missing layout header")
    attempt("# fingers 3 keypoints 4 4\n", "malformed layout header")
    attempt("# fingers\n0 1 2 3 1\n", r"bad.traj:1: malformed layout header")
    attempt("# fingers 1 keypoints 0\n0\n", r"bad.traj:1: malformed layout header")
    attempt("# fingers 1 keypoints 2\n0.0 1 2 3 1 4 abc 6 1\n", r"bad.traj:2: .*'abc'")
    attempt("# fingers 1 keypoints 2\n0.0 1 2 3\n", "expected")
    attempt("# fingers 1 keypoints 2\n# nothing else\n", "no data records")
    for t in ("nan", "inf", "-inf"):
        attempt(f"# fingers 1 keypoints 2\n{t} 1 2 3 1 4 5 6 1\n",
                r"bad.traj:2: timestamp -?(nan|inf) is not finite")
    for flag in ("nan", "2", "-1", "0.5"):
        attempt(f"# fingers 1 keypoints 2\n0.0 1 2 3 1 4 5 6 {flag}\n",
                r"bad.traj:2: validity flag .* is not 0 or 1")
    attempt("# fingers 1 keypoints 2\n0.0 1 2 3 1 4 5 6 1\n0.04 1 2 3 inf 4 5 6 1\n",
            r"bad.traj:3: validity flag inf is not 0 or 1")


# --- calibration ------------------------------------------------------------

def test_calibration_roundtrip(tmp_path, calibration):
    path = tmp_path / "cal.yaml"
    write_calibration(path, calibration)
    back = read_calibration(path)
    for ra, rb in zip(calibration.r, back.r):
        assert np.array_equal(ra, rb)
    assert np.array_equal(calibration.u, back.u)
    assert np.array_equal(calibration.q0, back.q0)
    assert back.d_min == calibration.d_min
    assert back.d_max == calibration.d_max
    assert back.coupling_fingers == calibration.coupling_fingers
    for wa, wb in zip(calibration.w_star.w, back.w_star.w):
        assert np.array_equal(wa, wb)


@st.composite
def calibrations(draw):
    """Any calibration the writer can be handed: 1-5 fingers of 1-4 segments."""
    segments = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    fingers = len(segments)
    coupled = tuple(sorted(draw(st.sets(st.integers(0, fingers - 1)))))
    return CalibrationData(
        r=tuple(_arrays(draw, (n,), st.floats(1e-300, 1e300)) for n in segments),
        u=_arrays(draw, (fingers, 3)),
        w_star=KeypointFrame([_arrays(draw, (n + 1, 3)) for n in segments]),
        q0=_arrays(draw, (draw(st.integers(1, 20)),)),
        d_min={i: draw(_FINITE) for i in coupled},
        d_max={i: draw(_FINITE) for i in coupled},
        coupling_fingers=coupled)


@settings(max_examples=40, deadline=None)
@given(calibrations())
def test_calibration_round_trip_property(tmp_path_factory, cal):
    path = tmp_path_factory.mktemp("cal") / "cal.yaml"
    write_calibration(path, cal)
    back = read_calibration(path)
    assert [r.tobytes() for r in back.r] == [r.tobytes() for r in cal.r]
    assert back.u.tobytes() == cal.u.tobytes()
    assert back.q0.tobytes() == cal.q0.tobytes()
    assert [w.tobytes() for w in back.w_star.w] == [w.tobytes() for w in cal.w_star.w]
    assert (back.d_min, back.d_max) == (cal.d_min, cal.d_max)
    assert back.coupling_fingers == cal.coupling_fingers


def test_calibration_read_errors(tmp_path):
    bad_yaml = tmp_path / "bad.yaml"
    bad_yaml.write_text("{unbalanced: [\n")
    with pytest.raises(FileFormatError, match="invalid YAML"):
        read_calibration(bad_yaml)
    missing = tmp_path / "missing.yaml"
    missing.write_text("q0: [0.0, 0.0]\n")
    with pytest.raises(FileFormatError, match="malformed calibration"):
        read_calibration(missing)


@pytest.mark.parametrize("key, value, needle", [
    ("d_min", [0.0], "d_min: expected a mapping from integers to numbers, got [0.0]"),
    ("d_max", 5, "d_max: expected a mapping from integers to numbers, got 5"),
    ("coupling_fingers", {1: 2}, "coupling_fingers: expected a list of integers, got {1: 2}"),
], ids=["d_min_list", "d_max_number", "coupling_fingers_mapping"])
def test_calibration_field_of_wrong_shape_rejected(tmp_path, calibration, key, value, needle):
    path = tmp_path / "calibration.yaml"
    write_calibration(path, calibration)
    doc = yaml.safe_load(path.read_text())
    doc[key] = value
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(FileFormatError, match="malformed calibration file") as err:
        read_calibration(path)
    assert needle in str(err.value)


def _spoil(doc, key, value):
    doc = dict(doc)
    if isinstance(key, tuple):  # (key, index): one item of a list
        key, k = key
        doc[key] = doc[key][:k] + [value] + doc[key][k + 1:]
    else:
        doc[key] = value
    return doc


@pytest.mark.parametrize("key, value, needle", [
    ("coupling_fingers", [1.5, 2, 3, 4], "coupling_fingers: expected a list of integers, got [1.5,"),
    ("d_max", {1: True}, "d_max: expected a mapping from integers to numbers, got {1: True}"),
    (("q0", 3), True, "q0: expected a list of numbers, got [0.0, 0.0, 0.0, True, "),
    ("lambdas", [1.0, 1.0, 1.0], "document: unknown key 'lambdas', expected one of segment_ratios"),
], ids=["coupling_fraction", "d_max_bool", "q0_bool", "unknown_key"])
def test_calibration_value_of_the_wrong_kind_rejected(tmp_path, capsys, calibration, key, value,
                                                      needle):
    path, out = tmp_path / "calibration.yaml", tmp_path / "out"
    write_calibration(path, calibration)
    path.write_text(yaml.safe_dump(_spoil(yaml.safe_load(path.read_text()), key, value)))
    with pytest.raises(FileFormatError, match="malformed calibration file") as err:
        read_calibration(path)
    assert needle in str(err.value)
    assert main(["retarget", "--model", str(DATA / "rapid_hand_20dof.yaml"), "--calibration",
                 str(path), "--input", str(DATA / "gestures" / "fist.traj"),
                 "--out", str(out)]) == EXIT_ERROR
    assert needle in capsys.readouterr().err
    assert not out.exists()


# --- joint trajectories ------------------------------------------------------

def fake_steps(dof, n, seed=0):
    rng = np.random.default_rng(seed)
    return [SimpleNamespace(timestamp=k * 0.04,
                            q=rng.uniform(-1.0, 1.0, dof),
                            residuals=rng.uniform(0.0, 1e-3, 3),
                            converged=bool(k % 2))
            for k in range(n)]


def test_joint_trajectory_roundtrip(tmp_path):
    dof = 20
    steps = fake_steps(dof, 6, seed=5)
    path = tmp_path / "q.traj"
    write_joint_trajectory(path, steps, dof)
    t, qs, residuals, converged = read_joint_trajectory(path, dof)
    assert np.array_equal(t, [s.timestamp for s in steps])
    assert np.array_equal(qs, np.array([s.q for s in steps]))
    assert np.array_equal(residuals, np.array([s.residuals for s in steps]))
    assert np.array_equal(converged, [s.converged for s in steps])


@st.composite
def joint_runs(draw):
    """1-5 steps of a 1-6 joint chain with any finite timestamp, angles and
    residuals, and either converged flag."""
    dof = draw(st.integers(1, 6))
    return dof, [SimpleNamespace(timestamp=draw(_FINITE), q=_arrays(draw, (dof,)),
                                 residuals=_arrays(draw, (3,)), converged=draw(st.booleans()))
                 for _ in range(draw(st.integers(1, 5)))]


@settings(max_examples=40, deadline=None)
@given(joint_runs())
def test_joint_trajectory_round_trip_property(tmp_path_factory, run):
    dof, steps = run
    path = tmp_path_factory.mktemp("joints") / "q.traj"
    write_joint_trajectory(path, steps, dof)
    t, qs, residuals, converged = read_joint_trajectory(path, dof)
    assert t.tobytes() == np.array([s.timestamp for s in steps]).tobytes()
    assert qs.tobytes() == np.array([s.q for s in steps]).tobytes()
    assert residuals.tobytes() == np.array([s.residuals for s in steps]).tobytes()
    assert converged.tolist() == [s.converged for s in steps]


def test_joint_trajectory_read_errors(tmp_path):
    path = tmp_path / "q.traj"
    write_joint_trajectory(path, fake_steps(4, 3), 4)
    with pytest.raises(FileFormatError, match="expected"):
        read_joint_trajectory(path, 5)
    garbled = tmp_path / "garbled.traj"
    garbled.write_text("# t q[2] align couple smooth converged\n0 1 2 3 x 5 1\n")
    with pytest.raises(FileFormatError, match=r"garbled.traj:2: .*'x'"):
        read_joint_trajectory(garbled, 2)
    for t in ("nan", "inf"):
        stamped = tmp_path / "stamped.traj"
        stamped.write_text(f"# t q[2] align couple smooth converged\n0 1 2 3 4 5 1\n"
                           f"{t} 1 2 3 4 5 1\n")
        with pytest.raises(FileFormatError, match=r"stamped.traj:3: timestamp .* is not finite"):
            read_joint_trajectory(stamped, 2)
    for value in ("nan", "-inf"):
        spoiled = tmp_path / "spoiled.traj"
        spoiled.write_text(f"# t q[2] align couple smooth converged\n0 1 {value} 3 4 5 1\n")
        with pytest.raises(FileFormatError, match=r"spoiled.traj:2: .* must be finite"):
            read_joint_trajectory(spoiled, 2)
    flagged = tmp_path / "flagged.traj"
    flagged.write_text("# t q[2] align couple smooth converged\n0 1 2 3 4 5 0.0\n")
    assert read_joint_trajectory(flagged, 2)[3].tolist() == [False]  # the number 0
    for flag in ("nan", "2"):
        flagged.write_text(f"# t q[2] align couple smooth converged\n0 1 2 3 4 5 {flag}\n")
        with pytest.raises(FileFormatError,
                           match=r"flagged.traj:2: converged flag .* is not 0 or 1"):
            read_joint_trajectory(flagged, 2)
    empty = tmp_path / "empty.traj"
    empty.write_text("# only comments\n")
    with pytest.raises(FileFormatError, match="no data records"):
        read_joint_trajectory(empty, 4)


def test_poses_reader(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text("# name then angles\nrest 0 0 0\nflex 0.5 -0.25 1\n\n")
    poses = read_poses(path, 3)
    assert [name for name, _ in poses] == ["rest", "flex"]
    assert np.array_equal(poses[1][1], [0.5, -0.25, 1.0])
    with pytest.raises(FileFormatError, match="expected name"):
        read_poses(path, 4)
    garbled = tmp_path / "garbled.txt"
    garbled.write_text("rest 0 0 0\nflex 0.5 abc 1\n")
    with pytest.raises(FileFormatError, match=r"garbled.txt:2: .*'abc'"):
        read_poses(garbled, 3)
    non_finite = tmp_path / "non_finite.txt"
    non_finite.write_text("rest 0 0 0\nflex 0.5 inf 1\n")
    with pytest.raises(FileFormatError, match="non_finite.txt:2: angle inf is not finite"):
        read_poses(non_finite, 3)
    blank = tmp_path / "blank.txt"
    blank.write_text("# nothing\n")
    with pytest.raises(FileFormatError, match="no poses"):
        read_poses(blank, 3)


# Per line-based format: a reader returning one item per record, the field
# count it expects, a header, and two records.
_LINE_FORMATS = {
    "keypoints": (read_keypoint_trajectory, 9,
                  "# fingers 1 keypoints 2\n", "0.0 1 2 3 1 4 5 6 1", "0.04 1 2 3 1 4 5 6 0"),
    "joints": (lambda path: read_joint_trajectory(path, 2)[0], 7,
               "# joint trajectory v1\n", "0 1 2 3 4 5 1", "0.04 1 2 3 4 5 0"),
    "poses": (lambda path: read_poses(path, 3), 4, "", "rest 0 0 0", "flex 0.5 -0.25 1"),
}


@pytest.mark.parametrize("fmt", sorted(_LINE_FORMATS))
def test_line_readers_share_record_rules(tmp_path, fmt):
    read, n_fields, header, first, second = _LINE_FORMATS[fmt]
    path = tmp_path / "records.txt"
    path.write_text(f"{header}{first}\n\n   \n  # an indented comment\n{second}\n")
    assert len(read(path)) == 2
    path.write_text(f"{header}{first}\n\n{second} 7\n")
    line = header.count("\n") + 3
    with pytest.raises(FileFormatError,
                       match=rf"records.txt:{line}: expected .*, got {n_fields + 1}$"):
        read(path)


# What each field of a _LINE_FORMATS record holds: "finite" must read as a
# finite number, "flag" as 0 or 1, "number" as any number (a landmark may be
# nan or inf), "name" as any word.
_FIELD_KINDS = {
    "keypoints": ["finite"] + (["number"] * 3 + ["flag"]) * 2,
    "joints": ["finite"] * 6 + ["flag"],
    "poses": ["name"] + ["finite"] * 3,
}


def _not_a_number(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


# a token that splits as one field, is not a comment and reads as no number
_WORD = st.text(st.characters(exclude_categories=("Z", "C")), min_size=1).filter(
    lambda text: _not_a_number(text) and not text.startswith("#"))
_NON_FINITE = st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "+Infinity"])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_LINE_FORMATS)), st.integers(0, 1), st.data())
def test_line_readers_name_a_spoiled_field(tmp_path_factory, fmt, which, data):
    # one field of one record goes missing, or reads as no number, or as a
    # non-finite one where the field must be finite
    read, _, header, *records = _LINE_FORMATS[fmt]
    records = [r.split() for r in records]
    field = data.draw(st.integers(0, len(records[which]) - 1), label="field")
    kind = _FIELD_KINDS[fmt][field]
    spoils = [st.none()] + [_WORD] * (kind != "name") + [_NON_FINITE] * (kind in ("finite", "flag"))
    spoil = data.draw(st.one_of(spoils), label="spoil")
    if spoil is None:
        del records[which][field]
    else:
        records[which][field] = spoil
    path = tmp_path_factory.mktemp("spoiled") / "records.txt"
    path.write_text(header + "".join(" ".join(r) + "\n" for r in records), encoding="utf-8")
    line = header.count("\n") + 1 + which
    with pytest.raises(FileFormatError, match=rf"records.txt:{line}: "):
        read(path)


# --- sync formats -------------------------------------------------------------

def test_stream_config_reader(tmp_path):
    path = tmp_path / "streams.yaml"
    path.write_text(
        "streams:\n"
        "  - {name: cam, period: 0.04, latency_bound: 0.002}\n"
        "  - {name: touch, period: 0.04, latency_bound: 0.007, jitter: gauss, dropout: 0.05}\n"
        "rate_hz: 25.0\n"
        "mode: soft\n"
        "soft_latency: [0.02, 0.09]\n"
        "seed: 42\n"
        "duration: 3.5\n")
    config, duration = read_stream_config(path)
    assert [s.name for s in config.streams] == ["cam", "touch"]
    assert config.streams[1].jitter == "gauss"
    assert config.streams[1].dropout == 0.05
    assert config.mode == "soft"
    assert config.soft_latency == (0.02, 0.09)
    assert config.seed == 42
    assert duration == 3.5


def test_stream_config_defaults(tmp_path):
    path = tmp_path / "minimal.yaml"
    path.write_text("streams:\n  - {name: cam, period: 0.04}\n")
    config, duration = read_stream_config(path)
    assert config.streams[0].latency_bound == 0.0
    assert config.streams[0].jitter == "uniform"
    assert config.rate_hz == 25.0
    assert config.mode == "hard"
    assert config.seed == 0
    assert duration == 10.0


def test_stream_config_errors(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a list\n")
    with pytest.raises(FileFormatError,
                       match=re.escape("document: expected a mapping, got ['just', 'a list']")):
        read_stream_config(bad)
    malformed = tmp_path / "malformed.yaml"
    malformed.write_text("streams:\n  - {period: 0.04}\n")
    with pytest.raises(FileFormatError, match=re.escape("streams[0]: missing required key 'name'")):
        read_stream_config(malformed)
    invalid = tmp_path / "invalid.yaml"
    invalid.write_text("{unbalanced: [\n")
    with pytest.raises(FileFormatError, match="invalid YAML"):
        read_stream_config(invalid)
    for seed in ("1.5", "'3'", "true", ".nan"):
        seeded = tmp_path / "seeded.yaml"
        seeded.write_text(f"streams:\n  - {{name: cam, period: 0.04}}\nseed: {seed}\n")
        with pytest.raises(FileFormatError, match="seed: expected an integer, got "):
            read_stream_config(seeded)


@pytest.mark.parametrize("text, needle", [
    ("streams:\n  - {name: cam, period: 0.04, latency_bond: 0.5}\n",
     "streams[0]: unknown key 'latency_bond', expected one of name, period, latency_bound"),
    ("streams:\n  - {name: cam, period: 0.04}\nrate: 50\n",
     "document: unknown key 'rate', expected one of streams, rate_hz, mode"),
    ("streams: {name: cam, period: 0.04}\n", "streams: expected a list of stream entries"),
    ("streams:\n  - {name: cam, period: 0.04}\n  - touch\n",
     "streams[1]: expected a mapping, got 'touch'"),
], ids=["stream_key", "document_key", "streams_mapping", "stream_entry_text"])
def test_stream_config_rejects_unknown_keys(tmp_path, text, needle):
    path = tmp_path / "streams.yaml"
    path.write_text(text)
    with pytest.raises(FileFormatError) as err:
        read_stream_config(path)
    assert f"{path}: {needle}" in str(err.value)


@pytest.mark.parametrize("old, new, needle", [
    ("duration: 10.0", "duration: yes", "duration: expected a number, got True"),
    ("dropout: 0.044", "dropout: true", "streams[1].dropout: expected a number, got True"),
    ("rate_hz: 25.0", "rate_hz: true", "rate_hz: expected a number, got True"),
    ("period: 0.04, latency_bound: 0.002", f"period: 1{'0' * 400}, latency_bound: 0.002",
     "streams[0].period: expected a number, got 1000"),
    ("mode: hard", "mode: soft\nsoft_latency: [0.015, 0.05, 0.1]",
     "soft_latency: expected 2 numbers, got [0.015, 0.05, 0.1]"),
], ids=["duration_yes", "dropout_true", "rate_hz_true", "period_past_float_range",
        "soft_latency_three"])
def test_stream_config_value_of_the_wrong_kind_rejected(tmp_path, capsys, old, new, needle):
    assert old in README_STREAMS
    path, out = tmp_path / "streams.yaml", tmp_path / "out"
    path.write_text(README_STREAMS.replace(old, new))
    with pytest.raises(FileFormatError) as err:
        read_stream_config(path)
    assert f"{path}: {needle}" in str(err.value)
    assert main(["syncsim", "--config", str(path), "--out", str(out)]) == EXIT_ERROR
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_event_log_and_frames_writers(tmp_path):
    log = simulate(reference_soft_config(dropout=0.2, seed=1), 2.0)
    frames = assemble_frames(log)

    log_path = tmp_path / "events.log"
    write_event_log(log_path, log)
    rows = [l.split() for l in log_path.read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) == len(log)
    names = set(log.stream_names)
    for k, row in enumerate(rows):
        assert row[0] in names
        assert (row[3] == "-") == bool(log.dropped[k])
        assert row[4] in ("0", "1")

    frames_path = tmp_path / "frames.txt"
    write_frames(frames_path, frames)
    rows = [l.split() for l in frames_path.read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) == len(frames)
    statuses = {c.split(":")[0] for row in rows for c in row[4:]}
    assert statuses <= {"fresh", "held", "missing"}
    # missing members serialize age -1
    for row in rows:
        for cell in row[4:]:
            status, age = cell.split(":")
            if status == "missing":
                assert float(age) == -1.0


@st.composite
def sync_runs(draw):
    """A short simulated run: 1-4 streams, soft or hard, dropout in [0, 0.5]."""
    streams = tuple(
        StreamSpec(f"s{k}", period=draw(st.floats(0.005, 0.08)),
                   latency_bound=draw(st.floats(0.0, 0.01)),
                   jitter=draw(st.sampled_from(["uniform", "gauss"])),
                   dropout=draw(st.floats(0.0, 0.5)))
        for k in range(draw(st.integers(1, 4))))
    config = StreamConfig(streams, rate_hz=draw(st.sampled_from([10.0, 25.0, 30.0])),
                          mode=draw(st.sampled_from(["hard", "soft"])),
                          seed=draw(st.integers(0, 2 ** 31 - 1)))
    log = simulate(config, draw(st.floats(0.2, 2.0)))
    return log, assemble_frames(log)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _data_rows(path):
    return [l.split(" ") for l in path.read_text().splitlines() if not l.startswith("#")]


@settings(max_examples=60, deadline=None)
@given(sync_runs(), st.integers(1, 40))
def test_sync_writers_round_trip(tmp_path_factory, run, block):
    log, frames = run
    tmp = tmp_path_factory.mktemp("sync")
    # small blocks so that every run spans several, including a partial last one
    with mock.patch.object(fileio, "_BLOCK_ROWS", block):
        write_event_log(tmp / "events.txt", log)
        write_frames(tmp / "frames.txt", frames)

    rows = _data_rows(tmp / "events.txt")
    assert len(rows) == len(log) and all(len(r) == 5 for r in rows)
    names = log.stream_names
    assert [r[0] for r in rows] == [names[s] for s in log.stream_idx]
    assert _bits([float(r[1]) for r in rows]) == _bits(log.emission)
    assert _bits([float(r[2]) for r in rows]) == _bits(log.delivered)
    assert [r[3] == "-" for r in rows] == log.dropped.tolist()
    assert [int(r[3]) for r in rows if r[3] != "-"] == log.payload[~log.dropped].tolist()
    assert [r[4] for r in rows] == ["1" if d else "0" for d in log.dropped]

    lines = (tmp / "frames.txt").read_text().splitlines()
    assert lines[2] == "# streams: " + " ".join(names)
    rows = _data_rows(tmp / "frames.txt")
    assert len(rows) == len(frames) and all(len(r) == 4 + len(names) for r in rows)
    assert [int(r[0]) for r in rows] == list(range(len(frames)))
    assert _bits([float(r[1]) for r in rows]) == _bits(frames.triggers)
    assert _bits([float(r[2]) for r in rows]) == _bits(frames.skew)
    assert [r[3] for r in rows] == ["1" if c else "0" for c in frames.complete]
    cells = np.array([[c.split(":") for c in r[4:]] for r in rows]).reshape(-1, len(names), 2)
    assert cells[..., 0].tolist() == [[STATUS_NAMES[code] for code in row]
                                        for row in frames.status]
    missing = frames.status == MISSING
    assert np.all(cells[..., 1][missing] == "-1")
    assert _bits(cells[..., 1][~missing].astype(float)) == _bits(frames.age[~missing])


def test_report_writer(tmp_path):
    log = simulate(reference_soft_config(dropout=0.1, seed=2), 2.0)
    report = alignment_report(assemble_frames(log))
    path = tmp_path / "report.txt"
    write_report(path, report, extra={"mode": "soft"})
    lines = path.read_text().splitlines()
    keys = [l.split(":")[0] for l in lines]
    assert keys == sorted(keys)
    parsed = dict(l.split(": ", 1) for l in lines)
    assert int(parsed["frames"]) == report.frames
    assert float(parsed["mean_skew_ms"]) == report.mean_skew_ms
    assert parsed["mode"] == "soft"


# --- manifests ----------------------------------------------------------------

def test_manifest_roundtrip(tmp_path):
    doc = {"tool": "dexretarget", "version": "0.1.0", "subcommand": "retarget",
           "inputs": {"model": "hand.yaml"}, "options": {"lambdas": [1.0, 1.0, 1.0]},
           "outputs": ["joints.traj"]}
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    write_manifest(p1, doc)
    assert read_manifest(p1) == doc
    write_manifest(p2, doc)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")
