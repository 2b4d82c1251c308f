"""Plain-text readers/writers for every artifact the tools exchange.

All numeric output uses round-trippable formatting (%.17g) and fixed field
order, so identical inputs always produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import yaml

from .retarget import CalibrationData, KeypointFrame
from .schema import (FINITE, INTEGER, INTEGERS, LOADER, NUMBER, NUMBER_BY_INTEGER, NUMBERS, STRING,
                     Kind, check, entries, list_of, numbers)
from .syncsim import DEFAULT_DURATION, STATUS_NAMES, StreamConfig, StreamSpec

F = "%.17g"
# Rows per formatted block in the line writers: formatting a whole file at
# once would hold every line of a long run in memory.
_BLOCK_ROWS = 1024


class FileFormatError(Exception):
    """A data file does not match its expected format."""


def _blocks(n):
    """Row slices of at most ``_BLOCK_ROWS`` rows covering ``range(n)``."""
    return (slice(lo, min(lo + _BLOCK_ROWS, n)) for lo in range(0, n, _BLOCK_ROWS))


def _lines(line, *columns):
    """The rows made of ``columns`` ((rows,) or (rows, k) arrays) as text, in
    one C call: each row through the %-template ``line``, where %.17g writes a
    flag as 0 or 1."""
    cells = np.column_stack([np.asarray(c, dtype=object) for c in columns])
    return (line * len(cells)) % tuple(cells.ravel().tolist())


# A line format declares each field as (label, rule): a Kind its number must
# be of, None for any number, or STRING for a text field, which leads the line.
_FLAG = Kind("0 or 1", lambda v: (v == 0.0) | (v == 1.0))


def _table(path, columns, expected):
    """The data lines of ``path``, as an array of their numbers and a list of
    their text fields.  Blank lines and lines whose first non-blank character
    is ``#`` are skipped.  The first faulty line in file order is a
    FileFormatError naming ``path:line``: a field count other than the
    ``expected`` layout's, then a field that reads as no number, then a
    field against its rule, left to right."""
    rules = [rule for _, rule in columns]
    lead = rules.count(STRING)
    lines, numbers, text, fault = [], [], [], None
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            try:
                if len(fields) != len(columns):
                    raise ValueError(f"expected {expected}, got {len(fields)}")
                numbers.append(list(map(float, fields[lead:])))
            except ValueError as e:
                fault = f"{path}:{ln}: {e}"
                break
            lines.append(ln)
            text.append(fields[:lead])
    # each rule runs over its whole column of the lines before any fault
    a = np.array(numbers, dtype=float).reshape(len(numbers), len(columns) - lead)
    ok = np.ones(a.shape, dtype=bool)
    for k, rule in enumerate(rules[lead:]):
        if rule is not None:
            ok[:, k] = rule.test(a[:, k])
    bad = np.argwhere(~ok)  # (line, field) of each broken rule, in file order
    if bad.size:
        r, k = bad[0]
        label, rule = columns[lead + k]
        fault = f"{path}:{lines[r]}: {label} {float(a[r, k])!r} is not {rule.what}"
    if fault or not numbers:
        raise FileFormatError(fault or f"{path}: no data records")
    return a, text


def _yaml(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return yaml.load(fh, Loader=LOADER)
        except yaml.YAMLError as e:
            raise FileFormatError(f"{path}: invalid YAML: {e}") from None


# --- keypoint trajectories -------------------------------------------------
#
# One record per line: timestamp, then per landmark x y z valid.  Landmarks
# run wrist first, then each finger's j = 1..K-1 keypoints in order; the
# wrist is stored once and expanded to every finger's j = 0 slot on read.

def _slots(counts):
    """(fingers, keypoints) index arrays: the slot of each landmark in a record."""
    return tuple(np.array([(0, 0)] + [(i, j) for i, c in enumerate(counts) for j in range(1, c)]).T)


def write_keypoint_trajectory(path, frames):
    frames = list(frames)
    if not frames:
        raise FileFormatError("refusing to write an empty keypoint trajectory")
    counts = frames[0].counts()
    if any(frame.counts() != counts for frame in frames):
        raise FileFormatError("all frames in one trajectory must share a layout")
    slots = _slots(counts)
    line = " ".join([F] * (1 + 4 * len(slots[0]))) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# keypoint trajectory v1\n")
        fh.write(f"# fingers {len(counts)} keypoints {' '.join(str(c) for c in counts)}\n")
        fh.write("# columns: t then per landmark (wrist, then finger j=1..) x y z valid\n")
        for b in _blocks(len(frames)):
            t = [0.0 if f.timestamp is None else f.timestamp for f in frames[b]]
            landmarks = [np.column_stack((f.w[slots], f.valid[slots])).ravel() for f in frames[b]]
            fh.write(_lines(line, t, landmarks))


def _layout(path):
    """Keypoint counts per finger from the ``# fingers`` header line."""
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            if line.startswith("# fingers"):
                parts = line.split()
                try:
                    n_fingers, counts = int(parts[2]), tuple(int(x) for x in parts[4:])
                except (IndexError, ValueError):
                    n_fingers, counts = -1, ()
                if n_fingers != len(counts) or not counts or min(counts) < 1:
                    raise FileFormatError(f"{path}:{ln}: malformed layout header")
                return counts
    raise FileFormatError(f"{path}: missing layout header")


def read_keypoint_trajectory(path):
    counts = _layout(path)
    n_landmarks = 1 + sum(c - 1 for c in counts)
    columns = [("timestamp", FINITE)] + [("x", None), ("y", None), ("z", None),
                                         ("validity flag", _FLAG)] * n_landmarks
    records, _ = _table(path, columns, f"{len(columns)} fields")
    # every slot's landmark at once: the wrist fills each j = 0, padding is (0, 0, 0, valid)
    rows = np.zeros((len(counts), max(counts)), dtype=int)
    rows[_slots(counts)] = np.arange(n_landmarks)
    landmarks = records[:, 1:].reshape(len(records), n_landmarks, 4)[:, rows]
    landmarks[:, np.arange(max(counts)) >= np.array(counts)[:, None]] = (0.0, 0.0, 0.0, 1.0)
    w, valid = np.ascontiguousarray(landmarks[..., :3]), landmarks[..., 3] != 0.0
    return [KeypointFrame(a, counts, v, t) for a, v, t in zip(w, valid, records[:, 0].tolist())]


def read_static_keypoints(path):
    """First frame of a trajectory file, for calibration captures."""
    return read_keypoint_trajectory(path)[0]


# --- calibration -----------------------------------------------------------

def write_calibration(path, cal):
    doc = {
        "segment_ratios": [r[:c - 1].tolist() for r, c in zip(cal.r, cal.w_star.counts())],
        "anchor_offsets": [[float(x) for x in row] for row in cal.u],
        "q0": [float(x) for x in cal.q0],
        "coupling_fingers": [int(i) for i in cal.coupling_fingers],
        "d_min": {int(i): float(v) for i, v in sorted(cal.d_min.items())},
        "d_max": {int(i): float(v) for i, v in sorted(cal.d_max.items())},
        "w_star": [w[:c].tolist() for w, c in zip(cal.w_star.w, cal.w_star.counts())],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True, default_flow_style=None)


_RATIOS = list_of(NUMBERS, "a list of lists of numbers")
_OFFSETS = Kind("a list of equal-length lists of numbers",  # retarget names a wrong width
                lambda v: _RATIOS.test(v) and len(set(map(len, v))) < 2)
_POINTS = list_of(numbers(3), "a list of 3-number lists")
_CALIBRATION = {"segment_ratios": (_RATIOS, True), "anchor_offsets": (_OFFSETS, True),
                "q0": (NUMBERS, True), "coupling_fingers": (INTEGERS, True),
                "d_min": (NUMBER_BY_INTEGER, True), "d_max": (NUMBER_BY_INTEGER, True),
                "w_star": (list_of(_POINTS, "a list of lists of 3-number lists"), True)}


def read_calibration(path):
    doc = _yaml(path)
    check(doc, _CALIBRATION, lambda m: FileFormatError(f"{path}: malformed calibration file: {m}"))
    counts = tuple(map(len, doc["w_star"]))  # the document's ragged lists, padded onto slots
    lengths, need = [len(r) for r in doc["segment_ratios"]], [c - 1 for c in counts]
    if lengths != need:
        raise FileFormatError(f"{path}: malformed calibration file: segment_ratios: expected "
                              f"one ratio per w_star segment, {need} per finger, got {lengths}")
    w_star = np.zeros((len(counts), max(counts, default=0), 3))
    r = np.ones((len(counts), max(counts, default=1) - 1))  # 1.0 past each finger's segments
    for i, (points, ratios) in enumerate(zip(doc["w_star"], doc["segment_ratios"])):
        w_star[i, :len(points)], r[i, :len(ratios)] = np.reshape(points, (-1, 3)), ratios
    return CalibrationData(r, doc["anchor_offsets"], KeypointFrame(w_star, counts), doc["q0"],
                           doc["d_min"], doc["d_max"], tuple(doc["coupling_fingers"]))


# --- joint trajectories ----------------------------------------------------
#
# One line per frame: timestamp, joint angles, the three unweighted residual
# terms (alignment, coupling, smoothness), and a converged flag.

def write_joint_trajectory(path, steps, dof):
    steps, line = list(steps), " ".join([F] * (dof + 5)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# joint trajectory v1\n")
        fh.write(f"# columns: t q[{dof}] align couple smooth converged\n")
        for b in _blocks(len(steps)):
            fh.write(_lines(line, [0.0 if s.timestamp is None else s.timestamp for s in steps[b]],
                            [s.q for s in steps[b]], [s.residuals for s in steps[b]],
                            [s.converged for s in steps[b]]))


def read_joint_trajectory(path, dof):
    columns = [("timestamp", FINITE)] + [("angle", FINITE)] * dof + [("residual", FINITE)] * 3 \
        + [("converged flag", _FLAG)]
    a, _ = _table(path, columns, f"{dof + 5} fields")
    return a[:, 0], a[:, 1:1 + dof], a[:, 1 + dof:4 + dof], a[:, -1] == 1.0


def read_poses(path, dof):
    """Named joint poses, one ``name q0 .. q{n-1}`` line each."""
    qs, names = _table(path, [("name", STRING)] + [("angle", FINITE)] * dof,
                       f"name plus {dof} angles in {dof + 1} fields")
    return [(name, q) for (name,), q in zip(names, qs)]


# --- sync simulator --------------------------------------------------------

_STREAM = {"name": (STRING, True), "period": (NUMBER, True), "latency_bound": (NUMBER, False),
           "jitter": (STRING, False), "dropout": (NUMBER, False)}
_CONFIG = {"streams": (entries(_STREAM, "a list of stream entries"), True),
           "rate_hz": (NUMBER, False), "mode": (STRING, False), "soft_latency": (numbers(2), False),
           "seed": (INTEGER, False), "duration": (NUMBER, False)}


def read_stream_config(path):
    """Load a StreamConfig plus simulation duration from YAML; a key left out
    takes the default of StreamSpec, StreamConfig or DEFAULT_DURATION."""
    doc = _yaml(path)
    check(doc, _CONFIG, lambda m: FileFormatError(f"{path}: {m}"))
    duration = float(doc.pop("duration", DEFAULT_DURATION))
    streams = tuple(StreamSpec(**s) for s in doc.pop("streams"))
    return StreamConfig(streams, **doc), duration


def write_event_log(path, log):
    names = np.array(log.stream_names, dtype=object)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# sync event log v1\n")
        fh.write("# columns: stream emission delivered payload dropped\n")
        for b in _blocks(len(log)):
            dropped = log.dropped[b]
            fh.write(_lines("%s %.17g %.17g %s %d\n", names[log.stream_idx[b]], log.emission[b],
                            log.delivered[b], np.where(dropped, "-", log.payload[b].astype(object)),
                            dropped))


def write_frames(path, frames):
    names = frames.stream_names
    prefixes = np.array([name + ":" for name in STATUS_NAMES], dtype=object)
    line = "%d %.17g %.17g %d" + " %s%.17g" * len(names) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# synced frames v1\n")
        fh.write("# columns: frame trigger skew complete then per stream status:age\n")
        fh.write(f"# streams: {' '.join(names)}\n")
        for b in _blocks(len(frames)):
            age = np.where(np.isfinite(frames.age[b]), frames.age[b], -1.0)
            members = np.stack((prefixes[frames.status[b]], age), 2)
            fh.write(_lines(line, np.arange(b.start, b.stop), frames.triggers[b], frames.skew[b],
                            frames.complete[b], members.reshape(len(age), -1)))


def write_report(path, report, extra=None):
    """Alignment report as sorted key/value text."""
    doc = {**dataclasses.asdict(report), **(extra or {})}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in sorted(doc.items()):
            fh.write(f"{key}: {F % value if isinstance(value, float) else value}\n")


# --- run manifests ----------------------------------------------------------

def write_manifest(path, manifest):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_manifest(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
