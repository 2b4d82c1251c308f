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
from .schema import (INTEGER, INTEGERS, NUMBER, NUMBER_BY_INTEGER, NUMBERS, STRING, Kind, check,
                     entries, list_of, numbers)
from .syncsim import STATUS_NAMES, StreamConfig, StreamSpec

F = "%.17g"
# Rows per formatted block in the sync writers: formatting whole columns at
# once would hold every line of a long run in memory.
_BLOCK_ROWS = 1024


class FileFormatError(Exception):
    """A data file does not match its expected format."""


def _row(values):
    """``values`` as space-separated %.17g fields; a flag writes as 0 or 1."""
    return " ".join([F % v for v in values])


def _floats(fields, path, ln):
    try:
        return [float(x) for x in fields]
    except ValueError as e:
        raise FileFormatError(f"{path}:{ln}: {e}") from None


def _records(path, n_fields, expected):
    """``(line number, fields)`` for each data line of ``path``.  Blank lines
    and lines whose first non-blank character is ``#`` are skipped; any other
    line must split into exactly ``n_fields`` fields, or the error names
    ``path:line`` and the ``expected`` layout."""
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) != n_fields:
                raise FileFormatError(f"{path}:{ln}: expected {expected}, got {len(fields)}")
            yield ln, fields


def _yaml(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return yaml.safe_load(fh)
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
    slots = _slots(counts)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# keypoint trajectory v1\n")
        fh.write(f"# fingers {len(counts)} keypoints {' '.join(str(c) for c in counts)}\n")
        fh.write("# columns: t then per landmark (wrist, then finger j=1..) x y z valid\n")
        for frame in frames:
            if frame.counts() != counts:
                raise FileFormatError("all frames in one trajectory must share a layout")
            t = 0.0 if frame.timestamp is None else frame.timestamp
            landmarks = np.column_stack((frame.w[slots], frame.valid[slots]))
            fh.write(_row([t] + landmarks.ravel().tolist()) + "\n")


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
    n_fields = 1 + 4 * n_landmarks
    records = []
    for ln, fields in _records(path, n_fields, f"{n_fields} fields"):
        vals = _floats(fields, path, ln)
        if not np.isfinite(vals[0]):
            raise FileFormatError(f"{path}:{ln}: timestamp {vals[0]!r} is not finite")
        bad = [v for v in vals[4::4] if v not in (0.0, 1.0)]
        if bad:
            raise FileFormatError(f"{path}:{ln}: validity flag {bad[0]!r} is not 0 or 1")
        records.append(vals)
    if not records:
        raise FileFormatError(f"{path}: no data records")
    # every slot's landmark for the whole file at once; the wrist fills each j = 0
    rows = np.zeros((len(counts), max(counts)), dtype=int)
    rows[_slots(counts)] = np.arange(n_landmarks)
    records = np.array(records)
    landmarks = records[:, 1:].reshape(len(records), n_landmarks, 4)[:, rows]
    w, valid = landmarks[..., :3], landmarks[..., 3] != 0.0
    return [KeypointFrame([a[:c] for a, c in zip(w[k], counts)],
                          [v[:c] for v, c in zip(valid[k], counts)], timestamp=t)
            for k, t in enumerate(records[:, 0].tolist())]


def read_static_keypoints(path):
    """First frame of a trajectory file, for calibration captures."""
    return read_keypoint_trajectory(path)[0]


# --- calibration -----------------------------------------------------------

def write_calibration(path, cal):
    doc = {
        "segment_ratios": [[float(x) for x in r] for r in cal.r],
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
    return CalibrationData(
        r=tuple(np.array(r, dtype=float) for r in doc["segment_ratios"]),
        u=np.array(doc["anchor_offsets"], dtype=float),
        w_star=KeypointFrame([np.reshape(w, (-1, 3)) for w in doc["w_star"]]),
        q0=np.array(doc["q0"], dtype=float),
        d_min={i: float(v) for i, v in doc["d_min"].items()},
        d_max={i: float(v) for i, v in doc["d_max"].items()},
        coupling_fingers=tuple(doc["coupling_fingers"]),
    )


# --- joint trajectories ----------------------------------------------------
#
# One line per frame: timestamp, joint angles, the three unweighted residual
# terms (alignment, coupling, smoothness), and a converged flag.

def write_joint_trajectory(path, steps, dof):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# joint trajectory v1\n")
        fh.write(f"# columns: t q[{dof}] align couple smooth converged\n")
        for step in steps:
            t = 0.0 if step.timestamp is None else step.timestamp
            fh.write(_row([t, *step.q, *step.residuals, step.converged]) + "\n")


def read_joint_trajectory(path, dof):
    records = []
    for ln, fields in _records(path, dof + 5, f"{dof + 5} fields"):
        vals = _floats(fields, path, ln)
        if not np.isfinite(vals[0]):
            raise FileFormatError(f"{path}:{ln}: timestamp {vals[0]!r} is not finite")
        if not np.isfinite(vals[1:-1]).all():
            raise FileFormatError(f"{path}:{ln}: joint angles and residuals must be finite")
        if vals[-1] not in (0.0, 1.0):
            raise FileFormatError(f"{path}:{ln}: converged flag {vals[-1]!r} is not 0 or 1")
        records.append(vals)
    if not records:
        raise FileFormatError(f"{path}: no data records")
    a = np.array(records)
    return a[:, 0], a[:, 1:1 + dof], a[:, 1 + dof:4 + dof], a[:, -1] == 1.0


def read_poses(path, dof):
    """Named joint poses, one ``name q0 .. q{n-1}`` line each."""
    poses = []
    for ln, fields in _records(path, dof + 1, f"name plus {dof} angles in {dof + 1} fields"):
        q = _floats(fields[1:], path, ln)
        bad = [x for x in q if not np.isfinite(x)]
        if bad:
            raise FileFormatError(f"{path}:{ln}: angle {bad[0]!r} is not finite")
        poses.append((fields[0], np.array(q)))
    if not poses:
        raise FileFormatError(f"{path}: no poses found")
    return poses


# --- sync simulator --------------------------------------------------------

_STREAM = {"name": (STRING, True), "period": (NUMBER, True), "latency_bound": (NUMBER, False),
           "jitter": (STRING, False), "dropout": (NUMBER, False)}
_CONFIG = {"streams": (entries(_STREAM, "a list of stream entries"), True),
           "rate_hz": (NUMBER, False), "mode": (STRING, False), "soft_latency": (numbers(2), False),
           "seed": (INTEGER, False), "duration": (NUMBER, False)}


def read_stream_config(path):
    """Load a StreamConfig plus simulation duration from YAML."""
    doc = _yaml(path)
    check(doc, _CONFIG, lambda m: FileFormatError(f"{path}: {m}"))
    streams = tuple(StreamSpec(name=s["name"], period=float(s["period"]),
                               latency_bound=float(s.get("latency_bound", 0.0)),
                               jitter=s.get("jitter", "uniform"), dropout=float(s.get("dropout", 0.0)))
                    for s in doc["streams"])
    config = StreamConfig(streams=streams, rate_hz=float(doc.get("rate_hz", 25.0)),
                          mode=doc.get("mode", "hard"),
                          soft_latency=tuple(map(float, doc.get("soft_latency", (0.015, 0.100)))),
                          seed=doc.get("seed", 0))
    return config, float(doc.get("duration", 10.0))


def _blocks(n):
    """Row slices of at most ``_BLOCK_ROWS`` rows covering ``range(n)``."""
    return (slice(lo, min(lo + _BLOCK_ROWS, n)) for lo in range(0, n, _BLOCK_ROWS))


def write_event_log(path, log):
    names = log.stream_names
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# sync event log v1\n")
        fh.write("# columns: stream emission delivered payload dropped\n")
        for b in _blocks(len(log)):
            fh.writelines(
                f"{names[s]} {F % e} {F % d} {'-' if x else p} {int(x)}\n"
                for s, e, d, p, x in zip(log.stream_idx[b].tolist(), log.emission[b].tolist(),
                                         log.delivered[b].tolist(), log.payload[b].tolist(),
                                         log.dropped[b].tolist()))


def write_frames(path, frames):
    names = frames.stream_names
    prefixes = [name + ":" for name in STATUS_NAMES]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# synced frames v1\n")
        fh.write("# columns: frame trigger skew complete then per stream status:age\n")
        fh.write(f"# streams: {' '.join(names)}\n")
        for b in _blocks(len(frames)):
            age = frames.age[b]
            age = np.where(np.isfinite(age), age, -1.0).tolist()
            cells = [" ".join(prefixes[st] + F % a for st, a in zip(sts, ages))
                     for sts, ages in zip(frames.status[b].tolist(), age)]
            fh.writelines(
                f"{f} {F % t} {F % k} {int(c)} {m}\n"
                for f, t, k, c, m in zip(range(b.start, b.stop), frames.triggers[b].tolist(),
                                         frames.skew[b].tolist(), frames.complete[b].tolist(),
                                         cells))


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
