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
from .syncsim import STATUS_NAMES, StreamConfig, StreamSpec

F = "%.17g"
# Rows per formatted block in the sync writers: formatting whole columns at
# once would hold every line of a long run in memory.
_BLOCK_ROWS = 1024


class FileFormatError(Exception):
    """A data file does not match its expected format."""


def _fmt(x):
    return F % float(x)


def _fmt_row(values):
    return " ".join(_fmt(v) for v in values)


def _floats(fields, path, ln):
    try:
        return [float(x) for x in fields]
    except ValueError as e:
        raise FileFormatError(f"{path}:{ln}: {e}") from None


# --- keypoint trajectories -------------------------------------------------
#
# One record per line: timestamp, then per landmark x y z valid.  Landmarks
# run wrist first, then each finger's j = 1..K-1 keypoints in order; the
# wrist is stored once and expanded to every finger's j = 0 slot on read.

def write_keypoint_trajectory(path, frames):
    frames = list(frames)
    if not frames:
        raise FileFormatError("refusing to write an empty keypoint trajectory")
    counts = frames[0].counts()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# keypoint trajectory v1\n")
        fh.write(f"# fingers {len(counts)} keypoints {' '.join(str(c) for c in counts)}\n")
        fh.write("# columns: t then per landmark (wrist, then finger j=1..) x y z valid\n")
        for frame in frames:
            if frame.counts() != counts:
                raise FileFormatError("all frames in one trajectory must share a layout")
            t = 0.0 if frame.timestamp is None else frame.timestamp
            fields = [_fmt(t)]
            fields += [_fmt_row(frame.w[0][0]), "1" if frame.valid[0][0] else "0"]
            for i in range(len(counts)):
                for j in range(1, counts[i]):
                    fields += [_fmt_row(frame.w[i][j]), "1" if frame.valid[i][j] else "0"]
            fh.write(" ".join(fields) + "\n")


def read_keypoint_trajectory(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    counts = None
    for ln, line in enumerate(lines, start=1):
        if line.startswith("# fingers"):
            parts = line.split()
            try:
                n_fingers, counts = int(parts[2]), tuple(int(x) for x in parts[4:])
            except (IndexError, ValueError):
                n_fingers, counts = -1, ()
            if n_fingers != len(counts) or not counts or min(counts) < 1:
                raise FileFormatError(f"{path}:{ln}: malformed layout header")
            break
    if counts is None:
        raise FileFormatError(f"{path}: missing layout header")
    n_landmarks = 1 + sum(c - 1 for c in counts)
    frames = []
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 1 + 4 * n_landmarks:
            raise FileFormatError(f"{path}:{ln}: expected {1 + 4 * n_landmarks} fields, "
                                  f"got {len(fields)}")
        vals = _floats(fields, path, ln)
        t = vals[0]
        if not np.isfinite(t):
            raise FileFormatError(f"{path}:{ln}: timestamp {t!r} is not finite")
        bad = [v for v in vals[4::4] if v not in (0.0, 1.0)]
        if bad:
            raise FileFormatError(f"{path}:{ln}: validity flag {bad[0]!r} is not 0 or 1")
        w = [np.zeros((c, 3)) for c in counts]
        valid = [np.zeros(c, dtype=bool) for c in counts]
        wrist = np.array(vals[1:4])
        wrist_ok = vals[4] != 0.0
        cursor = 5
        for i, c in enumerate(counts):
            w[i][0] = wrist
            valid[i][0] = wrist_ok
            for j in range(1, c):
                w[i][j] = vals[cursor:cursor + 3]
                valid[i][j] = vals[cursor + 3] != 0.0
                cursor += 4
        frames.append(KeypointFrame(w, valid, timestamp=t))
    if not frames:
        raise FileFormatError(f"{path}: no data records")
    return frames


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
        "w_star": [[[float(x) for x in p] for p in w] for w in cal.w_star.w],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True, default_flow_style=None)


def read_calibration(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as e:
            raise FileFormatError(f"{path}: invalid YAML: {e}") from None
    try:
        w_star = KeypointFrame([np.array(w, dtype=float) for w in doc["w_star"]])
        return CalibrationData(
            r=tuple(np.array(r, dtype=float) for r in doc["segment_ratios"]),
            u=np.array(doc["anchor_offsets"], dtype=float),
            w_star=w_star,
            q0=np.array(doc["q0"], dtype=float),
            d_min={int(i): float(v) for i, v in doc["d_min"].items()},
            d_max={int(i): float(v) for i, v in doc["d_max"].items()},
            coupling_fingers=tuple(int(i) for i in doc["coupling_fingers"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise FileFormatError(f"{path}: malformed calibration file: {e}") from None


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
            row = [_fmt(t), _fmt_row(step.q), _fmt_row(step.residuals),
                   "1" if step.converged else "0"]
            fh.write(" ".join(row) + "\n")


def read_joint_trajectory(path, dof):
    t, qs, residuals, converged = [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            vals = line.split()
            if len(vals) != dof + 5:
                raise FileFormatError(f"{path}:{ln}: expected {dof + 5} fields, got {len(vals)}")
            nums = _floats(vals[:4 + dof], path, ln)
            if not np.isfinite(nums[0]):
                raise FileFormatError(f"{path}:{ln}: timestamp {nums[0]!r} is not finite")
            t.append(nums[0])
            qs.append(nums[1:1 + dof])
            residuals.append(nums[1 + dof:])
            converged.append(vals[4 + dof] != "0")
    if not t:
        raise FileFormatError(f"{path}: no data records")
    return (np.array(t), np.array(qs), np.array(residuals), np.array(converged, dtype=bool))


def read_poses(path, dof):
    """Named joint poses, one ``name q0 .. q{n-1}`` line each."""
    poses = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != dof + 1:
                raise FileFormatError(f"{path}:{ln}: expected name plus {dof} angles")
            q = _floats(parts[1:], path, ln)
            bad = [x for x in q if not np.isfinite(x)]
            if bad:
                raise FileFormatError(f"{path}:{ln}: angle {bad[0]!r} is not finite")
            poses.append((parts[0], np.array(q)))
    if not poses:
        raise FileFormatError(f"{path}: no poses found")
    return poses


# --- sync simulator --------------------------------------------------------

def read_stream_config(path):
    """Load a StreamConfig plus simulation duration from YAML."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as e:
            raise FileFormatError(f"{path}: invalid YAML: {e}") from None
    if not isinstance(doc, dict) or "streams" not in doc:
        raise FileFormatError(f"{path}: expected a mapping with a 'streams' list")
    try:
        streams = tuple(
            StreamSpec(name=str(s["name"]), period=float(s["period"]),
                       latency_bound=float(s.get("latency_bound", 0.0)),
                       jitter=str(s.get("jitter", "uniform")),
                       dropout=float(s.get("dropout", 0.0)))
            for s in doc["streams"])
        config = StreamConfig(
            streams=streams,
            rate_hz=float(doc.get("rate_hz", 25.0)),
            mode=str(doc.get("mode", "hard")),
            soft_latency=tuple(float(x) for x in doc.get("soft_latency", (0.015, 0.100))),
            seed=int(doc.get("seed", 0)))
        duration = float(doc.get("duration", 10.0))
    except (KeyError, TypeError, ValueError) as e:
        raise FileFormatError(f"{path}: malformed stream config: {e}") from None
    return config, duration


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
            fh.write(f"{key}: {_fmt(value) if isinstance(value, float) else value}\n")


# --- run manifests ----------------------------------------------------------

def write_manifest(path, manifest):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_manifest(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
