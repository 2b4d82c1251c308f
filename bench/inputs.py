"""Seeded input generator: trajectories, calibration, stream configs, poses.

Every file is written with this module's own formatter from the reference
kinematics, so the program under test receives plain input files and
nothing it computed itself.  The same seed gives byte-identical files.
"""

from __future__ import annotations

import numpy as np
import yaml

RATE_HZ = 25.0
MAX_GAP = 3          # longest occlusion, in frames; the program fills up to 3
OCCLUSION_RATE = 0.08  # chance per frame that some landmark starts a gap


def _fmt(x):
    return "%.17g" % float(x)


def write_traj(path, frames):
    """Write (w, valid) frames in the keypoint trajectory text format.

    Each finger's j = 0 slot is the shared wrist, stored once.
    """
    counts = [len(v) for v in frames[0][1]]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# keypoint trajectory v1\n")
        fh.write(f"# fingers {len(counts)} keypoints {' '.join(map(str, counts))}\n")
        fh.write("# columns: t then per landmark (wrist, then finger j=1..) x y z valid\n")
        for k, (w, valid) in enumerate(frames):
            cells = [_fmt(k / RATE_HZ)]
            slots = [(0, 0)] + [(i, j) for i, c in enumerate(counts) for j in range(1, c)]
            for i, j in slots:
                cells += [_fmt(x) for x in w[i][j]] + ["1" if valid[i][j] else "0"]
            fh.write(" ".join(cells) + "\n")


def capture(hand, q):
    """Landmarks of a hand at q: its keypoints, with the wrist at the origin."""
    w = hand.fk(q)
    for x in w:
        x[0] = 0.0
    return w


def smooth_clip(hand, rng, segments, frames_per_segment):
    """Joint trajectory from the rest pose through random poses, eased
    with smoothstep between consecutive poses."""
    poses = [np.zeros(hand.dof)] + [rng.uniform(hand.lower, hand.upper)
                                    for _ in range(segments)]
    qs = [poses[0]]
    for a, b in zip(poses, poses[1:]):
        for k in range(1, frames_per_segment + 1):
            tau = k / frames_per_segment
            s = 3.0 * tau ** 2 - 2.0 * tau ** 3
            qs.append(a + s * (b - a))
    return qs


def occlude(rng, counts, n_frames):
    """Per-frame validity with gaps of 1-3 frames, none in frame 0.

    A landmark is valid again for at least one frame between gaps, so no
    frame ever needs a fill older than ``MAX_GAP`` frames.
    """
    slots = [(0, 0)] + [(i, j) for i, c in enumerate(counts) for j in range(1, c)]
    valid = [[np.ones(c, bool) for c in counts] for _ in range(n_frames)]
    free_from = [1] * len(slots)
    for k in range(1, n_frames):
        if rng.random() >= OCCLUSION_RATE:
            continue
        s = int(rng.integers(len(slots)))
        length = int(rng.integers(1, MAX_GAP + 1))
        if k < free_from[s]:
            continue
        i, j = slots[s]
        for kk in range(k, min(k + length, n_frames)):
            if j == 0:
                for v in valid[kk]:
                    v[0] = False
            else:
                valid[kk][i][j] = False
        free_from[s] = k + length + 1
    return valid


def human_stream(hand, rng, segments, frames_per_segment):
    """Smooth human-model motion with short landmark occlusions; occluded
    landmarks carry zeros, as a tracker that lost them would."""
    qs = smooth_clip(hand, rng, segments, frames_per_segment)
    valid = occlude(rng, hand.counts(), len(qs))
    frames = []
    for q, v in zip(qs, valid):
        w = capture(hand, q)
        frames.append(([np.where(vi[:, None], wi, 0.0) for wi, vi in zip(w, v)], v))
    return frames


def write_poses(path, hand, rng, n):
    """``n`` joint vectors drawn uniformly inside the joint limits."""
    poses = rng.uniform(hand.lower, hand.upper, (n, hand.dof))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for k, q in enumerate(poses):
            fh.write(f"pose{k} " + " ".join(_fmt(x) for x in q) + "\n")
    return poses


# The reference sensor set: a camera within 2 ms of the trigger, five
# fingertip taxel scans within 7 ms, proprioception within 1 ms, all at
# 25 Hz with 4.4% transport loss.
STREAMS = ([("camera", 0.002)] + [(f"tactile_{i}", 0.007) for i in range(5)]
           + [("proprio", 0.001)])
DROPOUT = 0.044


def write_stream_config(path, mode, seed, duration):
    doc = {
        "streams": [{"name": n, "period": 1.0 / RATE_HZ, "latency_bound": b,
                     "dropout": DROPOUT} for n, b in STREAMS],
        "rate_hz": RATE_HZ,
        "mode": mode,
        "seed": int(seed),
        "duration": float(duration),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
