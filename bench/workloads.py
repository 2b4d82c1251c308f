"""The three workloads: inputs, set-up, one pass of operations, checks.

A workload generates its inputs from the seed (benchmark code only), sets
up the program from those files, and runs passes: a pass is the same
fixed list of operations every time, so passes can be compared op by op.
Each workload has a speed reference (see speed.py).  Between
operations, outside their timing, a pass calls its pacer and records per
operation how many references came before it.
``check`` returns, per operation, the reason it failed or None.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import pathlib
import time

import numpy as np

import inputs
import reference
from reference import RefCalibration, RefHand
import speed

NO_PACE = speed.Pacer()

pc = time.perf_counter
ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "dexretarget" / "data"
ROBOT_YAML = DATA / "rapid_hand_20dof.yaml"
HUMAN_YAML = DATA / "human_hand_20dof.yaml"
CAPTURE = DATA / "human_calibration.traj"


def read_traj(path):
    """(w, valid) frames from a keypoint trajectory file, wrist expanded
    to every finger's j = 0 slot."""
    counts, frames = None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# fingers"):
                counts = [int(x) for x in line.split()[4:]]
            if line.startswith("#") or not line.strip():
                continue
            vals = np.array(line.split(), dtype=float)[1:].reshape(-1, 4)
            w = [np.repeat(vals[:1, :3], c, axis=0) for c in counts]
            valid = [np.repeat(vals[:1, 3] != 0.0, c) for c in counts]
            row = 1
            for i, c in enumerate(counts):
                w[i][1:] = vals[row:row + c - 1, :3]
                valid[i][1:] = vals[row:row + c - 1, 3] != 0.0
                row += c - 1
            frames.append((w, valid))
    return frames


def close_enough(a, b, rel, floor):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


# --- teleoperation ---------------------------------------------------------

class Teleop:
    """Frames through ``retarget_stream``; one operation is one frame."""

    TERM_REL = 1e-9    # reported (align, couple, smooth) vs the reference
    TERM_FLOOR = 1e-18  # m^2 / rad^2: rounding of positions near 0.1 m

    def __init__(self, settings, gestures, human_stream):
        self.settings = settings
        self.gestures = gestures
        self.human_stream = human_stream    # (segments, frames per segment)

    def generate(self, work, rng):
        stream = work / "human_stream.traj"
        inputs.write_traj(stream, inputs.human_stream(RefHand.from_file(HUMAN_YAML), rng,
                                                      *self.human_stream))
        self.clip_files = [DATA / "gestures" / f"{g}.traj" for g in self.gestures] + [stream]
        self.reference = speed.interpreter_reference(work)

    def setup(self):
        from dexretarget import fileio, hand_model, retarget
        model = hand_model.load_hand_model_file(ROBOT_YAML)
        cal = retarget.calibrate(model, model.rest_pose, fileio.read_static_keypoints(CAPTURE))
        clips = [fileio.read_keypoint_trajectory(path) for path in self.clip_files]
        return {"retarget": retarget, "model": model, "cal": cal, "clips": clips}

    def run_pass(self, state, tracer=None, pace=NO_PACE):
        retarget, model, cal = state["retarget"], state["model"], state["cal"]
        times, steps, marks = [], [], []
        for frames in state["clips"]:
            ends, starts = [], []

            def pull():
                for frame in frames:
                    if tracer is not None and tracer.stack:
                        tracer.close()
                    ends.append(pc())
                    pace()
                    marks.append(pace.count)
                    if tracer is not None:
                        tracer.open("retarget.stream")
                    starts.append(pc())
                    yield frame

            out = retarget.retarget_stream(model, cal, pull(), **self.settings)
            ends.append(pc())
            if tracer is not None:
                tracer.close()
            times.extend(np.subtract(ends[1:], starts))
            steps.extend(out)
        return times, steps, marks

    @staticmethod
    def fingerprint(steps):
        return [s.q.tobytes() + np.asarray(s.residuals).tobytes()
                + bytes([s.converged, s.rejected, s.solver_failed]) for s in steps]

    def check(self, steps, state):
        robot = RefHand.from_file(ROBOT_YAML)
        cal = RefCalibration.fit(robot, np.zeros(robot.dof), read_traj(CAPTURE)[0][0])
        lambdas = np.array(self.settings["lambdas"])
        pairs = reference.alignment_pairs(robot.counts())
        reasons, cursor = [], 0
        for path in self.clip_files:
            q_prev = np.clip(np.zeros(robot.dof), robot.lower, robot.upper)
            for w in reference.hold_fill(read_traj(path)):
                step = steps[cursor]
                cursor += 1
                reasons.append(self._check_frame(robot, cal, lambdas, pairs, w, q_prev, step))
                q_prev = step.q
        return reasons

    def _check_frame(self, robot, cal, lambdas, pairs, w, q_prev, step):
        if step.rejected or step.solver_failed or not step.converged:
            return "flagged by the program"
        q = np.asarray(step.q, float)
        if not np.all(np.isfinite(q)) or np.any(q < robot.lower) or np.any(q > robot.upper):
            return "q not finite or outside the joint limits"
        v = reference.conformal_targets(w, cal)
        targets = np.array([v[i][j] for i, j in pairs])
        gates = None
        if lambdas[1] > 0.0:
            gates = reference.coupling_gates(w, cal, self.settings["sigmoid_k"],
                                             self.settings["sigmoid_c"])
        terms = reference.objective_terms(robot, q, pairs, targets, gates, q_prev)
        for name, ref, got in zip(("align", "couple", "smooth"), terms, step.residuals):
            if not close_enough(ref, float(got), self.TERM_REL, self.TERM_FLOOR):
                return f"{name} {float(got)!r} != reference {float(ref)!r}"
        x0 = np.clip(q_prev, robot.lower, robot.upper)
        start = reference.objective_terms(robot, x0, pairs, targets, gates, q_prev)
        if lambdas @ terms > lambdas @ start * (1.0 + 1e-12) + self.TERM_FLOOR:
            return "objective above the warm start"
        return None


# --- sync simulation through the CLI ---------------------------------------

class SyncCli:
    """``dexretarget syncsim`` runs in-process; one operation is one run."""

    CONFIGS = 10          # alternating hard and soft
    REPEATS = 10          # runs of each config per pass
    DURATION = 50.0       # s simulated: about 10,000 output lines per run
    HARD_SKEW_MS = 7.0
    DROPOUT_SIGMAS = 6.0

    def generate(self, work, rng):
        self.configs = []
        for c in range(self.CONFIGS):
            mode = "hard" if c % 2 == 0 else "soft"
            path = work / f"streams{c}.yaml"
            inputs.write_stream_config(path, mode, int(rng.integers(2 ** 31)), self.DURATION)
            self.configs.append((path, work / f"sync{c}", mode))
        self.lines_per_op = 0.0
        self.reference = speed.interpreter_reference(work)

    def setup(self):
        from dexretarget import cli
        return {"cli": cli}

    def run_pass(self, state, tracer=None, pace=NO_PACE):
        cli = state["cli"]
        times, outs, marks = [], [], []
        sink = io.StringIO()
        for _ in range(self.REPEATS):
            for cfg, out, _ in self.configs:
                argv = ["syncsim", "--config", str(cfg), "--out", str(out)]
                pace()
                marks.append(pace.count)
                with contextlib.redirect_stdout(sink):
                    if tracer is not None:
                        tracer.open("cli.main")
                    t0 = pc()
                    code = cli.main(argv)
                    t1 = pc()
                    if tracer is not None:
                        tracer.close()
                sink.seek(0)
                sink.truncate()
                times.append(t1 - t0)
                outs.append((code, self._digest(out)))
        return times, outs, marks

    FILES = ("events.txt", "frames.txt", "report.txt", "manifest.json")

    def _digest(self, out):
        h = hashlib.sha256()
        for name in self.FILES:
            if (out / name).is_file():
                h.update((out / name).read_bytes())
        return h.digest()

    @staticmethod
    def fingerprint(outs):
        return [bytes([code & 0xFF]) + digest for code, digest in outs]

    def check(self, outs, state):
        verdicts, lines = [], 0
        for _, out, mode in self.configs:
            try:
                why = self._check_run(out, mode)
                lines += sum(len((out / n).read_bytes().splitlines()) for n in self.FILES)
            except (OSError, KeyError, ValueError) as e:
                why = f"unreadable output: {e!r}"
            verdicts.append((why, self._digest(out)))
        self.lines_per_op = lines / len(self.configs)
        reasons = []
        for k, (code, digest) in enumerate(outs):
            why, final = verdicts[k % len(self.configs)]
            if code != 0:
                why = f"exit code {code}"
            elif why is None and digest != final:
                why = "outputs differ between runs of one config"
            reasons.append(why)
        return reasons

    def _check_run(self, out, mode):
        report = {}
        for line in open(out / "report.txt", encoding="utf-8"):
            key, _, value = line.partition(": ")
            report[key] = value.strip()
        rows = []
        for line in open(out / "events.txt", encoding="utf-8"):
            if not line.startswith("#"):
                s, em, _, payload, dropped = line.split()
                rows.append((s, float(em), -1 if payload == "-" else int(payload), dropped == "1"))
        frame_lines = sum(1 for line in open(out / "frames.txt", encoding="utf-8")
                          if not line.startswith("#"))
        rate, period = inputs.RATE_HZ, 1.0 / inputs.RATE_HZ
        n_expect = int(math.ceil(self.DURATION / period - 1e-9))
        if int(report["frames"]) != n_expect or frame_lines != n_expect:
            return f"frames {report['frames']} / {frame_lines} lines, expected {n_expect}"
        if int(report["events"]) != len(rows):
            return "event count in the report does not match events.txt"
        bounds = dict(inputs.STREAMS)
        for name in bounds:
            payloads = sorted(p for s, _, p, d in rows if s == name and not d)
            total = sum(1 for s, *_ in rows if s == name)
            # every stream runs at the frame rate; a soft stream's random
            # phase can cost it the last emission
            low = n_expect if mode == "hard" else n_expect - 1
            if not low <= total <= n_expect:
                return f"stream {name}: {total} events, expected {low}..{n_expect}"
            if len(set(payloads)) != len(payloads) or (payloads and payloads[-1] >= total):
                return f"stream {name}: payloads are not distinct emission indices"
        dropped = sum(1 for r in rows if r[3])
        p = inputs.DROPOUT
        if abs(dropped / len(rows) - p) > self.DROPOUT_SIGMAS * math.sqrt(p * (1 - p) / len(rows)):
            return f"dropout {dropped / len(rows):.4f} outside the binomial bound of {p}"
        if not close_enough(float(report["event_dropout_rate"]), dropped / len(rows), 1e-12, 0.0):
            return "event_dropout_rate does not match events.txt"
        mean_ms, max_ms, members = reference.sync_skew_ms(rows, rate, self.DURATION)
        if mode == "hard":
            if max_ms > self.HARD_SKEW_MS + 1e-9:
                return f"hard-sync max skew {max_ms!r} ms above {self.HARD_SKEW_MS} ms"
            for s, em, pl, d in rows:
                if not d and not -1e-12 <= em - pl * period <= bounds[s] + 1e-12:
                    return f"stream {s}: emission {em!r} outside its latency bound"
            if any(pl != f for f, m in enumerate(members) for pl in m.values()):
                return "a fresh member of frame f has a payload other than f"
        for key, ref in (("mean_skew_ms", mean_ms), ("max_skew_ms", max_ms)):
            if not close_enough(float(report[key]), ref, 1e-12, 1e-12):
                return f"{key} {report[key]} != recomputed {ref!r}"
        return None


# --- dexterity metrics -----------------------------------------------------

ANNULI_PAIR = """
name: annuli_pair
fingers:
  - name: wide
    joints:
      - {name: a1, axis: [0.0, 0.0, 1.0], origin_translation: [0.0, 0.0, 0.0], limits: [-3.141592653589793, 3.141592653589793]}
      - {name: a2, axis: [0.0, 0.0, 1.0], origin_translation: [0.05, 0.0, 0.0], limits: [-3.141592653589793, 3.141592653589793]}
    keypoints:
      - {index: 0, name: root, attached_to: base}
      - {index: 1, name: tip, attached_to: a2, offset: [0.03, 0.0, 0.0]}
  - name: narrow
    joints:
      - {name: b1, axis: [0.0, 0.0, 1.0], origin_translation: [0.0, 0.0, 0.0], limits: [-3.141592653589793, 3.141592653589793]}
      - {name: b2, axis: [0.0, 0.0, 1.0], origin_translation: [0.06, 0.0, 0.0], limits: [-3.141592653589793, 3.141592653589793]}
    keypoints:
      - {index: 0, name: root, attached_to: base}
      - {index: 1, name: tip, attached_to: b2, offset: [0.02, 0.0, 0.0]}
"""
# planar tips sweeping the annuli [0.02, 0.08] m and [0.04, 0.08] m: the
# shared area is pi (0.08^2 - 0.04^2), one 1 mm voxel layer thick
ANNULI_MM3 = math.pi * (0.08 ** 2 - 0.04 ** 2) * 1e6


class Workspace:
    """Opposability plus manipulability; one operation is one finger."""

    SEEDS = 20           # sampling seeds per pass; x 5 fingers = 100 operations
    SAMPLES = 10_000
    VOXEL_MM = 2.0
    POSES = 4
    MANIP_REL = 1e-6
    ANNULI_REL = 0.05

    def generate(self, work, rng):
        self.robot = RefHand.from_file(ROBOT_YAML)
        self.poses_file = work / "poses.txt"
        self.poses = inputs.write_poses(self.poses_file, self.robot, rng, self.POSES)
        self.seeds = [int(s) for s in rng.integers(2 ** 31, size=self.SEEDS)]
        self.annuli_seed = int(rng.integers(2 ** 31))
        self.reference = speed.MIXED

    def setup(self):
        from dexretarget import fileio, hand_model, metrics
        model = hand_model.load_hand_model_file(ROBOT_YAML)
        poses = fileio.read_poses(self.poses_file, model.total_dof)
        return {"metrics": metrics, "hand_model": hand_model, "model": model, "poses": poses}

    def run_pass(self, state, tracer=None, pace=NO_PACE):
        metrics, model, poses = state["metrics"], state["model"], state["poses"]
        tips = [c - 1 for c in self.robot.counts()]
        times, outs, marks = [], [], []
        for seed in self.seeds:
            for f, tip in enumerate(tips):
                pace()
                marks.append(pace.count)
                if tracer is not None:
                    tracer.open("op")
                t0 = pc()
                vol = metrics.opposability_volume(model, (0, tips[0]), (f, tip),
                                                  samples=self.SAMPLES, voxel_mm=self.VOXEL_MM,
                                                  seed=seed)
                manip = [metrics.manipulability_volume(model, q, (f, tip)) for _, q in poses]
                t1 = pc()
                if tracer is not None:
                    tracer.close()
                times.append(t1 - t0)
                outs.append((vol, tuple(manip)))
        return times, outs, marks

    @staticmethod
    def fingerprint(outs):
        return [np.array([vol, *manip]).tobytes() for vol, manip in outs]

    def check(self, outs, state):
        metrics, hand_model = state["metrics"], state["hand_model"]
        annuli = metrics.opposability_volume(hand_model.load_hand_model(ANNULI_PAIR), (0, 1), (1, 1),
                                             samples=100_000, voxel_mm=1.0, seed=self.annuli_seed)
        annuli_bad = abs(annuli - ANNULI_MM3) > self.ANNULI_REL * ANNULI_MM3
        n_fingers = len(self.robot.counts())
        ref_manip = [[reference.manipulability_mm3(self.robot.tip_jacobian(q, f)) for q in self.poses]
                     for f in range(n_fingers)]
        cell = self.VOXEL_MM ** 3
        reasons = []
        for k, (vol, manip) in enumerate(outs):
            f = k % n_fingers
            own = outs[k - f][0]  # ops run seed by seed, thumb first
            why = None
            if annuli_bad:
                why = f"annuli overlap {annuli!r} mm^3 off {ANNULI_MM3!r} by more than 5%"
            elif not (vol >= 0.0 and vol / cell == round(vol / cell)):
                why = f"volume {vol!r} is not a whole number of voxels"
            elif vol > own:
                why = f"volume {vol!r} above the thumb's own {own!r}"
            else:
                for got, ref in zip(manip, ref_manip[f]):
                    if not close_enough(got, ref, self.MANIP_REL, 0.0):
                        why = f"manipulability {got!r} vs finite differences {ref!r}"
                        break
            reasons.append(why)
        return reasons


WORKLOADS = {
    "teleop_default": lambda: Teleop(
        dict(lambdas=(1.0, 1.0, 1.0), sigmoid_k=10.0, sigmoid_c=0.5,
             tolerance=1e-6, max_iterations=100),
        gestures=("fist", "pinch", "spread", "point"), human_stream=(4, 30)),
    "sync_cli": SyncCli,
    "workspace": Workspace,
}
