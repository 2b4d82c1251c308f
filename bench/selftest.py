"""The benchmark's own tests: every output check passes on the program's
real outputs and fails once those outputs are corrupted.

    python3 -m pytest -q bench/selftest.py

Small versions of the workloads keep this under a minute.
"""

import dataclasses
import pathlib
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference  # noqa: E402
import workloads  # noqa: E402


def _settle(wl, work, seed=7):
    wl.generate(work, np.random.default_rng(seed))
    state = wl.setup()
    _, outs, _ = wl.run_pass(state)
    return state, outs


@pytest.fixture(scope="module")
def teleop(tmp_path_factory):
    wl = workloads.Teleop(
        dict(lambdas=(1.0, 1.0, 1.0), sigmoid_k=10.0, sigmoid_c=0.5,
             tolerance=1e-6, max_iterations=100),
        gestures=("pinch",), human_stream=(1, 8))
    state, steps = _settle(wl, tmp_path_factory.mktemp("teleop"))
    return wl, state, steps


def _failing(wl, state, outs):
    return [k for k, why in enumerate(wl.check(outs, state)) if why is not None]


def test_teleop_checks_pass_on_program_output(teleop):
    wl, state, steps = teleop
    assert _failing(wl, state, steps) == []


def test_human_stream_has_occlusions_within_the_fill_budget(teleop):
    wl, _, steps = teleop
    assert sum(s.filled for s in steps) > 0
    assert not any(s.rejected for s in steps)


@pytest.mark.parametrize("corrupt", [
    lambda s: dataclasses.replace(s, q=s.q + np.eye(s.q.size)[5] * 1e-4),
    lambda s: dataclasses.replace(s, residuals=np.asarray(s.residuals) * [1.01, 1.0, 1.0]),
    lambda s: dataclasses.replace(s, residuals=np.asarray(s.residuals) * [1.0, 1.01, 1.0]),
    lambda s: dataclasses.replace(s, residuals=np.asarray(s.residuals) * [1.0, 1.0, 1.01]),
    lambda s: dataclasses.replace(s, converged=False),
    lambda s: dataclasses.replace(s, q=np.full(s.q.size, 9.0)),
], ids=["q+1e-4", "align*1.01", "couple*1.01", "smooth*1.01", "not-converged", "outside-limits"])
def test_teleop_frame_checks_catch_corruption(teleop, corrupt):
    wl, state, steps = teleop
    k = len(steps) - 3  # a frame of the occluded human stream, with coupling on
    bad = list(steps)
    bad[k] = corrupt(bad[k])
    assert k in _failing(wl, state, bad)


def test_teleop_catches_objective_above_warm_start(teleop, monkeypatch):
    wl, state, steps = teleop
    k = len(steps) - 3
    robot = reference.RefHand.from_file(workloads.ROBOT_YAML)
    q = np.clip(steps[k].q + 0.2, robot.lower, robot.upper)
    # accept any reported terms, so only the warm-start comparison can fire
    monkeypatch.setattr(workloads, "close_enough", lambda *a: True)
    bad = [dataclasses.replace(s, q=q) if j == k else s for j, s in enumerate(steps)]
    assert wl.check(bad, state)[k] == "objective above the warm start"


@pytest.fixture(scope="module")
def sync(tmp_path_factory):
    wl = workloads.SyncCli()
    wl.CONFIGS, wl.REPEATS, wl.DURATION = 2, 1, 8.0
    state, outs = _settle(wl, tmp_path_factory.mktemp("sync"))
    return wl, state, outs


def _edit(path, fn):
    text = path.read_text()
    path.write_text(fn(text))
    return text


def test_sync_checks_pass_on_program_output(sync):
    wl, state, outs = sync
    assert _failing(wl, state, outs) == []


def _move_event(text, seconds):
    lines = text.splitlines(keepends=True)
    for n, line in enumerate(lines):
        parts = line.split()
        if line.startswith("tactile_0") and parts[4] == "0":
            parts[1] = repr(float(parts[1]) + seconds)
            lines[n] = " ".join(parts) + "\n"
            return "".join(lines)
    raise AssertionError("no live tactile_0 event")


@pytest.mark.parametrize("name,fn", [
    ("events.txt", lambda t: _move_event(t, 0.008)),
    ("events.txt", lambda t: "".join(t.splitlines(keepends=True)[:-1])),
    ("report.txt", lambda t: t.replace("mean_skew_ms: ", "mean_skew_ms: 1")),
    ("report.txt", lambda t: t.replace("frames: ", "frames: 1")),
], ids=["event+8ms", "event-dropped-from-log", "mean-skew", "frame-count"])
def test_sync_checks_catch_corruption(sync, name, fn):
    wl, state, outs = sync
    out = wl.configs[0][1]  # the hard-mode config
    original = _edit(out / name, fn)
    try:
        # digests of the edited files, so the content checks must catch it
        edited = [(code, wl._digest(wl.configs[k % len(wl.configs)][1]))
                  for k, (code, _) in enumerate(outs)]
        assert _failing(wl, state, edited) == [0]
    finally:
        (out / name).write_text(original)


def test_sync_catches_a_failed_run(sync):
    wl, state, outs = sync
    assert _failing(wl, state, [(1, outs[0][1])] + outs[1:]) == [0]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    wl = workloads.Workspace()
    wl.SEEDS, wl.SAMPLES = 1, 2000
    state, outs = _settle(wl, tmp_path_factory.mktemp("workspace"))
    return wl, state, outs


def test_workspace_checks_pass_on_program_output(workspace):
    wl, state, outs = workspace
    assert _failing(wl, state, outs) == []


@pytest.mark.parametrize("corrupt", [
    lambda outs: [outs[0], (outs[0][0] + 8.0, outs[1][1])] + outs[2:],
    lambda outs: [outs[0], (outs[1][0] + 1.0, outs[1][1])] + outs[2:],
    lambda outs: [outs[0], (outs[1][0], (outs[1][1][0] * (1 + 1e-5),) + outs[1][1][1:])]
    + outs[2:],
], ids=["above-thumb-volume", "partial-voxel", "manipulability*1.00001"])
def test_workspace_checks_catch_corruption(workspace, corrupt):
    wl, state, outs = workspace
    assert 1 in _failing(wl, state, corrupt(outs))


def test_annuli_oracle_fails_every_op_when_opposability_is_wrong(workspace, monkeypatch):
    wl, state, outs = workspace
    monkeypatch.setattr(workloads, "ANNULI_MM3", workloads.ANNULI_MM3 * 1.2)
    assert _failing(wl, state, outs) == list(range(len(outs)))
