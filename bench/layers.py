"""Which program names the traced run wraps, and the per-layer metrics.

Each entry wraps one module-level name through which a layer is entered.
Set-up metrics are per set-up; the others are per operation, taken from
one traced pass (medians over traced passes are reported).
"""

from __future__ import annotations

from spans import summarize


def _count(key, pick):
    def hook(tracer, args, result=None):
        tracer.counts[key] += pick(args, result)
        return args
    return hook


def _wrap_objective(tracer, args):
    return (tracer.wrap(args[0], "retarget.evaluation"),) + tuple(args[1:])


def register(tracer):
    """Add every layer boundary the package exposes today."""
    from dexretarget import cli, fileio, hand_model, kinematics, metrics, retarget

    add = tracer.add
    add(hand_model, "load_hand_model_file", "hand_model.load")
    for name in ("read_keypoint_trajectory", "read_static_keypoints", "read_calibration",
                 "read_poses"):
        add(fileio, name, "fileio.read")
    add(cli, "read_stream_config", "fileio.read")
    for name in ("write_event_log", "write_frames", "write_report", "write_manifest"):
        add(cli, name, "fileio.write")
    add(retarget, "calibrate", "retarget.calibrate")
    add(kinematics, "forward_kinematics", "kinematics.fk")
    for name in ("adjust_keypoints", "coupling_weights", "RetargetProblem"):
        add(retarget, name, "retarget.prepare")
    add(retarget, "solve_retarget", "retarget.solve")
    add(retarget, "minimize", "retarget.minimize", before=_wrap_objective,
        after=_count("retarget.iterations", lambda a, r: int(r.nit)))
    for name in ("_chain_state", "linear_jacobian_block"):
        add(retarget, name, "kinematics.chain")
    add(metrics, "batch_keypoint_positions", "kinematics.batch",
        before=_count("kinematics.samples", lambda a, r: len(a[2])))
    add(metrics, "_workspace_voxels", "metrics.voxel",
        after=_count("metrics.voxels", lambda a, r: int(r.size)))
    add(metrics, "opposability_volume", "metrics.opposability")
    add(metrics, "manipulability_volume", "metrics.manipulability")
    add(cli, "simulate", "syncsim.simulate",
        after=_count("syncsim.events", lambda a, r: len(r)))
    add(cli, "assemble_frames", "syncsim.assemble")
    add(cli, "alignment_report", "syncsim.report")


def _ratio(a, b):
    return a / b if b else 0.0


# name -> (unit, phase, span names it needs, value from a summary)
# where a summary is (span counts, inclusive s, self s, tracer counts, n ops)
METRICS = {
    "hand_model.load_ms": ("ms", "setup", ["hand_model.load"],
                           lambda c, i, s, k, n: 1e3 * i["hand_model.load"]),
    "fileio.read_ms": ("ms", "setup", ["fileio.read"],
                       lambda c, i, s, k, n: 1e3 * i["fileio.read"]),
    "retarget.calibrate_ms": ("ms", "setup", ["retarget.calibrate"],
                              lambda c, i, s, k, n: 1e3 * i["retarget.calibrate"]),
    "kinematics.fk_ms": ("ms", "setup", ["kinematics.fk"],
                         lambda c, i, s, k, n: 1e3 * i["kinematics.fk"]),
    "retarget.prepare_ms": ("ms", "op", ["retarget.prepare"],
                            lambda c, i, s, k, n: 1e3 * i["retarget.prepare"] / n),
    "retarget.solve_ms": ("ms", "op", ["retarget.solve"],
                          lambda c, i, s, k, n: 1e3 * i["retarget.solve"] / n),
    "retarget.solver_self_ms": (
        "ms", "op", ["retarget.solve", "retarget.minimize"],
        lambda c, i, s, k, n: 1e3 * (i["retarget.solve"] - i["retarget.evaluation"]) / n),
    "retarget.evaluation_ms": ("ms", "op", ["retarget.minimize"],
                               lambda c, i, s, k, n: 1e3 * i["retarget.evaluation"] / n),
    "retarget.evaluations_per_frame": ("count", "op", ["retarget.minimize"],
                                       lambda c, i, s, k, n: c["retarget.evaluation"] / n),
    "retarget.iterations_per_frame": ("count", "op", ["retarget.minimize"],
                                      lambda c, i, s, k, n: k["retarget.iterations"] / n),
    "kinematics.chain_ms": ("ms", "op", ["kinematics.chain"],
                            lambda c, i, s, k, n: 1e3 * i["kinematics.chain"] / n),
    "kinematics.chain_calls_per_evaluation": (
        "count", "op", ["kinematics.chain", "retarget.minimize"],
        lambda c, i, s, k, n: _ratio(c["kinematics.chain"], c["retarget.evaluation"])),
    "kinematics.batch_ms": ("ms", "op", ["kinematics.batch"],
                            lambda c, i, s, k, n: 1e3 * i["kinematics.batch"] / n),
    "kinematics.batch_samples_per_s": (
        "1/s", "op", ["kinematics.batch"],
        lambda c, i, s, k, n: _ratio(k["kinematics.samples"], i["kinematics.batch"])),
    "metrics.voxel_ms": (
        "ms", "op", ["metrics.voxel", "metrics.opposability"],
        lambda c, i, s, k, n: 1e3 * (s["metrics.voxel"] + s["metrics.opposability"]) / n),
    "metrics.voxels_per_op": ("count", "op", ["metrics.voxel"],
                              lambda c, i, s, k, n: k["metrics.voxels"] / n),
    "metrics.manipulability_ms": ("ms", "op", ["metrics.manipulability"],
                                  lambda c, i, s, k, n: 1e3 * i["metrics.manipulability"] / n),
    "cli.self_ms": ("ms", "op", [],
                    lambda c, i, s, k, n: 1e3 * s["cli.main"] / n),
    "fileio.write_ms": ("ms", "op", ["fileio.write"],
                        lambda c, i, s, k, n: 1e3 * i["fileio.write"] / n),
    "syncsim.simulate_ms": ("ms", "op", ["syncsim.simulate"],
                            lambda c, i, s, k, n: 1e3 * i["syncsim.simulate"] / n),
    "syncsim.assemble_ms": ("ms", "op", ["syncsim.assemble"],
                            lambda c, i, s, k, n: 1e3 * i["syncsim.assemble"] / n),
    "syncsim.report_ms": ("ms", "op", ["syncsim.report"],
                          lambda c, i, s, k, n: 1e3 * i["syncsim.report"] / n),
    "syncsim.events_per_op": ("count", "op", ["syncsim.simulate"],
                              lambda c, i, s, k, n: k["syncsim.events"] / n),
}


# filled in by run.py: lines from the checks, overhead from pass durations
UNITS = {name: spec[0] for name, spec in METRICS.items()}
UNITS.update({"fileio.lines_per_op": "count", "trace.overhead_pct": "%"})


def evaluate(phase, spans, counts, n_ops):
    """Values of every metric of one phase ("setup" or "op") for one run
    of that phase's spans."""
    c, i, s = summarize(spans)
    return {name: fn(c, i, s, counts, n_ops)
            for name, (_, ph, _, fn) in METRICS.items() if ph == phase}


def absent(tracer):
    """Metrics whose call site no longer exists in the program."""
    return {name for name, (_, _, needs, _) in METRICS.items()
            if any(n in tracer.absent for n in needs)}
