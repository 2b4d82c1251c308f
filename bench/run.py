"""Benchmark for dexretarget: teleoperation retargeting, sync simulation
through the CLI, and dexterity metrics.

    python3 bench/run.py --workload teleop_default --seed 1 --seconds 34 --trace 0

Generates the workload's inputs from the seed, times the program's
operations for ``--seconds`` seconds in passes over one fixed list of
operations, checks every output against bench/reference.py, and prints
one JSON line last: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  See README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread: numpy must not fan out over the cores

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]
if not (SRC / "dexretarget" / "__init__.py").is_file():
    sys.exit(f"bench: no dexretarget sources under {SRC}")

# the program first, so that setup_s covers its whole import (numpy too)
import dexretarget  # noqa: E402,F401  (the package imports every module)
import dexretarget.cli  # noqa: E402,F401

T_IMPORTED = time.perf_counter()

import numpy as np  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

OUT = HERE / "out"
SETUP_PROBES = 5   # set-ups in fresh interpreters per run; setup_s is their median
SETUP_REFS = 5     # speed references timed after each set-up
MIN_PASSES = 2

END_TO_END_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "ops_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="WORKDIR", default=None,
                   help=argparse.SUPPRESS)  # internal: time one set-up and exit
    return p.parse_args(argv)


def make_workload(name, seed, work):
    if name not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name]()
    wl.generate(work, np.random.default_rng([seed, sorted(workloads.WORKLOADS).index(name)]))
    return wl


def timed_setup(args, work):
    """Set the workload up as a fresh process would.

    Returns the workload, its set-up state, the seconds this interpreter
    spent from the start of the script through the import of dexretarget
    plus the set-up, and the median time of the speed reference run right
    after.  Generating the inputs in between is the benchmark's own work
    and is not counted.
    """
    wl = make_workload(args.workload, args.seed, work)
    t0 = time.perf_counter()
    state = wl.setup()
    setup = (T_IMPORTED - T_START) + (time.perf_counter() - t0)
    return wl, state, setup, speed.MIXED.median(SETUP_REFS)


def setup_seconds(args, work, own):
    """Median set-up time of this process and SETUP_PROBES - 1 fresh
    interpreters started one after another, each rescaled by its own
    speed reference; and the median raw set-up time."""
    samples = [own]
    for _ in range(SETUP_PROBES - 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe", str(work)],
            capture_output=True, text=True, timeout=150, check=True)
        samples.append(tuple(float(x) for x in done.stdout.split()[-2:]))
    return (statistics.median(s * speed.MIXED.nominal_s / ref for s, ref in samples),
            statistics.median(s for s, _ in samples))


def measure(wl, state, seconds, tracer=None):
    """Run passes until the next one would overrun ``seconds``.

    Without a tracer, a pacer runs the workload's speed reference between
    operations and around every pass.  With a tracer, passes alternate
    untraced and traced, and no reference runs.  Returns the per-pass op times, the
    per-pass op times rescaled to the reference's nominal speed (None
    when traced), per-pass output fingerprints, the last pass's outputs,
    the traced passes' (spans, counts), and the durations of untraced and
    traced passes.
    """
    pace = speed.Pacer(None if tracer is not None else wl.reference)
    times, marks, prints, traced, durations = [], [], [], [], ([], [])
    begin = time.perf_counter()
    while True:
        on = tracer is not None and len(times) % 2 == 1
        if on:
            tracer.reset()
            tracer.install()
        pace(force=True)
        t0 = time.perf_counter()
        try:
            op_times, outs, op_marks = wl.run_pass(state, tracer if on else None, pace)
        finally:
            if on:
                tracer.remove()
        durations[on].append(time.perf_counter() - t0)
        pace(force=True)
        if on:
            traced.append((tracer.spans, tracer.counts))
        times.append(op_times)
        marks.append(op_marks)
        prints.append(wl.fingerprint(outs))
        elapsed = time.perf_counter() - begin
        if len(times) >= MIN_PASSES and elapsed * (len(times) + 1) / len(times) > seconds:
            break
    scaled = None
    if tracer is None:
        scaled = np.array([speed.calibrated(t, m, pace.samples, wl.reference.nominal_s)
                           for t, m in zip(times, marks)])
    return np.array(times), scaled, pace.samples, prints, outs, traced, durations


def failures(wl, state, outs, prints):
    """Per-op failure reasons over every pass: the program's own flags and
    the reference checks on the last pass, and any op whose output
    differs from its output in the first pass."""
    reasons = wl.check(outs, state)
    for k, why in enumerate(reasons):
        if why is None and any(p[k] != prints[0][k] for p in prints[1:]):
            reasons[k] = "output differs between passes"
    return reasons


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe is not None:
        print(*map(repr, timed_setup(args, pathlib.Path(args.setup_probe))[2:]))
        return 0

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work):
    wl, state, *own_setup = timed_setup(args, work)
    tracer, setup_metrics = None, []
    if args.trace:
        tracer = spans.Tracer()
        layers.register(tracer)
        for _ in range(SETUP_PROBES):
            tracer.reset()
            tracer.install()
            tracer.open("setup")
            try:
                state = wl.setup()
            finally:
                tracer.close()
                tracer.remove()
            setup_metrics.append(layers.evaluate("setup", tracer.spans, tracer.counts, 1))
        setup_spans = tracer.spans
    else:
        setup_s, raw_setup_s = setup_seconds(args, work, own_setup)

    times, scaled, ref_s, prints, outs, traced, (plain, traced_s) = measure(
        wl, state, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reasons = failures(wl, state, outs, prints)
    n_passes, n_ops = times.shape
    bad = [k for k, why in enumerate(reasons) if why is not None]
    for k in bad[:10]:
        print(f"FAILED op {k}: {reasons[k]}", file=sys.stderr)

    if args.trace:
        absent = layers.absent(tracer)
        values = {}
        for phase, runs in (("setup", setup_metrics),
                            ("op", [layers.evaluate("op", s, c, n_ops) for s, c in traced])):
            for name in runs[0]:
                values[name] = statistics.median(r[name] for r in runs)
        values["fileio.lines_per_op"] = float(getattr(wl, "lines_per_op", 0.0))
        values["trace.overhead_pct"] = 100.0 * (statistics.median(traced_s)
                                                / statistics.median(plain) - 1.0)
        units = layers.UNITS
        write_trace(args, setup_spans, traced[-1][0])
    else:
        per_op = np.median(scaled, axis=0)
        raw = np.median(times, axis=0)
        print(f"raw wall-clock: setup_s {raw_setup_s:.6g}, "
              f"op_ms_p50 {1e3 * float(np.median(raw)):.6g}, "
              f"ops_per_s {n_ops / float(raw.sum()):.6g}; speed reference median "
              f"{1e3 * statistics.median(ref_s):.6g} ms over {len(ref_s)} runs "
              f"(nominal {1e3 * wl.reference.nominal_s:g} ms)")
        values = {
            "setup_s": setup_s,
            "op_ms_p50": 1e3 * float(np.median(per_op)),
            "op_ms_p90": 1e3 * float(np.percentile(per_op, 90)),
            "ops_per_s": n_ops / float(per_op.sum()),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        absent = set()

    result = {
        "correct": True,
        "attempted": n_passes * n_ops,
        "failed": n_passes * len(bad),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in values},
    }
    print(f"workload {args.workload} seed {args.seed}: {n_passes} passes x {n_ops} operations, "
          f"{len(bad)} failing per pass, trace {args.trace}")
    for name, m in result["metrics"].items():
        shown = "absent" if name in absent else f"{m['value']:.6g}"
        print(f"  {name:40s} {shown:>14s} {m['unit']}")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result) + "\n")
    (OUT / f"samples-{stem}.json").write_text(json.dumps(
        {"op_seconds": times.tolist(), "reference_seconds": ref_s}) + "\n")
    print(json.dumps(result))
    return 0


def write_trace(args, setup_spans, pass_spans):
    doc = {"workload": args.workload, "seed": args.seed,
           "columns": ["name", "start_s", "end_s", "parent"],
           "setup": [[n, a - T_START, b - T_START, p] for n, a, b, p in setup_spans],
           "pass": [[n, a - T_START, b - T_START, p] for n, a, b, p in pass_spans]}
    (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(doc) + "\n")


if __name__ == "__main__":
    sys.exit(main())
