#!/usr/bin/env python3
"""Record the benchmark trajectory of one change as ``BENCH_<N>.json``.

For each workload of ``bench/workloads.py``'s registry it runs
``bench/run.py --seed 1 --seconds 34 --trace 0`` and then ``--trace 1`` as
subprocesses, one after another, and keeps the JSON line each prints
last: the end-to-end and the per-layer metrics.  From the untraced run it
also keeps the line of raw wall-clock times and the speed reference's
median, against which the raw per-layer times of that session can be
read.  It adds the line counts
of ``src/dexretarget/*.py``, the tier-1 suite's count and wall time, the
machine, and the checkout's HEAD.  Run it from any directory:

    python3 tools/record_bench.py --pr 21

It writes nothing if the tier-1 suite fails, or if a per-layer metric
that its workload exercises (the last column of the per-layer table in
``bench/README.md``) reads 0: such a layer was not seen by the trace (a
call site bound at import bypasses the wrapper the trace installs), and
recording it as free would hide that.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import re
import subprocess
import sys
import time

import numpy as np
import yaml

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS  # noqa: E402  (the benchmark's registry)

# one run length and one seed, so that every BENCH file is comparable
SECONDS = 34
SEED = 1
TIER1 = [sys.executable, "-m", "pytest", "-q"]


def exercised():
    """{workload: per-layer metrics it exercises}, read from the last column
    of the per-layer table in ``bench/README.md``."""
    text = (ROOT / "bench" / "README.md").read_text()
    rows = text.split("| metric | per |", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    table = {w: [] for w in WORKLOADS}
    for row in rows:
        cells = row.strip("|").split("|")
        for w in re.findall(r"`([^`]+)`", cells[-1]):
            table[w] += re.findall(r"`([^`]+)`", cells[0])
    return table


def _run(argv, **kwargs):
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, **kwargs)


def bench(workload, trace):
    """The JSON line ``bench/run.py`` prints last, and its whole stdout."""
    done = _run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
                 "--seconds", str(SECONDS), "--trace", str(trace)], check=True)
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def raw_speed(stdout):
    """The "raw wall-clock: ... speed reference median ..." line of an
    untraced ``bench/run.py`` stdout, or None if it holds none."""
    return next((line for line in stdout.splitlines() if line.startswith("raw wall-clock: ")), None)


def tier1():
    """The tier-1 suite's closing line, its counts, its wall time and its exit code."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    done = _run(TIER1, env=env)
    wall = time.perf_counter() - start
    summary = (done.stdout.strip().splitlines() or [""])[-1]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) ([a-z]+)", summary)}
    return {"summary": summary, "counts": counts, "wall_s": round(wall, 2)}, done.returncode


def source_lines():
    paths = sorted((ROOT / "src" / "dexretarget").glob("*.py"))
    lines = {p.name: len(p.read_bytes().splitlines()) for p in paths}
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()
    return {"files": lines, "total": sum(lines.values()), "sha256": digest}


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version')}",
            "pyyaml": yaml.__version__, "libyaml": bool(yaml.__with_libyaml__)}


def unseen(workloads, table):
    """(workload, metric) of each exercised per-layer metric that reads 0 or is missing."""
    return [(w, name) for w, runs in workloads.items() for name in table[w]
            if not runs["per_layer"]["metrics"].get(name, {}).get("value")]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, required=True, help="the change's number: BENCH_<PR>.json")
    args = p.parse_args(argv)

    table = exercised()
    if not all(table.values()):
        print("record_bench: bench/README.md's per-layer table names no metric for "
              f"{[w for w, names in table.items() if not names]}", file=sys.stderr)
        return 1
    tests, code = tier1()
    if code != 0:
        print(f"record_bench: tier-1 suite failed (exit {code}): {tests['summary']}", file=sys.stderr)
        return 1
    workloads = {}
    for w in WORKLOADS:
        end_to_end, stdout = bench(w, 0)
        raw = raw_speed(stdout)
        if raw is None:
            print(f"record_bench: {w}: the untraced run printed no raw wall-clock line",
                  file=sys.stderr)
            return 1
        workloads[w] = {"end_to_end": end_to_end, "raw_wall_clock": raw,
                        "per_layer": bench(w, 1)[0]}
    zero = unseen(workloads, table)
    if zero:
        for w, name in zero:
            print(f"record_bench: {w}: per-layer metric {name} reads 0", file=sys.stderr)
        return 1
    head = _run(["git", "rev-parse", "HEAD"], check=True).stdout.strip()
    dirty = bool(_run(["git", "status", "--porcelain", "--", "src"], check=True).stdout.strip())
    doc = {"pr": args.pr, "head": head, "src_differs_from_head": dirty,
           "bench": {"seed": SEED, "seconds": SECONDS}, "machine": machine(),
           "source_lines": source_lines(), "tier1": tests, "workloads": workloads}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
