"""The BENCH recorder keeps what the benchmark prints."""

import importlib.util

from conftest import ROOT

_SPEC = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
record_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_bench)

# the stdout of `bench/run.py --workload sync_cli --seed 1 --seconds 3 --trace 0`
_RAW = ("raw wall-clock: setup_s 0.10656, op_ms_p50 17.6525, ops_per_s 54.1168; speed reference "
        "median 2.89161 ms over 22 runs (nominal 6 ms)")
_REPORT = """\
workload sync_cli seed 1: 2 passes x 100 operations, 0 failing per pass, trace 0
  setup_s                                        0.220239 s
  op_ms_p50                                       34.3512 ms
  op_ms_p90                                       44.6285 ms
  ops_per_s                                       27.6877 1/s
  peak_rss_mb                                     84.2578 MB
{"correct": true, "attempted": 200, "failed": 0, "metrics": {"setup_s": {"value": 0.2202389433847761, \
"unit": "s"}, "op_ms_p50": {"value": 34.351159841388615, "unit": "ms"}}}
"""


def test_raw_speed_line_is_kept_from_an_untraced_run():
    assert record_bench.raw_speed(f"{_RAW}\n{_REPORT}") == _RAW
    assert record_bench.raw_speed(_REPORT) is None  # a traced run prints none
