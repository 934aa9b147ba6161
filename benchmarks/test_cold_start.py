"""Benchmark: the cold-start import cost of the serving modules.

Every ``repro serve`` / ``detect`` start (and every supervised restart)
pays its imports before the first tick, and perfbench's ``setup_s`` is
mostly that.  Each sample is a fresh interpreter timing, in process
CPU, one import statement of the serving modules; ``import numpy`` is
timed the same way, interleaved, as the host-independent yardstick.
The record is the ratio of the two medians over ``RUNS`` interpreters,
plus how many ``scipy`` modules the serving import pulled in (the
serving path is numpy-only, so none).

Results merge into ``BENCH_service.json``; ``tests/test_bench_guard.py``
fails if the ratio rises above 5 or any scipy module is imported.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUMMARY_JSON = ROOT / "BENCH_service.json"
RUNS = 5
SERVING = (
    "repro.cli, repro.service.api, repro.service.net, "
    "repro.service.fastreplay"
)
_PROBE = """\
import sys, time
t0 = time.process_time()
import {modules}
cpu = time.process_time() - t0
print(cpu, sum(name.split(".")[0] == "scipy" for name in sys.modules))
"""


def _cold_import(modules: str) -> tuple[float, int]:
    """(CPU seconds, scipy modules loaded) of importing ``modules`` in
    a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(modules=modules)],
        capture_output=True, text=True, check=True, env=env, cwd=ROOT,
    ).stdout.split()
    return float(out[0]), int(out[1])


def test_serving_cold_import_is_numpy_only():
    serving, numpy_cpu = [], []
    for _ in range(RUNS):
        serving.append(_cold_import(SERVING))
        numpy_cpu.append(_cold_import("numpy")[0])
    serving_s = statistics.median(cpu for cpu, _ in serving)
    numpy_s = statistics.median(numpy_cpu)
    ratio = serving_s / numpy_s
    scipy_modules = max(n for _, n in serving)
    merged = json.loads(SUMMARY_JSON.read_text()) if SUMMARY_JSON.exists() else {}
    merged.update(
        {
            "cold_import_serving_s": round(serving_s, 4),
            "cold_import_numpy_s": round(numpy_s, 4),
            "cold_import_ratio": round(ratio, 2),
            "cold_import_scipy_modules": scipy_modules,
        }
    )
    SUMMARY_JSON.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    print(
        f"\nserving cold import {serving_s:.3f}s CPU = {ratio:.2f}x "
        f"import numpy ({numpy_s:.3f}s); {scipy_modules} scipy modules"
    )
    assert scipy_modules == 0, f"serving imported {scipy_modules} scipy modules"
    assert ratio <= 5.0, f"serving cold import is {ratio:.2f}x import numpy"
