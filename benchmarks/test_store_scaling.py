"""Benchmark: columnar telemetry store — ingest, scan, replay speedup.

The store claim: recording a fleet's feed into time-partitioned
column-major partitions costs streaming-write throughput (MB/s), the
zero-copy mmap scan reads it back at memory-bus-ish throughput without
materializing the store, and replaying a recorded window through the
detector — partition-sized blocks straight into the fused arena — beats
guarded live per-tick ingestion of the same window (the serving loop,
which runs the same arena) by >= 2x at 64 nodes while producing a
**byte-identical** alert stream (asserted here).

Results merge into ``results/store_replay.csv`` and a summary is
written to ``BENCH_store.json``; ``tests/test_bench_guard.py`` fails if
the recorded headline drops below the committed 2x floor or any
recorded speedup falls below 1x.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import SCALE, TREES, merge_csv
from repro.service.api import ServiceConfig, replay
from repro.service.fastreplay import record_fleet, replay_from_store
from repro.service.replay import fleet_recipes, prepare_fleet

ROOT = Path(__file__).resolve().parent.parent
RESULTS_CSV = ROOT / "results" / "store_replay.csv"
SUMMARY_JSON = ROOT / "BENCH_store.json"
CSV_HEADERS = (
    "Nodes",
    "Run",
    "Windows",
    "MB",
    "Time [s]",
    "MB/s",
    "Win/s",
    "Speedup",
    "Identical",
)

#: Live baseline cadence: one window step per tick, the serving loop.
LIVE_CHUNK = 10
PARTITION_TICKS = 1024
REPS = 3

#: (nodes, samples per node) — 64 is the headline, 256 shows scaling.
FLEETS = (
    (64, int(1500 * SCALE)),
    (256, int(900 * SCALE)),
)

_rows: list[tuple] = []
_summary: dict[str, float] = {}


def _setup(nodes: int, t: int):
    return prepare_fleet(
        fleet_recipes(nodes, t=t), ServiceConfig(blocks=20, trees=TREES, seed=0),
    )


def _feed_mb(setup) -> float:
    return sum(m.nbytes for m in setup.eval_data.values()) / 1e6


@pytest.mark.parametrize("nodes,t", FLEETS)
def test_store_replay_beats_live(nodes, t, tmp_path_factory):
    headline = nodes == FLEETS[0][0]
    setup = _setup(nodes, t)
    mb = _feed_mb(setup)
    root = tmp_path_factory.mktemp(f"store{nodes}") / "fleet"

    # --- recorder ingest throughput -----------------------------------
    start = time.perf_counter()
    store = record_fleet(
        setup, root, partition_ticks=PARTITION_TICKS, chunk=LIVE_CHUNK
    )
    ingest_s = time.perf_counter() - start
    ingest_mb_s = mb / ingest_s

    # --- out-of-core mmap scan throughput -----------------------------
    scan_s = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        checksum = 0.0
        for _, block in store.scan(mmap_mode="r"):
            for plane in block.values():
                checksum += float(np.asarray(plane).sum())
        scan_s = min(scan_s, time.perf_counter() - start)
    assert np.isfinite(checksum)
    scan_mb_s = mb / scan_s

    # --- live per-tick ingestion vs store replay ----------------------
    # Interleave repetitions so machine drift hits both paths equally;
    # keep the best of REPS per path.  The live baseline is the guarded
    # serving loop at per-tick cadence, so the speedup is what the store
    # adds on top of the arena itself.
    live_s = fast_s = float("inf")
    live = fast = None
    for _ in range(REPS):
        out = replay(ServiceConfig(chunk=LIVE_CHUNK), setup)
        if out.replay_time_s < live_s:
            live_s, live = out.replay_time_s, out
        out = replay_from_store(ServiceConfig(), setup, store)
        if out.replay_time_s < fast_s:
            fast_s, fast = out.replay_time_s, out
    # The contract the speedup is only allowed to ride on: identical
    # alert JSONL, byte for byte, against live ingestion.
    live_jsonl = "\n".join(json.dumps(e) for e in live.events)
    fast_jsonl = "\n".join(json.dumps(e) for e in fast.events)
    assert fast_jsonl == live_jsonl, (
        "store replay diverged from guarded live ingestion"
    )
    assert fast.n_windows == live.n_windows > 0
    speedup = live_s / fast_s

    _rows.extend(
        [
            (nodes, "record", "", round(mb, 1), round(ingest_s, 4),
             round(ingest_mb_s, 1), "", "", ""),
            (nodes, "scan mmap", "", round(mb, 1), round(scan_s, 4),
             round(scan_mb_s, 1), "", "", ""),
            (nodes, f"live chunk={LIVE_CHUNK}", live.n_windows,
             "", round(live_s, 4), "",
             round(live.n_windows / live_s, 1), "", ""),
            (nodes, "store", fast.n_windows, "", round(fast_s, 4),
             "", round(fast.n_windows / fast_s, 1), round(speedup, 2),
             "yes"),
        ]
    )
    suffix = "" if headline else f"_{nodes}"
    _summary[f"store_ingest_mb_s{suffix}"] = round(ingest_mb_s, 1)
    _summary[f"store_scan_mb_s{suffix}"] = round(scan_mb_s, 1)
    _summary[f"store_live_s{suffix}"] = round(live_s, 4)
    _summary[f"store_replay_s{suffix}"] = round(fast_s, 4)
    _summary[f"store_replay_speedup{suffix}"] = round(speedup, 2)
    # Noise floor, not the target: the committed headline is guarded at
    # >= 2x by tests/test_bench_guard.py.
    assert speedup > 1.0, (
        f"{nodes}-node store replay slower than live ({speedup:.2f}x)"
    )


def test_zz_write_summary():
    """Persist the results (named so it runs after the benchmarks)."""
    assert _rows, "benchmarks did not run"
    merge_csv(RESULTS_CSV, CSV_HEADERS, _rows, n_key_cols=2)
    if "store_replay_speedup" not in _summary:
        pytest.skip(
            "headline case (64-node fleet) did not run; BENCH_store.json "
            "left untouched — run the full file to regenerate it"
        )
    SUMMARY_JSON.write_text(
        json.dumps(_summary, indent=2, sort_keys=True) + "\n"
    )
    print(f"\nBENCH_store summary: {json.dumps(_summary, sort_keys=True)}")
