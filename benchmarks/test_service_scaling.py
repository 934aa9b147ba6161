"""Benchmark: batched fleet detection vs the naive per-node loop.

The online service's claim is that one ``process_block`` tick — batched
ring-buffer ingestion plus a single lockstep stacked-forest pass over
every signature the fleet emitted — beats the obvious implementation
(per node: one ``push`` per sample, one single-row forest predict per
signature).  Both paths produce *identical* alert events (asserted
here), so the comparison is pure overhead.

Results merge into ``results/service_scaling.csv`` and a summary is
written to ``BENCH_service.json``; ``tests/test_bench_guard.py`` fails
if the recorded headline drops below the committed 2x floor or any
recorded speedup falls below 1x.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from benchmarks.conftest import SCALE, merge_csv
from repro.service.api import ServiceConfig, replay
from repro.service.detector import FleetFaultDetector, detect_naive
from repro.service.guard import GuardedDetector
from repro.service.replay import fleet_recipes, prepare_fleet

ROOT = Path(__file__).resolve().parent.parent
RESULTS_CSV = ROOT / "results" / "service_scaling.csv"
SUMMARY_JSON = ROOT / "BENCH_service.json"
CSV_HEADERS = (
    "Fleet nodes",
    "Windows",
    "Alert events",
    "Batched [s]",
    "Per-node [s]",
    "Speedup",
)

FLEET_SIZES = (2, 4, 8)
TREES = 20
BLOCKS = 20
CHUNK = 256
#: Serving cadence for the guard-overhead comparison: one window step
#: per tick, the configuration an online deployment actually runs at.
SERVE_CHUNK = 10

_rows: list[tuple] = []
_summary: dict[str, float] = {}


def _event_key(event: dict) -> tuple:
    return (event["node"], event["window"], event["event"])


@pytest.mark.parametrize("nodes", FLEET_SIZES)
def test_batched_detection_beats_per_node_loop(nodes):
    setup = prepare_fleet(
        fleet_recipes(nodes, t=int(3000 * SCALE)),
        ServiceConfig(blocks=BLOCKS, trees=TREES, seed=0),
    )
    # Best-of-2 batched replays (each builds fresh stream/policy state).
    outcomes = [replay(ServiceConfig(chunk=CHUNK), setup) for _ in range(2)]
    batched_s = min(o.replay_time_s for o in outcomes)
    start = time.perf_counter()
    naive_events = detect_naive(setup.trained, setup.eval_data)
    naive_s = time.perf_counter() - start
    # Same alerts, chunking aside: the batched path interleaves nodes
    # burst by burst, so compare order-normalized streams.  The replay
    # guards its input; the naive oracle is the bare detector.
    batched_events = [
        {k: v for k, v in e.items() if k != "health"}
        for e in outcomes[-1].events
    ]
    assert sorted(batched_events, key=_event_key) == sorted(
        naive_events, key=_event_key
    ), "batched and per-node detection disagree on the alert stream"
    speedup = naive_s / batched_s
    _rows.append(
        (
            nodes,
            outcomes[-1].n_windows,
            len(naive_events),
            round(batched_s, 4),
            round(naive_s, 4),
            round(speedup, 2),
        )
    )
    _summary[f"fleet{nodes}_batched_s"] = round(batched_s, 4)
    _summary[f"fleet{nodes}_naive_s"] = round(naive_s, 4)
    _summary[f"fleet{nodes}_detect_speedup"] = round(speedup, 2)
    # Noise floor, not the target: the committed headline is guarded at
    # >= 2x by tests/test_bench_guard.py.
    assert speedup > 1.0, (
        f"{nodes}-node fleet: batched detection slower than the "
        f"per-node loop ({speedup:.2f}x)"
    )


def test_guarded_overhead_under_five_percent():
    """Input-hardening guard overhead at 64 nodes, serving cadence.

    The guard screens every block of every tick (dict lookups, health
    bookkeeping, and the arena's NaN/Inf reduction over the gathered
    columns); the acceptance bar is <5% over the unguarded tick.  A
    plain and a guarded detector take turns on every tick (alternating
    which goes first) and each sums its own ``process_block`` time, so
    host drift hits both alike; best of 3 such passes.  Whole-replay
    timing could not resolve the bar on a shared host: its best-of-3
    spread from -5% to +16% for one build.
    """
    nodes = 64
    setup = prepare_fleet(
        fleet_recipes(nodes, t=int(1500 * SCALE)),
        ServiceConfig(blocks=BLOCKS, trees=TREES, seed=0),
    )
    t = min(m.shape[1] for m in setup.eval_data.values())
    ticks = [
        {p: m[:, lo : lo + SERVE_CHUNK] for p, m in setup.eval_data.items()}
        for lo in range(0, t, SERVE_CHUNK)
    ]
    best = {"plain": float("inf"), "guarded": float("inf")}
    for _ in range(3):
        plain = FleetFaultDetector(setup.trained)
        guarded = GuardedDetector(FleetFaultDetector(setup.trained))
        calls = {
            "plain": lambda burst, tick: plain.process_block(burst),
            "guarded": guarded.process_block,
        }
        spent = {"plain": 0.0, "guarded": 0.0}
        events: dict[str, list] = {"plain": [], "guarded": []}
        for tick, burst in enumerate(ticks):
            for variant in sorted(calls, reverse=bool(tick % 2)):
                start = time.perf_counter()
                out = calls[variant](burst, tick)
                spent[variant] += time.perf_counter() - start
                events[variant].extend(out)
        for variant in best:
            best[variant] = min(best[variant], spent[variant])
    stripped = [
        {k: v for k, v in e.items() if k != "health"}
        for e in events["guarded"]
        if e["event"] != "guard"
    ]
    assert stripped == events["plain"], (
        "guard changed the alert stream on clean input"
    )
    overhead = best["guarded"] / best["plain"] - 1.0
    _summary["guard64_plain_s"] = round(best["plain"], 4)
    _summary["guard64_guarded_s"] = round(best["guarded"], 4)
    _summary["guard64_overhead_frac"] = round(overhead, 4)
    assert overhead < 0.05, (
        f"guard overhead {overhead:.1%} exceeds the 5% budget at "
        f"{nodes} nodes"
    )


def test_checkpoint_save_is_flat_in_uptime(tmp_path, monkeypatch):
    """A 250-node durable serving core (perfbench's fleet shape: 4 base
    nodes replicated, 30-sample ticks) checkpointing every 10 ticks.

    Records the archive's member count, its bytes after 20 and after 100
    ticks (whole archive, and every member but the manifest, whose
    per-node alert-policy JSON moves with the open alerts) and the
    median save time.  ``tests/test_bench_guard.py`` floors the member
    count at 16 and allows no growth between the two uptimes.
    """
    import statistics
    import zipfile

    from repro.service import checkpoint
    from repro.service.api import build_detector, build_setup
    from repro.service.protocol import Frame
    from repro.service.servecore import ServeCore, ServerCheckpoint

    nodes, chunk, ticks, every = 250, 30, 100, 10
    config = ServiceConfig(
        nodes=4, t=2 * chunk * ticks, blocks=BLOCKS, trees=TREES,
        chunk=chunk, seed=0, replicate=nodes,
    )
    setup = build_setup(config)
    path = tmp_path / "ckpt.npz"
    core = ServeCore(
        build_detector(config, setup),
        checkpoint=ServerCheckpoint(
            path=path,
            every=every,
            fingerprint=checkpoint.fleet_fingerprint(setup.trained),
            chunk=chunk,
        ),
    )
    real_save, spent = checkpoint.save_checkpoint, []

    def timed_save(*args, **kwargs):
        start = time.perf_counter()
        try:
            return real_save(*args, **kwargs)
        finally:
            spent.append(time.perf_counter() - start)

    monkeypatch.setattr(checkpoint, "save_checkpoint", timed_save)
    sizes = {}
    for tick in range(ticks):
        lo = tick * chunk
        for p, m in setup.eval_data.items():
            core.feed(Frame(p, tick, m[:, lo : lo + chunk]))
        core.poll(0.0)
        if tick + 1 in (20, ticks):
            with zipfile.ZipFile(path) as zf:
                members = {i.filename: i.file_size for i in zf.infolist()}
            arrays = sum(
                size for name, size in members.items()
                if name != "manifest.npy"
            )
            sizes[tick + 1] = (len(members), path.stat().st_size, arrays)
    assert len(spent) == ticks // every
    for uptime, (members, total, arrays) in sizes.items():
        _summary[f"checkpoint_bytes_250_t{uptime}"] = total
        _summary[f"checkpoint_array_bytes_250_t{uptime}"] = arrays
    _summary["checkpoint_members_250"] = sizes[ticks][0]
    _summary["checkpoint_save_ms_250"] = round(
        statistics.median(spent) * 1e3, 2
    )


def test_zz_write_summary():
    """Persist the results (named so it runs after the benchmarks).

    Read-merge-write: a partial run (``-k guard``) refreshes only the
    keys it measured, so the committed headline numbers survive."""
    assert _summary, "benchmarks did not run"
    if _rows:
        merge_csv(RESULTS_CSV, CSV_HEADERS, _rows, n_key_cols=1)
    merged: dict[str, float] = {}
    if SUMMARY_JSON.exists():
        merged = json.loads(SUMMARY_JSON.read_text())
    merged.update(_summary)
    largest_key = f"fleet{FLEET_SIZES[-1]}_detect_speedup"
    if largest_key in merged:
        merged["batched_detect_speedup"] = merged[largest_key]
    SUMMARY_JSON.write_text(
        json.dumps(merged, indent=2, sort_keys=True) + "\n"
    )
    print(f"\nBENCH_service summary: {json.dumps(merged, sort_keys=True)}")
