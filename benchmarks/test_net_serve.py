"""Benchmark: loopback load generation against the network fleet server.

The headline claim of the service facade PR: a single-CPU
:class:`~repro.service.net.FleetServer` ingesting ``repro-ticks/v1``
binary frames over a loopback socket sustains **>= 1000 simulated
nodes at serving cadence** (1 sample/s/node telemetry, so aggregate
node-samples/s is directly the number of nodes the server keeps up
with), while the alert JSONL stays *byte-identical* to the in-process
replay of the same trained fleet.

The fleets are built once (4 trained base nodes) and scaled with
:func:`repro.service.api.replicate_setup` — replicas share models and
held-out data by reference, so the benchmark measures serving
throughput, not training time.

Results merge into ``results/net_serve.csv`` and ``BENCH_service.json``
(keys ``net_*`` and ``ingest_*``); ``tests/test_bench_guard.py``
enforces the 1000-node floor, the byte-identity bit and the one-copy
ingest bound.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import pytest

from benchmarks.conftest import SCALE, merge_csv
from repro.service.api import (
    ServiceConfig,
    build_detector,
    build_setup,
    replay,
    replicate_setup,
)
from repro.service.net import FleetServer, ListAlertSink, LoadgenOptions, loadgen
from repro.service.protocol import FrameDecoder, encode_binary
from repro.service.servecore import ServeOptions

ROOT = Path(__file__).resolve().parent.parent
RESULTS_CSV = ROOT / "results" / "net_serve.csv"
SUMMARY_JSON = ROOT / "BENCH_service.json"
CSV_HEADERS = (
    "Nodes",
    "Format",
    "Ticks",
    "Frames",
    "Samples/s",
    "p50 [ms]",
    "p99 [ms]",
    "Identical",
)

#: Trained base fleet; every benchmark fleet is a by-reference replica.
BASE_NODES = 4
T = int(1200 * SCALE)
#: Serving cadence: 30 samples per frame — at 1 Hz telemetry each tick
#: carries 30 s of fleet data, the batching a real deployment uses.
CHUNK = 30
BLOCKS = 20
TREES = 20
FLEET_SIZES = (250, 1000)

_rows: list[tuple] = []
_summary: dict[str, float] = {}


@pytest.fixture(scope="module")
def base_config() -> ServiceConfig:
    return ServiceConfig(
        nodes=BASE_NODES,
        t=T,
        blocks=BLOCKS,
        trees=TREES,
        chunk=CHUNK,
    )


@pytest.fixture(scope="module")
def base_setup(base_config):
    return build_setup(base_config)


@pytest.mark.parametrize("nodes", FLEET_SIZES)
def test_loopback_serve_sustains_fleet(base_config, base_setup, nodes):
    setup = replicate_setup(base_setup, nodes)
    # In-process reference replay: the byte-identity baseline.
    ref_sink = ListAlertSink()
    outcome = replay(base_config, setup, sinks=(ref_sink,))
    # Network path: server thread + blocking loopback load generator.
    net_sink = ListAlertSink()
    server = FleetServer(
        build_detector(base_config, setup),
        ServeOptions(exit_on_idle=True),
        sinks=(net_sink,),
    )
    thread = server.start_background()
    assert server.ready.wait(120), "server failed to start"
    load = loadgen(
        setup,
        LoadgenOptions(connect=f"127.0.0.1:{server.port}", format="binary"),
        chunk=CHUNK,
    )
    thread.join(600)
    assert not thread.is_alive(), "server did not drain and exit"
    snap = server.stats.snapshot()
    identical = net_sink.text() == ref_sink.text()
    assert snap["ticks"] == load["ticks"]
    assert snap["backpressure"]["dropped"] == 0
    assert identical, (
        f"{nodes}-node fleet: network alert stream diverged from the "
        f"in-process replay"
    )
    assert len(ref_sink.lines) > 0, "benchmark fleet raised no alerts"
    # 1 Hz telemetry -> aggregate samples/s == nodes sustained.
    sustained = int(snap["samples_per_s"])
    _rows.append(
        (
            nodes,
            "binary",
            snap["ticks"],
            snap["frames"],
            round(snap["samples_per_s"], 1),
            snap["tick_latency_p50_ms"],
            snap["tick_latency_p99_ms"],
            int(identical),
        )
    )
    _summary[f"net{nodes}_samples_per_s"] = round(snap["samples_per_s"], 1)
    _summary[f"net{nodes}_tick_p50_ms"] = snap["tick_latency_p50_ms"]
    _summary[f"net{nodes}_tick_p99_ms"] = snap["tick_latency_p99_ms"]
    if nodes == max(FLEET_SIZES):
        _summary["net_samples_per_s"] = round(snap["samples_per_s"], 1)
        _summary["net_tick_p50_ms"] = snap["tick_latency_p50_ms"]
        _summary["net_tick_p99_ms"] = snap["tick_latency_p99_ms"]
        _summary["net_nodes_sustained"] = sustained
        _summary["net_byte_identical"] = int(identical)
        _summary["net_events"] = len(net_sink.lines)
        _summary["net_replay_events"] = len(outcome.events)
    # Noise floor here; the committed 1000-node headline is guarded by
    # tests/test_bench_guard.py.
    assert sustained >= nodes, (
        f"server sustained only {sustained} node-samples/s for a "
        f"{nodes}-node fleet at 1 Hz cadence"
    )


def _journal_root(tmp_path: Path) -> Path:
    """Journal directory for the overhead benchmark — tmpfs when
    available.

    Every node-sample carries ~1 KiB of journal (128 sensors x 8 B),
    so this max-speed replay needs ~100 MB/s of journal bandwidth —
    more than a CI-class virtio disk sustains, while the *claimed*
    serving cadence (1000 nodes at 1 Hz) needs ~1 MB/s, which any disk
    covers.  Benchmarking on tmpfs therefore floors what the code is
    responsible for — encode + CRC + buffering + syscalls on the
    serving path — instead of the host's sequential disk bandwidth.
    """
    shm = Path("/dev/shm")
    if shm.is_dir() and os.access(shm, os.W_OK):
        return Path(tempfile.mkdtemp(prefix="repro-walbench-", dir=shm))
    return tmp_path


def test_wal_overhead(base_config, base_setup, tmp_path):
    """Durability tax: the same max-size fleet served with a write-ahead
    journal (fsync policy ``tick``).

    Records ``net_wal_samples_per_s`` and the keep ratio against the
    no-WAL run from this session; the committed floors live in
    ``tests/test_bench_guard.py``.  Note what the keep ratio *is*: at
    max replay speed every node-sample drags ~1 KiB through the kernel
    write path, so the ratio compares detector-compute-per-byte with
    kernel-write-cost-per-byte — it is a property of the host's write
    path as much as of this code.  The steady-state claim (1000 nodes
    at 1 Hz needs ~1 MB/s of journal) is guarded separately via the
    absolute ``net_wal_samples_per_s`` floor.
    """
    nodes = max(FLEET_SIZES)
    base_key = f"net{nodes}_samples_per_s"
    assert base_key in _summary, "no-WAL baseline must run first"
    setup = replicate_setup(base_setup, nodes)
    ref_sink = ListAlertSink()
    replay(base_config, setup, sinks=(ref_sink,))
    net_sink = ListAlertSink()
    journal = _journal_root(tmp_path)
    server = FleetServer(
        build_detector(base_config, setup),
        ServeOptions(exit_on_idle=True, wal=journal / "wal", wal_fsync="tick"),
        sinks=(net_sink,),
    )
    try:
        thread = server.start_background()
        assert server.ready.wait(120), "server failed to start"
        load = loadgen(
            setup,
            LoadgenOptions(connect=f"127.0.0.1:{server.port}", format="binary"),
            chunk=CHUNK,
        )
        thread.join(600)
        assert not thread.is_alive(), "server did not drain and exit"
        snap = server.stats.snapshot()
    finally:
        if journal != tmp_path:
            shutil.rmtree(journal, ignore_errors=True)
    identical = net_sink.text() == ref_sink.text()
    assert identical, "journaled serve diverged from in-process replay"
    assert snap["ticks"] == load["ticks"]
    assert snap["wal_appended"] > 0 and snap["wal_fsyncs"] > 0
    keep = snap["samples_per_s"] / _summary[base_key]
    _rows.append(
        (
            nodes,
            "binary+wal",
            snap["ticks"],
            snap["frames"],
            round(snap["samples_per_s"], 1),
            snap["tick_latency_p50_ms"],
            snap["tick_latency_p99_ms"],
            int(identical),
        )
    )
    _summary["net_wal_samples_per_s"] = round(snap["samples_per_s"], 1)
    _summary["net_wal_keep_ratio"] = round(keep, 4)
    _summary["net_wal_tick_p50_ms"] = snap["tick_latency_p50_ms"]
    _summary["net_wal_byte_identical"] = int(identical)
    # Noise floor only (host write-path speed varies several-fold on
    # virtualized CI); the committed values are the guarded claims.
    assert keep >= 0.2, (
        f"WAL run kept only {keep:.0%} of no-WAL throughput"
    )
    assert snap["samples_per_s"] >= nodes, (
        "journaled server fell below the 1 Hz serving cadence"
    )


def test_ingest_copies_each_frame_once(base_setup):
    """Bytes allocated to take in one 1000-frame tick, per frame.

    The tick is received the way the server receives it: each socket
    read lands in a :meth:`FrameDecoder.get_buffer` view (the copy here
    stands in for ``recv_into``) and is decoded from there.  A warm-up
    tick first sizes the connection's buffer, as on a live connection.
    ``tracemalloc`` then sums, per read, the peak of traced memory over
    what was traced before it, so transient copies count as well as
    the frames the queues would keep.  One copy per frame reads about
    1.0 times the frame's wire size.
    """
    setup = replicate_setup(base_setup, max(FLEET_SIZES))
    paths = sorted(setup.eval_data)

    def tick_bytes(tick: int) -> bytes:
        lo = tick * CHUNK
        return b"".join(
            encode_binary(p, tick, setup.eval_data[p][:, lo : lo + CHUNK])
            for p in paths
        )

    decoder = FrameDecoder()

    def receive(stream: bytes) -> tuple[list, int]:
        data = memoryview(stream)
        frames: list = []
        allocated = pos = 0
        while pos < len(data):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            view = decoder.get_buffer()
            n = min(len(view), len(data) - pos)
            view[:n] = data[pos : pos + n]
            got, errors = decoder.feed(view[:n])
            assert errors == []
            frames += got
            allocated += tracemalloc.get_traced_memory()[1] - before
            pos += n
        return frames, allocated

    receive(tick_bytes(0))
    stream = tick_bytes(1)
    tracemalloc.start()
    try:
        frames, allocated = receive(stream)
    finally:
        tracemalloc.stop()
    assert len(frames) == len(paths)
    per_frame = allocated / len(frames)
    wire = len(stream) / len(frames)
    _summary["ingest_alloc_bytes_per_frame"] = round(per_frame, 1)
    _summary["ingest_wire_bytes_per_frame"] = round(wire, 1)
    assert per_frame <= 1.1 * wire, (
        f"ingest allocated {per_frame:.0f} B per {wire:.0f} B frame"
    )


def test_zz_write_summary():
    """Persist the results (named so it runs after the benchmarks)."""
    assert _summary, "benchmarks did not run"
    merge_csv(RESULTS_CSV, CSV_HEADERS, _rows, n_key_cols=2)
    merged: dict[str, float] = {}
    if SUMMARY_JSON.exists():
        merged = json.loads(SUMMARY_JSON.read_text())
    merged.update(_summary)
    SUMMARY_JSON.write_text(
        json.dumps(merged, indent=2, sort_keys=True) + "\n"
    )
    print(f"\nnet_serve summary: {json.dumps(_summary, sort_keys=True)}")