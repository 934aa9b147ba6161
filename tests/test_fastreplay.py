"""Store replay vs live ingestion: byte-identity, lineage, memory."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.monitoring.telestore import TelemetryRecorder, TeleStore
from repro.service.api import ServiceConfig, replay
from repro.service.fastreplay import (
    FastReplayError,
    record_fleet,
    replay_from_store,
    slice_setup,
)
from repro.service.detector import FleetFaultDetector
from repro.service.replay import fleet_recipes, prepare_fleet

REPO = Path(__file__).resolve().parents[1]


def _jsonl(events):
    return "\n".join(json.dumps(e) for e in events)


@pytest.fixture(scope="module")
def small_setup():
    return prepare_fleet(
        fleet_recipes(3, t=2000),
        ServiceConfig(blocks=8, trees=5, train_frac=0.5, seed=0),
    )


@pytest.fixture(scope="module")
def small_store(small_setup, tmp_path_factory):
    root = tmp_path_factory.mktemp("stores") / "fleet"
    return record_fleet(
        small_setup, root, partition_ticks=256, chunk=10, guarded=True
    )


class TestByteIdentity:
    def test_full_window_matches_guarded_live(self, small_setup, small_store):
        live = replay(ServiceConfig(chunk=10), small_setup)
        fast = replay_from_store(ServiceConfig(), small_setup, small_store)
        assert _jsonl(fast.events) == _jsonl(live.events)
        assert fast.events, "drill needs a non-empty alert stream"
        assert fast.n_windows == live.n_windows
        assert fast.window_accuracy == live.window_accuracy

    def test_unguarded_recording_matches_unguarded_live(
        self, small_setup, tmp_path
    ):
        store = record_fleet(
            small_setup,
            tmp_path / "raw",
            partition_ticks=300,
            chunk=10,
            guarded=False,
        )
        # The bare detector's tick loop: what an unguarded live run was.
        detector = FleetFaultDetector(small_setup.trained, max_chunk=10)
        live = []
        horizon = max(m.shape[1] for m in small_setup.eval_data.values())
        for lo in range(0, horizon, 10):
            live += detector.process_block(
                {p: m[:, lo : lo + 10] for p, m in small_setup.eval_data.items()}
            )
        fast = replay_from_store(ServiceConfig(), small_setup, store)
        assert _jsonl(fast.events) == _jsonl(live)
        assert all("health" not in e for e in fast.events)

    @pytest.mark.parametrize("chunk", [10, 37, 256])
    def test_any_live_chunk_reproduced(self, small_setup, tmp_path, chunk):
        store = record_fleet(
            small_setup, tmp_path / "s", partition_ticks=256, chunk=chunk
        )
        config = ServiceConfig(chunk=chunk)
        live = replay(config, small_setup)
        fast = replay_from_store(config, small_setup, store)
        assert _jsonl(fast.events) == _jsonl(live.events)

    def test_sub_window_matches_fresh_live_detector(
        self, small_setup, small_store
    ):
        t0, t1 = 200, 800
        live = replay(ServiceConfig(chunk=10), slice_setup(small_setup, t0, t1))
        fast = replay_from_store(
            ServiceConfig(), small_setup, small_store, t0=t0, t1=t1,
        )
        assert _jsonl(fast.events) == _jsonl(live.events)
        assert fast.window_accuracy == live.window_accuracy

    def test_partitioning_never_changes_events(self, small_setup, tmp_path):
        reference = None
        for ticks in (100, 512, 4096):
            store = record_fleet(
                small_setup,
                tmp_path / f"p{ticks}",
                partition_ticks=ticks,
                chunk=10,
            )
            got = _jsonl(replay_from_store(ServiceConfig(), small_setup, store).events)
            if reference is None:
                reference = got
            assert got == reference


class TestLineageAndValidation:
    def test_fingerprint_mismatch_is_typed_error(
        self, small_store, tmp_path
    ):
        other = prepare_fleet(
            fleet_recipes(3, t=2000), ServiceConfig(blocks=8, trees=5, seed=1),
        )
        with pytest.raises(FastReplayError, match="fingerprint mismatch"):
            replay_from_store(ServiceConfig(), other, small_store)

    def test_fingerprintless_store_is_refused(self, small_setup, tmp_path):
        store = record_fleet(small_setup, tmp_path / "s", chunk=10)
        store.meta.pop("fingerprint")
        with pytest.raises(FastReplayError, match="no recorded fleet"):
            replay_from_store(ServiceConfig(), small_setup, store)

    def test_node_set_mismatch_is_typed_error(self, small_setup, tmp_path):
        wider = prepare_fleet(
            fleet_recipes(4, t=2000), ServiceConfig(blocks=8, trees=5, seed=0),
        )
        store = record_fleet(small_setup, tmp_path / "s", chunk=10)
        with pytest.raises(FastReplayError, match="node set"):
            replay_from_store(ServiceConfig(), wider, store)

    def test_misaligned_t0_requires_no_truth(self, small_setup, small_store):
        with pytest.raises(FastReplayError, match="aligned"):
            slice_setup(small_setup, 7)
        outcome = replay_from_store(
            ServiceConfig(), small_setup, small_store, t0=7, t1=500,
        )
        assert outcome.window_accuracy == 0.0  # ran, but unscored
        assert outcome.n_windows > 0

    def test_store_path_accepted(self, small_setup, small_store):
        outcome = replay_from_store(ServiceConfig(), small_setup, str(small_store.root))
        assert outcome.n_events > 0


class TestOutOfCore:
    def test_scan_memory_bounded_by_partition(self, tmp_path):
        """Scanning a store much larger than one partition allocates on
        the order of one partition, not the store (mmap'd planes)."""
        part_ticks, n_parts, sensors = 1500, 8, 64
        plane_bytes = sensors * part_ticks * 8
        rng = np.random.default_rng(0)
        with TelemetryRecorder.create(
            tmp_path / "big",
            {"n": (sensors, np.float64)},
            partition_ticks=part_ticks,
        ) as rec:
            for _ in range(n_parts):
                rec.append({"n": rng.normal(size=(sensors, part_ticks))})
        store = TeleStore(tmp_path / "big")
        assert store.nbytes > 4 * plane_bytes
        total = 0.0
        tracemalloc.start()
        for _, block in store.scan(mmap_mode="r"):
            total += float(np.asarray(block["n"]).sum())
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert np.isfinite(total)
        # one materialized partition + slack; far below the whole store
        assert peak < 2.5 * plane_bytes
        assert peak < store.nbytes / 2


class TestCliDeterminism:
    """`repro detect --from-store` byte-identity across processes and
    hash seeds — the live detector's determinism contract extended to
    the store path."""

    def _detect(self, alerts, cache, store, *, hash_seed):
        cmd = [
            sys.executable, "-m", "repro", "detect", "--smoke",
            "--cache-dir", str(cache), "--alerts", str(alerts),
        ]
        if store is not None:
            cmd += ["--from-store", str(store)]
        env = os.environ.copy()
        env["PYTHONPATH"] = str(REPO / "src")
        env["PYTHONHASHSEED"] = str(hash_seed)
        subprocess.run(
            cmd, cwd=REPO, env=env, check=True, capture_output=True
        )
        return alerts.read_bytes()

    def test_store_replay_deterministic_across_processes(self, tmp_path):
        cache = tmp_path / "cache"
        record = [
            sys.executable, "-m", "repro", "store", "record",
            str(tmp_path / "store"), "--smoke", "--cache-dir", str(cache),
            "--partition-ticks", "500",
        ]
        env = os.environ.copy()
        env["PYTHONPATH"] = str(REPO / "src")
        subprocess.run(
            record, cwd=REPO, env=env, check=True, capture_output=True
        )
        live = self._detect(
            tmp_path / "live.jsonl", cache, None, hash_seed=0
        )
        runs = {
            seed: self._detect(
                tmp_path / f"store-{seed}.jsonl", cache,
                tmp_path / "store", hash_seed=seed,
            )
            for seed in (0, 31337)
        }
        assert live  # non-empty stream
        for key, payload in runs.items():
            assert payload == live, f"store replay diverged for {key}"
