"""The columnar telemetry store: round-trips, retention, durability."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring import storage
from repro.monitoring.storage import atomic_savez, load_npz_arrays
from repro.monitoring.telestore import (
    PARTITION_FORMAT,
    STORE_FORMAT,
    RetentionError,
    TelemetryRecorder,
    TeleStore,
    TeleStoreError,
)


def _write(root, planes, *, partition_ticks=8, meta=None):
    """Record ``{path: (n, T) matrix}`` in one shot and open the store."""
    nodes = {p: (m.shape[0], m.dtype) for p, m in planes.items()}
    with TelemetryRecorder.create(
        root, nodes, partition_ticks=partition_ticks, meta=meta
    ) as rec:
        rec.append(planes)
    return TeleStore(root)


def _fake_checkpoint(path, next_lo, **arrays):
    manifest = {"format": "repro-detector-checkpoint/v2", "next_lo": next_lo}
    atomic_savez(
        path,
        manifest=np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        ),
        **arrays,
    )


class TestRoundTrip:
    def test_multi_partition_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        planes = {
            "rack0/node00": rng.normal(size=(3, 21)),
            "rack0/node01": rng.normal(size=(5, 21)),
        }
        store = _write(tmp_path / "s", planes, partition_ticks=8)
        # 21 ticks / 8 per partition -> 8 + 8 + 5 (short tail)
        assert [p.ticks for p in store.partitions] == [8, 8, 5]
        assert store.t0 == 0 and store.t1 == 21
        back = store.read()
        for p, m in planes.items():
            assert np.array_equal(back[p], m)
            assert back[p].dtype == m.dtype

    def test_append_spans_partition_boundaries(self, tmp_path):
        m = np.arange(40, dtype=np.float64).reshape(2, 20)
        nodes = {"n": (2, m.dtype)}
        with TelemetryRecorder.create(
            tmp_path / "s", nodes, partition_ticks=6
        ) as rec:
            # bursts of 3 never line up with the 6-tick partitions' edges
            for lo in range(0, 20, 3):
                rec.append({"n": m[:, lo : lo + 3]})
        store = TeleStore(tmp_path / "s")
        assert [p.ticks for p in store.partitions] == [6, 6, 6, 2]
        assert np.array_equal(store.read()["n"], m)

    def test_eager_and_mmap_scans_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        planes = {"a": rng.normal(size=(4, 17)).astype(np.float32)}
        store = _write(tmp_path / "s", planes, partition_ticks=5)
        eager = list(store.scan(mmap_mode=None))
        mapped = list(store.scan(mmap_mode="r"))
        assert [lo for lo, _ in eager] == [lo for lo, _ in mapped]
        for (_, e), (_, m) in zip(eager, mapped):
            assert np.array_equal(e["a"], np.asarray(m["a"]))

    def test_scan_clips_to_window(self, tmp_path):
        m = np.arange(30, dtype=np.int64).reshape(1, 30)
        store = _write(tmp_path / "s", {"n": m}, partition_ticks=10)
        blocks = list(store.scan(7, 24))
        assert [lo for lo, _ in blocks] == [7, 10, 20]
        got = np.concatenate([b["n"] for _, b in blocks], axis=1)
        assert np.array_equal(got, m[:, 7:24])

    def test_scan_outside_recorded_range_raises(self, tmp_path):
        store = _write(tmp_path / "s", {"n": np.zeros((1, 5))})
        with pytest.raises(TeleStoreError, match="outside recorded range"):
            list(store.scan(0, 9))

    def test_reopen_appends_at_t1(self, tmp_path):
        a = np.ones((2, 7))
        b = np.full((2, 4), 2.0)
        _write(tmp_path / "s", {"n": a}, partition_ticks=5)
        with TelemetryRecorder.open(tmp_path / "s") as rec:
            rec.append({"n": b})
        store = TeleStore(tmp_path / "s")
        assert store.t1 == 11
        assert np.array_equal(
            store.read()["n"], np.concatenate([a, b], axis=1)
        )

    def test_partition_manifest_format(self, tmp_path):
        store = _write(tmp_path / "s", {"n": np.zeros((1, 3))})
        arrays = load_npz_arrays(store.root / store.partitions[0].file)
        manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
        assert manifest["format"] == PARTITION_FORMAT
        assert store.stat()["format"] == STORE_FORMAT


class TestValidation:
    def test_create_refuses_existing_store(self, tmp_path):
        _write(tmp_path / "s", {"n": np.zeros((1, 3))})
        with pytest.raises(TeleStoreError, match="already holds"):
            TelemetryRecorder.create(tmp_path / "s", {"n": (1, np.float64)})

    def test_object_dtype_rejected(self, tmp_path):
        with pytest.raises(TeleStoreError, match="object dtypes"):
            TelemetryRecorder.create(
                tmp_path / "s", {"n": (1, np.dtype(object))}
            )

    def test_burst_node_set_must_match(self, tmp_path):
        rec = TelemetryRecorder.create(
            tmp_path / "s", {"a": (1, np.float64), "b": (1, np.float64)}
        )
        with pytest.raises(TeleStoreError, match="node set mismatch"):
            rec.append({"a": np.zeros((1, 2))})

    def test_burst_tick_counts_must_align(self, tmp_path):
        rec = TelemetryRecorder.create(
            tmp_path / "s", {"a": (1, np.float64), "b": (1, np.float64)}
        )
        with pytest.raises(TeleStoreError, match="tick counts differ"):
            rec.append({"a": np.zeros((1, 2)), "b": np.zeros((1, 3))})

    def test_burst_sensor_rows_must_match(self, tmp_path):
        rec = TelemetryRecorder.create(tmp_path / "s", {"a": (2, np.float64)})
        with pytest.raises(TeleStoreError, match="does not match"):
            rec.append({"a": np.zeros((3, 2))})

    def test_not_a_store(self, tmp_path):
        with pytest.raises(TeleStoreError, match="not a telemetry store"):
            TeleStore(tmp_path)


class TestVerify:
    def test_verify_clean(self, tmp_path):
        store = _write(tmp_path / "s", {"n": np.zeros((1, 12))})
        assert store.verify() == 2

    def test_verify_detects_corruption(self, tmp_path):
        store = _write(tmp_path / "s", {"n": np.zeros((1, 12))})
        victim = store.root / store.partitions[0].file
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))
        with pytest.raises(TeleStoreError, match="hash mismatch"):
            store.verify()

    def test_verify_detects_missing_file(self, tmp_path):
        store = _write(tmp_path / "s", {"n": np.zeros((1, 12))})
        (store.root / store.partitions[1].file).unlink()
        with pytest.raises(TeleStoreError, match="missing"):
            store.verify()


class TestCompact:
    def test_compact_merges_and_preserves(self, tmp_path):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(3, 26))
        store = _write(tmp_path / "s", {"n": m}, partition_ticks=4)
        before = store.read()["n"]
        merged = store.compact(target_ticks=12)
        assert merged > 0
        assert [p.ticks for p in store.partitions] == [12, 12, 2]
        reopened = TeleStore(tmp_path / "s")
        assert np.array_equal(reopened.read()["n"], before)
        assert reopened.verify() == 3
        # superseded files are gone
        on_disk = sorted(p.name for p in store.root.glob("part-*.npz"))
        assert on_disk == sorted(p.file for p in reopened.partitions)

    def test_compact_noop_reaps_orphans(self, tmp_path):
        store = _write(tmp_path / "s", {"n": np.zeros((1, 4))})
        orphan = store.root / "part-0000000900-0000000990.npz"
        orphan.write_bytes(b"leftover of a crashed compaction")
        assert store.compact() == 0
        assert not orphan.exists()


class TestPrune:
    def test_prune_keep_last(self, tmp_path):
        m = np.arange(20, dtype=np.float64).reshape(1, 20)
        store = _write(tmp_path / "s", {"n": m}, partition_ticks=5)
        assert store.prune(keep_last=2) == 2
        assert store.t0 == 10 and store.t1 == 20
        reopened = TeleStore(tmp_path / "s")
        assert np.array_equal(reopened.read()["n"], m[:, 10:])
        with pytest.raises(TeleStoreError, match="outside recorded range"):
            reopened.read(0, 20)

    def test_prune_refuses_checkpointed_partition(self, tmp_path):
        store = _write(
            tmp_path / "s", {"n": np.zeros((1, 20))}, partition_ticks=5
        )
        ckpt = tmp_path / "resume.npz"
        # resumes at sample 7 -> partition [5, 10) is still needed
        _fake_checkpoint(ckpt, next_lo=7)
        with pytest.raises(RetentionError) as exc:
            store.prune(keep_last=2, checkpoints=[ckpt])
        assert exc.value.partition == store.partitions[1].file
        assert exc.value.next_lo == 7
        # refused atomically: nothing was dropped
        assert len(TeleStore(tmp_path / "s").partitions) == 4

    def test_prune_allows_fully_replayed_checkpoint(self, tmp_path):
        store = _write(
            tmp_path / "s", {"n": np.zeros((1, 20))}, partition_ticks=5
        )
        ckpt = tmp_path / "resume.npz"
        _fake_checkpoint(ckpt, next_lo=10)  # partitions [0,5),[5,10) done
        assert store.prune(keep_last=2, checkpoints=[ckpt]) == 2

    def test_prune_respects_store_checkpoint_dir(self, tmp_path):
        store = _write(
            tmp_path / "s", {"n": np.zeros((1, 20))}, partition_ticks=5
        )
        (store.root / "checkpoints").mkdir()
        _fake_checkpoint(store.root / "checkpoints" / "auto.npz", next_lo=3)
        with pytest.raises(RetentionError):
            store.prune(keep_last=1)

    def test_prune_rejects_unreadable_checkpoint(self, tmp_path):
        store = _write(
            tmp_path / "s", {"n": np.zeros((1, 10))}, partition_ticks=5
        )
        bogus = tmp_path / "bogus.npz"
        bogus.write_bytes(b"not an archive")
        with pytest.raises(TeleStoreError, match="unreadable checkpoint"):
            store.prune(keep_last=1, checkpoints=[bogus])

    def test_pin_reads_only_the_manifest(self, tmp_path):
        """A pin costs its manifest, not its state arrays: a 4 MiB
        member is never read."""
        store = _write(
            tmp_path / "s", {"n": np.zeros((1, 20))}, partition_ticks=5
        )
        ckpt = tmp_path / "big.npz"
        _fake_checkpoint(ckpt, next_lo=10, state=np.ones(1 << 19))
        tracemalloc.start()
        try:
            assert store.prune(keep_last=2, checkpoints=[ckpt]) == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestStoreCommands:
    """``repro store`` reports a bad root or value as ``error: ...``,
    never a traceback: exit 1 for a root that is not a store, exit 2
    for a rejected value, before any work."""

    def _run(self, *argv):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "store", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert "Traceback" not in proc.stderr
        assert "error: " in proc.stderr
        return proc.returncode

    @pytest.mark.parametrize(
        "argv",
        [["stat"], ["verify"], ["compact"], ["prune", "--keep-last", "1"]],
        ids=["stat", "verify", "compact", "prune"],
    )
    def test_not_a_store_exits_1(self, argv, tmp_path):
        assert self._run(argv[0], str(tmp_path), *argv[1:]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["compact", "--target-ticks", "0"],
            ["prune", "--keep-last", "-1"],
        ],
        ids=["target-ticks", "keep-last"],
    )
    def test_rejected_value_exits_2_before_work(self, argv, tmp_path):
        store = _write(
            tmp_path / "s", {"n": np.zeros((1, 20))}, partition_ticks=5
        )
        assert self._run(argv[0], str(store.root), *argv[1:]) == 2
        assert len(TeleStore(store.root).partitions) == 4


_DTYPES = st.sampled_from(
    [np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_]
)


class TestPropertyRoundTrip:
    @given(
        data=st.data(),
        n_nodes=st.integers(1, 3),
        ticks=st.integers(1, 40),
        partition_ticks=st.integers(1, 9),
    )
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_fleets_round_trip(
        self, data, n_nodes, ticks, partition_ticks, tmp_path_factory
    ):
        """Ragged dtypes/shapes across partition boundaries: written
        once, read back bit-identical both eager and memory-mapped."""
        root = tmp_path_factory.mktemp("telestore")
        rng = np.random.default_rng(
            data.draw(st.integers(0, 2**32 - 1), label="seed")
        )
        planes = {}
        for i in range(n_nodes):
            dtype = np.dtype(data.draw(_DTYPES, label=f"dtype{i}"))
            sensors = data.draw(st.integers(1, 5), label=f"sensors{i}")
            raw = rng.normal(0.0, 100.0, size=(sensors, ticks))
            planes[f"node{i}"] = (
                raw > 0.0 if dtype == np.bool_ else raw.astype(dtype)
            )
        store = _write(
            root / "s", planes, partition_ticks=partition_ticks
        )
        assert store.ticks == ticks
        eager = store.read()
        for p, m in planes.items():
            assert eager[p].dtype == m.dtype
            assert np.array_equal(eager[p], m)
        pos = 0
        for lo, block in store.scan(mmap_mode="r"):
            assert lo == pos
            for p, view in block.items():
                width = view.shape[1]
                assert np.array_equal(
                    np.asarray(view), planes[p][:, lo : lo + width]
                )
            pos = lo + width
        assert pos == ticks


class TestAtomicSavezDurability:
    def test_fsync_ordering(self, tmp_path, monkeypatch):
        """File contents are fsynced before the rename becomes visible,
        and the parent directory entry is fsynced after it."""
        log = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            log.append(("fsync_file", fd))
            return real_fsync(fd)

        def spy_replace(src, dst):
            log.append(("replace", str(src), str(dst)))
            return real_replace(src, dst)

        def spy_fsync_dir(path):
            log.append(("fsync_dir", str(path)))

        monkeypatch.setattr(storage.os, "fsync", spy_fsync)
        monkeypatch.setattr(storage.os, "replace", spy_replace)
        monkeypatch.setattr(storage, "_fsync_dir", spy_fsync_dir)
        target = tmp_path / "out.npz"
        atomic_savez(target, a=np.arange(4))
        kinds = [entry[0] for entry in log]
        assert kinds == ["fsync_file", "replace", "fsync_dir"]
        assert log[1][2] == str(target)
        assert log[2][1] == str(tmp_path)
        assert np.array_equal(load_npz_arrays(target)["a"], np.arange(4))

    def test_failed_replace_leaves_no_debris(self, tmp_path, monkeypatch):
        def boom(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(storage.os, "replace", boom)
        target = tmp_path / "out.npz"
        with pytest.raises(OSError, match="disk gone"):
            atomic_savez(target, a=np.arange(4))
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # temp file cleaned up

    def test_torn_index_write_keeps_old_store(self, tmp_path, monkeypatch):
        """A crash mid index rewrite leaves the previous store intact."""
        m = np.arange(8, dtype=np.float64).reshape(1, 8)
        store = _write(tmp_path / "s", {"n": m}, partition_ticks=4)
        from repro.monitoring import telestore

        def boom(path, payload):
            raise OSError("power cut")

        monkeypatch.setattr(telestore, "_atomic_write_json", boom)
        with pytest.raises(OSError, match="power cut"):
            store.compact(target_ticks=8)
        monkeypatch.undo()
        reopened = TeleStore(tmp_path / "s")
        assert [p.ticks for p in reopened.partitions] == [4, 4]
        assert np.array_equal(reopened.read()["n"], m)
        # the merged-but-unreferenced file is reaped on next retention op
        assert reopened.compact(target_ticks=8) == 2
        assert np.array_equal(TeleStore(tmp_path / "s").read()["n"], m)
