"""Bounded checkpoints: a save costs O(state), not O(uptime).

A durable :class:`~repro.service.servecore.ServeCore` writes the
``repro-detector-checkpoint/v2`` archive (one member per geometry group
array, no per-node members, no event list) plus an append-only event
journal beside it (:func:`~repro.service.checkpoint.events_path`).
These tests pin the bound and the journal's crash contract:

* over a few hundred small ticks with a checkpoint every ``EVERY``, the
  member set and every array member's size are fixed from the second
  save on, and the core holds only the events since the last save;
* a kill after any tick, then ``recover``, is byte-identical to the
  uninterrupted run;
* a crash after the journal's fsync but before the archive's rename
  restores the previous checkpoint byte-identically, and the next save
  drops the uncommitted tail;
* a missing, short or altered journal, and a version 1 archive, are
  typed :class:`~repro.service.checkpoint.CheckpointError` s.
"""

import json
import zipfile

import numpy as np
import pytest

from repro.monitoring.storage import atomic_savez, load_npz_arrays
from repro.service import checkpoint
from repro.service.api import ServiceConfig, build_detector, build_setup
from repro.service.checkpoint import (
    CheckpointError,
    events_path,
    fleet_fingerprint,
    load_checkpoint,
)
from repro.service.protocol import Frame
from repro.service.servecore import ListAlertSink, ServeCore, ServerCheckpoint

CFG = ServiceConfig.smoke(chunk=5, replicate=6)
EVERY = 10


@pytest.fixture(scope="module")
def setup():
    return build_setup(CFG)


@pytest.fixture(scope="module")
def fingerprint(setup):
    return fleet_fingerprint(setup.trained)


@pytest.fixture(scope="module")
def n_ticks(setup):
    horizon = max(m.shape[1] for m in setup.eval_data.values())
    return -(-horizon // CFG.chunk)


@pytest.fixture(scope="module")
def reference(setup, n_ticks):
    """The uninterrupted run's alert lines (a core that never saves)."""
    sink = ListAlertSink()
    core = ServeCore(build_detector(CFG, setup), sinks=(sink,))
    _feed(core, setup, range(n_ticks))
    core.close()
    return sink.lines


def _core(setup, fingerprint, tmp_path, sink, *, wal=True):
    """A durable core, recovered from whatever ``tmp_path`` holds."""
    core = ServeCore(
        build_detector(CFG, setup),
        sinks=(sink,),
        wal=tmp_path / "wal" if wal else None,
        checkpoint=ServerCheckpoint(
            path=tmp_path / "ckpt.npz",
            every=EVERY,
            fingerprint=fingerprint,
            chunk=CFG.chunk,
        ),
    )
    core.recover()
    return core


def _feed(core, setup, ticks):
    """Feed every node's burst of each of ``ticks`` and fire the tick."""
    for tick in ticks:
        lo = tick * CFG.chunk
        for path, m in sorted(setup.eval_data.items()):
            core.feed(Frame(path, tick, m[:, lo : lo + CFG.chunk]))
        core.poll(0.0)
        assert core.cursor == tick + 1


def _members(path):
    with zipfile.ZipFile(path) as zf:
        return {info.filename: info.file_size for info in zf.infolist()}


class TestBoundedSaves:
    def test_archive_is_flat_in_uptime(
        self, setup, fingerprint, n_ticks, reference, tmp_path
    ):
        """Only the manifest's size moves (open alerts' JSON, counter
        digits); the journal grows by exactly the events since the last
        save, and the core keeps no more than those."""
        assert n_ticks >= 200
        sink = ListAlertSink()
        core = _core(setup, fingerprint, tmp_path, sink, wal=False)
        ckpt = tmp_path / "ckpt.npz"
        saves, committed = [], 0
        for tick in range(n_ticks):
            _feed(core, setup, [tick])
            if core.stats.checkpoints > len(saves):
                committed = len(sink.lines)
                saves.append((_members(ckpt), ckpt.stat().st_size))
                journal = events_path(ckpt).read_text()
                assert journal == "".join(
                    line + "\n" for line in sink.lines[:committed]
                )
            assert len(core._events) == len(sink.lines) - committed
        assert len(saves) == n_ticks // EVERY
        assert sink.lines == reference and len(reference) > 10
        first, *rest = saves[1:]
        for members, _ in rest:
            assert members.keys() == first[0].keys()
            for name, size in members.items():
                if name != "manifest.npy":
                    assert size == first[0][name], name
        sizes = [size for _, size in saves[1:]]
        assert max(sizes) - min(sizes) <= 1024
        assert len(first[0]) <= 16
        assert not any(name.startswith("node") for name in first[0])

    def test_history_members_only_when_recorded(
        self, setup, fingerprint, tmp_path
    ):
        core = _core(setup, fingerprint, tmp_path, ListAlertSink(), wal=False)
        _feed(core, setup, range(EVERY))
        plain = _members(tmp_path / "ckpt.npz")
        assert not any(name.startswith("hist_") for name in plain)
        recorded = ServeCore(
            build_detector(CFG, setup, record_history=True),
            checkpoint=ServerCheckpoint(
                path=tmp_path / "hist.npz",
                every=EVERY,
                fingerprint=fingerprint,
                chunk=CFG.chunk,
            ),
        )
        _feed(recorded, setup, range(EVERY))
        members = _members(tmp_path / "hist.npz")
        assert {"hist_labels.npy", "hist_conf.npy", "hist_lengths.npy"} <= set(
            members
        )
        assert len(members) == len(plain) + 3


    def test_store_retention_reads_the_resume_point(
        self, setup, fingerprint, tmp_path
    ):
        """Telemetry-store retention parses the manifest itself (no
        service import): it must accept the archive the core writes."""
        from repro.monitoring.telestore import _checkpoint_next_lo

        core = _core(setup, fingerprint, tmp_path, ListAlertSink(), wal=False)
        _feed(core, setup, range(EVERY))
        pin = _checkpoint_next_lo(tmp_path / "ckpt.npz")
        assert pin == EVERY * CFG.chunk


class TestCrashContract:
    @pytest.mark.parametrize("kill_after", [7, 10, 23])
    def test_kill_then_recover_is_byte_identical(
        self, setup, fingerprint, n_ticks, reference, tmp_path, kill_after
    ):
        """Abandon the core after ``kill_after`` ticks (no final save);
        a fresh core recovers checkpoint + journal + WAL, re-emits the
        prefix into its fresh sink and finishes the feed."""
        core = _core(setup, fingerprint, tmp_path, ListAlertSink())
        _feed(core, setup, range(kill_after))
        core.wal.close()
        sink = ListAlertSink()
        core = _core(setup, fingerprint, tmp_path, sink)
        assert core.cursor == kill_after
        _feed(core, setup, range(kill_after, n_ticks))
        core.close()
        assert sink.lines == reference
        assert events_path(tmp_path / "ckpt.npz").read_text() == "".join(
            line + "\n" for line in reference
        )

    def test_crash_between_journal_fsync_and_rename(
        self, setup, fingerprint, n_ticks, reference, tmp_path, monkeypatch
    ):
        """The journal holds an uncommitted tail, the archive is the
        previous save's: restore reads only the committed extent, and
        the next save truncates the tail away."""
        ckpt = tmp_path / "ckpt.npz"
        core = _core(setup, fingerprint, tmp_path, ListAlertSink(), wal=False)
        # Run to the first save whose interval emitted events.
        tick = 0
        while True:
            _feed(core, setup, range(tick, tick + EVERY))
            tick += EVERY
            if core._events_mark.nbytes:
                break
        saved = ckpt.read_bytes()
        while True:
            _feed(core, setup, range(tick, tick + EVERY - 1))
            tick += EVERY - 1
            if core._events:
                break
            _feed(core, setup, [tick])  # a save with nothing to append
            tick += 1
            saved = ckpt.read_bytes()

        def crash(*args, **kwargs):
            raise KeyboardInterrupt("killed before the rename")

        monkeypatch.setattr(checkpoint, "atomic_savez", crash)
        with pytest.raises(KeyboardInterrupt):
            _feed(core, setup, [tick])
        monkeypatch.undo()
        assert ckpt.read_bytes() == saved
        committed = load_checkpoint(ckpt).manifest["events_bytes"]
        assert events_path(ckpt).stat().st_size > committed
        sink = ListAlertSink()
        core = _core(setup, fingerprint, tmp_path, sink, wal=False)
        _feed(core, setup, range(core.cursor, n_ticks))
        core.close()
        assert sink.lines == reference
        assert events_path(ckpt).read_text() == "".join(
            line + "\n" for line in reference
        )


class TestTypedJournalErrors:
    @pytest.fixture
    def ckpt(self, setup, fingerprint, tmp_path):
        """A checkpoint whose journal holds events."""
        core = _core(setup, fingerprint, tmp_path, ListAlertSink(), wal=False)
        tick = 0
        while not core._events_mark.nbytes:
            _feed(core, setup, range(tick, tick + EVERY))
            tick += EVERY
        return tmp_path / "ckpt.npz"

    def _error(self, ckpt):
        with pytest.raises(CheckpointError) as exc_info:
            load_checkpoint(ckpt)
        return exc_info.value

    def test_truncated_journal_rejected(self, ckpt):
        journal = events_path(ckpt)
        journal.write_bytes(journal.read_bytes()[:-1])
        assert self._error(ckpt).field == "events"

    def test_missing_journal_rejected(self, ckpt):
        events_path(ckpt).unlink()
        assert self._error(ckpt).field == "events"

    def test_altered_journal_rejected(self, ckpt):
        journal = events_path(ckpt)
        data = bytearray(journal.read_bytes())
        data[2] ^= 0x20
        journal.write_bytes(bytes(data))
        assert self._error(ckpt).field == "events"

    def test_version_1_archive_rejected(self, ckpt):
        arrays = load_npz_arrays(ckpt)
        manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
        manifest["format"] = "repro-detector-checkpoint/v1"
        arrays["manifest"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        atomic_savez(ckpt, **arrays)
        assert self._error(ckpt).field == "format"

    @pytest.mark.parametrize("member", ["g0_ring", "g0_counts"])
    def test_corrupt_group_array_rejected(
        self, ckpt, setup, fingerprint, tmp_path, member
    ):
        arrays = load_npz_arrays(ckpt)
        arrays[member] = arrays[member][1:]
        atomic_savez(ckpt, **arrays)
        with pytest.raises(CheckpointError) as exc_info:
            _core(setup, fingerprint, tmp_path, ListAlertSink(), wal=False)
        assert exc_info.value.field == "streams"
