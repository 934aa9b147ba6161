"""Crash-durable network serving: WAL + networked checkpoints + resume.

The headline drill clones the on-disk state (checkpoint + WAL) of a
live server mid-stream — including a journaled frame of an unfinished
tick — and proves a fresh server recovering from that clone, fed by a
resuming client, emits alert JSONL byte-identical to the uninterrupted
in-process replay.  Around it: WAL-only recovery, the health /
readiness surface, stats plumbing, port-file cleanup and the
connect-backoff that closes the port-file race.
"""

import json
import shutil
import socket
import threading
import time

import numpy as np
import pytest

from repro.monitoring.storage import atomic_savez, load_npz_arrays
from repro.service import checkpoint, net, wal
from repro.service.api import (
    ServiceConfig,
    build_detector,
    build_setup,
    replay,
)
from repro.service.checkpoint import (
    CheckpointError,
    events_path,
    fleet_fingerprint,
    load_checkpoint,
)
from repro.service.net import FleetServer, ListAlertSink, LoadgenOptions, loadgen
from repro.service.protocol import (
    Frame,
    FrameDecoder,
    encode_acks_subscribe,
    encode_binary,
    encode_eof,
)
from repro.service.servecore import ServeOptions, ServerCheckpoint
from repro.service.wal import REC_FRAME, recover_wal

CFG = ServiceConfig.smoke()


@pytest.fixture(scope="module")
def setup():
    return build_setup(CFG)


@pytest.fixture(scope="module")
def fingerprint(setup):
    return fleet_fingerprint(setup.trained)


@pytest.fixture(scope="module")
def reference(setup):
    sink = ListAlertSink()
    outcome = replay(CFG, setup, sinks=(sink,))
    return outcome, sink.text()


def _wait(pred, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(0.02)
    return False


def _checkpoint(path, fingerprint, every=1):
    return ServerCheckpoint(
        path=path, every=every, fingerprint=fingerprint, chunk=CFG.chunk
    )


class TestCrashRestartByteIdentity:
    KILL_AT = 3  # ticks processed before the simulated crash

    def test_cloned_crash_state_recovers_byte_identical(
        self, setup, fingerprint, reference, tmp_path
    ):
        """Clone checkpoint+WAL of a live server mid-stream (with one
        frame of an unfinished tick journaled), recover a fresh server
        from the clone, resume the feed: byte-identical alerts."""
        _, ref_text = reference
        paths = sorted(setup.eval_data)

        # -- the "crashing" server -----------------------------------
        sink_a = ListAlertSink()
        server_a = FleetServer(
            build_detector(CFG, setup),
            ServeOptions(wal=tmp_path / "wal-live"),
            sinks=(sink_a,),
            checkpoint=_checkpoint(tmp_path / "live.npz", fingerprint),
        )
        thread_a = server_a.start_background()
        assert server_a.ready.wait(10)
        loadgen(
            setup,
            LoadgenOptions(
                connect=f"127.0.0.1:{server_a.port}",
                max_ticks=self.KILL_AT,
                eof=False,
            ),
            chunk=CFG.chunk,
        )
        assert _wait(lambda: server_a.stats.ticks >= self.KILL_AT)
        # One frame of the next (never-completed) tick: the journal's
        # torn-tick tail a kill -9 mid-burst leaves behind.
        frames_before = server_a.stats.frames
        m = setup.eval_data[paths[0]]
        lo = self.KILL_AT * CFG.chunk
        with socket.create_connection(
            ("127.0.0.1", server_a.port)
        ) as sock:
            sock.sendall(
                encode_binary(
                    paths[0], self.KILL_AT, m[:, lo : lo + CFG.chunk]
                )
            )
            assert _wait(
                lambda: server_a.stats.frames == frames_before + 1
            )
            # Appends batch in memory; push the orphaned frame to disk
            # the way fsync=always would, so the clone carries a
            # mid-tick journal tail.  (The event loop is idle here —
            # nothing else is appending.)
            server_a.core.wal.sync()
            # Crash-consistent clone: checkpoint first, then its event
            # journal and the WAL — a save appends to both before it
            # renames the archive, so the clone can never hold a
            # checkpoint newer than its journals.
            shutil.copy(tmp_path / "live.npz", tmp_path / "crash.npz")
            shutil.copy(
                events_path(tmp_path / "live.npz"),
                events_path(tmp_path / "crash.npz"),
            )
            shutil.copytree(tmp_path / "wal-live", tmp_path / "wal-crash")
        server_a.request_stop()
        thread_a.join(30)
        assert not thread_a.is_alive()

        # -- the restarted server ------------------------------------
        sink_b = ListAlertSink()
        server_b = FleetServer(
            build_detector(CFG, setup),
            ServeOptions(exit_on_idle=True, wal=tmp_path / "wal-crash"),
            sinks=(sink_b,),
            checkpoint=_checkpoint(tmp_path / "crash.npz", fingerprint),
        )
        thread_b = server_b.start_background()
        assert server_b.ready.wait(30)
        # Recovery replayed the journal tail past the checkpoint (at
        # least the orphaned frame of the unfinished tick).
        assert server_b.stats.wal_replayed > 0
        # The resuming client re-sends everything; processed ticks are
        # late-dropped, the rest completes the stream.
        stats = loadgen(
            setup,
            LoadgenOptions(
                connect=f"127.0.0.1:{server_b.port}",
                resume=True,
                total_timeout=120.0,
            ),
            chunk=CFG.chunk,
        )
        thread_b.join(60)
        assert not thread_b.is_alive()
        assert sink_b.text() == ref_text
        assert stats["acked_ticks"] == stats["ticks"]
        assert server_b.stats.checkpoints >= 1

    def test_wal_only_recovery_reemits_full_stream(
        self, setup, reference, tmp_path
    ):
        """No checkpoint at all: the journal alone re-drives every tick
        through a fresh detector — same bytes out."""
        _, ref_text = reference
        sink_a = ListAlertSink()
        server_a = FleetServer(
            build_detector(CFG, setup),
            ServeOptions(exit_on_idle=True, wal=tmp_path / "wal"),
            sinks=(sink_a,),
        )
        thread_a = server_a.start_background()
        assert server_a.ready.wait(10)
        loadgen(
            setup,
            LoadgenOptions(connect=f"127.0.0.1:{server_a.port}"),
            chunk=CFG.chunk,
        )
        thread_a.join(60)
        assert not thread_a.is_alive()
        assert sink_a.text() == ref_text
        appended = server_a.stats.wal_appended
        assert appended > 0

        sink_b = ListAlertSink()
        server_b = FleetServer(
            build_detector(CFG, setup),
            ServeOptions(exit_on_idle=True, wal=tmp_path / "wal"),
            sinks=(sink_b,),
        )
        thread_b = server_b.start_background()
        assert server_b.ready.wait(30)
        assert server_b.stats.wal_replayed == appended
        # Nothing new to send; an eof drains the recovered server.
        with socket.create_connection(
            ("127.0.0.1", server_b.port)
        ) as sock:
            sock.sendall(encode_eof())
        thread_b.join(30)
        assert not thread_b.is_alive()
        assert sink_b.text() == ref_text

    def test_inprocess_checkpoint_rejected_for_server_restart(
        self, setup, fingerprint, tmp_path
    ):
        """An archive in the layout in-process replay once wrote has no
        server routing state (tick cursor, journal index, queues);
        seeding a restart from it must be a typed error, not silent
        drift."""
        ck = tmp_path / "inproc.npz"
        replay(CFG, setup, checkpoint_path=ck, checkpoint_every=1, stop_after=2)
        arrays = load_npz_arrays(ck)
        manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
        del manifest["server"]
        arrays["manifest"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        atomic_savez(ck, **arrays)
        server = FleetServer(
            build_detector(CFG, setup),
            checkpoint=_checkpoint(tmp_path / "inproc.npz", fingerprint),
        )
        with pytest.raises(CheckpointError, match="server") as exc_info:
            server.core.recover()
        assert exc_info.value.field == "server"


class TestHealthSurface:
    def test_health_payload_and_wal_stats(self, setup, tmp_path):
        server = FleetServer(
            build_detector(CFG, setup),
            ServeOptions(exit_on_idle=True, wal=tmp_path / "wal"),
        )
        thread = server.start_background()
        assert server.ready.wait(10)
        payload = server.health()
        assert payload["live"] is True
        assert payload["ready"] is True
        assert payload["status"] == "ok" and payload["reasons"] == []
        assert payload["wal"] is not None
        loadgen(
            setup,
            LoadgenOptions(connect=f"127.0.0.1:{server.port}"),
            chunk=CFG.chunk,
        )
        thread.join(60)
        assert not thread.is_alive()
        stats = server.stats.snapshot()
        assert stats["wal_appended"] > 0
        assert stats["wal_fsyncs"] > 0
        assert stats["wal_replayed"] == 0
        assert stats["checkpoints"] == 0
        # After the drain, the server reports itself not ready.
        assert server.health()["ready"] is False

    def test_degraded_reasons(self, setup):
        server = FleetServer(
            build_detector(CFG, setup),
            ServeOptions(tick_timeout=1.0),
        )
        core = server.core
        # Barrier-timeout streak: a dead agent forcing partial ticks.
        core.connect(object())
        node = sorted(core.queues)[0]
        values = setup.eval_data[node][:, : CFG.chunk]
        for tick in range(3):
            core.feed(Frame(node, tick, values))
        for now in (0.0, 1.0, 1.0, 2.0, 2.0, 3.0):
            core.poll(now)
        assert core.timeout_streak == 3
        payload = server.health()
        assert payload["status"] == "degraded"
        assert "barrier-timeout-streak" in payload["reasons"]
        # Quarantined node (guard state, not server state).
        server.guarded._health[node].state = "quarantined"
        payload = server.health()
        assert "quarantined-nodes" in payload["reasons"]
        assert payload["quarantined"] == 1


class TestIdleGrace:
    def test_reconnect_gap_does_not_end_stream(self, setup, reference):
        """An ``exit_on_idle`` server must survive the connection gap a
        reconnecting client leaves (e.g. after a chaos-proxy reset)
        instead of reading it as end-of-stream."""
        _, ref_text = reference
        sink = ListAlertSink()
        server = FleetServer(
            build_detector(CFG, setup),
            ServeOptions(exit_on_idle=True),
            sinks=(sink,),
        )
        server.core.idle_grace = 5.0
        thread = server.start_background()
        assert server.ready.wait(10)
        loadgen(
            setup,
            LoadgenOptions(
                connect=f"127.0.0.1:{server.port}",
                max_ticks=2,
                eof=False,
            ),
            chunk=CFG.chunk,
        )
        # Inside the grace window with no connection open: still up.
        time.sleep(0.5)
        assert thread.is_alive()
        loadgen(
            setup,
            LoadgenOptions(connect=f"127.0.0.1:{server.port}", resume=True),
            chunk=CFG.chunk,
        )
        thread.join(60)
        assert not thread.is_alive()
        assert sink.text() == ref_text

    def test_idle_grace_expiry_ends_server(self, setup, reference):
        """With no EOF frame and no reconnect, the grace window runs
        out and the server drains on its own — nothing external wakes
        the pump, so expiry must be self-scheduled."""
        _, ref_text = reference
        sink = ListAlertSink()
        server = FleetServer(
            build_detector(CFG, setup),
            ServeOptions(exit_on_idle=True),
            sinks=(sink,),
        )
        server.core.idle_grace = 0.3
        thread = server.start_background()
        assert server.ready.wait(10)
        loadgen(
            setup,
            LoadgenOptions(connect=f"127.0.0.1:{server.port}", eof=False),
            chunk=CFG.chunk,
        )
        thread.join(30)
        assert not thread.is_alive()
        assert sink.text() == ref_text


class TestPortFileCleanup:
    def test_port_files_removed_on_clean_shutdown(self, setup, tmp_path):
        port_file = tmp_path / "serve.port"
        server = FleetServer(
            build_detector(CFG, setup),
            ServeOptions(exit_on_idle=True, ops="127.0.0.1:0", port_file=port_file),
        )
        thread = server.start_background()
        assert server.ready.wait(10)
        ops_file = tmp_path / "serve.port.ops"
        assert int(port_file.read_text()) == server.port
        assert int(ops_file.read_text()) == server.ops_bound_port
        loadgen(
            setup,
            LoadgenOptions(connect=f"127.0.0.1:{server.port}"),
            chunk=CFG.chunk,
        )
        thread.join(60)
        assert not thread.is_alive()
        # Stale port files would point supervisors at a dead port.
        assert not port_file.exists()
        assert not ops_file.exists()


class TestConnectBackoff:
    def test_loadgen_retries_until_server_binds(self, setup, reference, tmp_path):
        """The port-file race: loadgen starts before the server has
        bound its port (the port file does not exist yet) and must
        retry with backoff, not crash."""
        _, ref_text = reference
        port_file = tmp_path / "serve.port"
        state: dict = {}
        sink = ListAlertSink()

        def bind_later():
            time.sleep(0.4)
            server = FleetServer(
                build_detector(CFG, setup),
                ServeOptions(exit_on_idle=True, port_file=str(port_file)),
                sinks=(sink,),
            )
            state["thread"] = server.start_background()
            assert server.ready.wait(10)

        starter = threading.Thread(target=bind_later)
        starter.start()
        options = LoadgenOptions(port_file=str(port_file), connect_timeout=15.0)
        loadgen(setup, options, chunk=CFG.chunk)
        starter.join(15)
        state["thread"].join(60)
        assert not state["thread"].is_alive()
        assert sink.text() == ref_text

    def test_connect_budget_exhausted_raises(self):
        with pytest.raises(ConnectionRefusedError):
            from repro.service.net import _connect_with_backoff

            _connect_with_backoff(
                ("127.0.0.1", 1), timeout=0.3
            )


def _tick_frames(setup, tick):
    """Every node's binary frame for ``tick``, in loadgen's order."""
    lo = tick * CFG.chunk
    return b"".join(
        encode_binary(path, tick, setup.eval_data[path][:, lo : lo + CFG.chunk])
        for path in sorted(setup.eval_data)
    )


def _unreachable(*args, **kwargs):
    raise AssertionError("a received version 2 frame was re-encoded")


class TestJournalReuse:
    def test_received_frames_are_journaled_and_checkpointed_as_received(
        self, setup, fingerprint, tmp_path, monkeypatch
    ):
        """The journal record and the checkpoint queue blob of a
        received version 2 frame are its wire bytes, not a re-encoding."""
        frames, errors = FrameDecoder().feed(_tick_frames(setup, 0))
        assert errors == []
        monkeypatch.setattr(wal, "encode_binary", _unreachable)
        server = FleetServer(
            build_detector(CFG, setup),
            ServeOptions(wal=tmp_path / "wal"),
            checkpoint=_checkpoint(tmp_path / "ckpt.npz", fingerprint),
        )
        core = server.core
        core.recover()
        for frame in frames:
            core.feed(frame)
        core.write_checkpoint()
        core.wal.close()
        records = recover_wal(tmp_path / "wal").records
        payloads = [r.payload for r in records if r.rtype == REC_FRAME]
        assert payloads == [f.wire for f in frames]
        queued = [e[2] for q in core.queues.values() for e in q.entries]
        assert all(any(w is f.wire for f in frames) for w in queued)
        blob = load_checkpoint(tmp_path / "ckpt.npz").array("server_queues")
        assert blob.tobytes() == b"".join(queued)


class TestRecoveryReplay:
    def test_replayed_records_are_not_rejournaled_acked_or_checkpointed(
        self, setup, fingerprint, tmp_path, monkeypatch
    ):
        """Recovery feeds journal records through the live entry points
        and re-fires each watermark's tick through the live tick
        function, yet appends nothing, acks nothing and writes only the
        one snapshot that folds the replay in (not one per tick)."""
        sink_a = ListAlertSink()
        core = FleetServer(
            build_detector(CFG, setup),
            ServeOptions(wal=tmp_path / "wal"),
            sinks=(sink_a,),
        ).core
        core.recover()
        frames, _ = FrameDecoder().feed(
            b"".join(_tick_frames(setup, t) for t in range(3))
        )
        for frame in frames:
            core.feed(frame)
            core.poll(0.0)
        assert core.stats.ticks == 3
        next_index = core.wal.next_index
        core.wal.close()

        appends, saves = [], []
        for method in ("append_frame", "append_error", "append_watermark"):
            real = getattr(wal.WalWriter, method)
            monkeypatch.setattr(
                wal.WalWriter,
                method,
                lambda *a, _real=real, **k: appends.append(a) or _real(*a, **k),
            )
        real_save = checkpoint.save_checkpoint
        monkeypatch.setattr(
            checkpoint,
            "save_checkpoint",
            lambda *a, **k: saves.append(a) or real_save(*a, **k),
        )
        sink_b = ListAlertSink()
        core = FleetServer(
            build_detector(CFG, setup),
            ServeOptions(wal=tmp_path / "wal"),
            sinks=(sink_b,),
            checkpoint=_checkpoint(tmp_path / "ckpt.npz", fingerprint),
        ).core
        acks = []
        core.feed(Frame("", 0, None, control="acks"), _AckRecorder(acks))
        core.recover()
        assert core.stats.ticks == 3 and core.cursor == 3
        assert core.stats.wal_replayed == next_index
        assert appends == [] and core.wal.next_index == next_index
        assert len(saves) == 1
        assert acks == [-1]
        assert sink_b.lines == sink_a.lines
        core.wal.close()


class _AckRecorder:
    def __init__(self, acks):
        self.acks = acks

    def write(self, data):
        (frame,), _ = FrameDecoder().feed(data)
        self.acks.append(frame.tick)


class TestResumeAcks:
    """Acks are cumulative, so a subscribed sender must never be acked
    past a tick the server skipped: it would never resend the data."""

    def test_skipped_tick_is_resent_not_acked(
        self, setup, reference, monkeypatch
    ):
        """The first transmission of tick 1 is lost; the barrier
        deadline (much shorter than the client's ack stall) must make
        the server ask for it again, not process ticks 2+ without it."""
        _, ref_text = reference
        real_patch = net._patch_binary_path
        lost: set = set()

        def lose_tick_1_once(frame, path):
            out = real_patch(frame, path)
            (decoded,), _ = FrameDecoder().feed(out)
            if decoded.tick == 1 and path not in lost:
                lost.add(path)
                return b""
            return out

        monkeypatch.setattr(net, "_patch_binary_path", lose_tick_1_once)
        sink = ListAlertSink()
        server = FleetServer(
            build_detector(CFG, setup),
            ServeOptions(exit_on_idle=True, tick_timeout=0.3),
            sinks=(sink,),
        )
        thread = server.start_background()
        assert server.ready.wait(10)
        stats = loadgen(
            setup,
            LoadgenOptions(
                connect=f"127.0.0.1:{server.port}",
                resume=True,
                ack_timeout=30.0,
                total_timeout=60.0,
            ),
            chunk=CFG.chunk,
        )
        thread.join(60)
        assert not thread.is_alive()
        assert lost == set(setup.eval_data)
        assert sink.text() == ref_text
        assert stats["acked_ticks"] == stats["ticks"]
        assert stats["rewinds"] >= 1 and stats["reconnects"] == 0

    def test_stats_count_processed_samples_not_resends(
        self, setup, monkeypatch
    ):
        """The rewind resends ticks the server already queued; /stats
        counts the samples of processed ticks, once each."""
        real_patch = net._patch_binary_path
        lost: set = set()

        def lose_tick_1_once(frame, path):
            out = real_patch(frame, path)
            (decoded,), _ = FrameDecoder().feed(out)
            if decoded.tick == 1 and path not in lost:
                lost.add(path)
                return b""
            return out

        monkeypatch.setattr(net, "_patch_binary_path", lose_tick_1_once)
        server = FleetServer(
            build_detector(CFG, setup),
            ServeOptions(exit_on_idle=True, tick_timeout=0.3),
        )
        thread = server.start_background()
        assert server.ready.wait(10)
        n_ticks = min(m.shape[1] for m in setup.eval_data.values()) // CFG.chunk
        stats = loadgen(
            setup,
            LoadgenOptions(
                connect=f"127.0.0.1:{server.port}",
                max_ticks=n_ticks,
                resume=True,
                ack_timeout=30.0,
                total_timeout=60.0,
            ),
            chunk=CFG.chunk,
        )
        thread.join(60)
        assert not thread.is_alive()
        assert stats["rewinds"] >= 1 and stats["resent_frames"] > 0
        assert server.stats.ticks == n_ticks
        assert server.stats.frames > n_ticks * len(setup.eval_data)
        assert server.stats.samples == n_ticks * len(setup.eval_data) * CFG.chunk

    def test_reconnect_resending_processed_ticks_gets_acked(
        self, setup, reference, tmp_path
    ):
        """A client whose acks were lost reconnects and resends ticks
        the server already processed: it must be acked at once (the
        subscribe watermark), and the resends must not be journaled."""
        _, ref_text = reference
        sink = ListAlertSink()
        server = FleetServer(
            build_detector(CFG, setup),
            ServeOptions(exit_on_idle=True, wal=tmp_path / "wal"),
            sinks=(sink,),
        )
        server.core.idle_grace = 10.0
        thread = server.start_background()
        assert server.ready.wait(10)
        resent = b"".join(_tick_frames(setup, t) for t in range(3))
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(encode_acks_subscribe() + resent)
            assert _wait(lambda: server.stats.ticks == 3)
        # The acks of that connection are gone with it.
        next_index = server.core.wal.next_index
        late = server.stats.late_dropped
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.settimeout(10.0)
            sock.sendall(encode_acks_subscribe() + resent)
            decoder = FrameDecoder()
            acks: list = []
            while 2 not in acks:
                frames, _ = decoder.feed(sock.recv(1 << 16))
                acks += [f.tick for f in frames if f.control == "ack"]
            n_resent = 3 * len(setup.eval_data)
            assert _wait(lambda: server.stats.late_dropped == late + n_resent)
        assert server.core.wal.next_index == next_index
        stats = loadgen(
            setup,
            LoadgenOptions(
                connect=f"127.0.0.1:{server.port}",
                resume=True,
                total_timeout=60.0,
            ),
            chunk=CFG.chunk,
        )
        thread.join(60)
        assert not thread.is_alive()
        assert sink.text() == ref_text
        assert stats["acked_ticks"] == stats["ticks"]

    def test_recovered_hole_waits_for_a_sender(self, setup, reference, tmp_path):
        """A restart recovers queues with a hole at the cursor (tick 1
        lost, ticks 2-3 journaled).  No sender is connected yet, so the
        barrier deadline must not skip the hole before the resuming
        client is back to fill it."""
        _, ref_text = reference
        server_a = FleetServer(
            build_detector(CFG, setup),
            ServeOptions(tick_timeout=60.0, wal=tmp_path / "live"),
        )
        thread_a = server_a.start_background()
        assert server_a.ready.wait(10)
        with socket.create_connection(("127.0.0.1", server_a.port)) as sock:
            sock.sendall(
                encode_acks_subscribe()
                + b"".join(_tick_frames(setup, t) for t in (0, 2, 3))
            )
            assert _wait(lambda: server_a.stats.frames == 3 * len(setup.eval_data))
            assert server_a.stats.ticks == 1
            server_a.core.wal.sync()
            shutil.copytree(tmp_path / "live", tmp_path / "crash")
        server_a.request_stop()
        thread_a.join(30)
        assert not thread_a.is_alive()

        sink = ListAlertSink()
        server_b = FleetServer(
            build_detector(CFG, setup),
            ServeOptions(
                exit_on_idle=True,
                tick_timeout=0.1,
                wal=tmp_path / "crash",
            ),
            sinks=(sink,),
        )
        thread_b = server_b.start_background()
        assert server_b.ready.wait(30)
        time.sleep(0.5)
        assert server_b.health()["tick"] == 1
        stats = loadgen(
            setup,
            LoadgenOptions(
                connect=f"127.0.0.1:{server_b.port}",
                resume=True,
                total_timeout=60.0,
            ),
            chunk=CFG.chunk,
        )
        thread_b.join(60)
        assert not thread_b.is_alive()
        assert sink.text() == ref_text
        assert stats["acked_ticks"] == stats["ticks"]
