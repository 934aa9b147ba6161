"""The serving core: routing, tick barrier, journal, acks and checkpoints.

:class:`ServeCore` is the network server's state machine with the
network taken out.  It is synchronous and reads no clock for its
decisions: the caller hands it input and the time, and it hands back
acks (through each sender's ``write``) and when it next needs to run.
:class:`~repro.service.net.FleetServer` drives it from an asyncio loop;
:func:`repro.service.api.replay` (``repro detect``) and
``tests/test_serve_sim.py`` drive it in virtual time from memory.  It
is the one tick loop and its checkpoint the one checkpoint format, so
network and in-process serving agree by construction.

* ``feed(frame, sender)`` / ``feed_error(error)`` — decoded input.
  ``sender`` is any object with ``write(bytes)``; acks leave through
  it.  A frame is journaled before it changes any state.
* ``connect(sender)`` / ``disconnect(sender)`` — connection lifetime.
* ``poll(now)`` — fire **at most one** due tick.  A tick is due when its
  barrier is complete (every node's queue head is the cursor tick), when
  the core drains (stop, or every sender gone after an EOF frame or the
  idle grace), or when the barrier deadline has passed: then the core
  holds a hole an ack-subscribed sender fed, re-sending it its last ack,
  or breaks the barrier for a partial fleet.  A processed tick is
  journaled (its watermark record), then acked, then checkpointed.
  Returns ``now`` when it did something (poll again once waiting input
  is in), the next deadline when only time can make a tick due,
  ``math.inf`` when only input can, and ``None`` once drained.
* ``recover()`` — restore the checkpoint and replay the journal behind
  it through ``feed``/``feed_error`` and the tick function.  The journal
  is attached only after the replay, and only ``poll`` journals
  watermarks, acks and checkpoints, so no replayed record is journaled,
  acked or checkpointed again.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.service.alerts import AlertSink, event_line
from repro.service.checkpoint import (
    CheckpointError,
    EventsMark,
    load_checkpoint,
    restore_checkpoint,
)
from repro.service.guard import GuardedDetector
from repro.service.knobs import at_least, knob
from repro.service.protocol import Frame, FrameDecoder, FrameError, encode_ack
from repro.service.wal import (
    FSYNC_POLICIES,
    REC_ERROR,
    REC_FRAME,
    REC_WATERMARK,
    WalWriter,
    decode_frame_record,
    encode_frame_payload,
)

__all__ = [
    "BACKPRESSURE_POLICIES",
    "BackpressureConfig",
    "ListAlertSink",
    "NodeQueue",
    "ServeCore",
    "ServeOptions",
    "ServerCheckpoint",
    "ServerStats",
    "flush_open_alerts",
    "parse_address",
]

BACKPRESSURE_POLICIES = ("drop-oldest", "coalesce")

#: WAL records appended-but-not-fsynced beyond which ``/health``
#: reports the ``wal-flush-lag`` degraded reason.
WAL_LAG_DEGRADED = 4096

#: Consecutive barrier-timeout ticks beyond which ``/health`` reports
#: the ``barrier-timeout-streak`` degraded reason.
TIMEOUT_STREAK_DEGRADED = 3


def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (port 0 = ephemeral)."""
    host, sep, port = address.rpartition(":")
    if sep and host and port.isascii() and port.isdigit():
        if int(port) <= 65535:
            return host, int(port)
    raise ValueError(f"address must be host:port, got {address!r}")


@dataclass(frozen=True)
class ServeOptions:
    """How one ingestion server listens, queues, journals and
    checkpoints, validated once; each field is a ``repro serve`` flag
    (:mod:`repro.service.knobs`) and its default the only copy."""

    listen: str = knob(
        "127.0.0.1:0",
        "accept repro-ticks/v1 frames (newline-JSON or binary) on this TCP "
        "address (port 0 = ephemeral; see --port-file)",
        required=True,
        metavar="HOST:PORT",
    )
    ops: str | None = knob(
        None,
        "also serve the HTTP ops API here (/health /fleet /alerts "
        "/alerts/<id>/ack|suppress /stats)",
        metavar="HOST:PORT",
    )
    port_file: str | None = knob(
        None,
        "write the bound ingestion port here once listening (how scripts "
        "discover a --listen host:0 port; with --ops the bound ops port "
        "lands in PATH.ops)",
        metavar="PATH",
    )
    queue_max: int = knob(1024, "per-node ingress queue bound, in bursts")
    backpressure: str = knob(
        "drop-oldest",
        "full-queue policy: drop-oldest evicts the stalest queued burst, "
        "coalesce replaces the newest",
        choices=BACKPRESSURE_POLICIES,
    )
    tick_timeout: float = knob(
        5.0,
        "seconds the tick barrier waits for a complete fleet before "
        "processing a partial burst; a hole a resuming (ack-subscribed) "
        "sender can fill is re-requested instead",
    )
    exit_on_idle: bool = knob(
        False,
        "stop once every connection has closed and the queues drained "
        "(CI / load-test mode)",
    )
    wal: str | None = knob(
        None,
        "write-ahead repro-wal/v1 frame journal directory: every accepted "
        "frame is journaled before processing, and on restart the journal "
        "replays from the last checkpoint watermark — kill -9 mid-tick, "
        "restart, and the alert JSONL is byte-identical to an "
        "uninterrupted run",
        metavar="DIR",
    )
    wal_fsync: str = knob(
        "tick",
        "journal durability: fsync per record (always), per processed "
        "tick (tick), or leave flushing to the OS (off — survives process "
        "crashes, not machine crashes)",
        choices=FSYNC_POLICIES,
    )
    checkpoint: str | None = knob(
        None,
        "checkpoint detector state to this .npz; the snapshot also carries "
        "the server's routing state and WAL position, taken between ticks "
        "every --checkpoint-every ticks; Ctrl-C flushes open alerts and "
        "writes a final checkpoint before exiting 130",
    )
    checkpoint_every: int = knob(1, "ticks between checkpoints (needs --checkpoint)")

    def __post_init__(self):
        parse_address(self.listen)
        if self.ops:
            parse_address(self.ops)
        at_least(0, self, "tick_timeout")
        at_least(1, self, "checkpoint_every")
        if self.wal_fsync not in FSYNC_POLICIES:
            raise ValueError(f"--wal-fsync must be one of {FSYNC_POLICIES}")
        self.queue_policy  # validates --queue-max and --backpressure

    @property
    def queue_policy(self) -> "BackpressureConfig":
        return BackpressureConfig(self.queue_max, self.backpressure)


@dataclass(frozen=True)
class BackpressureConfig:
    """Bounded-queue policy applied to every node's ingress queue."""

    queue_max: int = ServeOptions.queue_max
    policy: str = ServeOptions.backpressure

    def __post_init__(self):
        if self.queue_max < 1:
            raise ValueError("queue_max must be >= 1")
        if self.policy not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"policy must be one of {BACKPRESSURE_POLICIES}, "
                f"got {self.policy!r}"
            )


class NodeQueue:
    """One node's bounded ingress queue of ``(tick, values, wire)``
    (``wire``: see :attr:`~repro.service.protocol.Frame.wire`).

    ``push`` never blocks and never grows past ``queue_max``; overflow
    resolves by policy — ``drop-oldest`` evicts the head (stalest
    burst), ``coalesce`` replaces the tail (newest queued burst) with
    the incoming one.  The entry at tick ``keep`` (the server's cursor,
    which the barrier waits on) is never the victim: ``drop-oldest``
    evicts the entry after it, and where it is the only candidate the
    incoming burst is refused.  Otherwise a resuming client's resend
    could evict the cursor tick it was asked for, every time.
    Evictions and refusals are counted per queue and rolled into the
    server stats.
    """

    __slots__ = ("entries", "queue_max", "policy", "dropped", "coalesced")

    def __init__(self, config: BackpressureConfig):
        self.entries: deque = deque()
        self.queue_max = config.queue_max
        self.policy = config.policy
        self.dropped = 0
        self.coalesced = 0

    def __len__(self) -> int:
        return len(self.entries)

    def push(self, tick: int, values, wire=None, keep: int | None = None) -> None:
        entries = self.entries
        # Duplicate of a queued tick (a resuming client retransmitting
        # after loss): the retransmission replaces the queued burst in
        # place — no growth, no eviction.
        for i in range(len(entries) - 1, -1, -1):
            queued = entries[i][0]
            if queued == tick:
                entries[i] = (tick, values, wire)
                return
            if queued < tick:
                break
        if len(entries) >= self.queue_max:
            # A refused burst counts under its policy like an eviction.
            if self.policy == "coalesce":
                self.coalesced += 1
                if entries[-1][0] == keep:
                    return
                entries.pop()
            else:
                self.dropped += 1
                if entries[0][0] != keep:
                    entries.popleft()
                elif len(entries) > 1:
                    del entries[1]
                else:
                    return
        # Ordered insert keeps the deque sorted by tick so the barrier
        # can trust the head; the in-order case is a plain append.
        if not entries or tick >= entries[-1][0]:
            entries.append((tick, values, wire))
            return
        for i in range(len(entries) - 1, -1, -1):
            if entries[i][0] < tick:
                entries.insert(i + 1, (tick, values, wire))
                return
        entries.appendleft((tick, values, wire))


def flush_open_alerts(guarded: GuardedDetector) -> list[dict]:
    """``repro-alerts/v1`` ``flush`` events for every still-open alert.

    Emitted into the sinks when serving is interrupted (Ctrl-C) so an
    operator tailing the JSONL sees which episodes were live at
    shutdown — same shape as a ``close`` event, but the episode did not
    end, plus the node ``health`` state like every guarded event.
    """
    inner = guarded.inner
    return [
        {
            "event": "flush",
            "node": path,
            "window": inner.windows_seen(path) - 1,
            "opened": alert.opened,
            "label": alert.label,
            "windows": alert.n_windows,
            "peak_confidence": alert.peak_confidence,
            "health": guarded.health(path).state,
        }
        for path, alert in sorted(inner.open_alerts().items())
    ]


def _samples(values) -> int:
    """Sample columns in a burst (0 for poison and malformed values)."""
    if isinstance(values, np.ndarray):
        return int(values.shape[1]) if values.ndim == 2 else 0
    try:
        return len(values[0])
    except (TypeError, IndexError, KeyError):
        return 0


class ServerStats:
    """Live counters + a bounded tick-latency ring for p50/p99.
    ``frames`` counts received data frames, ``samples`` processed ones."""

    LATENCY_RING = 4096

    def __init__(self):
        self.frames = 0
        self.samples = 0
        self.ticks = 0
        self.events = 0
        self.alerts_opened = 0
        self.connections = 0
        self.dropped = 0
        self.coalesced = 0
        self.late_dropped = 0
        self.garbage = 0
        self.poisoned = 0
        self.strays = 0
        self.stray_dropped = 0
        self.wal_appended = 0
        self.wal_fsyncs = 0
        self.wal_replayed = 0
        self.checkpoints = 0
        self._latencies: deque = deque(maxlen=self.LATENCY_RING)
        self._first_frame_t: float | None = None
        self._last_tick_t: float | None = None

    def observe_frame(self) -> None:
        if self._first_frame_t is None:
            self._first_frame_t = time.perf_counter()
        self.frames += 1

    def observe_tick(
        self, latency_s: float, events: int, opened: int, samples: int
    ) -> None:
        self.ticks += 1
        self.samples += samples
        self.events += events
        self.alerts_opened += opened
        self._latencies.append(latency_s)
        self._last_tick_t = time.perf_counter()

    def _percentiles(self) -> tuple[float, float]:
        if not self._latencies:
            return 0.0, 0.0
        lat = np.sort(np.asarray(self._latencies, dtype=np.float64))
        return (
            float(lat[int(0.50 * (lat.size - 1))]),
            float(lat[int(0.99 * (lat.size - 1))]),
        )

    @property
    def elapsed_s(self) -> float:
        """Wall clock from first ingested frame to last processed tick."""
        if self._first_frame_t is None or self._last_tick_t is None:
            return 0.0
        return max(self._last_tick_t - self._first_frame_t, 0.0)

    @property
    def samples_per_s(self) -> float:
        elapsed = self.elapsed_s
        return self.samples / elapsed if elapsed > 0 else 0.0

    def snapshot(self) -> dict:
        """The ``/stats`` payload."""
        p50, p99 = self._percentiles()
        return {
            "frames": self.frames,
            "samples": self.samples,
            "ticks": self.ticks,
            "events": self.events,
            "alerts_opened": self.alerts_opened,
            "connections": self.connections,
            "elapsed_s": round(self.elapsed_s, 6),
            "samples_per_s": round(self.samples_per_s, 1),
            "tick_latency_p50_ms": round(p50 * 1e3, 4),
            "tick_latency_p99_ms": round(p99 * 1e3, 4),
            "backpressure": {
                "dropped": self.dropped,
                "coalesced": self.coalesced,
                "late_dropped": self.late_dropped,
            },
            "protocol": {
                "garbage": self.garbage,
                "poisoned": self.poisoned,
                "strays": self.strays,
                "stray_dropped": self.stray_dropped,
            },
            "wal_appended": self.wal_appended,
            "wal_fsyncs": self.wal_fsyncs,
            "wal_replayed": self.wal_replayed,
            "checkpoints": self.checkpoints,
        }


class ListAlertSink(AlertSink):
    """Collect canonical event lines in memory (tests + equivalence)."""

    def __init__(self):
        self.lines: list[str] = []

    def emit(self, event: dict) -> None:
        self.lines.append(event_line(event))

    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)


@dataclass(frozen=True)
class ServerCheckpoint:
    """Checkpointing config for :class:`ServeCore`.

    ``fingerprint`` is the trained fleet's lineage hash
    (:func:`repro.service.checkpoint.fleet_fingerprint`) and ``chunk``
    the serving burst size — both are pinned into the archive so a
    restart can never silently resume against a different fleet or
    tick geometry.  Checkpoints are written between ticks (never
    mid-burst), every ``every`` processed ticks and once more at
    shutdown.
    """

    path: Path
    every: int = 1
    fingerprint: str = ""
    chunk: int = 0

    def __post_init__(self):
        object.__setattr__(self, "path", Path(self.path))
        if self.every < 1:
            raise ValueError("checkpoint every must be >= 1")


class ServeCore:
    """Routing, tick barrier, journal, acks and checkpoints of one
    guarded detector (see the module docstring for the contract).

    Parameters
    ----------
    detector:
        A :class:`~repro.service.guard.GuardedDetector` (a bare
        detector is wrapped — network input is untrusted by
        definition, the guard boundary is not optional here).
    sinks:
        :class:`~repro.service.alerts.AlertSink` consumers of the event
        stream.
    backpressure:
        :class:`BackpressureConfig` for every per-node queue.
    tick_timeout:
        Seconds the tick barrier waits for a complete fleet before
        processing a partial burst (a dead agent must not stall the
        world).  A node an ack-subscribed sender has fed is never
        skipped this way: that sender is re-sent the last ack to fill
        the hole instead.  A restarted core arms the deadline only once
        a sender has connected.
    exit_on_idle:
        Drain once at least one sender was served and all have
        disconnected (CI/loadgen mode).  An ``{"op": "eof"}`` control
        frame has the same effect.
    idle_grace:
        Seconds an ``exit_on_idle`` core with no sender waits before
        treating the silence as end-of-stream (an EOF frame skips the
        wait): the reconnect gap a client needs after a connection reset
        must not end the stream.
    wal:
        ``repro-wal/v1`` journal directory, recovered and replayed by
        :meth:`recover` (``wal_fsync`` picks its fsync policy), or a
        prepared :class:`~repro.service.wal.WalWriter`.  Every accepted
        data frame is journaled before queueing and a watermark record
        is stamped after each processed tick.
    checkpoint:
        :class:`ServerCheckpoint` — snapshot detector, guard and queue
        state between ticks; with ``wal``, a ``kill -9`` restart
        reproduces the uninterrupted alert stream byte for byte.
    """

    #: Cap on distinct unknown-node paths buffered between ticks.
    MAX_STRAY_NODES = 256

    def __init__(
        self,
        detector,
        *,
        sinks: tuple = (),
        backpressure: BackpressureConfig | None = None,
        tick_timeout: float = ServeOptions.tick_timeout,
        exit_on_idle: bool = False,
        idle_grace: float = 1.0,
        wal: WalWriter | str | Path | None = None,
        wal_fsync: str = ServeOptions.wal_fsync,
        checkpoint: ServerCheckpoint | None = None,
    ):
        if not isinstance(detector, GuardedDetector):
            detector = GuardedDetector(detector)
        self.guarded = detector
        self.sinks = tuple(sinks)
        self.tick_timeout = float(tick_timeout)
        self.exit_on_idle = bool(exit_on_idle)
        self.idle_grace = float(idle_grace)
        self.checkpoint = checkpoint
        self.stats = ServerStats()
        backpressure = backpressure or BackpressureConfig()
        self.queues: dict[str, NodeQueue] = {
            p: NodeQueue(backpressure) for p in detector.paths
        }
        if not self.queues:
            # An empty fleet would make the barrier trivially complete
            # and spin the caller forever; refuse it up front.
            raise ValueError(
                "detector has no registered node paths to serve"
            )
        #: Unknown-node values pending guard injection at the next
        #: tick: newest frame per path, at most MAX_STRAY_NODES paths.
        self.strays: dict[str, object] = {}
        self.cursor = 0
        #: Registered nodes whose queue head is not the cursor tick —
        #: the barrier is complete when it is empty.  Kept per routed
        #: frame for the one node touched, rebuilt when the cursor moves.
        self.missing: set[str] = set(self.queues)
        #: Connected senders, and those that subscribed to acks.
        self.senders: set = set()
        self.ack_subs: set = set()
        #: Registered node -> the latest ack-subscribed sender to feed
        #: it: a hole at such a node can still be filled, so the
        #: barrier deadline holds it (bounded by the fleet size).
        self.feeders: dict[str, object] = {}
        self.timeout_streak = 0
        self.wal = wal if isinstance(wal, WalWriter) else None
        self._wal_dir = Path(wal) if wal and self.wal is None else None
        self._wal_fsync = wal_fsync
        #: Events emitted since the last checkpoint, bound for its event
        #: journal (only when checkpointing — a non-durable core keeps
        #: nothing), and the journal extent that checkpoint committed.
        self._events: list[dict] = []
        self._events_mark = EventsMark()
        self._n_events = 0
        self._n_alerts = 0
        self._ticks_done = 0
        self._eof_seen = False
        self._stopping = False
        self._closed = False
        #: Barrier deadline, armed when data first waits on an
        #: incomplete barrier and disarmed only by a fired or held tick:
        #: restarting it per input would let live nodes sending faster
        #: than tick_timeout postpone it forever.
        self._deadline = math.inf
        #: Idle-grace deadline, armed when the last sender is gone.
        self._idle_deadline = math.inf

    # -- input ---------------------------------------------------------
    def connect(self, sender) -> None:
        self.stats.connections += 1
        self.senders.add(sender)
        self._idle_deadline = math.inf

    def disconnect(self, sender) -> None:
        self.senders.discard(sender)
        self.ack_subs.discard(sender)

    def stop(self) -> None:
        """Drain what is queued, then let :meth:`poll` return None."""
        self._stopping = True

    def feed(self, frame: Frame, sender=None) -> None:
        """Route one decoded frame from ``sender`` (None: the journal)."""
        if frame.control is not None:
            if frame.control == "acks":
                # Resuming clients restart from the last acked tick:
                # start them at the current watermark.
                self.ack_subs.add(sender)
                self._send_ack((sender,), self.cursor - 1)
            elif frame.control == "eof":
                self._eof_seen = True
            return
        self.stats.observe_frame()
        queue = self.queues.get(frame.node)
        if queue is not None:
            if sender in self.ack_subs:
                self.feeders[frame.node] = sender
            if frame.tick < self.cursor:
                # Already processed (a resend after lost acks): it
                # changes no state, so it is not journaled either.
                self.stats.late_dropped += 1
                return
        if self.wal is not None:
            # Journal before queueing: once routing mutates state, the
            # frame must be replayable or a crash diverges.
            self.wal.append_frame(frame.node, frame.tick, frame.values, frame.wire)
        if queue is None:
            # Unknown node: hand it to the guard at the next tick so
            # the stray shows up as an `unknown-node` guard event.
            # Bounded: one (newest) frame per unknown path, at most
            # MAX_STRAY_NODES paths — excess is counted, not kept.
            self.stats.strays += 1
            if (
                frame.node in self.strays
                or len(self.strays) < self.MAX_STRAY_NODES
            ):
                self.strays[frame.node] = frame.values
            else:
                self.stats.stray_dropped += 1
            return
        queue.push(frame.tick, frame.values, frame.wire, keep=self.cursor)
        self._touch(frame.node, queue)

    def feed_error(self, error: FrameError) -> None:
        """Count a decode error; one naming a registered node poisons it:
        the guard classifies the block (shape-mismatch) and the node
        degrades or quarantines per its policy."""
        self.stats.garbage += 1
        queue = self.queues.get(error.node)
        if queue is None:
            return
        if self.wal is not None:
            # Poison pushes mutate queue state: journal them so a
            # replayed log quarantines the same nodes.
            self.wal.append_error(error.reason, error.node)
        self.stats.poisoned += 1
        tick = queue.entries[-1][0] + 1 if queue.entries else self.cursor
        queue.push(tick, None, keep=self.cursor)
        self._touch(error.node, queue)

    def _touch(self, path: str, queue: NodeQueue) -> None:
        """Re-file one node after a push changed its queue."""
        entries = queue.entries
        if entries and entries[0][0] == self.cursor:
            self.missing.discard(path)
        else:
            self.missing.add(path)

    # -- ticks ---------------------------------------------------------
    def poll(self, now: float) -> float | None:
        """Fire at most one due tick (see the module docstring)."""
        if self.missing:
            queued = bool(self.strays) or any(
                q.entries for q in self.queues.values()
            )
            if self._draining(now):
                if not queued:
                    return None
            elif self.stats.connections and queued:
                # Only a sender can be dead: a restarted core holds its
                # recovered queues until the first sender connects.
                if self._deadline == math.inf:
                    self._deadline = now + self.tick_timeout
                if now < self._deadline:
                    return min(self._deadline, self._idle_deadline)
                self.timeout_streak += 1
                if self._hold_hole():
                    self._deadline = math.inf
                    return now
            else:
                self._deadline = math.inf
                return self._idle_deadline
            # Partial fleet: jump to the earliest queued tick.
            heads = [q.entries[0][0] for q in self.queues.values() if q.entries]
            if heads and min(heads) > self.cursor:
                self._move_cursor(min(heads))
        else:
            self.timeout_streak = 0
        self._deadline = math.inf
        tick = self._process_tick()
        if self.wal is not None:
            # The watermark is the durability edge: fsync policy "tick"
            # syncs here, making everything up to and including this
            # tick replayable after kill -9 — only then is it acked.
            self.wal.append_watermark(tick)
        self._send_ack(self.ack_subs, tick)
        cp = self.checkpoint
        if cp is not None and self._ticks_done % cp.every == 0:
            self.write_checkpoint()
        return now

    def _draining(self, now: float) -> bool:
        """No more input is coming; finish what is queued and stop."""
        if self._stopping:
            return True
        if self.senders or not self.stats.connections:
            return False
        if self._eof_seen:
            return True
        if not self.exit_on_idle:
            return False
        if self._idle_deadline == math.inf:
            self._idle_deadline = now + self.idle_grace
        return now >= self._idle_deadline

    def _hold_hole(self) -> bool:
        """On a barrier timeout, hold a hole a subscribed sender fed.

        True when some node missing at the cursor was fed by an
        ack-subscribed sender: it can still fill the hole, so it is
        re-sent its last ack (its cue to go back to the tick after it)
        and the tick waits.  False means only unsubscribed senders are
        missing, and the partial-fleet break goes ahead.
        """
        feeders = {self.feeders.get(path) for path in self.missing}
        feeders.discard(None)
        if not feeders:
            return False
        self._send_ack(feeders & self.ack_subs, self.cursor - 1)
        return True

    def _move_cursor(self, tick: int) -> None:
        """Set the cursor, drop queued ticks now below it and rebuild
        the barrier's missing set.  Heads go stale only here: ``feed``
        drops below-cursor frames on arrival."""
        self.cursor = tick
        missing = self.missing
        missing.clear()
        for path, queue in self.queues.items():
            entries = queue.entries
            while entries and entries[0][0] < tick:
                entries.popleft()
                self.stats.late_dropped += 1
            if not (entries and entries[0][0] == tick):
                missing.add(path)

    def _process_tick(self) -> int:
        """Run the cursor tick through the detector and advance the
        cursor; the one tick function of live serving and replay."""
        cursor = self.cursor
        burst: dict = {}
        samples = 0
        for path, queue in self.queues.items():
            entries = queue.entries
            if entries and entries[0][0] == cursor:
                values = entries.popleft()[1]
                burst[path] = values
                samples += _samples(values)
        for node, values in self.strays.items():
            burst.setdefault(node, values)
        self.strays.clear()
        t0 = time.perf_counter()
        events = self.guarded.process_block(burst, tick=cursor)
        latency = time.perf_counter() - t0
        opened = 0
        for event in events:
            opened += event.get("event") == "open"
            for sink in self.sinks:
                sink.emit(event)
        self.stats.observe_tick(latency, len(events), opened, samples)
        self._n_events += len(events)
        self._n_alerts += opened
        if self.checkpoint is not None:
            self._events.extend(events)
        self._move_cursor(cursor + 1)
        self._ticks_done += 1
        return cursor

    def _send_ack(self, senders, tick: int) -> None:
        """Tell ``senders`` every tick through ``tick`` is processed
        (and, per fsync policy, journaled): their resume point.  Acks
        are cumulative, so ``tick`` is never past a hole."""
        if not senders:
            return
        data = encode_ack(tick)
        dead = []
        for sender in senders:
            try:
                sender.write(data)
            except Exception:
                dead.append(sender)
        for sender in dead:
            self.ack_subs.discard(sender)

    # -- durability ----------------------------------------------------
    def write_checkpoint(self) -> None:
        """Snapshot detector + guard + routing state between ticks.

        The archive additionally records the tick cursor, the WAL index
        up to which state is already reflected, and the routed-but-
        unprocessed queue/stray contents as encoded-frame blobs — so
        restart = restore + replay WAL from ``wal_index``, nothing else.
        """
        from repro.service.checkpoint import save_checkpoint

        cp = self.checkpoint
        wal_index = self.wal.next_index if self.wal is not None else 0
        queue_blob = bytearray()
        for path, queue in self.queues.items():
            for tick, values, wire in queue.entries:
                queue_blob += wire or encode_frame_payload(path, tick, values)
        stray_blob = bytearray()
        for node, values in self.strays.items():
            stray_blob += encode_frame_payload(node, 0, values)
        self._events_mark = save_checkpoint(
            cp.path,
            self.guarded.inner,
            fingerprint=cp.fingerprint,
            chunk=cp.chunk,
            next_lo=self.cursor * cp.chunk,
            events=self._events,
            events_mark=self._events_mark,
            n_events=self._n_events,
            n_alerts=self._n_alerts,
            guard_state=self.guarded.state_dict(),
            server_state={
                "cursor": self.cursor,
                "wal_index": wal_index,
                "ticks_done": self._ticks_done,
            },
            extra_arrays={
                "server_queues": np.frombuffer(bytes(queue_blob), dtype=np.uint8),
                "server_pending": np.frombuffer(bytes(stray_blob), dtype=np.uint8),
            },
        )
        self._events.clear()
        self.stats.checkpoints += 1
        if self.wal is not None:
            self.wal.prune_through(wal_index)

    def _restore_blob(self, blob, *, strays: bool) -> None:
        if blob is None or blob.size == 0:
            return
        decoder = FrameDecoder()
        frames, errors = decoder.feed(blob.tobytes())
        if errors or decoder.eof():
            raise CheckpointError(
                "checkpoint queue blob does not decode cleanly",
                field="server_pending" if strays else "server_queues",
            )
        for frame in frames:
            if strays:
                self.strays[frame.node] = frame.values
            else:
                self.queues[frame.node].push(frame.tick, frame.values, frame.wire)

    def recover(self) -> None:
        """Restore checkpoint state, then replay the WAL through it.

        Call before any sender connects.  Watermark records re-fire
        their ticks exactly as the crashed process did (the journal is
        the live total order); the re-emitted event stream lands in the
        fresh (truncating) sinks, which is what makes the restarted
        alert JSONL byte-identical end to end.
        """
        wal_start = 0
        cp = self.checkpoint
        if cp is not None and cp.path.exists():
            ckpt = load_checkpoint(cp.path)
            server = ckpt.manifest.get("server")
            if server is None:
                # Reject before restore_checkpoint touches any state:
                # a half-restored detector must never start serving.
                raise CheckpointError(
                    f"{cp.path}: not a server checkpoint (no server "
                    "state: tick cursor, journal index and queues)",
                    field="server",
                )
            events, n_events, n_alerts, self._events_mark = restore_checkpoint(
                ckpt,
                self.guarded.inner,
                fingerprint=cp.fingerprint,
                chunk=cp.chunk,
                guard=self.guarded,
            )
            for event in events:
                for sink in self.sinks:
                    sink.emit(event)
            self._n_events = n_events
            self._n_alerts = n_alerts
            self._ticks_done = int(server["ticks_done"])
            wal_start = int(server["wal_index"])
            self._restore_blob(ckpt.array("server_queues"), strays=False)
            self._restore_blob(ckpt.array("server_pending"), strays=True)
            self._move_cursor(int(server["cursor"]))
        if self._wal_dir is None:
            return
        wal, records = WalWriter.open(
            self._wal_dir, fsync=self._wal_fsync, min_index=wal_start
        )
        replayed = 0
        for rec in records:
            if rec.index < wal_start:
                continue
            replayed += 1
            if rec.rtype == REC_FRAME:
                self.feed(decode_frame_record(rec.payload))
            elif rec.rtype == REC_ERROR:
                info = json.loads(rec.payload)
                self.feed_error(
                    FrameError(info.get("reason", "garbage"), node=info.get("node"))
                )
            elif rec.rtype == REC_WATERMARK:
                tick = int(json.loads(rec.payload)["tick"])
                if tick > self.cursor:
                    self._move_cursor(tick)
                self._process_tick()
        self.wal = wal
        self.stats.wal_replayed = replayed
        if replayed and cp is not None:
            # Fold the replayed records into a fresh snapshot so the
            # next crash does not replay them again.
            self.write_checkpoint()

    def close(self, *, checkpoint: bool = True, interrupted: bool = False) -> None:
        """Final checkpoint (pre-flush: a restart re-emits the
        checkpointed prefix and the flush events regenerate at the true
        end of stream), flush still-open alerts when ``interrupted``,
        then close sinks and journal.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.stats_snapshot()  # rolls queue and journal counters in
        if checkpoint and self.checkpoint is not None:
            self.write_checkpoint()
        if interrupted:
            for event in flush_open_alerts(self.guarded):
                for sink in self.sinks:
                    sink.emit(event)
        for sink in self.sinks:
            sink.close()
        if self.wal is not None:
            self.wal.close()

    # -- observability -------------------------------------------------
    def stats_snapshot(self) -> dict:
        """The ``/stats`` payload, with queue and journal counters."""
        stats = self.stats
        stats.dropped = sum(q.dropped for q in self.queues.values())
        stats.coalesced = sum(q.coalesced for q in self.queues.values())
        if self.wal is not None:
            stats.wal_appended = self.wal.appended
            stats.wal_fsyncs = self.wal.fsyncs
        return stats.snapshot()

    def health(self, ready: bool) -> dict:
        """The ``/health`` payload: liveness, readiness, degradation.

        Responding at all is liveness; *readiness* is ``ready`` (the
        caller's listeners are bound and recovery is done) with no stop
        in flight.  The ``status`` flips to ``degraded`` (with
        machine-readable ``reasons``) when the WAL fsync lag, the
        quarantined-node count or the barrier-timeout streak indicate
        the fleet signal is impaired even though the server is up.
        """
        reasons = []
        wal = self.wal
        wal_pending = wal.pending if wal is not None else 0
        if wal_pending > WAL_LAG_DEGRADED:
            reasons.append("wal-flush-lag")
        states = self.guarded.fleet_health()["states"]
        quarantined = int(states.get("quarantined", 0))
        if quarantined:
            reasons.append("quarantined-nodes")
        if self.timeout_streak >= TIMEOUT_STREAK_DEGRADED:
            reasons.append("barrier-timeout-streak")
        return {
            "live": True,
            "ready": ready and not self._stopping and not self._closed,
            "status": "degraded" if reasons else "ok",
            "reasons": reasons,
            "tick": self.cursor,
            "nodes": len(self.queues),
            "connections": len(self.senders),
            "quarantined": quarantined,
            "timeout_streak": self.timeout_streak,
            "wal": (
                None
                if wal is None
                else {
                    "appended": wal.appended,
                    "fsyncs": wal.fsyncs,
                    "pending": wal_pending,
                    "replayed": self.stats.wal_replayed,
                }
            ),
        }
