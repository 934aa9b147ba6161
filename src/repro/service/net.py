"""Network-facing fleet ingestion: the ``repro serve --listen`` server.

:class:`FleetServer` puts a real transport in front of the guarded
detector.  Agents connect over TCP and push ``repro-ticks/v1`` frames
(newline-JSON or binary, see :mod:`repro.service.protocol`); frames
land in **bounded per-node queues** with an explicit backpressure
policy, and a single pump coroutine assembles one burst per global tick
and drives ``GuardedDetector.process_block`` — the *same* call the
in-process replay loop makes, which is why a clean network feed
produces alert JSONL byte-identical to ``repro detect`` of the same
configuration.

Design decisions:

* **Per-node bounded queues + policy, not unbounded buffering.**  When
  a node's queue is full, ``drop-oldest`` evicts the stalest queued
  burst (freshness wins) while ``coalesce`` replaces the newest queued
  burst with the incoming one (the tail is collapsed).  Both are
  counted and visible in ``/stats``.
* **Tick barrier.**  Tick *t* is processed once every registered node
  has a frame queued (the lockstep the batched tick path is built
  for); a ``tick_timeout`` breaks the barrier for partial fleets so a
  dead agent cannot stall the world.  Frames older than the cursor are
  dropped as late, unjournaled.
* **Acks never cover a hole.**  A connection that sends ``{"op":
  "acks"}`` gets the current watermark (last processed tick) at once
  and a cumulative ack per processed tick after that.  When the
  deadline finds a hole a subscribed sender fed, the server holds the
  barrier and re-sends that sender its last ack, which tells it to go
  back to the next tick; skipping the tick would ack data that never
  arrived.
* **Malformed input degrades, never crashes.**  Protocol-level garbage
  resynchronizes the decoder; frame errors that still name a node are
  injected as poison blocks so the PR 7 guard quarantines the sender;
  unknown nodes surface as ``unknown-node`` guard events.
* **Single loop, blocking compute.**  The tick computation runs on the
  event loop (numpy releases the GIL where it matters and the
  container is single-CPU anyway); arriving data waits in kernel
  socket buffers meanwhile, which is exactly the backpressure TCP
  gives for free.  Sockets ``recv_into`` their connection's decoder
  buffer, and each binary frame is copied once, into the bytes its
  queue entry, journal record and checkpoint blob share.

The ops HTTP surface (:mod:`repro.service.ops`) runs on a second
listener of the same loop and reads the same live objects.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.service.alerts import AlertSink, event_line
from repro.service.guard import GuardedDetector
from repro.service.protocol import Frame, FrameDecoder, FrameError, encode_ack
from repro.service.replay import flush_open_alerts
from repro.service.wal import (
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
    "FleetServer",
    "ListAlertSink",
    "NodeQueue",
    "ServerCheckpoint",
    "ServerStats",
    "loadgen",
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
class BackpressureConfig:
    """Bounded-queue policy applied to every node's ingress queue."""

    queue_max: int = 1024
    policy: str = "drop-oldest"

    def __post_init__(self):
        if self.queue_max < 1:
            raise ValueError("queue_max must be >= 1")
        if self.policy not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"policy must be one of {BACKPRESSURE_POLICIES}, "
                f"got {self.policy!r}"
            )


class NodeQueue:
    """One node's bounded ingress queue of ``(tick, values, samples,
    wire)`` (``wire``: see :attr:`~repro.service.protocol.Frame.wire`).

    ``push`` never blocks and never grows past ``queue_max``; overflow
    resolves by policy — ``drop-oldest`` evicts the head (stalest
    burst), ``coalesce`` replaces the tail (newest queued burst) with
    the incoming one.  Eviction counts are kept per queue and rolled
    into the server stats.
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

    def push(self, tick: int, values, samples: int, wire=None) -> None:
        entries = self.entries
        # Duplicate of a queued tick (a resuming client retransmitting
        # after loss): the retransmission replaces the queued burst in
        # place — no growth, no eviction.
        for i in range(len(entries) - 1, -1, -1):
            queued = entries[i][0]
            if queued == tick:
                entries[i] = (tick, values, samples, wire)
                return
            if queued < tick:
                break
        if len(entries) >= self.queue_max:
            if self.policy == "coalesce":
                entries.pop()
                self.coalesced += 1
            else:
                entries.popleft()
                self.dropped += 1
        # Ordered insert keeps the deque sorted by tick so the barrier
        # can trust the head; the in-order case is a plain append.
        if not entries or tick >= entries[-1][0]:
            entries.append((tick, values, samples, wire))
            return
        for i in range(len(entries) - 1, -1, -1):
            if entries[i][0] < tick:
                entries.insert(i + 1, (tick, values, samples, wire))
                return
        entries.appendleft((tick, values, samples, wire))


class ServerStats:
    """Live counters + a bounded tick-latency ring for p50/p99."""

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

    def observe_frame(self, samples: int) -> None:
        if self._first_frame_t is None:
            self._first_frame_t = time.perf_counter()
        self.frames += 1
        self.samples += samples

    def observe_tick(self, latency_s: float, events: int, opened: int) -> None:
        self.ticks += 1
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
    """Networked checkpointing config for :class:`FleetServer`.

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


class FleetServer:
    """The asyncio ingestion front-end around one guarded detector.

    Parameters
    ----------
    detector:
        A :class:`~repro.service.guard.GuardedDetector` (a bare
        detector is wrapped — network input is untrusted by
        definition, the guard boundary is not optional here).
    host, port:
        Ingestion listener (port 0 binds an ephemeral port; the bound
        port lands in :attr:`port` and optionally ``port_file``).
    ops_host, ops_port:
        Optional HTTP ops listener (``None`` host disables; port 0 ok).
    sinks:
        :class:`~repro.service.alerts.AlertSink` consumers of the live
        event stream (the ops alert log is always added).
    backpressure:
        :class:`BackpressureConfig` for every per-node queue.
    tick_timeout:
        Seconds the tick barrier waits for a complete fleet before
        processing a partial burst (a dead agent must not stall the
        world).  A node an ack-subscribed connection has fed is never
        skipped this way: that sender is re-sent the last ack to fill
        the hole instead.  A restarted server arms the deadline only
        once a sender has connected.
    exit_on_idle:
        Stop once at least one connection was served and all
        connections have closed with every queue drained (CI/loadgen
        mode).  An ``{"op": "eof"}`` control frame has the same effect.
    idle_grace:
        Seconds a fully-idle ``exit_on_idle`` server waits before
        treating the silence as end-of-stream (an explicit EOF frame
        skips the wait).  Covers the reconnect gap a client needs
        after a connection reset — without it a chaos-proxy reset
        would shut the server down mid-stream.
    port_file:
        Write the bound ingestion port here once listening (how
        scripted callers discover an ephemeral port).  When the ops
        listener is enabled, its bound port lands in a companion
        ``<port_file>.ops`` file.  Both are deleted again on shutdown
        so supervisors can never connect to a stale port.
    wal:
        ``repro-wal/v1`` journal directory (or a prepared
        :class:`~repro.service.wal.WalWriter`).  Every accepted data
        frame is journaled *before* queueing and a watermark record is
        stamped after each processed tick; on startup the journal is
        recovered and replayed (``wal_fsync`` picks the fsync policy
        for a directory).
    checkpoint:
        :class:`ServerCheckpoint` — snapshot detector + guard + queue
        state between ticks; combined with ``wal`` a ``kill -9``
        restart reproduces the uninterrupted alert stream byte for
        byte.
    """

    #: Cap on distinct unknown-node paths buffered between ticks.
    MAX_STRAY_NODES = 256

    def __init__(
        self,
        detector,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        ops_host: str | None = None,
        ops_port: int | None = None,
        sinks: tuple = (),
        backpressure: BackpressureConfig | None = None,
        tick_timeout: float = 5.0,
        exit_on_idle: bool = False,
        idle_grace: float = 1.0,
        port_file: str | Path | None = None,
        wal: WalWriter | str | Path | None = None,
        wal_fsync: str = "tick",
        checkpoint: ServerCheckpoint | None = None,
    ):
        from repro.service.ops import AlertLog

        if not isinstance(detector, GuardedDetector):
            detector = GuardedDetector(detector)
        self.guarded = detector
        self.host = host
        self.requested_port = int(port)
        self.ops_host = ops_host
        self.requested_ops_port = int(ops_port) if ops_port is not None else 0
        self.backpressure = backpressure or BackpressureConfig()
        self.tick_timeout = float(tick_timeout)
        self.exit_on_idle = bool(exit_on_idle)
        self.idle_grace = float(idle_grace)
        self.port_file = Path(port_file) if port_file else None
        self.alert_log = AlertLog()
        self.sinks = tuple(sinks) + (self.alert_log,)
        self.stats = ServerStats()
        self._queues: dict[str, NodeQueue] = {
            p: NodeQueue(self.backpressure) for p in detector.paths
        }
        if not self._queues:
            # An empty fleet would make the barrier trivially complete
            # and spin the pump forever; refuse it up front.
            raise ValueError(
                "detector has no registered node paths to serve"
            )
        #: Stray (unknown-node) values pending guard injection at the
        #: next tick: newest frame per unknown path, capped at
        #: MAX_STRAY_NODES distinct paths so a client streaming unknown
        #: nodes during a barrier stall cannot grow server memory.
        self._pending: dict[str, object] = {}
        self._cursor = 0
        #: Registered nodes whose queue head is not the cursor tick —
        #: the barrier is complete when it is empty.  Kept per routed
        #: frame for the one node touched, rebuilt when the cursor moves.
        self._missing: set[str] = set(self._queues)
        self._conns: set = set()  # open _AgentConnection's
        self._eof_seen = False
        #: Monotonic moment ``_draining`` first observed the server
        #: idle (no open connections, no EOF); cleared whenever a
        #: connection is open.  Gates ``exit_on_idle`` on
        #: ``idle_grace``.
        self._idle_since: float | None = None
        self._stop_requested = False
        self._finalized = False
        self._wake: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        # -- durability ------------------------------------------------
        if isinstance(wal, WalWriter):
            self._wal: WalWriter | None = wal
            self._wal_dir: Path | None = None
        else:
            self._wal = None
            self._wal_dir = Path(wal) if wal else None
        self._wal_fsync = wal_fsync
        self.checkpoint = checkpoint
        #: Emitted events retained for checkpoint archives (only when
        #: checkpointing — a non-durable server keeps nothing).
        self._events: list[dict] = []
        self._n_events = 0
        self._n_alerts = 0
        self._ticks_done = 0
        self._recovering = False
        self._recovered = False
        self._timeout_streak = 0
        #: Transports of connections that opted into per-tick acks.
        self._ack_subs: set = set()
        #: Registered node -> transport of the latest ack-subscribed
        #: connection to send it a frame: a hole at such a node can
        #: still be filled, so the barrier deadline holds it (bounded
        #: by the fleet size).
        self._feeders: dict[str, object] = {}
        #: Bound ports, valid once :attr:`ready` is set.
        self.port: int | None = None
        self.ops_bound_port: int | None = None
        self.ready = threading.Event()

    # -- ingress -------------------------------------------------------
    def _frame_samples(self, values) -> int:
        if isinstance(values, np.ndarray):
            return int(values.shape[1]) if values.ndim == 2 else 0
        try:
            return len(values[0])
        except (TypeError, IndexError, KeyError):
            return 0

    def _route_frame(self, frame: Frame) -> None:
        if frame.control is not None:
            if frame.control == "eof":
                self._eof_seen = True
            return
        samples = self._frame_samples(frame.values)
        self.stats.observe_frame(samples)
        queue = self._queues.get(frame.node)
        if queue is not None and frame.tick < self._cursor:
            # Already processed (a resend after lost acks): it changes
            # no state, so it is not journaled either.
            self.stats.late_dropped += 1
            return
        if self._wal is not None and not self._recovering:
            # Journal before queueing: once routing mutates state, the
            # frame must be replayable or a crash diverges.
            self._wal.append_frame(frame.node, frame.tick, frame.values, frame.wire)
        if queue is None:
            # Unknown node: hand it to the guard at the next tick so
            # the stray shows up as an `unknown-node` guard event.
            # Bounded: one (newest) frame per unknown path, at most
            # MAX_STRAY_NODES paths — excess is counted, not kept.
            self.stats.strays += 1
            if (
                frame.node in self._pending
                or len(self._pending) < self.MAX_STRAY_NODES
            ):
                self._pending[frame.node] = frame.values
            else:
                self.stats.stray_dropped += 1
            return
        queue.push(frame.tick, frame.values, samples, frame.wire)
        self._touch(frame.node, queue)

    def _touch(self, path: str, queue: NodeQueue) -> None:
        """Re-file one node after a push changed its queue."""
        entries = queue.entries
        if entries and entries[0][0] == self._cursor:
            self._missing.discard(path)
        else:
            self._missing.add(path)

    def _route_error(self, error: FrameError) -> None:
        self.stats.garbage += 1
        if error.node and error.node in self._queues:
            # A broken frame that still names a registered node becomes
            # a poison block: the guard classifies it (shape-mismatch)
            # and the node degrades/quarantines per PR 7 policy.
            if self._wal is not None and not self._recovering:
                # Poison pushes mutate queue state: journal them so a
                # replayed log quarantines the same nodes.
                self._wal.append_error(error.reason, error.node)
            self.stats.poisoned += 1
            queue = self._queues[error.node]
            tick = (
                queue.entries[-1][0] + 1 if queue.entries else self._cursor
            )
            queue.push(tick, None, 0)
            self._touch(error.node, queue)

    # -- the pump ------------------------------------------------------
    def _draining(self) -> bool:
        """No more input is coming; finish what is queued and stop."""
        if self._stop_requested:
            return True
        if self._conns or not self.stats.connections:
            self._idle_since = None
            return False
        if self._eof_seen:
            return True
        if not self.exit_on_idle:
            return False
        # exit_on_idle without an explicit EOF: hold the door open for
        # ``idle_grace`` — a reconnecting client (e.g. after a chaos
        # proxy reset) is gone for a backoff interval, which must not
        # read as "stream over".
        now = time.monotonic()
        if self._idle_since is None:
            self._idle_since = now
        return now - self._idle_since >= self.idle_grace

    def _move_cursor(self, tick: int) -> None:
        """Set the cursor, drop queued ticks now below it and rebuild
        the barrier's missing set.  Heads go stale only here:
        ``_route_frame`` drops below-cursor frames on arrival."""
        self._cursor = tick
        missing = self._missing
        missing.clear()
        for path, queue in self._queues.items():
            entries = queue.entries
            while entries and entries[0][0] < tick:
                entries.popleft()
                self.stats.late_dropped += 1
            if not (entries and entries[0][0] == tick):
                missing.add(path)

    def _barrier_complete(self) -> bool:
        # Every node's queue must hold the tick *at the cursor* — a
        # merely non-empty queue is not enough.  When loss (a chaos
        # transport, a crashed sender) wipes one tick for every node,
        # the queues all hold tick N+1 while the cursor is at N; a
        # non-empty check would then process — and ack — an empty
        # tick N, and a resuming client would trust that ack and never
        # retransmit the lost data.
        return not self._missing

    def _any_queued(self) -> bool:
        return bool(self._pending) or any(
            q.entries for q in self._queues.values()
        )

    def _process_tick(self) -> None:
        cursor = self._cursor
        burst: dict = {}
        tick_samples = 0
        for path, queue in self._queues.items():
            entries = queue.entries
            if entries and entries[0][0] == cursor:
                _, values, samples, _ = entries.popleft()
                burst[path] = values
                tick_samples += samples
        for node, values in self._pending.items():
            burst.setdefault(node, values)
        self._pending.clear()
        t0 = time.perf_counter()
        events = self.guarded.process_block(burst, tick=cursor)
        latency = time.perf_counter() - t0
        opened = 0
        for event in events:
            opened += event.get("event") == "open"
            for sink in self.sinks:
                sink.emit(event)
        self.stats.observe_tick(latency, len(events), opened)
        self._n_events += len(events)
        self._n_alerts += opened
        if self.checkpoint is not None:
            self._events.extend(events)
        self._move_cursor(cursor + 1)
        self._ticks_done += 1
        if not self._recovering:
            if self._wal is not None:
                # The watermark is the durability edge: fsync policy
                # "tick" syncs here, making everything up to and
                # including this tick replayable after kill -9.
                self._wal.append_watermark(cursor)
            self._send_ack(self._ack_subs, cursor)
            if (
                self.checkpoint is not None
                and self._ticks_done % self.checkpoint.every == 0
            ):
                self._write_checkpoint()

    def _send_ack(self, writers, tick: int) -> None:
        """Tell subscribed ``writers`` every tick through ``tick`` is
        processed (and, per fsync policy, journaled): their resume
        point.  Acks are cumulative, so ``tick`` is never past a hole."""
        if not writers:
            return
        data = encode_ack(tick)
        dead = []
        for writer in writers:
            try:
                writer.write(data)
            except Exception:
                dead.append(writer)
        for writer in dead:
            self._ack_subs.discard(writer)

    def _hold_hole(self) -> bool:
        """On a barrier timeout, hold a hole a subscribed sender fed.

        True when some node missing at the cursor was fed by an
        ack-subscribed connection: that sender can still fill the hole,
        so it is re-sent its last ack (its cue to go back to the tick
        after it) and the tick waits.  False means only unsubscribed
        senders are missing, and the partial-fleet break goes ahead.
        """
        feeders = {self._feeders.get(path) for path in self._missing}
        feeders.discard(None)
        if not feeders:
            return False
        self._send_ack(feeders & self._ack_subs, self._cursor - 1)
        return True

    def _advance_to_next_queued(self) -> None:
        """Jump the cursor to the earliest queued tick (partial fleet)."""
        ticks = [
            q.entries[0][0] for q in self._queues.values() if q.entries
        ]
        if ticks and min(ticks) > self._cursor:
            self._move_cursor(min(ticks))

    async def _pump(self):
        loop = asyncio.get_running_loop()
        # Absolute barrier deadline: armed when data first sits waiting
        # on an incomplete barrier, disarmed only by processing a tick.
        # It must NOT restart on every wake — live nodes sending faster
        # than tick_timeout would then postpone the timeout forever and
        # one dead agent *would* stall the world.
        deadline: float | None = None
        while True:
            if self._barrier_complete():
                self._process_tick()
                self._timeout_streak = 0
                deadline = None
                # The complete-barrier path has no await of its own:
                # yield so socket readers and the ops listener run even
                # through long streaks of complete barriers.
                await asyncio.sleep(0)
                continue
            if self._draining():
                if not self._any_queued():
                    break
                self._advance_to_next_queued()
                self._process_tick()
                deadline = None
                await asyncio.sleep(0)
                continue
            # Only a sender can be dead: a restarted server holds its
            # recovered queues until the first connection arrives.
            if self.stats.connections and self._any_queued():
                now = loop.time()
                if deadline is None:
                    deadline = now + self.tick_timeout
                if now >= deadline:
                    self._timeout_streak += 1
                    deadline = None
                    if not self._hold_hole():
                        # Partial fleet: this data has waited a full
                        # tick_timeout — process what arrived so a dead
                        # agent can't stall ticks.
                        self._advance_to_next_queued()
                        self._process_tick()
                    await asyncio.sleep(0)
                    continue
                timeout = deadline - now
            else:
                deadline = None
                timeout = None
                if self._idle_since is not None:
                    # Idle-grace window armed: no connection will set
                    # ``_wake`` if none ever returns, so wake when the
                    # grace expires to re-check ``_draining``.
                    timeout = max(
                        0.01,
                        self._idle_since
                        + self.idle_grace
                        - time.monotonic(),
                    )
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=timeout)
            except asyncio.TimeoutError:
                pass

    # -- durability ----------------------------------------------------
    def _write_checkpoint(self) -> None:
        """Snapshot detector + guard + routing state between ticks.

        The archive additionally records the tick cursor, the WAL
        index up to which state is already reflected, and the
        routed-but-unprocessed queue/stray contents as encoded-frame
        blobs — so restart = restore + replay WAL from ``wal_index``,
        nothing else.  Runs synchronously on the event loop (no await
        between the last watermark and the snapshot, so no frame can
        interleave).
        """
        from repro.service.checkpoint import save_checkpoint

        cp = self.checkpoint
        wal_index = self._wal.next_index if self._wal is not None else 0
        queue_blob = bytearray()
        for path, queue in self._queues.items():
            for tick, values, _, wire in queue.entries:
                queue_blob += wire or encode_frame_payload(path, tick, values)
        pending_blob = bytearray()
        for node, values in self._pending.items():
            pending_blob += encode_frame_payload(node, 0, values)
        save_checkpoint(
            cp.path,
            self.guarded.inner,
            fingerprint=cp.fingerprint,
            chunk=cp.chunk,
            next_lo=self._cursor * cp.chunk,
            events=self._events,
            n_events=self._n_events,
            n_alerts=self._n_alerts,
            guard_state=self.guarded.state_dict(),
            server_state={
                "cursor": self._cursor,
                "wal_index": wal_index,
                "ticks_done": self._ticks_done,
            },
            extra_arrays={
                "server_queues": np.frombuffer(
                    bytes(queue_blob), dtype=np.uint8
                ),
                "server_pending": np.frombuffer(
                    bytes(pending_blob), dtype=np.uint8
                ),
            },
        )
        self.stats.checkpoints += 1
        if self._wal is not None:
            self._wal.prune_through(wal_index)

    def _restore_blob(self, blob, *, pending: bool) -> None:
        if blob is None or blob.size == 0:
            return
        decoder = FrameDecoder()
        frames, errors = decoder.feed(blob.tobytes())
        if errors or decoder.eof():
            from repro.service.checkpoint import CheckpointError

            raise CheckpointError(
                "checkpoint queue blob does not decode cleanly",
                field="server_pending" if pending else "server_queues",
            )
        for frame in frames:
            if pending:
                self._pending[frame.node] = frame.values
            else:
                self._queues[frame.node].push(
                    frame.tick,
                    frame.values,
                    self._frame_samples(frame.values),
                    frame.wire,
                )

    def _recover(self) -> None:
        """Restore checkpoint state, then replay the WAL through it.

        Runs before any listener binds, so recovery can never
        interleave with live routing.  Watermark records re-drive
        ``_process_tick`` exactly as the crashed process did (the
        journal is the live total order); the re-emitted event stream
        lands in the fresh (truncating) sinks, which is what makes the
        restarted alert JSONL byte-identical end to end.
        """
        wal_start = 0
        if self.checkpoint is not None and self.checkpoint.path.exists():
            from repro.service.checkpoint import (
                CheckpointError,
                load_checkpoint,
                restore_checkpoint,
            )

            ckpt = load_checkpoint(self.checkpoint.path)
            server = ckpt.manifest.get("server")
            if server is None:
                # Reject before restore_checkpoint touches any state:
                # a half-restored detector must never start serving.
                raise CheckpointError(
                    f"{self.checkpoint.path}: not a server checkpoint "
                    "(no server state; it was written by in-process "
                    "replay and cannot seed a network restart)",
                    field="server",
                )
            events, _, n_events, n_alerts = restore_checkpoint(
                ckpt,
                self.guarded.inner,
                fingerprint=self.checkpoint.fingerprint,
                chunk=self.checkpoint.chunk,
                guard=self.guarded,
            )
            for event in events:
                for sink in self.sinks:
                    sink.emit(event)
            self._events = list(events)
            self._n_events = n_events
            self._n_alerts = n_alerts
            self._ticks_done = int(server["ticks_done"])
            wal_start = int(server["wal_index"])
            self._restore_blob(ckpt.array("server_queues"), pending=False)
            self._restore_blob(ckpt.array("server_pending"), pending=True)
            self._move_cursor(int(server["cursor"]))
        if self._wal_dir is not None:
            self._wal, records = WalWriter.open(
                self._wal_dir,
                fsync=self._wal_fsync,
                min_index=wal_start,
            )
            replayed = 0
            self._recovering = True
            try:
                for rec in records:
                    if rec.index < wal_start:
                        continue
                    replayed += 1
                    if rec.rtype == REC_FRAME:
                        self._route_frame(decode_frame_record(rec.payload))
                    elif rec.rtype == REC_ERROR:
                        info = json.loads(rec.payload)
                        self._route_error(
                            FrameError(
                                info.get("reason", "garbage"),
                                node=info.get("node"),
                            )
                        )
                    elif rec.rtype == REC_WATERMARK:
                        tick = int(json.loads(rec.payload)["tick"])
                        if tick > self._cursor:
                            self._move_cursor(tick)
                        self._process_tick()
            finally:
                self._recovering = False
            self.stats.wal_replayed = replayed
            if replayed and self.checkpoint is not None:
                # Fold the replayed records into a fresh snapshot so
                # the next crash does not replay them again.
                self._write_checkpoint()
        self._recovered = True

    def health(self) -> dict:
        """The ``/health`` payload: liveness, readiness, degradation.

        Responding at all is liveness; *readiness* means the listeners
        are bound, recovery is done and no stop is in flight.  The
        ``status`` flips to ``degraded`` (with machine-readable
        ``reasons``) when the WAL fsync lag, the quarantined-node
        count or the barrier-timeout streak indicate the fleet signal
        is impaired even though the server is up.
        """
        reasons = []
        wal_pending = self._wal.pending if self._wal is not None else 0
        if wal_pending > WAL_LAG_DEGRADED:
            reasons.append("wal-flush-lag")
        states = self.guarded.fleet_health()["states"]
        quarantined = int(states.get("quarantined", 0))
        if quarantined:
            reasons.append("quarantined-nodes")
        if self._timeout_streak >= TIMEOUT_STREAK_DEGRADED:
            reasons.append("barrier-timeout-streak")
        ready = (
            self.ready.is_set()
            and not self._stop_requested
            and not self._finalized
        )
        return {
            "live": True,
            "ready": ready,
            "status": "degraded" if reasons else "ok",
            "reasons": reasons,
            "tick": self._cursor,
            "nodes": len(self._queues),
            "connections": len(self._conns),
            "quarantined": quarantined,
            "timeout_streak": self._timeout_streak,
            "wal": (
                None
                if self._wal is None
                else {
                    "appended": self._wal.appended,
                    "fsyncs": self._wal.fsyncs,
                    "pending": wal_pending,
                    "replayed": self.stats.wal_replayed,
                }
            ),
        }

    # -- lifecycle -----------------------------------------------------
    def _gather_backpressure(self) -> None:
        self.stats.dropped = sum(q.dropped for q in self._queues.values())
        self.stats.coalesced = sum(
            q.coalesced for q in self._queues.values()
        )
        if self._wal is not None:
            self.stats.wal_appended = self._wal.appended
            self.stats.wal_fsyncs = self._wal.fsyncs

    def _finalize(self, *, interrupted: bool) -> None:
        if self._finalized:
            return
        self._finalized = True
        self._gather_backpressure()
        if self.checkpoint is not None and self._recovered:
            # Final snapshot (pre-flush, like the replay loop's): a
            # restart re-emits the checkpointed prefix and the flush
            # events regenerate at the true end of stream.
            self._write_checkpoint()
        if interrupted:
            for event in flush_open_alerts(self.guarded):
                for sink in self.sinks:
                    sink.emit(event)
        for sink in self.sinks:
            sink.close()
        if self._wal is not None:
            self._wal.close()

    async def _main(self):
        from repro.service.ops import OpsProtocolServer

        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        server = await self._loop.create_server(
            lambda: _AgentConnection(self), self.host, self.requested_port
        )
        self.port = server.sockets[0].getsockname()[1]
        ops_server = None
        if self.ops_host is not None:
            ops = OpsProtocolServer(self)
            ops_server = await asyncio.start_server(
                ops.handle, self.ops_host, self.requested_ops_port
            )
            self.ops_bound_port = ops_server.sockets[0].getsockname()[1]
        if self.port_file is not None:
            self.port_file.parent.mkdir(parents=True, exist_ok=True)
            self.port_file.write_text(f"{self.port}\n", encoding="utf-8")
            if self.ops_bound_port is not None:
                self.port_file.with_name(
                    self.port_file.name + ".ops"
                ).write_text(f"{self.ops_bound_port}\n", encoding="utf-8")
        self.ready.set()
        try:
            await self._pump()
        finally:
            server.close()
            for conn in list(self._conns):
                conn.transport.close()
            await asyncio.sleep(0)  # run their connection_lost
            if ops_server is not None:
                ops_server.close()
            await server.wait_closed()
            if ops_server is not None:
                await ops_server.wait_closed()

    def run(self) -> None:
        """Serve until drained/stopped (blocking; Ctrl-C flushes)."""
        try:
            if not self._recovered:
                self._recover()
            asyncio.run(self._main())
        except KeyboardInterrupt:
            self._finalize(interrupted=True)
            raise
        finally:
            self.ready.set()  # never leave a waiter hanging on failure
            self._finalize(interrupted=False)
            self._cleanup_port_files()

    def _cleanup_port_files(self) -> None:
        """Remove the port files on shutdown: a supervisor or script
        must never read a dead process's ephemeral port."""
        if self.port_file is None:
            return
        for path in (
            self.port_file,
            self.port_file.with_name(self.port_file.name + ".ops"),
        ):
            try:
                path.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - permission race
                pass

    def start_background(self) -> threading.Thread:
        """Run the server in a daemon thread (tests / benchmarks)."""
        thread = threading.Thread(target=self.run, daemon=True)
        thread.start()
        return thread

    def request_stop(self) -> None:
        """Thread-safe: drain what is queued, then stop."""
        loop = self._loop
        if loop is None:
            self._stop_requested = True
            return

        def _stop():
            self._stop_requested = True
            if self._wake is not None:
                self._wake.set()

        loop.call_soon_threadsafe(_stop)


class _AgentConnection(asyncio.BufferedProtocol):
    """One agent connection of a :class:`FleetServer`: each chunk the
    socket receives into the decoder's buffer is decoded and routed."""

    def __init__(self, server: FleetServer):
        self.server = server
        self.decoder = FrameDecoder()
        self.subscribed = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server.stats.connections += 1
        self.server._conns.add(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        self.view = self.decoder.get_buffer()
        return self.view

    def buffer_updated(self, nbytes: int) -> None:
        server, transport = self.server, self.transport
        view, self.view = self.view, None
        frames, errors = self.decoder.feed(view[:nbytes])
        for frame in frames:
            if frame.control == "acks":
                # The sender wants per-tick acks (reconnecting clients
                # resume from the last acked tick): start it at the
                # current watermark.
                self.subscribed = True
                server._ack_subs.add(transport)
                server._send_ack((transport,), server._cursor - 1)
            elif self.subscribed and frame.node in server._queues:
                server._feeders[frame.node] = transport
            server._route_frame(frame)
        for error in errors:
            server._route_error(error)
        if frames or errors:
            server._wake.set()

    def connection_lost(self, exc) -> None:
        for error in self.decoder.eof():
            self.server._route_error(error)
        self.server._ack_subs.discard(self.transport)
        self.server._conns.discard(self)
        self.server._wake.set()


class _AckStall(ConnectionError):
    """The server stopped acking: reconnect and resend from the tail."""


class _Rewind(Exception):
    """The server repeated its last ack (a hole at the next tick):
    resend from there on the same connection."""


def _connect_with_backoff(address, *, timeout: float):
    """Connect to ``address`` (a ``(host, port)`` pair or a callable
    returning one — callables re-resolve per attempt, which is how a
    client follows a supervised restart onto a fresh ephemeral port),
    retrying ``ConnectionRefusedError``/transient ``OSError`` with
    capped exponential backoff for up to ``timeout`` seconds.

    This closes the port-file race: a scripted client that starts
    before the server has bound simply waits the bind out.
    """
    import socket

    deadline = time.monotonic() + timeout
    delay = 0.05
    while True:
        try:
            target = address() if callable(address) else address
            sock = socket.create_connection(tuple(target), timeout=10.0)
            sock.settimeout(None)
            return sock
        except (OSError, ValueError) as exc:
            # ValueError covers a half-written port file mid-restart.
            if time.monotonic() >= deadline:
                raise ConnectionRefusedError(
                    f"could not connect within {timeout:.0f}s: {exc}"
                ) from exc
            time.sleep(min(delay, 1.0, max(deadline - time.monotonic(), 0)))
            delay = min(delay * 2, 1.0)


def loadgen(
    setup,
    address,
    *,
    chunk: int,
    fmt: str = "binary",
    interval: float = 0.0,
    max_ticks: int | None = None,
    send_eof: bool = True,
    resume: bool = False,
    connect_timeout: float = 30.0,
    ack_timeout: float = 5.0,
    max_window: int = 64,
    total_timeout: float | None = None,
) -> dict:
    """Drive a server with the exact feed ``replay()`` would process.

    Connects a blocking socket to ``address`` (``(host, port)`` or a
    callable returning one) and streams one frame per (node, tick)
    over the held-out period of ``setup`` — tick *t* carries samples
    ``[t*chunk, (t+1)*chunk)``, nodes in sorted order, so a clean run
    reproduces the in-process replay's burst grouping (and therefore
    its alert bytes) exactly.  Connection-refused errors retry with
    capped exponential backoff (``connect_timeout`` budget).

    With ``resume=True`` the client subscribes to per-tick acks and
    survives transport faults: on a reset, a refused reconnect or an
    ack stall (``ack_timeout`` seconds without progress — the shape a
    corrupted-and-dropped frame leaves behind) it reconnects with
    backoff and go-back-N resends every tick after the last acked one.
    The first ack on each connection is the server's watermark, so
    ticks it already processed are skipped; a later repeat of the last
    ack reports a hole and rewinds the same connection to the tick
    after it.  At most ``max_window`` unacked ticks are in flight, and
    the eof control frame is only sent once every tick is acked — which
    is what lets a server behind a chaos proxy (or SIGKILLed and
    supervised back up) still converge to the clean byte-identical
    alert stream.

    Payload bytes are cached per underlying eval matrix, so replicated
    fleets (:func:`repro.service.api.replicate_setup`) encode each
    distinct burst once regardless of fleet size.

    Returns ``{"ticks", "frames", "bytes", "seconds"}`` plus — in
    resume mode — ``{"reconnects", "rewinds", "resent_frames",
    "acked_ticks"}``.
    """
    import select

    from repro.service.protocol import (
        encode_acks_subscribe,
        encode_binary,
        encode_eof,
        encode_json,
    )

    if fmt not in ("binary", "json"):
        raise ValueError(f"fmt must be 'binary' or 'json', got {fmt!r}")
    horizon = max(m.shape[1] for m in setup.eval_data.values())
    n_ticks = (horizon + chunk - 1) // chunk
    if max_ticks is not None:
        n_ticks = min(n_ticks, int(max_ticks))
    paths = sorted(setup.eval_data)
    stats = {
        "ticks": n_ticks,
        "frames": 0,
        "bytes": 0,
        "seconds": 0.0,
        "reconnects": 0,
        "rewinds": 0,
        "resent_frames": 0,
        "acked_ticks": 0,
    }
    # Replicas alias the same eval matrix: encode each distinct
    # (matrix, tick) payload once and only re-emit the cheap header.
    payload_cache: dict[tuple[int, int], bytes] = {}

    def tick_bytes(ti: int) -> tuple[bytes, int]:
        lo = ti * chunk
        out = bytearray()
        n_frames = 0
        for path in paths:
            m = setup.eval_data[path]
            if lo >= m.shape[1]:
                continue
            if fmt == "binary":
                key = (id(m), ti)
                cached = payload_cache.get(key)
                if cached is None:
                    cached = encode_binary("", ti, m[:, lo : lo + chunk])
                    payload_cache[key] = cached
                # Patch the node path into the cached frame: the
                # header is fixed-size, the path sits right after.
                out += _patch_binary_path(cached, path)
            else:
                out += encode_json(path, ti, m[:, lo : lo + chunk])
            n_frames += 1
        return bytes(out), n_frames

    start = time.perf_counter()
    overall_deadline = (
        time.monotonic() + total_timeout if total_timeout else None
    )

    def check_overall() -> None:
        if overall_deadline is not None and time.monotonic() > overall_deadline:
            raise TimeoutError(
                f"loadgen did not complete within {total_timeout:.0f}s "
                f"(acked {last_acked + 1}/{n_ticks} ticks)"
            )

    if not resume:
        sock = _connect_with_backoff(address, timeout=connect_timeout)
        try:
            for ti in range(n_ticks):
                out, n_frames = tick_bytes(ti)
                sock.sendall(out)
                stats["frames"] += n_frames
                stats["bytes"] += len(out)
                if interval > 0.0:
                    time.sleep(interval)
            if send_eof:
                sock.sendall(encode_eof())
        finally:
            sock.close()
        stats["seconds"] = time.perf_counter() - start
        return stats

    sock = None
    decoder = FrameDecoder()
    last_acked = -1
    # Whether this connection's first ack (the watermark) arrived.
    synced = False

    def teardown() -> None:
        nonlocal sock
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
            sock = None

    def ensure_conn() -> None:
        nonlocal sock, decoder, synced
        if sock is not None:
            return
        sock = _connect_with_backoff(address, timeout=connect_timeout)
        decoder = FrameDecoder()
        synced = False
        sock.sendall(encode_acks_subscribe())

    def drain_acks(block_s: float) -> None:
        """Consume whatever acks are readable (advances last_acked);
        raise ``_Rewind`` if the server repeated its last ack."""
        nonlocal last_acked, synced
        rewind = False
        wait = block_s
        while True:
            readable, _, _ = select.select([sock], [], [], wait)
            if not readable:
                break
            data = sock.recv(1 << 16)
            if not data:
                raise ConnectionResetError("server closed the ack stream")
            frames, _ = decoder.feed(data)
            for frame in frames:
                if frame.control != "ack":
                    continue
                if frame.tick > last_acked:
                    last_acked, rewind = frame.tick, False
                elif frame.tick == last_acked and synced:
                    rewind = True
                synced = True
            wait = 0.0
        if rewind:
            raise _Rewind

    def await_progress(target: int) -> None:
        """Block until ``last_acked`` reaches ``target`` or stall out."""
        stall_t0 = time.monotonic()
        floor = last_acked
        while last_acked < target:
            check_overall()
            drain_acks(0.05)
            if last_acked > floor:
                floor = last_acked
                stall_t0 = time.monotonic()
            elif time.monotonic() - stall_t0 > ack_timeout:
                raise _AckStall(
                    f"no ack progress past tick {last_acked} "
                    f"for {ack_timeout:.1f}s"
                )

    retryable = (
        ConnectionResetError,
        ConnectionAbortedError,
        ConnectionRefusedError,
        BrokenPipeError,
        _AckStall,
        _Rewind,
        OSError,
    )
    ti = 0
    while last_acked < n_ticks - 1:
        check_overall()
        try:
            ensure_conn()
            while True:
                # Never resend what the server already acked.
                ti = max(ti, last_acked + 1)
                if ti >= n_ticks:
                    break
                check_overall()
                if ti - last_acked > max_window:
                    await_progress(ti - max_window)
                out, n_frames = tick_bytes(ti)
                sock.sendall(out)
                stats["frames"] += n_frames
                stats["bytes"] += len(out)
                ti += 1
                drain_acks(0.0)
                if interval > 0.0:
                    time.sleep(interval)
            await_progress(n_ticks - 1)
        except retryable as exc:
            if isinstance(exc, _Rewind):
                stats["rewinds"] += 1
            else:
                teardown()
                stats["reconnects"] += 1
            resend_from = last_acked + 1
            stats["resent_frames"] += max(ti - resend_from, 0) * len(paths)
            ti = resend_from
    if send_eof:
        # Every tick is acked (processed and, per the server's fsync
        # policy, journaled): eof is now safe — nothing left to resend.
        try:
            ensure_conn()
            sock.sendall(encode_eof())
        except retryable:
            pass  # best effort; an idle server drains on its own
    teardown()
    stats["acked_ticks"] = last_acked + 1
    stats["seconds"] = time.perf_counter() - start
    return stats


def _patch_binary_path(frame: bytes, path: str) -> bytes:
    """Rewrite the (empty) node path of a cached binary frame.

    The v2 checksum is ``crc32(path, crc32(values))`` — values first —
    so the cached empty-path frame's crc field *is* ``crc32(values)``
    and re-stamping a node path costs one crc over the short path
    bytes, never over the payload.
    """
    import struct
    import zlib

    from repro.service.protocol import _HEADER2, MAGIC

    encoded = path.encode("utf-8")
    off = len(MAGIC) + 4
    body_len = struct.unpack_from("<I", frame, len(MAGIC))[0] + len(encoded)
    header = bytearray(frame[off : off + _HEADER2.size])
    struct.pack_into("<H", header, 1, len(encoded))
    values_crc = struct.unpack_from("<I", header, 17)[0]
    struct.pack_into("<I", header, 17, zlib.crc32(encoded, values_crc))
    return (
        MAGIC
        + struct.pack("<I", body_len)
        + bytes(header)
        + encoded
        + frame[off + _HEADER2.size :]
    )
