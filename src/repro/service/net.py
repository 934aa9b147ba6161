"""Network-facing fleet ingestion: the ``repro serve --listen`` server.

:class:`FleetServer` puts a real transport in front of the guarded
detector.  Agents connect over TCP and push ``repro-ticks/v1`` frames
(newline-JSON or binary, see :mod:`repro.service.protocol`).  Every
decision — queues, tick barrier, journal, acks, checkpoints, health —
is made by a :class:`~repro.service.servecore.ServeCore`, the *same*
core ``repro detect`` drives from memory: a clean network feed produces
alert JSONL byte-identical to ``repro detect`` of the same
configuration.

This module is the core's asyncio adapter.  Each connection decodes
what its socket receives (``recv_into`` its decoder's buffer; a binary
frame is copied once, into the bytes its queue entry, journal record
and checkpoint blob share) and hands frames, errors, connects and
disconnects to the core; its transport is the core's ack sender.  The
pump polls the core, yields to the loop after each fired tick, and
otherwise sleeps until input arrives or the core's next deadline; the
loop clock is the core's only clock.  Ticks compute on the loop
(single CPU): arriving data waits in kernel socket buffers meanwhile,
which is the backpressure TCP gives for free.  The ops HTTP surface
(:mod:`repro.service.ops`) runs on a second listener of the same loop.

Around the server: :func:`supervise`, the crash-restart loop of
``repro serve --supervise`` (:class:`SuperviseOptions`), and
:func:`loadgen`, the deterministic client of ``repro loadgen``
(:class:`LoadgenOptions`).
"""

from __future__ import annotations

import asyncio
import math
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.service.knobs import at_least, knob, takes_value
from repro.service.protocol import FrameDecoder
from repro.service.servecore import (
    ListAlertSink,
    ServeCore,
    ServeOptions,
    parse_address,
)

__all__ = [
    "FleetServer",
    "ListAlertSink",
    "LoadgenOptions",
    "SuperviseOptions",
    "address_of",
    "loadgen",
    "parse_address",
    "supervise",
]

#: Unacked ticks a resuming ``loadgen`` keeps in flight.
MAX_WINDOW = 64

FRAME_FORMATS = ("binary", "json")


def address_of(flags: str, address: str | None, port_file: str | None):
    """The ``(address, label)`` that exactly one of ``flags`` (``--X``
    HOST:PORT / ``--X-port-file`` PATH) names.  Raises ``ValueError``
    for neither, both, or a malformed address.

    A port file yields a callable that re-reads it on every connect
    attempt: a supervised server restart lands on a fresh ephemeral
    port, and the next reconnect follows it there.  A missing or
    still-empty file raises (``OSError``/``ValueError``), which the
    connect backoff treats as retryable.
    """
    if bool(address) == bool(port_file):
        raise ValueError(f"exactly one of {flags} is required")
    if address:
        return parse_address(address), address
    path = Path(port_file)

    def resolve() -> tuple[str, int]:
        return ("127.0.0.1", int(path.read_text(encoding="utf-8").strip()))

    return resolve, f"port-file {port_file}"


class FleetServer:
    """The asyncio ingestion front-end around one :class:`ServeCore`.

    Parameters
    ----------
    detector:
        The detector to serve (wrapped in a guard if bare).
    options:
        :class:`~repro.service.servecore.ServeOptions`: the ingestion
        and optional ops listeners (port 0 binds an ephemeral port; the
        bound ports land in :attr:`port`/:attr:`ops_bound_port`, and in
        ``port_file`` and ``<port_file>.ops``, deleted again on shutdown
        so supervisors can never connect to a stale port), and the
        core's queue, barrier, idle and journal settings.
    sinks:
        :class:`~repro.service.alerts.AlertSink` consumers of the live
        event stream (the ops alert log is always added).
    checkpoint:
        The core's :class:`~repro.service.servecore.ServerCheckpoint`
        (:func:`repro.service.api.serve` builds it from
        ``options.checkpoint``).
    """

    def __init__(
        self,
        detector,
        options: ServeOptions | None = None,
        *,
        sinks: tuple = (),
        checkpoint=None,
    ):
        from repro.service.ops import AlertLog

        options = options or ServeOptions()
        self.alert_log = AlertLog()
        self.core = ServeCore(
            detector,
            sinks=tuple(sinks) + (self.alert_log,),
            backpressure=options.queue_policy,
            tick_timeout=options.tick_timeout,
            exit_on_idle=options.exit_on_idle,
            wal=options.wal,
            wal_fsync=options.wal_fsync,
            checkpoint=checkpoint,
        )
        self.guarded = self.core.guarded
        self.stats = self.core.stats
        self.options = options
        self.port_file = Path(options.port_file) if options.port_file else None
        self._wake: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Bound ports, valid once :attr:`ready` is set.
        self.port: int | None = None
        self.ops_bound_port: int | None = None
        self.ready = threading.Event()

    def health(self) -> dict:
        """The ``/health`` payload (:meth:`ServeCore.health`)."""
        return self.core.health(self.ready.is_set())

    async def _pump(self):
        loop, core = asyncio.get_running_loop(), self.core
        while (due := core.poll(loop.time())) is not None:
            wait = due - loop.time()
            if wait <= 0:
                # Something fired: let sockets and the ops listener run
                # before the next poll, even through long tick streaks.
                await asyncio.sleep(0)
                continue
            self._wake.clear()
            try:
                await asyncio.wait_for(
                    self._wake.wait(), None if wait == math.inf else wait
                )
            except asyncio.TimeoutError:
                pass

    async def _main(self):
        from repro.service.ops import OpsProtocolServer

        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        server = await self._loop.create_server(
            lambda: _AgentConnection(self), *parse_address(self.options.listen)
        )
        self.port = server.sockets[0].getsockname()[1]
        ops_server = None
        if self.options.ops:
            ops = OpsProtocolServer(self)
            ops_server = await asyncio.start_server(
                ops.handle, *parse_address(self.options.ops)
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
            for transport in list(self.core.senders):
                transport.close()
            await asyncio.sleep(0)  # run their connection_lost
            if ops_server is not None:
                ops_server.close()
            await server.wait_closed()
            if ops_server is not None:
                await ops_server.wait_closed()

    def run(self) -> None:
        """Recover, then serve until drained/stopped (blocking; Ctrl-C
        flushes).  A failed recovery writes no final checkpoint: a
        half-restored state must not replace the archive it came from."""
        recovered = False
        try:
            self.core.recover()
            recovered = True
            asyncio.run(self._main())
        except KeyboardInterrupt:
            self.core.close(checkpoint=recovered, interrupted=True)
            raise
        finally:
            self.ready.set()  # never leave a waiter hanging on failure
            self.core.close(checkpoint=recovered)
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
            self.core.stop()
            return

        def _stop():
            self.core.stop()
            if self._wake is not None:
                self._wake.set()

        loop.call_soon_threadsafe(_stop)


class _AgentConnection(asyncio.BufferedProtocol):
    """One agent connection of a :class:`FleetServer`: each chunk the
    socket receives into the decoder's buffer is decoded and fed to the
    core, with the transport as the frames' sender."""

    def __init__(self, server: FleetServer):
        self.server = server
        self.decoder = FrameDecoder()

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server.core.connect(transport)

    def get_buffer(self, sizehint: int) -> memoryview:
        self.view = self.decoder.get_buffer()
        return self.view

    def buffer_updated(self, nbytes: int) -> None:
        core, transport = self.server.core, self.transport
        view, self.view = self.view, None
        frames, errors = self.decoder.feed(view[:nbytes])
        for frame in frames:
            core.feed(frame, transport)
        for error in errors:
            core.feed_error(error)
        if frames or errors:
            self.server._wake.set()

    def connection_lost(self, exc) -> None:
        core = self.server.core
        for error in self.decoder.eof():
            core.feed_error(error)
        core.disconnect(self.transport)
        self.server._wake.set()


@dataclass(frozen=True)
class SuperviseOptions:
    """The ``repro serve --supervise`` crash-restart loop, validated
    once; each field is a ``repro serve`` flag the supervisor keeps to
    itself (:func:`child_argv`)."""

    supervise: bool = knob(
        False,
        "run serving in a child process and restart it on crash with "
        "exponential backoff; with --wal/--checkpoint each respawn recovers "
        "to the pre-crash state (clean exit and Ctrl-C pass through)",
    )
    max_restarts: int = knob(
        5,
        "crash-loop breaker: give up after this many consecutive child "
        "exits faster than --min-uptime",
    )
    restart_backoff: float = knob(
        0.5,
        "base seconds between restarts, doubled per consecutive quick "
        "crash, capped at 30",
    )
    min_uptime: float = knob(
        5.0, "seconds a child must stay up to reset the crash-loop counter"
    )

    def __post_init__(self):
        at_least(0, self, "max_restarts", "restart_backoff", "min_uptime")


def child_argv(argv: list[str]) -> list[str]:
    """``argv`` minus the supervisor's own flags (both ``--flag value``
    and ``--flag=value`` spellings)."""
    flags = takes_value(SuperviseOptions)
    out: list[str] = []
    skip = False
    for token in argv:
        if skip:
            skip = False
            continue
        flag = token.split("=", 1)[0]
        if flag in flags:
            skip = flags[flag] and "=" not in token
            continue
        out.append(token)
    return out


def supervise(options: SuperviseOptions, argv: list[str]) -> int:
    """Crash-restart loop around a child ``repro <argv>`` process.

    The child is this exact invocation minus the supervisor flags, so
    a respawn re-binds the same listeners, re-reads the same WAL and
    checkpoint, and recovers to the pre-crash state.  Clean exits and
    Ctrl-C pass through (0 / 130); flag errors (2) are fatal —
    restarting cannot fix them.  Anything else (including ``kill -9``)
    is a crash: respawn with exponential backoff, and trip the
    crash-loop breaker after ``max_restarts`` consecutive exits
    faster than ``min_uptime``.
    """
    import signal
    import subprocess

    def status(message: str) -> None:
        print(f"[supervise] {message}", file=sys.stderr)

    cmd = [sys.executable, "-m", "repro", *child_argv(argv)]
    quick_crashes = 0
    restarts = 0
    while True:
        started = time.monotonic()
        proc = subprocess.Popen(cmd)
        status(f"child pid {proc.pid} (restarts: {restarts})")
        try:
            rc = proc.wait()
        except KeyboardInterrupt:
            # Pass the interrupt down and give the child its graceful
            # drain (finish the tick, flush alerts, final checkpoint).
            try:
                proc.send_signal(signal.SIGINT)
                proc.wait(timeout=30)
            except (subprocess.TimeoutExpired, OSError):
                proc.kill()
                proc.wait()
            return 130
        uptime = time.monotonic() - started
        if rc == 0:
            return 0
        if rc in (130, -signal.SIGINT):
            return 130
        if rc == 2:
            status("child rejected its flags; not restarting")
            return 2
        if uptime >= options.min_uptime:
            quick_crashes = 0
        else:
            quick_crashes += 1
            if quick_crashes > options.max_restarts:
                status(
                    f"crash loop: {quick_crashes} consecutive exits under "
                    f"{options.min_uptime:.0f}s; giving up"
                )
                return 1
        delay = min(options.restart_backoff * (2.0 ** quick_crashes), 30.0)
        restarts += 1
        status(
            f"child exited rc={rc} after {uptime:.1f}s; "
            f"restarting in {delay:.2f}s"
        )
        time.sleep(delay)


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


@dataclass(frozen=True)
class LoadgenOptions:
    """Where and how ``loadgen`` drives a server, validated once; each
    field is a ``repro loadgen`` flag (:mod:`repro.service.knobs`)."""

    connect: str | None = knob(
        None,
        "ingestion address of the running server (or use --port-file)",
        metavar="HOST:PORT",
    )
    port_file: str | None = knob(
        None,
        "read the server's bound port from this file (the serve "
        "--port-file path), re-read on every reconnect so a supervised "
        "restart's fresh ephemeral port is followed automatically",
        metavar="PATH",
    )
    format: str = knob(
        "binary",
        "frame encoding (json exercises the newline-JSON path)",
        choices=FRAME_FORMATS,
    )
    interval: float = knob(0.0, "seconds to pause between ticks (0 = full speed)")
    max_ticks: int | None = knob(
        None, "stop after this many ticks (default: the full horizon)"
    )
    eof: bool = knob(True, 'trailing {"op": "eof"} control frame')
    resume: bool = knob(
        False,
        "crash-tolerant mode: subscribe to per-tick acks and, on "
        "reset/refused/stall, reconnect with backoff and resend from the "
        "last acked tick (eof only after everything is acked)",
    )
    connect_timeout: float = knob(
        30.0,
        "seconds of capped-backoff connection retries before giving up "
        "(also covers the port-file race at server startup)",
    )
    ack_timeout: float = knob(
        5.0,
        "seconds without ack progress before --resume tears the "
        "connection down and resends",
    )
    total_timeout: float | None = knob(
        None,
        "overall wall-clock budget; exceeded = TimeoutError (default: none)",
    )

    def __post_init__(self):
        self.target  # exactly one well-formed --connect/--port-file
        if self.format not in FRAME_FORMATS:
            raise ValueError(f"--format must be one of {FRAME_FORMATS}")
        at_least(
            0, self, "interval", "max_ticks", "connect_timeout", "ack_timeout",
            "total_timeout",
        )

    @property
    def target(self):
        """``(address, label)`` of the server (see :func:`address_of`)."""
        return address_of("--connect/--port-file", self.connect, self.port_file)


def loadgen(setup, options: LoadgenOptions, *, chunk: int) -> dict:
    """Drive a server with the exact feed ``replay()`` would process.

    Connects a blocking socket to ``options.target`` and streams one
    frame per (node, tick) over the held-out period of ``setup`` — tick
    *t* carries samples ``[t*chunk, (t+1)*chunk)``, nodes in sorted
    order, so a clean run reproduces the in-process replay's burst
    grouping (and therefore its alert bytes) exactly.  Connection-refused
    errors retry with capped exponential backoff (``connect_timeout``
    budget).

    With ``options.resume`` the client subscribes to per-tick acks and
    survives transport faults: on a reset, a refused reconnect or an
    ack stall (``ack_timeout`` seconds without progress — the shape a
    corrupted-and-dropped frame leaves behind) it reconnects with
    backoff and go-back-N resends every tick after the last acked one.
    The first ack on each connection is the server's watermark, so
    ticks it already processed are skipped; a later repeat of the last
    ack reports a hole and rewinds the same connection to the tick
    after it.  At most :data:`MAX_WINDOW` unacked ticks are in flight,
    and the eof control frame is only sent once every tick is acked — which
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

    address = options.target[0]
    binary = options.format == "binary"
    horizon = max(m.shape[1] for m in setup.eval_data.values())
    n_ticks = (horizon + chunk - 1) // chunk
    if options.max_ticks is not None:
        n_ticks = min(n_ticks, options.max_ticks)
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
            if binary:
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
    total_timeout = options.total_timeout
    overall_deadline = (
        time.monotonic() + total_timeout if total_timeout else None
    )

    def check_overall() -> None:
        if overall_deadline is not None and time.monotonic() > overall_deadline:
            raise TimeoutError(
                f"loadgen did not complete within {total_timeout:.0f}s "
                f"(acked {last_acked + 1}/{n_ticks} ticks)"
            )

    if not options.resume:
        sock = _connect_with_backoff(address, timeout=options.connect_timeout)
        try:
            for ti in range(n_ticks):
                out, n_frames = tick_bytes(ti)
                sock.sendall(out)
                stats["frames"] += n_frames
                stats["bytes"] += len(out)
                if options.interval > 0.0:
                    time.sleep(options.interval)
            if options.eof:
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
        sock = _connect_with_backoff(address, timeout=options.connect_timeout)
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
            elif time.monotonic() - stall_t0 > options.ack_timeout:
                raise _AckStall(
                    f"no ack progress past tick {last_acked} "
                    f"for {options.ack_timeout:.1f}s"
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
                if ti - last_acked > MAX_WINDOW:
                    await_progress(ti - MAX_WINDOW)
                out, n_frames = tick_bytes(ti)
                sock.sendall(out)
                stats["frames"] += n_frames
                stats["bytes"] += len(out)
                ti += 1
                drain_acks(0.0)
                if options.interval > 0.0:
                    time.sleep(options.interval)
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
    if options.eof:
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
