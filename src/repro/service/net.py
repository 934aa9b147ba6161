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
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from pathlib import Path

from repro.service.protocol import FrameDecoder
from repro.service.servecore import ListAlertSink, ServeCore

__all__ = ["FleetServer", "ListAlertSink", "loadgen", "parse_address"]


def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (port 0 = ephemeral)."""
    host, sep, port = address.rpartition(":")
    if sep and host and port.isascii() and port.isdigit():
        if int(port) <= 65535:
            return host, int(port)
    raise ValueError(f"address must be host:port, got {address!r}")


class FleetServer:
    """The asyncio ingestion front-end around one :class:`ServeCore`.

    Parameters
    ----------
    detector:
        The detector to serve (wrapped in a guard if bare).
    host, port:
        Ingestion listener (port 0 binds an ephemeral port; the bound
        port lands in :attr:`port` and optionally ``port_file``).
    ops_host, ops_port:
        Optional HTTP ops listener (``None`` host disables; port 0 ok).
    sinks:
        :class:`~repro.service.alerts.AlertSink` consumers of the live
        event stream (the ops alert log is always added).
    port_file:
        Write the bound ingestion port here once listening (how
        scripted callers discover an ephemeral port).  When the ops
        listener is enabled, its bound port lands in a companion
        ``<port_file>.ops`` file.  Both are deleted again on shutdown
        so supervisors can never connect to a stale port.
    core:
        The remaining keywords (``backpressure``, ``tick_timeout``,
        ``exit_on_idle``, ``idle_grace``, ``wal``, ``wal_fsync``,
        ``checkpoint``) configure the :class:`ServeCore`.
    """

    def __init__(
        self,
        detector,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        ops_host: str | None = None,
        ops_port: int | None = None,
        sinks: tuple = (),
        port_file: str | Path | None = None,
        **core,
    ):
        from repro.service.ops import AlertLog

        self.alert_log = AlertLog()
        self.core = ServeCore(
            detector, sinks=tuple(sinks) + (self.alert_log,), **core
        )
        self.guarded = self.core.guarded
        self.stats = self.core.stats
        self.host = host
        self.requested_port = int(port)
        self.ops_host = ops_host
        self.requested_ops_port = int(ops_port) if ops_port is not None else 0
        self.port_file = Path(port_file) if port_file else None
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
