"""Seeded TCP chaos proxy for the network serving path.

:class:`ChaosProxy` sits between load generators and a
``repro serve --listen`` server and perturbs the client→server byte
stream the way a flaky network would: added latency/jitter, abrupt
connection resets (``RST`` via ``SO_LINGER 0``), short partitions
(stalls), single-byte corruption and truncation (dropped bytes).  The
server→client direction (acks) is forwarded untouched — a reset kills
both directions anyway, and keeping the return path clean makes the
fault attribution in tests unambiguous.

Like :class:`repro.service.chaos.ChaosInjector`, every decision is
drawn from a deterministic RNG — here keyed on
``(seed, connection, byte offset)``: the stream is treated as a
sequence of fixed :data:`WINDOW`-byte spans addressed by absolute
offset, and each span's fault plan comes from
``np.random.default_rng([seed, conn_id, window_index])``.  Plans are a
pure function of those coordinates — **independent of TCP chunking**
(a span's plan is identical whether it arrives in one ``recv`` or
twenty) and of wall clock, so a given seed yields the same fault
schedule on every run.  Bytes are forwarded as they arrive (a span is
never held back waiting to fill), which keeps request/ack round trips
live under proxying.

The convergence story this enables: corruption is caught by the v2
frame checksum and dropped without node attribution, resets/truncation
starve the server's ack stream, and the resuming ``loadgen`` client
re-sends everything after its last acked tick — so the final alert
JSONL still equals the clean in-process replay byte for byte
(``fleet-serve-chaos`` asserts exactly that).
"""

from __future__ import annotations

import dataclasses
import socket
import struct
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.service.knobs import knob

__all__ = ["ChaosProxy", "NetChaosConfig", "WINDOW"]

#: Bytes per fault-plan span of the client→server stream.
WINDOW = 4096

_MB = 1024 * 1024


@dataclass(frozen=True)
class NetChaosConfig:
    """Fault rates for one proxy (all ``*_per_mb`` are expected events
    per forwarded megabyte; 0 disables that fault class)."""

    seed: int = knob(
        0,
        "fault-schedule seed: plans are a pure function of (seed, "
        "connection, byte offset)",
    )
    latency_ms: float = knob(0.0, "fixed added latency per 4 KiB span")
    jitter_ms: float = knob(0.0, "additional uniform random latency per span")
    corrupt_per_mb: float = knob(
        0.0, "expected single-byte XOR corruptions per forwarded MB"
    )
    reset_per_mb: float = knob(
        0.0, "expected hard connection resets (RST) per forwarded MB"
    )
    truncate_per_mb: float = knob(
        0.0, "expected span truncations (silently dropped bytes) per forwarded MB"
    )
    partition_per_mb: float = knob(
        0.0, "expected short partitions (stalls) per forwarded MB"
    )
    partition_ms: float = knob(50.0, "stall length per partition event, in ms")

    def __post_init__(self):
        for field in dataclasses.fields(self):
            if field.name != "seed" and getattr(self, field.name) < 0:
                raise ValueError(f"{field.name} must be >= 0")

    @property
    def active(self) -> bool:
        return any(
            (
                self.latency_ms,
                self.jitter_ms,
                self.corrupt_per_mb,
                self.reset_per_mb,
                self.truncate_per_mb,
                self.partition_per_mb,
            )
        )


class _Reset(Exception):
    """The plan says: hard-reset this connection now."""


def _close(sock: socket.socket) -> None:
    """shutdown + close.  The shutdown matters: a peer thread blocked
    in ``recv`` holds a kernel reference to the socket, so a bare
    ``close()`` sends no FIN until that syscall returns — the other
    end would never see EOF."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class ChaosProxy:
    """Threaded TCP proxy applying a :class:`NetChaosConfig` schedule.

    ``upstream`` is a ``(host, port)`` pair or a callable returning one
    — callables re-resolve per connection, so the proxy follows a
    supervised server restart onto its fresh ephemeral port.
    """

    def __init__(
        self,
        upstream,
        config: NetChaosConfig | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        port_file: str | Path | None = None,
    ):
        self.upstream = upstream
        self.config = config or NetChaosConfig()
        self.host = host
        self.requested_port = int(port)
        self.port_file = Path(port_file) if port_file else None
        self.port: int | None = None
        self.stats = {
            "connections": 0,
            "bytes_in": 0,
            "bytes_out": 0,
            "corrupted": 0,
            "resets": 0,
            "truncated_bytes": 0,
            "partitions": 0,
        }
        self._lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._conns: list[socket.socket] = []
        self._stop = threading.Event()

    # -- schedule ------------------------------------------------------
    def _plan(self, conn_id: int, window: int) -> dict:
        """The fault plan for one WINDOW-byte span, a pure function of
        ``(seed, connection, window index)`` — chunking-independent."""
        cfg = self.config
        rng = np.random.default_rng([cfg.seed, conn_id, window])
        p = WINDOW / _MB
        plan: dict = {}
        # Draw order is fixed: every knob consumes its draws whether or
        # not it fires, so enabling one fault class never reshuffles
        # another's schedule.
        jitter = float(rng.random())
        if cfg.latency_ms or cfg.jitter_ms:
            plan["delay"] = (cfg.latency_ms + cfg.jitter_ms * jitter) / 1e3
        r_corrupt, pos_corrupt, xor = (
            float(rng.random()),
            int(rng.integers(0, WINDOW)),
            int(rng.integers(1, 256)),
        )
        if r_corrupt < cfg.corrupt_per_mb * p:
            plan["corrupt"] = (pos_corrupt, xor)
        r_trunc, pos_trunc = float(rng.random()), int(rng.integers(0, WINDOW))
        if r_trunc < cfg.truncate_per_mb * p:
            plan["truncate"] = pos_trunc
        r_part = float(rng.random())
        if r_part < cfg.partition_per_mb * p:
            plan["partition"] = cfg.partition_ms / 1e3
        r_reset, pos_reset = float(rng.random()), int(rng.integers(0, WINDOW))
        if r_reset < cfg.reset_per_mb * p:
            plan["reset"] = pos_reset
        return plan

    def _count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.stats[key] += n

    # -- data path -----------------------------------------------------
    def _forward_chaotic(
        self, conn_id: int, client: socket.socket, server: socket.socket
    ) -> None:
        """client→server pump with the fault schedule applied."""
        offset = 0
        plan_window = -1
        plan: dict = {}
        while not self._stop.is_set():
            try:
                data = client.recv(1 << 16)
            except OSError:
                break
            if not data:
                break
            self._count("bytes_in", len(data))
            i = 0
            try:
                while i < len(data):
                    window, wo = divmod(offset, WINDOW)
                    if window != plan_window:
                        plan = self._plan(conn_id, window)
                        plan_window = window
                    take = min(len(data) - i, WINDOW - wo)
                    seg = bytearray(data[i : i + take])
                    if wo == 0:
                        # Span start: latency/partition apply once.
                        delay = plan.get("delay", 0.0) + plan.get(
                            "partition", 0.0
                        )
                        if "partition" in plan:
                            self._count("partitions")
                        if delay:
                            time.sleep(delay)
                    reset_at = plan.get("reset")
                    if reset_at is not None and wo <= reset_at < wo + take:
                        server.sendall(bytes(seg[: reset_at - wo]))
                        self._count("bytes_out", reset_at - wo)
                        raise _Reset()
                    corrupt = plan.get("corrupt")
                    if corrupt is not None and wo <= corrupt[0] < wo + take:
                        seg[corrupt[0] - wo] ^= corrupt[1]
                        self._count("corrupted")
                    trunc_at = plan.get("truncate")
                    if trunc_at is not None and trunc_at < wo + take:
                        keep = max(trunc_at - wo, 0)
                        self._count("truncated_bytes", len(seg) - keep)
                        del seg[keep:]
                    if seg:
                        server.sendall(bytes(seg))
                        self._count("bytes_out", len(seg))
                    offset += take
                    i += take
            except _Reset:
                self._count("resets")
                self._hard_reset(client)
                break
            except OSError:
                break
        for sock in (client, server):
            _close(sock)

    @staticmethod
    def _hard_reset(client: socket.socket) -> None:
        """Close with RST (SO_LINGER 0), not FIN — a real fault, not a
        polite shutdown, so the sender sees ``ConnectionResetError``."""
        try:
            client.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
        except OSError:
            pass
        try:
            client.close()
        except OSError:
            pass

    def _forward_clean(
        self, server: socket.socket, client: socket.socket
    ) -> None:
        """server→client pump (acks) — transparent."""
        while not self._stop.is_set():
            try:
                data = server.recv(1 << 16)
                if not data:
                    break
                client.sendall(data)
            except OSError:
                break

    def _serve_conn(self, conn_id: int, client: socket.socket) -> None:
        deadline = time.monotonic() + 5.0
        server = None
        while server is None:
            try:
                target = (
                    self.upstream()
                    if callable(self.upstream)
                    else self.upstream
                )
                server = socket.create_connection(tuple(target), timeout=5.0)
                server.settimeout(None)
            except (OSError, ValueError):
                # Upstream down (mid-restart): give it a moment, then
                # reset the client so *its* backoff takes over.
                if self._stop.is_set() or time.monotonic() >= deadline:
                    self._hard_reset(client)
                    return
                time.sleep(0.05)
        with self._lock:
            self._conns.extend((client, server))
        down = threading.Thread(
            target=self._forward_clean, args=(server, client), daemon=True
        )
        down.start()
        self._forward_chaotic(conn_id, client, server)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ChaosProxy":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.requested_port))
        listener.listen(64)
        self._listener = listener
        self.port = listener.getsockname()[1]
        if self.port_file is not None:
            self.port_file.parent.mkdir(parents=True, exist_ok=True)
            self.port_file.write_text(f"{self.port}\n", encoding="utf-8")
        accept = threading.Thread(target=self._accept_loop, daemon=True)
        accept.start()
        self._threads.append(accept)
        return self

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                client, _ = self._listener.accept()
            except OSError:
                break
            with self._lock:
                self.stats["connections"] += 1
                conn_id = self.stats["connections"]
            worker = threading.Thread(
                target=self._serve_conn,
                args=(conn_id, client),
                daemon=True,
            )
            worker.start()
            self._threads.append(worker)

    def stop(self) -> dict:
        """Shut down and return the final stats payload."""
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            conns = list(self._conns)
        for sock in conns:
            _close(sock)
        for thread in self._threads:
            thread.join(timeout=2.0)
        if self.port_file is not None:
            try:
                self.port_file.unlink(missing_ok=True)
            except OSError:
                pass
        with self._lock:
            return dict(self.stats)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
