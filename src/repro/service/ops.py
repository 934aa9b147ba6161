"""HTTP ops surface for a live :class:`~repro.service.net.FleetServer`.

A deliberately tiny HTTP/1.1 responder on the server's own event loop
(stdlib only — no framework).  All responses are JSON and close the
connection.  Routes:

========================== =========================================
``GET /health``            liveness + readiness + degraded reasons
                           (WAL flush lag, quarantined nodes,
                           barrier-timeout streak) + tick/fleet size
``GET /health/live``       bare liveness probe (always 200)
``GET /health/ready``      readiness probe (503 until listeners are
                           bound and recovery finished, or once a
                           stop is in flight)
``GET /fleet``             per-node guard health (``fleet_health()``)
``GET /alerts``            alert log with full ``repro-alerts/v1``
                           root-cause payloads (suppressed hidden;
                           ``?all=1`` shows them)
``POST /alerts/<id>/ack``  acknowledge an alert
``POST /alerts/<id>/suppress``  hide an alert from the default list
``GET /stats``             ingestion counters, samples/sec, tick
                           latency p50/p99, backpressure totals
========================== =========================================

:class:`AlertLog` is the bridge: it is an
:class:`~repro.service.alerts.AlertSink` fed the live event stream, so
the ops view needs no second pipeline and can never disagree with the
JSONL the sinks wrote.
"""

from __future__ import annotations

import json
from collections import deque

from repro.service.alerts import ALERTS_SCHEMA, AlertSink, to_payload

__all__ = ["AlertLog", "OpsProtocolServer"]


class AlertLog(AlertSink):
    """In-memory alert registry with stable ids and ack/suppress bits.

    Every ``open`` event mints an id (``a000000``, ``a000001``, ...);
    the matching ``close``/``flush`` event transitions the record.
    Guard events are not alerts and pass through uncounted.

    Retention is bounded: only the newest ``MAX_RECORDS`` records are
    kept (older ones are evicted and counted in :attr:`evicted`), so a
    long-running fleet with churning alerts holds steady-state memory.
    A second ``open`` for a node whose prior record never closed marks
    that prior record ``superseded`` instead of leaking it open.
    """

    #: Newest records retained; older ones are evicted FIFO.
    MAX_RECORDS = 4096

    def __init__(self):
        self._records: deque = deque()
        self._by_id: dict[str, dict] = {}
        self._open_by_node: dict[str, dict] = {}
        self._next_id = 0
        self.evicted = 0

    def emit(self, event: dict) -> None:
        kind = event.get("event")
        if kind == "open":
            prior = self._open_by_node.get(event["node"])
            if prior is not None:
                # Re-open with the prior still open: the close never
                # reached us — retire the stale record explicitly.
                prior["state"] = "superseded"
            record = {
                "id": f"a{self._next_id:06d}",
                "node": event["node"],
                "state": "open",
                "acked": False,
                "suppressed": False,
                "opened_window": event.get("window"),
                "open_event": to_payload(event),
                "close_event": None,
            }
            self._next_id += 1
            self._records.append(record)
            self._by_id[record["id"]] = record
            self._open_by_node[record["node"]] = record
            while len(self._records) > self.MAX_RECORDS:
                old = self._records.popleft()
                self._by_id.pop(old["id"], None)
                if self._open_by_node.get(old["node"]) is old:
                    del self._open_by_node[old["node"]]
                self.evicted += 1
        elif kind in ("close", "flush"):
            record = self._open_by_node.pop(event.get("node"), None)
            if record is not None:
                record["state"] = "closed" if kind == "close" else "flushed"
                record["close_event"] = to_payload(event)

    def records(self, *, include_suppressed: bool = False) -> list[dict]:
        return [
            r
            for r in self._records
            if include_suppressed or not r["suppressed"]
        ]

    def ack(self, alert_id: str) -> bool:
        record = self._by_id.get(alert_id)
        if record is None:
            return False
        record["acked"] = True
        return True

    def suppress(self, alert_id: str) -> bool:
        record = self._by_id.get(alert_id)
        if record is None:
            return False
        record["suppressed"] = True
        return True


class OpsProtocolServer:
    """Request handler bound to one :class:`FleetServer`'s live state."""

    MAX_HEAD = 64 * 1024

    def __init__(self, server):
        self.server = server

    async def handle(self, reader, writer):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except Exception:
            writer.close()
            return
        try:
            status, body = self._dispatch(head)
        except Exception as exc:  # never take the loop down from ops
            status, body = 500, {"error": str(exc)}
        payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
        reason = {
            200: "OK",
            404: "Not Found",
            405: "Method Not Allowed",
            503: "Service Unavailable",
        }
        writer.write(
            (
                f"HTTP/1.1 {status} {reason.get(status, 'Error')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("ascii")
            + payload
        )
        try:
            await writer.drain()
        except ConnectionResetError:
            pass
        writer.close()

    def _dispatch(self, head: bytes) -> tuple[int, dict]:
        request_line = head.split(b"\r\n", 1)[0].decode("latin-1")
        parts = request_line.split(" ")
        if len(parts) < 2:
            return 404, {"error": "bad request"}
        method, target = parts[0], parts[1]
        path, _, query = target.partition("?")
        srv = self.server
        if method == "GET" and path == "/health":
            return 200, srv.health()
        if method == "GET" and path == "/health/live":
            # Liveness is answering at all: if the loop can run this
            # handler, the process is alive.
            return 200, {"live": True}
        if method == "GET" and path == "/health/ready":
            payload = srv.health()
            ready = bool(payload["ready"])
            return (200 if ready else 503), {
                "ready": ready,
                "status": payload["status"],
                "reasons": payload["reasons"],
            }
        if method == "GET" and path == "/fleet":
            return 200, {"fleet": srv.guarded.fleet_health()}
        if method == "GET" and path == "/alerts":
            include = "all=1" in query.split("&")
            return 200, {
                "schema": ALERTS_SCHEMA,
                "alerts": srv.alert_log.records(include_suppressed=include),
            }
        if path.startswith("/alerts/") and path.count("/") == 3:
            _, _, alert_id, action = path.split("/")
            if action in ("ack", "suppress"):
                if method != "POST":
                    return 405, {"error": "POST required"}
                fn = getattr(srv.alert_log, action)
                if fn(alert_id):
                    return 200, {"id": alert_id, action: True}
                return 404, {"error": f"unknown alert {alert_id!r}"}
        if method == "GET" and path == "/stats":
            return 200, srv.core.stats_snapshot()
        return 404, {"error": f"no route for {method} {path}"}
