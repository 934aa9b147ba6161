"""Alert policies and streaming alert sinks.

The classifier labels every emitted window; raw per-window labels are
too twitchy to page an operator on, so each node's label stream runs
through an :class:`AlertPolicy` — a threshold + hysteresis state
machine:

* *threshold*: an alert **opens** after ``open_after`` consecutive
  faulty windows (a debounce against one-off misclassifications, the
  same idea as :class:`repro.oda.controllers.FaultResponseController`'s
  ``min_consecutive``);
* *hysteresis*: an open alert **closes** only after ``close_after``
  consecutive healthy windows, so a fault flickering around the decision
  boundary yields one alert, not a storm.

Sinks consume the resulting event stream.  The JSONL sink writes one
JSON object per event (the machine format whose byte-identity across
replay processes is test-enforced); the markdown sink renders a summary
table through :func:`repro.experiments.reporting.save_markdown`.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

__all__ = [
    "ALERTS_SCHEMA",
    "Alert",
    "AlertPolicy",
    "AlertSink",
    "JSONLAlertSink",
    "MarkdownAlertSink",
    "StreamAlertSink",
    "event_line",
    "to_payload",
]

#: Version tag of the alert/ops wire schema.  Every externally visible
#: rendering of an alert event — the JSONL sinks, checkpoint archives
#: and the HTTP ops endpoints — serializes through :func:`to_payload`,
#: whose key order is this schema's contract.
ALERTS_SCHEMA = "repro-alerts/v1"

#: Canonical key order per event type (``repro-alerts/v1``).  The
#: orders match what the producers insert today, so :func:`to_payload`
#: is the identity for events built by this codebase — which is what
#: keeps historical golden fixtures byte-valid — while external
#: consumers get a stable contract independent of producer internals.
_EVENT_KEY_ORDER: dict[str, tuple[str, ...]] = {
    "open": (
        "event", "node", "window", "first_faulty", "label",
        "confidence", "attribution", "health",
    ),
    "close": (
        "event", "node", "window", "opened", "label", "windows",
        "peak_confidence", "health",
    ),
    # Emitted for still-open alerts when a serving loop is interrupted
    # (Ctrl-C): same shape as "close" but the episode did not end.
    "flush": (
        "event", "node", "window", "opened", "label", "windows",
        "peak_confidence", "health",
    ),
    "guard": (
        "event", "node", "tick", "action", "severity", "fault",
        "state", "until",
    ),
}


def to_payload(event: dict) -> dict:
    """Canonical ``repro-alerts/v1`` payload of one alert event.

    Returns a dict whose iteration order follows the schema's per-type
    key order (unknown keys keep their insertion order, after the known
    ones).  All wire renderings — JSONL sinks, checkpoint event journals,
    HTTP ops responses — serialize this payload, so the byte stream is
    a pure function of the event values regardless of how a producer
    happened to build the dict.
    """
    order = _EVENT_KEY_ORDER.get(event.get("event"), ())
    payload = {k: event[k] for k in order if k in event}
    if len(payload) != len(event):
        for k, v in event.items():
            if k not in payload:
                payload[k] = v
    return payload


@dataclass
class Alert:
    """One contiguous alert episode of one node's label stream.

    ``label`` is the predicted class of the window that *opened* the
    alert; ``label_counts`` tallies every faulty class of the episode —
    including the triggering streak's earlier windows — so a fault that
    is re-classified mid-episode is still one alert, with its class mix
    recorded, and ``peak_confidence`` covers the same span as
    ``n_windows``.  Windows count from the start of the replayed /
    served period; ``first_faulty`` is ``opened - open_after + 1``, the
    window the triggering streak began at.
    """

    opened: int
    first_faulty: int
    label: int
    peak_confidence: float
    n_windows: int = 0
    closed: int | None = None
    label_counts: dict[int, int] = field(default_factory=dict)

    @property
    def is_open(self) -> bool:
        return self.closed is None

    def dominant_label(self) -> int:
        """Most frequent faulty class while open (ties: smallest id)."""
        if not self.label_counts:
            return self.label
        best = max(self.label_counts.values())
        return min(k for k, v in self.label_counts.items() if v == best)


class AlertPolicy:
    """Threshold + hysteresis alerting over one node's window labels.

    Parameters
    ----------
    healthy_label:
        Class value meaning "no fault".
    open_after:
        Consecutive faulty windows required to open an alert.
    close_after:
        Consecutive healthy windows required to close an open alert.
    min_confidence:
        Faulty predictions below this confidence are treated as healthy
        (low-certainty flickers neither open nor sustain alerts).
    keep_history:
        When false, closed alerts are not retained on :attr:`history` —
        long-running serving loops stay bounded in memory.
    """

    def __init__(
        self,
        *,
        healthy_label: int = 0,
        open_after: int = 2,
        close_after: int = 2,
        min_confidence: float = 0.0,
        keep_history: bool = True,
    ):
        if open_after < 1 or close_after < 1:
            raise ValueError("open_after and close_after must be >= 1")
        if not 0.0 <= min_confidence <= 1.0:
            raise ValueError("min_confidence must be in [0, 1]")
        self.healthy_label = int(healthy_label)
        self.open_after = int(open_after)
        self.close_after = int(close_after)
        self.min_confidence = float(min_confidence)
        self.keep_history = bool(keep_history)
        self.alert: Alert | None = None
        self.history: list[Alert] = []
        # (label, confidence) of the pre-open faulty streak, so an
        # opening alert credits the *whole* streak, not just the window
        # that tipped it over the threshold.
        self._streak: list[tuple[int, float]] = []
        self._healthy_streak = 0

    def skip_healthy(self, k: int) -> None:
        """Fast-forward ``k`` consecutive healthy windows, no alert open.

        State-identical to ``k`` :meth:`update` calls whose windows are
        all healthy while :attr:`alert` is ``None`` (each such call only
        bumps the healthy streak and clears the faulty one, and can
        neither open nor close anything).  The batched tick path uses
        this to skip per-window Python on quiet nodes.
        """
        if self.alert is not None:
            raise ValueError("skip_healthy requires no open alert")
        if k > 0:
            self._healthy_streak += k
            self._streak.clear()

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the hysteresis state.

        Captures everything :meth:`update` reads — the open alert, the
        pre-open faulty streak and the healthy streak — so a policy
        restored from this snapshot continues the event sequence exactly
        (floats survive the JSON round trip bit-exactly via ``repr``).
        """
        alert = None
        if self.alert is not None:
            a = self.alert
            alert = {
                "opened": a.opened,
                "first_faulty": a.first_faulty,
                "label": a.label,
                "peak_confidence": a.peak_confidence,
                "n_windows": a.n_windows,
                "closed": a.closed,
                "label_counts": {
                    str(k): v for k, v in a.label_counts.items()
                },
            }
        return {
            "alert": alert,
            "streak": [[label, conf] for label, conf in self._streak],
            "healthy_streak": self._healthy_streak,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (JSON-round-tripped ok).

        A restored open alert is re-appended to :attr:`history` when
        history is kept, mirroring where the original run put it.
        """
        stored = state["alert"]
        if stored is None:
            self.alert = None
        else:
            self.alert = Alert(
                opened=int(stored["opened"]),
                first_faulty=int(stored["first_faulty"]),
                label=int(stored["label"]),
                peak_confidence=float(stored["peak_confidence"]),
                n_windows=int(stored["n_windows"]),
                closed=stored["closed"],
                label_counts={
                    int(k): int(v)
                    for k, v in stored["label_counts"].items()
                },
            )
            if self.keep_history:
                self.history.append(self.alert)
        self._streak = [
            (int(label), float(conf)) for label, conf in state["streak"]
        ]
        self._healthy_streak = int(state["healthy_streak"])

    def update(
        self, window: int, label: int, confidence: float
    ) -> list[tuple[str, Alert]]:
        """Advance one window; return ``("open"|"close", alert)`` events."""
        label = int(label)
        confidence = float(confidence)
        faulty = (
            label != self.healthy_label and confidence >= self.min_confidence
        )
        events: list[tuple[str, Alert]] = []
        if faulty:
            self._healthy_streak = 0
            if self.alert is None:
                self._streak.append((label, confidence))
                if len(self._streak) >= self.open_after:
                    counts: dict[int, int] = {}
                    for streak_label, _ in self._streak:
                        counts[streak_label] = counts.get(streak_label, 0) + 1
                    self.alert = Alert(
                        opened=window,
                        first_faulty=window - self.open_after + 1,
                        label=label,
                        peak_confidence=max(c for _, c in self._streak),
                        n_windows=len(self._streak),
                        label_counts=counts,
                    )
                    self._streak = []
                    if self.keep_history:
                        self.history.append(self.alert)
                    events.append(("open", self.alert))
            else:
                a = self.alert
                a.n_windows += 1
                a.peak_confidence = max(a.peak_confidence, confidence)
                a.label_counts[label] = a.label_counts.get(label, 0) + 1
        else:
            self._healthy_streak += 1
            self._streak = []
            if (
                self.alert is not None
                and self._healthy_streak >= self.close_after
            ):
                self.alert.closed = window
                events.append(("close", self.alert))
                self.alert = None
        return events


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
def event_line(event: dict) -> str:
    """Canonical one-line JSON rendering of an alert event.

    ``repro-alerts/v1``: compact separators, :func:`to_payload` key
    order, full float ``repr`` — the exact bytes are a pure function of
    the event values, which is what the byte-identical-replay guarantee
    rests on.
    """
    return json.dumps(to_payload(event), separators=(",", ":"))


class AlertSink:
    """Consumes alert events one at a time; ``close()`` flushes."""

    def emit(self, event: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Finalize the sink (default: nothing to flush)."""


class JSONLAlertSink(AlertSink):
    """Write one JSON line per event to a file (the replay format).

    The file is created (truncating any previous run's output) as soon
    as the sink is constructed — an alert-free replay must leave an
    *empty* file behind, not a stale one, or the byte-identical-replay
    contract silently breaks.

    A write failure (disk full, revoked mount, ...) must not crash the
    tick loop that produced the event: the sink retries the line once
    through a fresh append-mode handle, and if that also fails it
    *degrades* — every further event streams to stderr behind an
    explicit data-loss warning, and the detector keeps running.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: IO[str] | None = self.path.open("w", encoding="utf-8")
        self._closed = False
        self._degraded = False

    def emit(self, event: dict) -> None:
        if self._closed:
            raise ValueError(f"alert sink for {self.path} is closed")
        line = event_line(event) + "\n"
        if self._degraded:
            sys.stderr.write(line)
            return
        try:
            self._fh.write(line)
        except OSError:
            self._retry_or_degrade(line)

    def _retry_or_degrade(self, line: str) -> None:
        """One reopen-and-rewrite attempt, then permanent stderr fallback."""
        try:
            self._fh.close()
        except OSError:
            pass
        self._fh = None
        try:
            self._fh = self.path.open("a", encoding="utf-8")
            self._fh.write(line)
        except OSError as exc:
            self._degraded = True
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._fh = None
            sys.stderr.write(
                f"[alerts] WARNING: sink {self.path} failed twice "
                f"({exc}); alert persistence degraded — further events "
                "stream to stderr and are NOT written to disk\n"
            )
            sys.stderr.write(line)

    def close(self) -> None:
        self._closed = True
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError as exc:
                sys.stderr.write(
                    f"[alerts] WARNING: closing sink {self.path} failed "
                    f"({exc}); trailing buffered events may be lost\n"
                )
            self._fh = None


class StreamAlertSink(AlertSink):
    """Write events to an open text stream, flushing each line.

    ``repro serve`` uses this on stdout so an operator (or a pipe) sees
    alerts the moment they fire.
    """

    def __init__(self, stream: IO[str]):
        self.stream = stream

    def emit(self, event: dict) -> None:
        self.stream.write(event_line(event) + "\n")
        self.stream.flush()


class MarkdownAlertSink(AlertSink):
    """Render the collected events as a markdown summary table on close."""

    HEADERS = (
        "Node",
        "Event",
        "Window",
        "Label",
        "Confidence",
        "Top sensors",
    )

    def __init__(self, path: str | Path, *, title: str = "Alert stream"):
        self.path = Path(path)
        self.title = title
        self._rows: list[tuple] = []

    def emit(self, event: dict) -> None:
        sensors = ", ".join(
            s
            for finding in event.get("attribution", ())
            for s in finding.get("sensors", ())
        )
        self._rows.append(
            (
                event.get("node", ""),
                event.get("event", ""),
                event.get("window", ""),
                event.get("label", ""),
                event.get("confidence", event.get("peak_confidence", "")),
                sensors,
            )
        )

    def close(self) -> None:
        from repro.experiments.reporting import format_table, save_markdown

        try:
            save_markdown(
                self.path, self.HEADERS, self._rows, title=self.title
            )
            return
        except OSError:
            pass
        try:  # buffer-and-retry once — the rows are still in memory
            save_markdown(
                self.path, self.HEADERS, self._rows, title=self.title
            )
        except OSError as exc:
            sys.stderr.write(
                f"[alerts] WARNING: markdown sink {self.path} failed "
                f"twice ({exc}); summary NOT written to disk — "
                "rendering to stderr instead\n"
            )
            sys.stderr.write(
                format_table(self.HEADERS, self._rows, title=self.title)
                + "\n"
            )
