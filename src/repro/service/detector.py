"""The composed online hot path: ingest → classify → alert.

:class:`FleetFaultDetector` is the service's per-tick work unit.  One
``process_block`` call takes a burst of raw samples per node, runs the
whole fleet's tick through the preallocated
:class:`~repro.engine.hotpath.TickArena` (ingest, signatures and one
stacked-forest pass for *all* signatures the fleet emitted), drives
each node's threshold + hysteresis
:class:`~repro.service.alerts.AlertPolicy`, and attributes every opening
alert back to raw sensors via
:func:`repro.analysis.rootcause.explain_difference` against the node's
healthy reference signature.

:func:`detect_naive` is the independent oracle and the baseline the
arena path is benchmarked against — the obvious per-node loop (one
``push`` per sample, one single-row forest predict per signature).
Both paths produce identical alert events; only the batching differs.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.analysis.rootcause import explain_difference, findings_payload
from repro.core.pipeline import signature_features
from repro.engine.hotpath import TickArena
from repro.service.alerts import Alert, AlertPolicy
from repro.service.classify import TrainedFleet

__all__ = ["FleetFaultDetector", "detect_naive"]


def _alert_event(
    trained: TrainedFleet,
    kind: str,
    path: str,
    alert: Alert,
    window: int,
    confidence: float,
    signature: np.ndarray,
    top_blocks: int,
) -> dict:
    """Serializable alert event (fixed key order, rounded floats)."""
    name_of = trained.classifier.name_of
    if kind == "open":
        findings = explain_difference(
            trained.engine.model(path),
            trained.references[path],
            signature,
            top=top_blocks,
        )
        return {
            "event": "open",
            "node": path,
            "window": window,
            "first_faulty": alert.first_faulty,
            "label": name_of(alert.label),
            "confidence": round(confidence, 6),
            "attribution": findings_payload(findings, ndigits=6),
        }
    return {
        "event": "close",
        "node": path,
        "window": window,
        "opened": alert.opened,
        "label": name_of(alert.dominant_label()),
        "windows": alert.n_windows,
        "peak_confidence": round(alert.peak_confidence, 6),
    }


class FleetFaultDetector:
    """Online fleet fault detection over a trained fleet.

    Parameters
    ----------
    trained:
        Output of :func:`repro.service.classify.train_fleet`.
    open_after, close_after, min_confidence:
        Per-node :class:`~repro.service.alerts.AlertPolicy` parameters.
    top_blocks:
        Deviating blocks attributed per opening alert.
    record_history:
        When true (the default, used by replay scoring), every window's
        prediction is kept on :attr:`history` and closed alerts on each
        policy's ``history``.  Long-running serving loops pass ``False``
        so memory stays bounded regardless of uptime.
    mode:
        Arena signature arithmetic: ``"exact"`` (float64, default;
        bit-identical to :func:`detect_naive`) or ``"float32"``.
    max_chunk:
        Largest per-tick burst the arena sizes its scratch for
        (bigger bursts are processed in slices; never changes results).
        Scratch scales with it — the store replayer passes its block
        size so whole recorded partitions absorb in one fused pass.
    """

    def __init__(
        self,
        trained: TrainedFleet,
        *,
        open_after: int = 2,
        close_after: int = 2,
        min_confidence: float = 0.0,
        top_blocks: int = 3,
        record_history: bool = True,
        mode: str = "exact",
        max_chunk: int = 256,
    ):
        self.trained = trained
        self.mode = mode
        self.arena = TickArena(
            trained.engine,
            trained.classifier.forest,
            mode=mode,
            max_chunk=max_chunk,
        )
        self._paths = list(self.arena.paths)
        self.top_blocks = int(top_blocks)
        self.record_history = bool(record_history)
        self._policies = {
            p: AlertPolicy(
                healthy_label=trained.healthy_label,
                open_after=open_after,
                close_after=close_after,
                min_confidence=min_confidence,
                keep_history=self.record_history,
            )
            for p in self._paths
        }
        self._windows = {p: 0 for p in self._paths}
        #: Per-node prediction history: path -> (label ids, confidences).
        #: Empty when ``record_history`` is false.
        self.history: dict[str, tuple[list[int], list[float]]] = {
            p: ([], []) for p in self._paths
        }

    # ------------------------------------------------------------------
    @property
    def paths(self) -> list[str]:
        return self._paths

    def memory_report(self) -> dict:
        """Bytes retained per node by the tick arena."""
        return self.arena.memory_report()

    def policy(self, path: str) -> AlertPolicy:
        return self._policies[path]

    def n_sensors(self, path: str) -> int:
        """Sensor count (block row count) one node's bursts must have."""
        return self.trained.engine.model(path).n_sensors

    def windows_seen(self, path: str) -> int:
        """Windows classified so far for one node."""
        return self._windows[path]

    def open_alerts(self) -> dict[str, Alert]:
        """Currently open alert per node (nodes without one omitted)."""
        return {
            p: pol.alert
            for p, pol in self._policies.items()
            if pol.alert is not None
        }

    # ------------------------------------------------------------------
    def _advance(self, path, labels, confidence, sig_at, events):
        """Advance one node's alert policy over its tick's predictions.

        ``sig_at(j)`` lazily materializes the j-th emitted signature —
        only opening alerts need one (for root-cause attribution), so
        quiet ticks pay nothing for it.
        """
        history_l, history_c = self.history[path]
        policy = self._policies[path]
        k = len(labels)
        # Fast path: no open alert and an all-healthy burst — the policy
        # outcome is fully determined (no events, streaks reset), so the
        # per-window Python loop is skipped.  Most ticks of most nodes
        # land here; faulty episodes take the exact per-window path.
        if k and policy.alert is None:
            faulty = np.not_equal(labels, policy.healthy_label)
            if policy.min_confidence > 0.0:
                faulty &= np.greater_equal(
                    confidence, policy.min_confidence
                )
            if not faulty.any():
                policy.skip_healthy(k)
                self._windows[path] += k
                if self.record_history:
                    history_l.extend(np.asarray(labels).tolist())
                    history_c.extend(np.asarray(confidence).tolist())
                return
        for j in range(len(labels)):
            window = self._windows[path]
            self._windows[path] = window + 1
            label = int(labels[j])
            conf = float(confidence[j])
            if self.record_history:
                history_l.append(label)
                history_c.append(conf)
            for kind, alert in policy.update(window, label, conf):
                events.append(
                    _alert_event(
                        self.trained,
                        kind,
                        path,
                        alert,
                        window,
                        conf,
                        sig_at(j),
                        self.top_blocks,
                    )
                )

    def process_block(self, data: Mapping[str, np.ndarray]) -> list[dict]:
        """Ingest one burst per node; return the alert events it caused.

        The hot path: every node's burst goes through the arena, all
        emitted signatures are classified in **one** batched forest
        pass, and the per-node alert policies advance window by window.
        Events are ordered by (sorted node path, window).
        """
        events: list[dict] = []
        for path, labels, confidence, row0 in self.arena.tick(data):
            self._advance(
                path,
                labels,
                confidence,
                lambda j, r0=row0: self.arena.signature(r0 + j),
                events,
            )
        return events

    def process_blocks(self, blocks) -> list[dict]:
        """Block-feed entry point: drain an iterable of bursts.

        ``blocks`` yields ``{path: (n, m) matrix}`` mappings — e.g. the
        telemetry store's partition scan — each of which is processed
        like one :meth:`process_block` tick; the concatenated event list
        is returned.  With ``max_chunk`` sized to the block length, each
        whole block runs as a single arena pass (no per-tick Python loop), which is what
        :func:`repro.service.fastreplay.replay_from_store` feeds.  Event
        *content* is identical to any other chunking of the same samples;
        only the grouping differs (see ``fastreplay`` for the live-order
        shuffle).
        """
        events: list[dict] = []
        for data in blocks:
            events.extend(self.process_block(data))
        return events


def detect_naive(
    trained: TrainedFleet,
    data: Mapping[str, np.ndarray],
    *,
    open_after: int = 2,
    close_after: int = 2,
    min_confidence: float = 0.0,
    top_blocks: int = 3,
) -> list[dict]:
    """The per-node oracle loop (events identical to the arena path).

    For each node in turn: push samples one at a time through its
    :class:`~repro.engine.streaming.OnlineSignatureStream`, classify each
    emitted signature with a single-row forest predict, advance that
    node's policy.  This is what a straightforward implementation looks
    like: the tests check :class:`FleetFaultDetector` against it event
    for event, and ``benchmarks/`` measure the arena path against it.
    """
    events: list[dict] = []
    forest = trained.classifier.forest
    for path in sorted(data):
        stream = trained.engine.stream(path)
        policy = AlertPolicy(
            healthy_label=trained.healthy_label,
            open_after=open_after,
            close_after=close_after,
            min_confidence=min_confidence,
        )
        matrix = np.asarray(data[path], dtype=np.float64)
        window = 0
        for t in range(matrix.shape[1]):
            signature = stream.push(matrix[:, t])
            if signature is None:
                continue
            features = signature_features(signature[None, :])
            label_arr, proba = forest.predict_with_proba(features)
            label = int(label_arr[0])
            conf = float(proba[0].max())
            for kind, alert in policy.update(window, label, conf):
                events.append(
                    _alert_event(
                        trained,
                        kind,
                        path,
                        alert,
                        window,
                        conf,
                        signature,
                        top_blocks,
                    )
                )
            window += 1
    return events
