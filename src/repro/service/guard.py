"""Typed input-hardening boundary in front of the fleet detector.

``FleetFaultDetector.process_block`` trusts its input completely: an
unknown node path raises ``KeyError``, a mis-shaped burst raises
``ValueError``, and a NaN/Inf plane silently poisons the node's running
prefix sums forever.  Any real transport (the ROADMAP's socket agent)
will deliver all of those — so :class:`GuardedDetector` classifies every
burst *before* the detector sees it and maps each fault class to a
degradation policy instead of a crash:

=================  =====================================================
fault class        policy
=================  =====================================================
``unknown-node``   reject the block; count the stray path (never crash)
``duplicate-tick`` coalesce — drop the re-delivery, keep the original;
                   no health penalty (retries are normal transport
                   behavior)
``stale-tick``     reject a block older than the node's last applied
                   tick (late / out-of-order delivery)
``shape-mismatch`` reject a block whose shape/dtype cannot be conformed
                   to the node's ``(n_sensors, m)`` float layout
``corrupt-values`` reject a block containing NaN/Inf planes
=================  =====================================================

Rejections feed a per-node health state machine — ``healthy`` →
``degraded`` (first faults) → ``quarantined`` (persistent faults), with
exponential backoff: while quarantined the node's blocks are dropped
without validation cost until the backoff expires, then the node is
re-admitted on probation and recovers to ``healthy`` after
``recover_after`` clean bursts.  Clean blocks pass straight through to
the wrapped detector, whose alert events gain a ``health`` field;
:meth:`GuardedDetector.fleet_health` is the ``memory_report()``-style
payload with per-node states and fleet-wide tallies.

The guard's steady-state cost is a few dict lookups per block.  The
NaN/Inf screen runs inside the wrapped detector's tick arena
(:attr:`~repro.engine.hotpath.TickArena.reject_nonfinite`), on the
columns it gathers anyway: one reduction per geometry group, and a
corrupt node's state is never touched.  Measured at <5% of the 64-node
tick in ``benchmarks/test_service_scaling.py`` and recorded in
``BENCH_service.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.service.alerts import Alert, AlertPolicy
from repro.service.detector import FleetFaultDetector

__all__ = [
    "FAULT_CLASSES",
    "HEALTH_STATES",
    "GuardConfig",
    "GuardedDetector",
    "NodeHealth",
]

#: Every fault class the guard can attach to a rejected/coalesced block.
FAULT_CLASSES = (
    "corrupt-values",
    "duplicate-tick",
    "shape-mismatch",
    "stale-tick",
    "unknown-node",
)

#: Node health states, ordered from best to worst.
HEALTH_STATES = ("healthy", "degraded", "quarantined")
_HEALTHY, _DEGRADED, _QUARANTINED = HEALTH_STATES

#: Guard event severities per action (the severity-classified alerting
#: shape: info = bookkeeping, warning = data lost, critical = a node
#: was taken out of rotation).
_SEVERITY = {
    "coalesce": "info",
    "probation": "info",
    "recover": "info",
    "reject": "warning",
    "quarantine": "critical",
}


@dataclass(frozen=True)
class GuardConfig:
    """Degradation-policy knobs of the validation boundary.

    Parameters
    ----------
    degrade_after:
        Consecutive faulty blocks before a healthy node turns
        ``degraded``.
    quarantine_after:
        Consecutive faulty blocks before a node is quarantined.
    backoff_ticks:
        Initial quarantine length, in ticks.  Each re-quarantine doubles
        it (``backoff_factor``) up to ``max_backoff_ticks``.
    backoff_factor:
        Multiplier applied to the backoff on every re-quarantine.
    max_backoff_ticks:
        Upper bound of the exponential backoff.
    recover_after:
        Consecutive clean blocks before a degraded node is ``healthy``
        again (also the probation length after quarantine expiry).
    """

    degrade_after: int = 1
    quarantine_after: int = 3
    backoff_ticks: int = 8
    backoff_factor: int = 2
    max_backoff_ticks: int = 128
    recover_after: int = 2

    def __post_init__(self):
        if self.degrade_after < 1 or self.quarantine_after < 1:
            raise ValueError(
                "degrade_after and quarantine_after must be >= 1"
            )
        if self.quarantine_after < self.degrade_after:
            raise ValueError(
                "quarantine_after must be >= degrade_after"
            )
        if self.backoff_ticks < 1 or self.max_backoff_ticks < 1:
            raise ValueError("backoff windows must be >= 1 tick")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")
        if self.recover_after < 1:
            raise ValueError("recover_after must be >= 1")


class NodeHealth:
    """Mutable per-node health record of the guard's state machine."""

    __slots__ = (
        "state",
        "fault_streak",
        "clean_streak",
        "backoff",
        "quarantined_until",
        "last_tick",
        "dropped_blocks",
        "fault_counts",
    )

    def __init__(self):
        self.state = _HEALTHY
        self.fault_streak = 0
        self.clean_streak = 0
        self.backoff = 0
        self.quarantined_until = -1
        #: Newest tick whose block was applied (-1: nothing applied yet).
        self.last_tick = -1
        self.dropped_blocks = 0
        self.fault_counts: dict[str, int] = {}

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (fleet-health payload + checkpoint)."""
        return {
            "state": self.state,
            "fault_streak": self.fault_streak,
            "clean_streak": self.clean_streak,
            "backoff": self.backoff,
            "quarantined_until": self.quarantined_until,
            "last_tick": self.last_tick,
            "dropped_blocks": self.dropped_blocks,
            "fault_counts": dict(sorted(self.fault_counts.items())),
        }

    def load(self, state: dict) -> None:
        if state["state"] not in HEALTH_STATES:
            raise ValueError(f"unknown health state {state['state']!r}")
        self.state = state["state"]
        self.fault_streak = int(state["fault_streak"])
        self.clean_streak = int(state["clean_streak"])
        self.backoff = int(state["backoff"])
        self.quarantined_until = int(state["quarantined_until"])
        self.last_tick = int(state["last_tick"])
        self.dropped_blocks = int(state["dropped_blocks"])
        self.fault_counts = {
            str(k): int(v) for k, v in state["fault_counts"].items()
        }


class GuardedDetector:
    """Validation + quarantine boundary around a :class:`FleetFaultDetector`.

    Drop-in for the detector in every tick loop: ``process_block``
    accepts the same burst mapping (plus an optional explicit ``tick``
    index), forwards only validated blocks, and returns the inner
    detector's alert events — each stamped with the node's current
    ``health`` state — interleaved after the tick's guard events.

    Parameters
    ----------
    detector:
        The wrapped :class:`FleetFaultDetector`.
    config:
        Degradation-policy knobs; defaults to :class:`GuardConfig()`.
    """

    def __init__(
        self,
        detector: FleetFaultDetector,
        *,
        config: GuardConfig | None = None,
    ):
        self.inner = detector
        self.config = config or GuardConfig()
        self._health: dict[str, NodeHealth] = {
            p: NodeHealth() for p in detector.paths
        }
        self._n_sensors = {p: detector.n_sensors(p) for p in detector.paths}
        # The arena screens values on the columns it gathers anyway, so
        # NaN/Inf costs the guard no pass of its own over the burst.
        detector.arena.reject_nonfinite = True
        self._unknown: dict[str, int] = {}
        #: Next tick index when :meth:`process_block` is called without
        #: an explicit one (replay always passes the tick).
        self.tick = 0

    # -- delegation ----------------------------------------------------
    @property
    def paths(self) -> list[str]:
        return self.inner.paths

    @property
    def history(self) -> dict:
        return self.inner.history

    def policy(self, path: str) -> AlertPolicy:
        return self.inner.policy(path)

    def windows_seen(self, path: str) -> int:
        return self.inner.windows_seen(path)

    def open_alerts(self) -> dict[str, Alert]:
        return self.inner.open_alerts()

    def health(self, path: str) -> NodeHealth:
        """The live health record of one registered node."""
        return self._health[path]

    # -- checkpoint plumbing -------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable guard state for the checkpoint layer."""
        return {
            "tick": self.tick,
            "nodes": {p: h.to_dict() for p, h in sorted(self._health.items())},
            "unknown": dict(sorted(self._unknown.items())),
        }

    def load_state(self, state: dict) -> None:
        self.tick = int(state["tick"])
        for p, stored in state["nodes"].items():
            if p not in self._health:
                raise KeyError(f"guard state names unregistered node {p!r}")
            self._health[p].load(stored)
        self._unknown = {
            str(k): int(v) for k, v in state["unknown"].items()
        }

    # -- the boundary --------------------------------------------------
    def _event(
        self, path: str, tick: int, fault: str | None, action: str, **extra
    ) -> dict:
        event = {
            "event": "guard",
            "node": path,
            "tick": tick,
            "action": action,
            "severity": _SEVERITY[action],
        }
        if fault is not None:
            event["fault"] = fault
        health = self._health.get(path)
        event["state"] = health.state if health is not None else "unknown"
        event.update(extra)
        return event

    def _record_fault(
        self, path: str, tick: int, fault: str, events: list[dict]
    ) -> None:
        """Apply the degradation policy to one rejected block."""
        cfg = self.config
        h = self._health[path]
        h.fault_counts[fault] = h.fault_counts.get(fault, 0) + 1
        h.dropped_blocks += 1
        h.fault_streak += 1
        h.clean_streak = 0
        if h.fault_streak >= cfg.quarantine_after:
            h.backoff = (
                min(h.backoff * cfg.backoff_factor, cfg.max_backoff_ticks)
                if h.backoff
                else cfg.backoff_ticks
            )
            h.quarantined_until = tick + 1 + h.backoff
            h.state = _QUARANTINED
            h.fault_streak = 0
            events.append(
                self._event(
                    path, tick, fault, "quarantine",
                    until=h.quarantined_until,
                )
            )
        else:
            if h.state == _HEALTHY and h.fault_streak >= cfg.degrade_after:
                h.state = _DEGRADED
            events.append(self._event(path, tick, fault, "reject"))

    def _admit(
        self, path: str, block, tick: int, events: list[dict]
    ) -> np.ndarray | None:
        """Screen one node's block; return it if it may reach the arena."""
        h = self._health.get(path)
        if h is None:
            self._unknown[path] = self._unknown.get(path, 0) + 1
            events.append(self._event(path, tick, "unknown-node", "reject"))
            return None
        if h.state == _QUARANTINED:
            if tick < h.quarantined_until:
                h.dropped_blocks += 1  # silent drop: backoff still active
                return None
            h.state = _DEGRADED  # probation: validate again, recover later
            events.append(self._event(path, tick, None, "probation"))
        if tick <= h.last_tick:
            if tick == h.last_tick:
                h.fault_counts["duplicate-tick"] = (
                    h.fault_counts.get("duplicate-tick", 0) + 1
                )
                events.append(
                    self._event(path, tick, "duplicate-tick", "coalesce")
                )
            else:
                self._record_fault(path, tick, "stale-tick", events)
            return None
        h.last_tick = tick  # the delivery happened, whatever its payload
        try:
            B = np.asarray(block, dtype=np.float64)
        except (TypeError, ValueError):
            B = None
        if B is None or B.ndim != 2 or B.shape[0] != self._n_sensors[path]:
            self._record_fault(path, tick, "shape-mismatch", events)
            return None
        return B

    def process_block(
        self, data: Mapping[str, np.ndarray], tick: int | None = None
    ) -> list[dict]:
        """Validate one burst per node, forward the clean ones, alert.

        Guard events (sorted node order) come first, then the inner
        detector's alert events for the surviving blocks, each stamped
        with the node's post-validation ``health`` state.  Never raises
        on bad input — every fault class maps to its documented policy.
        """
        if tick is None:
            tick = self.tick
        events: list[dict] = []
        clean: dict[str, np.ndarray] = {}
        #: (position in ``events``, path) of every forwarded block.
        forwarded: list[tuple[int, str]] = []
        for path in sorted(data):
            B = self._admit(path, data[path], tick, events)
            if B is not None:
                clean[path] = B
                forwarded.append((len(events), path))
        alerts = self.inner.process_block(clean) if clean else []
        corrupt = self.inner.arena.nonfinite if clean else ()
        # Settle the forwarded blocks now the arena has screened their
        # values; back to front, so each node's events land at its
        # sorted position.
        recover_after = self.config.recover_after
        for at, path in reversed(forwarded):
            if path in corrupt:
                settled: list[dict] = []
                self._record_fault(path, tick, "corrupt-values", settled)
                events[at:at] = settled
                continue
            h = self._health[path]
            h.fault_streak = 0
            h.clean_streak += 1
            if h.state != _HEALTHY and h.clean_streak >= recover_after:
                h.state = _HEALTHY
                h.backoff = 0
                events.insert(at, self._event(path, tick, None, "recover"))
        for event in alerts:
            event["health"] = self._health[event["node"]].state
            events.append(event)
        self.tick = tick + 1
        return events

    # -- reporting -----------------------------------------------------
    def fleet_health(self) -> dict:
        """``memory_report()``-style fleet-health payload.

        Per-node health records, fleet-wide state tallies and the stray
        paths seen so far.
        """
        states = {s: 0 for s in HEALTH_STATES}
        for h in self._health.values():
            states[h.state] += 1
        return {
            "tick": self.tick,
            "nodes": {
                p: h.to_dict() for p, h in sorted(self._health.items())
            },
            "states": states,
            "unknown_nodes": dict(sorted(self._unknown.items())),
        }
