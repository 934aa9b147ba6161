"""Online fleet fault-detection service.

The paper's end goal is operational: signatures exist so a fleet can be
*monitored* online, faults classified and causes localized.  This
subpackage composes the existing layers into that one hot path:

* :mod:`~repro.service.classify` — training of the shared fault
  classifier over per-node CS signatures, keyed by
  :class:`~repro.engine.fleet.FleetSignatureEngine` sensor-tree paths;
* :mod:`~repro.service.alerts` — threshold + hysteresis alert policies
  and streaming JSONL / markdown alert sinks (reusing
  :mod:`repro.experiments.reporting`);
* :mod:`~repro.service.detector` — :class:`FleetFaultDetector`, the
  composed ingest → classify → alert hot path running every tick
  through the preallocated :class:`~repro.engine.hotpath.TickArena`
  (one stacked-forest pass per tick for the whole fleet), plus
  :func:`detect_naive`, the per-node oracle loop it is tested and
  benchmarked against;
* :mod:`~repro.service.replay` — the replay driver's data side: it
  materializes and trains fleets from cached ``.npz`` segments
  (``monitoring.storage`` via the ``repro.scenarios``
  :class:`~repro.scenarios.cache.ArtifactCache`) and scores an alert
  stream against the injected ground truth;
* :mod:`~repro.service.guard` — the typed validation boundary in front
  of the detector: malformed/late/duplicate/unknown-node input degrades
  or quarantines the offending node instead of crashing the tick loop;
* :mod:`~repro.service.checkpoint` — versioned npz snapshots of full
  detector state with a crash → restore → replay-remaining byte-identity
  contract;
* :mod:`~repro.service.chaos` — the deterministic seeded fault injector
  and kill-and-restore drill that prove the two layers above;
* :mod:`~repro.service.api` — the one public facade: a frozen
  :class:`ServiceConfig` carries every service knob, with
  ``build_detector(config)`` / ``api.replay(config)`` /
  ``serve(config)`` as the only entry points callers need.  The package
  does not re-export ``api.replay``, so ``repro.service.replay``
  always names the replay-driver submodule;
* :mod:`~repro.service.protocol` / :mod:`~repro.service.servecore` /
  :mod:`~repro.service.net` / :mod:`~repro.service.ops` — the network
  front: the ``repro-ticks/v1`` wire protocol (newline-JSON +
  CRC-checked binary frames), the sans-IO serving core (bounded
  per-node backpressure queues, tick barrier, journal, acks,
  checkpoints), its asyncio ingestion server, and the HTTP ops surface
  (``/health`` + liveness/readiness probes, ``/fleet``, ``/alerts``
  with ack/suppress, ``/stats``);
* :mod:`~repro.service.wal` / :mod:`~repro.service.netchaos` — crash
  durability for the network path: the ``repro-wal/v1`` write-ahead
  frame journal that (with networked checkpoints) makes kill -9 +
  restart byte-identical to an uninterrupted run, and the seeded TCP
  chaos proxy that proves it under resets, partitions, corruption and
  truncation.

Alert events cross every boundary — JSONL sinks, checkpoint archives,
HTTP ops responses — in one canonical ``repro-alerts/v1`` shape
(:func:`repro.service.alerts.to_payload`).

Replay is bit-deterministic: the same recipes, options and seeds produce
*byte-identical* alert JSONL across processes (guarded by tests), which
is what makes the alert stream diffable in CI — and what makes
checkpoint/restore testable at the byte level.
"""

from repro.service.alerts import (
    ALERTS_SCHEMA,
    Alert,
    AlertPolicy,
    AlertSink,
    JSONLAlertSink,
    MarkdownAlertSink,
    StreamAlertSink,
    event_line,
    to_payload,
)
from repro.service.api import (
    ServiceConfig,
    build_detector,
    build_setup,
    replicate_setup,
    serve,
)
from repro.service.chaos import ChaosConfig, ChaosInjector, run_with_kills
from repro.service.checkpoint import (
    CheckpointError,
    fleet_fingerprint,
    load_checkpoint,
    restore_checkpoint,
    save_checkpoint,
)
from repro.service.classify import FleetClassifier, TrainedFleet, train_fleet
from repro.service.detector import FleetFaultDetector, detect_naive
from repro.service.guard import GuardConfig, GuardedDetector
from repro.service.model_store import (
    ModelStoreError,
    load_fleet_npz,
    save_fleet_npz,
)
from repro.service.replay import (
    FleetReplaySetup,
    ReplayOutcome,
    fleet_recipes,
    node_path,
    prepare_fleet,
)

from repro.service.net import FleetServer, LoadgenOptions, loadgen, parse_address
from repro.service.netchaos import ChaosProxy, NetChaosConfig
from repro.service.ops import AlertLog
from repro.service.protocol import (
    PROTOCOL,
    Frame,
    FrameDecoder,
    FrameError,
    encode_binary,
    encode_eof,
    encode_json,
)
from repro.service.servecore import (
    BackpressureConfig,
    ServeCore,
    ServeOptions,
    ServerCheckpoint,
    ServerStats,
)
from repro.service.wal import WAL_FORMAT, WalRecord, WalWriter, recover_wal

__all__ = [
    "ALERTS_SCHEMA",
    "Alert",
    "AlertLog",
    "AlertPolicy",
    "AlertSink",
    "BackpressureConfig",
    "ChaosConfig",
    "ChaosInjector",
    "ChaosProxy",
    "CheckpointError",
    "FleetClassifier",
    "FleetFaultDetector",
    "FleetReplaySetup",
    "FleetServer",
    "Frame",
    "FrameDecoder",
    "FrameError",
    "GuardConfig",
    "GuardedDetector",
    "JSONLAlertSink",
    "LoadgenOptions",
    "MarkdownAlertSink",
    "ModelStoreError",
    "NetChaosConfig",
    "PROTOCOL",
    "ReplayOutcome",
    "ServeCore",
    "ServeOptions",
    "ServerCheckpoint",
    "ServerStats",
    "ServiceConfig",
    "StreamAlertSink",
    "TrainedFleet",
    "WAL_FORMAT",
    "WalRecord",
    "WalWriter",
    "build_detector",
    "build_setup",
    "detect_naive",
    "encode_binary",
    "encode_eof",
    "encode_json",
    "event_line",
    "fleet_fingerprint",
    "fleet_recipes",
    "load_checkpoint",
    "load_fleet_npz",
    "loadgen",
    "node_path",
    "parse_address",
    "prepare_fleet",
    "recover_wal",
    "replicate_setup",
    "restore_checkpoint",
    "run_with_kills",
    "save_checkpoint",
    "save_fleet_npz",
    "serve",
    "to_payload",
    "train_fleet",
]
