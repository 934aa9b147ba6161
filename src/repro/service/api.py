"""The service facade: one frozen config, three verbs.

* :class:`ServiceConfig` — a frozen, validated dataclass holding every
  service knob (fleet shape, training, detection, alerting); it is the
  one carrier of those knobs, and its field defaults are the only
  copy of the service defaults;
* :func:`build_setup` / :func:`build_detector` — materialize the
  trained fleet and the guarded detector from a config
  (:func:`fleet_detector` is the one knob → detector mapping, shared
  with the store replayer);
* :func:`replay` / :func:`serve` — drive the serving core from memory
  or run the network-facing ingestion server against a config;
* :func:`replicate_setup` — scale a trained fleet to N nodes by
  replicating models/data by reference (no retraining, near-zero extra
  memory), which is how the load benchmarks reach thousands of nodes.

``cli.py`` and ``repro.scenarios.evaluations`` both consume this module.
"""

from __future__ import annotations

import dataclasses
import math
import signal
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.engine.hotpath import SIGNATURE_MODES
from repro.service.alerts import AlertSink
from repro.service.chaos import ChaosConfig, ChaosInjector
from repro.service.checkpoint import CheckpointError, fleet_fingerprint
from repro.service.classify import TrainedFleet
from repro.service.detector import FleetFaultDetector
from repro.service.guard import GuardedDetector
from repro.service.knobs import knob
from repro.service.protocol import Frame
from repro.service.replay import (
    FleetReplaySetup,
    ReplayOutcome,
    fleet_recipes,
    node_path,
    prepare_fleet,
    score_events,
)
from repro.service.servecore import ServeCore, ServeOptions, ServerCheckpoint

__all__ = [
    "ServiceConfig",
    "build_context",
    "build_detector",
    "build_setup",
    "fleet_detector",
    "replay",
    "replicate_setup",
    "serve",
]

@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of the online detection service, validated once.

    Every function that needs a service knob takes the config, never
    the knob as a loose argument.  The field defaults are the full-size
    preset, so a default-constructed config reproduces ``repro detect``
    with no flags byte-for-byte.  Field groups:

    * fleet shape — ``nodes``, ``t``, ``segment``, ``noise_std``;
    * training — ``blocks``, ``trees``, ``train_frac``, ``seed``,
      ``healthy_label``, ``model_path``;
    * detection — ``chunk``, ``open_after``, ``close_after``,
      ``min_confidence``, ``top_blocks``, ``backend``, ``mode``,
      ``guard`` (always on: ``False`` is rejected);
    * scale-out — ``replicate`` (0 = off; N = replicate the trained
      fleet to N nodes via :func:`replicate_setup`);
    * caching — ``cache_dir``.
    """

    nodes: int = knob(3, "fleet size: independently seeded fault nodes")
    t: int = knob(
        6000,
        "samples per node; the leading --train-frac trains the fleet, the "
        "rest replays",
    )
    segment: str = knob("fault", "labeled segment generator behind every node")
    noise_std: float = knob(
        0.0,
        "additive Gaussian sensor noise as a fraction of each sensor's std",
    )
    blocks: int = knob(20, "signature length l")
    trees: int = knob(30, "shared fault-classifier forest size")
    train_frac: float = knob(
        0.5, "leading fraction of each node's history used for training"
    )
    chunk: int = knob(256, "samples per ingested burst (one tick)")
    open_after: int = knob(2, "consecutive faulty windows before an alert opens")
    close_after: int = knob(
        2, "consecutive healthy windows before an open alert closes"
    )
    min_confidence: float = knob(
        0.0, "faulty predictions below this confidence are treated as healthy"
    )
    top_blocks: int = knob(
        3, "deviating signature blocks attributed per opening alert"
    )
    seed: int = knob(
        0,
        "base seed: node i uses seed+i for generation, and the classifier "
        "forest uses it directly",
    )
    healthy_label: int = knob(
        0,
        "integer class treated as 'no fault': the fault segment's healthy "
        "class; set it explicitly for other --segment choices",
    )
    backend: str = knob(
        "fused",
        "tick path; only 'fused' (the preallocated tick arena) is left, "
        "the flag is kept for existing scripts",
    )
    mode: str = knob(
        "exact",
        "signature arithmetic: exact = float64, bit-identical; float32 "
        "trades accuracy for memory",
        choices=SIGNATURE_MODES,
    )
    guard: bool = knob(
        True,
        "input-hardening guard (malformed/late/duplicate bursts degrade or "
        "quarantine the offending node instead of crashing; guard events "
        "join the stream and alerts carry the node health state); retired "
        "as a switch: every tick loop guards, so disabling it is rejected",
    )
    replicate: int = knob(
        0,
        "replicate the trained fleet to N nodes by reference, without "
        "retraining; how load tests reach thousands of nodes, 0 = off",
        metavar="N",
    )
    model_path: str | None = knob(
        None,
        "fleet model .npz: loaded if present (skips retraining, validated "
        "against this run's geometry), written after training otherwise",
        flag="model",
    )
    cache_dir: str | None = knob(
        None,
        "content-addressed artifact cache; re-runs replay the cached .npz "
        "segments instead of regenerating",
    )

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if not 0.0 < self.train_frac < 1.0:
            raise ValueError("train_frac must be in (0, 1)")
        if self.chunk < 1:
            raise ValueError("chunk must be >= 1")
        if self.open_after < 1 or self.close_after < 1:
            raise ValueError("open_after and close_after must be >= 1")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ValueError("min_confidence must be in [0, 1]")
        if self.backend != "fused":
            raise ValueError(
                f"backend {self.backend!r} is retired: the fused tick "
                "arena is the only tick path (backend must be 'fused')"
            )
        if not self.guard:
            raise ValueError(
                "guard=False is retired: every tick loop guards its input "
                "(guard must be True)"
            )
        if self.mode not in SIGNATURE_MODES:
            raise ValueError(
                f"mode must be one of {SIGNATURE_MODES}, got {self.mode!r}"
            )
        if self.replicate < 0:
            raise ValueError("replicate must be >= 0 (0 = off)")

    @property
    def noise_seed(self) -> int:
        """Noise RNG seed: 11 when noise is on (the CLI's convention)."""
        return 11 if self.noise_std else 0

    @classmethod
    def smoke(cls, **overrides) -> "ServiceConfig":
        """The seconds-scale ``--smoke`` preset CI exercises."""
        smoke = dict(nodes=2, t=2500, blocks=8, trees=6, chunk=200)
        smoke.update(overrides)
        return cls(**smoke)

    @classmethod
    def from_evaluation(cls, ev: Mapping[str, Any], **overrides) -> "ServiceConfig":
        """Config from a scenario spec's ``evaluation`` dict.

        Only keys naming :class:`ServiceConfig` fields are consumed
        (evaluation dicts carry kind-specific extras like ``kills`` or
        ``fleet_sizes`` that the caller interprets itself).
        """
        names = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in ev.items() if k in names}
        kwargs.update(overrides)
        return cls(**kwargs)

    def replace(self, **changes) -> "ServiceConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)


def build_context(config: ServiceConfig):
    """An :class:`~repro.scenarios.cache.ExecutionContext` honouring
    ``config.cache_dir`` (imported lazily — the scenario cache pulls in
    the full scenario stack)."""
    from repro.scenarios.cache import ArtifactCache, ExecutionContext

    store = ArtifactCache(config.cache_dir) if config.cache_dir else None
    return ExecutionContext(store)


def build_setup(
    config: ServiceConfig,
    *,
    recipes: Sequence | None = None,
    context=None,
) -> FleetReplaySetup:
    """Materialize + train the fleet a config describes.

    ``recipes`` overrides the config's generated fleet (the scenario
    evaluations pass their spec's datasets); ``config.replicate`` > 0
    replicates the trained fleet to that many nodes afterwards.
    """
    if context is None:
        context = build_context(config)
    if recipes is None:
        recipes = fleet_recipes(
            config.nodes,
            segment=config.segment,
            t=config.t,
            seed0=config.seed,
            noise_std=config.noise_std,
            noise_seed=config.noise_seed,
        )
    setup = prepare_fleet(recipes, config, context=context)
    if config.replicate:
        setup = replicate_setup(setup, config.replicate)
    return setup


def replicate_setup(setup: FleetReplaySetup, nodes: int) -> FleetReplaySetup:
    """Scale a trained fleet to ``nodes`` nodes by reference.

    Replica ``i`` is named ``rack<i>/node00`` and shares base node
    ``sorted(bases)[i % len(bases)]``'s trained CS model, healthy
    reference, held-out matrix and ground truth — all by reference, so
    a thousand-node fleet costs a thousand dict entries, not a thousand
    trainings.  Everything downstream (detector, guard, server, replay)
    treats the replicas as ordinary independent nodes.
    """
    from repro.engine.fleet import FleetSignatureEngine

    if nodes < 1:
        raise ValueError("replicate_setup needs nodes >= 1")
    bases = sorted(setup.eval_data)
    engine0 = setup.trained.engine
    engine = FleetSignatureEngine(
        blocks="all" if engine0.blocks is None else engine0.blocks,
        wl=engine0.wl,
        ws=engine0.ws,
    )
    references: dict = {}
    eval_data: dict = {}
    truth: dict = {}
    for i in range(nodes):
        base = bases[i % len(bases)]
        path = node_path(i, 0)
        engine.set_model(path, engine0.model(base))
        references[path] = setup.trained.references[base]
        eval_data[path] = setup.eval_data[base]
        truth[path] = setup.truth[base]
    trained = TrainedFleet(
        engine=engine,
        classifier=setup.trained.classifier,
        references=references,
        label_names=setup.trained.label_names,
        healthy_label=setup.trained.healthy_label,
    )
    return FleetReplaySetup(
        trained=trained,
        eval_data=eval_data,
        truth=truth,
        wl=setup.wl,
        ws=setup.ws,
    )


def fleet_detector(
    config: ServiceConfig,
    trained: TrainedFleet,
    *,
    record_history: bool = False,
    max_chunk: int | None = None,
) -> FleetFaultDetector:
    """The one mapping from service knobs to a detector.

    ``max_chunk`` sizes the tick arena (default ``config.chunk``; the
    store replayer passes its largest partition block), and
    ``record_history`` keeps the per-window predictions a replay
    scores.
    """
    return FleetFaultDetector(
        trained,
        open_after=config.open_after,
        close_after=config.close_after,
        min_confidence=config.min_confidence,
        top_blocks=config.top_blocks,
        record_history=record_history,
        mode=config.mode,
        max_chunk=config.chunk if max_chunk is None else max_chunk,
    )


def build_detector(
    config: ServiceConfig,
    setup: FleetReplaySetup | None = None,
    *,
    record_history: bool = False,
) -> GuardedDetector:
    """The configured detector behind its input guard.

    The network server and :func:`replay` (with
    ``record_history=True``, which its scoring reads) both build their
    detector here and drive the same :class:`~repro.service.servecore.
    ServeCore`, which is what makes the two byte-comparable.
    """
    if setup is None:
        setup = build_setup(config)
    return GuardedDetector(
        fleet_detector(config, setup.trained, record_history=record_history)
    )


def _server_checkpoint(
    config: ServiceConfig,
    setup: FleetReplaySetup,
    path: str | Path,
    every: int,
) -> ServerCheckpoint:
    """The serving core's checkpoint writer, pinned to this setup's
    lineage fingerprint and the config's tick size."""
    return ServerCheckpoint(
        path=path,
        every=every,
        fingerprint=fleet_fingerprint(setup.trained),
        chunk=config.chunk,
    )


class _InterruptFlag:
    """SIGINT-to-flag bridge for graceful tick-boundary shutdown.

    Installed around the replay loop (main thread only — elsewhere the
    context is a no-op and Ctrl-C behaves as before): the *first*
    SIGINT raises this flag so the loop finishes the in-flight tick,
    writes a final checkpoint and flushes open alerts; a *second*
    SIGINT falls through to the previous handler (normally
    ``KeyboardInterrupt``) for operators who really mean it.
    """

    def __init__(self):
        self.triggered = False
        self._previous = None
        self._installed = False

    def _handle(self, signum, frame):
        if self.triggered and callable(self._previous):
            self._previous(signum, frame)
        self.triggered = True

    def __enter__(self):
        if threading.current_thread() is threading.main_thread():
            try:
                self._previous = signal.signal(signal.SIGINT, self._handle)
                self._installed = True
            except (ValueError, OSError):  # pragma: no cover - exotic host
                self._installed = False
        return self

    def __exit__(self, *exc):
        if self._installed:
            signal.signal(signal.SIGINT, self._previous)
        return False


class _EventLog(AlertSink):
    """The stream a replay scores; ``flush`` events are sink-only."""

    def __init__(self):
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        if event["event"] != "flush":
            self.events.append(event)


def replay(
    config: ServiceConfig,
    setup: FleetReplaySetup | None = None,
    *,
    sinks: Sequence[AlertSink] = (),
    chaos: ChaosConfig | None = None,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int = 0,
    resume: bool = False,
    stop_after: int | None = None,
) -> ReplayOutcome:
    """Replay a config's held-out feed through the serving core.

    This is ``repro detect`` without ``--from-store``.  The held-out
    period is fed in ``config.chunk``-sample ticks through a
    :class:`~repro.service.servecore.ServeCore`: each tick becomes one
    :class:`~repro.service.protocol.Frame` per node from one in-memory
    sender, and the core fires it in virtual time with the routing,
    tick barrier, guard, tick function and checkpoint writer of the
    network server (:mod:`repro.service.net`).  Events stream into
    ``sinks`` as they fire (and are closed at the end) and are retained
    on the outcome, which scores them against the ground truth.  Guard
    events join the stream and every alert event carries the node's
    ``health`` state.  A first SIGINT stops the loop at the next tick
    boundary: a final checkpoint is written, open alerts are flushed
    into the sinks and the outcome reports ``interrupted``.

    Per-run knobs (not part of the service configuration proper):

    * ``chaos`` — a :class:`~repro.service.chaos.ChaosConfig` perturbs
      each tick's frames through the deterministic injector: a dropped
      frame leaves a hole the barrier breaks after its (virtual)
      deadline, a duplicate replaces the queued frame, a reordered one
      arrives with an old tick and is dropped as late, and corrupted
      values reach the guard.
    * ``checkpoint_path``/``checkpoint_every`` — the core's checkpoint
      every N ticks (0: only at shutdown).  ``resume`` restores it
      first, re-emits the checkpointed event prefix into the fresh
      sinks and feeds only the remaining ticks — byte-identical alert
      JSONL to an uninterrupted run.  ``stop_after=k`` stops before
      tick ``k`` without a final checkpoint (the test harness's
      simulated crash).
    """
    if (checkpoint_every or resume) and checkpoint_path is None:
        raise ValueError(
            "checkpoint_every/resume require a checkpoint_path"
        )
    if setup is None:
        setup = build_setup(config)
    guarded = build_detector(config, setup, record_history=True)
    checkpoint = None
    if checkpoint_path is not None:
        checkpoint = _server_checkpoint(
            config, setup, checkpoint_path, checkpoint_every or sys.maxsize
        )
        if resume and not checkpoint.path.exists():
            raise CheckpointError(
                f"{checkpoint.path}: checkpoint file does not exist",
                field="path",
            )
    log = _EventLog()
    core = ServeCore(guarded, sinks=(*sinks, log), checkpoint=checkpoint)
    if resume:
        core.recover()
    # One sender that never leaves, so the barrier never drains early.
    core.connect(object())
    injector = ChaosInjector(chaos) if chaos is not None else None
    chunk = config.chunk
    horizon = max(m.shape[1] for m in setup.eval_data.values())
    end = -(-horizon // chunk)
    if stop_after is not None:
        end = min(end, stop_after)
    interrupted = final = False
    now = 0.0
    start = time.perf_counter()
    try:
        with _InterruptFlag() as stop_flag:
            for ti in range(core.cursor, end):
                if stop_flag.triggered:
                    # Ctrl-C lands *between* ticks: the in-flight tick
                    # has fully committed, so the final checkpoint and
                    # flush in close() cannot drop it.
                    break
                lo = ti * chunk
                burst = {
                    p: m[:, lo : lo + chunk]
                    for p, m in setup.eval_data.items()
                    if lo < m.shape[1]
                }
                deliveries = (
                    injector.deliveries(ti, burst)
                    if injector is not None
                    else ((ti, burst),)
                )
                for tick, delivered in deliveries:
                    for path, values in delivered.items():
                        core.feed(Frame(path, tick, values))
                # A tick with a hole waits out its barrier deadline;
                # math.inf means nothing of it was queued at all.
                while core.cursor <= ti:
                    wake = core.poll(now)
                    if wake == math.inf:
                        break
                    now = wake
            interrupted = stop_flag.triggered
        replay_time = time.perf_counter() - start
        final = stop_after is None or interrupted
    finally:
        core.close(checkpoint=final, interrupted=interrupted)
    detector = guarded.inner
    events = log.events
    accuracy, precision, recall = score_events(events, setup, detector)
    return ReplayOutcome(
        events=events,
        n_nodes=setup.n_nodes,
        n_windows=sum(
            detector.windows_seen(p) for p in detector.paths
        ),
        n_alerts=sum(e["event"] == "open" for e in events),
        n_events=len(events),
        window_accuracy=accuracy,
        alert_precision=precision,
        episode_recall=recall,
        replay_time_s=replay_time,
        health=guarded.fleet_health(),
        chaos_stats=dict(injector.stats) if injector is not None else None,
        interrupted=interrupted,
    )


def serve(
    config: ServiceConfig,
    setup: FleetReplaySetup | None = None,
    options: ServeOptions | None = None,
    *,
    sinks: Sequence[AlertSink] = (),
):
    """Run the network-facing ingestion server for a config (blocking).

    Serves :func:`build_detector`'s detector on a
    :class:`repro.service.net.FleetServer` with ``options`` and returns
    the final stats payload.  ``options.wal``/``options.checkpoint``
    switch on crash durability; the checkpoint is pinned to this
    setup's lineage fingerprint, so a restart with the same flags
    restores and replays to the exact crash state.
    """
    from repro.service.net import FleetServer

    options = options or ServeOptions()
    if setup is None:
        setup = build_setup(config)
    checkpoint = None
    if options.checkpoint is not None:
        checkpoint = _server_checkpoint(
            config, setup, options.checkpoint, options.checkpoint_every
        )
    server = FleetServer(
        build_detector(config, setup), options, sinks=sinks, checkpoint=checkpoint
    )
    server.run()
    return server.stats.snapshot()
