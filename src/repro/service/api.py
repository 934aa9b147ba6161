"""The service facade: one frozen config, three verbs.

Before this module, constructing the detection service meant threading
~20 loose keyword arguments through ``cli.py`` → ``fleet_recipes`` →
``prepare_fleet`` → ``replay`` (and every scenario evaluation repeated
the same plumbing).  The facade collapses that into:

* :class:`ServiceConfig` — a frozen, validated dataclass holding every
  service knob (fleet shape, training, detection, alerting),
  with the same defaults as ``repro.service.replay.SERVICE_DEFAULTS``
  and the CLI presets;
* :func:`build_setup` / :func:`build_detector` — materialize the
  trained fleet and the guarded detector from a config;
* :func:`replay` / :func:`serve` — drive the serving core from memory
  or run the network-facing ingestion server against a config;
* :func:`replicate_setup` — scale a trained fleet to N nodes by
  replicating models/data by reference (no retraining, near-zero extra
  memory), which is how the load benchmarks reach thousands of nodes.

``cli.py`` and ``repro.scenarios.evaluations`` both consume this module
instead of re-plumbing kwargs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.engine.hotpath import SIGNATURE_MODES
from repro.service.classify import TrainedFleet
from repro.service.detector import FleetFaultDetector
from repro.service.guard import GuardedDetector
from repro.service.knobs import knob
from repro.service.replay import (
    SERVICE_DEFAULTS,
    FleetReplaySetup,
    ReplayOutcome,
    fleet_recipes,
    node_path,
    prepare_fleet,
)
from repro.service.replay import replay as _replay_loop

__all__ = [
    "ServiceConfig",
    "build_context",
    "build_detector",
    "build_setup",
    "replay",
    "replicate_setup",
    "serve",
]

@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of the online detection service, validated once.

    Field groups (defaults match ``SERVICE_DEFAULTS`` + the CLI
    presets, so a default-constructed config reproduces ``repro detect``
    with no flags byte-for-byte):

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

    # The fleet shape of the full-size preset; the knob defaults come
    # from ``SERVICE_DEFAULTS``.
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
    blocks: int = knob(SERVICE_DEFAULTS["blocks"], "signature length l")
    trees: int = knob(
        SERVICE_DEFAULTS["trees"], "shared fault-classifier forest size"
    )
    train_frac: float = knob(
        SERVICE_DEFAULTS["train_frac"],
        "leading fraction of each node's history used for training",
    )
    chunk: int = knob(
        SERVICE_DEFAULTS["chunk"],
        "samples per ingested burst (one tick)",
    )
    open_after: int = knob(
        SERVICE_DEFAULTS["open_after"],
        "consecutive faulty windows before an alert opens",
    )
    close_after: int = knob(
        SERVICE_DEFAULTS["close_after"],
        "consecutive healthy windows before an open alert closes",
    )
    min_confidence: float = knob(
        SERVICE_DEFAULTS["min_confidence"],
        "faulty predictions below this confidence are treated as healthy",
    )
    top_blocks: int = knob(
        SERVICE_DEFAULTS["top_blocks"],
        "deviating signature blocks attributed per opening alert",
    )
    seed: int = knob(
        SERVICE_DEFAULTS["seed"],
        "base seed: node i uses seed+i for generation, and the classifier "
        "forest uses it directly",
    )
    healthy_label: int = knob(
        SERVICE_DEFAULTS["healthy_label"],
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

    def policy_kwargs(self) -> dict:
        """The alert-policy knobs, as ``replay()`` keyword arguments."""
        return {
            "open_after": self.open_after,
            "close_after": self.close_after,
            "min_confidence": self.min_confidence,
            "top_blocks": self.top_blocks,
        }

    def replay_kwargs(self) -> dict:
        """The tick-loop knobs, as ``repro.service.replay.replay``
        keyword arguments."""
        return {"chunk": self.chunk, "mode": self.mode, **self.policy_kwargs()}


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
    setup = prepare_fleet(
        recipes,
        context=context,
        blocks=config.blocks,
        trees=config.trees,
        train_frac=config.train_frac,
        seed=config.seed,
        healthy_label=config.healthy_label,
        model_path=config.model_path,
    )
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


def build_detector(
    config: ServiceConfig,
    setup: FleetReplaySetup | None = None,
    *,
    record_history: bool = False,
) -> GuardedDetector:
    """The configured detector behind its input guard.

    This is the construction path the network server uses.  ``replay``
    builds the same detector (with ``record_history=True``, which its
    scoring reads) and drives the same :class:`~repro.service.
    servecore.ServeCore`, which is what makes the two byte-comparable.
    """
    if setup is None:
        setup = build_setup(config)
    detector = FleetFaultDetector(
        setup.trained,
        open_after=config.open_after,
        close_after=config.close_after,
        min_confidence=config.min_confidence,
        top_blocks=config.top_blocks,
        record_history=record_history,
        mode=config.mode,
        max_chunk=config.chunk,
    )
    return GuardedDetector(detector)


def replay(
    config: ServiceConfig,
    setup: FleetReplaySetup | None = None,
    **runtime,
) -> ReplayOutcome:
    """Replay a config's held-out feed through the serving core.

    This is ``repro detect`` without ``--from-store``.  ``runtime``
    passes through the per-run knobs that are not part of the service
    configuration proper (``sinks``, ``chaos``, ``checkpoint_path`` /
    ``checkpoint_every`` / ``resume`` / ``stop_after``).  The outcome
    always carries the full event stream and its ground-truth scores.
    """
    if setup is None:
        setup = build_setup(config)
    return _replay_loop(setup, **config.replay_kwargs(), **runtime)


def serve(
    config: ServiceConfig,
    setup: FleetReplaySetup | None = None,
    *,
    listen: str = "127.0.0.1:0",
    ops: str | None = None,
    wal_dir: str | Path | None = None,
    wal_fsync: str = "tick",
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int = 1,
    **server_kwargs,
):
    """Run the network-facing ingestion server for a config (blocking).

    Builds the guarded detector via :func:`build_detector` and hands it
    to :class:`repro.service.net.FleetServer`; returns the final stats
    payload.  ``server_kwargs`` pass through (``sinks``,
    ``backpressure``, ``exit_on_idle``, ``port_file``, ...).

    ``wal_dir``/``checkpoint_path`` switch on crash durability: frames
    are journaled (``repro-wal/v1``, fsync policy ``wal_fsync``) and
    detector + routing state snapshotted every ``checkpoint_every``
    ticks, pinned to this setup's lineage fingerprint — a restart with
    the same flags restores and replays to the exact crash state.
    """
    from repro.service.checkpoint import fleet_fingerprint
    from repro.service.net import FleetServer, parse_address
    from repro.service.servecore import ServerCheckpoint

    if setup is None:
        setup = build_setup(config)
    host, port = parse_address(listen)
    ops_addr = parse_address(ops) if ops else None
    checkpoint = None
    if checkpoint_path is not None:
        checkpoint = ServerCheckpoint(
            path=Path(checkpoint_path),
            every=int(checkpoint_every),
            fingerprint=fleet_fingerprint(setup.trained),
            chunk=config.chunk,
        )
    server = FleetServer(
        build_detector(config, setup),
        host=host,
        port=port,
        ops_host=ops_addr[0] if ops_addr else None,
        ops_port=ops_addr[1] if ops_addr else None,
        wal=wal_dir,
        wal_fsync=wal_fsync,
        checkpoint=checkpoint,
        **server_kwargs,
    )
    server.run()
    return server.stats.snapshot()
