"""The replay driver's data side: fleets, held-out feeds and scoring.

The replay driver is how the service is tested, benchmarked and CI-gated.
This module materializes a fleet from dataset recipes (through an
:class:`~repro.scenarios.cache.ExecutionContext`, so repeated runs load
the cached ``.npz`` segments instead of regenerating), trains it on the
leading ``train_frac`` of each node's history, and scores an alert
stream against the injected ground truth.
:func:`repro.service.api.replay` feeds the remaining samples as
fixed-size tick frames through the network server's
:class:`~repro.service.servecore.ServeCore` — the one tick loop — and
:func:`repro.service.fastreplay.replay_from_store` re-drives a recorded
feed; both score with :func:`score_events`.

Everything downstream of the recipes is a pure function of declarative
inputs, so two replays of the same setup — in the same process or across
processes — produce **byte-identical** alert JSONL.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.datasets.generators import ComponentData
from repro.datasets.recipes import DatasetRecipe, recipe
from repro.datasets.windows import window_majority_labels
from repro.service.classify import TrainedFleet, train_fleet
from repro.service.detector import FleetFaultDetector
from repro.service.model_store import load_fleet_npz, save_fleet_npz

if TYPE_CHECKING:
    from repro.scenarios.cache import ExecutionContext
    from repro.service.api import ServiceConfig

__all__ = [
    "FleetReplaySetup",
    "ReplayOutcome",
    "fleet_recipes",
    "node_path",
    "prepare_fleet",
    "score_events",
]


def node_path(rack: int, node: int) -> str:
    """Sensor-tree style path of one monitored node (``rack0/node03``)."""
    return f"rack{rack}/node{node:02d}"


def fleet_recipes(
    nodes: int,
    *,
    segment: str = "fault",
    t: int = 6000,
    seed0: int = 0,
    noise_std: float = 0.0,
    drift: float = 0.0,
    noise_seed: int = 0,
) -> tuple[DatasetRecipe, ...]:
    """Recipes for an ``nodes``-strong fault fleet.

    Each node is one independently seeded segment (seeds ``seed0 ..
    seed0 + nodes - 1``): same fault models and sensor bank layout,
    different workload schedules and fault episodes — a homogeneous fleet
    under heterogeneous load, which is the realistic serving scenario.
    """
    if nodes < 1:
        raise ValueError("a fleet needs at least one node")
    return tuple(
        recipe(
            segment,
            t=int(t),
            seed=seed0 + i,
            noise_std=noise_std,
            drift=drift,
            noise_seed=noise_seed,
            label=f"{segment}#n{i}",
        )
        for i in range(nodes)
    )


@dataclass
class FleetReplaySetup:
    """A trained fleet plus the held-out data to replay through it."""

    trained: TrainedFleet
    eval_data: dict[str, np.ndarray]
    truth: dict[str, np.ndarray]
    wl: int
    ws: int

    @property
    def n_nodes(self) -> int:
        return len(self.eval_data)

    @property
    def n_windows(self) -> int:
        return sum(int(t.shape[0]) for t in self.truth.values())


def prepare_fleet(
    recipes: Sequence[DatasetRecipe],
    config: ServiceConfig,
    *,
    context: ExecutionContext | None = None,
    wl: int | None = None,
    ws: int | None = None,
) -> FleetReplaySetup:
    """Materialize, split and train a fleet from dataset recipes.

    Every component of every recipe's segment becomes one node
    (``rack<recipe>/node<component>``).  The leading
    ``config.train_frac`` of each node's history trains its CS model
    (``config.blocks`` long) and the shared classifier
    (``config.trees`` trees, seeded with ``config.seed``); the remainder
    is the held-out period :func:`repro.service.api.replay` feeds
    through the detector, with per-window majority labels as ground
    truth.  ``wl``/``ws`` override the segments' window geometry.

    ``config.healthy_label`` is the class meaning "no fault" — 0 for
    the fault segment's ``healthy`` class.  Set the right class
    explicitly when replaying other labeled segments; otherwise class 0
    (a real workload class there) would silently be treated as healthy.

    ``config.model_path`` makes fleet training skippable: when the file
    exists it is loaded (validated against this run's ``blocks``/``wl``/
    ``ws`` and node set — mismatches raise instead of silently
    mis-detecting), otherwise the freshly trained fleet is saved there
    for next time.  Loaded fleets replay to byte-identical alert
    streams.
    """
    if not recipes:
        raise ValueError("prepare_fleet needs at least one recipe")
    if not context:
        from repro.scenarios.cache import ExecutionContext

        context = ExecutionContext()
    train: dict[str, ComponentData] = {}
    eval_data: dict[str, np.ndarray] = {}
    raw_eval_labels: dict[str, np.ndarray] = {}
    label_names: tuple[str, ...] = ()
    for rack, rcp in enumerate(recipes):
        segment = context.segment(rcp)
        seg_wl = segment.spec.wl if wl is None else int(wl)
        seg_ws = segment.spec.ws if ws is None else int(ws)
        if not label_names:
            label_names = segment.label_names
        for ci, comp in enumerate(segment.components):
            if comp.labels is None:
                raise ValueError(
                    f"recipe {rcp.display!r} component {comp.name!r} has no "
                    "labels; fleet detection needs a labeled segment"
                )
            path = node_path(rack, ci)
            cut = int(comp.t * config.train_frac)
            cut = max(seg_wl + seg_ws, min(cut, comp.t - seg_wl - seg_ws))
            train[path] = ComponentData(
                name=path,
                matrix=comp.matrix[:, :cut],
                sensor_names=comp.sensor_names,
                sensor_groups=comp.sensor_groups,
                labels=comp.labels[:cut],
                arch=comp.arch,
            )
            eval_data[path] = comp.matrix[:, cut:]
            raw_eval_labels[path] = comp.labels[cut:]
        wl, ws = seg_wl, seg_ws  # uniform across the fleet from here on
    model_file = (
        Path(config.model_path) if config.model_path is not None else None
    )
    if model_file is not None and model_file.exists():
        trained = load_fleet_npz(
            model_file,
            expect_blocks=config.blocks,
            expect_wl=wl,
            expect_ws=ws,
            expect_paths=sorted(eval_data),
        )
    else:
        trained = train_fleet(
            train,
            blocks=config.blocks,
            wl=wl,
            ws=ws,
            trees=config.trees,
            seed=config.seed,
            healthy_label=int(config.healthy_label),
            label_names=label_names,
        )
        if model_file is not None:
            save_fleet_npz(trained, model_file)
    truth = {
        p: window_majority_labels(raw_eval_labels[p], wl, ws).astype(np.intp)
        for p in sorted(eval_data)
    }
    return FleetReplaySetup(
        trained=trained, eval_data=eval_data, truth=truth, wl=wl, ws=ws
    )


@dataclass
class ReplayOutcome:
    """Scored result of one replay run.

    ``events`` holds the full alert stream (without the sink-only
    ``flush`` events of an interrupted run); ``n_events`` counts it.
    """

    events: list[dict]
    n_nodes: int
    n_windows: int
    n_alerts: int
    window_accuracy: float
    alert_precision: float
    episode_recall: float
    replay_time_s: float
    n_events: int = 0
    #: :meth:`~repro.service.guard.GuardedDetector.fleet_health` payload
    #: of the final tick (``None`` for a store replay, which re-validates
    #: nothing).
    health: dict | None = None
    #: :class:`~repro.service.chaos.ChaosInjector` delivery statistics,
    #: when the replay ran under fault injection.
    chaos_stats: dict | None = None
    #: True when the replay was stopped by SIGINT at a tick boundary
    #: (open alerts were flushed into the sinks, and a final checkpoint
    #: was written when checkpointing was active).
    interrupted: bool = False

    @property
    def windows_per_s(self) -> float:
        if self.replay_time_s <= 0.0:
            return 0.0
        return self.n_windows / self.replay_time_s

    def row(self, fleet_label: str) -> tuple:
        """The summary row both ``repro detect`` and the ``fleet-contract``
        scenario kind report (column order of ``FLEET_DETECT_HEADERS``)."""
        return (
            fleet_label,
            self.n_nodes,
            self.n_windows,
            self.n_alerts,
            round(self.window_accuracy, 4),
            round(self.alert_precision, 4),
            round(self.episode_recall, 4),
            round(self.replay_time_s, 4),
            round(self.windows_per_s, 1),
        )


def _episodes(truth: np.ndarray, healthy: int) -> list[tuple[int, int]]:
    """Contiguous faulty runs ``[start, stop)`` in window space."""
    faulty = np.asarray(truth) != healthy
    if faulty.size == 0:
        return []
    edges = np.flatnonzero(np.diff(faulty.astype(np.int8)))
    bounds = np.concatenate(([0], edges + 1, [faulty.size]))
    return [
        (int(a), int(b))
        for a, b in zip(bounds[:-1], bounds[1:])
        if faulty[a]
    ]


def _alert_spans(
    events: Iterable[dict], path: str, n_windows: int
) -> list[tuple[int, int]]:
    """``[first_faulty, close)`` spans of one node's alerts."""
    spans = []
    open_start: int | None = None
    for event in events:
        if event.get("node") != path:
            continue
        if event["event"] == "open":
            open_start = int(event["first_faulty"])
        elif event["event"] == "close" and open_start is not None:
            spans.append((open_start, int(event["window"]) + 1))
            open_start = None
    if open_start is not None:  # still open at end of replay
        spans.append((open_start, n_windows))
    return spans


def score_events(
    events: list[dict],
    setup: FleetReplaySetup,
    detector: FleetFaultDetector,
) -> tuple[float, float, float]:
    """(window accuracy, alert precision, episode recall) of one replay.

    * window accuracy — per-window predicted class vs ground truth,
      pooled over all nodes;
    * alert precision — fraction of alert spans overlapping a true
      faulty episode (an alert on healthy windows is a false page);
    * episode recall — fraction of injected faulty episodes touched by
      at least one alert span.
    """
    healthy = setup.trained.healthy_label
    correct = 0
    total = 0
    true_positive_alerts = 0
    total_alerts = 0
    detected_episodes = 0
    total_episodes = 0
    for path in sorted(setup.eval_data):
        truth = setup.truth[path]
        predicted = np.asarray(detector.history[path][0], dtype=np.intp)
        n = min(truth.shape[0], predicted.shape[0])
        correct += int((predicted[:n] == truth[:n]).sum())
        total += n
        episodes = _episodes(truth[:n], healthy)
        spans = _alert_spans(events, path, n)
        total_alerts += len(spans)
        total_episodes += len(episodes)
        for a, b in spans:
            if any(a < e_stop and e_start < b for e_start, e_stop in episodes):
                true_positive_alerts += 1
        for e_start, e_stop in episodes:
            if any(a < e_stop and e_start < b for a, b in spans):
                detected_episodes += 1
    accuracy = correct / total if total else 0.0
    precision = (
        true_positive_alerts / total_alerts if total_alerts else 1.0
    )
    recall = detected_episodes / total_episodes if total_episodes else 1.0
    return accuracy, precision, recall
