"""Generic evaluation strategies executed by the scenario runner.

Each strategy ("kind") interprets a :class:`ScenarioSpec` — its dataset
recipes, method grid and ``evaluation`` parameters — and drives the
existing engine/harness/ML layers, returning a :class:`ScenarioResult`.
The seven paper reproductions and all extended scenarios are expressed
as specs over these nine kinds; registering a *new* scenario requires
no new runner code, only a new spec.

Domain helpers that predate the registry (``segment_js_divergence``,
``application_heatmaps``, ``segment_summary``, ...) stay in their
``repro.experiments`` modules and are imported lazily here, because the
experiment modules import the scenario machinery at module level for
their thin CLI shims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.experiments.harness import (
    evaluate_windowed_dataset,
    method_display_name,
    run_fleet_on_segment,
)
from repro.scenarios.cache import ExecutionContext
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "FLEET_CHAOS_HEADERS",
    "FLEET_DETECT_HEADERS",
    "FLEET_REPLAY_HEADERS",
    "FLEET_SERVE_CHAOS_HEADERS",
    "FLEET_SERVE_HEADERS",
    "GRID_HEADERS",
    "LENGTH_SWEEP_HEADERS",
    "TIMING_HEADERS",
    "ScenarioResult",
    "evaluation",
    "evaluation_kinds",
    "get_evaluation",
]

#: Columns of the (segment, method) score grids — Figure 3's layout.
GRID_HEADERS: tuple[str, ...] = (
    "Segment",
    "Method",
    "Sig. size",
    "Gen time [s]",
    "CV time [s]",
    "ML score",
    "Std",
)

#: Columns of the signature-length sweeps — Figure 4's layout.
LENGTH_SWEEP_HEADERS: tuple[str, ...] = (
    "Segment",
    "l",
    "Real only",
    "JS divergence",
    "ML score",
    "Sig. size",
)

#: Columns of the single-signature timing sweeps — Figure 5's layout.
TIMING_HEADERS: tuple[str, ...] = ("Axis", "Method", "wl", "n", "Median time [s]")

FLEET_HEADERS: tuple[str, ...] = (
    "Dataset",
    "Nodes",
    "Signatures",
    "Fit [s]",
    "Transform [s]",
    "Sig/s",
)

#: Columns of the online fleet fault-detection replays (repro.service).
FLEET_DETECT_HEADERS: tuple[str, ...] = (
    "Fleet",
    "Nodes",
    "Windows",
    "Alerts",
    "Window acc",
    "Precision",
    "Recall",
    "Replay [s]",
    "Win/s",
)

#: Columns of the store-replay equivalence drills (fleet-replay).
FLEET_REPLAY_HEADERS: tuple[str, ...] = (
    "Run",
    "Nodes",
    "Windows",
    "Alerts",
    "Window acc",
    "Replay [s]",
    "Win/s",
    "Speedup",
    "Identical",
)

#: Columns of the network-serving equivalence drills (fleet-serve).
FLEET_SERVE_HEADERS: tuple[str, ...] = (
    "Run",
    "Nodes",
    "Ticks",
    "Events",
    "Samples/s",
    "p50 [ms]",
    "p99 [ms]",
    "Identical",
)

#: Columns of the chaos-proxy network serving drills (fleet-serve-chaos).
FLEET_SERVE_CHAOS_HEADERS: tuple[str, ...] = (
    "Run",
    "Nodes",
    "Ticks",
    "Events",
    "Reconnects",
    "Resent frames",
    "Corrupted",
    "Resets",
    "Identical",
)

#: Columns of the chaos-injection robustness drills (fleet-detect-chaos).
FLEET_CHAOS_HEADERS: tuple[str, ...] = (
    "Run",
    "Nodes",
    "Windows",
    "Alerts",
    "Events",
    "Faults injected",
    "Blocks dropped",
    "Precision",
    "Recall",
    "Resume identical",
)


@dataclass
class ScenarioResult:
    """Outcome of one scenario execution.

    ``headers``/``rows``/``title``/``notes`` feed the pluggable sinks;
    ``artifacts`` maps relative file names to uint8 images the runner
    writes as PGM; ``extras`` carries the domain objects the legacy
    per-figure APIs return.
    """

    spec: ScenarioSpec
    title: str
    headers: tuple[str, ...]
    rows: list[tuple]
    notes: list[str] = field(default_factory=list)
    artifacts: dict[str, np.ndarray] = field(default_factory=dict)
    artifact_paths: list = field(default_factory=list)
    extras: dict[str, Any] = field(default_factory=dict)
    wall_time_s: float = 0.0
    cache_stats: dict[str, int] = field(default_factory=dict)


_EVALUATIONS: dict[
    str, Callable[[ScenarioSpec, ExecutionContext], ScenarioResult]
] = {}


def evaluation(kind: str):
    """Register an evaluation strategy under ``kind``."""

    def decorate(fn):
        _EVALUATIONS[kind] = fn
        return fn

    return decorate


def get_evaluation(kind: str):
    try:
        return _EVALUATIONS[kind]
    except KeyError:
        raise KeyError(
            f"unknown evaluation kind {kind!r}; known: {evaluation_kinds()}"
        ) from None


def evaluation_kinds() -> list[str]:
    return sorted(_EVALUATIONS)


# ----------------------------------------------------------------------
# Score grids (Figure 3 and every recipe x method scenario)
# ----------------------------------------------------------------------
@evaluation("grid")
def _run_grid(spec: ScenarioSpec, ctx: ExecutionContext) -> ScenarioResult:
    """(recipe, method) score grid: one ExperimentResult per cell."""
    ev = spec.evaluation_dict()
    trees = int(ev.get("trees", 50))
    repeats = int(ev.get("repeats", 1))
    n_splits = int(ev.get("n_splits", 5))
    seed = int(ev.get("seed", 0))
    real_only = bool(ev.get("real_only", False))
    results = []
    for recipe in spec.datasets:
        for method in spec.methods:
            dataset = ctx.dataset(recipe, method, real_only=real_only)
            results.append(
                evaluate_windowed_dataset(
                    dataset,
                    segment_name=recipe.display,
                    method_name=method_display_name(method, real_only=real_only),
                    trees=trees,
                    n_splits=n_splits,
                    repeats=repeats,
                    seed=seed,
                )
            )
    return ScenarioResult(
        spec=spec,
        title=spec.title,
        headers=GRID_HEADERS,
        rows=[r.row() for r in results],
        extras={"results": results},
    )


# ----------------------------------------------------------------------
# Signature-length sweep (Figure 4)
# ----------------------------------------------------------------------
@evaluation("length-sweep")
def _run_length_sweep(
    spec: ScenarioSpec, ctx: ExecutionContext
) -> ScenarioResult:
    """JS divergence + ML score vs block count, per recipe."""
    from repro.experiments.fig4 import Fig4Point, segment_js_divergence

    ev = spec.evaluation_dict()
    lengths = tuple(ev.get("lengths", (5, 10, 20, 40, "all")))
    with_real_only = bool(ev.get("with_real_only", True))
    trees = int(ev.get("trees", 50))
    seed = int(ev.get("seed", 0))
    bins = int(ev.get("bins", 64))
    points: list[Fig4Point] = []
    for recipe in spec.datasets:
        segment = ctx.segment(recipe)
        for l in lengths:
            for real_only in (False, True) if with_real_only else (False,):
                method = f"cs-{l}"
                js = segment_js_divergence(
                    segment, l, real_only=real_only, bins=bins
                )
                dataset = ctx.dataset(recipe, method, real_only=real_only)
                res = evaluate_windowed_dataset(
                    dataset,
                    segment_name=recipe.display,
                    method_name=method_display_name(method, real_only=real_only),
                    trees=trees,
                    seed=seed,
                )
                points.append(
                    Fig4Point(
                        segment=recipe.display,
                        length=str(l),
                        real_only=real_only,
                        js_divergence=js,
                        ml_score=res.ml_score,
                        signature_size=res.signature_size,
                    )
                )
    return ScenarioResult(
        spec=spec,
        title=spec.title,
        headers=LENGTH_SWEEP_HEADERS,
        rows=[p.row() for p in points],
        extras={"points": points},
    )


# ----------------------------------------------------------------------
# Single-signature timing sweeps (Figure 5; random input matrices)
# ----------------------------------------------------------------------
@evaluation("timing")
def _run_timing(spec: ScenarioSpec, ctx: ExecutionContext) -> ScenarioResult:
    """Median time to compute one signature vs ``wl`` and vs ``n``."""
    from repro.experiments.fig5 import TimingPoint, time_single_signature

    ev = spec.evaluation_dict()
    wl_grid = tuple(ev.get("wl_grid", ()))
    n_grid = tuple(ev.get("n_grid", ()))
    fixed_n = int(ev.get("fixed_n", 100))
    fixed_wl = int(ev.get("fixed_wl", 100))
    repeats = int(ev.get("repeats", 20))
    seed = int(ev.get("seed", 0))

    def blocks_of(name: str) -> int | None:
        if name.lower().startswith("cs-") and name.lower() != "cs-all":
            return int(name[3:])
        return None

    points: list[TimingPoint] = []
    for wl in wl_grid:
        for m in spec.methods:
            b = blocks_of(m)
            if b is not None and b > fixed_n:
                continue
            t = time_single_signature(m, fixed_n, wl, repeats=repeats, seed=seed)
            points.append(TimingPoint("wl", m, int(wl), fixed_n, t))
    for n in n_grid:
        for m in spec.methods:
            b = blocks_of(m)
            if b is not None and b > n:
                continue
            t = time_single_signature(m, n, fixed_wl, repeats=repeats, seed=seed)
            points.append(TimingPoint("n", m, fixed_wl, int(n), t))
    return ScenarioResult(
        spec=spec,
        title=spec.title,
        headers=TIMING_HEADERS,
        rows=[p.row() for p in points],
        extras={"points": points},
    )


# ----------------------------------------------------------------------
# Application signature heatmaps (Figures 2 and 6)
# ----------------------------------------------------------------------
@evaluation("app-heatmap")
def _run_app_heatmap(
    spec: ScenarioSpec, ctx: ExecutionContext
) -> ScenarioResult:
    """Per-application CS signature heatmaps over the stacked node matrix."""
    from repro.experiments.fig6 import application_heatmaps

    ev = spec.evaluation_dict()
    apps = tuple(ev.get("apps", ()))
    blocks = int(ev.get("blocks", 160))
    prefix = str(ev.get("prefix", "fig6"))
    recipe = spec.datasets[0]
    segment = ctx.segment(recipe)
    results = [
        application_heatmaps(segment, app, blocks=blocks) for app in apps
    ]
    artifacts: dict[str, np.ndarray] = {}
    rows = []
    for res in results:
        artifacts[f"{prefix}_{res.app.lower()}_real.pgm"] = res.real_image
        artifacts[f"{prefix}_{res.app.lower()}_imag.pgm"] = res.imag_image
        rows.append(
            (
                res.app,
                res.signatures.shape[0],
                res.signatures.shape[1],
                int(res.boundaries.size),
            )
        )
    return ScenarioResult(
        spec=spec,
        title=spec.title,
        headers=("Application", "Signatures", "Blocks", "Runs"),
        rows=rows,
        artifacts=artifacts,
        extras={"results": results},
    )


# ----------------------------------------------------------------------
# Cross-architecture heatmaps of one application (Figure 7)
# ----------------------------------------------------------------------
@evaluation("arch-heatmap")
def _run_arch_heatmap(
    spec: ScenarioSpec, ctx: ExecutionContext
) -> ScenarioResult:
    """One application's heatmaps on each architecture of a segment."""
    from repro.experiments.fig7 import node_heatmap

    ev = spec.evaluation_dict()
    app = str(ev.get("app", "LAMMPS"))
    blocks = int(ev.get("blocks", 20))
    prefix = str(ev.get("prefix", "fig7"))
    recipe = spec.datasets[0]
    segment = ctx.segment(recipe)
    try:
        label_id = segment.label_names.index(app)
    except ValueError:
        raise KeyError(
            f"unknown application {app!r}; known: {segment.label_names}"
        ) from None
    results = []
    artifacts: dict[str, np.ndarray] = {}
    rows = []
    for comp in segment.components:
        res = node_heatmap(
            comp, label_id, segment.spec.wl, segment.spec.ws, blocks=blocks
        )
        if res is None:
            continue
        results.append(res)
        artifacts[f"{prefix}_{res.arch}_real.pgm"] = res.real_image
        artifacts[f"{prefix}_{res.arch}_imag.pgm"] = res.imag_image
        rows.append((res.arch, res.n_sensors, res.signatures.shape[0]))
    return ScenarioResult(
        spec=spec,
        title=spec.title,
        headers=("Architecture", "Sensors", "Signatures"),
        rows=rows,
        artifacts=artifacts,
        extras={"results": results},
    )


# ----------------------------------------------------------------------
# Merged cross-architecture classification (Section IV-F)
# ----------------------------------------------------------------------
@evaluation("merged-crossarch")
def _run_merged_crossarch(
    spec: ScenarioSpec, ctx: ExecutionContext
) -> ScenarioResult:
    """RF + MLP classification over the merged multi-architecture dataset."""
    from repro.experiments.crossarch import (
        CrossArchResult,
        baseline_signature_lengths,
    )
    from repro.ml.forest import RandomForestClassifier
    from repro.ml.metrics import f1_score
    from repro.ml.mlp import MLPClassifier
    from repro.ml.model_selection import StratifiedKFold
    from repro.ml.preprocessing import StandardScaler

    ev = spec.evaluation_dict()
    blocks = int(ev.get("blocks", 20))
    trees = int(ev.get("trees", 50))
    seed = int(ev.get("seed", 0))
    n_splits = int(ev.get("n_splits", 5))
    mlp_max_iter = int(ev.get("mlp_max_iter", 150))
    recipe = spec.datasets[0]
    segment = ctx.segment(recipe)
    dataset = ctx.dataset(recipe, f"cs-{blocks}")
    X, y = dataset.X, dataset.y.astype(np.intp)
    per_arch = {
        comp.arch: int((dataset.groups == i).sum())
        for i, comp in enumerate(segment.components)
    }
    rf_scores = []
    mlp_scores = []
    splitter = StratifiedKFold(n_splits=n_splits, shuffle=True, random_state=seed)
    for train, test in splitter.split(X, y):
        rf = RandomForestClassifier(trees, random_state=seed).fit(X[train], y[train])
        rf_scores.append(f1_score(y[test], rf.predict(X[test])))
        scaler = StandardScaler().fit(X[train])
        mlp = MLPClassifier(max_iter=mlp_max_iter, random_state=seed)
        mlp.fit(scaler.transform(X[train]), y[train])
        mlp_scores.append(f1_score(y[test], mlp.predict(scaler.transform(X[test]))))
    result = CrossArchResult(
        rf_f1=float(np.mean(rf_scores)),
        mlp_f1=float(np.mean(mlp_scores)),
        n_samples=dataset.n_samples,
        signature_size=dataset.signature_size,
        per_arch_counts=per_arch,
    )
    lengths = baseline_signature_lengths(segment)
    return ScenarioResult(
        spec=spec,
        title=spec.title,
        headers=("Model", "F1 (merged 3-arch dataset)", "Paper"),
        rows=[
            ("Random forest", round(result.rf_f1, 4), 0.995),
            ("MLP", round(result.mlp_f1, 4), 0.992),
        ],
        notes=[
            f"\nSamples: {result.n_samples}  per arch: {result.per_arch_counts}",
            "CS signature size (uniform across architectures): "
            f"{result.signature_size}",
            f"Tuncer signature sizes per architecture (incompatible): {lengths}",
        ],
        extras={"result": result},
    )


# ----------------------------------------------------------------------
# Segment overview (Table I)
# ----------------------------------------------------------------------
@evaluation("segment-summary")
def _run_segment_summary(
    spec: ScenarioSpec, ctx: ExecutionContext
) -> ScenarioResult:
    """One Table I row per recipe."""
    from repro.experiments.table1 import HEADERS, segment_summary

    rows = [segment_summary(ctx.segment(r)) for r in spec.datasets]
    return ScenarioResult(
        spec=spec, title=spec.title, headers=HEADERS, rows=rows
    )


# ----------------------------------------------------------------------
# Fleet-scale batched signature throughput (engine/fleet routing)
# ----------------------------------------------------------------------
@evaluation("fleet")
def _run_fleet(spec: ScenarioSpec, ctx: ExecutionContext) -> ScenarioResult:
    """Batched whole-fleet signature computation per recipe.

    Routes through :class:`repro.engine.fleet.FleetSignatureEngine` via
    the harness, reporting fit/transform wall-clock and throughput —
    the scaling view the per-figure scripts never covered.
    """
    ev = spec.evaluation_dict()
    blocks = ev.get("blocks", "all")
    if isinstance(blocks, str) and blocks != "all":
        blocks = int(blocks)
    shards = ev.get("shards")
    rows = []
    fleet_results = []
    for recipe in spec.datasets:
        segment = ctx.segment(recipe)
        res = run_fleet_on_segment(segment, blocks=blocks, shards=shards)
        fleet_results.append(res)
        total_time = res.fit_time_s + res.transform_time_s
        rows.append(
            (
                recipe.display,
                res.n_nodes,
                res.n_signatures,
                round(res.fit_time_s, 4),
                round(res.transform_time_s, 4),
                round(res.n_signatures / total_time, 1) if total_time > 0 else 0.0,
            )
        )
    return ScenarioResult(
        spec=spec,
        title=spec.title,
        headers=FLEET_HEADERS,
        rows=rows,
        extras={"results": fleet_results},
    )


# ----------------------------------------------------------------------
# Online fleet fault detection (repro.service routing)
# ----------------------------------------------------------------------
@evaluation("fleet-detect")
def _run_fleet_detect(
    spec: ScenarioSpec, ctx: ExecutionContext
) -> ScenarioResult:
    """Deterministic replay through the online detection service.

    Each dataset recipe contributes its components as nodes of one
    fleet; ``fleet_sizes`` (optional) replays growing recipe prefixes so
    a single scenario sweeps fleet scale.  Rows report the alert
    stream's quality against the injected ground truth plus replay
    throughput.  ``mode`` selects the tick arena's signature arithmetic
    (exact or float32 — see
    :class:`repro.service.detector.FleetFaultDetector`).

    Plumbs through the :mod:`repro.service.api` facade: the evaluation
    dict's service keys become one :class:`ServiceConfig` (historically
    this kind ran unguarded, so ``guard`` defaults off here).
    """
    from repro.service.api import ServiceConfig, build_setup
    from repro.service.api import replay as api_replay

    ev = spec.evaluation_dict()
    config = ServiceConfig.from_evaluation(
        ev, guard=bool(ev.get("guard", False))
    )
    sizes = tuple(ev.get("fleet_sizes", ())) or (len(spec.datasets),)
    rows = []
    outcomes = []
    for size in sizes:
        size = int(size)
        if not 1 <= size <= len(spec.datasets):
            raise ValueError(
                f"fleet size {size} outside 1..{len(spec.datasets)} recipes"
            )
        setup = build_setup(
            config, recipes=spec.datasets[:size], context=ctx
        )
        outcome = api_replay(config, setup)
        outcomes.append(outcome)
        rows.append(
            outcome.row(f"{spec.datasets[0].segment}-fleet-{setup.n_nodes}")
        )
    return ScenarioResult(
        spec=spec,
        title=spec.title,
        headers=FLEET_DETECT_HEADERS,
        rows=rows,
        extras={"outcomes": outcomes},
    )


@evaluation("fleet-replay")
def _run_fleet_replay(
    spec: ScenarioSpec, ctx: ExecutionContext
) -> ScenarioResult:
    """Store-replay equivalence drill over the detection service.

    One guarded live replay of the fleet (the per-tick serving loop),
    then the same held-out feed recorded into a ``repro-telestore/v1``
    store and replayed from disk — partition-sized blocks fed straight
    into the detector.  The final column asserts the byte-identity
    contract: the store replay's alert JSONL must serialize
    byte-for-byte equal to the live run's, and the drill raises if it
    does not.  ``Speedup`` is live wall-clock
    over store-replay wall-clock for the identical window.
    """
    import json
    import tempfile
    from pathlib import Path

    from repro.service.fastreplay import record_fleet, replay_from_store
    from repro.service.replay import SERVICE_DEFAULTS, prepare_fleet, replay

    ev = spec.evaluation_dict()

    def param(name: str):
        return ev.get(name, SERVICE_DEFAULTS[name])

    chunk = int(param("chunk"))
    policy_kwargs = dict(
        open_after=int(param("open_after")),
        close_after=int(param("close_after")),
        min_confidence=float(param("min_confidence")),
        top_blocks=int(param("top_blocks")),
    )
    partition_ticks = int(ev.get("partition_ticks", 1024))
    setup = prepare_fleet(
        spec.datasets,
        context=ctx,
        blocks=int(param("blocks")),
        trees=int(param("trees")),
        train_frac=float(param("train_frac")),
        seed=int(param("seed")),
        healthy_label=int(param("healthy_label")),
    )

    def jsonl(events: list[dict]) -> str:
        return "\n".join(json.dumps(e) for e in events)

    def row(name, outcome, speedup, identical):
        return (
            name,
            outcome.n_nodes,
            outcome.n_windows,
            outcome.n_alerts,
            round(outcome.window_accuracy, 4),
            round(outcome.replay_time_s, 4),
            round(outcome.windows_per_s, 1),
            speedup,
            identical,
        )

    live = replay(setup, chunk=chunk, guard=True, **policy_kwargs)
    live_jsonl = jsonl(live.events)
    rows = [row(f"live chunk={chunk}", live, "", "")]
    with tempfile.TemporaryDirectory() as td:
        store = record_fleet(
            setup,
            Path(td) / "store",
            partition_ticks=partition_ticks,
            chunk=chunk,
            guarded=True,
        )
        fast = replay_from_store(setup, store, **policy_kwargs)
    identical = jsonl(fast.events) == live_jsonl
    speedup = (
        round(live.replay_time_s / fast.replay_time_s, 2)
        if fast.replay_time_s > 0
        else float("inf")
    )
    rows.append(row("store", fast, speedup, "yes" if identical else "NO"))
    outcomes = [live, fast]
    notes = [
        f"store: {len(store.partitions)} partition(s) of "
        f"{partition_ticks} ticks, {store.nbytes / 1e6:.1f} MB",
        "byte-identity contract "
        + ("held" if identical else "VIOLATED")
        + ": store-replay alert JSONL vs guarded live ingestion",
    ]
    if not identical:
        raise AssertionError("store-replay byte-identity contract violated")
    return ScenarioResult(
        spec=spec,
        title=spec.title,
        headers=FLEET_REPLAY_HEADERS,
        rows=rows,
        notes=notes,
        extras={"outcomes": outcomes},
    )


@evaluation("fleet-detect-chaos")
def _run_fleet_detect_chaos(
    spec: ScenarioSpec, ctx: ExecutionContext
) -> ScenarioResult:
    """Chaos-injection robustness drill over the detection service.

    Three guarded replays of the same fleet: a clean baseline, a replay
    under deterministic seeded fault injection
    (:class:`repro.service.chaos.ChaosInjector` — drop / duplicate /
    reorder / corrupt per the evaluation's fractions), and the same
    chaos replay again but killed at the configured ticks and restored
    from checkpoints (:func:`repro.service.chaos.run_with_kills`).  The
    final column asserts the crash-recovery contract: the killed run's
    event stream must equal the uninterrupted chaos run's, event for
    event.

    The killed run's "Faults injected" count covers only the ticks its
    final segments actually processed — injector *statistics* are not
    checkpointed (the fault schedule is a pure function of
    ``(seed, tick, node)``, so the schedule itself needs no state).
    """
    import tempfile
    from pathlib import Path

    from repro.service.chaos import ChaosConfig, run_with_kills
    from repro.service.replay import SERVICE_DEFAULTS, prepare_fleet, replay

    ev = spec.evaluation_dict()

    def param(name: str):
        return ev.get(name, SERVICE_DEFAULTS[name])

    service_kwargs = dict(
        chunk=int(param("chunk")),
        open_after=int(param("open_after")),
        close_after=int(param("close_after")),
        min_confidence=float(param("min_confidence")),
        top_blocks=int(param("top_blocks")),
        mode=str(ev.get("mode", "exact")),
    )
    chaos = ChaosConfig(
        seed=int(ev.get("chaos_seed", 0)),
        drop=float(ev.get("drop", 0.05)),
        duplicate=float(ev.get("duplicate", 0.05)),
        reorder=float(ev.get("reorder", 0.05)),
        corrupt=float(ev.get("corrupt", 0.05)),
        start_tick=int(ev.get("start_tick", 0)),
    )
    kills = tuple(int(k) for k in ev.get("kills", (2, 5)))
    setup = prepare_fleet(
        spec.datasets,
        context=ctx,
        blocks=int(param("blocks")),
        trees=int(param("trees")),
        train_frac=float(param("train_frac")),
        seed=int(param("seed")),
        healthy_label=int(param("healthy_label")),
    )

    def dropped(outcome) -> int:
        return sum(
            n["dropped_blocks"] for n in outcome.health["nodes"].values()
        )

    def injected(outcome) -> int:
        s = outcome.chaos_stats
        if s is None:
            return 0
        return s["drop"] + s["duplicate"] + s["reorder"] + s["corrupt"]

    def chaos_row(name, outcome, resume_identical):
        return (
            name,
            outcome.n_nodes,
            outcome.n_windows,
            outcome.n_alerts,
            outcome.n_events,
            injected(outcome),
            dropped(outcome),
            round(outcome.alert_precision, 4),
            round(outcome.episode_recall, 4),
            resume_identical,
        )

    clean = replay(setup, guard=True, **service_kwargs)
    chaotic = replay(setup, guard=True, chaos=chaos, **service_kwargs)
    with tempfile.TemporaryDirectory() as td:
        killed = run_with_kills(
            setup,
            checkpoint_path=Path(td) / "chaos_checkpoint.npz",
            kills=kills,
            checkpoint_every=int(ev.get("checkpoint_every", 1)),
            guard=True,
            chaos=chaos,
            **service_kwargs,
        )
    resume_identical = killed.events == chaotic.events
    rows = [
        chaos_row("clean", clean, ""),
        chaos_row("chaos", chaotic, ""),
        chaos_row(f"chaos+kills@{','.join(map(str, kills))}", killed,
                  "yes" if resume_identical else "NO"),
    ]
    notes = [
        f"chaos: seed={chaos.seed} drop={chaos.drop} "
        f"duplicate={chaos.duplicate} reorder={chaos.reorder} "
        f"corrupt={chaos.corrupt}",
        "resume contract "
        + ("held" if resume_identical else "VIOLATED")
        + ": killed-and-restored event stream vs uninterrupted chaos run",
    ]
    if not resume_identical:
        raise AssertionError(
            "crash-recovery contract violated: killed-and-restored replay "
            "diverged from the uninterrupted chaos run"
        )
    return ScenarioResult(
        spec=spec,
        title=spec.title,
        headers=FLEET_CHAOS_HEADERS,
        rows=rows,
        notes=notes,
        extras={
            "outcomes": [clean, chaotic, killed],
            "resume_identical": resume_identical,
        },
    )


@evaluation("fleet-serve")
def _run_fleet_serve(
    spec: ScenarioSpec, ctx: ExecutionContext
) -> ScenarioResult:
    """Network-serving equivalence drill over the ingestion server.

    One guarded in-process replay of the fleet (the reference run),
    then the same fleet served over a loopback TCP socket: a
    :class:`repro.service.net.FleetServer` on an ephemeral port, driven
    by the deterministic :func:`repro.service.net.loadgen` feeder in
    each configured frame encoding.  The final column asserts the
    transport-identity contract — alert JSONL ingested over the network
    must be byte-for-byte equal to the in-process replay's — and the
    drill raises if it does not hold.  ``replicate`` (optional) scales
    the trained fleet by reference before serving.
    """
    from repro.service.api import ServiceConfig, build_detector, build_setup
    from repro.service.api import replay as api_replay
    from repro.service.net import FleetServer, ListAlertSink, loadgen

    ev = spec.evaluation_dict()
    config = ServiceConfig.from_evaluation(ev, guard=True)
    formats = tuple(ev.get("formats", ("binary", "json")))
    setup = build_setup(config, recipes=spec.datasets, context=ctx)
    n_nodes = len(setup.eval_data)

    ref_sink = ListAlertSink()
    ref = api_replay(config, setup, sinks=(ref_sink,))
    rows = [
        (
            "in-process",
            n_nodes,
            "",
            ref.n_events,
            "",
            "",
            "",
            "",
        )
    ]
    mismatches = []
    stats_by_fmt = {}
    for fmt in formats:
        net_sink = ListAlertSink()
        server = FleetServer(
            build_detector(config, setup),
            sinks=(net_sink,),
            exit_on_idle=True,
        )
        thread = server.start_background()
        if not server.ready.wait(30):
            raise RuntimeError("ingestion server failed to start")
        loadgen(
            setup,
            ("127.0.0.1", server.port),
            chunk=config.chunk,
            fmt=fmt,
        )
        thread.join(120)
        if thread.is_alive():
            raise RuntimeError("ingestion server failed to drain")
        stats = server.stats.snapshot()
        stats_by_fmt[fmt] = stats
        identical = net_sink.text() == ref_sink.text()
        if not identical:
            mismatches.append(fmt)
        rows.append(
            (
                f"served {fmt}",
                n_nodes,
                stats["ticks"],
                stats["events"],
                stats["samples_per_s"],
                stats["tick_latency_p50_ms"],
                stats["tick_latency_p99_ms"],
                "yes" if identical else "NO",
            )
        )
    notes = [
        "transport-identity contract "
        + ("held" if not mismatches else "VIOLATED")
        + ": network-ingested alert JSONL vs in-process replay",
    ]
    if mismatches:
        raise AssertionError(
            "network transport byte-identity contract violated for "
            f"format(s) {mismatches!r}"
        )
    return ScenarioResult(
        spec=spec,
        title=spec.title,
        headers=FLEET_SERVE_HEADERS,
        rows=rows,
        notes=notes,
        extras={"reference": ref, "stats": stats_by_fmt},
    )


@evaluation("fleet-serve-chaos")
def _run_fleet_serve_chaos(
    spec: ScenarioSpec, ctx: ExecutionContext
) -> ScenarioResult:
    """Network serving through a hostile, *seeded* TCP path.

    The fleet-serve drill with a :class:`repro.service.netchaos.ChaosProxy`
    spliced between the load generator and the ingestion server: byte
    corruption (caught by the binary frame CRC and dropped), hard
    connection resets, silent truncation and short partitions, all
    drawn deterministically from ``(seed, connection, byte offset)``.
    The client runs in ``--resume`` mode — it follows per-tick acks and
    resends everything after the last acked tick across reconnects — so
    the contract under test is *convergence*: however the schedule
    mangles the transport, the alert JSONL that comes out the far side
    is byte-for-byte the in-process replay's, on every repetition.
    """
    from repro.service.api import ServiceConfig, build_detector, build_setup
    from repro.service.api import replay as api_replay
    from repro.service.net import FleetServer, ListAlertSink, loadgen
    from repro.service.netchaos import ChaosProxy, NetChaosConfig

    ev = spec.evaluation_dict()
    config = ServiceConfig.from_evaluation(ev, guard=True)
    # Rate calibration: frames here are a couple hundred KB, and a
    # corrupted or truncated frame costs a full ack-timeout stall plus a
    # resend round.  Keep the *per-frame* fault expectation well below 1
    # (rate_per_mb x frame_mb < ~0.5) — hotter schedules mangle every
    # frame and the drill stops converging by construction, it does not
    # get "more chaotic".  Resets and partitions are cheap (immediate
    # reconnect / short delay), but resets also restart the in-flight
    # frame, so the same ceiling applies.
    chaos = NetChaosConfig(
        seed=int(ev.get("chaos_seed", 0)),
        corrupt_per_mb=float(ev.get("corrupt_per_mb", 2.0)),
        reset_per_mb=float(ev.get("reset_per_mb", 0.5)),
        truncate_per_mb=float(ev.get("truncate_per_mb", 0.5)),
        partition_per_mb=float(ev.get("partition_per_mb", 4.0)),
        partition_ms=float(ev.get("partition_ms", 10.0)),
    )
    repeats = int(ev.get("chaos_repeats", 2))
    setup = build_setup(config, recipes=spec.datasets, context=ctx)
    n_nodes = len(setup.eval_data)

    ref_sink = ListAlertSink()
    ref = api_replay(config, setup, sinks=(ref_sink,))
    rows = [("in-process", n_nodes, "", ref.n_events, "", "", "", "", "")]
    mismatches = []
    faults_seen = 0
    run_stats = []
    for rep in range(repeats):
        net_sink = ListAlertSink()
        server = FleetServer(
            build_detector(config, setup),
            sinks=(net_sink,),
            exit_on_idle=True,
            # Partial ticks are timing, not data; a generous barrier
            # keeps the replayed tick boundaries exact under stalls.
            tick_timeout=float(ev.get("tick_timeout", 60.0)),
        )
        thread = server.start_background()
        if not server.ready.wait(30):
            raise RuntimeError("ingestion server failed to start")
        upstream = ("127.0.0.1", server.port)
        proxy = ChaosProxy(upstream, chaos)
        proxy.start()
        try:
            gen = loadgen(
                setup,
                ("127.0.0.1", proxy.port),
                chunk=config.chunk,
                fmt="binary",  # the CRC-checked encoding: corruption
                # must be *detected*, never silently mis-parsed
                resume=True,
                ack_timeout=float(ev.get("ack_timeout", 2.0)),
                total_timeout=float(ev.get("total_timeout", 240.0)),
            )
        finally:
            proxy_stats = proxy.stop()
        thread.join(120)
        if thread.is_alive():
            raise RuntimeError("ingestion server failed to drain")
        faults = (
            proxy_stats["corrupted"]
            + proxy_stats["resets"]
            + (1 if proxy_stats["truncated_bytes"] else 0)
            + proxy_stats["partitions"]
        )
        faults_seen += faults
        stats = server.stats.snapshot()
        run_stats.append(
            {"loadgen": gen, "server": stats, "proxy": proxy_stats}
        )
        identical = net_sink.text() == ref_sink.text()
        if not identical:
            mismatches.append(rep)
        rows.append(
            (
                f"chaos rep {rep}",
                n_nodes,
                stats["ticks"],
                stats["events"],
                gen["reconnects"],
                gen["resent_frames"],
                proxy_stats["corrupted"],
                proxy_stats["resets"],
                "yes" if identical else "NO",
            )
        )
    notes = [
        f"netchaos: seed={chaos.seed} corrupt={chaos.corrupt_per_mb}/MB "
        f"reset={chaos.reset_per_mb}/MB truncate={chaos.truncate_per_mb}/MB "
        f"partition={chaos.partition_per_mb}/MB",
        "convergence contract "
        + ("held" if not mismatches else "VIOLATED")
        + f" across {repeats} repetition(s): chaos-proxied alert JSONL "
        "vs in-process replay",
    ]
    if mismatches:
        raise AssertionError(
            "chaos-proxy convergence contract violated on "
            f"repetition(s) {mismatches!r}"
        )
    if ev.get("expect_faults", True) and faults_seen == 0:
        raise AssertionError(
            "chaos proxy injected no faults — the drill was vacuous "
            "(raise the *_per_mb rates or feed size)"
        )
    return ScenarioResult(
        spec=spec,
        title=spec.title,
        headers=FLEET_SERVE_CHAOS_HEADERS,
        rows=rows,
        notes=notes,
        extras={"reference": ref, "runs": run_stats},
    )
