"""Generic evaluation strategies executed by the scenario runner.

Each strategy ("kind") interprets a :class:`ScenarioSpec` — its dataset
recipes, method grid and ``evaluation`` parameters — and drives the
existing engine/harness/ML layers, returning a :class:`ScenarioResult`.
The eight paper reproductions and all extended scenarios are expressed
as specs over these nine kinds (:func:`evaluation_kinds`); registering a
*new* scenario requires no new runner code, only a new spec.

The per-artifact kernels (``segment_js_divergence``,
``application_heatmaps``, ``segment_summary``, ...) live in their
``repro.experiments`` modules and are imported lazily here, so a run
loads only the kernel its kind needs.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
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
    "FLEET_CONTRACT_HEADERS",
    "FLEET_DETECT_HEADERS",
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

#: Columns of the fleet-contract drills: the reference replay's row
#: layout plus whether a driver's alert JSONL matched the reference's.
FLEET_CONTRACT_HEADERS: tuple[str, ...] = FLEET_DETECT_HEADERS + ("Identical",)


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
    rows = []
    fleet_results = []
    for recipe in spec.datasets:
        segment = ctx.segment(recipe)
        res = run_fleet_on_segment(segment, blocks=blocks)
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
# The fleet contract: one in-process reference, many drivers
# ----------------------------------------------------------------------
@evaluation("fleet-contract")
def _run_fleet_contract(
    spec: ScenarioSpec, ctx: ExecutionContext
) -> ScenarioResult:
    """Online fleet detection: an in-process reference, then its drivers.

    Each dataset recipe contributes its components as nodes of one
    fleet; ``fleet_sizes`` (optional) repeats the drill over growing
    recipe prefixes.  The evaluation dict's service keys become one
    :class:`~repro.service.api.ServiceConfig` and its chaos keys one
    seeded fault schedule
    (:meth:`~repro.service.chaos.ChaosConfig.from_evaluation`).  Per
    fleet size the fleet is trained once and replayed in process as the
    reference — under the fault schedule when the spec names one, after
    a clean replay row to compare against.  Rows report the alert
    stream's quality against the injected ground truth plus replay
    throughput.  Then every name in ``drivers`` re-drives the same
    fleet:

    * ``kills`` — the replay killed before each tick in ``kills`` and
      restored from its checkpoints
      (:func:`~repro.service.chaos.run_with_kills`);
    * ``store`` — the feed recorded into a ``repro-telestore/v1`` store
      and replayed from disk
      (:func:`~repro.service.fastreplay.replay_from_store`);
    * ``net`` — a loopback :class:`~repro.service.net.FleetServer` fed
      by :func:`~repro.service.net.loadgen`, once per entry in
      ``formats``;
    * ``netchaos`` — the same through a seeded
      :class:`~repro.service.netchaos.ChaosProxy` with a resuming
      client, ``chaos_repeats`` times.

    The contract: every driver's canonical ``repro-alerts/v1`` JSONL
    equals the reference's byte for byte.  The kind raises
    ``AssertionError`` naming every run that differs.
    """
    from repro.service.api import ServiceConfig, build_setup
    from repro.service.api import replay as api_replay
    from repro.service.chaos import ChaosConfig
    from repro.service.net import ListAlertSink

    ev = spec.evaluation_dict()
    config = ServiceConfig.from_evaluation(ev)
    chaos = ChaosConfig.from_evaluation(ev)
    drivers = tuple(ev.get("drivers", ()))
    unknown = sorted(set(drivers) - set(_DRIVERS))
    if unknown:
        raise ValueError(f"unknown fleet-contract driver(s) {unknown}")
    if chaos is not None and set(drivers) - {"kills"}:
        raise ValueError(
            "only the kills driver replays the in-process fault schedule"
        )
    sizes = tuple(ev.get("fleet_sizes", ())) or (len(spec.datasets),)
    rows: list[tuple] = []
    notes: list[str] = []
    outcomes = []
    mismatches: list[str] = []
    if chaos is not None:
        notes.append(f"chaos: {chaos}")
    for size in sizes:
        size = int(size)
        if not 1 <= size <= len(spec.datasets):
            raise ValueError(
                f"fleet size {size} outside 1..{len(spec.datasets)} recipes"
            )
        setup = build_setup(
            config, recipes=spec.datasets[:size], context=ctx
        )
        label = f"{spec.datasets[0].segment}-fleet-{setup.n_nodes}"
        if chaos is not None:
            rows.append(api_replay(config, setup).row(label) + ("",))
            label += "+chaos"
        ref_sink = ListAlertSink()
        ref = api_replay(config, setup, sinks=(ref_sink,), chaos=chaos)
        outcomes.append(ref)
        rows.append(ref.row(label) + ("",))
        if chaos is not None:
            notes.append(_fault_note(label, ref))
        for name in drivers:
            for row, text in _DRIVERS[name](config, setup, ev, notes):
                identical = text == ref_sink.text()
                if not identical:
                    mismatches.append(row[0])
                rows.append(row + ("yes" if identical else "NO",))
    if mismatches:
        raise AssertionError(
            f"{spec.name}: alert JSONL of {mismatches} differs from the "
            "in-process reference"
        )
    if drivers:
        notes.append("contract held: every driver's alert JSONL is "
                     "byte-identical to the in-process reference")
    return ScenarioResult(
        spec=spec,
        title=spec.title,
        headers=FLEET_CONTRACT_HEADERS,
        rows=rows,
        notes=notes,
        extras={"outcomes": outcomes},
    )


def _fault_note(run: str, outcome) -> str:
    """Faults a chaos run injected and blocks its guard dropped."""
    stats = outcome.chaos_stats
    injected = stats["drop"] + stats["duplicate"] + stats["reorder"]
    injected += stats["corrupt"]
    dropped = sum(
        n["dropped_blocks"] for n in outcome.health["nodes"].values()
    )
    return f"{run}: {injected} fault(s) injected, {dropped} block(s) dropped"


def _kills_driver(config, setup, ev, notes):
    """The reference replay killed at ``kills`` and resumed each time.

    Every segment gets a fresh sink; a resumed segment re-emits the
    checkpointed prefix, so the last sink holds the whole stream.  Its
    fault count covers only the ticks the final segments processed
    (injector statistics are not checkpointed; the schedule is a pure
    function of ``(seed, tick, node)`` and needs no state).
    """
    from repro.service.chaos import ChaosConfig, run_with_kills
    from repro.service.net import ListAlertSink

    kills = tuple(int(k) for k in ev.get("kills", (2, 5)))
    chaos = ChaosConfig.from_evaluation(ev)
    sinks: list = []

    def fresh_sink():
        sinks.append(ListAlertSink())
        return sinks[-1:]

    with tempfile.TemporaryDirectory() as td:
        outcome = run_with_kills(
            config,
            setup,
            checkpoint_path=Path(td) / "checkpoint.npz",
            kills=kills,
            checkpoint_every=int(ev.get("checkpoint_every", 1)),
            sink_factory=fresh_sink,
            chaos=chaos,
        )
    run = f"kills@{','.join(map(str, kills))}"
    if chaos is not None:
        notes.append(_fault_note(run, outcome))
    yield outcome.row(run), sinks[-1].text()


def _store_driver(config, setup, ev, notes):
    """The feed recorded into a telemetry store and replayed from disk."""
    from repro.service.fastreplay import record_fleet, replay_from_store
    from repro.service.net import ListAlertSink

    partition_ticks = int(ev.get("partition_ticks", 1024))
    sink = ListAlertSink()
    with tempfile.TemporaryDirectory() as td:
        store = record_fleet(
            setup,
            Path(td) / "store",
            partition_ticks=partition_ticks,
            chunk=config.chunk,
        )
        outcome = replay_from_store(config, setup, store, sinks=(sink,))
        notes.append(
            f"store: {len(store.partitions)} partition(s) of "
            f"{partition_ticks} ticks, {store.nbytes / 1e6:.1f} MB"
        )
    yield outcome.row("store"), sink.text()


def _serve_once(config, setup, sink, *, server, netchaos=None, **client):
    """Serve the fleet once on a loopback server with ``server`` options,
    fed by ``loadgen`` with ``client`` options, through a
    :class:`~repro.service.netchaos.ChaosProxy` when ``netchaos`` is
    given.  Returns the server stats, the loadgen stats and the proxy
    stats (``None`` without a proxy)."""
    from repro.service.api import build_detector
    from repro.service.net import FleetServer, LoadgenOptions, loadgen
    from repro.service.netchaos import ChaosProxy

    fleet = FleetServer(build_detector(config, setup), server, sinks=(sink,))
    thread = fleet.start_background()
    if not fleet.ready.wait(30):
        raise RuntimeError("ingestion server failed to start")
    port = fleet.port
    proxy = None
    if netchaos is not None:
        proxy = ChaosProxy(("127.0.0.1", port), netchaos)
        proxy.start()
        port = proxy.port
    try:
        options = LoadgenOptions(connect=f"127.0.0.1:{port}", **client)
        gen = loadgen(setup, options, chunk=config.chunk)
    finally:
        proxy_stats = proxy.stop() if proxy is not None else None
    thread.join(120)
    if thread.is_alive():
        raise RuntimeError("ingestion server failed to drain")
    return fleet.stats.snapshot(), gen, proxy_stats


def _served_row(run: str, setup, stats: dict) -> tuple:
    """A served run's row: the server counts no windows or scores."""
    return (
        run, setup.n_nodes, "", stats["alerts_opened"], "", "", "",
        round(stats["elapsed_s"], 4), "",
    )


def _net_driver(config, setup, ev, notes):
    """The fleet served over loopback TCP, once per frame encoding."""
    from repro.service.net import ListAlertSink
    from repro.service.servecore import ServeOptions

    for fmt in ev.get("formats", ("binary", "json")):
        sink = ListAlertSink()
        stats, _, _ = _serve_once(
            config, setup, sink, server=ServeOptions(exit_on_idle=True),
            format=fmt,
        )
        run = f"net {fmt}"
        notes.append(
            f"{run}: {stats['ticks']} ticks, {stats['samples_per_s']} "
            f"samples/s, p50/p99 {stats['tick_latency_p50_ms']}/"
            f"{stats['tick_latency_p99_ms']} ms"
        )
        yield _served_row(run, setup, stats), sink.text()


def _netchaos_driver(config, setup, ev, notes):
    """The net driver through a seeded chaos proxy, with a resuming
    client (it resends everything after its last acked tick across
    reconnects), ``chaos_repeats`` times.  Raises when no fault landed:
    a drill the schedule never touched proves nothing."""
    from repro.service.net import ListAlertSink
    from repro.service.netchaos import NetChaosConfig
    from repro.service.servecore import ServeOptions

    # Rate calibration: frames here are a couple hundred KB, and a
    # corrupted or truncated frame costs a full ack-timeout stall plus a
    # resend round.  Keep the *per-frame* fault expectation well below 1
    # (rate_per_mb x frame_mb < ~0.5) — hotter schedules mangle every
    # frame and the drill stops converging by construction, it does not
    # get "more chaotic".  Resets and partitions are cheap (immediate
    # reconnect / short delay), but resets also restart the in-flight
    # frame, so the same ceiling applies.
    netchaos = NetChaosConfig(
        seed=int(ev.get("chaos_seed", 0)),
        corrupt_per_mb=float(ev.get("corrupt_per_mb", 2.0)),
        reset_per_mb=float(ev.get("reset_per_mb", 0.5)),
        truncate_per_mb=float(ev.get("truncate_per_mb", 0.5)),
        partition_per_mb=float(ev.get("partition_per_mb", 4.0)),
        partition_ms=float(ev.get("partition_ms", 10.0)),
    )
    notes.append(f"netchaos: {netchaos}")
    faults = 0
    for rep in range(int(ev.get("chaos_repeats", 2))):
        sink = ListAlertSink()
        stats, gen, proxy = _serve_once(
            config,
            setup,
            sink,
            netchaos=netchaos,
            # Partial ticks are timing, not data; a generous barrier
            # keeps the replayed tick boundaries exact under stalls.
            server=ServeOptions(
                exit_on_idle=True,
                tick_timeout=float(ev.get("tick_timeout", 60.0)),
            ),
            # The CRC-checked encoding: corruption must be *detected*,
            # never silently mis-parsed.
            format="binary",
            resume=True,
            ack_timeout=float(ev.get("ack_timeout", 2.0)),
            total_timeout=float(ev.get("total_timeout", 240.0)),
        )
        faults += proxy["corrupted"] + proxy["resets"] + proxy["partitions"]
        faults += bool(proxy["truncated_bytes"])
        run = f"netchaos rep {rep}"
        notes.append(
            f"{run}: {gen['reconnects']} reconnect(s), "
            f"{gen['resent_frames']} resent frame(s), "
            f"{proxy['corrupted']} corruption(s), {proxy['resets']} reset(s)"
        )
        yield _served_row(run, setup, stats), sink.text()
    if ev.get("expect_faults", True) and faults == 0:
        raise AssertionError(
            "chaos proxy injected no faults — the drill was vacuous "
            "(raise the *_per_mb rates or feed size)"
        )


#: The ``fleet-contract`` drivers, by the names specs list in ``drivers``.
_DRIVERS = {
    "kills": _kills_driver,
    "store": _store_driver,
    "net": _net_driver,
    "netchaos": _netchaos_driver,
}
