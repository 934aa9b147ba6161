"""The built-in scenario catalog.

Registers the eight paper reproductions (Table I, Figures 2-7, Section
IV-F) plus the extended coverage suite — scenarios the paper never ran,
expressed purely as declarative specs over the generic evaluation kinds
(no bespoke runner code).  See EXPERIMENTS.md for the full map.
"""

from __future__ import annotations

from repro.datasets.recipes import DatasetRecipe, recipe
from repro.datasets.schema import SEGMENTS
from repro.experiments.harness import DEFAULT_METHODS
from repro.scenarios.registry import register
from repro.scenarios.spec import ScenarioSpec, pairs

__all__ = [
    "PAPER_SEGMENTS",
    "FIG5_WL_GRID",
    "FIG5_N_GRID",
    "FIG6_APPS",
]

#: The four ML-evaluation segments of Figures 3 and 4 (Cross-Architecture
#: is Section IV-F).
PAPER_SEGMENTS: tuple[str, ...] = (
    "fault",
    "application",
    "power",
    "infrastructure",
)

#: Scaled-down versions of Figure 5's 10..10k sweeps.
FIG5_WL_GRID: tuple[int, ...] = (10, 250, 500, 1000, 2000, 4000)
FIG5_N_GRID: tuple[int, ...] = (10, 250, 500, 1000, 2000, 4000)

#: The applications rendered in Figure 6 (Figure 2 renders AMG).
FIG6_APPS: tuple[str, ...] = ("Kripke", "Linpack", "Quicksilver")


def _segment_recipes(
    names=PAPER_SEGMENTS, *, seed: int = 0, scale: float = 1.0
) -> tuple[DatasetRecipe, ...]:
    return tuple(
        DatasetRecipe(segment=n, seed=seed, scale=scale) for n in names
    )


# ----------------------------------------------------------------------
# Paper reproductions
# ----------------------------------------------------------------------
TABLE1 = register(ScenarioSpec(
    name="table1",
    kind="segment-summary",
    title="Table I — HPC-ODA segment overview (synthetic)",
    description="Dataset-collection overview of all five segments",
    paper="Table I",
    datasets=_segment_recipes(tuple(SEGMENTS)),
    tags=("paper",),
    smoke=pairs({"datasets": _segment_recipes(tuple(SEGMENTS), scale=0.2)}),
))

FIG3 = register(ScenarioSpec(
    name="fig3",
    kind="grid",
    title="Figure 3 — times (a), signature sizes (b) and ML scores (c)",
    description="Per-method generation/CV times, signature sizes and ML "
    "scores on the first four segments",
    paper="Figure 3",
    datasets=_segment_recipes(),
    methods=DEFAULT_METHODS,
    evaluation=pairs({"trees": 50, "repeats": 1, "n_splits": 5, "seed": 0}),
    tags=("paper", "ml"),
    smoke=pairs({
        "datasets": (recipe("application", t=700, nodes=2),),
        "methods": ("lan", "cs-5"),
        "evaluation": {"trees": 4},
    }),
))

FIG4 = register(ScenarioSpec(
    name="fig4",
    kind="length-sweep",
    title="Figure 4 — JS divergence (a) and ML score (b) vs signature length",
    description="Compression quality and ML score vs block count, with "
    "and without imaginary components",
    paper="Figure 4",
    datasets=_segment_recipes(),
    evaluation=pairs({
        "lengths": (5, 10, 20, 40, "all"),
        "with_real_only": True,
        "trees": 50,
        "seed": 0,
        "bins": 64,
    }),
    tags=("paper", "ml"),
    smoke=pairs({
        "datasets": (recipe("application", t=700, nodes=2),),
        "evaluation": {"lengths": (5,), "with_real_only": False, "trees": 4},
    }),
))

FIG5 = register(ScenarioSpec(
    name="fig5",
    kind="timing",
    title="Figure 5 — time to compute one signature vs wl (a) and n (b)",
    description="Single-signature computation time vs window length and "
    "dimension count",
    paper="Figure 5",
    methods=DEFAULT_METHODS,
    evaluation=pairs({
        "wl_grid": FIG5_WL_GRID,
        "n_grid": FIG5_N_GRID,
        "fixed_n": 100,
        "fixed_wl": 100,
        "repeats": 20,
        "seed": 0,
    }),
    tags=("paper", "perf"),
    smoke=pairs({
        "methods": ("lan", "cs-5"),
        "evaluation": {"wl_grid": (10,), "n_grid": (10,), "repeats": 2},
    }),
))

FIG2 = register(ScenarioSpec(
    name="fig2",
    kind="app-heatmap",
    title="Figure 2 — AMG signature heatmaps (160 blocks)",
    description="Real/imaginary CS signature heatmaps of AMG runs on the "
    "16-node Application segment (memory-usage gradient)",
    paper="Figure 2",
    datasets=(recipe("application", t=2400, nodes=16),),
    evaluation=pairs({"apps": ("AMG",), "blocks": 160, "prefix": "fig2"}),
    tags=("paper", "viz"),
    smoke=pairs({
        "datasets": (recipe("application", t=2600, nodes=2),),
        "evaluation": {"blocks": 8},
    }),
))

FIG6 = register(ScenarioSpec(
    name="fig6",
    kind="app-heatmap",
    title="Figure 6 — application signature heatmaps (160 blocks)",
    description="Real/imaginary CS signature heatmaps per application on "
    "the 16-node Application segment",
    paper="Figure 6",
    datasets=(recipe("application", t=2400, nodes=16),),
    evaluation=pairs({"apps": FIG6_APPS, "blocks": 160, "prefix": "fig6"}),
    tags=("paper", "viz"),
    smoke=pairs({
        "datasets": (recipe("application", t=2600, nodes=2),),
        "evaluation": {"apps": ("Linpack",), "blocks": 8},
    }),
))

FIG7 = register(ScenarioSpec(
    name="fig7",
    kind="arch-heatmap",
    title="Figure 7 — LAMMPS signature heatmaps across three architectures",
    description="One application's 20-block heatmaps on Skylake, Knights "
    "Landing and AMD Rome nodes",
    paper="Figure 7",
    datasets=(recipe("cross-architecture", t=2600),),
    evaluation=pairs({"app": "LAMMPS", "blocks": 20, "prefix": "fig7"}),
    tags=("paper", "viz"),
    smoke=pairs({"evaluation": {"blocks": 8}}),
))

CROSSARCH = register(ScenarioSpec(
    name="crossarch",
    kind="merged-crossarch",
    title="Section IV-F — cross-architecture application classification",
    description="RF + MLP classification over the merged three-"
    "architecture dataset (impossible with the baselines)",
    paper="Section IV-F",
    datasets=(recipe("cross-architecture", t=1600),),
    evaluation=pairs({
        "blocks": 20,
        "trees": 50,
        "seed": 0,
        "n_splits": 5,
        "mlp_max_iter": 150,
    }),
    tags=("paper", "ml"),
    smoke=pairs({
        "datasets": (recipe("cross-architecture", t=900),),
        "evaluation": {"trees": 5, "blocks": 8, "mlp_max_iter": 40},
    }),
))


# ----------------------------------------------------------------------
# Extended coverage: scenarios beyond the paper, specs only
# ----------------------------------------------------------------------
FLEET_SCALING = register(ScenarioSpec(
    name="fleet-scaling",
    kind="fleet",
    title="Fleet scaling — batched whole-fleet signature throughput",
    description="FleetSignatureEngine fit/transform throughput as the "
    "monitored fleet grows from 8 to 32 nodes",
    datasets=(
        recipe("application", t=600, nodes=8, label="fleet-8"),
        recipe("application", t=600, nodes=16, label="fleet-16"),
        recipe("application", t=600, nodes=32, label="fleet-32"),
    ),
    evaluation=pairs({"blocks": 20}),
    tags=("extra", "perf", "fleet"),
    smoke=pairs({
        "datasets": (
            recipe("application", t=400, nodes=2, label="fleet-2"),
            recipe("application", t=400, nodes=4, label="fleet-4"),
        ),
        "evaluation": {"blocks": 8},
    }),
))

FAULT_MIX = register(ScenarioSpec(
    name="fault-mix",
    kind="grid",
    title="Fault mix — scores across independent fault-injection schedules",
    description="Fault-classification robustness over three independently "
    "seeded mixed fault-injection segments",
    datasets=(
        recipe("fault", t=8000, seed=0, label="fault#s0"),
        recipe("fault", t=8000, seed=1, label="fault#s1"),
        recipe("fault", t=8000, seed=2, label="fault#s2"),
    ),
    methods=("tuncer", "cs-20", "cs-40"),
    evaluation=pairs({"trees": 20, "repeats": 1, "n_splits": 5, "seed": 0}),
    tags=("extra", "ml", "robustness"),
    smoke=pairs({
        "datasets": (recipe("fault", t=3000, seed=0, label="fault#s0"),),
        "methods": ("cs-20",),
        "evaluation": {"trees": 4},
    }),
))

NOISE_ROBUSTNESS = register(ScenarioSpec(
    name="noise-robustness",
    kind="grid",
    title="Noise robustness — ML score vs additive sensor noise",
    description="Application-classification scores as Gaussian sensor "
    "noise grows from 0 to 10% of each sensor's variance",
    datasets=(
        recipe("application", label="application+n0"),
        recipe("application", noise_std=0.05, noise_seed=11,
               label="application+n5%"),
        recipe("application", noise_std=0.10, noise_seed=11,
               label="application+n10%"),
    ),
    methods=("tuncer", "cs-20"),
    evaluation=pairs({"trees": 20, "repeats": 1, "n_splits": 5, "seed": 0}),
    tags=("extra", "ml", "robustness"),
    smoke=pairs({
        "datasets": (
            recipe("application", t=700, nodes=2, label="application+n0"),
            recipe("application", t=700, nodes=2, noise_std=0.10,
                   noise_seed=11, label="application+n10%"),
        ),
        "methods": ("cs-20",),
        "evaluation": {"trees": 4},
    }),
))

SENSOR_DRIFT = register(ScenarioSpec(
    name="sensor-drift",
    kind="grid",
    title="Sensor drift — power prediction under calibration drift",
    description="Power-regression scores as a slow random-sign per-sensor "
    "calibration drift grows to 25% of sensor variance",
    datasets=(
        recipe("power", label="power+d0"),
        recipe("power", drift=0.10, noise_seed=23, label="power+d10%"),
        recipe("power", drift=0.25, noise_seed=23, label="power+d25%"),
    ),
    methods=("cs-10", "cs-all"),
    evaluation=pairs({"trees": 20, "repeats": 1, "n_splits": 5, "seed": 0}),
    tags=("extra", "ml", "robustness"),
    smoke=pairs({
        "datasets": (
            recipe("power", t=1500, label="power+d0"),
            recipe("power", t=1500, drift=0.25, noise_seed=23,
                   label="power+d25%"),
        ),
        "methods": ("cs-10",),
        "evaluation": {"trees": 4},
    }),
))

# The online-service replays (repro.service): fleets of independently
# seeded fault nodes detected, classified and alerted on in lockstep.
def _fault_fleet(
    nodes: int, *, t: int, noise_std: float = 0.0, noise_seed: int = 0
) -> tuple[DatasetRecipe, ...]:
    """Recipes equal to ``repro.service.replay.fleet_recipes(...)``.

    Built locally from plain recipes so registering/listing scenarios
    does not import the service stack (the CLI keeps those imports lazy
    on purpose); equality with ``fleet_recipes`` is test-enforced.
    """
    return tuple(
        recipe(
            "fault",
            t=int(t),
            seed=i,
            noise_std=noise_std,
            drift=0.0,
            noise_seed=noise_seed,
            label=f"fault#n{i}",
        )
        for i in range(nodes)
    )


_SMOKE_FLEET = _fault_fleet(2, t=2500)

FLEET_DETECT = register(ScenarioSpec(
    name="fleet-detect",
    kind="fleet-contract",
    title="Online fleet fault detection — ingest, classify, alert",
    description="Deterministic replay of a 4-node fault fleet through "
    "repro.service: windowed detection, lockstep batched classification "
    "and threshold+hysteresis alerting scored against injected faults",
    datasets=_fault_fleet(4, t=6000),
    evaluation=pairs({
        "drivers": (),
        "blocks": 20,
        "trees": 30,
        "train_frac": 0.5,
        "chunk": 256,
        "open_after": 2,
        "close_after": 2,
        "seed": 0,
    }),
    tags=("extra", "service", "fleet"),
    smoke=pairs({
        "datasets": _SMOKE_FLEET,
        "evaluation": {"blocks": 8, "trees": 6, "chunk": 200},
    }),
))

FLEET_DETECT_SCALE = register(ScenarioSpec(
    name="fleet-detect-scale",
    kind="fleet-contract",
    title="Online fleet fault detection — replay throughput vs fleet size",
    description="Service replay over growing fleets (2 -> 4 -> 8 fault "
    "nodes): alert quality stays flat while windows/second tracks the "
    "batched hot path",
    datasets=_fault_fleet(8, t=4000),
    evaluation=pairs({
        "drivers": (),
        "fleet_sizes": (2, 4, 8),
        "blocks": 20,
        "trees": 20,
        "train_frac": 0.5,
        "chunk": 256,
        "open_after": 2,
        "close_after": 2,
        "seed": 0,
    }),
    tags=("extra", "service", "fleet", "perf"),
    smoke=pairs({
        "datasets": _SMOKE_FLEET,
        "evaluation": {"fleet_sizes": (2,), "blocks": 8, "trees": 6,
                       "chunk": 200},
    }),
))

FLEET_DETECT_NOISE = register(ScenarioSpec(
    name="fleet-detect-noise",
    kind="fleet-contract",
    title="Online fleet fault detection — noisy telemetry",
    description="The fleet-detect replay with 5% additive Gaussian "
    "sensor noise on every node: how much alert precision/recall "
    "survives degraded telemetry",
    datasets=_fault_fleet(3, t=6000, noise_std=0.05, noise_seed=11),
    evaluation=pairs({
        "drivers": (),
        "blocks": 20,
        "trees": 30,
        "train_frac": 0.5,
        "chunk": 256,
        "open_after": 2,
        "close_after": 2,
        "seed": 0,
    }),
    tags=("extra", "service", "fleet", "robustness"),
    smoke=pairs({
        "datasets": _fault_fleet(2, t=2500, noise_std=0.05, noise_seed=11),
        "evaluation": {"blocks": 8, "trees": 6, "chunk": 200},
    }),
))

FLEET_DETECT_CHAOS = register(ScenarioSpec(
    name="fleet-detect-chaos",
    kind="fleet-contract",
    title="Online fleet fault detection — chaos injection + crash recovery",
    description="Guarded service replay under deterministic seeded fault "
    "injection (drop/duplicate/reorder/corrupt bursts) plus the "
    "kill-and-restore drill: the checkpoint-resumed event stream must "
    "equal the uninterrupted run's, event for event",
    datasets=_fault_fleet(3, t=6000),
    evaluation=pairs({
        "drivers": ("kills",),
        "blocks": 20,
        "trees": 30,
        "train_frac": 0.5,
        "chunk": 256,
        "open_after": 2,
        "close_after": 2,
        "seed": 0,
        "chaos_seed": 7,
        "drop": 0.05,
        "duplicate": 0.05,
        "reorder": 0.05,
        "corrupt": 0.05,
        "kills": (3, 8),
        "checkpoint_every": 1,
    }),
    tags=("extra", "service", "fleet", "robustness"),
    smoke=pairs({
        "datasets": _SMOKE_FLEET,
        "evaluation": {"blocks": 8, "trees": 6, "chunk": 200,
                       "chaos_seed": 7, "kills": (2, 4)},
    }),
))

FLEET_REPLAY = register(ScenarioSpec(
    name="fleet-replay",
    kind="fleet-contract",
    title="Telemetry store replay — byte-identical, faster than live",
    description="The fleet-detect feed recorded into a repro-telestore/v1 "
    "columnar store and replayed from disk at max speed (partition-sized "
    "blocks into the fused arena): alert JSONL byte-identical to guarded "
    "live ingestion, both replay times reported",
    datasets=_fault_fleet(4, t=6000),
    evaluation=pairs({
        "drivers": ("store",),
        "blocks": 20,
        "trees": 30,
        "train_frac": 0.5,
        "chunk": 256,
        "open_after": 2,
        "close_after": 2,
        "seed": 0,
        "partition_ticks": 1024,
    }),
    tags=("extra", "service", "fleet", "perf", "store"),
    smoke=pairs({
        "datasets": _SMOKE_FLEET,
        "evaluation": {"blocks": 8, "trees": 6, "chunk": 200,
                       "partition_ticks": 400},
    }),
))

FLEET_SERVE = register(ScenarioSpec(
    name="fleet-serve",
    kind="fleet-contract",
    title="Network fleet serving — loopback transport equivalence",
    description="The fleet-detect fleet served over a loopback TCP "
    "socket: a FleetServer on an ephemeral port driven by the "
    "deterministic loadgen feeder in binary and newline-JSON framing; "
    "network-ingested alert JSONL must be byte-identical to the "
    "in-process replay, with samples/s and tick latency reported",
    datasets=_fault_fleet(4, t=6000),
    evaluation=pairs({
        "drivers": ("net",),
        "blocks": 20,
        "trees": 30,
        "train_frac": 0.5,
        "chunk": 256,
        "open_after": 2,
        "close_after": 2,
        "seed": 0,
        "formats": ("binary", "json"),
    }),
    tags=("extra", "service", "fleet", "net"),
    smoke=pairs({
        "datasets": _SMOKE_FLEET,
        "evaluation": {"blocks": 8, "trees": 6, "chunk": 200,
                       "formats": ("binary",)},
    }),
))

FLEET_SERVE_CHAOS = register(ScenarioSpec(
    name="fleet-serve-chaos",
    kind="fleet-contract",
    title="Network fleet serving through a seeded chaos proxy",
    description="The fleet-serve drill with a deterministic TCP chaos "
    "proxy in the path: byte corruption (caught by the binary frame "
    "CRC), hard resets, truncation and short partitions keyed on "
    "(seed, connection, byte offset); the resuming loadgen client "
    "re-sends from its last acked tick until the served alert JSONL "
    "is byte-identical to the in-process replay, every repetition",
    datasets=_fault_fleet(4, t=6000),
    evaluation=pairs({
        "drivers": ("netchaos",),
        "blocks": 20,
        "trees": 30,
        "train_frac": 0.5,
        "chunk": 256,
        "open_after": 2,
        "close_after": 2,
        "seed": 0,
        "chaos_seed": 0,
        "chaos_repeats": 2,
    }),
    tags=("extra", "service", "fleet", "net", "robustness"),
    smoke=pairs({
        "datasets": _SMOKE_FLEET,
        "evaluation": {"blocks": 8, "trees": 6, "chunk": 200,
                       "chaos_repeats": 2,
                       # ~2.5 MB feed at the calibrated default rates
                       # still lands several faults of every kind; a
                       # shorter ack stall keeps the smoke drill quick.
                       "ack_timeout": 1.0},
    }),
))

CROSSARCH_LENGTHS = register(ScenarioSpec(
    name="crossarch-lengths",
    kind="grid",
    title="Cross-architecture x signature length — merged-fleet scores",
    description="Application classification on the heterogeneous cross-"
    "architecture segment across uniform signature lengths (l <= 39, the "
    "smallest node's sensor count, so features stay mergeable)",
    datasets=(recipe("cross-architecture", t=1600),),
    methods=("cs-5", "cs-10", "cs-20", "cs-30"),
    evaluation=pairs({"trees": 20, "repeats": 1, "n_splits": 5, "seed": 0}),
    tags=("extra", "ml"),
    smoke=pairs({
        "datasets": (recipe("cross-architecture", t=900),),
        "methods": ("cs-5", "cs-10"),
        "evaluation": {"trees": 4},
    }),
))
