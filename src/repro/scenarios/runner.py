"""The unified experiment runner: options -> spec -> evaluation -> sinks.

:func:`execute` is the single entry point every surface goes through —
``repro run``, ``repro run-all`` and Python callers holding a spec — so
all of them produce identical results (and byte-identical CSVs) for the
same effective spec.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.datasets.recipes import DatasetRecipe
from repro.experiments.reporting import Sink
from repro.scenarios.cache import ArtifactCache, ExecutionContext
from repro.scenarios.evaluations import ScenarioResult, get_evaluation
from repro.scenarios.spec import ScenarioSpec

__all__ = ["RunOptions", "apply_options", "execute"]


@dataclass
class RunOptions:
    """The shared cross-scenario run options (one per CLI invocation).

    ``None`` means "keep the spec's own value"; the spec stays the single
    source of per-scenario defaults.  Scenario-specific values (recipe
    sizes, block counts, grids) are set on the spec itself:
    ``spec.with_datasets(...)`` / ``spec.with_evaluation(...)``.
    """

    seed: int | None = None
    scale: float | None = None
    repeats: int | None = None
    trees: int | None = None
    smoke: bool = False
    cache_dir: str | Path | None = None
    out_dir: str | Path | None = None
    methods: Sequence[str] | None = None
    segments: Sequence[str] | None = None


def apply_options(spec: ScenarioSpec, options: RunOptions) -> ScenarioSpec:
    """Derive the effective spec for one run.

    The smoke variant is applied first; every *explicit* override beats
    the corresponding smoke replacement (so ``--smoke --segments fault``
    runs the *full-size* fault recipes under the reduced evaluation:
    there is no generic "smoke-sized" variant of an arbitrary segment,
    and explicitly requested values are never silently dropped).  Every
    override lands in a spec *field*, so it also lands in the content
    hash: any changed option re-addresses the cached artifacts.
    """
    if options.smoke:
        smoke = spec.smoke_dict()
        if "datasets" in smoke and not options.segments:
            spec = spec.with_datasets(smoke["datasets"])
        if "methods" in smoke and not options.methods:
            spec = spec.with_methods(smoke["methods"])
        if "evaluation" in smoke:
            spec = spec.with_evaluation(**dict(smoke["evaluation"]))
    if options.segments:
        spec = spec.with_datasets(
            DatasetRecipe(segment=name) for name in options.segments
        )
    if options.methods:
        spec = spec.with_methods(options.methods)
    if options.seed is not None or options.scale is not None:
        spec = spec.with_datasets(
            r.with_overrides(seed=options.seed, scale=options.scale)
            for r in spec.datasets
        )
    if options.seed is not None:
        spec = spec.with_evaluation(seed=int(options.seed))
    if options.repeats is not None:
        spec = spec.with_evaluation(repeats=int(options.repeats))
    if options.trees is not None:
        spec = spec.with_evaluation(trees=int(options.trees))
    return spec


def _write_artifacts(result: ScenarioResult, out_dir: Path) -> None:
    from repro.analysis.visualization import save_pgm

    out_dir.mkdir(parents=True, exist_ok=True)
    for name, image in result.artifacts.items():
        result.artifact_paths.append(save_pgm(out_dir / name, image))


def execute(
    spec: ScenarioSpec,
    *,
    options: RunOptions | None = None,
    sinks: Iterable[Sink] = (),
    context: ExecutionContext | None = None,
) -> ScenarioResult:
    """Run one scenario spec end to end.

    Applies the shared options, builds the execution context (opening the
    content-addressed cache when ``cache_dir`` is set), dispatches to the
    spec's evaluation kind, writes binary artifacts, then feeds every
    sink.  Returns the full :class:`ScenarioResult`.
    """
    options = options or RunOptions()
    spec = apply_options(spec, options)
    if context is None:
        store = ArtifactCache(options.cache_dir) if options.cache_dir else None
        context = ExecutionContext(store)
    start = time.perf_counter()
    result = get_evaluation(spec.kind)(spec, context)
    result.wall_time_s = time.perf_counter() - start
    result.cache_stats = dict(context.stats)
    if result.artifacts and options.out_dir is not None:
        _write_artifacts(result, Path(options.out_dir))
    for sink in sinks:
        sink.emit(result)
    return result
