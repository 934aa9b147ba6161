"""Experiment harness: dataset generation + cross-validation with timing.

Implements the Section IV-A methodology: a signature method turns each
segment into feature sets (timed as "dataset generation"), the feature
sets are shuffled and 5-fold cross-validated with a 50-tree random forest
(stratified folds for classification), and the ML score is the macro
F1-score or ``1 - NRMSE``.  Results are averaged over ``repeats``
independent runs (the paper uses 5).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.baselines.base import SignatureMethod, get_method
from repro.baselines.cs_adapter import CSSignature
from repro.datasets.generators import SegmentData, WindowedDataset, build_ml_dataset
from repro.engine.fleet import FleetSignatureEngine
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.model_selection import (
    repeated_cross_validate_classifier,
    repeated_cross_validate_regressor,
)

__all__ = [
    "DEFAULT_METHODS",
    "ExperimentResult",
    "FleetRunResult",
    "evaluate_windowed_dataset",
    "make_method_factory",
    "method_display_name",
    "run_fleet_on_segment",
    "run_method_on_segment",
]

#: The eight method configurations of Figure 3.
DEFAULT_METHODS: tuple[str, ...] = (
    "tuncer",
    "bodik",
    "lan",
    "cs-5",
    "cs-10",
    "cs-20",
    "cs-40",
    "cs-all",
)


@dataclass
class ExperimentResult:
    """One (segment, method) cell of Figure 3."""

    segment: str
    method: str
    ml_score: float
    ml_score_std: float
    signature_size: int
    generation_time_s: float
    cv_time_s: float
    n_samples: int

    def row(self) -> tuple:
        """Row for the reporting tables."""
        return (
            self.segment,
            self.method,
            self.signature_size,
            round(self.generation_time_s, 4),
            round(self.cv_time_s, 4),
            round(self.ml_score, 4),
            round(self.ml_score_std, 4),
        )


@dataclass
class FleetRunResult:
    """Outcome of a batched fleet-wide signature computation."""

    signatures: dict[str, np.ndarray]  # component name -> (num, l) complex
    fit_time_s: float
    transform_time_s: float

    @property
    def n_nodes(self) -> int:
        return len(self.signatures)

    @property
    def n_signatures(self) -> int:
        return sum(s.shape[0] for s in self.signatures.values())


def run_fleet_on_segment(
    segment: SegmentData,
    *,
    blocks: int | str = "all",
    wl: int | None = None,
    ws: int | None = None,
) -> FleetRunResult:
    """Compute every component's CS signatures in one batched fleet call.

    Treats each component of the segment as one node of a
    :class:`~repro.engine.fleet.FleetSignatureEngine` (matching the
    paper's per-component methodology: a fresh model fitted on each
    component's own data) and transforms the whole fleet at once.  The
    per-node results are bit-identical to looping
    ``CorrelationWiseSmoothing.fit(...).transform_series(...)`` over the
    components, which is what the engine scaling benchmark measures
    against.
    """
    spec = segment.spec
    wl = spec.wl if wl is None else int(wl)
    ws = spec.ws if ws is None else int(ws)
    engine = FleetSignatureEngine(blocks=blocks, wl=wl, ws=ws)
    data = {comp.name: comp.matrix for comp in segment.components}
    start = time.perf_counter()
    for comp in segment.components:
        engine.fit_node(comp.name, comp.matrix, sensor_names=comp.sensor_names)
    fit_time = time.perf_counter() - start
    start = time.perf_counter()
    signatures = engine.transform_fleet(data)
    transform_time = time.perf_counter() - start
    return FleetRunResult(
        signatures=signatures,
        fit_time_s=fit_time,
        transform_time_s=transform_time,
    )


def make_method_factory(
    spec: str | Callable[[], SignatureMethod], *, real_only: bool = False
) -> Callable[[], SignatureMethod]:
    """Normalize a method spec into a zero-arg factory.

    Strings go through the registry (``"tuncer"``, ``"cs-20"``, ...);
    ``real_only`` builds the ``-R`` CS variants of Figure 4.
    """
    if callable(spec):
        return spec
    name = str(spec)
    if real_only:
        if not name.lower().startswith("cs-"):
            raise ValueError("real_only only applies to CS methods")
        token = name[3:]
        blocks: int | str = "all" if token.lower() == "all" else int(token)
        return lambda: CSSignature(blocks=blocks, real_only=True)
    return lambda: get_method(name)


def _cross_validate_repeated(
    dataset: WindowedDataset,
    *,
    trees: int,
    n_splits: int,
    repeats: int,
    seed: int | None,
) -> np.ndarray:
    """(repeats, n_splits) scores; folds/models seeded ``seed + r``.

    The repeated drivers compute the fold grouping once and redraw only
    the per-repeat shuffles, producing the same folds, models and scores
    as building a fresh splitter per repeat.
    """
    if dataset.task == "classification":
        return repeated_cross_validate_classifier(
            lambda s: RandomForestClassifier(trees, random_state=s),
            dataset.X,
            dataset.y,
            n_splits=n_splits,
            repeats=repeats,
            random_state=seed,
        )
    return repeated_cross_validate_regressor(
        lambda s: RandomForestRegressor(trees, random_state=s),
        dataset.X,
        dataset.y,
        n_splits=n_splits,
        repeats=repeats,
        random_state=seed,
    )


def evaluate_windowed_dataset(
    dataset: WindowedDataset,
    *,
    segment_name: str,
    method_name: str,
    trees: int = 50,
    n_splits: int = 5,
    repeats: int = 1,
    seed: int = 0,
) -> ExperimentResult:
    """Cross-validate one prebuilt signature set (the CV half of a cell).

    The scenario runner calls this directly so cached signature sets skip
    dataset generation entirely; :func:`run_method_on_segment` remains
    the build-then-evaluate convenience wrapper.
    """
    start = time.perf_counter()
    fold_scores = _cross_validate_repeated(
        dataset,
        trees=trees,
        n_splits=n_splits,
        repeats=max(repeats, 1),
        seed=seed,
    )
    cv_time = time.perf_counter() - start
    scores_arr = fold_scores.mean(axis=1)
    return ExperimentResult(
        segment=segment_name,
        method=method_name,
        ml_score=float(scores_arr.mean()),
        ml_score_std=float(scores_arr.std()),
        signature_size=dataset.signature_size,
        generation_time_s=dataset.generation_time_s,
        cv_time_s=cv_time / max(repeats, 1),
        n_samples=dataset.n_samples,
    )


def method_display_name(
    method: str | Callable[[], SignatureMethod], *, real_only: bool = False
) -> str:
    """Row label of a method spec (``-R`` suffix for real-only variants)."""
    name = method if isinstance(method, str) else method().name
    name = str(name)
    if real_only and not name.endswith("-R"):
        name = f"{name}-R"
    return name


def run_method_on_segment(
    segment: SegmentData,
    method: str | Callable[[], SignatureMethod],
    *,
    trees: int = 50,
    n_splits: int = 5,
    repeats: int = 1,
    seed: int = 0,
    real_only: bool = False,
) -> ExperimentResult:
    """Evaluate one signature method on one segment.

    Returns the averaged ML score over ``repeats`` cross-validation runs
    plus the dataset-generation and cross-validation wall-clock times
    (the two bar sections of Figure 3a).
    """
    factory = make_method_factory(method, real_only=real_only)
    # The feature matrix is generated once and shared by all repeats;
    # only the CV shuffles differ per repeat.
    dataset = build_ml_dataset(segment, factory)
    name = method if isinstance(method, str) else factory().name
    return evaluate_windowed_dataset(
        dataset,
        segment_name=segment.spec.name,
        method_name=method_display_name(name, real_only=real_only),
        trees=trees,
        n_splits=n_splits,
        repeats=repeats,
        seed=seed,
    )
