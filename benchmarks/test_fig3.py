"""Benchmark: Figure 3 — times (a), signature sizes (b), ML scores (c).

For each (segment, method) cell: the dataset-generation phase is the
pytest benchmark; the 5-fold cross-validation time, signature size and ML
score are computed once and printed as the paper's rows.  Expected
shapes: CS signatures ~10x smaller than Tuncer/Bodik (3b); CS generation
and CV up to ~10x faster (3a); scores comparable, with Fault needing a
high block count and Infrastructure saturating at CS-5 (3c).
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.datasets.generators import build_ml_dataset
from repro.experiments.harness import make_method_factory
from benchmarks.conftest import SEGMENT_FIXTURES, merge_csv
from repro.experiments.reporting import format_table
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.model_selection import (
    cross_validate_classifier,
    cross_validate_regressor,
)
from repro.scenarios.evaluations import GRID_HEADERS as HEADERS

METHODS = ("tuncer", "bodik", "lan", "cs-5", "cs-10", "cs-20", "cs-40", "cs-all")

_ROWS: list[tuple] = []

#: Every cell rewrites this file, so a partial or filtered run still
#: leaves a complete record of what it measured.
RESULTS = Path(__file__).resolve().parent.parent / "results" / "fig3_grid.csv"


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("segment", list(SEGMENT_FIXTURES))
def test_fig3_cell(benchmark, request, segment, method, bench_trees):
    seg = request.getfixturevalue(SEGMENT_FIXTURES[segment])
    factory = make_method_factory(method)

    dataset = benchmark.pedantic(
        lambda: build_ml_dataset(seg, factory), rounds=1, iterations=1
    )
    start = time.perf_counter()
    if dataset.task == "classification":
        scores = cross_validate_classifier(
            lambda: RandomForestClassifier(bench_trees, random_state=0),
            dataset.X, dataset.y, random_state=0,
        )
    else:
        scores = cross_validate_regressor(
            lambda: RandomForestRegressor(bench_trees, random_state=0),
            dataset.X, dataset.y, random_state=0,
        )
    cv_time = time.perf_counter() - start
    row = (
        segment,
        method,
        dataset.signature_size,
        round(dataset.generation_time_s, 4),
        round(cv_time, 4),
        round(float(scores.mean()), 4),
        round(float(scores.std()), 4),
    )
    _ROWS.append(row)
    merge_csv(RESULTS, HEADERS, _ROWS)
    print()
    print(format_table(HEADERS, [row], title=f"Figure 3 cell — {segment}/{method}"))
    assert 0.0 <= scores.mean() <= 1.0
    # Performance requirement: every method must beat a trivial predictor.
    assert scores.mean() > 0.5


def test_fig3_summary_shapes():
    """After the grid ran, check the paper's qualitative claims."""
    if len(_ROWS) < len(METHODS):
        pytest.skip("grid incomplete (ran with -k filter)")
    by = {(r[0], r[1]): r for r in _ROWS}

    for segment in {r[0] for r in _ROWS}:
        if (segment, "tuncer") in by and (segment, "cs-20") in by:
            # Figure 3b: CS-20 signatures are much smaller than Tuncer's.
            assert by[(segment, "cs-20")][2] * 5 <= by[(segment, "tuncer")][2]
            # Figure 3c: CS at sufficient l is within a few points.
            best_cs = max(
                by[(segment, m)][5]
                for m in ("cs-20", "cs-40", "cs-all")
                if (segment, m) in by
            )
            assert best_cs > by[(segment, "tuncer")][5] - 0.08
    print()
    print(format_table(HEADERS, sorted(_ROWS), title="Figure 3 — full grid"))
