"""Benchmark: Figure 4 — JS divergence (a) and ML score (b) vs length.

For each segment, sweeps the signature length l over {5, 10, 20, 40, All}
and prints the JS divergence and ML score, plus the real-only (-R)
variants.  Expected shapes: JS falls and ML rises monotonically (up to
noise) with l; dropping the imaginary parts raises JS everywhere and
hurts Power/Fault scores most, Infrastructure not at all.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.datasets.generators import build_ml_dataset
from repro.experiments.fig4 import segment_js_divergence
from repro.experiments.harness import make_method_factory
from benchmarks.conftest import SEGMENT_FIXTURES, merge_csv
from repro.experiments.reporting import format_table
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.model_selection import (
    cross_validate_classifier,
    cross_validate_regressor,
)
from repro.scenarios.evaluations import LENGTH_SWEEP_HEADERS as HEADERS

LENGTHS = (5, 10, 20, 40, "all")

_ROWS: list[tuple] = []

RESULTS = Path(__file__).resolve().parent.parent / "results" / "fig4_sweep.csv"


def _ml_score(seg, method_factory, trees) -> tuple[float, int]:
    ds = build_ml_dataset(seg, method_factory)
    if ds.task == "classification":
        scores = cross_validate_classifier(
            lambda: RandomForestClassifier(trees, random_state=0),
            ds.X, ds.y, random_state=0,
        )
    else:
        scores = cross_validate_regressor(
            lambda: RandomForestRegressor(trees, random_state=0),
            ds.X, ds.y, random_state=0,
        )
    return float(scores.mean()), ds.signature_size


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("segment", list(SEGMENT_FIXTURES))
def test_fig4_point(benchmark, request, segment, length, bench_trees):
    seg = request.getfixturevalue(SEGMENT_FIXTURES[segment])
    # The benchmark target is the divergence computation itself.
    js = benchmark.pedantic(
        lambda: segment_js_divergence(seg, length, real_only=False),
        rounds=1, iterations=1,
    )
    score, size = _ml_score(seg, make_method_factory(f"cs-{length}"), bench_trees)
    js_r = segment_js_divergence(seg, length, real_only=True)
    score_r, _ = _ml_score(
        seg, make_method_factory(f"cs-{length}", real_only=True), bench_trees
    )
    rows = [
        (segment, str(length), False, round(js, 4), round(score, 4), size),
        (segment, str(length), True, round(js_r, 4), round(score_r, 4), size // 2),
    ]
    _ROWS.extend(rows)
    merge_csv(RESULTS, HEADERS, _ROWS, n_key_cols=3)
    print()
    print(format_table(HEADERS, rows, title=f"Figure 4 — {segment}, l={length}"))
    assert 0.0 <= js <= 1.0
    # Removing derivatives loses information; allow a hair of histogram
    # noise when the derivative distribution is itself near-degenerate.
    assert js_r >= js - 0.01


def test_fig4_summary_shapes():
    if not _ROWS:
        pytest.skip("grid incomplete")
    print()
    print(format_table(HEADERS, sorted(_ROWS), title="Figure 4 — full sweep"))
    segments = {r[0] for r in _ROWS}
    for segment in segments:
        full = {r[1]: r for r in _ROWS if r[0] == segment and not r[2]}
        if {"5", "all"} <= set(full):
            # Figure 4a: JS divergence decreases from l=5 to l=All.
            assert full["all"][3] < full["5"][3]
    # Infrastructure: real-only costs (almost) nothing in ML score.
    infra_pairs = [
        (r, next(q for q in _ROWS if q[:2] == r[:2] and q[2]))
        for r in _ROWS
        if r[0] == "infrastructure" and not r[2]
    ]
    if infra_pairs:
        drops = [full[4] - ronly[4] for full, ronly in infra_pairs]
        assert float(np.mean(drops)) < 0.05
