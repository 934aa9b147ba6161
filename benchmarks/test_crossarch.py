"""Benchmark: Section IV-F — cross-architecture portability.

Runs the merged three-architecture classification (paper: F1 = 0.995 RF /
0.992 MLP) and verifies the baselines cannot even produce compatible
signatures.
"""

from __future__ import annotations

from pathlib import Path

from benchmarks.conftest import SCALE, merge_csv
from repro.datasets.recipes import recipe
from repro.experiments.crossarch import baseline_signature_lengths
from repro.experiments.reporting import format_table
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import execute

RESULTS = Path(__file__).resolve().parent.parent / "results" / "crossarch.csv"


def test_crossarch_merged_classification(benchmark, bench_trees):
    spec = get_scenario("crossarch").with_datasets(
        (recipe("cross-architecture", t=int(1600 * SCALE)),)
    ).with_evaluation(blocks=20, trees=bench_trees, mlp_max_iter=80)
    result = benchmark.pedantic(
        lambda: execute(spec).extras["result"], rounds=1, iterations=1
    )
    rows = [("Random forest", round(result.rf_f1, 4), 0.995),
            ("MLP", round(result.mlp_f1, 4), 0.992)]
    merge_csv(RESULTS, ("Model", "F1 measured", "F1 paper"), rows, n_key_cols=1)
    print()
    print(format_table(
        ("Model", "F1 measured", "F1 paper"),
        rows,
        title="Section IV-F — merged cross-architecture classification",
    ))
    # The qualitative claim: near-perfect classification with no
    # architecture knowledge.
    assert result.rf_f1 > 0.95
    assert result.mlp_f1 > 0.9


def test_crossarch_baselines_incompatible():
    lengths = baseline_signature_lengths(seed=0, t=600)
    print(f"\nTuncer signature lengths per arch: {lengths}")
    assert len(set(lengths.values())) == 3
