"""Benchmark: Figures 2, 6 and 7 — signature heatmap generation.

Times the full heatmap pipeline (train on the stacked node matrix, sort,
smooth all windows of each run) and verifies the interpretability hooks
the paper describes: Kripke's iterative pattern, Linpack's constant load
with init phase, Quicksilver's frequency oscillation, AMG's memory
gradient, and pattern recurrence across architectures (Figure 7).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import SCALE
from repro.datasets.generators import generate_application
from repro.datasets.recipes import recipe
from repro.experiments.fig6 import application_heatmaps
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import execute


@pytest.fixture(scope="module")
def app_segment():
    return generate_application(seed=0, t=int(2400 * SCALE), nodes=8)


@pytest.mark.parametrize("app", ["Kripke", "Linpack", "Quicksilver", "AMG"])
def test_fig6_heatmap_generation(benchmark, app_segment, app):
    res = benchmark.pedantic(
        lambda: application_heatmaps(app_segment, app, blocks=160),
        rounds=1, iterations=1,
    )
    assert res.signatures.shape[1] == 160
    assert res.real_image.shape[0] == 160


def test_fig6_kripke_iterative(app_segment):
    """Kripke's real components oscillate over time (iterations)."""
    res = application_heatmaps(app_segment, "Kripke", blocks=160)
    top_blocks = res.signatures.real[:, :40]  # descriptive upper section
    temporal_std = top_blocks.std(axis=0).mean()
    lin = application_heatmaps(app_segment, "Linpack", blocks=160)
    lin_std = lin.signatures.real[:, :40].std(axis=0).mean()
    print(f"\nKripke temporal std {temporal_std:.4f} vs Linpack {lin_std:.4f}")
    assert temporal_std > lin_std


def test_fig6_quicksilver_light_load(app_segment):
    """Quicksilver: 'very light load ... with small values across all blocks'."""
    qs = application_heatmaps(app_segment, "Quicksilver", blocks=160)
    lp = application_heatmaps(app_segment, "Linpack", blocks=160)
    assert qs.signatures.real.mean() < lp.signatures.real.mean()


def test_fig6_amg_memory_gradient(app_segment):
    """AMG: a gradient in block values within each run (memory growth)."""
    res = application_heatmaps(app_segment, "AMG", blocks=160)
    bounds = [0] + [int(b) + 1 for b in res.boundaries]
    increasing = 0
    runs = 0
    for s, e in zip(bounds[:-1], bounds[1:]):
        if e - s < 4:
            continue
        runs += 1
        # Mean real value in the first vs last quarter of the run.
        sigs = res.signatures.real[s:e]
        q = max(1, (e - s) // 4)
        if sigs[-q:].mean() > sigs[:q].mean():
            increasing += 1
    assert runs > 0 and increasing >= runs / 2


def test_fig7_cross_architecture_patterns(benchmark):
    """LAMMPS heatmaps exist for all three architectures with equal l."""
    spec = get_scenario("fig7").with_datasets(
        (recipe("cross-architecture", t=int(2600 * SCALE)),)
    ).with_evaluation(blocks=20)
    results = benchmark.pedantic(
        lambda: execute(spec).extras["results"], rounds=1, iterations=1
    )
    assert len(results) == 3
    assert all(r.signatures.shape[1] == 20 for r in results)
    # "The same performance patterns can be recognized in all cases":
    # the block-mean profiles of the three heatmaps correlate pairwise.
    profiles = [r.signatures.real.mean(axis=0) for r in results]
    for i in range(3):
        for j in range(i + 1, 3):
            corr = np.corrcoef(profiles[i], profiles[j])[0, 1]
            print(f"\nprofile corr {results[i].arch} vs {results[j].arch}: {corr:.3f}")
            assert corr > 0.0
