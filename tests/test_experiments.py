"""Tests for the experiment harness, the per-figure kernels and the paper
scenario specs they back (small scale)."""

import numpy as np
import pytest

from repro.datasets.generators import generate_application
from repro.datasets.recipes import DatasetRecipe, recipe
from repro.experiments import crossarch, fig5, fig6, table1
from repro.experiments.harness import (
    DEFAULT_METHODS,
    make_method_factory,
    run_method_on_segment,
)
from repro.experiments.reporting import format_table, format_value, save_csv
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import RunOptions, execute


class TestReporting:
    def test_format_value(self):
        assert format_value(0.123456) == "0.1235"
        assert format_value(1234567.0) == "1.235e+06"
        assert format_value(3) == "3"
        assert format_value("x") == "x"
        assert format_value(True) == "True"
        assert format_value(0.0) == "0"

    def test_format_table_alignment(self):
        out = format_table(("A", "Method"), [(1, "tuncer"), (22, "cs")])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines[1:3])

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(("A",), [(1, 2)])

    def test_save_csv(self, tmp_path):
        path = save_csv(tmp_path / "r.csv", ("a", "b"), [(1, 2.5)])
        assert path.read_text() == "a,b\n1,2.5\n"


class TestHarness:
    def test_default_methods(self):
        assert DEFAULT_METHODS == (
            "tuncer", "bodik", "lan", "cs-5", "cs-10", "cs-20", "cs-40", "cs-all",
        )

    def test_make_method_factory_string(self):
        m = make_method_factory("cs-10")()
        assert m.name == "CS-10"

    def test_make_method_factory_real_only(self):
        m = make_method_factory("cs-10", real_only=True)()
        assert m.name == "CS-10-R"
        assert m.feature_length(52, 30) == 10

    def test_real_only_rejected_for_baselines(self):
        with pytest.raises(ValueError):
            make_method_factory("tuncer", real_only=True)

    def test_run_classification(self, application_segment):
        res = run_method_on_segment(
            application_segment, "cs-5", trees=8, seed=0
        )
        assert res.segment == "application"
        assert res.method == "cs-5"
        assert 0.0 <= res.ml_score <= 1.0
        assert res.ml_score > 0.8  # easy synthetic task
        assert res.signature_size == 10
        assert res.generation_time_s > 0
        assert res.cv_time_s > 0

    def test_run_regression(self, infrastructure_segment):
        res = run_method_on_segment(
            infrastructure_segment, "cs-5", trees=8, seed=0
        )
        assert res.ml_score > 0.5

    def test_repeats_average(self, application_segment):
        res = run_method_on_segment(
            application_segment, "cs-5", trees=4, repeats=2, seed=0
        )
        assert res.ml_score_std >= 0.0

    def test_row_shape(self, application_segment):
        res = run_method_on_segment(application_segment, "lan", trees=4)
        assert len(res.row()) == 7


class TestFig3:
    def test_small_grid(self, application_segment):
        spec = get_scenario("fig3").with_datasets(
            (recipe("application", scale=0.5, t=700, nodes=2),)
        ).with_methods(("lan", "cs-5")).with_evaluation(trees=4)
        results = execute(spec).extras["results"]
        assert len(results) == 2
        by_method = {r.method: r for r in results}
        # Figure 3b: CS-5 signatures much smaller than Lan's.
        assert by_method["cs-5"].signature_size < by_method["lan"].signature_size


class TestFig4:
    def test_points_and_monotonicity(self, application_segment):
        spec = get_scenario("fig4").with_datasets(
            (DatasetRecipe(segment="application"),)
        ).with_evaluation(lengths=(5, 20), trees=4, with_real_only=False)
        pts = execute(spec).extras["points"]
        assert len(pts) == 2
        js5 = next(p for p in pts if p.length == "5").js_divergence
        js20 = next(p for p in pts if p.length == "20").js_divergence
        assert js20 < js5  # Figure 4a: divergence falls with l

    def test_real_only_variants_present(self):
        spec = get_scenario("fig4").with_datasets(
            (DatasetRecipe(segment="infrastructure"),)
        ).with_evaluation(lengths=(5,), trees=4, with_real_only=True)
        pts = execute(spec).extras["points"]
        assert {p.real_only for p in pts} == {False, True}
        full = next(p for p in pts if not p.real_only)
        ronly = next(p for p in pts if p.real_only)
        assert ronly.js_divergence > full.js_divergence


class TestFig5:
    @staticmethod
    def _points(methods, **evaluation):
        spec = get_scenario("fig5").with_methods(methods)
        return execute(spec.with_evaluation(**evaluation)).extras["points"]

    def test_timing_points(self):
        pts = self._points(
            ("lan", "cs-5"), wl_grid=(10, 50), n_grid=(10, 50), repeats=3
        )
        # 2 methods x 2 wl + 2 methods x 2 n = 8 points.
        assert len(pts) == 8
        assert all(p.median_time_s >= 0.0 for p in pts)

    def test_skips_infeasible_block_counts(self):
        pts = self._points(
            ("cs-40",), wl_grid=(10,), n_grid=(10, 100), repeats=1
        )
        # On the n axis, n=10 < 40 blocks is skipped; the wl axis uses
        # fixed_n=100, which is feasible.
        assert len(pts) == 2
        assert all(p.n == 100 for p in pts)

    def test_time_single_signature_positive(self):
        t = fig5.time_single_signature("tuncer", 20, 50, repeats=3)
        assert t > 0


class TestFig6:
    def test_run_intervals(self):
        labels = np.array([0, 0, 1, 1, 1, 0, 1, 1])
        assert fig6.run_intervals(labels, 1) == [(2, 5), (6, 8)]
        assert fig6.run_intervals(labels, 0) == [(0, 2), (5, 6)]
        assert fig6.run_intervals(labels, 7) == []

    def test_application_heatmaps(self, tmp_path):
        segment = generate_application(seed=0, t=900, nodes=2)
        res = fig6.application_heatmaps(segment, "Kripke", blocks=16)
        assert res.signatures.shape[1] == 16
        assert res.real_image.dtype == np.uint8
        assert res.real_image.shape[0] == 16
        assert res.boundaries.size >= 1

    def test_unknown_app_raises(self):
        segment = generate_application(seed=0, t=600, nodes=2)
        with pytest.raises(KeyError):
            fig6.application_heatmaps(segment, "NotAnApp", blocks=8)


class TestFig7:
    def test_run_produces_three_architectures(self, tmp_path):
        spec = get_scenario("fig7").with_datasets(
            (recipe("cross-architecture", t=2600),)
        ).with_evaluation(blocks=10)
        results = execute(
            spec, options=RunOptions(out_dir=tmp_path)
        ).extras["results"]
        assert len(results) == 3
        assert {r.arch for r in results} == {
            "skylake", "knights-landing", "amd-rome",
        }
        # All heatmaps share the block count despite differing sensors.
        assert all(r.real_image.shape[0] == 10 for r in results)
        assert (tmp_path / "fig7_skylake_real.pgm").exists()


class TestCrossArch:
    def test_baseline_lengths_incompatible(self, crossarch_segment):
        lengths = crossarch.baseline_signature_lengths(crossarch_segment)
        assert len(set(lengths.values())) == 3  # all different

    def test_merged_classification(self):
        spec = get_scenario("crossarch").with_datasets(
            (recipe("cross-architecture", t=900),)
        ).with_evaluation(blocks=10, trees=8, mlp_max_iter=40)
        res = execute(spec).extras["result"]
        assert res.rf_f1 > 0.9
        assert res.mlp_f1 > 0.7
        assert res.signature_size == 20
        assert len(res.per_arch_counts) == 3


class TestTable1:
    def test_summary_row(self, application_segment):
        row = table1.segment_summary(application_segment)
        assert row[0] == "application"
        assert row[2] == 3  # components in the fixture
        assert row[-2:] == (30, 5)

    def test_cross_arch_sensor_string(self, crossarch_segment):
        row = table1.segment_summary(crossarch_segment)
        assert row[3] == "52/46/39"
