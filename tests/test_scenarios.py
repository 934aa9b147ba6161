"""Tests for the scenario subsystem: specs, registry, cache, runner."""

import numpy as np
import pytest

from repro.datasets.recipes import DatasetRecipe, recipe
from repro.scenarios import (
    ArtifactCache,
    ExecutionContext,
    RunOptions,
    ScenarioSpec,
    execute,
    get_scenario,
    list_scenarios,
    scenario_names,
)
from repro.scenarios.cache import dataset_key, segment_key
from repro.scenarios.runner import apply_options
from repro.scenarios.spec import canonical_json, content_key

PAPER_NAMES = {"table1", "fig3", "fig4", "fig5", "fig6", "fig7", "crossarch"}
EXTRA_NAMES = {
    "fleet-scaling",
    "fault-mix",
    "noise-robustness",
    "sensor-drift",
    "crossarch-lengths",
}


class TestRegistry:
    def test_paper_scenarios_registered(self):
        assert PAPER_NAMES <= set(scenario_names())

    def test_at_least_four_non_paper_scenarios(self):
        extras = [s for s in list_scenarios() if not s.paper]
        assert len(extras) >= 4
        assert EXTRA_NAMES <= {s.name for s in extras}

    def test_paper_scenarios_listed_first(self):
        names = scenario_names()
        paper_idx = [names.index(n) for n in PAPER_NAMES]
        extra_idx = [names.index(n) for n in EXTRA_NAMES]
        assert max(paper_idx) < min(extra_idx)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("not-a-scenario")

    def test_tag_filter(self):
        robustness = scenario_names(tag="robustness")
        assert "noise-robustness" in robustness
        assert "fig3" not in robustness

    def test_every_scenario_has_smoke_config(self):
        for spec in list_scenarios():
            assert spec.smoke, f"{spec.name} lacks a smoke configuration"

    def test_extra_scenarios_use_generic_kinds_only(self):
        # "specs only, zero new bespoke runner code": every non-paper
        # scenario runs on an evaluation kind shared with the rest of
        # the subsystem.
        from repro.scenarios.evaluations import evaluation_kinds

        kinds = set(evaluation_kinds())
        for spec in list_scenarios():
            assert spec.kind in kinds


class TestSpecSerialization:
    def test_round_trip(self):
        for spec in list_scenarios():
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_preserves_hash(self):
        for spec in list_scenarios():
            assert ScenarioSpec.from_dict(spec.to_dict()).spec_hash() == \
                spec.spec_hash()

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": (2, 3)}) == '{"a":[2,3],"b":1}'

    def test_any_field_change_changes_hash(self):
        spec = get_scenario("fig3")
        variants = [
            spec.with_evaluation(trees=51),
            spec.with_evaluation(seed=1),
            spec.with_methods(("cs-5",)),
            spec.with_datasets((recipe("fault", seed=1),)),
        ]
        hashes = {spec.spec_hash()} | {v.spec_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_recipe_round_trip(self):
        r = recipe("application", t=700, nodes=2, noise_std=0.1,
                   noise_seed=3, label="app+n")
        assert DatasetRecipe.from_dict(r.to_dict()) == r

    def test_recipe_param_order_is_canonical(self):
        a = DatasetRecipe("application", params=(("t", 700), ("nodes", 2)))
        b = DatasetRecipe("application", params=(("nodes", 2), ("t", 700)))
        assert a == b
        assert content_key(a.to_dict()) == content_key(b.to_dict())

    def test_recipe_rejects_unknown_segment(self):
        with pytest.raises(KeyError):
            DatasetRecipe("not-a-segment")


class TestRecipeBuild:
    def test_deterministic(self):
        r = recipe("application", t=700, nodes=2)
        a, b = r.build(), r.build()
        for ca, cb in zip(a.components, b.components):
            assert np.array_equal(ca.matrix, cb.matrix)

    def test_matches_direct_generation(self):
        from repro.datasets.generators import generate_application

        r = recipe("application", t=700, nodes=2, seed=5)
        built = r.build()
        direct = generate_application(seed=5, t=700, nodes=2)
        for ca, cb in zip(built.components, direct.components):
            assert np.array_equal(ca.matrix, cb.matrix)

    def test_noise_perturbs_sensors_not_labels(self):
        clean = recipe("application", t=700, nodes=2).build()
        noisy = recipe(
            "application", t=700, nodes=2, noise_std=0.1, noise_seed=1
        ).build()
        assert not np.array_equal(
            clean.components[0].matrix, noisy.components[0].matrix
        )
        assert np.array_equal(
            clean.components[0].labels, noisy.components[0].labels
        )

    def test_drift_grows_over_time(self):
        clean = recipe("power", t=1500).build()
        drifted = recipe("power", t=1500, drift=0.5, noise_seed=2).build()
        delta = np.abs(drifted.components[0].matrix - clean.components[0].matrix)
        t = delta.shape[1]
        assert delta[:, : t // 4].mean() < delta[:, -t // 4:].mean()

    def test_display_label(self):
        assert recipe("fault").display == "fault"
        assert recipe("fault", label="fault#s1").display == "fault#s1"


class TestExecutionContext:
    def test_segment_memoized_in_run(self):
        ctx = ExecutionContext()
        r = recipe("application", t=700, nodes=2)
        assert ctx.segment(r) is ctx.segment(r)
        assert ctx.stats["segment_misses"] == 1

    def test_dataset_cache_round_trip(self, tmp_path):
        r = recipe("application", t=700, nodes=2)
        cold_ctx = ExecutionContext(ArtifactCache(tmp_path))
        cold = cold_ctx.dataset(r, "cs-5")
        assert cold_ctx.stats["dataset_misses"] == 1
        warm_ctx = ExecutionContext(ArtifactCache(tmp_path))
        warm = warm_ctx.dataset(r, "cs-5")
        assert warm_ctx.stats == {
            "segment_hits": 0,
            "segment_misses": 0,
            "dataset_hits": 1,
            "dataset_misses": 0,
        }
        assert np.array_equal(cold.X, warm.X)
        assert np.array_equal(cold.y, warm.y)
        assert np.array_equal(cold.groups, warm.groups)
        assert warm.task == cold.task
        assert warm.label_names == cold.label_names
        assert warm.signature_size == cold.signature_size
        assert warm.generation_time_s == cold.generation_time_s

    def test_segment_cache_round_trip(self, tmp_path):
        r = recipe("application", t=700, nodes=2)
        ExecutionContext(ArtifactCache(tmp_path)).segment(r)
        warm_ctx = ExecutionContext(ArtifactCache(tmp_path))
        seg = warm_ctx.segment(r)
        assert warm_ctx.stats["segment_hits"] == 1
        assert np.array_equal(seg.components[0].matrix, r.build().components[0].matrix)

    def test_cache_invalidated_by_any_recipe_field(self, tmp_path):
        base = recipe("application", t=700, nodes=2)
        ctx = ExecutionContext(ArtifactCache(tmp_path))
        ctx.dataset(base, "cs-5")
        variants = [
            recipe("application", t=700, nodes=2, seed=1),
            recipe("application", t=700, nodes=2, scale=2.0),
            recipe("application", t=800, nodes=2),
            recipe("application", t=700, nodes=2, noise_std=0.1),
        ]
        keys = {dataset_key(base, "cs-5")}
        keys |= {dataset_key(v, "cs-5") for v in variants}
        assert len(keys) == len(variants) + 1
        # method / windowing / real-only also re-address the artifact
        assert dataset_key(base, "cs-10") not in keys
        assert dataset_key(base, "cs-5", wl=20) != dataset_key(base, "cs-5")
        assert dataset_key(base, "cs-5", real_only=True) != dataset_key(base, "cs-5")
        assert segment_key(base) != segment_key(variants[0])
        # and a different-seed fetch is a miss, not a stale hit
        ctx2 = ExecutionContext(ArtifactCache(tmp_path))
        ctx2.dataset(variants[0], "cs-5")
        assert ctx2.stats["dataset_misses"] == 1

    def test_display_label_does_not_fragment_cache(self):
        """Recipes building bit-identical data share one content address."""
        plain = recipe("application")
        labelled = recipe("application", label="application+n0")
        assert segment_key(plain) == segment_key(labelled)
        assert dataset_key(plain, "cs-20") == dataset_key(labelled, "cs-20")
        # ... but a noise_seed only matters once a perturbation draws it
        assert segment_key(recipe("application", noise_seed=7)) == \
            segment_key(plain)
        assert segment_key(
            recipe("application", noise_std=0.1, noise_seed=7)
        ) != segment_key(recipe("application", noise_std=0.1, noise_seed=8))

    def test_callable_methods_bypass_store(self, tmp_path):
        from repro.baselines.base import get_method

        with pytest.raises(TypeError, match="cacheable"):
            dataset_key(recipe("application"), get_method)
        ctx = ExecutionContext(ArtifactCache(tmp_path))
        r = recipe("application", t=700, nodes=2)
        ds = ctx.dataset(r, lambda: get_method("cs-5"))
        assert ds.signature_size == 10
        assert ctx.stats["dataset_misses"] == 1
        assert not list((tmp_path / "datasets").iterdir())  # nothing stored


class TestRunnerOptions:
    def test_smoke_variant_applied(self):
        spec = apply_options(get_scenario("fig3"), RunOptions(smoke=True))
        assert spec.methods == ("lan", "cs-5")
        assert spec.evaluation_dict()["trees"] == 4

    def test_seed_override_reaches_recipes_and_evaluation(self):
        spec = apply_options(get_scenario("fig3"), RunOptions(seed=9))
        assert all(r.seed == 9 for r in spec.datasets)
        assert spec.evaluation_dict()["seed"] == 9

    def test_scale_and_repeats_overrides(self):
        spec = apply_options(
            get_scenario("fig3"), RunOptions(scale=0.5, repeats=3, trees=7)
        )
        assert all(r.scale == 0.5 for r in spec.datasets)
        ev = spec.evaluation_dict()
        assert ev["repeats"] == 3 and ev["trees"] == 7

    def test_segments_override_replaces_datasets(self):
        spec = apply_options(
            get_scenario("fig3"), RunOptions(segments=("fault",), seed=2)
        )
        assert [r.segment for r in spec.datasets] == ["fault"]
        assert spec.datasets[0].seed == 2

    def test_explicit_overrides_beat_smoke_replacements(self):
        """--smoke --segments keeps the user's recipes (full size) while
        still applying the smoke evaluation parameters."""
        spec = apply_options(
            get_scenario("fig3"), RunOptions(smoke=True, segments=("fault",))
        )
        assert [r.segment for r in spec.datasets] == ["fault"]
        assert spec.methods == ("lan", "cs-5")  # smoke methods still apply
        assert spec.evaluation_dict()["trees"] == 4
        spec = apply_options(
            get_scenario("fig3"), RunOptions(smoke=True, methods=("tuncer",))
        )
        assert spec.methods == ("tuncer",)
        assert [r.segment for r in spec.datasets] == ["application"]

    def test_overrides_change_spec_hash(self):
        base = get_scenario("fig3")
        assert apply_options(base, RunOptions(seed=1)).spec_hash() != \
            base.spec_hash()


class TestExecute:
    def test_grid_scores_stable_across_cache(self, tmp_path):
        """Cold and cached runs agree on everything but CV wall-clock."""
        spec = get_scenario("noise-robustness")
        opts = dict(smoke=True, cache_dir=tmp_path / "cache")
        cold = execute(spec, options=RunOptions(**opts))
        warm = execute(spec, options=RunOptions(**opts))
        assert warm.cache_stats["dataset_hits"] > 0
        assert warm.cache_stats["dataset_misses"] == 0

        def stable(rows):
            return [
                tuple(c for i, c in enumerate(r) if i != 4)  # drop CV time
                for r in rows
            ]

        assert stable(cold.rows) == stable(warm.rows)

    def test_fleet_kind_reports_throughput(self):
        result = execute(get_scenario("fleet-scaling"), options=RunOptions(smoke=True))
        assert len(result.rows) == 2
        nodes = [row[1] for row in result.rows]
        assert nodes == [2, 4]
        assert all(row[2] > 0 for row in result.rows)

    def test_noise_robustness_rows_labelled_by_variant(self):
        result = execute(
            get_scenario("noise-robustness"), options=RunOptions(smoke=True)
        )
        segments = {row[0] for row in result.rows}
        assert segments == {"application+n0", "application+n10%"}

    def test_crossarch_lengths_signature_sizes(self):
        result = execute(
            get_scenario("crossarch-lengths"), options=RunOptions(smoke=True)
        )
        by_method = {row[1]: row[2] for row in result.rows}
        assert by_method == {"cs-5": 10, "cs-10": 20}


class TestFleetContract:
    """The fleet-contract kind: every driver's alert JSONL must equal the
    in-process reference's byte for byte."""

    FLEET_SCENARIOS = (
        "fleet-detect", "fleet-detect-scale", "fleet-detect-noise",
        "fleet-detect-chaos", "fleet-replay", "fleet-serve",
        "fleet-serve-chaos",
    )

    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("contract_cache"))

    def test_one_kind_runs_every_fleet_scenario(self):
        from repro.scenarios.evaluations import evaluation_kinds

        kinds = set(evaluation_kinds())
        assert "fleet-contract" in kinds
        assert not kinds & {"fleet-detect", "fleet-replay",
                            "fleet-detect-chaos", "fleet-serve",
                            "fleet-serve-chaos"}
        for name in self.FLEET_SCENARIOS:
            assert get_scenario(name).kind == "fleet-contract"

    def test_kills_int_vs_float_is_a_mismatch(self, cache_dir, monkeypatch):
        """``1`` and ``1.0`` compare equal as values but serialize
        differently; the contract compares the serialized bytes."""
        import repro.service.chaos as chaos
        from repro.service.alerts import AlertSink

        class FloatFirstWindow(AlertSink):
            def __init__(self, inner):
                self.inner = inner
                self.done = False

            def emit(self, event):
                if not self.done:
                    event = {**event, "window": float(event["window"])}
                    self.done = True
                self.inner.emit(event)

        real = chaos.run_with_kills

        def skewed(config, setup, *, sink_factory, **kwargs):
            def factory():
                return [FloatFirstWindow(s) for s in sink_factory()]

            return real(config, setup, sink_factory=factory, **kwargs)

        monkeypatch.setattr(chaos, "run_with_kills", skewed)
        with pytest.raises(AssertionError, match=r"fleet-detect-chaos.*kills@2,4"):
            execute(
                get_scenario("fleet-detect-chaos"),
                options=RunOptions(smoke=True, cache_dir=cache_dir),
            )

    def test_store_lost_byte_is_a_mismatch(self, cache_dir, monkeypatch):
        import repro.service.fastreplay as fastreplay

        real = fastreplay.replay_from_store

        def lossy(config, setup, store, *, sinks, **kwargs):
            outcome = real(config, setup, store, sinks=sinks, **kwargs)
            sinks[0].lines[0] = sinks[0].lines[0][:-1]
            return outcome

        monkeypatch.setattr(fastreplay, "replay_from_store", lossy)
        with pytest.raises(AssertionError, match=r"fleet-replay.*'store'"):
            execute(
                get_scenario("fleet-replay"),
                options=RunOptions(smoke=True, cache_dir=cache_dir),
            )

    def test_unknown_driver_rejected(self):
        spec = get_scenario("fleet-detect").with_evaluation(drivers=("ftp",))
        with pytest.raises(ValueError, match="unknown fleet-contract driver"):
            execute(spec, options=RunOptions(smoke=True))

    def test_fault_schedule_only_with_kills(self):
        spec = get_scenario("fleet-detect-chaos").with_evaluation(
            drivers=("kills", "store")
        )
        with pytest.raises(ValueError, match="only the kills driver"):
            execute(spec, options=RunOptions(smoke=True))
