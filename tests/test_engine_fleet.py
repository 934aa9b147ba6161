"""Tests for the fleet-scale batched signature service."""

import numpy as np
import pytest

from repro.core.pipeline import CorrelationWiseSmoothing
from repro.engine.fleet import FleetSignatureEngine
from repro.experiments.harness import run_fleet_on_segment
from repro.monitoring.sensor_tree import SensorTree


def _fleet_data(rng, nodes, n=6, t=200):
    return {f"rack{i % 4}/node{i}": rng.random((n, t)) for i in range(nodes)}


class TestBatchedEquivalence:
    def test_hundred_nodes_bitwise_equal_per_node(self, rng):
        """Acceptance: >= 100 nodes in one batched call, bit-identical to
        the seed's per-node CorrelationWiseSmoothing loop."""
        data = _fleet_data(rng, 120)
        wl, ws, blocks = 20, 10, 3
        engine = FleetSignatureEngine(blocks=blocks, wl=wl, ws=ws)
        engine.fit_fleet(data)
        batched = engine.transform_fleet(data)
        assert len(batched) == 120
        for path, S in data.items():
            ref = CorrelationWiseSmoothing(blocks=blocks).fit(S).transform_series(
                S, wl, ws
            )
            assert np.array_equal(batched[path], ref), path

    def test_heterogeneous_geometries(self, rng):
        data = {
            "a/n0": rng.random((4, 100)),
            "a/n1": rng.random((4, 100)),
            "b/n0": rng.random((7, 150)),   # different geometry group
            "b/n1": rng.random((7, 60)),    # same n, different t
        }
        engine = FleetSignatureEngine(blocks=2, wl=10, ws=5)
        engine.fit_fleet(data)
        out = engine.transform_fleet(data)
        for path, S in data.items():
            ref = CorrelationWiseSmoothing(blocks=2).fit(S).transform_series(S, 10, 5)
            assert np.array_equal(out[path], ref), path

    def test_transform_node_matches_fleet(self, rng):
        data = _fleet_data(rng, 3)
        engine = FleetSignatureEngine(blocks=3, wl=12, ws=4)
        engine.fit_fleet(data)
        fleet = engine.transform_fleet(data)
        for path, S in data.items():
            assert np.array_equal(engine.transform_node(path, S), fleet[path])

    def test_blocks_clamped_to_sensor_count(self, rng):
        S = rng.random((4, 80))
        engine = FleetSignatureEngine(blocks=40, wl=10, ws=5)
        engine.fit_node("n0", S)
        assert engine.signature_length("n0") == 4
        out = engine.transform_node("n0", S)
        ref = CorrelationWiseSmoothing(blocks="all").fit(S).transform_series(S, 10, 5)
        assert np.array_equal(out, ref)

    def test_short_series_empty(self, rng):
        S = rng.random((4, 5))
        engine = FleetSignatureEngine(blocks=2, wl=10, ws=5)
        engine.fit_node("n0", S)
        assert engine.transform_node("n0", S).shape == (0, 2)


class TestRegistry:
    def test_paths_select_contains(self, rng):
        engine = FleetSignatureEngine(blocks=2, wl=10, ws=5)
        engine.fit_fleet(_fleet_data(rng, 8))
        assert len(engine) == 8
        assert "rack0/node0" in engine
        assert engine.select("rack0/*") == sorted(
            p for p in engine.paths if p.startswith("rack0/")
        )
        assert engine.select("*/node3") == ["rack3/node3"]
        assert engine.select("rack0") == []  # per-segment matching

    def test_missing_model_raises(self, rng):
        engine = FleetSignatureEngine(blocks=2, wl=10, ws=5)
        with pytest.raises(KeyError):
            engine.transform_fleet({"ghost": rng.random((4, 50))})

    def test_mismatched_matrix_raises(self, rng):
        engine = FleetSignatureEngine(blocks=2, wl=10, ws=5)
        engine.fit_node("n0", rng.random((4, 50)))
        with pytest.raises(ValueError):
            engine.transform_fleet({"n0": rng.random((5, 50))})

    def test_set_model_roundtrip(self, rng):
        S = rng.random((5, 90))
        model = CorrelationWiseSmoothing(blocks=2).fit(S).model
        engine = FleetSignatureEngine(blocks=2, wl=10, ws=5)
        engine.set_model("shipped/node", model)
        ref = CorrelationWiseSmoothing(blocks=2).fit(S).transform_series(S, 10, 5)
        assert np.array_equal(engine.transform_node("shipped/node", S), ref)

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetSignatureEngine(blocks=0, wl=10, ws=5)
        with pytest.raises(ValueError):
            FleetSignatureEngine(blocks="some", wl=10, ws=5)
        with pytest.raises(ValueError):
            FleetSignatureEngine(blocks=2, wl=0, ws=5)


class TestSensorTreeIntegration:
    def _tree(self):
        tree = SensorTree()
        for node in ("rack0/node0", "rack0/node1"):
            for sensor in ("power", "temp", "util"):
                tree.add(f"{node}/{sensor}", unit="x")
        return tree

    def test_names_taken_from_tree(self, rng):
        tree = self._tree()
        engine = FleetSignatureEngine(blocks=2, wl=10, ws=5, tree=tree)
        engine.fit_node("rack0/node0", rng.random((3, 80)))
        model = engine.model("rack0/node0")
        assert model.sensor_names == (
            "rack0/node0/power",
            "rack0/node0/temp",
            "rack0/node0/util",
        )

    def test_unknown_path_rejected(self, rng):
        engine = FleetSignatureEngine(blocks=2, wl=10, ws=5, tree=self._tree())
        with pytest.raises(ValueError):
            engine.fit_node("rack9/node0", rng.random((3, 80)))

    def test_row_count_mismatch_rejected(self, rng):
        engine = FleetSignatureEngine(blocks=2, wl=10, ws=5, tree=self._tree())
        with pytest.raises(ValueError):
            engine.fit_node("rack0/node0", rng.random((5, 80)))

    def test_parent_groups(self):
        tree = self._tree()
        groups = tree.parent_groups()
        assert set(groups) == {"rack0/node0", "rack0/node1"}
        assert groups["rack0/node0"] == [
            "rack0/node0/power",
            "rack0/node0/temp",
            "rack0/node0/util",
        ]
        filtered = tree.parent_groups("rack0/node1/*")
        assert set(filtered) == {"rack0/node1"}


class TestHarnessFleetRunner:
    def test_matches_per_component_loop(self, application_segment):
        result = run_fleet_on_segment(application_segment, blocks=4)
        spec = application_segment.spec
        assert result.n_nodes == application_segment.n_components
        for comp in application_segment.components:
            ref = CorrelationWiseSmoothing(blocks=4).fit(comp.matrix).transform_series(
                comp.matrix, spec.wl, spec.ws
            )
            assert np.array_equal(result.signatures[comp.name], ref)
        assert result.n_signatures == sum(
            s.shape[0] for s in result.signatures.values()
        )
        assert result.fit_time_s >= 0 and result.transform_time_s >= 0
