"""Tests for the root-cause drill-down helpers."""

import numpy as np
import pytest

from repro.analysis import rootcause
from repro.analysis.rootcause import block_sensors, explain_difference
from repro.core.training import train_cs_model


@pytest.fixture
def model(correlated_matrix):
    names = [f"sensor{i}" for i in range(correlated_matrix.shape[0])]
    return train_cs_model(correlated_matrix, sensor_names=names)


class TestBlockSensors:
    def test_returns_names(self, model):
        sensors = block_sensors(model, 4, 0)
        assert len(sensors) == 3  # 12 rows / 4 blocks
        assert all(s.startswith("sensor") for s in sensors)

    def test_blocks_partition_all_sensors(self, model):
        seen = set()
        for b in range(4):
            seen.update(block_sensors(model, 4, b))
        assert seen == {f"sensor{i}" for i in range(12)}

    def test_matches_permutation_order(self, model):
        sensors = block_sensors(model, 12, 0)
        assert sensors == (f"sensor{model.permutation[0]}",)

    def test_rejects_out_of_range_block(self, model):
        with pytest.raises(ValueError):
            block_sensors(model, 4, 4)

    def test_rejects_model_without_names(self, correlated_matrix):
        model = train_cs_model(correlated_matrix)
        with pytest.raises(ValueError, match="names"):
            block_sensors(model, 4, 0)


class TestExplainDifference:
    def test_names_built_once_per_model(self, model, monkeypatch):
        """A block's names are built on a model's first explanation of
        it per signature length and reused after, by every node sharing
        the model."""
        calls = []
        inner = rootcause.block_sensors

        def counting(m, l, block):
            calls.append((l, block))
            return inner(m, l, block)

        monkeypatch.setattr(rootcause, "block_sensors", counting)
        ref = np.zeros(4, dtype=complex)
        obs = np.array([0.1, 0.0, 0.9, 0.3], dtype=complex)
        first = explain_difference(model, ref, obs, top=4)
        for _ in range(3):
            assert explain_difference(model, ref, obs, top=4) == first
        explain_difference(model, np.zeros(6, dtype=complex),
                           np.ones(6, dtype=complex))
        assert sorted(calls) == sorted(set(calls))
        assert {c for c in calls if c[0] == 4} == {(4, b) for b in range(4)}
        assert len([c for c in calls if c[0] == 6]) == 3
        assert [f.sensors for f in first] == [
            inner(model, 4, f.block) for f in first
        ]

    def test_ranks_largest_deviation_first(self, model):
        ref = np.zeros(4, dtype=complex)
        obs = np.array([0.1, 0.0, 0.9, 0.3], dtype=complex)
        findings = explain_difference(model, ref, obs, top=4)
        assert [f.block for f in findings] == [2, 3, 0, 1]
        assert findings[0].magnitude == pytest.approx(0.9)

    def test_includes_imaginary_delta(self, model):
        ref = np.zeros(4, dtype=complex)
        obs = np.zeros(4, dtype=complex)
        obs[1] = 0.3j
        findings = explain_difference(model, ref, obs, top=1)
        assert findings[0].block == 1
        assert findings[0].delta_imag == pytest.approx(0.3)
        assert findings[0].delta_real == pytest.approx(0.0)

    def test_top_limits_output(self, model):
        ref = np.zeros(4, dtype=complex)
        obs = np.ones(4, dtype=complex)
        assert len(explain_difference(model, ref, obs, top=2)) == 2

    def test_findings_carry_sensors(self, model):
        findings = explain_difference(
            model, np.zeros(4, dtype=complex), np.ones(4, dtype=complex), top=1
        )
        assert len(findings[0].sensors) == 3

    def test_rejects_mismatched_signatures(self, model):
        with pytest.raises(ValueError):
            explain_difference(model, np.zeros(3, dtype=complex), np.zeros(4, dtype=complex))

    def test_rejects_bad_top(self, model):
        with pytest.raises(ValueError):
            explain_difference(
                model, np.zeros(4, dtype=complex), np.zeros(4, dtype=complex), top=0
            )
