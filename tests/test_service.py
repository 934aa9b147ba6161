"""Unit + equivalence tests for the online detection service layers.

Covers the threshold + hysteresis alert policy state machine, fleet
training, and the batched detector's equivalence with the naive
per-node loop.
"""

import numpy as np
import pytest
from _guarded_oracle import without_health

from repro.analysis.rootcause import explain_difference, findings_payload
from repro.ml.forest import RandomForestClassifier
from repro.service.alerts import AlertPolicy, event_line
from repro.service.api import ServiceConfig, replay
from repro.service.classify import train_fleet
from repro.service.detector import FleetFaultDetector, detect_naive
from repro.service.replay import fleet_recipes, node_path, prepare_fleet


@pytest.fixture(scope="module")
def small_setup():
    """A trained 2-node fault fleet plus its held-out replay data."""
    return prepare_fleet(
        fleet_recipes(2, t=2000),
        ServiceConfig(blocks=8, trees=5, train_frac=0.5, seed=0),
    )


def _event_key(event):
    return (event["node"], event["window"], event["event"])


class TestAlertPolicy:
    def test_opens_after_threshold_and_closes_after_hysteresis(self):
        policy = AlertPolicy(open_after=2, close_after=2)
        assert policy.update(0, 3, 0.9) == []  # one faulty window: debounced
        events = policy.update(1, 3, 0.8)
        assert [kind for kind, _ in events] == ["open"]
        alert = events[0][1]
        assert alert.opened == 1
        assert alert.first_faulty == 0
        assert alert.label == 3
        assert policy.update(2, 0, 0.9) == []  # one healthy: hysteresis
        assert policy.update(3, 3, 0.9) == []  # still the same alert
        assert policy.update(4, 0, 0.9) == []
        events = policy.update(5, 0, 0.9)
        assert [kind for kind, _ in events] == ["close"]
        assert events[0][1].closed == 5
        assert policy.alert is None

    def test_flicker_is_one_alert_not_a_storm(self):
        policy = AlertPolicy(open_after=1, close_after=3)
        opens = 0
        for w, label in enumerate([1, 0, 1, 0, 1, 0, 0, 0]):
            for kind, _ in policy.update(w, label, 1.0):
                opens += kind == "open"
        assert opens == 1
        assert policy.history[0].closed == 7

    def test_min_confidence_gates_faulty_windows(self):
        policy = AlertPolicy(open_after=1, close_after=1, min_confidence=0.6)
        assert policy.update(0, 2, 0.5) == []  # low-confidence flicker
        events = policy.update(1, 2, 0.7)
        assert [kind for kind, _ in events] == ["open"]

    def test_opening_alert_credits_the_whole_streak(self):
        policy = AlertPolicy(open_after=3, close_after=1)
        policy.update(0, 2, 0.9)
        policy.update(1, 2, 0.5)
        events = policy.update(2, 5, 0.7)
        assert [kind for kind, _ in events] == ["open"]
        alert = events[0][1]
        assert alert.n_windows == 3
        assert alert.label == 5  # the window that tipped the threshold
        assert alert.label_counts == {2: 2, 5: 1}
        assert alert.dominant_label() == 2  # majority of the episode
        assert alert.peak_confidence == 0.9  # max over the streak

    def test_interrupted_streak_resets(self):
        policy = AlertPolicy(open_after=2, close_after=1)
        policy.update(0, 1, 1.0)
        policy.update(1, 0, 1.0)  # healthy: streak resets
        assert policy.update(2, 1, 1.0) == []
        events = policy.update(3, 1, 1.0)
        assert [kind for kind, _ in events] == ["open"]
        assert events[0][1].first_faulty == 2

    def test_dominant_label_breaks_ties_deterministically(self):
        policy = AlertPolicy(open_after=1, close_after=1)
        policy.update(0, 5, 1.0)
        policy.update(1, 2, 1.0)
        assert policy.alert.dominant_label() == 2  # 5 and 2 tied: smallest

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AlertPolicy(open_after=0)
        with pytest.raises(ValueError):
            AlertPolicy(min_confidence=1.5)


class TestFleetRecipes:
    def test_builtin_fault_fleet_matches_service_helper(self):
        """builtin._fault_fleet duplicates fleet_recipes on purpose (so
        listing scenarios doesn't import the service stack); the two
        must never drift apart."""
        from repro.scenarios.builtin import _fault_fleet

        assert _fault_fleet(4, t=6000) == fleet_recipes(4, t=6000)
        assert _fault_fleet(
            2, t=2500, noise_std=0.05, noise_seed=11
        ) == fleet_recipes(2, t=2500, noise_std=0.05, noise_seed=11)

    def test_fleet_needs_a_node(self):
        with pytest.raises(ValueError):
            fleet_recipes(0, t=1000)


class TestTrainFleet:
    def test_trained_fleet_shape(self, small_setup):
        trained = small_setup.trained
        assert trained.paths == [node_path(0, 0), node_path(1, 0)]
        assert trained.label_names[0] == "healthy"
        for path in trained.paths:
            ref = trained.references[path]
            assert ref.shape == (8,)
            assert np.iscomplexobj(ref)

    def test_unlabeled_node_rejected(self):
        from repro.datasets.generators import ComponentData

        bad = ComponentData(
            name="n",
            matrix=np.random.default_rng(0).random((4, 100)),
            sensor_names=tuple(f"s{i}" for i in range(4)),
            sensor_groups=("g",) * 4,
        )
        with pytest.raises(ValueError, match="labels"):
            train_fleet({"a": bad}, blocks=2, wl=10, ws=5, trees=2)


class TestDetectorEquivalence:
    def test_batched_equals_naive_per_node_loop(self, small_setup):
        outcome = replay(ServiceConfig(chunk=173), small_setup)
        naive = detect_naive(small_setup.trained, small_setup.eval_data)
        assert sorted(without_health(outcome.events), key=_event_key) == sorted(
            naive, key=_event_key
        )

    def test_history_and_window_counts(self, small_setup):
        detector = FleetFaultDetector(small_setup.trained)
        detector.process_block(small_setup.eval_data)
        for path, truth in small_setup.truth.items():
            assert detector.windows_seen(path) == truth.shape[0]
            labels, confidences = detector.history[path]
            assert len(labels) == truth.shape[0]
            assert all(0.0 <= c <= 1.0 for c in confidences)

    def test_open_events_carry_attribution(self, small_setup):
        outcome = replay(ServiceConfig(chunk=200), small_setup)
        opens = [e for e in outcome.events if e["event"] == "open"]
        assert opens, "expected at least one alert on a fault segment"
        for event in opens:
            assert event["label"] != "healthy"
            assert len(event["attribution"]) == 3
            for finding in event["attribution"]:
                assert finding["sensors"]
        closes = [e for e in outcome.events if e["event"] == "close"]
        for event in closes:
            assert event["windows"] >= 1
            assert event["opened"] <= event["window"]

    def test_event_lines_are_valid_json(self, small_setup):
        import json

        outcome = replay(ServiceConfig(chunk=200), small_setup)
        for event in outcome.events:
            assert json.loads(event_line(event)) == event


class TestPredictWithProba:
    def test_consistent_with_predict_and_predict_proba(self):
        rng = np.random.default_rng(0)
        X = rng.random((80, 6))
        y = (X[:, 0] + X[:, 1] > 1.0).astype(np.intp)
        forest = RandomForestClassifier(8, random_state=0).fit(X, y)
        labels, proba = forest.predict_with_proba(X)
        np.testing.assert_array_equal(labels, forest.predict(X))
        np.testing.assert_array_equal(proba, forest.predict_proba(X))


class TestFindingsPayload:
    def test_payload_matches_findings(self, small_setup):
        trained = small_setup.trained
        path = trained.paths[0]
        sigs = trained.engine.transform_node(
            path, small_setup.eval_data[path]
        )
        findings = explain_difference(
            trained.engine.model(path), trained.references[path], sigs[0]
        )
        payload = findings_payload(findings, ndigits=6)
        assert [p["block"] for p in payload] == [f.block for f in findings]
        for p, f in zip(payload, findings):
            assert p["sensors"] == list(f.sensors)
            assert p["magnitude"] == round(f.magnitude, 6)
            assert list(p) == [
                "block", "delta_real", "delta_imag", "magnitude", "sensors",
            ]
