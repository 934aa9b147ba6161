"""Chaos harness: deterministic schedules and the kill-and-restore drill.

The injector's schedule must be a pure function of ``(seed, tick,
node)`` — that statelessness is what makes killed-and-resumed chaos
replays regenerate the same faults and hence the same alert bytes.  The
fault-matrix tests assert each injected fault class lands on its
documented guard policy.
"""

import numpy as np
import pytest

from repro.service.api import ServiceConfig, replay
from repro.service.chaos import ChaosConfig, ChaosInjector, run_with_kills
from repro.service.replay import fleet_recipes, prepare_fleet


@pytest.fixture(scope="module")
def small_setup():
    return prepare_fleet(
        fleet_recipes(2, t=2000),
        ServiceConfig(blocks=8, trees=5, train_frac=0.5, seed=0),
    )


def sample_burst(paths, tick, m=32):
    rng = np.random.default_rng(tick)
    return {p: rng.normal(size=(5, m)) for p in paths}


class TestInjectorDeterminism:
    def test_schedule_pure_function_of_seed_tick_node(self):
        cfg = ChaosConfig(seed=5, drop=0.2, duplicate=0.2, reorder=0.2,
                          corrupt=0.2)
        paths = [f"rack0/node{i:02d}" for i in range(6)]
        a, b = ChaosInjector(cfg), ChaosInjector(cfg)
        for tick in range(10):
            burst = sample_burst(paths, tick)
            da = a.deliveries(tick, burst)
            db = b.deliveries(tick, burst)
            assert len(da) == len(db)
            for (ta, ba), (tb, bb) in zip(da, db):
                assert ta == tb and sorted(ba) == sorted(bb)
                for p in ba:
                    np.testing.assert_array_equal(ba[p], bb[p])
        assert a.stats == b.stats

    def test_schedule_independent_of_delivery_history(self):
        """Tick k's faults don't depend on which ticks ran before —
        the property a resumed segment relies on."""
        cfg = ChaosConfig(seed=5, drop=0.3, corrupt=0.3)
        paths = ["rack0/node00", "rack0/node01"]
        full = ChaosInjector(cfg)
        late = ChaosInjector(cfg)
        burst7 = sample_burst(paths, 7)
        for tick in range(7):
            full.deliveries(tick, sample_burst(paths, tick))
        d_full = full.deliveries(7, burst7)
        d_late = late.deliveries(7, burst7)  # cold injector, same tick
        assert len(d_full) == len(d_late)
        for (ta, ba), (tb, bb) in zip(d_full, d_late):
            assert ta == tb
            for p in ba:
                np.testing.assert_array_equal(ba[p], bb[p])

    def test_different_seeds_differ(self):
        paths = [f"rack0/node{i:02d}" for i in range(8)]
        patterns = []
        for seed in (0, 1):
            inj = ChaosInjector(ChaosConfig(seed=seed, drop=0.5))
            dropped = set()
            for tick in range(10):
                out = inj.deliveries(tick, sample_burst(paths, tick))
                dropped |= {
                    (tick, p) for p in paths if p not in out[0][1]
                }
            patterns.append(dropped)
        assert patterns[0] != patterns[1]

    def test_start_tick_delays_injection(self):
        inj = ChaosInjector(ChaosConfig(seed=0, drop=1.0, start_tick=3))
        paths = ["rack0/node00"]
        for tick in range(6):
            out = inj.deliveries(tick, sample_burst(paths, tick))
            delivered = bool(out[0][1])
            assert delivered == (tick < 3)

    def test_fraction_validation(self):
        with pytest.raises(ValueError, match="sum"):
            ChaosConfig(drop=0.5, duplicate=0.3, reorder=0.2, corrupt=0.1)
        with pytest.raises(ValueError, match="drop"):
            ChaosConfig(drop=-0.1)
        with pytest.raises(ValueError, match="corrupt_fraction"):
            ChaosConfig(corrupt=0.1, corrupt_fraction=0.0)


class TestFaultMapping:
    """Each single-fault config lands on its documented guard policy."""

    def guarded_replay(self, setup, **chaos_kw):
        return replay(
            ServiceConfig(chunk=200), setup, chaos=ChaosConfig(seed=1, **chaos_kw),
        )

    def test_drop_thins_windows_without_guard_events(self, small_setup):
        out = self.guarded_replay(small_setup, drop=0.3)
        clean = replay(ServiceConfig(chunk=200), small_setup)
        assert out.chaos_stats["drop"] > 0
        assert out.n_windows < clean.n_windows
        assert not [e for e in out.events if e["event"] == "guard"]

    def test_duplicate_coalesces(self, small_setup):
        """A re-delivered frame replaces the queued one: no guard event,
        and the detection output is the clean run's."""
        out = self.guarded_replay(small_setup, duplicate=0.5)
        clean = replay(ServiceConfig(chunk=200), small_setup)
        assert out.chaos_stats["duplicate"] > 0
        assert out.events == clean.events

    def test_reorder_arrives_late_and_is_dropped(self, small_setup):
        """A frame stamped with an old tick is below the cursor: it is
        dropped as late, so its node misses the tick (no guard event)."""
        out = self.guarded_replay(small_setup, reorder=0.5)
        clean = replay(ServiceConfig(chunk=200), small_setup)
        assert out.chaos_stats["reorder"] > 0
        assert out.n_windows < clean.n_windows
        assert not [e for e in out.events if e["event"] == "guard"]

    def test_corrupt_maps_to_corrupt_values(self, small_setup):
        out = replay(
            ServiceConfig(chunk=200), small_setup,
            chaos=ChaosConfig(seed=1, corrupt=0.9),
        )
        ge = [e for e in out.events if e["event"] == "guard"]
        assert out.chaos_stats["corrupt"] > 0
        faults = {e["fault"] for e in ge if "fault" in e}
        assert faults == {"corrupt-values"}
        # persistent corruption quarantines
        assert any(e["action"] == "quarantine" for e in ge)

    def test_full_fault_mix_never_crashes(self, small_setup):
        out = self.guarded_replay(
            small_setup,
            drop=0.1, duplicate=0.1, reorder=0.1, corrupt=0.1,
        )
        assert out.n_events == len(out.events)
        assert out.health is not None


class TestFromEvaluation:
    def test_no_named_rate_means_no_schedule(self):
        assert ChaosConfig.from_evaluation({"chaos_seed": 7, "blocks": 8}) is None

    def test_named_rates_build_the_schedule(self):
        ev = {"chaos_seed": 7, "drop": 0.1, "corrupt": 0.2, "start_tick": 3,
              "blocks": 8, "kills": (2, 4)}
        assert ChaosConfig.from_evaluation(ev) == ChaosConfig(
            seed=7, drop=0.1, corrupt=0.2, start_tick=3
        )

    def test_rates_are_validated(self):
        with pytest.raises(ValueError, match="sum to"):
            ChaosConfig.from_evaluation({"drop": 0.6, "reorder": 0.6})


class TestKillAndRestore:
    def test_chaos_kill_restore_identical(self, small_setup, tmp_path):
        chaos = ChaosConfig(seed=2, drop=0.05, duplicate=0.05,
                            reorder=0.05, corrupt=0.05)
        uninterrupted = replay(ServiceConfig(chunk=200), small_setup, chaos=chaos)
        killed = run_with_kills(
            ServiceConfig(chunk=200), small_setup,
            checkpoint_path=tmp_path / "chaos.npz", kills=[2, 5], chaos=chaos,
        )
        assert killed.events == uninterrupted.events
        assert killed.n_alerts == uninterrupted.n_alerts

    def test_sink_factory_yields_complete_stream(self, small_setup, tmp_path):
        from repro.service.alerts import JSONLAlertSink

        full_path = tmp_path / "full.jsonl"
        replay(ServiceConfig(chunk=200), small_setup, sinks=[JSONLAlertSink(full_path)])
        seg_path = tmp_path / "killed.jsonl"
        run_with_kills(
            ServiceConfig(chunk=200), small_setup, checkpoint_path=tmp_path / "ck.npz",
            kills=[3], sink_factory=lambda: [JSONLAlertSink(seg_path)],
        )
        assert seg_path.read_bytes() == full_path.read_bytes()

    def test_kills_must_leave_tick_zero(self, small_setup, tmp_path):
        with pytest.raises(ValueError, match="tick 0"):
            run_with_kills(
                ServiceConfig(chunk=200), small_setup,
                checkpoint_path=tmp_path / "ck.npz", kills=[0],
            )
