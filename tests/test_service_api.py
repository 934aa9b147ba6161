"""Facade tests: ServiceConfig, the package's submodule names, fleet
replication, the repro-alerts/v1 canonical payload, and the graceful
SIGINT path (finish the in-flight tick, flush open alerts, write a
final checkpoint, exit 130)."""

import dataclasses
import inspect
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.alerts import (
    ALERTS_SCHEMA,
    event_line,
    to_payload,
)
from repro.service.api import (
    ServiceConfig,
    build_detector,
    build_setup,
    replay,
    replicate_setup,
)
from repro.service.chaos import run_with_kills
from repro.service.fastreplay import replay_from_store
from repro.service.net import ListAlertSink
from repro.service.replay import prepare_fleet
from repro.service.servecore import flush_open_alerts

SRC = Path(__file__).resolve().parent.parent / "src"
CFG = ServiceConfig.smoke()


@pytest.fixture(scope="module")
def setup():
    return build_setup(CFG)


class TestServiceConfig:
    def test_full_preset_defaults_are_pinned(self):
        """The field defaults are the only copy of the service defaults:
        alert streams and cache keys depend on them, so they cannot
        drift unnoticed."""
        config = ServiceConfig()
        assert dataclasses.asdict(config) == {
            "nodes": 3, "t": 6000, "segment": "fault", "noise_std": 0.0,
            "blocks": 20, "trees": 30, "train_frac": 0.5, "chunk": 256,
            "open_after": 2, "close_after": 2, "min_confidence": 0.0,
            "top_blocks": 3, "seed": 0, "healthy_label": 0,
            "backend": "fused", "mode": "exact", "guard": True,
            "replicate": 0, "model_path": None, "cache_dir": None,
        }
        assert config.guard is True
        assert config.backend == "fused"

    @pytest.mark.parametrize(
        "function",
        [prepare_fleet, replay, replay_from_store, run_with_kills],
        ids=lambda f: f.__name__,
    )
    def test_config_is_the_only_knob_carrier(self, function):
        """Service knobs reach the tick loops only through the config:
        no parameter of a replay entry point is named after a field."""
        fields = {f.name for f in dataclasses.fields(ServiceConfig)}
        params = set(inspect.signature(function).parameters)
        assert "config" in params
        assert not params & fields

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ServiceConfig().chunk = 1

    @pytest.mark.parametrize(
        "bad",
        [
            {"nodes": 0},
            {"t": 0},
            {"train_frac": 1.0},
            {"chunk": 0},
            {"open_after": 0},
            {"min_confidence": 1.5},
            {"backend": "gpu"},
            {"mode": "approximate"},
            {"replicate": -1},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ServiceConfig(**bad)

    @pytest.mark.parametrize(
        "field,value,cli_message",
        [
            ("backend", "staged", "'staged' is retired"),
            ("mode", "quantized", "invalid choice: 'quantized'"),
        ],
    )
    def test_retired_values_fail_fast(self, field, value, cli_message, capsys):
        from repro import cli

        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: value})
        try:  # a value argparse rejects exits at parse time
            code = cli.main(["detect", "--smoke", f"--{field}", value])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert cli_message in capsys.readouterr().err

    def test_guard_cannot_be_disabled(self, monkeypatch, capsys):
        """Every tick loop guards: ``guard=False`` is a ValueError and
        ``detect --no-guard`` a usage error before the fleet trains."""
        from repro import cli
        from repro.service import api

        with pytest.raises(ValueError, match="guard"):
            ServiceConfig(guard=False)

        def unreachable(*args, **kwargs):
            raise AssertionError("the fleet must not train")

        monkeypatch.setattr(api, "build_setup", unreachable)
        assert cli.main(["detect", "--smoke", "--no-guard"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_smoke_preset_matches_cli(self):
        """``--smoke`` parses to ``ServiceConfig.smoke()`` in ``detect``
        and ``serve`` alike (no per-command burst size)."""
        from repro import cli

        smoke = ServiceConfig.smoke()
        assert (smoke.nodes, smoke.t, smoke.blocks, smoke.trees,
                smoke.chunk) == (2, 2500, 8, 6, 200)
        parser = cli.build_parser()
        detect = parser.parse_args(["detect", "--smoke"])
        assert cli._service_config(detect) == smoke
        serve = parser.parse_args(["serve", "--smoke", "--listen", "127.0.0.1:0"])
        assert cli._service_config(serve) == smoke

    def test_replace_revalidates(self):
        config = ServiceConfig().replace(chunk=64)
        assert config.chunk == 64
        with pytest.raises(ValueError):
            config.replace(chunk=0)

    def test_from_evaluation_ignores_kind_extras(self):
        ev = {"blocks": 8, "trees": 6, "chunk": 200,
              "fleet_sizes": (2, 4), "kills": (3,), "formats": ("json",)}
        config = ServiceConfig.from_evaluation(ev, mode="float32")
        assert config.blocks == 8 and config.chunk == 200
        assert config.mode == "float32"

    def test_noise_seed_convention(self):
        assert ServiceConfig().noise_seed == 0
        assert ServiceConfig(noise_std=0.05).noise_seed == 11


class TestPackageNames:
    def test_replay_submodule_is_not_shadowed(self):
        """``repro.service.replay`` names the replay-driver module, not a
        re-exported function of the same name."""
        import repro.service.replay

        assert repro.service.replay.prepare_fleet is not None
        assert not hasattr(repro.service, "replay_config")


class TestReplicateSetup:
    def test_replicas_share_arrays_by_reference(self, setup):
        big = replicate_setup(setup, 10)
        assert len(big.eval_data) == 10
        bases = sorted(setup.eval_data)
        reps = sorted(big.eval_data)
        for i, rep in enumerate(
            sorted(reps, key=lambda p: int(p.split("/")[0][4:]))
        ):
            base = bases[i % len(bases)]
            assert big.eval_data[rep] is setup.eval_data[base]
            assert big.trained.references[rep] is (
                setup.trained.references[base]
            )
        assert big.trained.classifier is setup.trained.classifier

    def test_replicated_fleet_replays(self, setup):
        big = replicate_setup(setup, 6)
        config = CFG.replace(nodes=6)
        sink = ListAlertSink()
        outcome = replay(config, big, sinks=(sink,))
        assert outcome.n_nodes == 6
        nodes_seen = {json.loads(line)["node"] for line in sink.lines}
        assert nodes_seen <= set(big.eval_data)
        # Replicas of the same base must alert identically (same data,
        # same model): group events by base index.
        by_node: dict[str, list] = {}
        for line in sink.lines:
            e = json.loads(line)
            by_node.setdefault(e.pop("node"), []).append(e)
        for i in range(6):
            base_like = f"rack{i % 2}/node00"
            rep = f"rack{i}/node00"
            if rep in by_node or base_like in by_node:
                assert by_node.get(rep) == by_node.get(base_like)

    def test_build_setup_applies_replicate(self):
        config = CFG.replace(replicate=5)
        setup = build_setup(config)
        assert len(setup.eval_data) == 5


class TestAlertSchema:
    def test_canonical_key_orders(self):
        open_event = {
            "health": "healthy", "attribution": [], "confidence": 0.9,
            "label": 2, "first_faulty": 3, "window": 4,
            "node": "a", "event": "open",
        }
        assert list(to_payload(open_event)) == [
            "event", "node", "window", "first_faulty", "label",
            "confidence", "attribution", "health",
        ]
        guard_event = {
            "until": 9, "state": "quarantined", "fault": "shape-mismatch",
            "severity": "critical", "action": "quarantine",
            "tick": 2, "node": "a", "event": "guard",
        }
        assert list(to_payload(guard_event)) == [
            "event", "node", "tick", "action", "severity", "fault",
            "state", "until",
        ]

    def test_unknown_keys_appended_not_dropped(self):
        event = {"event": "open", "node": "a", "custom": 1}
        payload = to_payload(event)
        assert payload["custom"] == 1

    def test_event_line_is_canonical_compact_json(self):
        event = {"node": "a", "event": "open", "window": 1}
        assert event_line(event) == (
            '{"event":"open","node":"a","window":1}'
        )

    def test_checkpoint_manifest_stamps_schema(self, setup, tmp_path):
        from repro.service.checkpoint import load_checkpoint

        ckpt = tmp_path / "stamp.npz"
        replay(
            CFG, setup, checkpoint_path=ckpt, checkpoint_every=1,
            stop_after=2,
        )
        manifest = load_checkpoint(ckpt).manifest
        assert manifest["alerts_schema"] == ALERTS_SCHEMA


class TestGracefulInterrupt:
    def test_flush_open_alerts_emits_canonical_flush_events(self, setup):
        detector = build_detector(CFG, setup, record_history=True)
        horizon = max(m.shape[1] for m in setup.eval_data.values())
        opened = False
        for ti in range(-(-horizon // CFG.chunk)):
            lo = ti * CFG.chunk
            burst = {
                p: m[:, lo : lo + CFG.chunk]
                for p, m in setup.eval_data.items()
                if lo < m.shape[1]
            }
            detector.process_block(burst, tick=ti)
            if detector.open_alerts():
                opened = True
                break
        assert opened, "smoke fleet must open an alert at some tick"
        events = flush_open_alerts(detector)
        assert events
        for event in events:
            assert event["event"] == "flush"
            assert list(to_payload(event)) == [
                "event", "node", "window", "opened", "label",
                "windows", "peak_confidence", "health",
            ]

    def test_sigint_finishes_tick_flushes_and_checkpoints(
        self, setup, tmp_path
    ):
        ckpt = tmp_path / "interrupt.npz"

        class InterruptOnFirstEmit(ListAlertSink):
            """Delivers Ctrl-C from inside the first tick that fires an
            event: a fixed point of the replay, not a timer race."""

            def emit(self, event):
                if not self.lines:
                    os.kill(os.getpid(), signal.SIGINT)
                super().emit(event)

        sink = InterruptOnFirstEmit()
        outcome = replay(
            CFG, setup, checkpoint_path=ckpt, checkpoint_every=1,
            sinks=(sink,),
        )
        assert outcome.interrupted
        assert ckpt.exists()
        # Resume replays the remaining ticks; the resumed sink stream
        # must be byte-identical to an uninterrupted run (flush events
        # are sink-only and excluded from the checkpoint).
        resumed_sink = ListAlertSink()
        replay(
            CFG, setup, checkpoint_path=ckpt, resume=True,
            sinks=(resumed_sink,),
        )
        full_sink = ListAlertSink()
        full = replay(CFG, setup, sinks=(full_sink,))
        assert resumed_sink.text() == full_sink.text()
        assert outcome.n_windows < full.n_windows, (
            "the interrupt must land before the end of the replay"
        )

    def test_detect_ctrl_c_exits_130_with_flush_and_checkpoint(
        self, tmp_path
    ):
        """SIGINT to a running `repro detect` exits 130 (never 0, so a
        script can tell a partial run from a complete one), the alert
        JSONL ends cleanly (flushed open alerts included) and a final
        checkpoint exists.  One-sample bursts with a checkpoint per tick
        keep the replay running for well over a second after its first
        checkpoint lands."""
        alerts = tmp_path / "detect_alerts.jsonl"
        ckpt = tmp_path / "detect_ckpt.npz"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "detect", "--smoke",
                "--chunk", "1", "--checkpoint-every", "1",
                "--alerts", str(alerts), "--checkpoint", str(ckpt),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        import time

        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and not ckpt.exists():
            time.sleep(0.05)  # wait for the first tick's checkpoint
        assert ckpt.exists(), "detect never processed a tick"
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 130, stderr.decode()
        assert f"checkpoint at {ckpt}" in stderr.decode()
        assert ckpt.exists()
        # Every emitted line parses and any open alert was flushed.
        lines = [
            json.loads(line)
            for line in alerts.read_text().splitlines()
            if line
        ]
        opens = sum(e["event"] == "open" for e in lines)
        closes = sum(e["event"] in ("close", "flush") for e in lines)
        assert opens == closes, "open alerts must be flushed on Ctrl-C"