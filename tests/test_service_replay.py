"""Replay determinism + service CLI tests.

The acceptance property of the online service: replaying a cached
segment set produces **byte-identical** alert JSONL — within a process,
and across separate processes with different hash seeds (the
PYTHONHASHSEED lesson of the artifact cache).
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import cli
from repro.service.alerts import JSONLAlertSink, MarkdownAlertSink
from repro.service.api import ServiceConfig, replay
from repro.service.replay import fleet_recipes, prepare_fleet

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def small_setup():
    return prepare_fleet(
        fleet_recipes(2, t=2000),
        ServiceConfig(blocks=8, trees=5, train_frac=0.5, seed=0),
    )


class TestInProcessDeterminism:
    def test_two_replays_identical_events(self, small_setup):
        first = replay(ServiceConfig(chunk=200), small_setup)
        second = replay(ServiceConfig(chunk=200), small_setup)
        assert first.events == second.events
        assert first.n_windows == second.n_windows

    def test_jsonl_sink_bytes_identical(self, small_setup, tmp_path):
        paths = []
        for i in range(2):
            out = tmp_path / f"alerts{i}.jsonl"
            replay(ServiceConfig(chunk=200), small_setup, sinks=[JSONLAlertSink(out)])
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].stat().st_size > 0

    def test_jsonl_sink_truncates_stale_output(self, tmp_path):
        """An alert-free run must leave an empty file, not a stale one —
        otherwise two 'identical' replays can differ byte for byte."""
        out = tmp_path / "alerts.jsonl"
        out.write_text('{"event":"open","stale":true}\n')
        sink = JSONLAlertSink(out)
        sink.close()
        assert out.read_bytes() == b""

    def test_serve_record_history_off_keeps_detector_empty(
        self, small_setup
    ):
        """The network server's detector keeps no per-window history
        (bounded memory); its events still fire, as in replay."""
        from repro.service.detector import FleetFaultDetector

        detector = FleetFaultDetector(
            small_setup.trained, record_history=False
        )
        events = detector.process_block(small_setup.eval_data)
        for path in detector.paths:
            assert detector.history[path] == ([], [])
            assert detector.policy(path).history == []
        scored = FleetFaultDetector(small_setup.trained)
        assert events == scored.process_block(small_setup.eval_data)
        assert any(scored.history[path][0] for path in scored.paths)

    def test_markdown_sink_summarizes_events(self, small_setup, tmp_path):
        md = tmp_path / "alerts.md"
        outcome = replay(
            ServiceConfig(chunk=200), small_setup,
            sinks=[MarkdownAlertSink(md, title="Alerts")],
        )
        text = md.read_text()
        assert "## Alerts" in text
        # header + separator + one row per event
        assert len(text.splitlines()) == 2 + 2 + len(outcome.events)

    def test_fresh_setup_reproduces_events(self):
        outcomes = [
            replay(
                ServiceConfig(chunk=200),
                prepare_fleet(
                    fleet_recipes(2, t=2000),
                    ServiceConfig(blocks=8, trees=5, train_frac=0.5, seed=0),
                ),
            )
            for _ in range(2)
        ]
        assert outcomes[0].events == outcomes[1].events


class TestCrossProcessDeterminism:
    def _run_detect(self, alerts: Path, cache: Path, hash_seed: str) -> None:
        subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "detect",
                "--smoke",
                "--alerts",
                str(alerts),
                "--cache-dir",
                str(cache),
            ],
            check=True,
            capture_output=True,
            env={
                **os.environ,
                "PYTHONPATH": str(SRC),
                "PYTHONHASHSEED": hash_seed,
            },
        )

    def test_detect_replay_byte_identical_across_processes(self, tmp_path):
        """The ISSUE acceptance criterion, verbatim: two separate
        ``repro detect`` processes replaying the same cached segment set
        write byte-identical alert JSONL."""
        cache = tmp_path / "cache"
        first = tmp_path / "alerts1.jsonl"
        second = tmp_path / "alerts2.jsonl"
        self._run_detect(first, cache, "0")
        self._run_detect(second, cache, "1")
        assert first.read_bytes() == second.read_bytes()
        events = [
            json.loads(line) for line in first.read_text().splitlines()
        ]
        assert any(e["event"] == "open" for e in events)


class TestDetectCLI:
    def test_detect_writes_alerts_csv_markdown(self, tmp_path, capsys):
        alerts = tmp_path / "alerts.jsonl"
        csv = tmp_path / "summary.csv"
        md = tmp_path / "alerts.md"
        code = cli.main([
            "detect",
            "--smoke",
            "--alerts", str(alerts),
            "--csv", str(csv),
            "--markdown", str(md),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "Fleet detection replay" in captured.err
        assert alerts.exists() and md.exists()
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("Fleet,")
        assert len(lines) == 2

    def test_detect_streams_events_to_stdout_by_default(self, capsys):
        assert cli.main(["detect", "--smoke"]) == 0
        out = capsys.readouterr().out
        events = [json.loads(line) for line in out.splitlines()]
        assert events, "expected alert events on stdout"
        assert {e["event"] for e in events} <= {"open", "close"}


class TestServeCLI:
    """`repro serve --listen` fed by `repro loadgen`, both with default
    flags, in this process (server on the main thread)."""

    @staticmethod
    def _serve(capsys, tmp_path):
        port_file = tmp_path / "serve.port"
        failures = []

        def feed():
            try:
                argv = ["loadgen", "--smoke", "--port-file", str(port_file)]
                assert cli.main(argv) == 0
            except BaseException as exc:  # surfaced on the main thread
                failures.append(exc)

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        rc = cli.main([
            "serve", "--smoke", "--listen", "127.0.0.1:0",
            "--port-file", str(port_file), "--exit-on-idle",
        ])
        feeder.join(timeout=60)
        assert rc == 0 and not failures, failures
        return capsys.readouterr()

    def test_serve_streams_events_and_summarizes(self, capsys, tmp_path):
        captured = self._serve(capsys, tmp_path)
        events = [json.loads(line) for line in captured.out.splitlines()]
        assert events
        for event in events:
            assert event["event"] in ("open", "close")
            assert event["node"].startswith("rack")
        assert "[serve] drained:" in captured.err

    def test_serve_matches_detect_alert_stream(self, capsys, tmp_path):
        """Live serving and batch replay are the same computation, and
        the same flags mean the same burst size in both."""
        serve_out = self._serve(capsys, tmp_path).out
        assert cli.main(["detect", "--smoke"]) == 0
        detect_out = capsys.readouterr().out
        assert serve_out == detect_out


class TestLazyServiceImports:
    def test_listing_scenarios_does_not_import_service_stack(self):
        """`repro list` must stay light: registering the builtin catalog
        (including the fleet-detect specs) may not pull repro.service."""
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.scenarios.registry import list_scenarios\n"
                "import sys\n"
                "assert list_scenarios(), 'no scenarios registered'\n"
                "loaded = [m for m in sys.modules"
                " if m.startswith('repro.service')]\n"
                "assert not loaded, f'service imported eagerly: {loaded}'\n"
                "print('lazy')\n",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "lazy"


class TestConsoleEntryPoint:
    def test_keyboard_interrupt_exits_130(self, monkeypatch):
        def boom():
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "main", boom)
        with pytest.raises(SystemExit) as excinfo:
            cli.console_main()
        assert excinfo.value.code == 130


class TestSinkFailureDegradation:
    """A failing alert sink must never crash the tick loop: the JSONL
    sink retries once through a fresh handle, then degrades to stderr
    behind an explicit data-loss warning."""

    def _failing_open(self, monkeypatch, fail_from: int):
        """Make Path.open start failing from the Nth call onward."""
        real_open = Path.open
        calls = {"n": 0}

        def flaky_open(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= fail_from:
                raise OSError(28, "No space left on device")
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", flaky_open)
        return calls

    def test_write_failure_retries_then_degrades(
        self, tmp_path, monkeypatch, capsys
    ):
        sink = JSONLAlertSink(tmp_path / "alerts.jsonl")

        def exploding_write(line):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(sink._fh, "write", exploding_write)
        # retry path also fails -> degrade
        self._failing_open(monkeypatch, fail_from=1)
        sink.emit({"event": "open", "node": "rack0/node00"})
        err = capsys.readouterr().err
        assert "failed twice" in err
        assert "NOT written to disk" in err
        assert '"node":"rack0/node00"' in err
        # further events stream to stderr without raising
        sink.emit({"event": "close", "node": "rack0/node00"})
        assert '"event":"close"' in capsys.readouterr().err
        sink.close()

    def test_write_failure_recovers_via_retry(
        self, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "alerts.jsonl"
        sink = JSONLAlertSink(path)
        first_fh = sink._fh

        def exploding_write(line):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(first_fh, "write", exploding_write)
        sink.emit({"event": "open", "node": "rack0/node00"})  # retry works
        sink.emit({"event": "close", "node": "rack0/node00"})
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["event"] == "open"
        assert capsys.readouterr().err == ""

    def test_replay_survives_dead_sink(self, small_setup, monkeypatch, capsys, tmp_path):
        """End to end: every sink write fails, the replay still finishes
        and the events land on stderr."""
        sink = JSONLAlertSink(tmp_path / "alerts.jsonl")

        def exploding_write(line):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(sink._fh, "write", exploding_write)
        self._failing_open(monkeypatch, fail_from=1)
        outcome = replay(ServiceConfig(chunk=200), small_setup, sinks=[sink])
        assert outcome.n_events == len(outcome.events) > 0
        err = capsys.readouterr().err
        assert "degraded" in err

    def test_markdown_close_failure_renders_to_stderr(
        self, tmp_path, monkeypatch, capsys
    ):
        sink = MarkdownAlertSink(tmp_path / "summary.md")
        sink.emit({"event": "open", "node": "rack0/node00", "window": 3,
                   "label": "leak", "confidence": 0.9})

        import repro.experiments.reporting as reporting

        def exploding_save(*a, **k):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(reporting, "save_markdown", exploding_save)
        sink.close()  # must not raise
        err = capsys.readouterr().err
        assert "failed" in err and "rack0/node00" in err

    def test_emit_after_close_still_raises(self, tmp_path):
        sink = JSONLAlertSink(tmp_path / "alerts.jsonl")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.emit({"event": "open"})
