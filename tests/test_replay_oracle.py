"""``api.replay`` (``repro detect``) against the plain guarded loop.

The replay drives the network server's serving core from memory, so
its alert stream is compared with a loop that shares none of the core's
code, and with the golden fixture that anchors ``repro detect --smoke``.
"""

from pathlib import Path

from _guarded_oracle import guarded_lines

from repro.service import api
from repro.service.servecore import ListAlertSink

GOLDEN = Path(__file__).resolve().parent / "golden" / "detect_smoke_alerts.jsonl"


def test_replay_equals_plain_guarded_loop_and_golden(tmp_path):
    config = api.ServiceConfig.smoke(cache_dir=str(tmp_path / "cache"))
    setup = api.build_setup(config)
    sink = ListAlertSink()
    api.replay(config, setup, sinks=(sink,))
    assert sink.lines == guarded_lines(config, setup)
    assert sink.text() == GOLDEN.read_text(encoding="utf-8")
