"""The serving path is numpy-only: no CLI command or serving module
imports scipy, which backs only the SAX baseline (``repro-cs[baselines]``).

Each guard runs in a fresh interpreter, so modules other tests already
imported cannot hide an import-graph regression.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden" / "detect_smoke_alerts.jsonl"
SERVING = (
    "repro.cli", "repro.service.api", "repro.service.net",
    "repro.service.fastreplay",
)


def _python(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def test_serving_modules_import_no_scipy():
    result = _python(
        f"import sys, {', '.join(SERVING)}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_detect_smoke_without_scipy_matches_golden(tmp_path):
    """``repro detect --smoke`` with scipy made unimportable still
    writes the golden alert stream byte for byte."""
    alerts = tmp_path / "alerts.jsonl"
    result = _python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from repro.cli import console_main\n"
        "sys.argv[0] = 'repro'\n"
        "console_main()",
        "detect", "--smoke", "--alerts", str(alerts),
        "--cache-dir", str(tmp_path / "cache"),
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert alerts.read_bytes() == GOLDEN.read_bytes()
