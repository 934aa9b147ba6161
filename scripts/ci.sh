#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — run before pushing.
#
# Offline friendly: no network installs.  The repository runs straight
# off PYTHONPATH=src, so nothing needs to be pip-installed at all; when
# an editable install is wanted on a wheel-less environment, use
#
#     pip install -e . --no-build-isolation
#
# (plain `pip install -e .` needs the `wheel` package, which minimal
# containers lack; setup.py ships a shim that makes the legacy editable
# path work without it).
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 test suite (benchmarks deselected via -m 'not slow') =="
python -m pytest -x -q

echo "== bench guards (recorded speedup floors) =="
python -m pytest tests/test_bench_guard.py -q

# The persistence layers open files on every load; a handle left open
# on a failed load only shows up as a ResourceWarning at gc, so these
# suites run with leaks as errors.
echo "== persistence tests with file-handle leaks as errors =="
python -X dev -m pytest tests/test_monitoring_storage.py \
    tests/test_service_checkpoint.py tests/test_service_model_store.py \
    tests/test_fastreplay.py tests/test_checkpoint_contract.py \
    tests/test_checkpoint_bounded.py tests/test_telestore.py -q \
    -W error::ResourceWarning \
    -W error::pytest.PytestUnraisableExceptionWarning

# Opt-in benchmark refresh: regenerates results/*.csv + BENCH_*.json
# by running the slow-marked benchmark suite directly.  Off by
# default — the recorded summaries are committed and the guards above
# enforce their floors without paying benchmark runtime.
if [[ "${RUN_BENCH:-0}" == "1" ]]; then
    echo "== benchmark suite (pytest benchmarks -m slow) =="
    python -m pytest benchmarks -m slow -q
fi

./scripts/smoke.sh

# Lint runs when ruff is available; the lint job in GitHub Actions is
# authoritative.  Installing ruff needs network access, so offline
# containers simply skip this step.
if command -v ruff >/dev/null 2>&1; then
    echo "== ruff lint =="
    ruff check src tests benchmarks examples
else
    echo "== ruff not installed; skipping lint (CI's lint job runs it) =="
fi

echo "CI mirror passed."
