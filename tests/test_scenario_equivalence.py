"""The Python spec API and ``repro run`` are one path.

``execute(get_scenario(name).with_...(...))`` and ``python -m repro run
<name>`` go through the same spec + runner, so for the same effective
spec they must yield the same rows.  Wall-clock columns are made
deterministic by freezing ``time.perf_counter`` to a counter — both
paths execute the same sequence of timed operations.
"""

import time

import pytest

from repro import cli
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import execute


@pytest.fixture
def frozen_clock(monkeypatch):
    """Deterministic perf_counter: each call advances 1 ms."""
    state = {"now": 0.0}

    def tick() -> float:
        state["now"] += 1e-3
        return state["now"]

    monkeypatch.setattr(time, "perf_counter", tick)
    return tick


def test_fig3_legacy_flags_still_work(capsys):
    """The Figure 3 script's segment and method flags live on `repro run`."""
    assert cli.main([
        "run", "fig3", "--segments", "application", "--methods", "lan",
        "cs-5", "--trees", "4", "--scale", "0.25",
    ]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out
    assert "lan" in out and "cs-5" in out


def test_run_api_matches_cli_rows(tmp_path, capsys, frozen_clock):
    """The spec API and the CLI produce the same points for the same knobs."""
    spec = get_scenario("fig5").with_methods(("lan", "cs-5")).with_evaluation(
        wl_grid=(10,), n_grid=(10,), repeats=2
    )
    points = execute(spec).extras["points"]
    csv = tmp_path / "fig5.csv"
    assert cli.main(["run", "fig5", "--smoke", "--csv", str(csv)]) == 0
    capsys.readouterr()
    rows = csv.read_text().splitlines()[1:]
    assert len(rows) == len(points) == 4
    for point, row in zip(points, rows):
        axis, method = row.split(",")[:2]
        assert (axis, method) == (point.axis, point.method)
