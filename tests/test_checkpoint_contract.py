"""The crash-recovery contract, enforced per scenario.

For **every** registered ``fleet-detect*`` scenario at smoke size:
interrupting the replay at the middle tick and resuming
from the checkpoint must produce alert JSONL **byte-identical** to an
uninterrupted run — with the two runs in separate processes under
*different* ``PYTHONHASHSEED`` values, so no accidental hash-order
dependence can hide in either the replay or the checkpoint codecs.
Each scenario resumes once from a checkpoint as written (stamped
``"backend": "fused"``) and once from the same checkpoint restamped
``"staged"``: restore does not read the stamp.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenarios.registry import scenario_names

SRC = Path(__file__).resolve().parent.parent / "src"
DRIVER = Path(__file__).resolve().parent / "_checkpoint_driver.py"

#: Cycled across (scenario, stamp) runs so full and resume runs
#: of the same comparison always see different hash seeds.
HASH_SEEDS = ("0", "7", "31337")


def fleet_detect_scenarios() -> list[str]:
    return sorted(
        name for name in scenario_names() if name.startswith("fleet-detect")
    )


def test_sweep_covers_all_registered_fleet_scenarios():
    """If someone registers a new fleet-detect* scenario, it joins the
    contract sweep automatically — this just pins the current floor."""
    names = fleet_detect_scenarios()
    assert {
        "fleet-detect",
        "fleet-detect-scale",
        "fleet-detect-noise",
        "fleet-detect-chaos",
    } <= set(names)


@pytest.fixture(scope="session")
def contract_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("contract_cache"))


def run_driver(scenario, stamp, cache, out, workdir, mode, hash_seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    subprocess.run(
        [sys.executable, str(DRIVER), scenario, stamp, cache,
         str(out), str(workdir), mode],
        check=True,
        env=env,
        cwd=str(SRC.parent),
        capture_output=True,
    )


@pytest.mark.parametrize("stamp", ("staged", "fused"))
@pytest.mark.parametrize("scenario", fleet_detect_scenarios())
def test_interrupt_resume_byte_identical(
    scenario, stamp, contract_cache, tmp_path
):
    full = tmp_path / "full.jsonl"
    resumed = tmp_path / "resumed.jsonl"
    # different hash seeds for the two runs of every comparison
    idx = hash((scenario, stamp)) % len(HASH_SEEDS)
    run_driver(
        scenario, stamp, contract_cache, full, tmp_path, "full",
        HASH_SEEDS[idx],
    )
    run_driver(
        scenario, stamp, contract_cache, resumed, tmp_path, "resume",
        HASH_SEEDS[(idx + 1) % len(HASH_SEEDS)],
    )
    assert full.read_bytes() == resumed.read_bytes()
    assert full.stat().st_size > 0, "smoke replay should emit alerts"
