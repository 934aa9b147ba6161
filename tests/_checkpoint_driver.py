"""Subprocess driver for the crash-recovery contract sweep.

Invoked by ``tests/test_checkpoint_contract.py`` as::

    python tests/_checkpoint_driver.py SCENARIO STAMP CACHE_DIR OUT DIR MODE

Builds the named registered scenario's **smoke** fleet (through the
shared artifact cache), then either:

* ``full``   — one uninterrupted guarded replay, alert JSONL to OUT;
* ``resume`` — replay killed before the middle tick with per-tick
  checkpoints, then a second replay in the *same process family* (fresh
  detector, fresh sinks) restoring the checkpoint and finishing.  OUT
  ends up holding the complete stream because resume re-emits the
  checkpointed prefix into the truncating sink.  Before restoring, the
  checkpoint manifest's ``"backend"`` field is rewritten to STAMP;
  restore does not read the stamp, so either must resume identically.

Scenarios that name a fault schedule replay under it in both modes, so
the contract is exercised on hostile input too.  Every replay is
guarded, whatever the spec's ``guard`` says.  The test compares OUT
bytes across modes, stamps and PYTHONHASHSEED values.
"""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.monitoring.storage import atomic_savez, load_npz_arrays
from repro.scenarios.cache import ArtifactCache, ExecutionContext
from repro.scenarios.registry import get_scenario
from repro.service.alerts import JSONLAlertSink
from repro.service.api import ServiceConfig, build_setup, replay
from repro.service.chaos import ChaosConfig


def restamp_backend(path: Path, backend: str) -> str:
    """Rewrite a checkpoint manifest's ``"backend"`` stamp in place and
    return the stamp the writer left."""
    arrays = load_npz_arrays(path)
    manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
    written, manifest["backend"] = manifest["backend"], backend
    arrays["manifest"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    atomic_savez(path, **arrays)
    return written


def main() -> int:
    scenario_name, stamp, cache_dir, out, workdir, run_mode = sys.argv[1:7]
    spec = get_scenario(scenario_name)
    smoke = spec.smoke_dict()
    if "datasets" in smoke:
        spec = spec.with_datasets(smoke["datasets"])
    if "evaluation" in smoke:
        spec = spec.with_evaluation(**dict(smoke["evaluation"]))
    ev = spec.evaluation_dict()
    # Guarded whatever the spec says, so the guard's checkpointed state
    # is under the contract too.
    config = ServiceConfig.from_evaluation(ev, guard=True)
    chaos = ChaosConfig.from_evaluation(ev)
    setup = build_setup(
        config,
        recipes=spec.datasets,
        context=ExecutionContext(ArtifactCache(cache_dir)),
    )
    if run_mode == "full":
        replay(config, setup, sinks=[JSONLAlertSink(out)], chaos=chaos)
        return 0
    if run_mode != "resume":
        raise SystemExit(f"unknown run mode {run_mode!r}")
    horizon = max(m.shape[1] for m in setup.eval_data.values())
    n_ticks = -(-horizon // config.chunk)
    checkpoint = Path(workdir) / "contract_checkpoint.npz"
    replay(
        config,
        setup,
        sinks=[JSONLAlertSink(out)],
        chaos=chaos,
        checkpoint_path=checkpoint,
        checkpoint_every=1,
        stop_after=max(1, n_ticks // 2),
    )
    written = restamp_backend(checkpoint, stamp)
    if written != "fused":
        raise SystemExit(f"checkpoint stamped {written!r}, expected 'fused'")
    replay(
        config,
        setup,
        sinks=[JSONLAlertSink(out)],
        chaos=chaos,
        checkpoint_path=checkpoint,
        resume=True,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
